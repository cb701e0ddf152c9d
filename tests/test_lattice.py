import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsurf.errors import ModelError, NotNegativeDefiniteError
from logsurf.lattice import (
    AT_INTERSECTION,
    PointSpec,
    SurfaceModel,
    _validated,
    blow_down_cascade,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from logsurf.linalg import negative_definite_factor
from logsurf.mmp import _random_tower
from logsurf.scenario import build_model, star_scenario
from logsurf.singularities import pulled_back
from oracles import (
    CoordinateTower,
    charpoly_negdef,
    coordinate_model,
    dense_blow_up,
    gauss_pullback,
    pairing,
    stepwise_minimal_resolution,
)
from test_singularities import TOWER_OPS, tower_point


def tower(*steps):
    """Small helper: steps are (point, name) pairs applied to a fresh plane."""
    model = new_projective_plane()
    for point, name in steps:
        model = blow_up(model, point, name)
    return model


def with_entries(model, entries):
    """An unvalidated copy of `model` with matrix entries replaced, {(i, j): value}."""
    rows = [list(row) for row in model.matrix]
    for (i, j), value in entries.items():
        rows[i][j] = value
    return SurfaceModel(rank=model.rank, names=model.names, matrix=tuple(map(tuple, rows)))


# A (-2) meeting B (-1) once: matrix ((7, 0, -1), (0, -2, 1), (-1, 1, -1))
A_B = tower((PointSpec.general(), "A"), (PointSpec.on_curve("A"), "B"))
SYMMETRIC_AT = r"not a symmetric integer matrix at \({}, {}\)"


def random_tower(rng, max_blowups=8):
    model = new_projective_plane()
    for i in range(rng.randint(1, max_blowups)):
        if not model.tracked or rng.random() < 0.5:
            point = PointSpec.general()
        else:
            point = PointSpec.on_curve(rng.choice(model.tracked))
        model = blow_up(model, point, f"C{i}")
    return model


class TestPlane:
    def test_fresh_plane(self):
        p2 = new_projective_plane()
        assert p2.rank == 1
        assert p2.k_squared == 9
        assert p2.matrix == ((9,),)
        assert p2.tracked == ()
        assert not p2.contracted

    def test_line_class_has_genus_zero(self):
        m = coordinate_model(1, (-3,), {"L": (1,)})
        assert m.self_int("L") == 1
        assert m.genus("L") == 0

    def test_conic_and_cubic_genus(self):
        m = coordinate_model(1, (-3,), {"Q": (2,), "T": (3,)})
        assert m.genus("Q") == 0
        assert m.genus("T") == 1  # smooth plane cubic


class TestBlowUp:
    def test_general_point(self):
        m = tower((PointSpec.general(), "E"))
        assert m.rank == 2
        assert m.k_squared == 8
        assert m.self_int("E") == -1
        assert m.k_dot("E") == -1
        assert m.genus("E") == 0
        assert m.names == ("E",)
        assert m.matrix == ((8, -1), (-1, -1))

    def test_point_on_curve(self):
        m = tower((PointSpec.general(), "A"), (PointSpec.on_curve("A"), "B"))
        assert m.self_int("A") == -2
        assert m.self_int("B") == -1
        assert m.intersection("A", "B") == 1
        assert m.genus("A") == 0

    def test_point_at_intersection_separates(self):
        m = tower(
            (PointSpec.general(), "A"),
            (PointSpec.on_curve("A"), "B"),
            (PointSpec.at_intersection("A", "B"), "Z"),
        )
        assert m.intersection("A", "B") == 0
        assert m.intersection("A", "Z") == 1
        assert m.intersection("B", "Z") == 1
        assert m.self_int("A") == -3 and m.self_int("B") == -2

    def test_at_intersection_requires_meeting(self):
        m = tower((PointSpec.general(), "A"), (PointSpec.general(), "B"))
        assert m.intersection("A", "B") == 0
        with pytest.raises(ModelError):
            blow_up(m, PointSpec.at_intersection("A", "B"), "Z")

    def test_same_curve_twice_rejected(self):
        with pytest.raises(ModelError):
            PointSpec.at_intersection("A", "A")

    def test_duplicate_name_rejected(self):
        m = tower((PointSpec.general(), "A"))
        with pytest.raises(ModelError):
            blow_up(m, PointSpec.general(), "A")

    def test_unknown_point_curve_rejected(self):
        m = new_projective_plane()
        with pytest.raises(ModelError):
            blow_up(m, PointSpec.on_curve("ghost"), "E")

    def test_contracted_model_cannot_blow_up(self):
        m = tower((PointSpec.general(), "A"), (PointSpec.on_curve("A"), "B"))
        m = declare_contracted(m, ["A"])
        with pytest.raises(ModelError):
            blow_up(m, PointSpec.general(), "C")


class TestBlowDown:
    def test_round_trip(self):
        base = tower((PointSpec.general(), "A"))
        m = blow_up(base, PointSpec.on_curve("A"), "B")
        down = blow_down_cascade(m, ["B"])
        assert down.rank == base.rank
        assert down.k_squared == 8
        assert down.self_int("A") == -1
        assert down.k_dot("A") == -1
        # blowing the new curve back down restores every intersection number
        assert down.names == base.names
        assert down.matrix == base.matrix

    def test_canonical_pushforward(self):
        m = tower((PointSpec.general(), "A"))
        down = blow_down_cascade(m, ["A"])
        # K - e pairs like the plane's canonical class again
        assert down.names == ()
        assert down.matrix == ((9,),)
        assert down.k_squared == 9

    def test_only_minus_one_curves(self):
        # a cascade with no (-1)-curve among its names is a no-op
        m = tower((PointSpec.general(), "A"), (PointSpec.on_curve("A"), "B"))
        assert m.self_int("A") == -2
        assert blow_down_cascade(m, ["A"]) is m

    def test_unknown_name(self):
        with pytest.raises(ModelError) as exc:
            blow_down_cascade(tower((PointSpec.general(), "A")), ["Z"])
        assert str(exc.value) == "unknown curve 'Z'"

    def test_cascade(self):
        m = tower(
            (PointSpec.general(), "A"),
            (PointSpec.on_curve("A"), "B"),
            (PointSpec.on_curve("B"), "C"),
        )
        m = blow_down_cascade(m, ["C"])
        assert m.self_int("B") == -1
        m = blow_down_cascade(m, ["B"])
        assert m.self_int("A") == -1
        m = blow_down_cascade(m, ["A"])
        assert m.rank == 1 and m.k_squared == 9 and not m.tracked


class TestRowLocalUpdates:
    """`blow_up` rewrites only K's row and the rows through the point, and
    `blow_down_cascade` picks the kept columns with `itemgetter`; both
    against the dense formulas of `oracles`."""

    @staticmethod
    def grow(ops):
        """Blow up TOWER_OPS's points one by one, each checked against
        `dense_blow_up`; returns the tower and the point kinds used."""
        model, kinds = new_projective_plane(), set()
        for i, (kind, pick) in enumerate(ops):
            point = tower_point(model, kind, pick)
            expected = dense_blow_up(model, point, f"C{i}")
            model = blow_up(model, point, f"C{i}")
            assert model == expected
            assert type(model.matrix) is tuple and all(type(row) is tuple for row in model.matrix)
            kinds.add(point.kind)
        return model, kinds

    @settings(max_examples=200)
    @given(TOWER_OPS)
    def test_blow_up_matches_the_dense_formula(self, ops):
        self.grow(ops)

    def test_seeded_towers_reach_every_point_kind(self):
        rng = random.Random(1414)
        kinds = set()
        for _ in range(40):
            ops = [(rng.choice(("general", "on", "at")), rng.randrange(10**6)) for _ in range(rng.randint(1, 12))]
            kinds |= self.grow(ops)[1]
        assert AT_INTERSECTION in kinds and len(kinds) == 3

    def test_cascade_down_to_rank_one(self):
        # A (-2) meeting B (-1), both contracted: blowing B down makes A a
        # (-1)-curve, and blowing A down leaves K alone, one kept column
        model = declare_contracted(A_B, ["A", "B"])
        resolved = blow_down_cascade(model, ["A", "B"])
        assert (resolved.rank, resolved.names, resolved.matrix, resolved.contracted) == (1, (), ((9,),), frozenset())
        assert resolved == stepwise_minimal_resolution(model)
        assert getattr(resolved, "_checked", False)


class TestContractedSet:
    def test_declare_requires_negative_definite(self):
        m = tower((PointSpec.general(), "A"), (PointSpec.on_curve("A"), "B"))
        ok = declare_contracted(m, ["A"])
        assert ok.contracted == frozenset({"A"})
        # A (-2) and B (-1) meeting once: det = 2 - 1 = 1 > 0, negative definite
        both = declare_contracted(m, ["A", "B"])
        assert both.contracted == {"A", "B"}

    def test_nonnegative_curve_rejected(self):
        m = _validated(coordinate_model(1, (-3,), {"H": (1,)}))
        with pytest.raises(NotNegativeDefiniteError):
            declare_contracted(m, ["H"])

    def test_degenerate_pair_rejected(self):
        # two (-1)-curves meeting once: Gram determinant 0, not definite
        m = _validated(coordinate_model(3, (-3, 1, 1), {"A": (0, 1, 0), "B": (1, -1, -1)}))
        assert m.self_int("A") == m.self_int("B") == -1
        assert m.intersection("A", "B") == 1
        with pytest.raises(NotNegativeDefiniteError):
            declare_contracted(m, ["A", "B"])

    def test_blow_down_restores_separated_intersection(self):
        m = tower(
            (PointSpec.general(), "A"),
            (PointSpec.on_curve("A"), "B"),
            (PointSpec.at_intersection("A", "B"), "Z"),
        )
        down = blow_down_cascade(m, ["Z"])
        # contracting Z re-joins A and B and returns one unit of self-intersection
        assert down.intersection("A", "B") == 1
        assert down.self_int("A") == -2
        assert down.self_int("B") == -1

    def test_blow_down_outside_the_set_rechecks_contracted_curves(self):
        # the line L through the two centres is contracted; blowing E1 down
        # raises L.L from -1 to 0 with genus kept, so the C.C check names L
        m = _validated(coordinate_model(3, (-3, 1, 1), {"E1": (0, 1, 0), "E2": (0, 0, 1), "L": (1, -1, -1)}))
        m = declare_contracted(m, ["L"])
        with pytest.raises(NotNegativeDefiniteError) as exc:
            blow_down_cascade(m, ["E1"])
        assert str(exc.value) == "contracted curve 'L' has self-intersection 0 >= 0"

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            declare_contracted(new_projective_plane(), ["E"])

    def test_hodge_index_caps_the_contracted_count(self):
        # two disjoint (-1)-curves pass the Sylvester test, but rank 1 leaves
        # no room for a negative direction
        model = SurfaceModel(
            rank=1,
            names=("A", "B"),
            matrix=((9, -1, -1), (-1, -1, 0), (-1, 0, -1)),
            contracted=frozenset({"A", "B"}),
        )
        assert model.contracted_factor is not None
        with pytest.raises(NotNegativeDefiniteError, match="rank 1 allows at most 0"):
            _validated(model)


def assert_blocks(model):
    """`model`'s contracted blocks, checked: each block's factor is the
    whole-block `negative_definite_factor` of its rows in its order, the
    blocks partition the contracted rows, and no curve of one block meets
    a curve of another."""
    blocks, m = model.contracted_factor, model.matrix
    assert sorted(r for rows, _ in blocks for r in rows) == sorted(map(model.row, model.contracted))
    for rows, factor in blocks:
        assert factor == negative_definite_factor([[m[i][j] for j in rows] for i in rows])
    for (a, _), (b, _) in combinations(blocks, 2):
        assert not any(m[i][j] for i in a for j in b)
    return blocks


def assert_solves(model):
    """`pulled_back` of K and of every curve that is not contracted, against
    the Gauss-Jordan solve over the whole contracted Gram block."""
    free = [model.row(n) for n in model.names if n not in model.contracted]
    for terms in [[(0, F(1))]] + [[(r, F(1))] for r in free]:
        coef, v, d = pulled_back(model, terms)
        assert d > 0 and ([F(x, d) for x in coef], [F(x, d) for x in v]) == gauss_pullback(model, terms)


def declared_one_by_one(model, names):
    """`model` with `names` declared contracted in turn, each one that keeps
    the set negative definite, the blocks checked after each; returns the
    model and how many declarations merged two or more blocks."""
    merges = 0
    for name in names:
        before = model.contracted_factor
        try:
            model = declare_contracted(model, [name])
        except NotNegativeDefiniteError:
            continue
        blocks = assert_blocks(model)
        merges += len(before) - len(blocks) + 1 >= 2
    return model, merges


class TestContractedBlocks:
    """The contracted set's factor comes in blocks, each a union of
    connected components: one block in name order from scratch, and from
    `declare_contracted` a new 1 x 1 block, a bordered block or a merge."""

    def test_from_scratch_one_block_in_name_order(self):
        # B and D are disjoint, so two components, but one block
        model = tower(
            (PointSpec.general(), "D"),
            (PointSpec.general(), "B"),
            (PointSpec.on_curve("B"), "C"),
        )
        assert model.contracted_factor == ()
        raw = SurfaceModel(model.rank, model.names, model.matrix, frozenset({"D", "B"}))
        ((rows, _),) = assert_blocks(_validated(raw))
        assert rows == (model.row("B"), model.row("D"))

    def test_a_star_center_declared_last_merges_its_arms(self):
        scenario = star_scenario(4, (2, 2, 3), 2)
        smooth = build_model(replace(scenario, contract=()))
        arms, center = scenario.contract[0][1:], scenario.contract[0][0]
        assert center == "E0"
        model = declare_contracted(smooth, arms)
        assert [rows for rows, _ in assert_blocks(model)] == [(smooth.row(a),) for a in arms]
        model = declare_contracted(model, [center])
        ((rows, factor),) = assert_blocks(model)
        # the arms' blocks in their order, then the center
        assert rows == tuple(map(smooth.row, [*arms, center]))
        assert factor[-1][-1] == negative_definite_factor(model.gram(model.contracted))[-1][-1]
        assert_solves(model)

    def test_random_orders_on_towers_and_stars(self):
        # every curve of a tower in a random order, each kept if the set
        # stays negative definite; then every star's contracted set
        counts = []
        for t in range(60):
            rng = random.Random(t)
            model = _random_tower(rng, 12)
            names = list(model.names)
            rng.shuffle(names)
            declared, merges = declared_one_by_one(model, names)
            counts.append((len(declared.contracted), merges))
            assert_solves(declared)
            whole = _validated(SurfaceModel(model.rank, model.names, model.matrix, declared.contracted))
            assert len(whole.contracted_factor) == 1
            for r in [0] + [r for r, n in enumerate(model.names, 1) if n not in declared.contracted]:
                got, want = pulled_back(declared, [(r, F(1))]), pulled_back(whole, [(r, F(1))])
                assert [F(x, got[2]) for x in got[0] + got[1]] == [F(x, want[2]) for x in want[0] + want[1]]
        for center, arms in ((3, (2, 3, 3)), (4, (2, 2, 3)), (5, (2, 3, 5)), (4, (3, 3, 3))):
            scenario = star_scenario(center, arms, 2)
            smooth = build_model(replace(scenario, contract=()))
            for seed in range(4):
                names = list(scenario.contract[0])
                random.Random(seed).shuffle(names)
                declared, merges = declared_one_by_one(smooth, names)
                assert declared.contracted == set(names)
                counts.append((len(names), merges))
                assert_solves(declared)
        # declarations, merges, and merges on the stars
        assert (sum(c for c, _ in counts), sum(m for _, m in counts), sum(m for _, m in counts[60:])) == (449, 27, 4)

    def test_several_new_curves_border_in_name_order(self):
        # one declaration of two curves borders them one at a time, in name
        # order, exactly as two declarations of one curve each do
        model = tower((PointSpec.general(), "A"), (PointSpec.on_curve("A"), "B"))
        both = declare_contracted(model, ["B", "A"])
        ((rows, _),) = assert_blocks(both)
        assert rows == (model.row("A"), model.row("B"))
        assert both.contracted_factor == declare_contracted(declare_contracted(model, ["A"]), ["B"]).contracted_factor

    def test_a_lookup_reads_only_the_blocks_a_curve_meets(self):
        # eight disjoint (-2)-curves E1..E8, each its own block, and Fi a
        # (-1)-curve on Ei: declaring F1, or solving its pullback, finds E1's
        # block through the row->block map and reads no other block's rows
        steps = [(PointSpec.general(), f"E{i}") for i in range(1, 9)]
        steps += [(PointSpec.on_curve(f"E{i}"), f"F{i}") for i in range(1, 9)]
        smooth = tower(*steps)
        declared = declare_contracted(smooth, [f"E{i}" for i in range(1, 9)])
        reads = []

        class Watched(tuple):
            def __iter__(self):
                reads.append(self)
                return super().__iter__()

        blocks = tuple((Watched(rows), factor) for rows, factor in declared.contracted_factor)
        model = SurfaceModel(smooth.rank, smooth.names, smooth.matrix, declared.contracted)
        model.__dict__["contracted_factor"] = blocks
        _validated(model)
        pulled_back(model, [(model.row("F2"), 1)])  # a first lookup may build the map, reading every block
        (e1,) = [rows for rows, _ in blocks if rows == (model.row("E1"),)]
        reads.clear()
        f1 = model.row("F1")
        assert pulled_back(model, [(f1, 1)]) == pulled_back(declared, [(f1, 1)])
        blocks_after = declare_contracted(declared, ["F1"]).contracted_factor
        assert declare_contracted(model, ["F1"]).contracted_factor == blocks_after
        assert reads and all(rows is e1 for rows in reads)


class TestPointSpec:
    @pytest.mark.parametrize(
        "kind, names, message",
        [
            ("nowhere", (), "unknown point kind 'nowhere'"),
            ("general", ("A",), "point kind 'general' needs 0 curve names, got 1"),
            ("on_curve", (), "point kind 'on_curve' needs 1 curve names, got 0"),
            ("at_intersection", ("A",), "point kind 'at_intersection' needs 2 curve names, got 1"),
        ],
    )
    def test_rejects_bad_kind_and_name_count(self, kind, names, message):
        with pytest.raises(ModelError, match=message):
            PointSpec(kind, names)


class TestInvariants:
    def test_k_squared_tracks_rank(self):
        rng = random.Random(7321)
        for _ in range(40):
            m = random_tower(rng)
            assert m.k_squared == 10 - m.rank
            for name in m.tracked:
                assert m.genus(name) == 0
                assert m.k_dot(name) == -2 - m.self_int(name)  # adjunction
            for i, a in enumerate(m.tracked):
                for b in m.tracked[i + 1 :]:
                    assert m.intersection(a, b) >= 0

    def test_blow_down_preserves_all_pairings(self):
        rng = random.Random(99)
        for _ in range(25):
            m = random_tower(rng, max_blowups=6)
            ones = [n for n in m.tracked if m.self_int(n) == -1 and m.k_dot(n) == -1]
            if not ones:
                continue
            e = rng.choice(ones)
            down = blow_down_cascade(m, [e])
            for a in down.tracked:
                for b in down.tracked:
                    before = m.intersection(a, b) + m.intersection(a, e) * m.intersection(b, e)
                    assert down.intersection(a, b) == before

    def test_validated_rejects_bad_genus(self):
        with pytest.raises(ModelError):
            _validated(coordinate_model(2, (-3, 1), {"X": (1, 1)}))  # genus -1 class

    def test_validated_rejects_negative_pairings(self):
        with pytest.raises(ModelError):
            _validated(coordinate_model(2, (-3, 1), {"A": (0, 1), "B": (1, 2)}))

    @pytest.mark.parametrize(
        "model, message",
        [
            (coordinate_model(2, (-3,), {"H": (1,)}), "K.K = 9 but rank 2 needs 8"),
            (SurfaceModel(rank=1, names=("H",), matrix=((9, -3), (-3,))), "not 2 x 2"),
            (SurfaceModel(rank=1, names=("H",), matrix=((9, -3), (-2, 1))), SYMMETRIC_AT.format(0, 1)),
            (SurfaceModel(rank=1, names=(), matrix=((9, 0), (0, 9))), "not 1 x 1"),
            (SurfaceModel(rank=0, names=(), matrix=((10,),)), "rank 0 < 1"),
            (with_entries(A_B, {(1, 2): True, (2, 1): True}), SYMMETRIC_AT.format(1, 2)),
            (with_entries(A_B, {(2, 1): True}), SYMMETRIC_AT.format(1, 2)),
            (with_entries(A_B, {(1, 1): -2.0}), SYMMETRIC_AT.format(1, 1)),
            (with_entries(A_B, {(2, 0): 0}), SYMMETRIC_AT.format(0, 2)),
            (with_entries(A_B, {(1, 2): -1, (2, 1): -1}), "'A' and 'B' have negative intersection"),
        ],
        ids=[
            "k-squared",
            "ragged",
            "asymmetric",
            "wrong-size",
            "rank-0",
            "bool-entry",
            "bool-below-diagonal",
            "float-entry",
            "asymmetric-entry",
            "negative-off-diagonal",
        ],
    )
    def test_validated_rejects_malformed_matrix(self, model, message):
        with pytest.raises(ModelError, match=message):
            _validated(model)

    def test_hand_built_plane_with_line(self):
        m = _validated(coordinate_model(1, (-3,), {"H": (1,)}))
        assert m.self_int("H") == 1 and m.genus("H") == 0


class TestCheckedBlowUp:
    """blow_up of a `_checked` model skips `_validated`, whose checks it
    cannot fail; a raw model gets every one of them at entry, so the
    messages describe the input, not the blown-up model."""

    @settings(max_examples=200)
    @given(TOWER_OPS, st.booleans())
    def test_matches_validation_from_scratch(self, ops, over_line):
        model = _validated(coordinate_model(1, (-3,), {"L": (1,)})) if over_line else new_projective_plane()
        for i, (kind, pick) in enumerate(ops):
            blown = blow_up(model, tower_point(model, kind, pick), f"C{i}")
            assert getattr(blown, "_checked", False)
            expected = _validated(SurfaceModel(rank=blown.rank, names=blown.names, matrix=blown.matrix))
            assert blown == expected
            model = blown

    RAW_CASES = {
        "asymmetric": (
            with_entries(A_B, {(0, 1): 1}),
            PointSpec.general(),
            "intersection matrix is not a symmetric integer matrix at (0, 1)",
        ),
        "not-integer": (
            with_entries(A_B, {(2, 2): -1.0}),
            PointSpec.general(),
            "intersection matrix is not a symmetric integer matrix at (2, 2)",
        ),
        "negative": (
            with_entries(A_B, {(1, 2): -1, (2, 1): -1}),
            PointSpec.on_curve("B"),
            "tracked curves 'A' and 'B' have negative intersection",
        ),
        "genus": (
            with_entries(A_B, {(1, 1): -3}),
            PointSpec.on_curve("A"),
            "curve 'A' is not a smooth rational class (genus != 0)",
        ),
        "k-squared": (
            SurfaceModel(rank=4, names=A_B.names, matrix=A_B.matrix),
            PointSpec.general(),
            "K.K = 7 but rank 4 needs 6",
        ),
        "rank": (SurfaceModel(rank=-1, names=A_B.names, matrix=A_B.matrix), PointSpec.general(), "rank -1 < 1"),
        "names": (
            SurfaceModel(rank=3, names=("A", "A"), matrix=A_B.matrix),
            PointSpec.general(),
            "tracked curve names repeat",
        ),
    }

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: blow_up(m, PointSpec.on_curve("Z"), "E"),
            lambda m: blow_up(replace(m, contracted=frozenset({"A"})), PointSpec.general(), "E"),
            lambda m: declare_contracted(m, ["Z"]),
            lambda m: declare_contracted(m, ["A"]),
        ],
        ids=["blow_up-unknown-curve", "blow_up-contracted", "declare-unknown-curve", "declare"],
    )
    def test_raw_input_is_checked_before_the_arguments(self, build):
        with pytest.raises(ModelError) as exc:
            build(with_entries(A_B, {(0, 1): 1}))
        assert str(exc.value) == "intersection matrix is not a symmetric integer matrix at (0, 1)"

    @pytest.mark.parametrize("case", sorted(RAW_CASES))
    def test_raw_input_gets_every_check(self, case):
        # the messages are those of validating the input as given
        raw, point, message = self.RAW_CASES[case]
        assert not hasattr(raw, "_checked")
        with pytest.raises(ModelError) as exc:
            blow_up(raw, point, "E")
        assert str(exc.value) == message


POINT_KINDS = ("general", "on", "at")
OPS = st.lists(
    st.tuples(st.sampled_from(POINT_KINDS + ("down", "contract")), st.integers(0, 10**6)),
    min_size=4,
    max_size=16,
)


class TestCoordinateOracle:
    """The intersection matrix against the coordinate model, op by op."""

    @staticmethod
    def agree(model, oracle):
        assert model.rank == oracle.rank
        assert model.tracked == tuple(sorted(oracle.curves))
        assert model.k_squared == pairing(oracle.canonical, oracle.canonical)
        for a, ca in oracle.curves.items():
            assert model.k_dot(a) == pairing(oracle.canonical, ca)
            for b, cb in oracle.curves.items():
                assert model.intersection(a, b) == pairing(ca, cb)

    @settings(max_examples=300)
    @given(OPS)
    def test_random_towers_match_the_coordinate_model(self, ops):
        model, oracle = new_projective_plane(), CoordinateTower()
        for i, (op, pick) in enumerate(ops):
            names = sorted(oracle.curves)
            if op in POINT_KINDS:
                if model.contracted:
                    continue
                if op == "general":
                    choices = [PointSpec.general()]
                elif op == "on":
                    choices = [PointSpec.on_curve(n) for n in names]
                else:
                    choices = [
                        PointSpec.at_intersection(a, b)
                        for a, b in combinations(names, 2)
                        if pairing(oracle.curves[a], oracle.curves[b]) >= 1
                    ]
                if not choices:
                    continue
                point = choices[pick % len(choices)]
                model = blow_up(model, point, f"C{i}")
                oracle.blow_up(point.names, f"C{i}")
            elif op == "down":
                # a contracted (-1)-curve, or any one while nothing is contracted
                ones = [
                    n
                    for n in names
                    if (n in model.contracted or not model.contracted)
                    and pairing(oracle.curves[n], oracle.curves[n]) == -1
                    and pairing(oracle.canonical, oracle.curves[n]) == -1
                ]
                if not ones:
                    continue
                e = ones[pick % len(ones)]
                model = blow_down_cascade(model, [e])
                oracle.blow_down(e)
            else:
                free = [n for n in names if n not in model.contracted]
                if not free:
                    continue
                c = free[pick % len(free)]
                wanted = sorted(model.contracted | {c})
                gram = [[pairing(oracle.curves[a], oracle.curves[b]) for b in wanted] for a in wanted]
                if charpoly_negdef(gram):
                    model = declare_contracted(model, [c])
                    assert model.contracted == set(wanted)
                else:
                    with pytest.raises(NotNegativeDefiniteError):
                        declare_contracted(model, [c])
            self.agree(model, oracle)
