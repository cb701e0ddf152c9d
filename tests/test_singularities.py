import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsurf import lattice, singularities
from logsurf.dualgraph import build_dual_graph
from logsurf.errors import LogSurfError, ModelError, MultiEdgeError, NotNegativeDefiniteError, ScenarioError
from logsurf.lattice import (
    PointSpec,
    SurfaceModel,
    _validated,
    blow_down_cascade,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from logsurf.scenario import build_model, star_scenario
from logsurf.singularities import (
    EPS_LOG_CANONICAL,
    EPS_LOG_TERMINAL,
    NEG_INFINITY,
    NOT_LOG_CANONICAL,
    UNCLASSIFIABLE_SNC,
    QDivisor,
    _check_boundary,
    _classified,
    classify,
    log_discrepancies,
    minimal_resolution,
    pullback,
    pulled_back,
)
from oracles import (
    CoordinateTower,
    charpoly_negdef,
    coordinate_model,
    dense_blow_down,
    fraction_classify,
    gauss_solve,
    lt_by_dual_graph,
    pairing,
    snc_search_oracle,
    stepwise_minimal_resolution,
)


def fork_model(n0, orders=(2, 3, 6), extra=3, **kw):
    return build_model(star_scenario(n0, orders, extra, **kw))


def snc_total(coefficients, edges=()):
    """`_snc_total`, the integer SNC rule `classify` applies, on Fraction
    coefficients put over one denominator, each edge met once: the Fraction
    total, or NEG_INFINITY."""
    coefficients = [F(c) for c in coefficients]
    d = lcm(*(c.denominator for c in coefficients))
    numerators = [c.numerator * (d // c.denominator) for c in coefficients]
    total = singularities._snc_total(numerators, d, [(edge, 1) for edge in edges])
    return NEG_INFINITY if total is None else F(total, d)


def double_point_model():
    """Two (-3)-classes meeting in two points; contractible but not SNC."""
    return _validated(
        coordinate_model(
            4,
            (-3, 1, 1, 1),
            {"C1": (0, -1, -1, 1), "C2": (-1, 2, 0, 0)},
            {"C1", "C2"},
        )
    )


class TestQDivisor:
    def test_from_map_sorts(self):
        d = QDivisor.from_map({"B": F(1, 2), "A": 1})
        assert d.names == ("A", "B")
        assert d.as_map().get("A", 0) == 1
        assert d.as_map().get("missing", 0) == 0

    def test_zero_and_explicit_zeros(self):
        assert QDivisor.zero().coefficients == ()
        d = QDivisor.from_map({"A": 0, "B": F(1, 3)})
        assert d.as_map() == {"A": 0, "B": F(1, 3)}
        assert d.names == ("A", "B")

    def test_without(self):
        d = QDivisor.from_map({"A": 1, "B": 2})
        assert d.without("A").names == ("B",)
        assert d.without("C") == d

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ((("B", F(1)), ("A", F(1))), "sorted and distinct"),
            ((("A", F(1)), ("A", F(2))), "sorted and distinct"),
            ((("A", 1),), "must be Fractions"),
            ((("A", 0.5),), "must be Fractions"),
        ],
        ids=["unsorted", "repeated", "int", "float"],
    )
    def test_rejects_bad_coefficients(self, coefficients, message):
        with pytest.raises(ValueError, match=message):
            QDivisor(coefficients)


class TestPullback:
    def test_fork_values(self):
        # center -3, branches (-2, -3, -6), divisor through the center
        c = pullback(fork_model(3, boundary="1"), QDivisor.from_map({"D": 1}))
        assert c.as_map() == {"E0": F(1, 2), "E1": F(1, 4), "E2": F(1, 6), "E3": F(1, 12)}

    def test_center_coefficient_across_orders(self):
        for n0 in range(3, 10):
            c = pullback(fork_model(n0), QDivisor.from_map({"D": 1}))
            assert c.as_map().get("E0", 0) == F(1, n0 - 1)

    def test_orthogonality_direct(self):
        model = fork_model(5, (2, 2, 2))
        c = pullback(model, QDivisor.from_map({"D": 1}))
        exceptional = sorted(model.contracted)
        for ej in exceptional:
            total = F(model.intersection("D", ej))
            for ei in exceptional:
                total += c.as_map().get(ei, 0) * model.intersection(ei, ej)
            assert total == 0

    def test_matches_gauss_oracle(self):
        rng = random.Random(424242)
        for _ in range(20):
            n0 = rng.randint(3, 9)
            orders = tuple(rng.choice([2, 2, 3, 4, 6]) for _ in range(rng.randint(2, 4)))
            try:
                model = fork_model(n0, orders, extra=rng.randint(1, 4))
            except Exception:
                continue  # infeasible order combination; builder already tested
            exceptional = sorted(model.contracted)
            gram = model.gram(exceptional)
            rhs = [-model.intersection("D", e) for e in exceptional]
            expected = gauss_solve(gram, rhs)
            got = pullback(model, QDivisor.from_map({"D": 1}))
            assert [got.as_map().get(e, 0) for e in exceptional] == expected

    def test_scaling_is_linear(self):
        model = fork_model(3)
        one = pullback(model, QDivisor.from_map({"D": 1}))
        half = pullback(model, QDivisor.from_map({"D": F(1, 2)}))
        assert all(half.as_map().get(n, 0) == c / 2 for n, c in one.as_map().items())

    def test_contracted_divisor_rejected(self):
        with pytest.raises(ModelError):
            pullback(fork_model(3), QDivisor.from_map({"E0": 1}))

    def test_unknown_divisor_rejected(self):
        with pytest.raises(ModelError):
            pullback(fork_model(3), QDivisor.from_map({"zzz": 1}))

    def test_nothing_contracted_gives_zero(self):
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "E")
        assert pullback(model, QDivisor.from_map({"E": 1})) == QDivisor.zero()

    def test_effective_coefficients(self):
        model = fork_model(4, (2, 2, 3), extra=2)
        c = pullback(model, QDivisor.from_map({"D": F(2, 3)}))
        assert all(x >= 0 for _, x in c.coefficients)

    def test_wrong_solution_raises_model_error(self, monkeypatch):
        # the solve is re-verified by pairing, with no assert that -O strips
        model = fork_model(3)
        monkeypatch.setattr(singularities, "solve_exact", lambda factor, rhs: ([0] * len(rhs), 1))
        with pytest.raises(ModelError, match="not orthogonal"):
            pullback(model, QDivisor.from_map({"D": 1}))
        with pytest.raises(ModelError, match="not orthogonal"):
            log_discrepancies(model, QDivisor.zero())

    def test_each_model_factors_its_block_once(self, monkeypatch):
        # a model declared from a validated parent borders the parent's
        # factor, one row per new curve, and no solve factors again
        full, bordered = [], []
        factor, extend = lattice.negative_definite_factor, lattice.extend_factor

        def counting_factor(matrix):
            full.append(len(matrix))
            return factor(matrix)

        def counting_extend(rows, border):
            bordered.append(len(border))
            return extend(rows, border)

        monkeypatch.setattr(lattice, "negative_definite_factor", counting_factor)
        monkeypatch.setattr(lattice, "extend_factor", counting_extend)
        scenario = star_scenario(4, (2, 2, 3), 2)
        smooth = build_model(replace(scenario, contract=()))  # validated on the way
        star = scenario.contract[0]
        # the center E0 first: each arm borders its block; the center last:
        # each arm gets a 1 x 1 block, and the center merges the three
        for first, then, borders in ((star[:2], star[2:], [1, 2, 3, 4]), (star[1:], star[:1], [1, 1, 1, 4])):
            full.clear(), bordered.clear()
            model = declare_contracted(declare_contracted(smooth, first), then)
            assert full == [] and bordered == borders and len(model.contracted_factor) == 1
            for c in (1, F(1, 2), F(2, 3)):
                pullback(model, QDivisor.from_map({"D": c}))
            log_discrepancies(model, QDivisor.from_map({"D": F(1, 2)}))
            assert full == [] and bordered == borders

    def test_negativity_lemma_guard(self):
        # the solve core on raw models, which the public `pullback` would
        # reject at entry: the contracted line H is not negative definite,
        # so there is no factor to solve against
        model = coordinate_model(1, (-3,), {"H": (1,), "L": (1,)}, {"H"})
        with pytest.raises(ModelError, match="not negative definite"):
            pulled_back(model, [(model.row("L"), F(1))])
        # A.B = -1 keeps the block negative definite (det 3), but D.A = 1,
        # D.B = 0 solve to x_A = 2/3, x_B = -1/3 < 0
        model = SurfaceModel(
            rank=4,
            names=("A", "B", "D"),
            matrix=((6, 0, 0, -1), (0, -2, -1, 1), (0, -1, -2, 0), (-1, 1, 0, -1)),
            contracted=frozenset({"A", "B"}),
        )
        with pytest.raises(ModelError, match="negativity lemma"):
            pulled_back(model, [(model.row("D"), F(1))])
        with pytest.raises(ModelError, match="negative intersection"):
            pullback(model, QDivisor.from_map({"D": 1}))

    # a short, asymmetric matrix: A's row has one entry too few
    RAW_SHORT = SurfaceModel(
        rank=3,
        names=("A", "B"),
        matrix=((7, 0, 0), (0, -2), (0, 1, -1)),
        contracted=frozenset({"A"}),
    )

    @pytest.mark.parametrize(
        "read",
        [
            lambda m: pullback(m, QDivisor.from_map({"B": 1})),
            lambda m: log_discrepancies(m, QDivisor.zero()),
            lambda m: build_dual_graph(m, ["A", "B"]),
        ],
        ids=["pullback", "log_discrepancies", "build_dual_graph"],
    )
    def test_raw_model_is_validated_at_entry(self, read):
        with pytest.raises(ModelError) as exc:
            read(self.RAW_SHORT)
        assert str(exc.value) == "intersection matrix is not 3 x 3"


class TestLogDiscrepancies:
    def test_fork_is_order_independent(self):
        for n0 in range(3, 13):
            lp = log_discrepancies(fork_model(n0), QDivisor.zero())
            assert lp.as_map() == {
                "E0": F(-1),
                "E1": F(-1, 2),
                "E2": F(-2, 3),
                "E3": F(-5, 6),
            }

    def test_quad_fork_without_boundary(self):
        lp = log_discrepancies(fork_model(5, (2, 2, 2)), QDivisor.zero())
        assert lp.as_map() == {
            "E0": F(-6, 7),
            "E1": F(-3, 7),
            "E2": F(-3, 7),
            "E3": F(-3, 7),
        }

    def test_quad_fork_with_boundary(self):
        lp = log_discrepancies(fork_model(5, (2, 2, 2)), QDivisor.from_map({"D": F(6, 7)}))
        assert lp.as_map() == {
            "E0": F(-54, 49),
            "E1": F(-27, 49),
            "E2": F(-27, 49),
            "E3": F(-27, 49),
        }

    def test_quintuple_star(self):
        # the whole star contracted, divisor included: hand-eliminated values
        model = fork_model(5, (2, 2, 2), contract_extra=True)
        lp = log_discrepancies(model, QDivisor.zero())
        assert lp.as_map() == {
            "D": F(-13, 19),
            "E0": F(-20, 19),
            "E1": F(-10, 19),
            "E2": F(-10, 19),
            "E3": F(-10, 19),
        }
        assert lp.as_map().get("E0", 0) == F(-20, 19)

    @pytest.mark.parametrize(
        "boundary, message",
        [
            ({"E0": F(1, 2)}, "boundary curve 'E0' is contracted; fold it into the pullback instead"),
            ({"nope": F(1, 2)}, "boundary names unknown curve 'nope'"),
            ({"D": F(3, 2)}, "boundary coefficient 3/2 on 'D' outside [0, 1]"),
            ({"D": F(7, 6)}, "boundary coefficient 7/6 on 'D' outside [0, 1]"),
            ({"D": F(-1, 2)}, "boundary coefficient -1/2 on 'D' outside [0, 1]"),
            ({"D": F(-1, 6), "nope": 1}, "boundary coefficient -1/6 on 'D' outside [0, 1]"),
        ],
    )
    def test_boundary_validation(self, boundary, message):
        model = fork_model(3)
        for call in (log_discrepancies, lambda m, b: classify(m, b, 0)):
            with pytest.raises(ModelError) as exc:
                call(model, QDivisor.from_map(boundary))
            assert str(exc.value) == message

    def test_boundary_bounds_are_closed(self):
        # 0 and 1 are allowed, and a zero on a contracted curve is no boundary
        model = fork_model(3)
        plain = classify(model, QDivisor.from_map({"D": 1}), 0)
        assert plain == classify(model, QDivisor.from_map({"D": 1, "E0": 0, "E1": 0}), 0)
        assert plain.total_discrepancy == NEG_INFINITY
        assert log_discrepancies(model, QDivisor.from_map({"D": 0})) == log_discrepancies(model, QDivisor.zero())

    def test_zero_boundary_on_a_resolved_curve(self):
        # B is a contracted (-1)-curve, so the minimal resolution drops it;
        # its zero coefficient is no boundary there either
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "A")
        model = blow_up(model, PointSpec.on_curve("A"), "B")
        model = declare_contracted(model, ["A", "B"])
        assert "B" not in minimal_resolution(model).names
        assert classify(model, QDivisor.from_map({"B": 0}), 0) == classify(model, QDivisor.zero(), 0)

    def test_smooth_model_empty(self):
        model = new_projective_plane()
        assert log_discrepancies(model, QDivisor.zero()) == QDivisor.zero()


class TestMinimalResolution:
    def test_partial_cascade_leaves_minus_two(self):
        # chain (-3)-(-2)-(-1), all contracted: the (-1) end eats inward
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "A")
        model = blow_up(model, PointSpec.on_curve("A"), "B")
        model = blow_up(model, PointSpec.on_curve("B"), "C")
        model = blow_up(model, PointSpec.on_curve("A"), "X")
        model = declare_contracted(model, ["A", "B", "C"])
        assert [model.self_int(n) for n in ("A", "B", "C")] == [-3, -2, -1]
        mr = minimal_resolution(model)
        assert sorted(mr.contracted) == ["A"]
        assert mr.self_int("A") == -2
        assert mr.rank == model.rank - 2

    def test_full_cascade_reaches_smooth(self):
        # chain (-3)-(-1)-(-2) with the (-1) in the middle collapses entirely
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "X")
        model = blow_up(model, PointSpec.on_curve("X"), "W")
        model = blow_up(model, PointSpec.at_intersection("X", "W"), "Y")
        model = declare_contracted(model, ["X", "Y", "W"])
        assert model.self_int("X") == -3
        assert model.self_int("Y") == -1
        assert model.self_int("W") == -2
        mr = minimal_resolution(model)
        assert not mr.contracted
        assert mr.rank == 1

    def test_no_op_without_minus_ones(self):
        model = fork_model(3)
        assert minimal_resolution(model) == model

    def test_idempotent(self):
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "A")
        model = blow_up(model, PointSpec.on_curve("A"), "B")
        model = declare_contracted(model, ["A", "B"])
        mr = minimal_resolution(model)
        assert minimal_resolution(mr) == mr


def assert_matches_stepwise(model):
    """minimal_resolution gives the stepwise oracle's model, or raises the
    oracle's exception type with the oracle's message."""
    try:
        expected = stepwise_minimal_resolution(model)
    except LogSurfError as exc:
        with pytest.raises(LogSurfError) as got:
            minimal_resolution(model)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return exc
    mr = minimal_resolution(model)
    assert (mr.rank, mr.names, mr.matrix, mr.contracted) == (
        expected.rank,
        expected.names,
        expected.matrix,
        expected.contracted,
    )
    # a model that was blown down comes back marked checked, whether it went
    # through _validated or only _contracted_checked
    assert mr is model or getattr(mr, "_checked", False)
    return mr


TOWER_OPS = st.lists(
    st.tuples(st.sampled_from(("general", "on", "at")), st.integers(0, 10**6)),
    min_size=1,
    max_size=16,
)


def tower_point(model, kind, pick):
    """The blow-up point one TOWER_OPS entry picks on `model`."""
    names = model.tracked
    if kind == "general" or not names:
        choices = [PointSpec.general()]
    elif kind == "on":
        choices = [PointSpec.on_curve(n) for n in names]
    else:
        choices = [
            PointSpec.at_intersection(a, b)
            for a, b in combinations(names, 2)
            if model.intersection(a, b) >= 1
        ] or [PointSpec.general()]
    return choices[pick % len(choices)]


def tower_from(ops, mask):
    """The tower of blow-ups that TOWER_OPS drew, with the curves whose bit
    is set in `mask` (tracked name order) contracted: every subset of a
    tower's exceptional curves is negative definite."""
    model = new_projective_plane()
    for i, (kind, pick) in enumerate(ops):
        model = blow_up(model, tower_point(model, kind, pick), f"C{i}")
    return declare_contracted(model, [n for k, n in enumerate(model.tracked) if mask >> k & 1])


def line_tower(ops):
    """TOWER_OPS's tower built in coordinates, with a line L tracked from
    the start, as a raw model that never went through `_validated`. L lets a
    contracted set fail: it keeps self-intersection >= 0 through one blow-up
    on it, and with enough blow-ups on it can join the exceptional curves in
    a block that is not negative definite."""
    tower = CoordinateTower()
    tower.curves["L"] = (1,)
    for i, (kind, pick) in enumerate(ops):
        names = sorted(tower.curves)
        meeting = [
            pair
            for pair in combinations(names, 2)
            if pairing(tower.curves[pair[0]], tower.curves[pair[1]]) >= 1
        ]
        if kind == "on":
            through = (names[pick % len(names)],)
        elif kind == "at" and meeting:
            through = meeting[pick % len(meeting)]
        else:
            through = ()
        tower.blow_up(through, f"C{i}")
    return coordinate_model(tower.rank, tower.canonical, tower.curves)


def outcome(build):
    try:
        return build()
    except LogSurfError as exc:
        return exc


class TestBorderedDeclaration:
    """declare_contracted on a validated model borders its parent's factor.
    The oracles: the raw model with the same contracted set validated from
    scratch, the characteristic polynomial for negative definiteness, and
    Gauss-Jordan on the name-ordered Gram block for the solves."""

    @settings(max_examples=200)
    @given(TOWER_OPS, st.data())
    def test_matches_validation_from_scratch(self, ops, data):
        raw = line_tower(ops)
        order = data.draw(st.permutations(raw.names))
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=len(order)))
        model = _validated(raw)
        start = 0
        for size in sizes:
            batch = order[start : start + size]
            start += size
            if not batch:
                break
            contracted = model.contracted | frozenset(batch)
            expected = outcome(lambda: _validated(replace(raw, contracted=contracted)))
            got = outcome(lambda: declare_contracted(model, batch))
            # a real tower's block fails exactly when it is not negative definite
            assert isinstance(got, LogSurfError) != charpoly_negdef(raw.gram(sorted(contracted)))
            if isinstance(expected, LogSurfError):
                assert (type(got), str(got)) == (type(expected), str(expected))
                return
            assert (got.rank, got.names, got.matrix, got.contracted) == (
                expected.rank,
                expected.names,
                expected.matrix,
                expected.contracted,
            )
            model = got
            exceptional = sorted(model.contracted)
            gram = model.gram(exceptional)
            rest = [n for n in model.tracked if n not in model.contracted]
            if rest:
                divisor = QDivisor.from_map({n: 1 for n in rest})
                rhs = [-sum(model.intersection(n, e) for n in rest) for e in exceptional]
                assert list(pullback(model, divisor).coefficients) == list(
                    zip(exceptional, gauss_solve(gram, rhs))
                )
            g = gauss_solve(gram, [-model.k_dot(e) for e in exceptional])
            assert log_discrepancies(model, QDivisor.zero()).coefficients == tuple(
                (e, -x) for e, x in zip(exceptional, g)
            )


class TestMinimalResolutionOracle:
    """The one-pass resolution against blowing down one validated model at
    a time."""

    @settings(max_examples=300)
    @given(TOWER_OPS, st.integers(0, 2**16 - 1))
    def test_random_towers_and_contracted_sets(self, ops, mask):
        model = tower_from(ops, mask)
        assert getattr(model, "_checked", False)
        assert getattr(assert_matches_stepwise(model), "_checked", False)

    @settings(max_examples=150)
    @given(TOWER_OPS, st.integers(0, 2**16 - 1))
    def test_never_validated_inputs(self, ops, mask):
        # raw models, L included, whose contracted set may fail the
        # contracted-set checks; a valid one resolves as its validated copy
        raw = line_tower(ops)
        raw = replace(raw, contracted=frozenset(n for k, n in enumerate(raw.tracked) if mask >> k & 1))
        assert not hasattr(raw, "_checked")
        valid = outcome(lambda: _validated(replace(raw)))
        got = outcome(lambda: minimal_resolution(raw))
        if isinstance(valid, LogSurfError):
            assert (type(got), str(got)) == (type(valid), str(valid))
            return
        if got is raw:  # nothing was ready
            return
        expected = minimal_resolution(valid)
        assert getattr(got, "_checked", False)
        assert (got.rank, got.names, got.matrix, got.contracted) == (
            expected.rank,
            expected.names,
            expected.matrix,
            expected.contracted,
        )

    def test_never_validated_input_gets_every_check(self):
        # A and B meet negatively, which no blow-down of E touches; a raw
        # model fails on it at entry, before the pass
        tower = new_projective_plane()
        for name in ("A", "B", "E"):
            tower = blow_up(tower, PointSpec.general(), name)
        matrix = [list(row) for row in tower.matrix]
        matrix[1][2] = matrix[2][1] = -1
        raw = SurfaceModel(
            rank=tower.rank,
            names=tower.names,
            matrix=tuple(map(tuple, matrix)),
            contracted=frozenset({"E"}),
        )
        with pytest.raises(ModelError) as exc:
            minimal_resolution(raw)
        assert str(exc.value) == "tracked curves 'A' and 'B' have negative intersection"

    # A contracted (-1)-curve E meeting a tracked curve twice: blowing E down
    # leaves that curve with arithmetic genus 1. The classes live in the
    # diagonal basis: N is a nodal cubic with its node blown up.
    GENUS_CASES = {
        "one blow-down": (
            2,
            (-3, 1),
            {"L": (1, -1), "N": (3, -2), "E": (0, 1), "A": (3, -2)},
            ("E",),
            "N",
        ),
        "second of a cascade": (
            3,
            (-3, 1, 1),
            {"D": (3, -2, -1), "E1": (0, 1, -1), "E2": (0, 0, 1)},
            ("E1", "E2"),
            "D",
        ),
        # blowing down E1 breaks Z; going on to E2 would break A, earlier in
        # row order, so the pass must stop at the first broken round
        "stops at the first broken round": (
            3,
            (-3, 1, 1),
            {"A": (3, 0, -2), "Z": (3, -2, 0), "E1": (0, 1, 0), "E2": (0, 0, 1)},
            ("E1", "E2"),
            "Z",
        ),
    }

    @pytest.mark.parametrize("case", sorted(GENUS_CASES))
    def test_genus_failure_matches_the_stepwise_oracle(self, case):
        rank, canonical, curves, contracted, broken = self.GENUS_CASES[case]
        model = _validated(coordinate_model(rank, canonical, curves, contracted))
        exc = assert_matches_stepwise(model)
        assert isinstance(exc, ModelError)
        # the first broken curve in row order is named, as _validated names it
        assert str(exc) == f"curve {broken!r} is not a smooth rational class (genus != 0)"

    def test_rank_floor_matches_the_stepwise_oracle(self):
        # a (-1)-curve at rank 1, which no blown-up plane carries but which
        # _validated, with no full inertia test, lets through; the pass
        # stops where the rank reaches 0, as one dense blow-down does
        model = _validated(SurfaceModel(rank=1, names=("A",), matrix=((9, -1), (-1, -1))))
        for blow in (lambda m, e: blow_down_cascade(m, [e]), dense_blow_down):
            with pytest.raises(ModelError) as exc:
                blow(model, "A")
            assert str(exc.value) == "rank 0 < 1"
        # two such curves contracted fail at entry, by the Hodge index
        raw = SurfaceModel(
            rank=1,
            names=("A", "B"),
            matrix=((9, -1, -1), (-1, -1, 0), (-1, 0, -1)),
            contracted=frozenset({"A", "B"}),
        )
        with pytest.raises(NotNegativeDefiniteError) as exc:
            minimal_resolution(raw)
        assert str(exc.value) == (
            "contracted configuration ['A', 'B'] spans 2 negative directions; rank 1 allows at most 0"
        )

    SHORT_ROW = SurfaceModel(rank=2, names=("A",), matrix=((8, -1), (-1,)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: blow_down_cascade(m, ["A"]),
            minimal_resolution,
            lambda m: classify(m, QDivisor.zero(), 0),
        ],
        ids=["blow_down_cascade", "minimal_resolution", "classify"],
    )
    def test_short_row_fails_at_entry(self, build):
        with pytest.raises(ModelError) as exc:
            build(self.SHORT_ROW)
        assert str(exc.value) == "intersection matrix is not 2 x 2"


class TestRawCopies:
    """Every builder validates a raw model at entry, so a raw copy of a
    checked model builds what the model builds, or fails as it fails."""

    @settings(max_examples=150)
    @given(TOWER_OPS, st.integers(0, 2**16 - 1), st.data())
    def test_raw_copy_builds_as_the_checked_model(self, ops, mask, data):
        model = tower_from(ops, mask if data.draw(st.booleans()) else 0)
        kind = data.draw(st.sampled_from(("general", "on", "at")))
        point = tower_point(model, kind, data.draw(st.integers(0, 10**6)))
        down = data.draw(st.sampled_from(model.tracked))
        batch = data.draw(st.lists(st.sampled_from(model.tracked), max_size=3))
        builds = {
            "blow_up": lambda m: blow_up(m, point, "X"),
            "blow_down_cascade": lambda m: blow_down_cascade(m, [down]),
            "declare_contracted": lambda m: declare_contracted(m, batch),
            "minimal_resolution": minimal_resolution,
        }
        for op, build in builds.items():
            raw = replace(model)
            assert not hasattr(raw, "_checked")
            expected, got = outcome(lambda: build(model)), outcome(lambda: build(raw))
            if isinstance(expected, LogSurfError):
                assert (type(got), str(got)) == (type(expected), str(expected)), op
                continue
            assert getattr(got, "_checked", False), op
            assert (got.rank, got.names, got.matrix, got.contracted) == (
                expected.rank,
                expected.names,
                expected.matrix,
                expected.contracted,
            ), op


class TestSncFormula:
    def test_empty_configuration(self):
        assert snc_total([]) == 1

    def test_single_vertices(self):
        assert snc_total([0]) == 0
        assert snc_total([1]) == -1
        assert snc_total([F(1, 2)]) == F(-1, 2)

    def test_coefficient_above_one_sinks(self):
        assert snc_total([F(7, 6)]) == NEG_INFINITY

    def test_neg_infinity_is_exact(self):
        # below every rational, equal only to itself; never a float
        assert not isinstance(NEG_INFINITY, float)
        for q in (F(-10**30), F(-1), 0, F(1, 7)):
            assert NEG_INFINITY < q and q > NEG_INFINITY and NEG_INFINITY <= q
            assert not (NEG_INFINITY >= q or NEG_INFINITY == q or q < NEG_INFINITY)
        assert NEG_INFINITY == NEG_INFINITY and NEG_INFINITY <= NEG_INFINITY
        assert not NEG_INFINITY < NEG_INFINITY
        assert min(F(-5), NEG_INFINITY) is NEG_INFINITY
        assert str(NEG_INFINITY) == "-inf"
        with pytest.raises(TypeError):
            NEG_INFINITY < float("-inf")

    def test_edge_term_ties_at_coefficient_one(self):
        # crossing of two full-coefficient curves: 1 - 1 - 1 = -1, matching the vertices
        assert snc_total([1, 1], [("A", "B")]) == -1

    def test_edge_never_beats_worst_vertex(self):
        # with coefficients at most one, 1 - b_i - b_j >= -max(b_i, b_j)
        assert snc_total([F(5, 6), F(2, 3)], [("A", "B")]) == F(-5, 6)
        assert snc_total([F(1, 2), F(1, 2)], [("A", "B")]) == F(-1, 2)

    def test_double_edge_rejected(self):
        with pytest.raises(MultiEdgeError) as exc:
            singularities._snc_total([0, 0], 1, [(("A", "B"), 2)])
        assert str(exc.value) == "multiple intersection points between 'A' and 'B'"

    def test_double_edge_rejected_before_coefficients(self):
        # a coefficient above one would sink the total, but the edge is read first
        with pytest.raises(MultiEdgeError):
            singularities._snc_total([7, 0], 6, [((1, 2), 3)])

    def test_disjoint_and_crossing_pairs_pass(self):
        # `classify` passes every pair of rows, meeting (1) or not (0)
        assert singularities._snc_total([3, 2], 6, [((1, 2), 0)]) == -3
        assert singularities._snc_total([3, 2], 6, [((1, 2), 1)]) == -3


class TestClassify:
    def test_triple_fork_is_log_canonical(self):
        sc = classify(fork_model(3), QDivisor.zero(), 0)
        assert sc.total_discrepancy == -1
        assert sc.classification == EPS_LOG_CANONICAL
        assert sc.mr_total_discrepancy == -1
        assert sc.mr_classification == EPS_LOG_CANONICAL

    def test_epsilon_moves_the_bar(self):
        model = fork_model(3)
        assert classify(model, QDivisor.zero(), F(1, 7)).classification == NOT_LOG_CANONICAL
        assert classify(model, QDivisor.zero(), 0).classification == EPS_LOG_CANONICAL

    def test_quad_fork_threshold_surface(self):
        model = fork_model(5, (2, 2, 2))
        sc = classify(model, QDivisor.zero(), F(1, 7))
        assert sc.total_discrepancy == F(-6, 7)
        assert sc.classification == EPS_LOG_CANONICAL
        assert classify(model, QDivisor.zero(), F(1, 8)).classification == EPS_LOG_TERMINAL
        assert classify(model, QDivisor.zero(), F(1, 6)).classification == NOT_LOG_CANONICAL

    def test_quintuple_star_not_log_canonical(self):
        sc = classify(fork_model(5, (2, 2, 2), contract_extra=True), QDivisor.zero(), F(1, 7))
        assert sc.total_discrepancy == NEG_INFINITY
        assert sc.classification == NOT_LOG_CANONICAL
        assert sc.mr_total_discrepancy == F(-20, 19)
        assert sc.mr_classification == NOT_LOG_CANONICAL

    def test_smooth_surface(self):
        sc = classify(new_projective_plane(), QDivisor.zero(), 0)
        assert sc.total_discrepancy == 1
        assert sc.mr_total_discrepancy == 1
        assert sc.classification == EPS_LOG_TERMINAL

    def test_boundary_only_pair(self):
        model = blow_up(new_projective_plane(), PointSpec.general(), "E")
        sc = classify(model, QDivisor.from_map({"E": 1}), 0)
        assert sc.total_discrepancy == -1
        assert sc.classification == EPS_LOG_CANONICAL
        assert classify(model, QDivisor.from_map({"E": 1}), F(1, 7)).classification == NOT_LOG_CANONICAL

    def test_boundary_pair_with_edge(self):
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "A")
        model = blow_up(model, PointSpec.on_curve("A"), "B")
        sc = classify(model, QDivisor.from_map({"A": 1, "B": 1}), 0)
        assert sc.total_discrepancy == -1  # the A-B crossing: 1 - 1 - 1
        assert sc.classification == EPS_LOG_CANONICAL

    def test_mixed_boundary_and_contracted(self):
        model = fork_model(5, (2, 2, 2))
        sc = classify(model, QDivisor.from_map({"D": F(6, 7)}), F(1, 7))
        # the center coefficient exceeds one, so some resolution digs arbitrarily deep
        assert sc.total_discrepancy == NEG_INFINITY
        assert sc.classification == NOT_LOG_CANONICAL
        assert sc.mr_total_discrepancy == F(-54, 49)

    def test_no_classification_holds_a_float(self):
        cases = [
            (fork_model(5, (2, 2, 2), contract_extra=True), QDivisor.zero()),  # NEG_INFINITY
            (fork_model(5, (2, 2, 2)), QDivisor.from_map({"D": F(6, 7)})),  # NEG_INFINITY
            (double_point_model(), QDivisor.zero()),  # None
            (fork_model(3), QDivisor.zero()),
            (new_projective_plane(), QDivisor.zero()),
        ]
        rng = random.Random(8811)
        for _ in range(40):
            ops = [(rng.choice(("general", "on", "at")), rng.randrange(10**6)) for _ in range(rng.randint(1, 10))]
            model = tower_from(ops, rng.randrange(2**10))
            free = [n for n in model.tracked if n not in model.contracted]
            cases.append((model, QDivisor.from_map({n: F(rng.randint(0, 6), 6) for n in free})))
        kinds = set()
        for model, boundary in cases:
            for epsilon in (0, F(1, 7)):
                sc = classify(model, boundary, epsilon)
                total = sc.total_discrepancy
                assert total is None or total is NEG_INFINITY or type(total) is F
                assert type(sc.mr_total_discrepancy) is F and type(sc.epsilon) is F
                kinds.add(total if total is None or total is NEG_INFINITY else F)
        assert kinds == {None, NEG_INFINITY, F}

    def test_unclassifiable_double_intersection(self):
        sc = classify(double_point_model(), QDivisor.zero(), 0)
        assert sc.classification == UNCLASSIFIABLE_SNC
        assert sc.total_discrepancy is None
        assert sc.mr_total_discrepancy == -1  # exact even when SNC fails
        assert sc.mr_classification == EPS_LOG_CANONICAL

    def test_quad_fork_regression_can_be_log_canonical(self):
        # a 4-branch star that IS log canonical: center -4, four (-2)-branches
        model = new_projective_plane()
        model = blow_up(model, PointSpec.general(), "B1")
        model = blow_up(model, PointSpec.on_curve("B1"), "E0")
        for i in (2, 3, 4):
            model = blow_up(model, PointSpec.on_curve("E0"), f"B{i}")
        for i in (2, 3, 4):
            model = blow_up(model, PointSpec.on_curve(f"B{i}"), f"X{i}")
        model = declare_contracted(model, ["E0", "B1", "B2", "B3", "B4"])
        assert model.self_int("E0") == -4
        assert all(model.self_int(f"B{i}") == -2 for i in (1, 2, 3, 4))
        # a tree whose degrees are 4, 1, 1, 1, 1: a fork of four branches
        graph = build_dual_graph(model, model.contracted)
        degrees = Counter(v for edge in graph.edges for v in edge)
        assert len(graph.edges) == 4 and sorted(degrees.values()) == [1, 1, 1, 1, 4]
        sc = classify(model, QDivisor.zero(), 0)
        assert sc.total_discrepancy == -1
        assert sc.classification == EPS_LOG_CANONICAL

    def test_epsilon_validation(self):
        model = fork_model(3)
        with pytest.raises(ModelError):
            classify(model, QDivisor.zero(), F(7, 6))
        with pytest.raises(ModelError):
            classify(model, QDivisor.zero(), F(-1, 6))

    def test_total_never_exceeds_mr_total_seeded(self):
        rng = random.Random(3177)
        grid = [F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1)]
        checked = 0
        for _ in range(60):
            model = new_projective_plane()
            for i in range(rng.randint(1, 8)):
                if not model.tracked or rng.random() < 0.5:
                    point = PointSpec.general()
                else:
                    point = PointSpec.on_curve(rng.choice(model.tracked))
                model = blow_up(model, point, f"C{i}")
            negative = [n for n in model.tracked if model.self_int(n) < 0]
            rng.shuffle(negative)
            subset = negative[: rng.randint(0, len(negative))]
            try:
                model = declare_contracted(model, subset)
            except NotNegativeDefiniteError:
                continue
            boundary = QDivisor.from_map(
                {
                    n: rng.choice(grid)
                    for n in model.tracked
                    if n not in model.contracted and rng.random() < 0.5
                }
            )
            sc = classify(model, boundary, F(1, 7))
            if sc.total_discrepancy is not None:
                assert sc.total_discrepancy <= sc.mr_total_discrepancy
            assert sc.mr_total_discrepancy <= 1
            assert classify(model, boundary, F(1, 7)) == sc  # deterministic
            checked += 1
        assert checked >= 30


class TestIntegerClassifier:
    """classify's integers against fraction_classify, the Fraction
    classifier on the stepwise resolution with a Gauss-Jordan log pullback,
    and `_snc_total` against the blow-up search."""

    EPSILONS = (F(0), F(1, 7), F(1, 4), F(1))
    GRID = sorted({F(k, 6) for k in range(7)} | {F(k, 7) for k in range(8)} | {F(k, 4) for k in range(5)})

    def tower_cases(self, rng, count):
        for _ in range(count):
            ops = [(rng.choice(("general", "on", "at")), rng.randrange(10**6)) for _ in range(rng.randint(1, 9))]
            model = tower_from(ops, rng.randrange(2**9))
            free = [n for n in model.tracked if n not in model.contracted and rng.random() < 0.6]
            yield model, QDivisor.from_map({n: rng.choice(self.GRID) for n in free})

    def star_cases(self, rng, count):
        made = 0
        while made < count:
            k = rng.randint(2, 4)
            try:
                model = fork_model(
                    rng.randint(k, k + 4),
                    [rng.randint(2, 5) for _ in range(k)],
                    rng.randint(1, 4),
                    contract_extra=rng.random() < 0.2,
                )
            except LogSurfError:  # an infeasible star or a block that is not negative definite
                continue
            made += 1
            free = [n for n in model.tracked if n not in model.contracted]
            picked = [n for n in free if n == "D" or rng.random() < 0.2]
            yield model, QDivisor.from_map({n: rng.choice(self.GRID) for n in picked})

    def test_matches_the_fraction_classifier(self):
        rng = random.Random(90417)
        cases = [
            (double_point_model(), QDivisor.zero()),
            (fork_model(5, (2, 2, 2)), QDivisor.from_map({"D": F(6, 7)})),
            *self.tower_cases(rng, 80),
            *self.star_cases(rng, 60),
        ]
        labels, totals = Counter(), Counter()
        for model, boundary in cases:
            for epsilon in self.EPSILONS:
                got = classify(model, boundary, epsilon)
                assert got == fraction_classify(model, boundary, epsilon)
                labels[got.classification] += 1
                labels[got.mr_classification] += 1
                total = got.total_discrepancy
                totals["None" if total is None else "-inf" if total is NEG_INFINITY else "rational"] += 1
        assert set(labels) == {EPS_LOG_TERMINAL, EPS_LOG_CANONICAL, NOT_LOG_CANONICAL, UNCLASSIFIABLE_SNC}
        assert set(totals) == {"None", "-inf", "rational"}
        # the threshold's equality case must be reached with a boundary and
        # with epsilon > 0, or a >= mutant at the bar could pass
        canonical_with_boundary = [
            (model, boundary, epsilon)
            for model, boundary in cases
            if any(boundary.as_map().values())
            for epsilon in self.EPSILONS[1:]
            if classify(model, boundary, epsilon).classification == EPS_LOG_CANONICAL
        ]
        assert canonical_with_boundary

    def test_label_core_matches_classify(self):
        # the audit's check (c) reads the label off _classified on a model it
        # has resolved, with no boundary; the Fraction classifier is the oracle
        rng = random.Random(90419)
        zero = QDivisor.zero()
        cases = [
            (double_point_model(), zero),
            (fork_model(3), zero),
            (fork_model(5, (2, 2, 2)), QDivisor.from_map({"D": F(6, 7)})),
            *self.tower_cases(rng, 60),
            *self.star_cases(rng, 60),
        ]
        labels = Counter()
        for model, boundary in cases:
            mr = minimal_resolution(model)
            for b in (zero, boundary):
                for epsilon in self.EPSILONS:
                    label = _classified(mr, _check_boundary(model, b), epsilon)[0]
                    assert label == classify(model, b, epsilon).classification
                    assert label == fraction_classify(model, b, epsilon).classification
                    if b is zero:
                        labels[label] += 1
            for epsilon in (F(2), F(-1, 7)):
                with pytest.raises(ModelError) as exc:
                    _classified(mr, zero, epsilon)
                assert str(exc.value) == f"epsilon {epsilon} outside [0, 1]"
        assert set(labels) == {EPS_LOG_TERMINAL, EPS_LOG_CANONICAL, NOT_LOG_CANONICAL, UNCLASSIFIABLE_SNC}

    def test_snc_total_matches_the_blow_up_search(self):
        rng = random.Random(90418)
        for _ in range(120):
            size = rng.randint(1, 4)
            coefficients = [F(rng.randint(0, 6), 6) for _ in range(size)]
            pairs = list(combinations(range(size), 2))
            edges = [pair for pair in pairs if rng.random() < 0.5]
            got = snc_total(coefficients, edges)
            assert got == snc_search_oracle(coefficients, edges, max_blowups=3)


def every_tower(max_blowups):
    """Every tower of 1..max_blowups blow-ups: each blow-up at a general
    point, on any tracked curve, or at any intersection point of two."""
    towers = []

    def grow(model, depth):
        if depth:
            towers.append(model)
        if depth == max_blowups:
            return
        names = model.tracked
        points = [PointSpec.general(), *map(PointSpec.on_curve, names)] + [
            PointSpec.at_intersection(a, b) for a, b in combinations(names, 2) if model.intersection(a, b) >= 1
        ]
        for point in points:
            grow(blow_up(model, point, f"C{depth}"), depth + 1)

    grow(new_projective_plane(), 0)
    return towers


class TestDualGraphOracle:
    """`lt_by_dual_graph` reads log terminality off the resolution graph
    with no solve; `classify` at epsilon 0 must agree with it."""

    @staticmethod
    def classified_lt(model):
        return classify(model, QDivisor.zero(), 0).classification == EPS_LOG_TERMINAL

    def test_every_contracted_subset_of_small_towers(self):
        # every subset of a tower's exceptional curves is contractible
        cases = 0
        for model in every_tower(5):
            names = model.tracked
            for mask in range(1, 1 << len(names)):
                contracted = declare_contracted(model, [n for k, n in enumerate(names) if mask >> k & 1])
                assert lt_by_dual_graph(contracted) is self.classified_lt(contracted) is True
                cases += 1
        assert cases == 8857

    def test_star_grid(self):
        builds = not_lt = 0
        for centre in range(2, 9):
            for k in (2, 3, 4):
                for branches in combinations_with_replacement(range(2, 7), k):
                    for extra in (1, 2, 3):
                        for contract_extra in (False, True):
                            scenario = (centre, branches, extra)
                            try:
                                model = build_model(star_scenario(*scenario, contract_extra=contract_extra))
                            except ScenarioError:
                                continue
                            lt = lt_by_dual_graph(model)
                            assert lt == self.classified_lt(model), (scenario, contract_extra)
                            builds += 1
                            not_lt += not lt
        assert (builds, not_lt) == (3864, 3194)

    def test_cycle_and_multi_edge_are_not_log_terminal(self):
        # three lines H - (four points each, disjoint sets): pairwise meeting
        # (-3)-curves, a cycle; and two (-3)-curves meeting twice
        lines = {
            f"L{i}": (1,) + tuple(-1 if 4 * i <= j < 4 * i + 4 else 0 for j in range(12)) for i in range(3)
        }
        cycle = _validated(coordinate_model(13, (-3,) + (1,) * 12, lines, set(lines)))
        assert [cycle.intersection("L0", n) for n in ("L0", "L1", "L2")] == [-3, 1, 1]
        for model in (cycle, double_point_model()):
            assert lt_by_dual_graph(model) is self.classified_lt(model) is False
