import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsurf import lattice, singularities
from logsurf.dualgraph import build_dual_graph, graph_shape
from logsurf.errors import LogSurfError, ModelError, MultiEdgeError, NotNegativeDefiniteError
from logsurf.lattice import (
    PointSpec,
    SurfaceModel,
    _validated,
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
    classify,
    log_discrepancies,
    minimal_resolution,
    pullback,
    total_discrepancy_snc,
)
from oracles import (
    CoordinateTower,
    charpoly_negdef,
    coordinate_model,
    gauss_solve,
    pairing,
    stepwise_minimal_resolution,
)


def fork_model(n0, orders=(2, 3, 6), extra=3, **kw):
    return build_model(star_scenario(n0, orders, extra, **kw))


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
        assert d.coefficient("A") == 1
        assert d.coefficient("missing") == 0

    def test_zero_and_support(self):
        assert QDivisor.zero().coefficients == ()
        d = QDivisor.from_map({"A": 0, "B": F(1, 3)})
        assert d.support == ("B",)
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
            assert c.coefficient("E0") == F(1, n0 - 1)

    def test_orthogonality_direct(self):
        model = fork_model(5, (2, 2, 2))
        c = pullback(model, QDivisor.from_map({"D": 1}))
        exceptional = sorted(model.contracted)
        for ej in exceptional:
            total = F(model.intersection("D", ej))
            for ei in exceptional:
                total += c.coefficient(ei) * model.intersection(ei, ej)
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
            assert [got.coefficient(e) for e in exceptional] == expected

    def test_scaling_is_linear(self):
        model = fork_model(3)
        one = pullback(model, QDivisor.from_map({"D": 1}))
        half = pullback(model, QDivisor.from_map({"D": F(1, 2)}))
        assert all(half.coefficient(n) == one.coefficient(n) / 2 for n in one.names)

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
        monkeypatch.setattr(singularities, "solve_exact", lambda gram, rhs: [F(0)] * len(rhs))
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
        full.clear()
        model = declare_contracted(smooth, scenario.contract[0][:2])
        model = declare_contracted(model, scenario.contract[0][2:])
        assert full == [] and bordered == [1, 2, 3, 4]
        for c in (1, F(1, 2), F(2, 3)):
            pullback(model, QDivisor.from_map({"D": c}))
        log_discrepancies(model, QDivisor.from_map({"D": F(1, 2)}))
        assert full == [] and bordered == [1, 2, 3, 4]

    def test_negativity_lemma_guard(self):
        # unvalidated: the contracted line H is not negative definite, so
        # there is no factor to solve against
        model = coordinate_model(1, (-3,), {"H": (1,), "L": (1,)}, {"H"})
        with pytest.raises(ModelError, match="not negative definite"):
            pullback(model, QDivisor.from_map({"L": 1}))
        # unvalidated: A.B = -1 keeps the block negative definite (det 3), but
        # D.A = 1, D.B = 0 solve to x_A = 2/3, x_B = -1/3 < 0
        model = SurfaceModel(
            rank=4,
            names=("A", "B", "D"),
            matrix=((6, 0, 0, -1), (0, -2, -1, 1), (0, -1, -2, 0), (-1, 1, 0, -1)),
            contracted=frozenset({"A", "B"}),
        )
        with pytest.raises(ModelError, match="negativity lemma"):
            pullback(model, QDivisor.from_map({"D": 1}))


class TestLogDiscrepancies:
    def test_fork_is_order_independent(self):
        for n0 in range(3, 13):
            lp = log_discrepancies(fork_model(n0), QDivisor.zero())
            assert lp.discrepancies.as_map() == {
                "E0": F(-1),
                "E1": F(-1, 2),
                "E2": F(-2, 3),
                "E3": F(-5, 6),
            }

    def test_quad_fork_without_boundary(self):
        lp = log_discrepancies(fork_model(5, (2, 2, 2)), QDivisor.zero())
        assert lp.boundary_part.as_map() == {
            "E0": F(6, 7),
            "E1": F(3, 7),
            "E2": F(3, 7),
            "E3": F(3, 7),
        }

    def test_quad_fork_with_boundary(self):
        lp = log_discrepancies(fork_model(5, (2, 2, 2)), QDivisor.from_map({"D": F(6, 7)}))
        assert lp.boundary_part.as_map() == {
            "E0": F(54, 49),
            "E1": F(27, 49),
            "E2": F(27, 49),
            "E3": F(27, 49),
        }

    def test_quintuple_star(self):
        # the whole star contracted, divisor included: hand-eliminated values
        model = fork_model(5, (2, 2, 2), contract_extra=True)
        lp = log_discrepancies(model, QDivisor.zero())
        assert lp.boundary_part.as_map() == {
            "D": F(13, 19),
            "E0": F(20, 19),
            "E1": F(10, 19),
            "E2": F(10, 19),
            "E3": F(10, 19),
        }
        assert lp.discrepancies.coefficient("E0") == F(-20, 19)

    def test_discrepancies_negate_pullback_part(self):
        lp = log_discrepancies(fork_model(7), QDivisor.zero())
        for name in lp.boundary_part.names:
            assert lp.discrepancies.coefficient(name) == -lp.boundary_part.coefficient(name)

    def test_boundary_validation(self):
        model = fork_model(3)
        with pytest.raises(ModelError):
            log_discrepancies(model, QDivisor.from_map({"E0": F(1, 2)}))  # contracted
        with pytest.raises(ModelError):
            log_discrepancies(model, QDivisor.from_map({"nope": F(1, 2)}))
        with pytest.raises(ModelError):
            log_discrepancies(model, QDivisor.from_map({"D": F(3, 2)}))  # above 1
        with pytest.raises(ModelError):
            log_discrepancies(model, QDivisor.from_map({"D": F(-1, 2)}))

    def test_smooth_model_empty(self):
        model = new_projective_plane()
        lp = log_discrepancies(model, QDivisor.zero())
        assert lp.discrepancies == QDivisor.zero()


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
    return mr


TOWER_OPS = st.lists(
    st.tuples(st.sampled_from(("general", "on", "at")), st.integers(0, 10**6)),
    min_size=1,
    max_size=16,
)


def tower_from(ops, mask):
    """The tower of blow-ups that TOWER_OPS drew, with the curves whose bit
    is set in `mask` (tracked name order) contracted: every subset of a
    tower's exceptional curves is negative definite."""
    model = new_projective_plane()
    for i, (kind, pick) in enumerate(ops):
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
        model = blow_up(model, choices[pick % len(choices)], f"C{i}")
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
            assert log_discrepancies(model, QDivisor.zero()).boundary_part.coefficients == tuple(
                zip(exceptional, g)
            )


class TestMinimalResolutionOracle:
    """The one-pass resolution against blowing down one validated model at
    a time."""

    @settings(max_examples=300)
    @given(TOWER_OPS, st.integers(0, 2**16 - 1))
    def test_random_towers_and_contracted_sets(self, ops, mask):
        assert_matches_stepwise(tower_from(ops, mask))

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
        # two contracted disjoint (-1)-curves at rank 1, which no blown-up
        # plane carries (_validated rejects them by the Hodge index); the
        # pass stops where the rank reaches 0
        model = SurfaceModel(
            rank=1,
            names=("A", "B"),
            matrix=((9, -1, -1), (-1, -1, 0), (-1, 0, -1)),
            contracted=frozenset({"A", "B"}),
        )
        exc = assert_matches_stepwise(model)
        assert str(exc) == "rank 0 < 1"


class TestSncFormula:
    def test_empty_configuration(self):
        assert total_discrepancy_snc({}, []) == 1

    def test_single_vertices(self):
        assert total_discrepancy_snc({"A": 0}, []) == 0
        assert total_discrepancy_snc({"A": 1}, []) == -1
        assert total_discrepancy_snc({"A": F(1, 2)}, []) == F(-1, 2)

    def test_coefficient_above_one_sinks(self):
        assert total_discrepancy_snc({"A": F(7, 6)}, []) == NEG_INFINITY

    def test_edge_term_ties_at_coefficient_one(self):
        # crossing of two full-coefficient curves: 1 - 1 - 1 = -1, matching the vertices
        assert total_discrepancy_snc({"A": 1, "B": 1}, [("A", "B")]) == -1

    def test_edge_never_beats_worst_vertex(self):
        # with coefficients at most one, 1 - b_i - b_j >= -max(b_i, b_j)
        total = total_discrepancy_snc({"A": F(5, 6), "B": F(2, 3)}, [("A", "B")])
        assert total == F(-5, 6)
        total = total_discrepancy_snc({"A": F(1, 2), "B": F(1, 2)}, [("A", "B")])
        assert total == F(-1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(MultiEdgeError):
            total_discrepancy_snc({"A": 0}, [("A", "A")])

    def test_double_edge_rejected(self):
        with pytest.raises(MultiEdgeError):
            total_discrepancy_snc({"A": 0, "B": 0}, [("A", "B"), ("B", "A")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ModelError, match="edge endpoint is not a vertex"):
            total_discrepancy_snc({"A": 0}, [("A", "B")])
        with pytest.raises(ModelError, match="edge endpoint is not a vertex"):
            total_discrepancy_snc({"a": 1}, [("a", "b")])


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
        shape = graph_shape(build_dual_graph(model, model.contracted))
        assert shape.kind == "fork" and shape.branch_count == 4
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
