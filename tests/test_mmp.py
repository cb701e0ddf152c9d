import random
import re
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsurf import lattice, mmp, singularities
from logsurf.errors import LogSurfError, ModelError, ScenarioError
from logsurf.lattice import (
    K_ROW,
    PointSpec,
    SurfaceModel,
    _validated,
    blow_down,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from logsurf.linalg import negative_definite_factor
from logsurf.mmp import (
    ARTIN_TYPE,
    CASTELNUOVO,
    AuditStep,
    Exhausted,
    MinimalOverTracked,
    MmpRun,
    MmpState,
    MmpStep,
    MoriFiberSignal,
    MostNegativeFirst,
    NamedOrder,
    SearchConfig,
    _coefficient_grid,
    audit_run,
    contract,
    contracted_self_intersection,
    extremal_pairing,
    parse_strategy,
    run,
    search_canonical_starts,
    step_candidates,
    verify_smooth_start_runs,
)
from logsurf.scenario import build_model, build_state, bundled_scenario, star_scenario
from logsurf.singularities import (
    EPS_LOG_TERMINAL,
    NOT_LOG_CANONICAL,
    QDivisor,
    SingularityClass,
    classify,
    divisor_terms,
    log_discrepancies,
    minimal_resolution,
    pullback,
    pulled_back,
)
from oracles import (
    coordinate_model,
    eager_run,
    gauss_pullback,
    log_coefficients,
    mumford_pairings,
    pairwise_ranking,
)
from test_lattice import assert_blocks, assert_solves
from test_singularities import TOWER_OPS, line_tower, outcome, tower_from

SEED = 20260821


def threshold_state():
    return build_state(bundled_scenario("quad_fork_threshold"))


def quad_tower_uncontracted():
    """The quad-fork tower with nothing declared contracted."""
    sc = bundled_scenario("quad_fork_threshold")
    model = new_projective_plane()
    for step in sc.blowups:
        model = blow_up(model, step.point, step.name)
    return model


def a1_state():
    model = new_projective_plane()
    model = blow_up(model, PointSpec.general(), "C1")
    model = blow_up(model, PointSpec.on_curve("C1"), "C2")
    return MmpState(surface=model, boundary=QDivisor.from_map({"C1": F(1, 2)}))


def fiber_signal_state():
    """A tracked class with non-negative square and negative canonical pairing."""
    model = _validated(coordinate_model(1, (-3,), {"H": (1,)}))
    return MmpState(surface=model, boundary=QDivisor.zero())


class TestStateAndStrategies:
    def test_rho_counts_active_classes(self):
        st = threshold_state()
        assert st.surface.rank == 11
        assert st.rho == 7

    def test_boundary_validation(self):
        model = quad_tower_uncontracted()
        with pytest.raises(ModelError):
            MmpState(surface=model, boundary=QDivisor.from_map({"nope": 1}))
        with pytest.raises(ModelError):
            MmpState(surface=model, boundary=QDivisor.from_map({"D": F(3, 2)}))
        st = threshold_state()
        with pytest.raises(ModelError):
            MmpState(surface=st.surface, boundary=QDivisor.from_map({"E0": F(1, 2)}))

    def test_parse_strategy(self):
        assert parse_strategy("most-negative") == MostNegativeFirst()
        assert parse_strategy("named:D,X1") == NamedOrder(("D", "X1"))
        with pytest.raises(ScenarioError):
            parse_strategy("named:")
        with pytest.raises(ScenarioError):
            parse_strategy("bogus")


class TestPairings:
    def test_threshold_divisor_numbers(self):
        model = threshold_state().surface
        assert extremal_pairing(model, QDivisor.zero(), "D") == F(13, 7)
        assert contracted_self_intersection(model, "D") == F(-19, 7)

    def test_boundary_scaling_and_root(self):
        model = threshold_state().surface
        for b, expected in [(F(6, 7), F(-23, 49)), (F(13, 19), F(0)), (F(1, 2), F(1, 2))]:
            got = extremal_pairing(model, QDivisor.from_map({"D": b}), "D")
            assert got == F(13, 7) + b * F(-19, 7)
            assert got == expected

    def test_contracted_curve_rejected(self):
        model = threshold_state().surface
        with pytest.raises(ModelError):
            extremal_pairing(model, QDivisor.zero(), "E0")

    def test_smooth_model_matches_plain_pairing(self):
        model = quad_tower_uncontracted()
        assert extremal_pairing(model, QDivisor.zero(), "D") == model.k_dot("D")
        assert contracted_self_intersection(model, "D") == model.self_int("D")

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ({"E1": F(1, 2)}, "boundary curve 'E1' is contracted; fold it into the pullback instead"),
            ({"D": F(5, 2)}, "boundary coefficient 5/2 on 'D' outside [0, 1]"),
            ({"D": F(-1, 2)}, "boundary coefficient -1/2 on 'D' outside [0, 1]"),
        ],
    )
    def test_extremal_pairing_checks_the_boundary(self, coefficients, message):
        model = build_model(star_scenario(5, (2, 2, 2), 3))
        with pytest.raises(ModelError) as exc:
            extremal_pairing(model, QDivisor.from_map(coefficients), "D")
        assert str(exc.value) == message

    def test_a_hand_built_model_is_validated(self):
        # genus 1 + (C.C + K.C) / 2 = 4: unchecked, the two read 0 and 6
        raw = SurfaceModel(rank=2, names=("A",), matrix=((8, 0), (0, 6)))
        reads = (lambda: extremal_pairing(raw, QDivisor.zero(), "A"), lambda: contracted_self_intersection(raw, "A"))
        for read in reads:
            with pytest.raises(ModelError) as exc:
                read()
            assert str(exc.value) == "curve 'A' is not a smooth rational class (genus != 0)"

    def test_contracted_curve_has_no_self_intersection_here(self):
        model = build_model(star_scenario(5, (2, 2, 2), 3))
        with pytest.raises(ModelError) as exc:
            contracted_self_intersection(model, "E1")
        assert str(exc.value) == "curve 'E1' is contracted; it has no self-intersection on the modeled surface"


class TestStepCandidates:
    def test_threshold_order_is_frozen(self):
        cands = step_candidates(threshold_state())
        assert [(c.name, c.extremal_value, c.self_int) for c in cands] == [
            ("D", F(-23, 49), F(-19, 7)),
            ("X1", F(-22, 49), F(-3, 7)),
            ("X2", F(-22, 49), F(-3, 7)),
            ("X3", F(-22, 49), F(-3, 7)),
            ("X4", F(-1, 7), F(-1)),
            ("X5", F(-1, 7), F(-1)),
        ]

    def test_only_negative_values_qualify(self):
        st = a1_state()
        cands = step_candidates(st)
        assert [(c.name, c.extremal_value) for c in cands] == [("C1", F(-1)), ("C2", F(-1, 2))]
        # raising the boundary coefficient to 1 pushes C1's value to -2 + 1*(-2)... still negative;
        # dropping the boundary entirely makes C1 pair to zero and fall out
        plain = MmpState(surface=st.surface, boundary=QDivisor.zero())
        assert [c.name for c in step_candidates(plain)] == ["C2"]

    def test_contracted_curves_never_candidates(self):
        names = {c.name for c in step_candidates(threshold_state())}
        assert names.isdisjoint({"E0", "E1", "E2", "E3"})


def assert_ranking_matches(model, boundary):
    """step_candidates, extremal_pairing and contracted_self_intersection
    against one Mumford pullback per curve, paired through the bilinear
    form: equal Fractions, or the same exception."""
    state = MmpState(surface=model, boundary=boundary)
    try:
        expected = pairwise_ranking(model, boundary.as_map())
    except LogSurfError as exc:
        with pytest.raises(LogSurfError) as got:
            step_candidates(state)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    assert [(c.name, c.extremal_value, c.self_int) for c in step_candidates(state)] == expected
    # every curve, including those with value >= 0 that meet the contracted set
    for name, (value, self_int) in mumford_pairings(model, boundary.as_map()).items():
        assert extremal_pairing(model, boundary, name) == value
        assert contracted_self_intersection(model, name) == self_int


class TestRankingOracle:
    """One log pullback row ranks every curve (projection formula), checked
    against a Mumford pullback per curve."""

    @settings(max_examples=200)
    @given(TOWER_OPS, st.integers(0, 2**16 - 1), st.lists(st.integers(0, 6), min_size=16, max_size=16))
    def test_random_towers_match_pairwise_ranking(self, ops, mask, sixths):
        model = tower_from(ops, mask)
        free = [n for n in model.tracked if n not in model.contracted]
        boundary = QDivisor.from_map({n: F(k, 6) for n, k in zip(free, sixths) if k})
        assert_ranking_matches(model, boundary)

    @pytest.mark.parametrize("name", ["quad_fork_star", "quad_fork_threshold", "triple_fork_236"])
    def test_bundled_states_match_pairwise_ranking(self, name):
        state = build_state(bundled_scenario(name))
        assert_ranking_matches(state.surface, state.boundary)

    def test_log_row_without_its_exceptional_part_is_caught(self, monkeypatch):
        # the mutant ranks by (K + B).C instead of L*.C: D meets the
        # contracted star, so its value moves
        monkeypatch.setattr(singularities, "pulled_back", lambda model, terms: model.pairings(terms))
        state = threshold_state()
        with pytest.raises(AssertionError):
            assert_ranking_matches(state.surface, state.boundary)

    def test_curve_pullback_without_its_exceptional_part_is_caught(self, monkeypatch):
        # the mutant reads C.C for C*.C*: D meets the contracted star, so
        # its value moves
        monkeypatch.setattr(mmp, "pulled_back", lambda model, terms: model.pairings(terms))
        state = threshold_state()
        with pytest.raises(AssertionError):
            assert_ranking_matches(state.surface, state.boundary)


def chain_start(chain):
    """S1 .. S_chain a contracted chain of (-2)-curves with T1 meeting its
    end, T2 on T1 and T3 at a general point: the q44 harness's start."""
    model = new_projective_plane()
    model = blow_up(model, PointSpec.general(), "S1")
    for i in range(chain):
        child = f"S{i + 2}" if i + 1 < chain else "T1"
        model = blow_up(model, PointSpec.on_curve(f"S{i + 1}"), child)
    model = blow_up(model, PointSpec.on_curve("T1"), "T2")
    model = blow_up(model, PointSpec.general(), "T3")
    return declare_contracted(model, [f"S{i + 1}" for i in range(chain)])


class TestOddBlockSign:
    """det of a negative definite k x k block has the sign of (-1)^k, so an
    odd block hands pulled_back a negative det. It must still return d > 0:
    the ranking reads signs straight off the row's numerators."""

    @pytest.mark.parametrize("chain", [1, 2, 3])
    def test_denominator_is_positive_and_ranking_holds(self, chain):
        model = chain_start(chain)
        boundary = QDivisor.from_map({"T1": F(1, 2), "T2": F(1, 3)})
        # the chain, declared curve by curve, is one block
        ((_, factor),) = model.contracted_factor
        assert (factor[-1][-1] < 0) == (chain % 2 == 1)  # the last pivot is det
        log = [(K_ROW, 1)] + divisor_terms(model, boundary)
        contracted = [model.row(e) for e in model.contracted]
        for terms in (log, [(model.row("T1"), 1)]):
            coef, v, d = pulled_back(model, terms)
            assert d > 0 and len(coef) == len(v) == len(model.names) + 1
            # solved, not its own pullback: T1 meets the chain
            assert any(coef[r] for r in contracted) and not any(v[r] for r in contracted)
        # T1 meets the chain, so its C*.C* comes from its own solve
        expected = pairwise_ranking(model, boundary.as_map())
        assert [name for name, _, _ in expected] == ["T3", "T2", "T1"]
        state = MmpState(surface=model, boundary=boundary)
        assert [(c.name, c.extremal_value, c.self_int) for c in step_candidates(state)] == expected


class TestNoSolvePath:
    """A combination that meets no contracted curve is its own pullback:
    `pulled_back` returns it without calling `solve_exact`, with the
    Fractions of a solve that always runs."""

    forced = staticmethod(gauss_pullback)

    @pytest.mark.parametrize("chain", [1, 2, 3])
    def test_a_combination_off_the_contracted_set_is_not_solved(self, monkeypatch, chain):
        # K.S = 0 on a (-2)-curve S, and T2 and T3 miss the chain, so K + B
        # with B on them meets no contracted curve
        model = chain_start(chain)
        assert {model.self_int(e) for e in model.contracted} == {-2}
        boundary = QDivisor.from_map({"T2": F(1, 2), "T3": F(1, 3)})
        solves = counting(monkeypatch, singularities, "solve_exact")
        for terms in ([(model.row("T3"), F(1))], [(K_ROW, F(1))] + divisor_terms(model, boundary)):
            coef, v, d = pulled_back(model, terms)
            assert solves == [] and d > 0
            assert ([F(x, d) for x in coef], [F(x, d) for x in v]) == self.forced(model, terms)
        # T1 meets the chain's end, so its pullback is solved
        terms = [(model.row("T1"), F(1))]
        coef, v, d = pulled_back(model, terms)
        assert len(solves) == 1
        assert ([F(x, d) for x in coef], [F(x, d) for x in v]) == self.forced(model, terms)


class TestMetamorphic:
    """A blow-up at a general point meets nothing tracked."""

    @settings(max_examples=100)
    @given(TOWER_OPS)
    def test_general_blow_up_then_blow_down_is_the_identity(self, ops):
        model = tower_from(ops, 0)
        assert blow_down(blow_up(model, PointSpec.general(), "G"), "G") == model

    @settings(max_examples=100)
    @given(
        TOWER_OPS,
        st.integers(0, 2**16 - 1),
        st.lists(st.integers(0, 6), min_size=16, max_size=16),
        st.sampled_from((F(0), F(1, 7))),
    )
    def test_general_blow_up_keeps_the_singularities(self, ops, mask, sixths, epsilon):
        model = tower_from(ops, mask)
        blown = declare_contracted(blow_up(tower_from(ops, 0), PointSpec.general(), "G"), model.contracted)
        free = [n for n in model.tracked if n not in model.contracted]
        boundary = QDivisor.from_map({n: F(k, 6) for n, k in zip(free, sixths) if k})
        assert classify(blown, boundary, epsilon) == classify(model, boundary, epsilon)
        assert log_discrepancies(blown, boundary) == log_discrepancies(model, boundary)
        before = step_candidates(MmpState(surface=model, boundary=boundary))
        after = step_candidates(MmpState(surface=blown, boundary=boundary))
        assert [c for c in after if c.name != "G"] == before
        assert [(c.extremal_value, c.self_int) for c in after if c.name == "G"] == [(F(-1), F(-1))]


QUOTED = re.compile(r"'([^']*)'")


def renamed_state(state, rename):
    """`state` with every tracked curve renamed; rows keep their places."""
    m = state.surface
    model = _validated(
        SurfaceModel(m.rank, tuple(rename[n] for n in m.names), m.matrix, frozenset(rename[n] for n in m.contracted))
    )
    return MmpState(surface=model, boundary=QDivisor.from_map({rename[n]: c for n, c in state.boundary.coefficients}))


def renamed_text(text, rename):
    """`text` with each quoted curve name renamed."""
    return QUOTED.sub(lambda m: repr(rename.get(m.group(1), m.group(1))), text)


def renamed_report(audit, rename):
    return replace(
        audit,
        steps=tuple(replace(a, curve=rename[a.curve]) for a in audit.steps),
        violations=tuple(renamed_text(v, rename) for v in audit.violations),
    )


def renamed_result(result, rename):
    """An MmpRun, or a LogSurfError, with every curve name in it renamed."""
    if isinstance(result, LogSurfError):
        return type(result), renamed_text(str(result), rename)
    out = result.outcome
    return MmpRun(
        steps=tuple(replace(s, contracted_curve=rename[s.contracted_curve]) for s in result.steps),
        outcome=replace(out, curve=rename[out.curve]) if isinstance(out, MoriFiberSignal) else out,
        audit=renamed_report(result.audit, rename),
    )


class TestRenaming:
    """Names only break ties, in their sorted order, so a renaming that
    keeps that order changes `run` and `audit_run` only by the renaming:
    steps, outcome, audit steps and violation texts."""

    @settings(max_examples=60)
    @given(
        TOWER_OPS,
        st.booleans(),
        st.lists(st.integers(0, 6), min_size=17, max_size=17),
        st.sampled_from((F(0), F(1, 7), F(1, 4))),
        st.data(),
    )
    def test_order_preserving_renaming(self, ops, line, sixths, epsilon, data):
        if line:
            model = _validated(line_tower(ops))
        else:
            model = tower_from(ops, data.draw(st.integers(0, (1 << len(ops)) - 1)))
        free = [n for n in model.tracked if n not in model.contracted]
        state = MmpState(surface=model, boundary=QDivisor.from_map({n: F(k, 6) for n, k in zip(free, sixths) if k}))
        size = len(model.names)
        new = data.draw(st.lists(st.text("AZaz09_", min_size=1, max_size=3), min_size=size, max_size=size, unique=True))
        rename = dict(zip(model.tracked, sorted(new)))
        same = {n: n for n in new}
        other = renamed_state(state, rename)
        names = data.draw(st.lists(st.sampled_from(model.tracked), max_size=len(model.tracked) + 1))
        renamed_names = tuple(rename[n] for n in names)
        for strategy, renamed_strategy in (
            (MostNegativeFirst(), MostNegativeFirst()),
            (NamedOrder(tuple(names)), NamedOrder(renamed_names)),
        ):
            expected = renamed_result(outcome(lambda: run(state, strategy, epsilon)), rename)
            assert renamed_result(outcome(lambda: run(other, renamed_strategy, epsilon)), same) == expected
        # any list of names, honest or not, so that violations are texts too
        fake = [MmpStep(n, F(-1), F(-1), ARTIN_TYPE, None) for n in names]
        report = audit_run(MmpRun(steps=tuple(fake), outcome=Exhausted(), audit=None), state, epsilon)
        renamed_fake = tuple(replace(step, contracted_curve=rename[step.contracted_curve]) for step in fake)
        assert audit_run(MmpRun(renamed_fake, Exhausted(), None), other, epsilon) == renamed_report(report, rename)


class TestContract:
    def test_contract_drops_rho_and_boundary(self):
        st = threshold_state()
        after = contract(st, "D")
        assert after.rho == st.rho - 1
        assert "D" in after.surface.contracted
        assert after.boundary == QDivisor.zero()
        assert after.step_index == 1

    def test_non_candidate_rejected(self):
        with pytest.raises(ModelError):
            contract(threshold_state(), "E0")
        plain = MmpState(surface=a1_state().surface, boundary=QDivisor.zero())
        with pytest.raises(ModelError):
            contract(plain, "C1")  # pairs to zero without the boundary

    def test_fiber_class_rejected(self):
        with pytest.raises(ModelError):
            contract(fiber_signal_state(), "H")


class TestContractLookup:
    """`contract` steps through the successor function and solves C.C for
    the named curve alone; the result is that of a lookup in the whole
    `step_candidates`, then the curve declared contracted on the state's
    model, a (-1)-curve on a smooth surface too."""

    @staticmethod
    def listed_contract(state, name):
        matches = [c for c in step_candidates(state) if c.name == name]
        if not matches:
            raise ModelError(f"{name!r} is not an extremal candidate (needs (K + boundary).C < 0)")
        if matches[0].self_int >= 0:
            raise ModelError(
                f"{name!r} has self-intersection {matches[0].self_int} >= 0; "
                "it signals a fiber space, not a contraction"
            )
        model = declare_contracted(state.surface, [name])
        return MmpState(surface=model, boundary=state.boundary.without(name), step_index=state.step_index + 1)

    @pytest.mark.parametrize("scenario", ["triple_fork_236", "quad_fork_threshold", "quad_fork_star"])
    def test_every_name_matches_a_full_lookup(self, scenario):
        state = build_state(bundled_scenario(scenario))
        assert state.surface.contracted  # the lookup also meets contracted names
        contracted = 0
        for name in state.surface.tracked:
            expected = outcome(lambda: self.listed_contract(state, name))
            got = outcome(lambda: contract(state, name))
            if isinstance(expected, LogSurfError):
                assert (type(got), str(got)) == (type(expected), str(expected))
            else:
                assert got == expected
                contracted += 1
        assert contracted > 0

    def test_fiber_signal_error_matches(self):
        state = fiber_signal_state()
        got = outcome(lambda: contract(state, "H"))
        expected = outcome(lambda: self.listed_contract(state, "H"))
        assert "signals a fiber space" in str(expected)
        assert (type(got), str(got)) == (type(expected), str(expected))

    def test_one_self_intersection_per_contract(self, monkeypatch):
        state = threshold_state()
        assert len(step_candidates(state)) > 1
        calls = counting(monkeypatch, mmp, "pulled_back")
        contract(state, "D")
        assert calls == [(state.surface, [(state.surface.row("D"), 1)])]
        calls.clear()
        with pytest.raises(ModelError):
            contract(fiber_signal_state(), "H")
        assert len(calls) == 1


class TestRun:
    def test_castelnuovo_step_on_smooth_surface(self):
        model = blow_up(new_projective_plane(), PointSpec.general(), "E")
        result = run(MmpState(surface=model, boundary=QDivisor.zero()), MostNegativeFirst())
        assert [s.kind for s in result.steps] == [CASTELNUOVO]
        assert result.steps[0].contracted_curve == "E"
        assert result.steps[0].extremal_value == -1
        assert result.steps[0].self_int == -1
        assert isinstance(result.outcome, MinimalOverTracked)
        assert result.audit.ok
        assert result.audit.rho_sequence == (2, 1)

    def test_a1_run_contracts_boundary_curve_first(self):
        result = run(a1_state(), MostNegativeFirst())
        assert [(s.contracted_curve, s.kind) for s in result.steps] == [
            ("C1", ARTIN_TYPE),
            ("C2", ARTIN_TYPE),
        ]
        assert result.steps[0].post_classification.total_discrepancy == 0
        assert result.steps[1].post_classification.total_discrepancy == 1
        assert isinstance(result.outcome, MinimalOverTracked)
        assert result.audit.ok

    def test_threshold_named_run(self):
        result = run(threshold_state(), NamedOrder(("D",)), epsilon=F(1, 7))
        assert len(result.steps) == 1
        step = result.steps[0]
        assert step.kind == ARTIN_TYPE
        assert step.extremal_value == F(-23, 49)
        assert step.post_classification.classification == NOT_LOG_CANONICAL
        assert step.post_classification.mr_total_discrepancy == F(-20, 19)
        assert isinstance(result.outcome, Exhausted)
        # the start is not smooth, so the audit does not hold steps to the
        # epsilon-log-terminal bar; the support condition is still checked
        audit = result.audit
        assert audit.ok
        assert not audit.smooth_start
        assert audit.coefficients_bounded
        assert audit.rho_sequence == (7, 6)
        assert audit.steps[0].step3_applicable
        assert audit.steps[0].step3_value == F(-114, 49)
        assert audit.steps[0].step3_ok

    def test_named_strategy_rejects_non_candidate(self):
        with pytest.raises(ScenarioError):
            run(threshold_state(), NamedOrder(("E0",)))

    def test_exhausted_leaves_candidates_behind(self):
        result = run(a1_state(), NamedOrder(("C1",)))
        assert isinstance(result.outcome, Exhausted)
        assert len(result.steps) == 1

    def test_mori_fiber_signal(self):
        result = run(fiber_signal_state(), MostNegativeFirst())
        assert result.outcome == MoriFiberSignal(curve="H", self_int=F(1))
        assert result.steps == ()
        assert result.audit.ok

    def test_out_of_range_epsilon_raises_at_the_first_step(self):
        # classifying the first step's surface raises, before the bad name
        # the second step would reject
        state = a1_state()
        with pytest.raises(ScenarioError, match="strategy names 'nope'"):
            run(state, NamedOrder(("C1", "nope")))
        for epsilon in (2, F(-1, 2)):
            for strategy in (MostNegativeFirst(), NamedOrder(("C1",)), NamedOrder(("C1", "nope"))):
                with pytest.raises(ModelError) as exc:
                    run(state, strategy, epsilon)
                assert type(exc.value) is ModelError
                assert str(exc.value) == f"epsilon {F(epsilon)} outside [0, 1]"

    def test_out_of_range_epsilon_fails_after_the_first_contraction(self, monkeypatch):
        # each step is audited as it is made, so the first step's class is
        # missing before any later contraction or replay runs
        declared = counting(monkeypatch, mmp, "declare_contracted")
        resolved = counting(monkeypatch, mmp, "minimal_resolution")
        resolved_in_classify = counting(monkeypatch, singularities, "minimal_resolution")
        with pytest.raises(ModelError, match=re.escape("epsilon 2 outside [0, 1]")):
            run(a1_state(), MostNegativeFirst(), 2)
        # the audit's one declaration, its resolution of the smooth start,
        # which is its own and carried as None, and, C1 being no (-1)-curve
        # there, the new shadow's resolution, its own too. Then `classify`'s.
        assert (len(declared), len(resolved), len(resolved_in_classify)) == (1, 2, 1)
        assert [m.contracted for m, in resolved] == [frozenset(), frozenset({"C1"})]

    def test_replay_failure_raises_the_audit_violation(self):
        # A.A = -1 on a rank-1 model breaks the Hodge index: declaring A
        # contracted fails, and the run raises what the audit reports
        model = _validated(SurfaceModel(rank=1, names=("A",), matrix=((9, -1), (-1, -1))))
        with pytest.raises(ModelError) as exc:
            run(MmpState(surface=model, boundary=QDivisor.zero()), MostNegativeFirst())
        assert (type(exc.value), str(exc.value)) == (
            ModelError,
            "effectivity: step 0 ('A'): replay failed: contracted configuration ['A'] spans 1 negative "
            "directions; rank 1 allows at most 0",
        )

    def test_kind_is_castelnuovo_on_a_smooth_again_surface(self):
        # E1 and E2 resolve away after step 1, so D is a (-1)-curve on a
        # smooth surface: its step is Castelnuovo after two Artin steps
        model = blow_up(new_projective_plane(), PointSpec.general(), "E1")
        model = blow_up(model, PointSpec.on_curve("E1"), "E2")
        model = blow_up(model, PointSpec.general(), "D")
        state = MmpState(surface=model, boundary=QDivisor.from_map({"E1": F(1, 2)}))
        result = run(state, parse_strategy("named:E1,E2,D"))
        assert [(s.contracted_curve, s.kind) for s in result.steps] == [
            ("E1", ARTIN_TYPE),
            ("E2", ARTIN_TYPE),
            ("D", CASTELNUOVO),
        ]
        assert result.steps[2].self_int == -1 and result.audit.ok
        pair, violations = mmp._start(state), []
        for i, name in enumerate(("E1", "E2")):
            pair, _ = mmp.audit_step(pair, name, i, F(0), True, violations)
        # a smooth surface carries no resolution model: it is the shadow's
        assert pair[3] is None
        resolved = minimal_resolution(pair[0])
        assert resolved.contracted == frozenset() and resolved.names == ("D",)

    def test_scenario_error_counts_steps_from_the_start_index(self):
        model = new_projective_plane()
        for name in ("E0", "E1", "E2"):
            model = blow_up(model, PointSpec.general(), name)
        state = contract(MmpState(surface=model, boundary=QDivisor.zero()), "E0")
        assert state.step_index == 1
        with pytest.raises(ScenarioError) as exc:
            run(state, parse_strategy("named:E1,nope"))
        assert str(exc.value) == "strategy names 'nope' but it is not a contractible candidate at step 2"

    def test_state_validates_a_hand_built_surface(self):
        for matrix, message in (
            (((9, 0), (0, -2)), "K.K = 9 but rank 2 needs 8"),
            (((8, 0), (1, -1)), "intersection matrix is not a symmetric integer matrix at (0, 1)"),
        ):
            raw = SurfaceModel(rank=2, names=("A",), matrix=matrix)
            with pytest.raises(ModelError) as exc:
                MmpState(surface=raw, boundary=QDivisor.zero())
            assert (type(exc.value), str(exc.value)) == (ModelError, message)

    def test_out_of_range_epsilon_without_steps_returns(self):
        for state, strategy in ((fiber_signal_state(), MostNegativeFirst()), (a1_state(), NamedOrder(()))):
            result = run(state, strategy, 2)
            assert result.steps == () and result.audit.ok
            assert result.audit.epsilon == 2
            assert isinstance(result.outcome, (MoriFiberSignal, Exhausted))

    def test_seeded_towers_obey_step_bound(self):
        rng = random.Random(SEED)
        grid = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
        for _ in range(30):
            model = new_projective_plane()
            for i in range(rng.randint(1, 7)):
                tracked = model.tracked
                if not tracked or rng.random() < 0.5:
                    point = PointSpec.general()
                else:
                    point = PointSpec.on_curve(rng.choice(tracked))
                model = blow_up(model, point, f"C{i + 1}")
            boundary = QDivisor.from_map(
                {n: rng.choice(grid) for n in model.tracked if rng.random() < 0.6}
            )
            state = MmpState(surface=model, boundary=boundary)
            result = run(state, MostNegativeFirst())
            assert len(result.steps) <= state.rho - 1
            assert result.audit.initial_rho == state.rho
            assert list(result.audit.rho_sequence) == list(
                range(state.rho, state.rho - len(result.steps) - 1, -1)
            )
            assert result.audit.ok, result.audit.violations
            assert isinstance(result.outcome, (MinimalOverTracked, MoriFiberSignal))


def nodal_model(contracted):
    """P^2 blown up at the node of a tracked nodal cubic N, E the
    exceptional curve: blowing E down leaves N singular."""
    return _validated(coordinate_model(2, (-3, 1), {"N": (3, -2), "E": (0, 1)}, contracted))


class TestDeclaredSmoothStart:
    """A start whose contracted curves all blow down is smooth: smoothness
    is read off the start's minimal resolution, so its (-1)-steps are
    Castelnuovo, check (c) applies, and its run is that of the blown-down
    model. `contract` returns that shadow, with the curve declared."""

    @staticmethod
    def three_points():
        model = new_projective_plane()
        for name in ("E0", "E1", "E2"):
            model = blow_up(model, PointSpec.general(), name)
        return model

    def test_a_declared_minus_one_curve_start_is_smooth(self):
        model = self.three_points()
        state = MmpState(surface=declare_contracted(model, ["E0"]), boundary=QDivisor.zero())
        result = run(state, MostNegativeFirst())
        assert [(s.contracted_curve, s.kind) for s in result.steps] == [("E1", CASTELNUOVO), ("E2", CASTELNUOVO)]
        assert result.audit.smooth_start and result.audit.coefficients_bounded and result.audit.ok
        assert result == run(MmpState(surface=blow_down(model, "E0"), boundary=QDivisor.zero()), MostNegativeFirst())

    def test_check_c_applies_to_a_declared_start(self):
        # the forced bad run of TestAuditViolations, from the quad-fork
        # tower with a general blow-up G declared contracted on it
        model = declare_contracted(blow_up(quad_tower_uncontracted(), PointSpec.general(), "G"), ["G"])
        fake = tuple(MmpStep(n, F(-1), F(-1), ARTIN_TYPE, None) for n in ("E1", "E2", "E3", "E0", "D"))
        report = audit_run(MmpRun(fake, Exhausted(), None), MmpState(surface=model, boundary=QDivisor.zero()), 0)
        assert report.smooth_start
        assert [v for v in report.violations if v.startswith("classification:")] == [
            "classification: step 4 ('D'): surface classifies not-log-canonical, expected eps-log-terminal"
        ]

    def test_contracted_smooth_towers_run_as_blown_down(self):
        # each Castelnuovo candidate of a smooth start: the run from
        # `contract`'s shadow is the run from the blown-down model, and the
        # shadow's candidates are the oracle's ranking on it
        epsilon = F(1, 7)
        grid = _coefficient_grid(1 - epsilon)
        compared = kinds = 0
        for trial in range(30):
            rng = random.Random(SEED + trial)
            model = mmp._random_tower(rng, 12)
            state = MmpState(surface=model, boundary=QDivisor.from_map({n: rng.choice(grid) for n in model.tracked}))
            for cand in step_candidates(state):
                if cand.self_int != -1:
                    continue
                after = contract(state, cand.name)
                assert after.surface == declare_contracted(model, [cand.name]) and after.step_index == 1
                assert [(c.name, c.extremal_value, c.self_int) for c in step_candidates(after)] == pairwise_ranking(
                    after.surface, after.boundary.as_map()
                )
                blown = MmpState(surface=blow_down(model, cand.name), boundary=after.boundary, step_index=1)
                result = run(after, MostNegativeFirst(), epsilon)
                assert result == run(blown, MostNegativeFirst(), epsilon)
                assert result.audit.smooth_start and result.audit.ok
                compared += 1
                kinds += sum(s.kind == CASTELNUOVO for s in result.steps)
        assert compared > 100 and kinds > 500

    def test_a_start_whose_resolution_breaks_a_curve_raises(self):
        # E contracted: resolving the start would leave N nodal. A run and
        # its audit resolve the start; listing candidates does not
        state = MmpState(surface=nodal_model({"E"}), boundary=QDivisor.zero())
        reads = (
            lambda: run(state, MostNegativeFirst()),
            lambda: audit_run(MmpRun((), MinimalOverTracked(), None), state, 0),
        )
        for read in reads:
            with pytest.raises(ModelError) as exc:
                read()
            assert str(exc.value) == "curve 'N' is not a smooth rational class (genus != 0)"
        listed = [(c.name, c.extremal_value, c.self_int) for c in step_candidates(state)]
        assert listed == pairwise_ranking(state.surface, {}) == [("N", F(-9), F(9))]

    def test_a_cascade_that_breaks_a_curve_ends_the_replay(self):
        # a smooth start whose Castelnuovo step on E leaves N nodal
        state = MmpState(surface=nodal_model(()), boundary=QDivisor.zero())
        message = "classification: step 0 ('E'): replay failed: curve 'N' is not a smooth rational class (genus != 0)"
        for step in (lambda: run(state, MostNegativeFirst()), lambda: contract(state, "E")):
            with pytest.raises(ModelError) as exc:
                step()
            assert str(exc.value) == message
        fake = (MmpStep("E", F(-1), F(-1), CASTELNUOVO, None),)
        report = audit_run(MmpRun(fake, MinimalOverTracked(), None), state, 0)
        assert (report.steps, report.violations) == ((), (message,))


def tower_with_intersections(rng, max_blowups):
    """A random tower whose blow-ups also sit at the intersection of two
    tracked curves, returned with the number of such blow-ups."""
    model, at = new_projective_plane(), 0
    for i in range(rng.randint(1, max_blowups)):
        names = model.tracked
        meeting = [(a, b) for a, b in combinations(names, 2) if model.intersection(a, b) >= 1]
        roll = rng.random()
        if not names or roll < 0.35:
            point = PointSpec.general()
        elif meeting and roll < 0.7:
            point = PointSpec.at_intersection(*rng.choice(meeting))
            at += 1
        else:
            point = PointSpec.on_curve(rng.choice(names))
        model = blow_up(model, point, f"C{i + 1}")
    return model, at


class TestIntersectionTowerRuns:
    def test_runs_with_intersection_blowups_audit_clean(self):
        epsilon = F(1, 7)
        grid = _coefficient_grid(1 - epsilon)
        at_total = 0
        for trial in range(150):
            rng = random.Random(SEED * 1_000_003 + trial)
            model, at = tower_with_intersections(rng, 12)
            at_total += at
            boundary = QDivisor.from_map(
                {n: c for n in model.tracked if (c := rng.choice(grid)) != 0}
            )
            result = run(MmpState(surface=model, boundary=boundary), MostNegativeFirst(), epsilon)
            assert result.audit.ok, (trial, result.audit.violations)
            assert isinstance(result.outcome, (MinimalOverTracked, MoriFiberSignal, Exhausted))
        assert at_total >= 150  # the stream really blows up intersection points


def line_or_plane_tower(rng):
    """A tower of 1-8 blow-ups, over a tracked line L (`line_tower`, with a
    quarter of the blow-ups on L) or over the plane alone (`tower_from`),
    each half the time."""
    ops = []
    for i in range(rng.randint(1, 8)):
        kind = rng.choice(("general", "on", "at", "line"))
        # L sorts after every C<i>, so pick i is L at step i
        ops.append(("on", i) if kind == "line" else (kind, rng.randrange(10**6)))
    return _validated(line_tower(ops)) if rng.random() < 0.5 else tower_from(ops, 0)


class TestRunOutcomeCoverage:
    """A test-only stream that ends runs in every outcome. Each trial walks
    one random contraction order to its end, then runs a random prefix of
    it as a NamedOrder (the whole walk half the time). A short prefix ends
    Exhausted. A whole walk over the plane contracts every curve and ends
    MinimalOverTracked; over a line, what is left at the end is a class
    with C.C > 0, a MoriFiberSignal."""

    def test_every_outcome_with_clean_audits(self):
        epsilon = F(1, 7)
        grid = _coefficient_grid(1 - epsilon)
        counts = Counter()
        for trial in range(160):
            rng = random.Random(20261018 * 1_000_003 + trial)
            model = line_or_plane_tower(rng)
            boundary = QDivisor.from_map({n: c for n in model.tracked if (c := rng.choice(grid))})
            state = walk = MmpState(surface=model, boundary=boundary)
            order = []
            while contractible := [c.name for c in step_candidates(walk) if c.self_int < 0]:
                order.append(rng.choice(contractible))
                walk = contract(walk, order[-1])
            prefix = tuple(order[: rng.choice((len(order), rng.randint(0, len(order))))])
            result = run(state, NamedOrder(prefix), epsilon)
            assert result.audit.ok, (trial, result.audit.violations)
            assert [s.contracted_curve for s in result.steps] == list(prefix)
            counts[type(result.outcome).__name__] += 1
        assert counts == {"Exhausted": 58, "MinimalOverTracked": 50, "MoriFiberSignal": 52}


STAR_STARTS = ((3, (2, 3, 6), 3), (4, (2, 2, 3), 2), (5, (2, 2, 2), 3), (7, (2, 3, 6), 3))


def chain_tower(ops, chain):
    """A start built as `search_canonical_starts` builds one: a chain
    S1..S<chain> ending in T1, TOWER_OPS's blow-ups kept off the chain, and
    the chain, (-2)-curves, contracted."""
    model = blow_up(new_projective_plane(), PointSpec.general(), "S1")
    for i in range(chain):
        model = blow_up(model, PointSpec.on_curve(f"S{i + 1}"), f"S{i + 2}" if i + 1 < chain else "T1")
    chain_names = [f"S{i + 1}" for i in range(chain)]
    for i, (kind, pick) in enumerate(ops):
        off = [n for n in model.tracked if n not in chain_names]
        point = PointSpec.on_curve(off[pick % len(off)]) if kind == "on" else PointSpec.general()
        model = blow_up(model, point, f"T{i + 2}")
    return declare_contracted(model, chain_names)


def start_model(ops, base, integer):
    """The start `lazy_and_eager` runs from: TOWER_OPS's tower over the
    plane, over a tracked line L, or over L never validated (`base` 0, 1,
    2); singular, a contracted (-2)-chain of 1-3 curves as in
    `search_canonical_starts` (3), the plane tower with a random subset of
    its curves contracted, every one negative definite (4), or a
    `star_scenario` start, ops unused (5)."""
    if base == 3:
        return chain_tower(ops, integer(1, 3))
    if base == 4:
        return tower_from(ops, integer(0, (1 << len(ops)) - 1))
    if base == 5:
        n0, branches, extra = STAR_STARTS[integer(0, len(STAR_STARTS) - 1)]
        return build_model(star_scenario(n0, branches, extra))
    model = tower_from(ops, 0) if base == 0 else line_tower(ops)
    return _validated(model) if base == 1 else model


def lazy_and_eager(ops, base, sixths, epsilon, choose, integer):
    """Run one `start_model` start with `run` and with `eager_run`, which
    solves C.C for every candidate and classifies each step's own model,
    and require the same MmpRun or the same error. The non-contracted
    curves get the boundary coefficients `sixths`. The strategy is
    most-negative, or a NamedOrder prefix of a random contraction order, at
    times with one more random name. `choose` and `integer` draw the random
    choices. Returns the outcome's or the error's type name."""
    model = start_model(ops, base, integer)
    boundary = QDivisor.from_map(
        {n: F(k, 6) for n, k in zip(model.tracked, sixths) if k and n not in model.contracted}
    )
    state = walk = MmpState(surface=model, boundary=boundary)
    if integer(0, 2) == 0:
        strategy = MostNegativeFirst()
    else:
        order = []
        while contractible := [c.name for c in step_candidates(walk) if c.self_int < 0]:
            order.append(choose(contractible))
            walk = contract(walk, order[-1])
        prefix = order[: integer(0, len(order))] + ([choose(model.tracked)] if integer(0, 3) == 0 else [])
        strategy = NamedOrder(tuple(prefix))
    got = outcome(lambda: run(state, strategy, epsilon))
    expected = outcome(lambda: eager_run(state, strategy, epsilon))
    if isinstance(expected, LogSurfError):
        assert (type(got), str(got)) == (type(expected), str(expected))
        return type(expected).__name__
    assert got == expected
    return type(got.outcome).__name__


class TestLazyCandidates:
    """`run` solves C.C only for the candidates its strategy reads and takes
    each step's class from the audit's replay; the oracle `eager_run`
    ranks by Mumford pullbacks, solves C.C for all of them at every step and
    classifies its own chain of models."""

    EPSILONS = (F(0), F(1, 7), F(1, 4))

    @settings(max_examples=120)
    @given(
        TOWER_OPS,
        st.integers(0, 5),
        st.lists(st.integers(0, 6), min_size=17, max_size=17),
        st.sampled_from(EPSILONS),
        st.data(),
    )
    def test_matches_the_eager_loop(self, ops, base, sixths, epsilon, data):
        def choose(seq):
            return data.draw(st.sampled_from(seq))

        def integer(lo, hi):
            return data.draw(st.integers(lo, hi))

        lazy_and_eager(ops, base, sixths, epsilon, choose, integer)

    def test_never_validated_start_gets_every_check(self):
        # raw: A.B = -1, so D, which meets A, would pull back with x_B = -1/3
        # < 0. G ranks first and is contractible, so a lazy ranking would
        # never solve D; `MmpState` validates the raw surface first.
        model = SurfaceModel(
            rank=5,
            names=("A", "B", "D", "G"),
            matrix=(
                (5, 0, 0, -1, -1),
                (0, -2, -1, 1, 0),
                (0, -1, -2, 0, 0),
                (-1, 1, 0, -1, 0),
                (-1, 0, 0, 0, -1),
            ),
            contracted=frozenset({"A", "B"}),
        )
        with pytest.raises(ModelError) as exc:
            MmpState(surface=model, boundary=QDivisor.from_map({"G": F(1, 2)}))
        assert str(exc.value) == "tracked curves 'A' and 'B' have negative intersection"

    def test_zero_boundary_on_a_resolved_curve(self):
        # B is contracted with boundary coefficient 0 and a (-1)-curve, so
        # the resolution `run` solves C.C on and audit check (d) reads has no row
        # for it; the state drops the zero, so B is no boundary anywhere
        model = blow_up(new_projective_plane(), PointSpec.general(), "A")
        model = blow_up(model, PointSpec.on_curve("A"), "B")
        model = declare_contracted(blow_up(model, PointSpec.general(), "C"), ["B"])
        state = MmpState(surface=model, boundary=QDivisor.from_map({"B": 0, "C": F(1, 2)}))
        plain = MmpState(surface=model, boundary=QDivisor.from_map({"C": F(1, 2)}))
        assert state == plain
        result = run(state, MostNegativeFirst())
        assert result == eager_run(state, MostNegativeFirst()) == run(plain, MostNegativeFirst())
        assert [s.contracted_curve for s in result.steps] == ["C", "A"]
        assert result.audit.ok and audit_run(result, state, 0) == result.audit

    def test_seeded_stream_reaches_every_outcome(self):
        rng = random.Random(20261019)
        counts = Counter()
        for _ in range(120):
            ops = [(rng.choice(("general", "on", "at")), rng.randrange(10**6)) for _ in range(rng.randint(1, 10))]
            sixths = [rng.randint(0, 6) for _ in range(17)]
            epsilon = rng.choice(self.EPSILONS)
            counts[lazy_and_eager(ops, rng.randrange(3), sixths, epsilon, rng.choice, rng.randint)] += 1
        assert set(counts) == {"MinimalOverTracked", "MoriFiberSignal", "Exhausted", "ScenarioError"}
        # singular starts: a (-2)-chain, a contracted subset, a star
        singular = set()
        for _ in range(90):
            ops = [(rng.choice(("general", "on", "at")), rng.randrange(10**6)) for _ in range(rng.randint(1, 10))]
            sixths = [rng.randint(0, 6) for _ in range(17)]
            epsilon = rng.choice(self.EPSILONS)
            base = rng.randrange(3, 6)
            singular.add((base, lazy_and_eager(ops, base, sixths, epsilon, rng.choice, rng.randint)))
        assert singular == {
            (base, name) for base in (3, 4, 5) for name in ("MinimalOverTracked", "Exhausted", "ScenarioError")
        }


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def smooth_flags(monkeypatch):
    """Make `mmp.audit_step` record, per step, whether the pair it is handed
    carries no resolution model, that is, the surface before the step is
    smooth; returns the list of flags."""
    flags, real = [], mmp.audit_step

    def step(pair, *rest):
        flags.append(pair[3] is None)
        return real(pair, *rest)

    monkeypatch.setattr(mmp, "audit_step", step)
    return flags


class TestSavedWork:
    """Work that nothing reads stays undone: C.C for candidates the strategy
    skips, `_validated` for blow-ups of a checked model, a full `classify`
    in the audit, and a second classification of each surface in `run`."""

    def test_a_named_curve_that_cannot_be_contracted_is_solved_once(self, monkeypatch):
        # H is a candidate with H.H = 1: the named step reads its C*, and the
        # greedy fallback that ends the run reuses it
        state = fiber_signal_state()
        calls = counting(monkeypatch, mmp, "pulled_back")
        result = run(state, NamedOrder(("H",)))
        assert result.outcome == MoriFiberSignal(curve="H", self_int=F(1))
        assert calls == [(state.surface, [(state.surface.row("H"), 1)])]

    @pytest.mark.parametrize("chain", [1, 2, 3])
    def test_step_candidates_solves_one_log_pullback_and_resolves_nothing(self, monkeypatch, chain):
        model = chain_start(chain)
        state = MmpState(surface=model, boundary=QDivisor.from_map({"T1": F(1, 2), "T2": F(1, 3)}))
        logs = counting(monkeypatch, mmp, "_log_numerators")
        resolved = counting(monkeypatch, mmp, "minimal_resolution")
        listed = [(c.name, c.extremal_value, c.self_int) for c in step_candidates(state)]
        assert (len(logs), len(resolved)) == (1, 0)
        assert listed == pairwise_ranking(model, state.boundary.as_map())

    def test_each_surface_classified_once(self, monkeypatch):
        lengths, kinds = [], []
        real_run = mmp.run

        def recorded(*args, **kwargs):
            result = real_run(*args, **kwargs)
            lengths.append(len(result.steps))
            kinds.extend(s.kind for s in result.steps)
            return result

        monkeypatch.setattr(mmp, "run", recorded)
        smooth = smooth_flags(monkeypatch)
        classified = counting(monkeypatch, mmp, "classify")
        resolved = counting(monkeypatch, mmp, "minimal_resolution")
        cascades = counting(monkeypatch, mmp, "blow_down_cascade")
        resolved_in_classify = counting(monkeypatch, singularities, "minimal_resolution")
        cores = counting(monkeypatch, singularities, "_classified")
        labels = counting(monkeypatch, mmp, "_labelled")
        for harness, starts, blown, artin in (
            (lambda: verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12), 0, 58, 33),
            (lambda: search_canonical_starts(SearchConfig(), 40, SEED), 40, 156, 6),
        ):
            for calls in (lengths, kinds, smooth, classified, resolved, cascades, resolved_in_classify, cores, labels):
                calls.clear()
            harness()
            steps = sum(lengths)
            assert len(lengths) == 40 and steps > 150 and len(smooth) == steps
            # `run` classifies nothing; q44 checks each start once
            assert len(classified) == len(resolved_in_classify) == starts
            # `_start` resolves each run's start once, whether or not the run
            # steps. After that a smooth surface, carried as None, is resolved
            # again only where an Artin step leaves it singular, as the new
            # shadow's resolution; a Castelnuovo step from it builds nothing.
            # A singular resolution is blown down from, one cascade for each
            # step whose curve is a (-1)-curve there.
            assert artin == sum(f and kind == ARTIN_TYPE for f, kind in zip(smooth, kinds))
            assert len(resolved) == len(lengths) + artin
            assert len(cascades) == blown
            assert all(m.contracted for m, _ in cascades)
            # and labels each step's surface once, off the carried K*; only
            # q44's start checks solve a log pullback to classify
            assert len(labels) == steps and len(cores) == starts

    def test_run_keeps_one_model_chain(self, monkeypatch):
        # `run` contracts on the audit's pair: no state after the start, and
        # only the declarations `audit_run` makes; `mmp` holds no blow-down
        # (test_guards pins that)
        assert not hasattr(mmp, "_apply_contraction")
        declared = counting(monkeypatch, mmp, "declare_contracted")
        states = []
        real_state_check, real_run = MmpState.__post_init__, mmp.run

        def counted_state_check(self):
            states.append(self)
            real_state_check(self)

        per_run = []

        def recorded(state, strategy, epsilon=F(0)):
            for calls in (declared, states):
                calls.clear()
            result = real_run(state, strategy, epsilon)
            work = (len(states), len(declared))
            declared.clear()
            assert audit_run(result, state, epsilon) == result.audit
            per_run.append((work, (0, len(declared)), len(result.steps)))
            return result

        monkeypatch.setattr(MmpState, "__post_init__", counted_state_check)
        monkeypatch.setattr(mmp, "run", recorded)
        for harness in (
            lambda: verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12),
            lambda: search_canonical_starts(SearchConfig(), 40, SEED),
        ):
            per_run.clear()
            harness()
            assert len(per_run) == 40 and sum(steps for *_, steps in per_run) > 150
            assert all(work == expected for work, expected, _ in per_run)

    def test_log_pullbacks_are_solved_once_a_run(self, monkeypatch):
        # `_start` solves K + B and K on the start surface and the audit
        # carries both from step to step; q44 classifies each start once more
        calls = [counting(monkeypatch, module, "pulled_back") for module in (singularities, mmp)]

        def steps_and_solves(harness):
            for made in calls:
                made.clear()
            steps = harness().total_steps
            return steps, sum(terms[0][0] == K_ROW for made in calls for _, terms in made)

        assert steps_and_solves(lambda: verify_smooth_start_runs(40, 1, F(1, 7), 12)) == (296, 80)
        assert steps_and_solves(lambda: search_canonical_starts(SearchConfig(), 40, 1)) == (169, 120)

    def test_one_self_intersection_per_step(self, monkeypatch):
        # C.C is read off the step's one C* solve, which the audit reuses
        calls = counting(monkeypatch, mmp, "pulled_back")
        report = verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12)
        assert report.outcome_counts == (("MinimalOverTracked", 40),)
        assert len(calls) == report.total_steps > 200
        calls.clear()
        report = search_canonical_starts(SearchConfig(), 40, SEED)
        assert len(calls) == report.total_steps > 150
        calls.clear()
        result = run(fiber_signal_state(), MostNegativeFirst())
        assert isinstance(result.outcome, MoriFiberSignal) and len(calls) == 1

    def test_the_loop_makes_no_fraction_and_no_record(self, monkeypatch):
        # `run`'s loop, `_drive`, carries integers: on the harnesses' runs it
        # makes no Fraction and no record, and a candidate it reads is no
        # Candidate. `run` makes the records at the edge, one MmpStep,
        # AuditStep and class a step, and reads three values a step off
        # `_fraction` (extremal value, C.C, boundary pairing), which makes a
        # Fraction only for a value it has not made before; `mmp` makes
        # `run`'s epsilon once a run. The grids are cached before counting.
        for cap in (F(6, 7), F(1)):
            _coefficient_grid(cap)
        names = ("Fraction", "Candidate", "MmpStep", "AuditStep", "_singularity_class")
        made = {name: counting(monkeypatch, mmp, name) for name in names}
        in_loop, real_drive, shared = [], mmp._drive, mmp._fraction

        def recorded(*args):
            before = {name: len(calls) for name, calls in made.items()}
            hits = shared.cache_info()[:2]
            out = real_drive(*args)
            moved = {name: len(calls) - before[name] for name, calls in made.items() if len(calls) > before[name]}
            in_loop.append((moved, shared.cache_info()[:2] == hits))
            return out

        monkeypatch.setattr(mmp, "_drive", recorded)
        for harness, steps, fixed, distinct in (
            # the harness's epsilon and grid cap
            (lambda: verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12), 281, 2, 92),
            # the grid cap and epsilon 0
            (lambda: search_canonical_starts(SearchConfig(), 40, SEED), 187, 2, 92),
        ):
            for calls in (in_loop, *made.values()):
                calls.clear()
            shared.cache_clear()
            assert harness().total_steps == steps
            assert in_loop == [({}, True)] * 40
            assert made["Candidate"] == []
            assert len(made["MmpStep"]) == len(made["AuditStep"]) == len(made["_singularity_class"]) == steps
            assert len(made["Fraction"]) == fixed + 40
            hits, misses, *_ = shared.cache_info()
            assert (hits + misses, misses) == (3 * steps, distinct)

    def test_the_audit_core_is_an_audit_step_field_for_field(self):
        # `_report` makes each core its AuditStep in order, so a field moved
        # in one and not the other fails here
        assert mmp._AuditCore._fields == tuple(f.name for f in fields(AuditStep))

    def test_the_audit_solves_only_what_it_is_not_handed(self, monkeypatch):
        # inside `run`, `audit_step` solves nothing: it is handed the C* solve
        # and carries both log pullbacks; replaying a stored run, it solves
        # C* once a step and still no log pullback. Only `run` ranks.
        solves = counting(monkeypatch, mmp, "pulled_back")
        logs = [counting(monkeypatch, module, "_log_numerators") for module in (mmp, singularities)]
        ranked = counting(monkeypatch, mmp, "_ranked")
        inside, real_step = [], mmp.audit_step

        def step(*args):
            before = len(solves), sum(map(len, logs))
            out = real_step(*args)
            inside.append((len(solves) - before[0], sum(map(len, logs)) - before[1]))
            return out

        monkeypatch.setattr(mmp, "audit_step", step)
        rng = random.Random(SEED + 9)
        grid = _coefficient_grid(F(6, 7))
        steps = 0
        for trial in range(30):
            model = mmp._random_tower(rng, 12) if trial % 3 else chain_start(rng.randint(1, 3))
            free = [n for n in model.tracked if n not in model.contracted]
            initial = MmpState(surface=model, boundary=QDivisor.from_map({n: rng.choice(grid) for n in free}))
            for calls in (inside, ranked):
                calls.clear()
            result = run(initial, MostNegativeFirst(), F(1, 7))
            assert inside == [(0, 0)] * len(result.steps) and len(ranked) == len(result.steps) + 1
            for calls in (inside, ranked):
                calls.clear()
            assert audit_run(result, initial, F(1, 7)) == result.audit
            assert inside == [(1, 0)] * len(result.steps) and ranked == []
            steps += len(result.steps)
        assert steps > 150

    def test_a_step_builds_at_most_two_models(self, monkeypatch):
        # the new shadow and its resolution: a (-1)-curve on the carried
        # resolution is blown down from it with no declared model between,
        # a shadow that is its own resolution is not declared twice, and a
        # step that leaves a smooth surface smooth builds the shadow alone
        built, per_step = [0], []
        real_init, real_step = SurfaceModel.__init__, mmp.audit_step

        def init(self, *args, **kwargs):
            built[0] += 1
            real_init(self, *args, **kwargs)

        def step(pair, *rest):
            before = built[0]
            out = real_step(pair, *rest)
            per_step.append((built[0] - before, pair[3] is None and out[0][3] is None))
            return out

        monkeypatch.setattr(SurfaceModel, "__init__", init)
        monkeypatch.setattr(mmp, "audit_step", step)
        for harness, steps, models, smooth in (
            (lambda: verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12), 281, 372, 187),
            (lambda: search_canonical_starts(SearchConfig(), 40, SEED), 187, 363, 6),
        ):
            per_step.clear()
            assert harness().total_steps == len(per_step) == steps
            assert (sum(n for n, _ in per_step), max(n for n, _ in per_step)) == (models, 2)
            assert [n for n, kept in per_step if kept] == [1] * smooth

    def test_a_step_pairs_only_its_point(self, monkeypatch):
        # `_moved` pairs each carried pullback with C and `_rechecked` with
        # every curve of C's block, the step's point; no other contracted
        # curve is paired, so the count does not grow with the tower
        paired = counting(monkeypatch, mmp, "_paired")
        per_step, real = [], mmp.audit_step

        def step(*args):
            before = len(paired)
            pair, audit = real(*args)
            per_step.append((len(paired) - before, len(pair[0].contracted_factor[-1][0])))
            return pair, audit

        monkeypatch.setattr(mmp, "audit_step", step)
        result = run(exact_tower(random.Random(SEED + 160), 160), MostNegativeFirst(), F(1, 7))
        assert result.audit.ok and len(per_step) == len(result.steps) >= 160
        assert all(calls <= 2 + 2 * size for calls, size in per_step)
        assert sum(calls for calls, _ in per_step) < 10 * len(per_step)

    def test_one_validation_per_tower(self, monkeypatch):
        calls = counting(monkeypatch, lattice, "_validated")
        rng = random.Random(SEED)
        for _ in range(20):
            calls.clear()
            mmp._random_tower(rng, 30)
            assert len(calls) == 1
        calls.clear()
        build_model(star_scenario(5, (2, 2, 2), 3))
        assert len(calls) == 1

    def test_audit_makes_no_classify_call(self, monkeypatch):
        rng = random.Random(SEED + 5)
        grid = _coefficient_grid(F(6, 7))
        steps = blown = artins = 0
        for _ in range(20):
            model = mmp._random_tower(rng, 12)
            boundary = QDivisor.from_map({n: c for n in model.tracked if (c := rng.choice(grid))})
            initial = MmpState(surface=model, boundary=boundary)
            result = run(initial, MostNegativeFirst(), F(1, 7))
            with monkeypatch.context() as patch:
                smooth = smooth_flags(patch)
                classified = counting(patch, mmp, "classify")
                resolved = counting(patch, mmp, "minimal_resolution")
                cascades = counting(patch, mmp, "blow_down_cascade")
                assert audit_run(result, initial, F(1, 7)) == result.audit
            # the start is resolved once, a singular resolution is blown down
            # from the one before it, and a smooth surface is resolved again
            # only as the new shadow of an Artin step; no surface is resolved
            # twice
            names = [s.contracted_curve for s in result.steps]
            artin = [
                frozenset(names[: i + 1]) for i, s in enumerate(result.steps) if smooth[i] and s.kind == ARTIN_TYPE
            ]
            assert classified == [] and [m.contracted for m, in resolved] == [frozenset()] + artin
            steps += len(result.steps)
            blown += len(cascades)
            artins += len(artin)
        assert (steps, blown, artins) == (168, 43, 22)

    def test_audit_resolves_the_carried_resolution(self, monkeypatch):
        # after step 0 the audit never resolves the whole shadow model again
        # while it carries a singular resolution: a step whose curve is a
        # (-1)-curve there blows it down from there in one cascade over its
        # contracted curves and C. A smooth surface is carried as None; a
        # step from it resolves its new shadow only where C is no (-1)-curve
        rng = random.Random(SEED + 7)
        grid = _coefficient_grid(F(6, 7))
        real_step, blown, smaller, artin = mmp.audit_step, 0, 0, 0
        for _ in range(20):
            model = mmp._random_tower(rng, 12)
            boundary = QDivisor.from_map({n: c for n in model.tracked if (c := rng.choice(grid))})
            initial = MmpState(surface=model, boundary=boundary)
            result = run(initial, MostNegativeFirst(), F(1, 7))
            handed = []

            def step(pair, name, *rest):
                out = real_step(pair, name, *rest)
                handed.append((pair[3], pair[0], name, out[0]))
                return out

            with monkeypatch.context() as patch:
                resolved = counting(patch, mmp, "minimal_resolution")
                cascades = counting(patch, mmp, "blow_down_cascade")
                patch.setattr(mmp, "audit_step", step)
                assert audit_run(result, initial, F(1, 7)) == result.audit
            # a smooth start is its own resolution; after it, only the new
            # shadow of a step from a smooth surface whose curve is no
            # (-1)-curve there, read off a fresh resolution, is resolved
            fresh = [(mr, minimal_resolution(shadow), name, new) for mr, shadow, name, new in handed]
            minus1 = [old.self_int(name) == old.k_dot(name) == -1 for _, old, name, _ in fresh]
            assert [m for m, in resolved] == [model] + [
                new[0] for (mr, _, _, new), c in zip(fresh, minus1) if mr is None and not c
            ]
            expected = [(mr, name) for (mr, _, name, _), c in zip(fresh, minus1) if mr is not None and c]
            assert len(cascades) == len(expected)
            assert all(
                m is mr and names == sorted(mr.contracted | {name}) for (m, names), (mr, name) in zip(cascades, expected)
            )
            blown += len(cascades)
            artin += len(resolved) - 1
            smaller += sum(new[3] is None or new[3].rank < model.rank for *_, new in handed)
        assert (blown, artin, smaller) == (37, 17, 146)

    def test_classification_error_keeps_the_resolution(self, monkeypatch):
        # epsilon 2 makes every check (c) raise, a smooth surface's too; the
        # resolution it was given is kept, so the audit still resolves only
        # the start and the new shadow of each Artin step from a smooth
        # surface, and blows down from each carried resolution, as at epsilon
        # 0. With no boundary these towers only blow (-1)-curves down and stay
        # smooth, carrying no resolution; a boundary makes Artin steps
        rng = random.Random(SEED + 8)
        grid = _coefficient_grid(F(1))
        runs = blown = artin = 0
        for _ in range(20):
            model = mmp._random_tower(rng, 10)
            boundary = QDivisor.from_map({n: rng.choice(grid) for n in model.tracked})
            initial = MmpState(surface=model, boundary=boundary)
            result = run(initial, MostNegativeFirst())
            if len(result.steps) < 2:
                continue
            work = []
            for epsilon in (2, 0):
                with monkeypatch.context() as patch:
                    smooth = smooth_flags(patch)
                    resolved = counting(patch, mmp, "minimal_resolution")
                    cascades = counting(patch, mmp, "blow_down_cascade")
                    report = audit_run(result, initial, epsilon)
                work.append((resolved, len(cascades), smooth))
                if epsilon:
                    assert {s.classification for s in report.steps} == {"error: epsilon 2 outside [0, 1]"}
            assert work[0] == work[1]
            resolved, cascades, smooth = work[0]
            assert len(resolved) == 1 + sum(f and s.kind == ARTIN_TYPE for f, s in zip(smooth, result.steps))
            runs += 1
            blown += cascades
            artin += len(resolved) - 1
        assert (runs, blown, artin) == (16, 26, 14)


def fresh_scan(matrix):
    """Each row's nonzero entries as (columns, values), scanned afresh."""
    return tuple((tuple(j for j, x in enumerate(row) if x), tuple(x for x in row if x)) for row in matrix)


def exact_tower(rng, blowups):
    """A tower of exactly `blowups` blow-ups and a sixths-grid boundary
    capped at 6/7 on every curve, as `verify_smooth_start_runs` draws one."""
    model = mmp._random_blowups(rng, new_projective_plane(), [f"C{i + 1}" for i in range(blowups)])
    grid = _coefficient_grid(F(6, 7))
    return MmpState(surface=model, boundary=QDivisor.from_map({n: rng.choice(grid) for n in model.tracked}))


class TestCarriedPullbacks:
    """The audit carries (K + B)* and K* across each step by a rank-one
    update through the step's one C* solve, reduced by a gcd and re-checked
    against the new shadow's matrix."""

    @staticmethod
    def compared(monkeypatch):
        """Make every pair `audit_step` returns compare its carried
        pullbacks with fresh `_log_numerators` solves of its shadow, as
        Fractions; returns the (carried d, solved d) pairs it saw."""
        seen, real = [], mmp.audit_step

        def step(*args):
            pair, audit = real(*args)
            if pair is not None:
                shadow, (fixed, db), (log, canonical), _ = pair
                boundary = QDivisor.from_map({n: F(b, db) for n, b in fixed.items()})
                contracted = [shadow.row(e) for e in shadow.contracted]
                for (coef, row), b in ((log, boundary), (canonical, QDivisor.zero())):
                    solved_coef, solved_row = singularities._log_numerators(shadow, b)
                    d = solved_coef[K_ROW]
                    # one entry per row of the shadow, K's and the contracted curves' included
                    assert len(coef) == len(row) == len(solved_row) == len(shadow.names) + 1
                    assert [F(x, coef[K_ROW]) for x in coef] == [F(x, d) for x in solved_coef]
                    assert [F(x, coef[K_ROW]) for x in row] == [F(x, d) for x in solved_row]
                    # zero off K, B and the contracted set, and zero in the row on the contracted set
                    support = {shadow.names[i - 1] for i, x in enumerate(coef) if i and x}
                    assert support <= set(fixed) | shadow.contracted
                    assert [row[r] for r in contracted] == [0] * len(contracted)
                    seen.append((coef[K_ROW], d))
            return pair, audit

        monkeypatch.setattr(mmp, "audit_step", step)
        return seen

    def test_seeded_streams_match_fresh_solves(self, monkeypatch):
        seen = self.compared(monkeypatch)
        steps = verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12).total_steps
        steps += search_canonical_starts(SearchConfig(), 40, SEED).total_steps
        assert len(seen) == 2 * steps > 600
        # the gcd keeps each carried denominator a divisor of the solve's
        assert all(solved % carried == 0 for carried, solved in seen)
        assert any(carried < solved for carried, solved in seen)

    @pytest.mark.parametrize("blowups", [40, 80, 160])
    def test_long_towers_match_fresh_solves(self, monkeypatch, blowups):
        seen = self.compared(monkeypatch)
        result = run(exact_tower(random.Random(SEED + blowups), blowups), MostNegativeFirst(), F(1, 7))
        assert result.audit.ok and len(seen) == 2 * len(result.steps) >= blowups
        assert all(solved % carried == 0 for carried, solved in seen)

    @staticmethod
    def perturbed_run(monkeypatch, change):
        """The error of a seeded run in which `change(kind, coef, row, old,
        at)` edits carried pullbacks until it first returns True; kind is 0
        for (K + B)*, which `audit_step` moves first, and 1 for K*, and `at`
        is the row of the curve the step contracts."""
        real, calls, done = mmp._moved, [], []

        def moved(old, pullback, cstar, at):
            coef, row = real(old, pullback, cstar, at)
            if not done and change(len(calls) % 2, coef, row, old, at):
                done.append(len(calls))
            calls.append(at)
            return coef, row

        monkeypatch.setattr(mmp, "_moved", moved)
        state = exact_tower(random.Random(SEED), 12)
        with pytest.raises(ModelError) as exc:
            run(state, MostNegativeFirst(), F(1, 7))
        return str(exc.value)

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_perturbed_contracted_coefficient_is_caught(self, monkeypatch, which):
        def change(kind, coef, row, old, at):
            if kind == which:
                coef[at] += 1  # the curve this step contracts
                return True

        message = self.perturbed_run(monkeypatch, change)
        assert re.fullmatch(r"carried log pullback is not orthogonal to '\w+'; model inconsistent", message)

    def test_a_perturbed_boundary_coefficient_is_caught(self, monkeypatch):
        def change(kind, coef, row, old, at):
            # a boundary curve that meets nothing contracted, which
            # orthogonality alone would not see
            contracted = {old.row(e) for e in old.contracted} | {at}
            free = [
                r
                for r, x in enumerate(coef)
                if x and r not in contracted | {K_ROW} and not any(old.matrix[r][c] for c in contracted)
            ]
            if kind == 0 and free:
                coef[free[0]] += 1
                return True

        assert "carried log pullback drops boundary coefficient" in self.perturbed_run(monkeypatch, change)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("where", ["another block", "a free curve"])
    def test_a_coefficient_moved_off_the_point_is_caught(self, monkeypatch, which, where):
        # the re-check pairs only the step's point, C and the blocks C
        # meets, with the matrix; a coefficient moved on a contracted curve
        # of another block, or on a curve that meets no curve of the point,
        # is caught at its step by the ratio check over the whole list
        entered, real = [], mmp.audit_step

        def step(*args):
            entered.append(args[1])
            return real(*args)

        def change(kind, coef, row, old, at):
            m = old.matrix
            point = {at}.union(*(old.block_of[r][0] for r in old.block_of if m[at][r]))
            if where == "another block":
                off = [r for r in old.block_of if r not in point]
            else:
                off = [
                    r
                    for r in range(1, len(m))
                    if r not in point and r not in old.block_of and not coef[r] and not any(m[r][p] for p in point)
                ]
            if kind == which and off:
                coef[off[0]] += 1
                perturbed.append(len(entered))
                return True

        perturbed = []
        monkeypatch.setattr(mmp, "audit_step", step)
        message = self.perturbed_run(monkeypatch, change)
        assert message == "carried log pullback moves off the step's point; model inconsistent"
        assert perturbed == [len(entered)]

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_perturbed_denominator_is_caught(self, monkeypatch, which):
        def change(kind, coef, row, old, at):
            if kind == which:
                coef[K_ROW] += 1
                return True

        assert "carried log pullback" in self.perturbed_run(monkeypatch, change)

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_perturbed_row_is_caught_where_it_is_read(self, monkeypatch, which):
        # every entry moves down by one, so the ranking still reads a
        # candidate, and the next step re-derives its entry from the matrix
        def change(kind, coef, row, old, at):
            if kind == which:
                row[:] = [x - 1 for x in row]
                return True

        message = self.perturbed_run(monkeypatch, change)
        pattern = r"carried log pullback pairs -?\d+/\d+ with '\w+', the matrix -?\d+/\d+; model inconsistent"
        assert re.fullmatch(pattern, message)

    def test_a_negative_contracted_row_entry_is_never_ranked(self, monkeypatch):
        # nothing re-checks the carried row on contracted rows, so `_ranked`
        # drops contracted curves by name: a most negative entry there is
        # never offered, and the run is the unperturbed one
        state = exact_tower(random.Random(SEED), 12)
        expected = run(state, MostNegativeFirst(), F(1, 7))
        real_moved, real_ranked, calls, offered = mmp._moved, mmp._ranked, [], []

        def moved(old, pullback, cstar, at):
            coef, row = real_moved(old, pullback, cstar, at)
            if len(calls) % 2 == 0:  # (K + B)*, which `audit_step` moves first
                for r in {old.row(e) for e in old.contracted} | {at}:
                    row[r] = -(10**9)
            calls.append(at)
            return coef, row

        def ranked(model, row):
            keys = real_ranked(model, row)
            offered.append(sorted(model.contracted.intersection(name for _, name in keys)))
            return keys

        monkeypatch.setattr(mmp, "_moved", moved)
        monkeypatch.setattr(mmp, "_ranked", ranked)
        assert run(state, MostNegativeFirst(), F(1, 7)) == expected
        assert len(calls) == 2 * len(expected.steps) > 4
        assert offered == [[]] * (len(expected.steps) + 1)

    def test_nonzeros_match_a_fresh_scan(self, monkeypatch):
        # a stale pattern would blind the re-check: every model it reads
        # must hold its own matrix's pattern
        rng = random.Random(SEED + 11)
        for _ in range(30):
            model = mmp._random_tower(rng, 12)
            assert model.nonzeros == fresh_scan(model.matrix)
            declared = declare_contracted(model, [n for n in model.tracked if model.self_int(n) < -1][:1])
            assert declared.nonzeros is model.nonzeros
            blown = blow_up(model, PointSpec.general(), "X")
            assert blown.nonzeros == fresh_scan(blown.matrix)
        for n0, branches, extra in STAR_STARTS:
            model = build_model(star_scenario(n0, branches, extra))
            assert model.nonzeros == fresh_scan(model.matrix)
        checked, real = [], mmp.audit_step

        def step(*args):
            pair, audit = real(*args)
            if pair is not None:
                for model in (pair[0], pair[3]):
                    if model is not None:
                        assert model.nonzeros == fresh_scan(model.matrix)
                        checked.append(model)
            return pair, audit

        monkeypatch.setattr(mmp, "audit_step", step)
        verify_smooth_start_runs(20, SEED, F(1, 7), max_blowups=12)
        search_canonical_starts(SearchConfig(), 20, SEED)
        assert len(checked) > 300

    def test_block_map_matches_a_fresh_scan(self, monkeypatch):
        # a stale row->block map would make a solve skip a block, or a
        # declaration border the wrong one: every model a step makes must
        # map each contracted row to the block of its own factor that holds it
        kinds = Counter()

        def check(model, kind):
            rows = [model.row(n) for n in model.contracted]
            fresh = {r: next(b for b in model.contracted_factor if r in b[0]) for r in rows}
            assert model.block_of.keys() == fresh.keys() and all(model.block_of[r] is b for r, b in fresh.items())
            kinds[kind] += 1

        rng = random.Random(SEED + 12)
        for _ in range(30):
            model = mmp._random_tower(rng, 12)
            check(model, "tower")
            names = list(model.names)
            rng.shuffle(names)
            for name in names:  # one by one, in a random order: new blocks, borders and merges
                before = len(model.contracted_factor)
                model = declare_contracted(model, [name])
                check(model, "merge" if len(model.contracted_factor) < before else "declared")
            check(minimal_resolution(model), "cascade")
        for n0, branches, extra in STAR_STARTS:
            check(build_model(star_scenario(n0, branches, extra)), "star")
        real = mmp.audit_step

        def step(*args):
            pair, audit = real(*args)
            if pair is not None:
                check(pair[0], "shadow")
                if pair[3] is None:  # a smooth surface carries no resolution model
                    kinds["smooth"] += 1
                else:
                    check(pair[3], "resolution")
            return pair, audit

        monkeypatch.setattr(mmp, "audit_step", step)
        verify_smooth_start_runs(20, SEED, F(1, 7), max_blowups=12)
        search_canonical_starts(SearchConfig(), 20, SEED)
        for blowups in (40, 80, 160):
            run(exact_tower(random.Random(SEED + blowups), blowups), MostNegativeFirst(), F(1, 7))
        assert kinds == {
            "tower": 30, "declared": 214, "merge": 11, "cascade": 30, "star": 4,
            "shadow": 502, "resolution": 328, "smooth": 174,
        }


class TestCarriedResolution:
    """The audit carries its minimal resolution while it contracts
    something, and None for a smooth surface: a curve that is a (-1)-curve
    there is blown down from it in one cascade, any other is declared
    contracted on it, and either way the result is the resolution of the
    declared model, or None where that contracts nothing."""

    @staticmethod
    def compared(monkeypatch):
        """Make every step `audit_step` takes check its new resolution
        against `minimal_resolution(declare_contracted(old, [name]))`, old
        the resolution it was handed (resolved afresh where it was handed
        None), and its new shadow's row index against the old shadow's;
        returns, per step, whether the curve was a (-1)-curve on old."""
        seen, real = [], mmp.audit_step

        def step(pair, name, *rest):
            out = real(pair, name, *rest)
            shadow, old = pair[0], pair[3] or minimal_resolution(pair[0])
            new_shadow, _, _, new = out[0]
            expected = minimal_resolution(declare_contracted(old, [name]))
            # None where the new surface is smooth; else == compares rank,
            # names, matrix and the contracted set
            if expected.contracted:
                assert new == expected and new.contracted_factor == expected.contracted_factor
            else:
                assert new is None
            assert new_shadow._rows is shadow._rows
            seen.append(old.self_int(name) == old.k_dot(name) == -1)
            return out

        monkeypatch.setattr(mmp, "audit_step", step)
        return seen

    def test_seeded_streams_match_a_declared_resolution(self, monkeypatch):
        seen = self.compared(monkeypatch)
        steps = verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12).total_steps
        steps += search_canonical_starts(SearchConfig(), 40, SEED).total_steps
        assert (len(seen), sum(seen)) == (steps, 407) and steps == 468

    @pytest.mark.parametrize("blowups", [40, 80, 160])
    def test_long_towers_match_a_declared_resolution(self, monkeypatch, blowups):
        seen = self.compared(monkeypatch)
        result = run(exact_tower(random.Random(SEED + blowups), blowups), MostNegativeFirst(), F(1, 7))
        assert result.audit.ok and len(seen) == len(result.steps) >= blowups
        assert 0 < sum(seen) < len(seen)


class TestSmoothResolution:
    """A smooth surface carries no resolution model: the pair holds None,
    and a step reads the numbers of the resolution, the surface itself, off
    the shadow's own solves: C.C = C*.C, K.C = K*.C and D.C = D.C*. Checked
    at every step against a fresh resolution of the shadow."""

    @staticmethod
    def compared(monkeypatch):
        """Make every step check, before it runs, that the pair it is handed
        holds None exactly where a fresh `minimal_resolution` of its shadow
        contracts nothing, and there that the integer (-1) test agrees with
        that resolution's `self_int` and `k_dot`, and C.C, K.C and every
        D.C, as Fractions, with its matrix. Returns, per step, whether the
        surface was smooth and whether C was a (-1)-curve on it."""
        seen, real = [], mmp.audit_step

        def step(pair, name, *rest):
            shadow, _, (_, (kcoef, krow)), mr = pair
            fresh = minimal_resolution(shadow)
            assert (mr is None) == (not fresh.contracted)
            minus1 = fresh.self_int(name) == fresh.k_dot(name) == -1
            if mr is None:
                at = shadow.row(name)
                _, v, dc = pulled_back(shadow, [(at, 1)])
                assert (v[at] == -dc and krow[at] == -kcoef[K_ROW]) == minus1
                assert (F(v[at], dc), F(krow[at], kcoef[K_ROW])) == (fresh.self_int(name), fresh.k_dot(name))
                # D.C for every curve D of the resolution, C's own included
                assert [F(v[shadow.row(n)], dc) for n in fresh.names] == [
                    fresh.intersection(n, name) for n in fresh.names
                ]
            seen.append((mr is None, minus1))
            return real(pair, name, *rest)

        monkeypatch.setattr(mmp, "audit_step", step)
        return seen

    def test_seeded_streams(self, monkeypatch):
        seen = self.compared(monkeypatch)
        steps = verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12).total_steps
        steps += search_canonical_starts(SearchConfig(), 40, SEED).total_steps
        # (smooth, C a (-1)-curve): steps from a smooth surface, of both kinds
        assert len(seen) == steps
        assert Counter(seen) == {(True, True): 193, (True, False): 39, (False, True): 214, (False, False): 22}

    def test_star_and_q44_starts(self, monkeypatch):
        seen = self.compared(monkeypatch)
        rng, grid = random.Random(SEED + 24), _coefficient_grid(F(6, 7))
        starts = [build_model(star_scenario(n0, branches, extra)) for n0, branches, extra in STAR_STARTS]
        starts += [chain_start(chain) for chain in (1, 2, 3) for _ in range(10)]
        steps = 0
        for model in starts:
            free = [n for n in model.tracked if n not in model.contracted]
            initial = MmpState(surface=model, boundary=QDivisor.from_map({n: rng.choice(grid) for n in free}))
            result = run(initial, MostNegativeFirst(), F(1, 7))
            assert audit_run(result, initial, F(1, 7)) == result.audit
            steps += 2 * len(result.steps)
        assert len(seen) == steps
        assert Counter(seen) == {(True, True): 16, (False, True): 210, (False, False): 18}

    @pytest.mark.parametrize(
        "blowups, smooth",
        [(40, (11, 3)), (80, (3, 1)), (160, (38, 3)), (320, (39, 1))],
    )
    def test_long_towers(self, monkeypatch, blowups, smooth):
        seen = self.compared(monkeypatch)
        result = run(exact_tower(random.Random(SEED + blowups), blowups), MostNegativeFirst(), F(1, 7))
        assert result.audit.ok and len(seen) == len(result.steps) >= blowups
        # the steps from a smooth surface whose curve is, and is not, a (-1)-curve
        assert (Counter(seen)[True, True], Counter(seen)[True, False]) == smooth

    def test_a_later_castelnuovo_step_that_breaks_a_curve_ends_the_replay(self):
        # G, blown down first, leaves the surface smooth; then E, blown down
        # from the node of the nodal cubics Q and N, leaves both nodal. The
        # audit names the first broken curve in row order, as a cascade does
        model = _validated(
            coordinate_model(3, (-3, 1, 1), {"Q": (3, -2, 0), "G": (0, 0, 1), "N": (3, -2, 0), "E": (0, 1, 0)})
        )
        state = MmpState(surface=model, boundary=QDivisor.zero())
        message = "classification: step 1 ('E'): replay failed: curve 'Q' is not a smooth rational class (genus != 0)"
        with pytest.raises(ModelError) as exc:
            run(state, parse_strategy("named:G,E"))
        assert str(exc.value) == message
        fake = tuple(MmpStep(n, F(-1), F(-1), CASTELNUOVO, None) for n in ("G", "E"))
        report = audit_run(MmpRun(fake, MinimalOverTracked(), None), state, 0)
        assert [s.curve for s in report.steps] == ["G"] and report.violations == (message,)
        pair, _ = mmp.audit_step(mmp._start(state), "G", 0, F(0), True, [])
        assert pair[3] is None and minimal_resolution(pair[0]).names == ("Q", "N", "E")


class TestBlockedSteps:
    """A step declares its curve C on the shadow with C*'s solve in hand, so
    the bordered block is read off that solve: it equals the block that
    `extend_factor` borders, no elimination is replayed, and every block is
    the whole-block factor of its rows."""

    @staticmethod
    def compared(monkeypatch):
        """Check each declaration `mmp` makes with a solve against the same
        declaration without one, and the new curve's block against
        `negative_definite_factor`; returns the declared models and, for
        each, how many blocks the curve met."""
        seen, real = [], mmp.declare_contracted
        extended = counting(monkeypatch, lattice, "extend_factor")

        def declared(model, names, cstar=None):
            before = len(extended)
            out = real(model, names, cstar)
            if cstar is not None:
                assert len(extended) == before
                assert out.contracted_factor == real(model, names).contracted_factor
                rows, factor = out.contracted_factor[-1]
                m = model.matrix
                assert rows[-1] == model.row(names[0])
                assert factor == negative_definite_factor([[m[i][j] for j in rows] for i in rows])
                seen.append((out, len(model.contracted_factor) + 1 - len(out.contracted_factor)))
            return out

        monkeypatch.setattr(mmp, "declare_contracted", declared)
        return seen

    def test_seeded_streams(self, monkeypatch):
        seen = self.compared(monkeypatch)
        steps = verify_smooth_start_runs(40, SEED, F(1, 7), max_blowups=12).total_steps
        steps += search_canonical_starts(SearchConfig(), 40, SEED).total_steps
        for shadow, _ in seen:
            assert_blocks(shadow)
            assert_solves(shadow)
        # steps, and declarations whose curve met 0, 1 and 2 or more blocks
        met = Counter(min(n, 2) for _, n in seen)
        assert (len(seen), met[0], met[1], met[2]) == (steps, 293, 131, 44) and steps == 468

    @pytest.mark.parametrize("blowups", [40, 80, 160, 320])
    def test_long_towers(self, monkeypatch, blowups):
        seen = self.compared(monkeypatch)
        result = run(exact_tower(random.Random(SEED + blowups), blowups), MostNegativeFirst(), F(1, 7))
        assert len(seen) == len(result.steps) > 0 and result.audit.ok
        assert_blocks(seen[-1][0])

    def test_star_starts(self, monkeypatch):
        seen = self.compared(monkeypatch)
        steps = 0
        for center, arms in ((3, (2, 3, 3)), (4, (2, 2, 3)), (5, (2, 3, 5)), (6, (2, 3, 4))):
            state = build_state(star_scenario(center, arms, 2, boundary="1/2", epsilon="1/7"))
            steps += len(run(state, MostNegativeFirst(), F(1, 7)).steps)
        assert len(seen) == steps > 0
        for shadow, _ in seen:
            assert_blocks(shadow)
            assert_solves(shadow)


class TestAuditViolations:
    def fake_run(self, names):
        steps = tuple(
            MmpStep(
                contracted_curve=n,
                extremal_value=F(-1),
                self_int=F(-1),
                kind=ARTIN_TYPE,
                post_classification=None,
            )
            for n in names
        )
        return MmpRun(steps=steps, outcome=Exhausted(), audit=None)

    @pytest.mark.parametrize(
        "epsilon, coefficient, bounded",
        [
            (F(0), F(1), True),
            (F(1, 7), F(6, 7), True),
            (F(1, 6), F(5, 6), True),
            (F(1, 6), F(1), False),
            (F(1, 4), F(3, 4), True),
            (F(1, 4), F(11, 12), False),
            (F(1, 2), F(1, 2), True),
            (F(1, 2), F(2, 3), False),
            (F(1), F(1, 6), False),
            (F(2), F(1, 6), False),  # out of range: the cap is -1
            (F(-1, 2), F(1), True),  # the cap is 3/2
        ],
    )
    def test_coefficients_bounded_at_the_cap(self, epsilon, coefficient, bounded):
        # check (c)'s gate compares `_start`'s boundary numerators in
        # integers: a coefficient exactly at 1 - epsilon is bounded, one a
        # sixth above it is not, as the Fractions compare
        model = new_projective_plane()
        for name in ("A", "B", "C"):
            model = blow_up(model, PointSpec.general(), name)
        for coefficients in ({"A": coefficient}, {"A": coefficient, "B": F(1, 2), "C": F(2, 5)}):
            assert all(c <= 1 - epsilon for c in coefficients.values()) is bounded
            initial = MmpState(surface=model, boundary=QDivisor.from_map(coefficients))
            reports = [audit_run(self.fake_run([]), initial, epsilon)]
            if 0 <= epsilon <= 1:
                reports.append(run(initial, MostNegativeFirst(), epsilon).audit)
            assert [r.coefficients_bounded for r in reports] == [bounded] * len(reports)

    def test_bound_and_repeat_violations(self):
        model = new_projective_plane()
        for name in ("A", "B", "C"):
            model = blow_up(model, PointSpec.general(), name)
        initial = MmpState(surface=model, boundary=QDivisor.zero())
        report = audit_run(self.fake_run(["A", "B", "C", "A"]), initial, 0)
        assert not report.ok
        assert any(v.startswith("bound:") for v in report.violations)
        assert any(v.startswith("rho:") for v in report.violations)

    def test_classification_violation_on_forced_bad_step(self):
        initial = MmpState(surface=quad_tower_uncontracted(), boundary=QDivisor.zero())
        report = audit_run(self.fake_run(["E1", "E2", "E3", "E0", "D"]), initial, 0)
        assert not report.ok
        bad = [v for v in report.violations if v.startswith("classification:")]
        assert len(bad) == 1
        assert "step 4" in bad[0] and "'D'" in bad[0]
        assert report.steps[4].classification == NOT_LOG_CANONICAL
        assert report.steps[3].classification == EPS_LOG_TERMINAL

    def test_replay_failure_is_reported_not_raised(self):
        report = audit_run(self.fake_run(["H"]), fiber_signal_state(), 0)
        assert not report.ok
        assert any(v.startswith("effectivity:") and "replay failed" in v for v in report.violations)
        assert any(v.startswith("step3:") for v in report.violations)

    def test_out_of_range_epsilon_label(self):
        # check (c) reports the label core's epsilon error as classify raised it
        model = new_projective_plane()
        for name, point in (("A", PointSpec.general()), ("B", PointSpec.on_curve("A"))):
            model = blow_up(model, point, name)
        report = audit_run(self.fake_run(["B", "A"]), MmpState(surface=model, boundary=QDivisor.zero()), 2)
        assert [s.classification for s in report.steps] == ["error: epsilon 2 outside [0, 1]"] * 2
        assert report.violations == tuple(
            f"classification: step {i} ({n!r}): surface classifies error: epsilon 2 outside [0, 1], "
            "expected eps-log-terminal"
            for i, n in enumerate("BA")
        )

    def test_honest_runs_have_effectivity(self):
        result = run(a1_state(), MostNegativeFirst())
        assert all(s.effectivity_ok for s in result.audit.steps)

    def test_rising_coefficient_violation_text(self):
        # A is a (-3)-curve with K.A = 1 and X a (-2)-curve on it; contracting
        # them, against the MMP's sign, raises their log coefficients. Y keeps
        # its boundary coefficient 1/2 over a new denominator at each step.
        model = new_projective_plane()
        for name, point in (("A", PointSpec.general()), ("X", PointSpec.on_curve("A"))):
            model = blow_up(model, point, name)
        for name, point in (("Y", PointSpec.on_curve("X")), ("Z", PointSpec.on_curve("A"))):
            model = blow_up(model, point, name)
        assert (model.self_int("A"), model.k_dot("A"), model.self_int("X")) == (-3, 1, -2)
        initial = MmpState(surface=model, boundary=QDivisor.from_map({"Y": F(1, 2)}))
        report = audit_run(self.fake_run(["A", "X"]), initial, 0)
        assert report.violations == (
            "step3: step 0 ('A'): pullback support has no (-1)-curve but boundary pairing 0 >= 0",
            "effectivity: step 0 ('A'): coefficient of 'A' rises from 0 to 1/3",
            "step3: step 1 ('X'): pullback support has no (-1)-curve but boundary pairing 1/2 >= 0",
            "effectivity: step 1 ('X'): coefficient of 'A' rises from 1/3 to 1/2",
            "effectivity: step 1 ('X'): coefficient of 'X' rises from 0 to 1/2",
        )
        assert [s.effectivity_ok for s in report.steps] == [False, False]
        assert [s.step3_value for s in report.steps] == [0, F(1, 2)]


def fresh_audit_steps(steps, initial, epsilon):
    """Every AuditStep of an honest run, replayed on the initial lattice with
    declare_contracted, resolving and classifying each shadow model and
    solving the curve's pullback afresh at every step. Check (a) compares
    the oracle's `log_coefficients`, solved in Fractions. The boundary
    pairing comes from two extremal pairings, (K + B).C* - K.C*, each with
    its own solve. Returns the steps and how many resolutions differed from
    their shadow model."""
    shadow, boundary = initial.surface, initial.boundary
    prev = log_coefficients(shadow, boundary)
    rho, out, resolved = initial.rho, [], 0
    for step in steps:
        name = step.contracted_curve
        mr = minimal_resolution(shadow)
        resolved += mr.rank < shadow.rank
        pb = pullback(mr, QDivisor.from_map({name: 1}))
        support = [name] + [e for e, c in pb.coefficients if c > 0]
        applicable = not any(mr.self_int(x) == -1 and mr.k_dot(x) == -1 for x in support)
        value = extremal_pairing(mr, boundary, name) - extremal_pairing(mr, QDivisor.zero(), name)
        shadow = declare_contracted(shadow, [name])
        boundary = boundary.without(name)
        new = log_coefficients(shadow, boundary)
        rises = [n for n in set(prev) | set(new) if new.get(n, F(0)) > prev.get(n, F(0))]
        prev = new
        rho_after = shadow.rank - len(shadow.contracted)
        post = classify(shadow, QDivisor.zero(), epsilon)
        out.append(
            AuditStep(
                curve=name,
                rho_before=rho,
                rho_after=rho_after,
                effectivity_ok=not rises,
                classification=post.classification,
                step3_applicable=applicable,
                step3_value=value,
                step3_ok=(not applicable) or value < 0,
                post_classification=post,
            )
        )
        rho = rho_after
    return out, resolved


class TestAuditReplay:
    def test_carried_resolution_matches_a_fresh_replay(self):
        rng = random.Random(SEED + 3)
        grid = [F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
        checked = resolved = 0
        for trial in range(30):
            model = new_projective_plane()
            for i in range(rng.randint(1, 14)):
                tracked = model.tracked
                if not tracked or rng.random() < 0.5:
                    point = PointSpec.general()
                else:
                    point = PointSpec.on_curve(rng.choice(tracked))
                model = blow_up(model, point, f"C{i + 1}")
            boundary = QDivisor.from_map(
                {n: c for n in model.tracked if (c := rng.choice(grid)) != 0}
            )
            initial = MmpState(surface=model, boundary=boundary)
            epsilon = (F(0), F(1, 7), F(1, 6))[trial % 3]
            result = run(initial, MostNegativeFirst(), epsilon=epsilon)
            expected, count = fresh_audit_steps(result.steps, initial, epsilon)
            assert list(result.audit.steps) == expected
            assert result.audit.ok
            checked += len(expected)
            resolved += count
        # the replay must reach steps whose shadow model needs resolving
        assert checked > 200 and resolved > 150

    @pytest.mark.parametrize("seed, base", enumerate(["chain_start", 3, 4, 5]))
    def test_singular_starts_carry_the_shadow_resolution(self, seed, base):
        # a (-2)-chain start, a contracted subset of a tower, a star: at
        # every step the audit's carried resolution is the one of its
        # shadow model, and the audit matches a fresh replay
        rng = random.Random(SEED + seed)
        steps = carried = 0
        for trial in range(30):
            ops = [(rng.choice(("general", "on", "at")), rng.randrange(10**6)) for _ in range(rng.randint(1, 10))]
            model = chain_start(rng.randint(1, 3)) if base == "chain_start" else start_model(ops, base, rng.randint)
            free = [n for n in model.tracked if n not in model.contracted]
            boundary = QDivisor.from_map({n: F(k, 6) for n in free if (k := rng.randint(0, 6))})
            initial = MmpState(surface=model, boundary=boundary)
            epsilon = (F(0), F(1, 7), F(1, 4))[trial % 3]
            result = run(initial, MostNegativeFirst(), epsilon)
            pair, violations, cores = mmp._start(initial), [], []
            gate = mmp._gate(pair, epsilon)
            for i, step in enumerate(result.steps):
                pair, core = mmp.audit_step(pair, step.contracted_curve, i, epsilon, all(gate), violations)
                shadow, _, _, mr = pair
                cores.append(core)
                fresh = minimal_resolution(shadow)
                assert (mr == fresh) if fresh.contracted else (mr is None)
                carried += fresh.rank < shadow.rank
            # the cores, made records at the edge, are the run's audit, steps and violations
            assert mmp._report(initial, gate, epsilon, cores, violations) == result.audit
            assert list(result.audit.steps) == fresh_audit_steps(result.steps, initial, epsilon)[0]
            steps += len(result.steps)
        # the replay must reach shadow models that need resolving
        assert steps > 60 and carried > steps * 3 // 4


class TestHarnesses:
    def test_coefficient_grid(self):
        sixths = tuple(F(k, 6) for k in range(7))
        expected = {
            F(0): sixths,
            F(1, 7): sixths[:6] + (F(6, 7),),
            F(1, 4): sixths[:5] + (F(3, 4),),
            F(1): (F(0),),
        }
        for epsilon, grid in expected.items():
            got = _coefficient_grid(1 - epsilon)
            assert type(got) is tuple and got == grid
            assert _coefficient_grid(1 - epsilon) is got  # computed once per cap

    def test_verification_is_deterministic(self):
        a = verify_smooth_start_runs(15, SEED, F(1, 4))
        b = verify_smooth_start_runs(15, SEED, F(1, 4))
        assert a == b
        assert a.ok
        assert a.trials == 15
        assert sum(n for _, n in a.outcome_counts) == 15
        assert {k for k, _ in a.outcome_counts} <= {
            "MinimalOverTracked",
            "MoriFiberSignal",
            "Exhausted",
        }

    def test_verification_records_inputs(self):
        report = verify_smooth_start_runs(5, SEED + 1, F(1, 7), max_blowups=6)
        assert report.seed == SEED + 1
        assert report.epsilon == F(1, 7)
        assert report.max_blowups == 6
        assert report.total_steps >= 1

    def test_verification_input_validation(self):
        with pytest.raises(ValueError):
            verify_smooth_start_runs(0, SEED, 0)
        with pytest.raises(ValueError):
            verify_smooth_start_runs(5, SEED, F(7, 6))

    def test_search_counts_and_determinism(self):
        report = search_canonical_starts(SearchConfig(), 12, SEED)
        assert report == search_canonical_starts(SearchConfig(), 12, SEED)
        assert report.trials == 12
        assert report.canonical_starts == 12
        assert report.runs_with_not_lc_intermediate <= 12
        assert len(report.samples) <= 5
        for sample in report.samples:
            assert "not-log-canonical" in sample

    def test_search_rejects_a_non_canonical_start(self, monkeypatch):
        def not_canonical(model, boundary, epsilon):
            return SingularityClass(F(-1, 2), NOT_LOG_CANONICAL, F(-1, 2), NOT_LOG_CANONICAL, F(0))

        monkeypatch.setattr(mmp, "classify", not_canonical)
        with pytest.raises(ModelError, match="trial 0: start surface classifies not-log-canonical"):
            search_canonical_starts(SearchConfig(), 1, SEED)

    def test_search_smooth_starts_only(self):
        report = search_canonical_starts(SearchConfig(smooth_starts_only=True), 8, SEED)
        assert report.canonical_starts == 8

    def test_search_input_validation(self):
        with pytest.raises(ValueError):
            search_canonical_starts(SearchConfig(), 0, SEED)
        with pytest.raises(ValueError):
            SearchConfig(min_chain_length=3, max_chain_length=2)
        with pytest.raises(ValueError):
            SearchConfig(min_chain_length=0)
        # a start needs the chain and T1: no tower may pass max_blowups
        with pytest.raises(ValueError, match="max_blowups 2 is below the 4 blow-ups a start can need"):
            SearchConfig(max_blowups=2, min_chain_length=3, max_chain_length=3)
        with pytest.raises(ValueError, match="max_blowups -4 is below the 4 blow-ups"):
            SearchConfig(max_blowups=-4)
        with pytest.raises(ValueError, match="max_blowups 0 is below the 1 blow-ups"):
            SearchConfig(max_blowups=0, smooth_starts_only=True)

    @staticmethod
    def harness_runs(monkeypatch, harness):
        """`harness()`'s report and the MmpRun of each of its trials: a
        harness runs `run` itself, where a hook on `mmp.run` sees it."""
        results, real = [], mmp.run

        def recorded(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        with monkeypatch.context() as patch:
            patch.setattr(mmp, "run", recorded)
            report = harness()
        assert len(results) == report.trials
        return report, results

    @staticmethod
    def planted(monkeypatch):
        """Label every singular surface the audit classifies not log
        canonical, a rule of its input, so that check (c) reports
        violations and the harnesses have not-log-canonical steps to fold."""
        real = mmp._labelled

        def labelled(mr, terms, d, epsilon):
            label, *rest = real(mr, terms, d, epsilon)
            return (NOT_LOG_CANONICAL if terms else label, *rest)

        monkeypatch.setattr(mmp, "_labelled", labelled)

    @pytest.mark.parametrize("plant", [False, True])
    @pytest.mark.parametrize("epsilon", [F(0), F(1, 7), F(1, 4)])
    def test_verification_folds_run(self, monkeypatch, epsilon, plant):
        if plant:
            self.planted(monkeypatch)
        report, results = self.harness_runs(monkeypatch, lambda: verify_smooth_start_runs(40, SEED, epsilon, 12))
        assert report.total_steps == sum(len(r.steps) for r in results) > 150
        outcomes = Counter(type(r.outcome).__name__ for r in results)
        assert report.outcome_counts == tuple(sorted(outcomes.items()))
        violations = [f"trial {t}: {v}" for t, r in enumerate(results) for v in r.audit.violations]
        assert list(report.violations) == violations and (len(violations) > 20) == plant

    @pytest.mark.parametrize("plant", [False, True])
    def test_search_folds_run(self, monkeypatch, plant):
        if plant:
            self.planted(monkeypatch)
        report, results = self.harness_runs(monkeypatch, lambda: search_canonical_starts(SearchConfig(), 40, SEED))
        assert report.total_steps == sum(len(r.steps) for r in results) > 150
        bad = [[s for s in r.steps if s.post_classification.classification == NOT_LOG_CANONICAL] for r in results]
        assert report.runs_with_not_lc_intermediate == sum(map(bool, bad))
        assert report.not_lc_steps == sum(map(len, bad)) and (report.not_lc_steps > 20) == plant
        text = "trial {}: step {!r} leaves a not-log-canonical surface"
        samples = [text.format(t, b[0].contracted_curve) for t, b in enumerate(bad) if b]
        assert list(report.samples) == samples[:5]

    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(max_blowups=4, min_chain_length=3, max_chain_length=3),
            SearchConfig(max_blowups=1, smooth_starts_only=True),
        ],
    )
    def test_search_towers_stay_within_max_blowups(self, monkeypatch, config):
        ranks, real = [], mmp.run

        def recorded(state, *args, **kwargs):
            ranks.append(state.surface.rank)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(mmp, "run", recorded)
        search_canonical_starts(config, 20, SEED)
        assert len(ranks) == 20 and max(ranks) - 1 <= config.max_blowups
