"""Contraction loop on a tracked configuration, with a per-step auditor.

A state is a surface model plus a boundary divisor, which it stores
checked and without zero coefficients. Each step contracts one tracked
curve with negative extremal pairing: a (-1)-curve on a smooth surface is
Castelnuovo, anything else is Artin type. `contract` makes one step on the
state's own model: it blows a Castelnuovo curve down and declares any
other contracted after a negative-definiteness check. `run` keeps one
state, the auditor's pair: the initial lattice with the contracted set
declared contracted, its minimal resolution, and the ranking check (a)
solved on it. A step reads that ranking, then `audit_step` verifies the
effectivity, rank-drop, classification and support conditions and returns
the next pair, so every surface is built, ranked and classified once.
The two randomized harnesses draw their towers through `_random_blowups`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ModelError, NotNegativeDefiniteError, ScenarioError
from .lattice import (
    K_ROW,
    PointSpec,
    SurfaceModel,
    _trusted,
    blow_down,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from .singularities import (
    EPS_LOG_TERMINAL,
    NOT_LOG_CANONICAL,
    QDivisor,
    _check_boundary,
    _log_numerators,
    _singularity_class,
    classify,
    minimal_resolution,
    pulled_back,
)

CASTELNUOVO = "castelnuovo"
ARTIN_TYPE = "artin-type"
_NO_BOUNDARY = QDivisor.zero()


@dataclass(frozen=True)
class MmpState:
    """A surface and its boundary; a hand-built surface is validated here, as in every builder."""

    surface: SurfaceModel
    boundary: QDivisor
    step_index: int = 0

    def __post_init__(self):
        _trusted(self.surface)
        object.__setattr__(self, "boundary", _check_boundary(self.surface, self.boundary))

    @property
    def rho(self) -> int:
        return self.surface.rank - len(self.surface.contracted)


@dataclass(frozen=True)
class Candidate:
    name: str
    extremal_value: Fraction
    self_int: Fraction


@dataclass(frozen=True)
class MmpStep:
    contracted_curve: str
    extremal_value: Fraction
    self_int: Fraction
    kind: str
    post_classification: object


@dataclass(frozen=True)
class MinimalOverTracked:
    pass


@dataclass(frozen=True)
class MoriFiberSignal:
    curve: str
    self_int: Fraction


@dataclass(frozen=True)
class Exhausted:
    pass


@dataclass(frozen=True)
class MostNegativeFirst:
    pass


@dataclass(frozen=True)
class NamedOrder:
    names: tuple[str, ...]


def parse_strategy(text: str):
    if text == "most-negative":
        return MostNegativeFirst()
    if text.startswith("named:"):
        names = tuple(n for n in text[len("named:"):].split(",") if n)
        if not names:
            raise ScenarioError("named strategy needs at least one curve name")
        return NamedOrder(names)
    raise ScenarioError(f"unknown strategy {text!r}")


def _pulled_back_curve(model: SurfaceModel, name: str, cols):
    """The pullback C* of a tracked curve over one denominator d > 0: the
    terms of d C* and its row (v, d) on the columns `cols`, solved by
    `pulled_back` (negativity lemma included) when C meets the contracted set."""
    r = model.row(name)
    if not any(model.intersection(name, e) for e in model.contracted):
        return [(r, 1)], [model.matrix[r][j] for j in cols], 1  # C* = C
    x, v, d = pulled_back(model, [(r, 1)], cols)
    return [(r, d)] + list(zip(map(model.row, sorted(model.contracted)), x)), v, d


def extremal_pairing(model: SurfaceModel, boundary: QDivisor, name: str) -> Fraction:
    """(K + boundary).C on the modeled surface: (K + B).C* = L*.C, read off
    C's entry of the log pullback L*'s row (see `_log_numerators`)."""
    if name in model.contracted:
        raise ModelError(f"curve {name!r} is contracted; it has no extremal pairing")
    _, d, v = _log_numerators(model, boundary, (model.row(name),))
    return Fraction(v[0], d)


def contracted_self_intersection(model: SurfaceModel, name: str) -> Fraction:
    """C.C on the modeled surface (not on the resolution): C*.C* = C*.C."""
    _, v, d = _pulled_back_curve(model, name, (model.row(name),))
    return Fraction(v[0], d)


def _ranked(model: SurfaceModel, boundary: QDivisor) -> tuple[dict[str, int], list[tuple[int, str]], int]:
    """`_log_numerators` on the live rows: the numerators, the sorted keys
    (x, name) of the non-contracted curves with (K + boundary).C = x / d < 0,
    and d. `MmpState` dropped the boundary's zero coefficients, so each of
    its curves is on `model`."""
    live = [name for name in model.names if name not in model.contracted]
    numerators, d, v = _log_numerators(model, boundary, list(map(model.row, live)))
    return numerators, sorted((x, name) for x, name in zip(v, live) if x < 0), d


def _candidate(model: SurfaceModel, key: tuple[int, str], d: int) -> Candidate:
    x, name = key
    return Candidate(name=name, extremal_value=Fraction(x, d), self_int=contracted_self_intersection(model, name))


def step_candidates(state: MmpState) -> list[Candidate]:
    """Tracked non-contracted curves with (K + boundary).C < 0, most negative
    first, names breaking ties: `_ranked`'s keys, every one with its C.C
    solved. `run` solves C.C only for the candidates its strategy reads."""
    model = state.surface
    _, keys, d = _ranked(model, state.boundary)
    return [_candidate(model, key, d) for key in keys]


def contract(state: MmpState, name: str) -> MmpState:
    """One contraction step on the state's own model; the curve must be a
    contractible candidate. It is ranked through `_ranked`, and C.C is
    solved for it alone. A (-1)-curve on a smooth surface is blown down,
    any other curve declared contracted; either way rho drops by one."""
    model = state.surface
    _, keys, d = _ranked(model, state.boundary)
    key = next((key for key in keys if key[1] == name), None)
    if key is None:
        raise ModelError(f"{name!r} is not an extremal candidate (needs (K + boundary).C < 0)")
    cand = _candidate(model, key, d)
    if cand.self_int >= 0:
        raise ModelError(
            f"{name!r} has self-intersection {cand.self_int} >= 0; it signals a fiber space, not a contraction"
        )
    if model.contracted or cand.self_int != -1:
        model = declare_contracted(model, [name])
    else:
        model = blow_down(model, name)
    return MmpState(surface=model, boundary=state.boundary.without(name), step_index=state.step_index + 1)


@dataclass(frozen=True)
class AuditStep:
    curve: str
    rho_before: int
    rho_after: int
    effectivity_ok: bool
    classification: str
    step3_applicable: bool
    step3_value: Fraction | None
    step3_ok: bool
    post_classification: object


@dataclass(frozen=True)
class AuditReport:
    initial_rho: int
    rho_sequence: tuple[int, ...]
    smooth_start: bool
    coefficients_bounded: bool
    epsilon: Fraction
    steps: tuple[AuditStep, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class MmpRun:
    steps: tuple[MmpStep, ...]
    outcome: object
    audit: AuditReport | None


def run(state: MmpState, strategy, epsilon=Fraction(0)) -> MmpRun:
    """Drive contractions until nef-over-tracked, a fiber-space signal, or an
    exhausted named strategy, auditing each step as it is made.

    The run keeps one state, the audit's pair from `_start`: the initial
    lattice with the curves contracted so far declared contracted, its
    boundary, check (a)'s `_ranked` solve on it and its carried minimal
    resolution. A step reads its ranking off the pair, so `run` solves no
    log pullback, and solves C.C on the resolution (the start surface at
    step 0) only for the candidates its strategy reads: the curve a named
    strategy wants, or those in rank order up to the first contractible
    one. (K + B).C = L*.C* and C.C = C*.C* on any model of the surface, so
    both models give the same Fractions; with one denominator per ranking
    and names breaking ties, the same order. The step is Castelnuovo while
    the start was smooth, every earlier step was Castelnuovo and C.C = -1
    (K.C = -1 then follows from genus 0); otherwise it is Artin type.

    `audit_step` then checks the step, as `audit_run` does, and returns the
    next pair. A step's `post_classification` is the audit's class of the
    new surface; where the audit has none, the new shadow is classified, so
    the error raises at the step that meets it. Where the replay cannot go
    on, the audit's violation is raised as a `ModelError`. No reachable
    error is lost: `MmpState` checked the start, every model the audit
    builds is checked by construction, and each step adds one curve to the
    shadow's contracted set, which the Hodge index check caps at rank - 1,
    so a run makes at most rho - 1 steps.
    """
    epsilon = Fraction(epsilon)
    smooth, bounded = gate = _gate(state, epsilon)
    pair, steps, audited, violations = _start(state), [], [], []
    queue = list(strategy.names) if isinstance(strategy, NamedOrder) else None
    castelnuovo = smooth
    while True:
        shadow, _, (_, keys, d), mr = pair
        model = shadow if mr is None else mr
        if not keys:
            outcome = MinimalOverTracked()
            break
        wanted = [key for key in keys if queue and key[1] == queue[0]]
        cand = _candidate(model, wanted[0], d) if wanted else None
        if cand is None or cand.self_int >= 0:
            lazy = (_candidate(model, key, d) for key in keys)  # C.C is solved as each is read
            top = next(lazy)
            cand = top if top.self_int < 0 else next((c for c in lazy if c.self_int < 0), None)
            if cand is None:
                outcome = MoriFiberSignal(curve=top.name, self_int=top.self_int)
                break
            if queue is not None:
                if not queue:
                    outcome = Exhausted()
                    break
                raise ScenarioError(
                    f"strategy names {queue[0]!r} but it is not a contractible candidate "
                    f"at step {state.step_index + len(steps)}"
                )
        if queue:
            queue.pop(0)
        pair, step = audit_step(pair, cand.name, len(steps), epsilon, smooth and bounded, violations)
        if step is None:
            raise ModelError(violations[-1])
        audited.append(step)
        post = step.post_classification or classify(pair[0], _NO_BOUNDARY, epsilon)
        castelnuovo = castelnuovo and cand.self_int == -1
        kind = CASTELNUOVO if castelnuovo else ARTIN_TYPE
        steps.append(MmpStep(cand.name, cand.extremal_value, cand.self_int, kind, post))
    return MmpRun(steps=tuple(steps), outcome=outcome, audit=_report(state, gate, epsilon, audited, violations))


def _start(state: MmpState) -> tuple:
    """The audit's pair before step 0: the start state, its `_ranked` solve, no resolution."""
    return state.surface, state.boundary, _ranked(state.surface, state.boundary), None


def _gate(initial: MmpState, epsilon: Fraction) -> tuple[bool, bool]:
    """Whether check (c) applies, computed once a run: a smooth start, and
    boundary coefficients at most 1 - epsilon."""
    cap = Fraction(1) - epsilon
    return not initial.surface.contracted, all(c <= cap for _, c in initial.boundary.coefficients)


def _report(initial: MmpState, gate: tuple[bool, bool], epsilon: Fraction, audited, violations) -> AuditReport:
    """The AuditReport of the steps `audited` from `initial`, `gate` its `_gate`."""
    rho_sequence = (initial.rho, *(s.rho_after for s in audited))
    return AuditReport(initial.rho, rho_sequence, *gate, epsilon, tuple(audited), tuple(violations))


def audit_run(run_record: MmpRun, initial: MmpState, epsilon) -> AuditReport:
    """Replay a run on the initial lattice and verify the soundness conditions.

    Checks, per step: (a) the pullback of the new pair differs from the old
    one by a coefficient-wise non-negative correction; (b) the active rank
    drops by exactly one; (c) for smooth starts with boundary coefficients
    at most 1 - epsilon, the new surface classifies epsilon-log terminal;
    (d) when the pullback support of the contracted curve on the current
    minimal resolution has no (-1)-curve, the boundary meets the curve
    negatively. Violations are reported, never raised.

    The run's curves are folded through `audit_step`, the check `run` makes
    after each contraction. Nothing here reads the run's models.
    """
    epsilon = Fraction(epsilon)
    smooth, bounded = gate = _gate(initial, epsilon)
    violations = []
    if len(run_record.steps) > max(initial.rho - 1, 0):
        violations.append(f"bound: run has {len(run_record.steps)} steps, limit {initial.rho - 1}")
    pair, audited = _start(initial), []
    for i, step in enumerate(run_record.steps):
        pair, audit = audit_step(pair, step.contracted_curve, i, epsilon, smooth and bounded, violations)
        if audit is None:
            break
        audited.append(audit)
    return _report(initial, gate, epsilon, audited, violations)


def audit_step(pair, name: str, i: int, epsilon: Fraction, gate: bool, violations: list):
    """Checks (a)-(d) of step i, which contracts `name`, on the pair before
    it, `_start`'s shape: (shadow model, boundary, `_ranked` triple, minimal
    resolution or None). Check (c) applies where `gate`. Appends what it
    finds to `violations` and returns the next pair, which carries check
    (a)'s triple, and the AuditStep, both None where the replay cannot go on.

    Checks (a) and (d) compare integers: (a) the log coefficients'
    numerators over their step's one denominator, cross-multiplied, and
    (d) the boundary pairing's numerator; a Fraction is made only for a
    reported value. Check (c) classifies the one resolution of the new
    shadow model, which the next step's check (d) reuses, and keeps the
    class (None if it raised) for `run` to report. The boundary was
    checked when the initial state was built, and a step only drops the
    contracted curve from it.

    The resolution is carried: the new one is `minimal_resolution` of the
    old one with `name` declared contracted, which borders the old factor
    and blows down only what `name` frees. It equals the new shadow's: a
    normal surface has one minimal resolution, and rows keep their original
    order. Its checks pass once they passed on the shadow: the bordered
    pivot's Schur complement is C*^2 < 0 on both, C.C <= C*^2, and rho is
    the same. The whole shadow is resolved only where none is carried or
    the old shadow was its own; a class that raises keeps the resolution.
    """
    shadow, boundary, (prev, _, prev_d), mr = pair
    rho_before = shadow.rank - len(shadow.contracted)
    if name in shadow.contracted:
        violations.append(f"rho: step {i} contracts already-contracted curve {name!r}")
        return None, None
    # (d) support condition on the minimal resolution of the current state
    try:
        if mr is None:
            mr = minimal_resolution(shadow)
        terms, v, d = _pulled_back_curve(mr, name, [mr.row(n) for n in boundary.names])
        m = mr.matrix
        step3_applicable = not any(m[r][r] == m[K_ROW][r] == -1 for r, c in terms if c > 0)
        db = lcm(*(c.denominator for _, c in boundary.coefficients))
        pairing = sum(c.numerator * (db // c.denominator) * vn for (_, c), vn in zip(boundary.coefficients, v))
        step3_value = Fraction(pairing, d * db)
        step3_ok = (not step3_applicable) or pairing < 0
    except ModelError as exc:
        step3_applicable, step3_value, step3_ok = False, None, False
        violations.append(f"step3: step {i} ({name!r}): replay failed: {exc}")
    if not step3_ok and step3_value is not None:
        violations.append(
            f"step3: step {i} ({name!r}): pullback support has no (-1)-curve but boundary pairing {step3_value} >= 0"
        )
    try:
        shadow, old = declare_contracted(shadow, [name]), shadow
    except NotNegativeDefiniteError as exc:
        violations.append(f"effectivity: step {i} ({name!r}): replay failed: {exc}")
        return None, None
    boundary = boundary.without(name)
    new, _, new_d = ranking = _ranked(shadow, boundary)
    bad = sorted(n for n in prev.keys() | new.keys() if new.get(n, 0) * prev_d > prev.get(n, 0) * new_d)
    for n in bad:
        violations.append(
            f"effectivity: step {i} ({name!r}): coefficient of {n!r} rises from "
            f"{Fraction(prev.get(n, 0), prev_d)} to {Fraction(new.get(n, 0), new_d)}"
        )
    rho_after = shadow.rank - len(shadow.contracted)
    if rho_after != rho_before - 1:
        violations.append(f"rho: step {i} ({name!r}): rank drops {rho_before} -> {rho_after}")
    carried, mr, post = (None if mr is old else mr), None, None
    try:
        mr = minimal_resolution(shadow if carried is None else declare_contracted(carried, [name]))
        post = _singularity_class(mr, _NO_BOUNDARY, epsilon)
        label = post.classification
    except ModelError as exc:
        label = f"error: {exc}"
    if gate and label != EPS_LOG_TERMINAL:
        violations.append(
            f"classification: step {i} ({name!r}): surface classifies {label}, "
            f"expected {EPS_LOG_TERMINAL}"
        )
    step = AuditStep(name, rho_before, rho_after, not bad, label, step3_applicable, step3_value, step3_ok, post)
    return (shadow, boundary, ranking, mr), step


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    seed: int
    epsilon: Fraction
    max_blowups: int
    total_steps: int
    outcome_counts: tuple[tuple[str, int], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@lru_cache(maxsize=32)
def _coefficient_grid(cap: Fraction) -> tuple[Fraction, ...]:
    # multiples of 1/6 up to the cap, and the cap itself so the bound is
    # tight; a tuple, since every caller shares the cached value
    grid = {Fraction(k, 6) for k in range(7) if Fraction(k, 6) <= cap}
    grid.add(cap)
    return tuple(sorted(grid))


def _random_blowups(rng: random.Random, model: SurfaceModel, names, avoid=()) -> SurfaceModel:
    """`model` blown up once per name, in order: at a general point, or with
    probability 1/2 on a tracked curve outside `avoid`, drawn uniformly."""
    for name in names:
        allowed = [n for n in model.tracked if n not in avoid]
        on_curve = allowed and rng.random() >= 0.5
        model = blow_up(model, PointSpec.on_curve(rng.choice(allowed)) if on_curve else PointSpec.general(), name)
    return model


def _random_tower(rng: random.Random, max_blowups: int) -> SurfaceModel:
    names = [f"C{i + 1}" for i in range(rng.randint(1, max_blowups))]
    return _random_blowups(rng, new_projective_plane(), names)


def verify_smooth_start_runs(trials, seed, epsilon, max_blowups=10) -> VerificationReport:
    """Randomized smooth-start runs; every audit must come back clean.

    Towers of at most max_blowups blow-ups, boundary coefficients drawn from
    the sixths grid capped at 1 - epsilon, greedy strategy. Per-trial seeds
    derive deterministically from the master seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_blowups < 1:
        raise ValueError("max_blowups must be >= 1")
    epsilon = Fraction(epsilon)
    if not (0 <= epsilon <= 1):
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    grid = _coefficient_grid(Fraction(1) - epsilon)
    violations = []
    outcome_counts = Counter()
    total_steps = 0
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        model = _random_tower(rng, max_blowups)
        state = MmpState(surface=model, boundary=QDivisor.from_map({n: rng.choice(grid) for n in model.tracked}))
        result = run(state, MostNegativeFirst(), epsilon=epsilon)
        total_steps += len(result.steps)
        outcome_counts[type(result.outcome).__name__] += 1
        violations.extend(f"trial {trial}: {v}" for v in result.audit.violations)
    return VerificationReport(
        trials=trials,
        seed=seed,
        epsilon=epsilon,
        max_blowups=max_blowups,
        total_steps=total_steps,
        outcome_counts=tuple(sorted(outcome_counts.items())),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class SearchConfig:
    max_blowups: int = 10
    smooth_starts_only: bool = False
    min_chain_length: int = 1
    max_chain_length: int = 3

    def __post_init__(self):
        if not 1 <= self.min_chain_length <= self.max_chain_length:
            raise ValueError("chain lengths need 1 <= min_chain_length <= max_chain_length")


@dataclass(frozen=True)
class SearchReport:
    trials: int
    seed: int
    canonical_starts: int
    total_steps: int
    runs_with_not_lc_intermediate: int
    not_lc_steps: int
    samples: tuple[str, ...]


def search_canonical_starts(config: SearchConfig, trials, seed) -> SearchReport:
    """Evidence harness: canonical starts, random boundaries, greedy runs.

    Start surfaces carry a contracted chain of (-2)-curves (or nothing when
    smooth_starts_only), which classifies canonical: total discrepancy >= 0.
    The report counts intermediate surfaces that classify not log canonical
    and asserts nothing beyond the counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = _coefficient_grid(Fraction(1))
    canonical_starts = 0
    total_steps = 0
    runs_with = 0
    not_lc_steps = 0
    samples = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        chain = 0 if config.smooth_starts_only else rng.randint(
            config.min_chain_length, config.max_chain_length
        )
        model = new_projective_plane()
        chain_names = [f"S{i + 1}" for i in range(chain)]
        # S1 .. S_chain end up as a contracted chain of (-2)-curves, T1 meets its end
        for i, name in enumerate(chain_names + ["T1"]):
            model = blow_up(model, PointSpec.on_curve(chain_names[i - 1]) if i else PointSpec.general(), name)
        extra = rng.randint(0, max(config.max_blowups - chain - 1, 0))
        model = _random_blowups(rng, model, [f"T{i + 2}" for i in range(extra)], chain_names)
        if chain:
            model = declare_contracted(model, chain_names)
        start = classify(model, QDivisor.zero(), Fraction(0))
        if start.total_discrepancy is None or start.total_discrepancy < 0:  # canonical by construction
            raise ModelError(f"trial {trial}: start surface classifies {start.classification}, not canonical")
        canonical_starts += 1
        boundary = QDivisor.from_map({n: rng.choice(grid) for n in model.tracked if n not in model.contracted})
        result = run(MmpState(surface=model, boundary=boundary), MostNegativeFirst())
        total_steps += len(result.steps)
        bad = [s for s in result.steps if s.post_classification.classification == NOT_LOG_CANONICAL]
        if bad:
            runs_with += 1
            not_lc_steps += len(bad)
            if len(samples) < 5:
                samples.append(
                    f"trial {trial}: step {bad[0].contracted_curve!r} leaves a not-log-canonical surface"
                )
    return SearchReport(
        trials=trials,
        seed=seed,
        canonical_starts=canonical_starts,
        total_steps=total_steps,
        runs_with_not_lc_intermediate=runs_with,
        not_lc_steps=not_lc_steps,
        samples=tuple(samples),
    )
