"""Contraction loop on a tracked configuration, with a per-step auditor.

A state is a surface model plus a boundary divisor, which it stores
checked and without zero coefficients. Each step contracts one tracked
curve with negative extremal pairing: a (-1)-curve on a smooth surface is
Castelnuovo, anything else is Artin type. Every step is taken on the
auditor's pair (`_start`): the initial lattice with the contracted set
declared contracted (the shadow), its boundary, the log pullbacks of K + B
and of K, solved once at the start, and its minimal resolution, None where
it is smooth. `_successors` ranks the pair's candidates off the row of
(K + B)* and solves a candidate's C* only when it is read:
`_drive`, `run`'s loop, is the greedy or named policy over it,
`step_candidates` lists it, and `contract` takes one step and returns the
new shadow's state. The loop carries integers only; Fractions and records
are made at the API edge, by `run`, `audit_run` and `step_candidates`,
for the values they return. `audit_step` verifies the effectivity,
rank-drop, classification and support conditions, carries both log
pullbacks across the contraction by a rank-one update through C*,
re-checked against the matrix at the step's point (C and the blocks of
the contracted set that C meets, which C* lives on) and by a ratio check
everywhere else, carries a singular resolution by one blow-down cascade
or declaration and reads a smooth one off the shadow's solves, and
returns the next pair and the step's integer core. So every surface is
built and classified once, a step builds at most two models, one where
the surface stays smooth, and no log pullback is solved after the start.
Every pullback here is in `pulled_back`'s format, integer lists over every
row of the shadow, K's included: the C* solves as (coef, v, d), the
carried pullbacks as (coef, v) with d = coef[K_ROW]. The shadow's rows
never change during a run, so the pair holds no name list.
The two randomized harnesses draw their towers through `_random_blowups`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, repeat
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import ModelError, NotNegativeDefiniteError, ScenarioError
from .lattice import (
    K_ROW,
    PointSpec,
    SurfaceModel,
    _trusted,
    blow_down_cascade,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from .singularities import (
    EPS_LOG_TERMINAL,
    NOT_LOG_CANONICAL,
    QDivisor,
    _check_boundary,
    _labelled,
    _log_numerators,
    _singularity_class,
    classify,
    minimal_resolution,
    pulled_back,
)

CASTELNUOVO = "castelnuovo"
ARTIN_TYPE = "artin-type"
_NO_BOUNDARY = QDivisor.zero()
# the edge's Fractions, one per (numerator, denominator): a run's reported
# values repeat (C.C = -1 at every Castelnuovo step) and a Fraction is
# immutable, so `run` and `_report` share them
_fraction = lru_cache(maxsize=1024)(Fraction)


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


class _Read(NamedTuple):
    """A candidate as `_successors` solves it, in integers: (K + B).C =
    x / d, C.C = C*.C = cc / dc, and C*'s solve, `pulled_back`'s (coef, v,
    d), for `audit_step`."""

    name: str
    x: int
    d: int
    cc: int
    dc: int
    cstar: tuple


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


def extremal_pairing(model: SurfaceModel, boundary: QDivisor, name: str) -> Fraction:
    """(K + boundary).C on the modeled surface: (K + B).C* = L*.C, read off
    C's entry of the log pullback L*'s row (see `_log_numerators`). The
    model and the boundary are checked at entry."""
    model = _trusted(model)
    boundary = _check_boundary(model, boundary)
    if name in model.contracted:
        raise ModelError(f"curve {name!r} is contracted; it has no extremal pairing")
    coef, v = _log_numerators(model, boundary)
    return Fraction(v[model.row(name)], coef[K_ROW])


def contracted_self_intersection(model: SurfaceModel, name: str) -> Fraction:
    """C.C on the modeled surface (not on the resolution): C*.C* = C*.C,
    read off C*'s row. The model is checked at entry."""
    model = _trusted(model)
    if name in model.contracted:
        raise ModelError(f"curve {name!r} is contracted; it has no self-intersection on the modeled surface")
    r = model.row(name)
    _, v, d = pulled_back(model, [(r, 1)])
    return Fraction(v[r], d)


def _ranked(model: SurfaceModel, row) -> list[tuple[int, str]]:
    """The sorted keys (x, name) of `model`'s non-contracted curves with
    (K + B).C = x / d < 0, `row` the numerators of L*'s row over every row
    of `model`. Contracted curves are filtered here, by name: nothing
    re-checks a carried row's entries on them."""
    contracted = model.contracted
    return sorted((x, name) for name, x in zip(model.names, row[1:]) if x < 0 and name not in contracted)


def _successors(shadow: SurfaceModel, log):
    """The successor function: (name, solve) for each candidate step from
    `shadow` in rank order, `_ranked`'s keys off the row of its (K + B)*
    pullback `log`, (coef, row) as `_log_numerators` gives it or a pair
    carries it (one denominator, so a fresh solve's order). `solve()` makes
    the curve's C* solve on the shadow and returns its `_Read`, C.C read
    off C*'s row: a C* is solved only when it is read, and no Fraction is
    made."""
    coef, row = log
    d = coef[K_ROW]

    def solve(x, name):
        r = shadow.row(name)
        cstar = pulled_back(shadow, [(r, 1)])
        return _Read(name, x, d, cstar[1][r], cstar[2], cstar)

    for x, name in _ranked(shadow, row):
        yield name, partial(solve, x, name)


def step_candidates(state: MmpState) -> list[Candidate]:
    """Tracked non-contracted curves with (K + boundary).C < 0, most negative
    first, names breaking ties: `_successors` over the state's surface and
    its one (K + B)* solve, every C.C solved and made a Fraction here. `run`
    solves C.C only for the candidates its strategy reads."""
    log = _log_numerators(state.surface, state.boundary)
    found = [solve() for _, solve in _successors(state.surface, log)]
    return [Candidate(c.name, Fraction(c.x, c.d), Fraction(c.cc, c.dc)) for c in found]


def contract(state: MmpState, name: str) -> MmpState:
    """One contraction step, taken as `run` takes it: the curve must be a
    contractible candidate of `_successors`, its C* is the one solved, and
    `audit_step` makes the step or its violation raises as a `ModelError`.
    Returns the state of the new shadow: the curve declared contracted on
    the state's model, a (-1)-curve on a smooth surface too."""
    pair = _start(state)
    solve = next((s for n, s in _successors(pair[0], pair[2][0]) if n == name), None)
    if solve is None:
        raise ModelError(f"{name!r} is not an extremal candidate (needs (K + boundary).C < 0)")
    read = solve()
    if read.cc >= 0:
        raise ModelError(
            f"{name!r} has self-intersection {Fraction(read.cc, read.dc)} >= 0; it signals a fiber space, "
            "not a contraction"
        )
    violations = []
    pair, core = audit_step(pair, name, 0, Fraction(0), False, violations, read.cstar)
    if core is None:
        raise ModelError(violations[-1])
    return MmpState(surface=pair[0], boundary=state.boundary.without(name), step_index=state.step_index + 1)


@dataclass(frozen=True)
class AuditStep:
    curve: str
    rho_before: int
    rho_after: int
    effectivity_ok: bool
    classification: str
    step3_applicable: bool
    step3_value: Fraction
    step3_ok: bool
    post_classification: object


class _AuditCore(NamedTuple):
    """`audit_step`'s integer core of an AuditStep, field for field:
    step3_value as (numerator, denominator) and post_classification as the
    label core `_labelled` gave, None where it raised. `_report` makes it
    the record."""

    curve: str
    rho_before: int
    rho_after: int
    effectivity_ok: bool
    classification: str
    step3_applicable: bool
    step3_value: tuple[int, int]
    step3_ok: bool
    post_classification: tuple | None


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

    Each step contracts the curve a named strategy wants, or the first
    contractible candidate in rank order. It is Castelnuovo where the
    surface before it is smooth, that is, its carried resolution (the
    start's at step 0) contracts nothing, and C.C = -1 (K.C = -1 then
    follows from genus 0); otherwise it is Artin type. So a start whose
    contracted curves all blow down, and a surface that an Artin step left
    singular and a later step made smooth again, have Castelnuovo steps. A
    step's `post_classification` is its AuditStep's, the audit's class of
    the new surface; where the audit has none, the new shadow is
    classified, so the error raises at the step that meets it, and where
    the replay cannot go on, the audit's violation raises as a `ModelError`.

    The loop, `_drive`, carries integers only; the records are made here,
    at the edge, in one pass (`_report` for the audit's), their equal
    Fractions shared through `_fraction`.
    """
    epsilon = Fraction(epsilon)
    steps, outcome, gate, violations = _drive(state, strategy, epsilon)
    audit = _report(state, gate, epsilon, [core for _, _, core in steps], violations)
    made = tuple(
        MmpStep(read.name, _fraction(read.x, read.d), _fraction(read.cc, read.dc), kind, a.post_classification)
        for (read, kind, _), a in zip(steps, audit.steps)
    )
    return MmpRun(steps=made, outcome=outcome, audit=audit)


def _drive(state: MmpState, strategy, epsilon: Fraction):
    """`run`'s loop, in integers: the greedy or named policy over
    `_successors` on the audit's pair from `_start`. It solves C* only for
    the candidates the strategy reads, hands the chosen curve's solve to
    `audit_step`, and makes no log-pullback solve. No reachable error is
    lost: `MmpState` checked the start, every model the audit builds is
    checked by construction, and each step adds one curve to the shadow's
    contracted set, which the Hodge index check caps at rank - 1, so a run
    makes at most rho - 1 steps. Returns (steps, outcome, gate,
    violations): per step its `_Read`, CASTELNUOVO or ARTIN_TYPE and
    `audit_step`'s core; the outcome record, `_gate`'s pair and the
    violations."""
    pair, steps, violations = _start(state), [], []
    smooth, bounded = gate = _gate(pair, epsilon)
    queue = list(strategy.names) if isinstance(strategy, NamedOrder) else None
    while True:
        successors = _successors(pair[0], pair[2][0])
        if queue:  # listed, to be read again if the named curve is not taken
            successors = list(successors)
        solve = next((s for name, s in successors if name == queue[0]), None) if queue else None
        chosen = solve() if solve else None
        if chosen is None or chosen.cc >= 0:
            # C* is solved as each is read, the named curve's once; a
            # candidate is contractible iff C.C < 0
            lazy = (chosen if chosen and n == chosen.name else s() for n, s in successors)
            top = next(lazy, None)
            if top is None:
                outcome = MinimalOverTracked()
                break
            chosen = top if top.cc < 0 else next((c for c in lazy if c.cc < 0), None)
            if chosen is None:
                outcome = MoriFiberSignal(curve=top.name, self_int=Fraction(top.cc, top.dc))
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
        smooth_before = pair[3] is None
        pair, core = audit_step(pair, chosen.name, len(steps), epsilon, smooth and bounded, violations, chosen.cstar)
        if core is None:
            raise ModelError(violations[-1])
        if core.post_classification is None:
            # only an epsilon outside [0, 1] fails `_labelled`; `classify` raises its error at this step
            classify(pair[0], _NO_BOUNDARY, epsilon)
        kind = CASTELNUOVO if smooth_before and chosen.cc == -chosen.dc else ARTIN_TYPE
        steps.append((chosen, kind, core))
    return steps, outcome, gate, violations


def _start(state: MmpState) -> tuple:
    """The audit's pair before step 0: the start surface; its boundary as
    integer numerators over one denominator db, (fixed, db); its two log
    pullbacks, (K + B)* and K*; and its minimal resolution, None where it
    contracts nothing (see `audit_step`). Both pullbacks are
    solved here by `_log_numerators`, the run's only log-pullback solves,
    and kept as it returns them; `audit_step` carries them. Each is (coef,
    row), integer lists over every row of the start surface, which are the
    rows of every later shadow: coef[i] is the coefficient in d L* of row
    i, so coef[K_ROW] is the denominator d and only K, the boundary curves
    and the contracted curves can be nonzero, and row[j] is d L*.(row j).
    A start whose resolution would leave a tracked curve singular raises
    here, before any step."""
    model, boundary = state.surface, state.boundary
    pullbacks = tuple(_log_numerators(model, b) for b in (boundary, _NO_BOUNDARY))
    db = lcm(*(c.denominator for _, c in boundary.coefficients))
    fixed = {name: c.numerator * (db // c.denominator) for name, c in boundary.coefficients}
    mr = minimal_resolution(model)
    return model, (fixed, db), pullbacks, mr if mr.contracted else None


def _moved(old: SurfaceModel, pullback, cstar, at: int):
    """A log pullback carried across the step that contracts the curve C
    of row `at`, given C*'s solve on the old shadow `old`: L_new* = L* +
    a C* with a = -(L*.C) / (C*.C*), so L_new* is orthogonal to C and, as
    L* and C* are, to the old contracted set. The pullback orthogonal to a
    negative definite block is unique, so this is the solve of the new
    shadow. With d L* = (coef, row) and dc C* = (t, v), s = -v[at] > 0 and
    lc = d L*.C re-derived from the matrix (`_paired`), it is (s coef + lc
    t, s row + lc v), reduced by the gcd. An lc that differs from the
    carried row's entry, which `run` ranked and reported, raises."""
    coef, row = pullback
    ccoef, v, _ = cstar
    lc = _paired(old, coef, at)
    if lc != row[at]:
        raise ModelError(
            f"carried log pullback pairs {row[at]}/{coef[K_ROW]} with {old.names[at - 1]!r}, "
            f"the matrix {lc}/{coef[K_ROW]}; model inconsistent"
        )
    s = -v[at]
    coef = [s * x + lc * t for x, t in zip(coef, ccoef)]
    row = [s * a + lc * b for a, b in zip(row, v)]
    g = gcd(*coef, *row)
    if g > 1:
        coef, row = [x // g for x in coef], [a // g for a in row]
    return coef, row


def _paired(model: SurfaceModel, coef: list[int], j: int) -> int:
    """The pairing of the row combination `coef` with row j, summed over
    column j's nonzero entries: O(degree), not O(n)."""
    idx, values = model.nonzeros[j]
    return sum(map(mul, map(coef.__getitem__, idx), values))


def _rechecked(shadow: SurfaceModel, fixed: dict[str, int], db: int, pullback, before):
    """`pullback`, carried across the step from `before`, checked against
    the new shadow's matrix, as `pulled_back` checks its own solve: each
    boundary curve's coefficient is its `fixed` numerator over db; off the
    step's point, the rows of C's block, the shadow's last
    (`lattice._bordered`), every coefficient kept its ratio to d (new[j]
    d_old == old[j] d, one pass over the whole list in C); and L* is
    orthogonal to every curve of that block, each pairing summed over
    that column's nonzero entries (`_paired`), O(sum of its degrees).
    These conditions fix the pullback, so a carried one that passes is the
    solve's: a contracted curve E of any other block meets only K, its own
    block and curves other than C, whose coefficients the ratio check
    proves unmoved up to the common scale, so L*.E stays 0 as the step that
    last touched E's block proved it (or the start's solve did). The ratio
    check also sees a corrupted coefficient on a curve that meets no
    contracted curve. A failure raises: the model is inconsistent."""
    coef, _ = pullback
    d, rows = coef[K_ROW], shadow._rows
    for name, b in fixed.items():
        if coef[rows[name]] * db != b * d:
            raise ModelError(
                f"carried log pullback drops boundary coefficient {Fraction(b, db)} of {name!r}; model inconsistent"
            )
    point, old = shadow.contracted_factor[-1][0], before[0]
    scaled, kept = list(map(mul, coef, repeat(old[K_ROW]))), list(map(mul, old, repeat(d)))
    for r in point:
        scaled[r] = kept[r]
    if scaled != kept:
        raise ModelError("carried log pullback moves off the step's point; model inconsistent")
    off = [shadow.names[r - 1] for r in point if _paired(shadow, coef, r)]
    if off:
        raise ModelError(f"carried log pullback is not orthogonal to {min(off)!r}; model inconsistent")
    return pullback


def _gate(pair, epsilon) -> tuple[bool, bool]:
    """Whether check (c) applies, computed once a run: a smooth start, whose
    resolution in `pair`, `_start`'s, is None, and boundary coefficients at
    most 1 - epsilon, compared in integers on `_start`'s numerators b over
    db: b / db <= 1 - p / q iff b q <= (q - p) db."""
    fixed, db = pair[1]
    p, q = epsilon.numerator, epsilon.denominator
    return pair[3] is None, all(b * q <= (q - p) * db for b in fixed.values())


def _report(initial: MmpState, gate: tuple[bool, bool], epsilon: Fraction, cores, violations) -> AuditReport:
    """The AuditReport of `audit_step`'s cores from `initial`, `gate` its
    `_gate`, each core made an AuditStep in one pass."""
    steps = tuple(
        AuditStep(
            *core[:6],  # curve .. step3_applicable, as they stand
            _fraction(*core.step3_value),
            core.step3_ok,
            core.post_classification and _singularity_class(core.post_classification, epsilon),
        )
        for core in cores
    )
    rho_sequence = (initial.rho, *(s.rho_after for s in steps))
    return AuditReport(initial.rho, rho_sequence, *gate, epsilon, steps, tuple(violations))


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
    after each contraction, and its cores made records by `_report`.
    Nothing here reads the run's models.
    """
    epsilon = Fraction(epsilon)
    pair, cores, violations = _start(initial), [], []
    smooth, bounded = gate = _gate(pair, epsilon)
    if len(run_record.steps) > max(initial.rho - 1, 0):
        violations.append(f"bound: run has {len(run_record.steps)} steps, limit {initial.rho - 1}")
    for i, step in enumerate(run_record.steps):
        pair, core = audit_step(pair, step.contracted_curve, i, epsilon, smooth and bounded, violations)
        if core is None:
            break
        cores.append(core)
    return _report(initial, gate, epsilon, cores, violations)


def audit_step(pair, name: str, i: int, epsilon: Fraction, gate: bool, violations: list, cstar=None):
    """Checks (a)-(d) of step i, which contracts `name`, on the pair before
    it, `_start`'s shape: (shadow model, boundary numerators (fixed, db),
    ((K + B)*, K*), minimal resolution or None), every list of it over the start
    surface's rows. Check (c) applies where `gate`. `cstar` is `name`'s C*
    solve on the shadow, `pulled_back`'s (coef, v, d), which `run` made to
    read C.C; without it, it is solved here. Appends what it finds to
    `violations` and returns the next pair and the step's integer core,
    both None where the replay cannot go on: the AuditStep's fields, with
    the boundary pairing as (numerator, denominator) and the class as the
    label core `_labelled` gave (None if it raised).

    The step makes no log-pullback solve: `_moved` carries both pullbacks
    through the one C* solve and `_rechecked` checks them against the new
    shadow's matrix at the step's point, C's block, the new shadow's last,
    and proves every other coefficient kept its ratio to d. Checks (a) and
    (d) compare integers: (a) the old and new (K + B)* coefficients over
    their denominators, cross-multiplied, on the step's point only, as the
    ratio check proves that nothing else moved, and (d) the boundary
    pairing B.C*'s numerator, off C*'s row; a Fraction is made only for a
    violation's text. Check (d) reads C*'s support on the resolution: a
    curve that survives there keeps its coefficient, as a strict transform
    has coefficient 1 in a pullback. Check (c) labels the new shadow's
    resolution with K*'s numerators on the curves it keeps contracted (none
    on a smooth one, and the epsilon check still runs), and keeps the label
    core (None if it raised) for `run` to report. The boundary
    was checked when the initial state was built, and a step only drops
    the contracted curve from it.

    The resolution is carried: the new one is the minimal resolution of the
    old one with C = `name` declared contracted, which equals the new
    shadow's (a normal surface has one minimal resolution, and rows keep
    their original order). The old one is minimal, so only C can start a
    blow-down. Where C is a (-1)-curve there (C.C = K.C = -1), one
    `blow_down_cascade` over its contracted curves and C blows C down, then
    what that frees, and no declared model is built: the block its final
    check tests is, after C goes, the Schur complement of C.C = -1 in the
    declared block, so negative definite iff that block is, and the Hodge
    count drops by one on both sides. Otherwise the new resolution is the
    old one with C declared contracted (its checks pass once the shadow's
    did: the bordered pivot's Schur complement is C*^2 < 0 on both, C.C <=
    C*^2, and rho is the same), or the new shadow itself where the old
    shadow was its own. A cascade whose blow-downs break a curve's genus
    ends the replay; a class that raises keeps the resolution.

    A smooth surface, its own resolution, is carried as None: pulled back
    to the shadow it keeps its pairings, so C.C = C*.C, K.C = K*.C and
    D.C = D.C*, and C*'s support there is C. A (-1)-curve C there is blown
    down with no model: the cascade's one check that can fail moves D's
    genus by (D.C)(D.C - 1), so the first D in row order with D.C >= 2
    raises its message (the shadow's Hodge check is the rank floor). Any
    other C resolves the new shadow once. So a step builds at most two models.
    """
    shadow, (fixed, db), (log, canonical), mr = pair
    rho_before = shadow.rank - len(shadow.contracted)
    if name in shadow.contracted:
        violations.append(f"rho: step {i} contracts already-contracted curve {name!r}")
        return None, None
    at = shadow.row(name)
    if cstar is None:
        cstar = pulled_back(shadow, [(at, 1)])
    ccoef, v, dc = cstar
    rows = shadow._rows
    # (d) support condition on the minimal resolution of the current state
    if mr is None:  # smooth: C*'s support there is C, with C.C = C*.C and K.C = K*.C
        minus1 = v[at] == -dc and canonical[1][at] == -canonical[0][K_ROW]
        step3_applicable = not minus1
    else:
        m, kept = mr.matrix, mr._rows
        # nonzero is positive: `pulled_back` checked the negativity lemma on C*
        support = [kept[n] for n in compress(shadow.names, ccoef[1:]) if n in kept]
        step3_applicable = not any(m[r][r] == m[K_ROW][r] == -1 for r in support)
        minus1 = mr.self_int(name) == mr.k_dot(name) == -1
    pairing = sum(b * v[rows[n]] for n, b in fixed.items())
    step3_ok = (not step3_applicable) or pairing < 0
    if not step3_ok:
        violations.append(
            f"step3: step {i} ({name!r}): pullback support has no (-1)-curve but boundary pairing "
            f"{Fraction(pairing, dc * db)} >= 0"
        )
    try:
        shadow, old = declare_contracted(shadow, [name], cstar), shadow
    except NotNegativeDefiniteError as exc:
        violations.append(f"effectivity: step {i} ({name!r}): replay failed: {exc}")
        return None, None
    fixed = {n: b for n, b in fixed.items() if n != name}
    prev = log[0]
    log = _rechecked(shadow, fixed, db, _moved(old, log, cstar, at), log)
    canonical = _rechecked(shadow, {}, 1, _moved(old, canonical, cstar, at), canonical)
    new = log[0]
    prev_d, new_d = prev[K_ROW], new[K_ROW]
    point = shadow.contracted_factor[-1][0]
    bad = sorted((shadow.names[r - 1], prev[r], new[r]) for r in point if new[r] * prev_d > prev[r] * new_d)
    for n, a, b in bad:
        violations.append(
            f"effectivity: step {i} ({name!r}): coefficient of {n!r} rises from "
            f"{Fraction(a, prev_d)} to {Fraction(b, new_d)}"
        )
    rho_after = shadow.rank - len(shadow.contracted)
    if rho_after != rho_before - 1:
        violations.append(f"rho: step {i} ({name!r}): rank drops {rho_before} -> {rho_after}")
    try:
        if mr is None and minus1:  # C.D = C*.D: blowing C down keeps D of genus 0 iff C.D <= 1
            broken = [n for n, x in zip(shadow.names, v[1:]) if x >= 2 * dc] if max(v) >= 2 * dc else ()
            if broken:
                raise ModelError(f"curve {broken[0]!r} is not a smooth rational class (genus != 0)")
        elif mr is None:
            mr = minimal_resolution(shadow)
        elif minus1:
            mr = blow_down_cascade(mr, sorted(mr.contracted | {name}))
        else:
            mr = shadow if mr is old else declare_contracted(mr, [name])
    except ModelError as exc:
        violations.append(f"classification: step {i} ({name!r}): replay failed: {exc}")
        return None, None
    mr = mr if mr and mr.contracted else None
    coef = canonical[0]
    terms = [(mr._rows[n], coef[rows[n]]) for n in mr.contracted] if mr else []
    try:
        post = _labelled(mr or shadow, terms, coef[K_ROW], epsilon)
        label = post[0]
    except ModelError as exc:
        post, label = None, f"error: {exc}"
    if gate and label != EPS_LOG_TERMINAL:
        violations.append(
            f"classification: step {i} ({name!r}): surface classifies {label}, "
            f"expected {EPS_LOG_TERMINAL}"
        )
    core = _AuditCore(
        name, rho_before, rho_after, not bad, label, step3_applicable, (pairing, dc * db), step3_ok, post
    )
    return (shadow, (fixed, db), (log, canonical), mr), core


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
        # a start is the chain and the curve T1 meeting its end, or T1 alone
        start = 1 if self.smooth_starts_only else 1 + self.max_chain_length
        if self.max_blowups < start:
            raise ValueError(f"max_blowups {self.max_blowups} is below the {start} blow-ups a start can need")


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
    zero = Fraction(0)
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
        extra = rng.randint(0, config.max_blowups - chain - 1)
        model = _random_blowups(rng, model, [f"T{i + 2}" for i in range(extra)], chain_names)
        if chain:
            model = declare_contracted(model, chain_names)
        start = classify(model, _NO_BOUNDARY, zero)
        if start.total_discrepancy is None or start.total_discrepancy < 0:  # canonical by construction
            raise ModelError(f"trial {trial}: start surface classifies {start.classification}, not canonical")
        canonical_starts += 1
        boundary = QDivisor.from_map({n: rng.choice(grid) for n in model.tracked if n not in model.contracted})
        result = run(MmpState(surface=model, boundary=boundary), MostNegativeFirst(), zero)
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
