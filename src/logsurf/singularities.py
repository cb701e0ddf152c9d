"""Pullbacks, discrepancies, and epsilon-classification of contractions.

All solves are exact. The classification routines see a surface through its
tracked resolution: the contracted set defines the singularities, boundary
curves contribute their own coefficients, and everything is compared against
the -1 + epsilon thresholds with exact rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelError, MultiEdgeError
from .lattice import K_ROW, SurfaceModel, blow_down_cascade
from .linalg import solve_exact

NEG_INFINITY = float("-inf")

EPS_LOG_TERMINAL = "eps-log-terminal"
EPS_LOG_CANONICAL = "eps-log-canonical"
NOT_LOG_CANONICAL = "not-log-canonical"
UNCLASSIFIABLE_SNC = "unclassifiable-snc"


@dataclass(frozen=True)
class QDivisor:
    """A rational divisor supported on named tracked curves.

    Entries are kept name-sorted; explicit zero coefficients are allowed and
    ignored by `support`.
    """

    coefficients: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        names = [n for n, _ in self.coefficients]
        if names != sorted(names) or len(names) != len(set(names)):
            raise ValueError(f"divisor names must be sorted and distinct: {names}")
        if not all(isinstance(c, Fraction) for _, c in self.coefficients):
            raise ValueError("divisor coefficients must be Fractions")

    @classmethod
    def from_map(cls, mapping) -> "QDivisor":
        items = tuple(sorted((n, Fraction(c)) for n, c in dict(mapping).items()))
        return cls(items)

    @classmethod
    def zero(cls) -> "QDivisor":
        return cls(())

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.coefficients:
            if n == name:
                return c
        return Fraction(0)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coefficients)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(n for n, c in self.coefficients if c != 0)

    def as_map(self) -> dict[str, Fraction]:
        return dict(self.coefficients)

    def without(self, name: str) -> "QDivisor":
        return QDivisor(tuple((n, c) for n, c in self.coefficients if n != name))


@dataclass(frozen=True)
class LogPullback:
    """Exceptional data of a log pullback over the contracted set.

    boundary_part holds the coefficients g_i making
    K + (boundary strict transform) + sum g_i E_i orthogonal to every
    contracted E_j; discrepancies are their negatives.
    """

    boundary_part: QDivisor
    discrepancies: QDivisor


@dataclass(frozen=True)
class SingularityClass:
    total_discrepancy: Fraction | float | None
    classification: str
    mr_total_discrepancy: Fraction
    mr_classification: str
    epsilon: Fraction


def _check_boundary(model: SurfaceModel, boundary: QDivisor) -> None:
    for name, c in boundary.coefficients:
        if name not in model.names:
            raise ModelError(f"boundary names unknown curve {name!r}")
        if name in model.contracted and c != 0:
            raise ModelError(f"boundary curve {name!r} is contracted; fold it into the pullback instead")
        if not (0 <= c <= 1):
            raise ModelError(f"boundary coefficient {c} on {name!r} outside [0, 1]")


def divisor_terms(model: SurfaceModel, divisor: QDivisor) -> list[tuple[int, Fraction]]:
    """A divisor as (row, coefficient) pairs for SurfaceModel.pairings."""
    return [(model.row(name), c) for name, c in divisor.coefficients]


def pulled_back(model: SurfaceModel, terms) -> tuple[list[Fraction], list[int], int]:
    """Pullback D* = D + sum x_i E_i of a combination D of rows, orthogonal
    to every contracted E_j: x (curves in name order) and the row (v, d) of
    D*. With nothing contracted, x is [] and (v, d) is the row of D.

    The solve substitutes against the model's one factorization of the
    contracted block, in the factor's own curve order; orthogonality is
    re-checked in integers on v. As D*.E_i = C*.E_i = 0, the projection
    formula D*.C = D.C* holds for every curve C, so one log pullback
    L* = K + B + sum g_i E_i gives every (K + B).C* = L*.C.
    """
    factor = model.contracted_factor
    if factor is None:
        raise ModelError(f"contracted configuration {sorted(model.contracted)} is not negative definite")
    order, lu = factor
    u, du = model.pairings(terms)
    if not order:
        return [], u, du
    rows = [model.row(e) for e in order]
    y = solve_exact(lu, [Fraction(-u[r], du) for r in rows])
    v, d = model.pairings(terms + list(zip(rows, y)))
    by_name = sorted(zip(order, rows, y))
    for e, r, _ in by_name:
        if v[r]:
            raise ModelError(f"solved pullback is not orthogonal to {e!r}; model inconsistent")
    return [x for _, _, x in by_name], v, d


def pullback(model: SurfaceModel, divisor: QDivisor) -> QDivisor:
    """Numerical pullback coefficients c_i with (D + sum c_i E_i).E_j = 0.

    The divisor must be supported away from the contracted set. Effective
    divisors get non-negative coefficients; that sign is re-checked on the
    solution.
    """
    for name in divisor.names:
        if name not in model.names:
            raise ModelError(f"divisor names unknown curve {name!r}")
        if name in model.contracted:
            raise ModelError(f"divisor curve {name!r} is contracted")
    coeffs, _, _ = pulled_back(model, divisor_terms(model, divisor))
    if all(c >= 0 for _, c in divisor.coefficients) and any(c < 0 for c in coeffs):
        raise ModelError("negativity lemma violated; model inconsistent")
    return QDivisor(tuple(zip(sorted(model.contracted), coeffs)))


def log_discrepancies(model: SurfaceModel, boundary: QDivisor) -> LogPullback:
    """Solve for the exceptional part of the log pullback.

    Finds g_i with (K + boundary strict transform + sum g_i E_i).E_j = 0
    for every contracted E_j, and returns both g_i and the discrepancies
    a_i = -g_i.
    """
    _check_boundary(model, boundary)
    exceptional = sorted(model.contracted)
    g, _, _ = pulled_back(model, [(K_ROW, 1)] + divisor_terms(model, boundary))
    boundary_part = QDivisor(tuple(zip(exceptional, g)))
    discrepancies = QDivisor(tuple((n, -gi) for n, gi in zip(exceptional, g)))
    return LogPullback(boundary_part=boundary_part, discrepancies=discrepancies)


def log_coefficients(model: SurfaceModel, boundary: QDivisor) -> dict[str, Fraction]:
    """Coefficients of the log pullback of the modeled pair: boundary curves
    keep their nonzero coefficients, contracted curves get their solved g_i."""
    out = {name: c for name, c in boundary.coefficients if c}
    out.update(log_discrepancies(model, boundary).boundary_part.coefficients)
    return out


def minimal_resolution(model: SurfaceModel) -> SurfaceModel:
    """Blow down contracted (-1)-curves until none remain.

    Each round takes the first contracted (-1)-curve in name order, so the
    result is deterministic: the same surface through its minimal
    desingularization. One pass, one validation: see
    `lattice.blow_down_cascade` for why no check is lost.
    """
    return blow_down_cascade(model, sorted(model.contracted))


def total_discrepancy_snc(coefficients, edges) -> Fraction | float:
    """Total discrepancy of a simple normal crossing configuration.

    `coefficients` maps vertex name -> coefficient b (so the discrepancy
    of the vertex itself is -b); `edges` lists transverse intersection
    points as name pairs. Any coefficient above 1 sinks the total to
    negative infinity. Otherwise node blow-ups can only produce
    coefficients b_i + b_j - 1 and deeper candidates never undercut the
    first level, so the total is
    min(1, min_i(-b_i), min over edges (1 - b_i - b_j)).
    """
    b = {name: Fraction(c) for name, c in dict(coefficients).items()}
    counts = Counter()
    for a, d in edges:
        if a == d:
            raise MultiEdgeError(f"vertex {a!r} meets itself; not simple normal crossing")
        if a not in b or d not in b:
            raise ModelError("edge endpoint is not a vertex")
        counts[tuple(sorted((a, d)))] += 1
    multi = [pair for pair, k in counts.items() if k >= 2]
    if multi:
        raise MultiEdgeError(f"multiple intersection points between {multi[0][0]!r} and {multi[0][1]!r}")
    if any(c > 1 for c in b.values()):
        return NEG_INFINITY
    best = Fraction(1)
    for c in b.values():
        best = min(best, -c)
    for a, d in counts:
        best = min(best, 1 - b[a] - b[d])
    return best


def _threshold_label(total, epsilon: Fraction) -> str:
    bar = Fraction(-1) + epsilon
    if total > bar:
        return EPS_LOG_TERMINAL
    if total == bar:
        return EPS_LOG_CANONICAL
    return NOT_LOG_CANONICAL


def classify(model: SurfaceModel, boundary: QDivisor, epsilon) -> SingularityClass:
    """Epsilon-classification of the modeled pair, total and MR variants.

    Works on the minimal resolution: exceptional coefficients come from the
    log pullback there, boundary curves contribute their own coefficients,
    and the total discrepancy is the SNC minimum over that configuration.
    A multi-edge configuration cannot be treated as simple normal crossing
    and comes back unclassifiable (total None); the MR numbers are still
    exact.
    """
    epsilon = Fraction(epsilon)
    if not (0 <= epsilon <= 1):
        raise ModelError(f"epsilon {epsilon} outside [0, 1]")
    _check_boundary(model, boundary)
    mr = minimal_resolution(model)
    coefficients = log_coefficients(mr, boundary)
    mr_total = min([-c for c in coefficients.values()] + [Fraction(1)])
    vertex_names = sorted(coefficients)
    edges = []
    for i, a in enumerate(vertex_names):
        for d in vertex_names[i + 1 :]:
            edges.extend([(a, d)] * mr.intersection(a, d))
    try:
        total = total_discrepancy_snc(coefficients, edges)
    except MultiEdgeError:
        return SingularityClass(
            total_discrepancy=None,
            classification=UNCLASSIFIABLE_SNC,
            mr_total_discrepancy=mr_total,
            mr_classification=_threshold_label(mr_total, epsilon),
            epsilon=epsilon,
        )
    if total > mr_total:  # the total ranges over strictly more divisors
        raise ModelError(f"total discrepancy {total} exceeds the MR total {mr_total}; model inconsistent")
    return SingularityClass(
        total_discrepancy=total,
        classification=_threshold_label(total, epsilon),
        mr_total_discrepancy=mr_total,
        mr_classification=_threshold_label(mr_total, epsilon),
        epsilon=epsilon,
    )
