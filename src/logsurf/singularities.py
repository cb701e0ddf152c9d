"""Pullbacks, discrepancies, and epsilon-classification of contractions.

All solves are exact and run in integers. Every pullback has one format,
`pulled_back`'s (coef, v, d): integer lists over every row of the model,
K's included, over one denominator d > 0, with d D* = sum coef[i] (row i)
and v[j] = d D*.(row j). Fractions are made only for the values the
public functions return. The classification routines see a surface
through its tracked resolution: the contracted set defines the
singularities, boundary curves contribute their own coefficients, and
everything is compared against the -1 + epsilon thresholds with exact
rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import combinations, compress, count
from math import lcm
from numbers import Rational

from .errors import ModelError, MultiEdgeError
from .lattice import K_ROW, SurfaceModel, _trusted, blow_down_cascade
from .linalg import solve_exact


@total_ordering
class _NegInfinity:
    """Exact negative infinity: below every rational number, equal only to
    itself. It prints as -inf, the spelling `--json` gives it."""

    __slots__ = ()

    def __lt__(self, other):
        if other is self:
            return False
        return True if isinstance(other, Rational) else NotImplemented

    def __repr__(self):
        return "-inf"


NEG_INFINITY = _NegInfinity()

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
        # a Fraction is kept as it is; anything else is made one
        items = tuple(sorted((n, c if type(c) is Fraction else Fraction(c)) for n, c in dict(mapping).items()))
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
class SingularityClass:
    total_discrepancy: Fraction | _NegInfinity | None
    classification: str
    mr_total_discrepancy: Fraction
    mr_classification: str
    epsilon: Fraction


def _check_boundary(model: SurfaceModel, boundary: QDivisor) -> QDivisor:
    """`boundary` checked against `model`, without its zero coefficients: they
    add nothing and may name a contracted curve that a resolution blows down."""
    rows = model._rows
    for name, c in boundary.coefficients:
        if name not in rows:
            raise ModelError(f"boundary names unknown curve {name!r}")
        if c.numerator and name in model.contracted:
            raise ModelError(f"boundary curve {name!r} is contracted; fold it into the pullback instead")
        if not (0 <= c.numerator <= c.denominator):
            raise ModelError(f"boundary coefficient {c} on {name!r} outside [0, 1]")
    return QDivisor(tuple((name, c) for name, c in boundary.coefficients if c.numerator))


def divisor_terms(model: SurfaceModel, divisor: QDivisor) -> list[tuple[int, Fraction]]:
    """A divisor as (row, coefficient) pairs for `pulled_back`."""
    return [(model.row(name), c) for name, c in divisor.coefficients]


def pulled_back(model: SurfaceModel, terms) -> tuple[list[int], list[int], int]:
    """Pullback D* = D + sum x_i E_i of a combination D of rows, orthogonal
    to every contracted E_j, in the package's one pullback format (coef, v,
    d) of `SurfaceModel.pairings`: d D* = sum coef[i] (row i) and v[j] =
    d D*.(row j), integer lists over every row of the model, K's included,
    with d > 0. A D that meets no contracted curve, as with nothing
    contracted, is its own pullback, and no solve is made.

    Otherwise one integer solve for each block of the contracted set
    (`SurfaceModel.contracted_factor`, one or more points of the surface)
    that D meets, against the block's factor in its row order; D* - D is
    zero on every other block. The blocks D meets are looked up by the
    nonzero columns of D's pairing row u in the row->block map
    (`SurfaceModel.block_of`), so no block is tested. With (c, u, du) D's
    own format, a block's solve gives A y = det(A) (-u on its rows), and d
    = det du with det the lcm of the solved blocks' |det(A)|: each y is
    scaled by det / det(A), which also makes it positive where det(A), of
    sign (-1)^size, is negative. Then coef = det c + y on the solved rows
    and v = det u + sum y_i (row of E_i) over the nonzero y_i, each row
    added over its nonzero entries, which C finds, re-checked to be zero on
    every contracted row: O(n (|terms| + s) + s^2 + k), s the solved size.
    For an effective D (curves only, coefficients >= 0) the negativity
    lemma, x >= 0, is checked too. As D*.E_i = 0, the projection formula
    D*.C = D.C* holds for every curve C, so one log pullback L* = K + B +
    sum g_i E_i gives every (K + B).C* = L*.C.
    """
    if model.contracted_factor is None:
        raise ModelError(f"contracted configuration {sorted(model.contracted)} is not negative definite")
    coef, u, du = model.pairings(terms)
    block_of = model.block_of
    met = {id(b): b for b in filter(None, map(block_of.get, compress(count(), u)))}
    if not met:
        return coef, u, du
    solved, det = [], 1
    for rows, lu in met.values():
        y, block_det = solve_exact(lu, [-u[r] for r in rows])
        solved.append((rows, y, block_det))
        det = lcm(det, block_det)
    rows = [r for block, _, _ in solved for r in block]
    y = [yi * (det // block_det) for _, ys, block_det in solved for yi in ys]
    v = [det * a for a in u]
    for r, yi in zip(rows, y):
        if yi:  # by symmetry, row r's nonzero entries are column r's
            row = model.matrix[r]
            for j in compress(count(), row):
                v[j] += yi * row[j]
    if any(map(v.__getitem__, block_of)):
        off = min(model.names[r - 1] for r in block_of if v[r])
        raise ModelError(f"solved pullback is not orthogonal to {off!r}; model inconsistent")
    if min(y) < 0 and all(r != K_ROW and c >= 0 for r, c in terms):
        raise ModelError("negativity lemma violated; model inconsistent")
    coef = [det * c for c in coef]
    for r, yi in zip(rows, y):
        coef[r] += yi
    return coef, v, det * du


def pullback(model: SurfaceModel, divisor: QDivisor) -> QDivisor:
    """Numerical pullback coefficients c_i with (D + sum c_i E_i).E_j = 0.

    The divisor must be supported away from the contracted set. Effective
    divisors get non-negative coefficients; `pulled_back` re-checks that
    sign on the solution. A hand-built model is validated first.
    """
    model = _trusted(model)
    for name in divisor.names:
        if name not in model.names:
            raise ModelError(f"divisor names unknown curve {name!r}")
        if name in model.contracted:
            raise ModelError(f"divisor curve {name!r} is contracted")
    coef, _, d = pulled_back(model, divisor_terms(model, divisor))
    return QDivisor(tuple([(name, Fraction(coef[model.row(name)], d)) for name in sorted(model.contracted)]))


def _log_numerators(model: SurfaceModel, boundary: QDivisor) -> tuple[list[int], list[int]]:
    """The one log pullback solve, L* = K + boundary + sum g_i E_i, in
    `pulled_back`'s format without its d, which is coef[K_ROW]: (coef, v)
    over every row of the model, so a curve's coefficient in L* is its
    coef entry over d and its pairing with L* its v entry over d.
    `pulled_back` clears each boundary denominator into d, so a boundary
    coefficient c is c.numerator (d // c.denominator). The boundary is not
    checked here; a checked one has no zero coefficient. A contraction run
    solves it twice, for K + B and for K on its start surface
    (`mmp._start`); its audit carries both from step to step by a rank-one
    update through each step's C* solve (`mmp._moved`)."""
    coef, v, _ = pulled_back(model, [(K_ROW, 1)] + divisor_terms(model, boundary))
    return coef, v


def log_discrepancies(model: SurfaceModel, boundary: QDivisor) -> QDivisor:
    """The discrepancies a_i = -g_i of the contracted curves, where g_i
    make (K + boundary strict transform + sum g_i E_i).E_j = 0 for every
    contracted E_j, read off `_log_numerators`.
    """
    model = _trusted(model)
    coef, _ = _log_numerators(model, _check_boundary(model, boundary))
    d = coef[K_ROW]
    return QDivisor(tuple([(name, Fraction(-coef[model.row(name)], d)) for name in sorted(model.contracted)]))


def minimal_resolution(model: SurfaceModel) -> SurfaceModel:
    """Blow down contracted (-1)-curves until none remain.

    Each round takes the first contracted (-1)-curve in name order, so the
    result is deterministic: the same surface through its minimal
    desingularization. One pass, one validation: see
    `lattice.blow_down_cascade` for why no check is lost.
    """
    return blow_down_cascade(model, sorted(model.contracted))


def _snc_total(numerators: list[int], d: int, edges) -> int | None:
    """Numerator over d of the SNC total discrepancy of vertices with
    coefficients n / d, joined by `edges`, ((a, b), intersection) pairs
    of distinct vertices: min(d, -n_i). None stands for NEG_INFINITY,
    any n_i > d. An edge of multiplicity 2 or more raises MultiEdgeError,
    before any coefficient is looked at.

    An edge's own term d - n_a - n_b never lowers the minimum: with every
    n_i <= d it is at least -max(n_a, n_b), a vertex term."""
    for (a, b), k in edges:
        if k >= 2:
            raise MultiEdgeError(f"multiple intersection points between {a!r} and {b!r}")
    if any(n > d for n in numerators):
        return None
    return min([d] + [-n for n in numerators])


def total_discrepancy_snc(coefficients, edges) -> Fraction | _NegInfinity:
    """Total discrepancy of a simple normal crossing configuration.

    `coefficients` maps vertex name -> coefficient b (so the discrepancy
    of the vertex itself is -b); `edges` lists transverse intersection
    points as name pairs. Any coefficient above 1 sinks the total to
    NEG_INFINITY, which is exact, not a float. Otherwise node blow-ups can only produce
    coefficients b_i + b_j - 1 and deeper candidates never undercut the
    first level, so the total is
    min(1, min_i(-b_i), min over edges (1 - b_i - b_j)), in which no edge
    term undercuts its worse vertex. The coefficients are put over one
    denominator and handed to the integer rule `classify` uses.
    """
    coeffs = {name: Fraction(c) for name, c in dict(coefficients).items()}
    counts = Counter()
    for a, b in edges:
        if a == b:
            raise MultiEdgeError(f"vertex {a!r} meets itself; not simple normal crossing")
        if a not in coeffs or b not in coeffs:
            raise ModelError("edge endpoint is not a vertex")
        counts[tuple(sorted((a, b)))] += 1
    d = lcm(*(c.denominator for c in coeffs.values()))
    numerators = [c.numerator * (d // c.denominator) for c in coeffs.values()]
    total = _snc_total(numerators, d, counts.items())
    return NEG_INFINITY if total is None else Fraction(total, d)


def _threshold_label(total: int | None, d: int, epsilon) -> str:
    """The label of the total total / d (None: NEG_INFINITY) against the bar
    -1 + epsilon, compared in integers after scaling both by
    epsilon.denominator d."""
    if total is None:
        return NOT_LOG_CANONICAL
    lhs = total * epsilon.denominator
    bar = (epsilon.numerator - epsilon.denominator) * d
    if lhs > bar:
        return EPS_LOG_TERMINAL
    if lhs == bar:
        return EPS_LOG_CANONICAL
    return NOT_LOG_CANONICAL


def _labelled(mr: SurfaceModel, terms, d: int, epsilon) -> tuple[str, int | None, int, int]:
    """`classify`'s integer core on a resolved model, given its log
    pullback's coefficients as (row of `mr`, numerator over d > 0) pairs,
    one for each contracted and boundary curve of `mr`: (label, total,
    mr_total, d). The MR total is min(d, -n_i) and the SNC total
    `_snc_total`'s over the edges between those rows, None for
    NEG_INFINITY or, labelled UNCLASSIFIABLE_SNC, for a multi-edge
    configuration. Both scale with d, so any common denominator gives the
    same label. `epsilon` is a Fraction, range-checked here."""
    if not (0 <= epsilon.numerator <= epsilon.denominator):
        raise ModelError(f"epsilon {epsilon} outside [0, 1]")
    numerators = [n for _, n in terms]
    mr_total = min([d] + [-n for n in numerators])
    m = mr.matrix
    edges = [((i, j), m[i][j]) for (i, _), (j, _) in combinations(terms, 2)]
    try:
        total = _snc_total(numerators, d, edges)
    except MultiEdgeError:
        return UNCLASSIFIABLE_SNC, None, mr_total, d
    return _threshold_label(total, d, epsilon), total, mr_total, d


def _classified(mr: SurfaceModel, boundary: QDivisor, epsilon) -> tuple[str, int | None, int, int]:
    """`_labelled` on `mr`'s own log pullback solve; the boundary is not checked."""
    coef, _ = _log_numerators(mr, boundary)
    rows = [mr.row(name) for name in (*boundary.names, *mr.contracted)]
    return _labelled(mr, [(r, coef[r]) for r in rows], coef[K_ROW], epsilon)


@lru_cache(maxsize=256)
def _singularity_class(core: tuple[str, int | None, int, int], epsilon: Fraction) -> SingularityClass:
    """The `SingularityClass` of a label core's integers (`_labelled`),
    made Fractions. The record is frozen and a run's surfaces share a
    handful of cores, so each (core, epsilon) is made once."""
    label, total, mr_total, d = core
    if total is not None:
        total = Fraction(total, d)
    elif label != UNCLASSIFIABLE_SNC:
        total = NEG_INFINITY
    return SingularityClass(
        total_discrepancy=total,
        classification=label,
        mr_total_discrepancy=Fraction(mr_total, d),
        mr_classification=_threshold_label(mr_total, d, epsilon),
        epsilon=epsilon,
    )


def classify(model: SurfaceModel, boundary: QDivisor, epsilon) -> SingularityClass:
    """Epsilon-classification of the modeled pair, total and MR variants.

    Works on the minimal resolution: exceptional coefficients come from the
    log pullback there, boundary curves keep their own, and the total
    discrepancy is the SNC minimum over that configuration. A multi-edge
    configuration is unclassifiable (total None); the MR numbers are still
    exact. Every comparison runs in integers (`_labelled`), and a
    rational SNC total equals the MR total (see `_snc_total`). The
    boundary is checked once, on `model`: a curve with a nonzero
    coefficient is never contracted, so the resolution keeps it.
    """
    epsilon = Fraction(epsilon)
    boundary = _check_boundary(model, boundary)
    return _singularity_class(_classified(minimal_resolution(model), boundary, epsilon), epsilon)
