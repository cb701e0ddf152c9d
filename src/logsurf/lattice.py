"""Surface models as intersection matrices of iterated blow-ups of the plane.

A model is the numerical shadow of a rational surface: one symmetric integer
matrix holding every intersection number of the canonical class K and a set
of named tracked curves, plus a subset of tracked curves declared contracted
(the exceptional set of a map to a normal, possibly singular, surface).

Row and column 0 belong to K; row i belongs to the i-th tracked curve. A
blow-up appends a row and a blow-down is a sparse rank-one update, so no
ambient coordinates are ever needed: every number the package uses is an
entry of the matrix or a linear combination of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm

from .errors import ModelError, NotNegativeDefiniteError
from .linalg import extend_factor, negative_definite_factor

GENERAL = "general"
ON_CURVE = "on_curve"
AT_INTERSECTION = "at_intersection"

K_ROW = 0


@dataclass(frozen=True)
class PointSpec:
    """Where a blow-up center sits relative to the tracked curves."""

    kind: str
    names: tuple[str, ...] = ()

    def __post_init__(self):
        expected = {GENERAL: 0, ON_CURVE: 1, AT_INTERSECTION: 2}.get(self.kind)
        if expected is None:
            raise ModelError(f"unknown point kind {self.kind!r}")
        if len(self.names) != expected:
            raise ModelError(f"point kind {self.kind!r} needs {expected} curve names, got {len(self.names)}")

    @classmethod
    def general(cls) -> "PointSpec":
        return cls(GENERAL, ())

    @classmethod
    def on_curve(cls, name: str) -> "PointSpec":
        return cls(ON_CURVE, (name,))

    @classmethod
    def at_intersection(cls, a: str, b: str) -> "PointSpec":
        if a == b:
            raise ModelError("intersection point needs two distinct curves")
        return cls(AT_INTERSECTION, (a, b))


@dataclass(frozen=True)
class SurfaceModel:
    """Tracked intersection data of a rational surface.

    `matrix` is the symmetric intersection matrix of (K, names[0], ...,
    names[-1]). `rank` is the Picard rank of the smooth surface carrying the
    tracked curves, so K.K = 10 - rank. `contracted` names the tracked
    curves collapsed by the map to the modeled surface; an empty set means
    the surface itself is smooth.
    """

    rank: int
    names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    contracted: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "_rows", {n: i for i, n in enumerate(self.names, 1)})

    @property
    def k_squared(self) -> int:
        return self.matrix[K_ROW][K_ROW]

    @property
    def tracked(self) -> tuple[str, ...]:
        return tuple(sorted(self.names))

    def row(self, name: str) -> int:
        try:
            return self._rows[name]
        except KeyError:
            raise ModelError(f"unknown curve {name!r}") from None

    def intersection(self, a: str, b: str) -> int:
        return self.matrix[self.row(a)][self.row(b)]

    def self_int(self, name: str) -> int:
        i = self.row(name)
        return self.matrix[i][i]

    def k_dot(self, name: str) -> int:
        return self.matrix[K_ROW][self.row(name)]

    def genus(self, name: str) -> Fraction:
        """Arithmetic genus by adjunction: 1 + (C.C + K.C)/2, always exact."""
        return Fraction(1) + Fraction(self.self_int(name) + self.k_dot(name), 2)

    def gram(self, names) -> list[list[int]]:
        rows = [self.row(n) for n in names]
        return [[self.matrix[i][j] for j in rows] for i in rows]

    @cached_property
    def contracted_factor(self) -> tuple[tuple[str, ...], list[list[int]]] | None:
        """(order, factor): the Sylvester elimination of the contracted Gram
        block, curves in `order`, which every solve over the contracted set
        substitutes against. From scratch the order is name order; a model
        from `declare_contracted` borders its parent's factor, so its order
        is the parent's and then the new curves sorted, in general not name
        order. None when the block is not negative definite."""
        order = tuple(sorted(self.contracted))
        factor = negative_definite_factor(self.gram(order))
        return None if factor is None else (order, factor)

    def pairings(self, terms) -> tuple[list[int], int]:
        """Row (v, d) of a rational combination of rows, given as (row,
        coefficient) pairs with K_ROW for K: v[j] / d is its pairing with row
        j. Denominators are cleared once; v is an integer sum of rows."""
        d = lcm(*(c.denominator for _, c in terms))
        v = [0] * len(self.matrix)
        for i, c in terms:
            a = c.numerator * (d // c.denominator)
            v = [x + a * y for x, y in zip(v, self.matrix[i])]
        return v, d


def _frozen(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    # tuple() of a list allocates the exact size; tuple() of a generator
    # grows from a guess and strands CPython's per-size tuple free lists
    return tuple([tuple(row) for row in rows])


def _validated(model: SurfaceModel) -> SurfaceModel:
    names = model.names
    m = model.matrix
    size = len(names) + 1
    if len(model._rows) != len(names):
        raise ModelError("tracked curve names repeat")
    if len(m) != size or any(len(row) != size for row in m):
        raise ModelError(f"intersection matrix is not {size} x {size}")
    # whole-matrix checks first; the entry loop only runs to name a failure
    if m != tuple(zip(*m)) or set(map(type, chain.from_iterable(m))) != {int}:
        for i in range(size):
            for j in range(i, size):
                if type(m[i][j]) is not int or type(m[j][i]) is not int or m[i][j] != m[j][i]:
                    raise ModelError(f"intersection matrix is not a symmetric integer matrix at ({i}, {j})")
    if model.rank < 1:
        raise ModelError(f"rank {model.rank} < 1")
    if model.k_squared != 10 - model.rank:
        raise ModelError(f"K.K = {model.k_squared} but rank {model.rank} needs {10 - model.rank}")
    for i, name in enumerate(names, 1):
        if m[i][i] + m[K_ROW][i] != -2:
            raise ModelError(f"curve {name!r} is not a smooth rational class (genus != 0)")
        if min(m[i][i + 1 :], default=0) < 0:
            j = next(j for j in range(i + 1, size) if m[i][j] < 0)
            raise ModelError(
                f"tracked curves {name!r} and {names[j - 1]!r} have negative intersection"
            )
    stray = model.contracted - set(names)
    if stray:
        raise ModelError(f"contracted names not tracked: {sorted(stray)}")
    return _contracted_checked(model)


def _contracted_checked(model: SurfaceModel) -> SurfaceModel:
    """The contracted-set checks of `_validated`, in order. A model that
    passes is marked `_checked`, an attribute that is not a dataclass field,
    so equality, hash and repr ignore it."""
    contracted = sorted(model.contracted)
    for name in contracted:
        if model.self_int(name) >= 0:
            raise NotNegativeDefiniteError(
                f"contracted curve {name!r} has self-intersection {model.self_int(name)} >= 0"
            )
    if model.contracted_factor is None:
        raise NotNegativeDefiniteError(
            f"contracted configuration {contracted} is not negative definite"
        )
    if len(contracted) > model.rank - 1:  # Hodge index: signature (1, rank - 1)
        raise NotNegativeDefiniteError(
            f"contracted configuration {contracted} spans {len(contracted)} negative directions; "
            f"rank {model.rank} allows at most {model.rank - 1}"
        )
    object.__setattr__(model, "_checked", True)
    return model


def _bordered(model: SurfaceModel, factor):
    """`factor` (order, rows) bordered, O(k^2) a row, by each contracted curve
    of `model` it lacks, sorted; None once negative definiteness fails."""
    order, rows = factor
    m = model.matrix
    for name in sorted(model.contracted.difference(order)):
        i = model.row(name)
        rows = extend_factor(rows, [m[i][model.row(o)] for o in order] + [m[i][i]])
        if rows is None:
            return None
        order += (name,)
    return order, rows


def new_projective_plane() -> SurfaceModel:
    """The plane: rank 1, K.K = 9, nothing tracked."""
    return _validated(SurfaceModel(rank=1, names=(), matrix=((9,),)))


def blow_up(model: SurfaceModel, point: PointSpec, exc_name: str) -> SurfaceModel:
    """Blow up a point, appending the exceptional curve E as a new row.

    Every old row R becomes R + s_R E, with s_K = +1 (K' = K + E), s_C = -1
    for the curves named in the point spec (strict transforms) and 0
    otherwise. So the old block loses s s^T, E pairs with R as -s_R, and
    E.E = -1. Only smooth models (empty contracted set) may be blown up.
    """
    if model.contracted:
        raise ModelError("cannot blow up a model with contracted curves")
    if exc_name in model._rows:
        raise ModelError(f"curve name {exc_name!r} already tracked")
    for n in point.names:
        if n not in model._rows:
            raise ModelError(f"unknown curve {n!r} in blow-up point")
    if point.kind == AT_INTERSECTION:
        a, b = point.names
        if model.intersection(a, b) < 1:
            raise ModelError(f"curves {a!r} and {b!r} do not meet; no intersection to blow up")
    through = {model.row(n) for n in point.names}
    s = [1] + [-1 if i in through else 0 for i in range(1, len(model.matrix))]
    rows = [[x - si * sj for x, sj in zip(row, s)] + [-si] for row, si in zip(model.matrix, s)]
    rows.append([-si for si in s] + [-1])
    return _validated(
        SurfaceModel(rank=model.rank + 1, names=model.names + (exc_name,), matrix=_frozen(rows))
    )


def blow_down(model: SurfaceModel, exc_name: str) -> SurfaceModel:
    """Contract a (-1)-curve e to a smooth point: every other row D, K included,
    becomes D + (D.e)e, e's row and column go, and the rank drops by one."""
    if model.self_int(exc_name) != -1 or model.k_dot(exc_name) != -1:
        raise ModelError(f"{exc_name!r} is not a (-1)-curve; cannot blow down")
    return blow_down_cascade(model, [exc_name])


def blow_down_cascade(model: SurfaceModel, names) -> SurfaceModel:
    """Blow down the first of `names` with C.C = K.C = -1 in the current
    matrix, again and again until none is left; `model` itself if none is.

    One pass, in place, on a copy of the matrix. Blowing down e is the
    update M + g g^T with g the column of e: only entries where g_i and g_j
    are both nonzero move (K, e and the curves meeting e), and e's row and
    column become zero, so e is never picked again. Only the result goes
    through `_validated`; for a validated input no check is lost. The update
    projects onto e-perp: K.K and the rank move together, the matrix stays
    symmetric and integral, entries between curves only grow (by
    (D.e)(D'.e) >= 0), and the contracted block left is the Schur complement
    of e.e = -1 in a negative definite block. A round can newly break only
    genus, as C.C + K.C of D moves by (D.e)(D.e - 1), or rank 1; the first
    round that does ends the pass, and `_validated` then fails with the
    message that blowing down one model at a time gives.
    """
    rows = [list(row) for row in model.matrix]
    order = [model.row(n) for n in names]
    dropped = []
    while (e := next((i for i in order if rows[i][i] == rows[K_ROW][i] == -1), None)) is not None:
        dropped.append(e)
        g = [(i, x) for i, x in enumerate(rows[e]) if x]
        for i, gi in g:
            row = rows[i]
            for j, gj in g:
                row[j] += gi * gj
        broken = any(rows[i][i] + rows[K_ROW][i] != -2 for i, _ in g if i not in (K_ROW, e))
        if broken or len(dropped) == model.rank:
            break
    if not dropped:
        return model
    keep = [i for i in range(len(rows)) if i not in dropped]
    return _validated(
        SurfaceModel(
            rank=model.rank - len(dropped),
            names=tuple([model.names[i - 1] for i in keep[1:]]),
            matrix=_frozen([[rows[i][j] for j in keep] for i in keep]),
            contracted=model.contracted.difference(model.names[i - 1] for i in dropped),
        )
    )


def declare_contracted(model: SurfaceModel, names) -> SurfaceModel:
    """Extend the contracted set, validating Artin contractibility.

    The new model keeps `model`'s rank, names and matrix tuple, all that the
    matrix checks of `_validated` read, so for a model that came out of
    `_validated` they cannot change outcome and are skipped. Only the
    contracted-set checks run again, in `_validated`'s order and with its
    messages, and the Sylvester test borders `model`'s factor with one row
    per new curve. A model never validated gets the whole of `_validated`.
    """
    names = frozenset(names)
    unknown = names - set(model.names)
    if unknown:
        raise ModelError(f"cannot contract unknown curves: {sorted(unknown)}")
    extended = replace(model, contracted=model.contracted | names)
    if not getattr(model, "_checked", False):
        return _validated(extended)
    # seed the cached_property; the frozen dataclass forbids setattr
    extended.__dict__["contracted_factor"] = _bordered(extended, model.contracted_factor)
    return _contracted_checked(extended)
