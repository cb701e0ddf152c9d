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

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, count
from math import lcm
from operator import is_not, itemgetter

from .errors import ModelError, NotNegativeDefiniteError
from .linalg import extend_factor, negative_definite_factor

GENERAL = "general"
ON_CURVE = "on_curve"
AT_INTERSECTION = "at_intersection"

K_ROW = 0


class _lazy:
    """`functools.cached_property` without its per-instance lock, which
    Python 3.10 and 3.11 take on each first read: the first read computes
    the value into the instance's __dict__, where every later read finds
    it, and a builder may seed that entry instead."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, model, owner=None):
        if model is None:
            return self
        value = model.__dict__[self.name] = self.fn(model)
        return value


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

    The row index `_rows`, the contracted blocks, their row->block map and
    the nonzero pattern are computed on first read (`_lazy`), not at
    construction, and a builder seeds what it already has:
    `declare_contracted` passes on its parent's row index and scanned
    pattern and the parent's blocks and map with the new curves added, and
    `blow_up` and an emptying `blow_down_cascade` their empty tuple of
    blocks.
    """

    rank: int
    names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    contracted: frozenset[str] = frozenset()

    @_lazy
    def _rows(self) -> dict[str, int]:
        """Each tracked name's row."""
        return {n: i for i, n in enumerate(self.names, 1)}

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

    @_lazy
    def contracted_factor(self) -> tuple[tuple[tuple[int, ...], list[list[int]]], ...] | None:
        """The contracted set in blocks, each (rows, factor): the rows of a
        union of connected components of the contracted set, so of one or
        more points of the surface, and the Sylvester elimination of their
        Gram block in that order, which every solve over the block
        substitutes against. No curve of one block meets a curve of
        another, so the contracted Gram matrix is negative definite iff
        every block's is. From scratch there is one block, in name order;
        `declare_contracted` adds each new curve to its parent's blocks
        (`_bordered`). None when the contracted Gram matrix is not negative
        definite."""
        order = sorted(self.contracted)
        factor = negative_definite_factor(self.gram(order))
        return None if factor is None else ((tuple(map(self.row, order)), factor),) if order else ()

    @_lazy
    def block_of(self) -> dict[int, tuple[tuple[int, ...], list[list[int]]]]:
        """Each contracted row's block of `contracted_factor`, which must not
        be None: the blocks that a combination of rows meets are looked up
        by its nonzero columns, and no block is tested."""
        return {r: block for block in self.contracted_factor for r in block[0]}

    @_lazy
    def nonzeros(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Row i's nonzero entries as (columns, values), columns ascending:
        a sum over a column reads only these, O(degree) and not O(n)."""
        return tuple((tuple(compress(count(), row)), tuple(filter(None, row))) for row in self.matrix)

    def pairings(self, terms) -> tuple[list[int], list[int], int]:
        """A rational combination D of rows, given as (row, coefficient)
        pairs with K_ROW for K, in the package's one pullback format (coef,
        v, d): d D = sum coef[i] (row i) and v[j] = d D.(row j), both over
        every row, with d > 0. Denominators are cleared once."""
        d = lcm(*(c.denominator for _, c in terms))
        coef, v = [0] * len(self.matrix), [0] * len(self.matrix)
        for i, c in terms:
            a = c.numerator * (d // c.denominator)
            coef[i] += a
            v = [x + a * y for x, y in zip(v, self.matrix[i])]
        return coef, v, d


def _picker(idx):
    """`operator.itemgetter(*idx)`, which runs in C, but a tuple for one or no index too."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return (lambda row: (row[idx[0]],)) if idx else (lambda row: ())


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
    return _contracted_checked(model, model.contracted)


def _contracted_checked(model: SurfaceModel, new) -> SurfaceModel:
    """The contracted-set checks of `_validated`, in order, reading C.C only
    for the `new` curves; the caller knows the others are negative. A passing
    model is marked `_checked`, not a field, so ==, hash and repr ignore it."""
    for name in sorted(new):
        if model.self_int(name) >= 0:
            raise NotNegativeDefiniteError(
                f"contracted curve {name!r} has self-intersection {model.self_int(name)} >= 0"
            )
    if model.contracted_factor is None:
        raise NotNegativeDefiniteError(
            f"contracted configuration {sorted(model.contracted)} is not negative definite"
        )
    if len(model.contracted) > model.rank - 1:  # Hodge index: signature (1, rank - 1)
        raise NotNegativeDefiniteError(
            f"contracted configuration {sorted(model.contracted)} spans {len(model.contracted)} negative "
            f"directions; rank {model.rank} allows at most {model.rank - 1}"
        )
    object.__setattr__(model, "_checked", True)
    return model


def _trusted(model: SurfaceModel) -> SurfaceModel:
    """The builders' one entry check: `model`, validated unless `_checked`."""
    return model if getattr(model, "_checked", False) else _validated(model)


def _merged(blocks) -> tuple[tuple[int, ...], list[list[int]]]:
    """One block of `blocks`, in their order. A fraction-free factor of a
    block-diagonal matrix has zeros off the blocks and each block's own
    factor scaled by the determinants, its last pivots, of the blocks
    before it: O(s^2) in the merged size s."""
    rows, factor, scale = (), [], 1
    size = sum(len(r) for r, _ in blocks)
    for r, f in blocks:
        before, after = [0] * len(rows), [0] * (size - len(rows) - len(r))
        factor += [before + [scale * x for x in row] + after for row in f]
        rows += r
        scale *= f[-1][-1]
    return rows, factor


def _bordered(model: SurfaceModel, names):
    """`model`'s blocks with the curves `names` added in turn, and the
    result's row->block map (`SurfaceModel.block_of`); (None, None) once
    negative definiteness fails. A curve's blocks are looked up in the map
    by its row's nonzero columns, O(n) in C and O(degree) in Python, so no
    block is tested: those it meets merge (`_merged`, in the order of the
    first column that meets each; none gives the empty block) and leave the
    tuple, picked out by identity in C, and the result, bordered by the
    curve's row through `extend_factor`, O(s^2), goes last. Only the new
    block's rows are written into the map, a copy of `model`'s."""
    blocks, block_of = model.contracted_factor, dict(model.block_of)
    for name in names:
        i = model.row(name)
        row = model.matrix[i]
        met = list({id(b): b for b in filter(None, map(block_of.get, compress(count(), row)))}.values())
        rows, factor = met[0] if len(met) == 1 else _merged(met)
        factor = extend_factor(factor, [row[r] for r in rows] + [row[i]])
        if factor is None:
            return None, None
        for b in met:
            blocks = tuple(filter(partial(is_not, b), blocks))
        block = (rows + (i,), factor)
        blocks += (block,)
        block_of.update(dict.fromkeys(block[0], block))
    return blocks, block_of


def new_projective_plane() -> SurfaceModel:
    """The plane: rank 1, K.K = 9, nothing tracked."""
    return _validated(SurfaceModel(rank=1, names=(), matrix=((9,),)))


def blow_up(model: SurfaceModel, point: PointSpec, exc_name: str) -> SurfaceModel:
    """Blow up a point, appending the exceptional curve E as a new row.

    Every old row R becomes R + s_R E, with s_K = +1 (K' = K + E), s_C = -1
    for the curves named in the point spec (strict transforms) and 0
    otherwise. So the old block loses s s^T, E pairs with R as -s_R, and
    E.E = -1. Only K's row and those of the curves through the point are
    rewritten; every other row is its old tuple plus a 0, so the cost is
    O(n) Python work and an O(n^2) copy in C. Only smooth models may be
    blown up.
    Past `_trusted`, no `_validated` check can newly fail: E's name is new,
    the matrix stays symmetric and integral, K.K drops as the rank grows,
    C.C + K.C moves by -s_C^2 - s_C = 0 and E.E + K.E = -2, C.D drops by one
    only at a checked intersection point (C.D >= 1), E.C = -s_C is 0 or 1,
    and nothing is contracted, so the empty contracted factor is seeded.
    """
    model = _trusted(model)
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
    s = {K_ROW: 1, **{model.row(n): -1 for n in point.names}}
    rows = [row + (0,) for row in model.matrix]
    e = [0] * len(rows) + [-1]
    for i, si in s.items():
        row = list(rows[i])
        for j, sj in s.items():
            row[j] -= si * sj
        row[-1] = e[i] = -si
        rows[i] = tuple(row)
    rows.append(tuple(e))
    blown = SurfaceModel(rank=model.rank + 1, names=model.names + (exc_name,), matrix=tuple(rows))
    blown.__dict__["contracted_factor"] = ()  # nothing is contracted
    return _contracted_checked(blown, ())


def blow_down_cascade(model: SurfaceModel, names) -> SurfaceModel:
    """Blow down the first of `names` with C.C = K.C = -1 in the current
    matrix, again and again until none is left; `model` itself if none is.
    `names` may hold curves that `model` does not contract: the audit
    passes a minimal resolution's contracted curves and the step's curve C,
    a (-1)-curve there, which is blown down first. That is the minimal
    resolution of the model with C declared contracted, built without that
    model.

    One pass over the old rows; a row is copied only in a round that moves
    it. Blowing down e is the update M + g g^T with g the column of e: only
    entries where g_i and g_j are both nonzero move (K, e and the curves
    meeting e), and e's row and column become zero, so e is never picked
    again. The kept columns are picked by `_picker`: O(n) Python work a
    round and an O(n^2) copy in C. The update projects onto e-perp: K.K and
    the rank move together, the matrix stays symmetric and integral,
    entries between curves only grow (by (D.e)(D'.e) >= 0), and the
    contracted block left is the Schur complement of e.e = -1 in a negative
    definite block. A round can newly break only genus, as C.C + K.C of D
    moves by (D.e)(D.e - 1), or rank 1. The first round that does ends the pass in
    `_validated`, with the message of one blow-down at a time; past
    `_trusted`, an unbroken pass needs only `_contracted_checked`. A result
    that contracts nothing is seeded with the empty factor, as `blow_up`
    seeds it; any other is factored from scratch, as one block, when first
    read. For the audit's C that final check stands in for the
    declaration's: the block left after C goes is the Schur complement of
    C.C = -1 in the declared block, so it is negative definite iff the
    declared block is, C.C < 0 needs no test, and the Hodge count drops by
    one on both sides.
    """
    model = _trusted(model)
    order = [model.row(n) for n in names]

    def ready(rows):
        return next((i for i in order if rows[i][i] == rows[K_ROW][i] == -1), None)

    e = ready(model.matrix)
    if e is None:
        return model
    rows = list(model.matrix)
    dropped = []
    while e is not None:
        dropped.append(e)
        g = [(i, x) for i, x in enumerate(rows[e]) if x]
        for i, gi in g:
            row = rows[i] = list(rows[i])
            for j, gj in g:
                row[j] += gi * gj
        broken = len(dropped) == model.rank or any(
            rows[i][i] + rows[K_ROW][i] != -2 for i, _ in g if i not in (K_ROW, e)
        )
        if broken:
            break
        e = ready(rows)
    keep = [i for i in range(len(rows)) if i not in dropped]
    pick = _picker(keep)  # keep is [K_ROW] alone for a rank-1 result
    result = SurfaceModel(
        rank=model.rank - len(dropped),
        names=tuple([model.names[i - 1] for i in keep[1:]]),
        matrix=tuple([pick(rows[i]) for i in keep]),
        contracted=model.contracted.difference(model.names[i - 1] for i in dropped),
    )
    if not result.contracted:
        result.__dict__["contracted_factor"] = ()  # nothing is left contracted, as in `blow_up`
    return _validated(result) if broken else _contracted_checked(result, result.contracted)


def declare_contracted(model: SurfaceModel, names) -> SurfaceModel:
    """Extend the contracted set, validating Artin contractibility.

    Past `_trusted`, the new model keeps all that the matrix checks of
    `_validated` read (rank, names, matrix), so only the contracted-set
    checks run again, in order and with their messages. The Sylvester test
    adds one curve at a time to `model`'s blocks (`_bordered`): a curve
    that meets no block gets a 1 x 1 block, one that meets one block
    borders it, and one that meets several merges them; the blocks it
    meets are looked up in `model`'s row->block map, which the new model
    is seeded with, the new block's rows updated. Each border is
    `extend_factor`'s, and the last new curve's block is the last. The new
    model shares `model`'s row index and, once scanned, its `nonzeros`: the
    names and the matrix are the same objects.
    """
    model = _trusted(model)
    names = frozenset(names)
    unknown = names.difference(model._rows)
    if unknown:
        raise ModelError(f"cannot contract unknown curves: {sorted(unknown)}")
    new = sorted(names - model.contracted)
    extended = SurfaceModel(model.rank, model.names, model.matrix, model.contracted | names)
    # seed the lazy attributes; the frozen dataclass forbids setattr
    seeds = extended.__dict__
    seeds["_rows"] = model._rows  # the names are shared, so is their index
    seeds["contracted_factor"], seeds["block_of"] = _bordered(model, new)
    if "nonzeros" in model.__dict__:  # the matrix is shared, so is its pattern
        seeds["nonzeros"] = model.nonzeros
    return _contracted_checked(extended, names)
