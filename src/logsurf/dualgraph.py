"""Weighted dual graphs of curve configurations, their Sylvester test and shape recognition."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ModelError
from .lattice import _trusted
from .linalg import negative_definite_factor

CHAIN = "chain"
FORK = "fork"
TREE = "tree"
HAS_CYCLE = "has-cycle"
DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class WeightedDualGraph:
    """One vertex per curve (name, self-intersection, genus); edges repeat
    once per intersection point."""

    vertices: tuple[tuple[str, int, Fraction], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        known = {v[0] for v in self.vertices}
        if len(known) != len(self.vertices):
            raise ModelError("dual graph vertex names repeat")
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ModelError(f"dual graph edge ({a!r}, {b!r}) has an unknown endpoint")
            if not a < b:
                raise ModelError(f"dual graph edge ({a!r}, {b!r}) is not a sorted pair of distinct names")

    @classmethod
    def from_weights(cls, weights: dict, edges=()) -> "WeightedDualGraph":
        """Build directly from name -> self-intersection, genus 0 throughout."""
        vertices = tuple((n, int(w), Fraction(0)) for n, w in sorted(weights.items()))
        norm = tuple(sorted(tuple(sorted(e)) for e in edges))
        return cls(vertices=vertices, edges=norm)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v[0] for v in self.vertices)

    def multiplicity(self, a: str, b: str) -> int:
        key = tuple(sorted((a, b)))
        return sum(1 for e in self.edges if e == key)

    def intersection_matrix(self) -> list[list[int]]:
        names = self.names
        index = {n: i for i, n in enumerate(names)}
        m = [[0] * len(names) for _ in names]
        for (n, w, _), i in zip(self.vertices, range(len(names))):
            m[i][i] = w
        for a, b in self.edges:
            i, j = index[a], index[b]
            m[i][j] += 1
            m[j][i] += 1
        return m


@dataclass(frozen=True)
class GraphShape:
    kind: str
    branch_count: int | None = None


def build_dual_graph(model, names) -> WeightedDualGraph:
    """Dual graph of the named tracked curves with current intersections; a
    hand-built model is validated first, so none is negative."""
    model = _trusted(model)
    names = sorted(set(names))
    vertices = tuple((n, model.self_int(n), model.genus(n)) for n in names)
    edges = [(a, b) for a, b in combinations(names, 2) for _ in range(model.intersection(a, b))]
    return WeightedDualGraph(vertices=vertices, edges=tuple(sorted(edges)))


def is_negative_definite(g: WeightedDualGraph) -> bool:
    return negative_definite_factor(g.intersection_matrix()) is not None


def graph_shape(g: WeightedDualGraph) -> GraphShape:
    """Chain / Fork(k) / Tree / HasCycle / Disconnected, multi-edges counting
    as cycles."""
    names = g.names
    n = len(names)
    if n == 0:
        return GraphShape(CHAIN)
    adjacency = {v: set() for v in names}
    for a, b in g.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    stack = [names[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v] - seen)
    if len(seen) < n:
        return GraphShape(DISCONNECTED)
    if len(g.edges) > n - 1:
        # connected with more edge slots than a spanning tree: some cycle,
        # possibly a doubled edge
        return GraphShape(HAS_CYCLE)
    degree = Counter()
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
    branch_vertices = [v for v in names if degree[v] >= 3]
    if not branch_vertices:
        return GraphShape(CHAIN)
    if len(branch_vertices) == 1:
        return GraphShape(FORK, branch_count=degree[branch_vertices[0]])
    return GraphShape(TREE)
