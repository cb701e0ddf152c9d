"""Weighted dual graphs of tracked curve configurations."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ModelError
from .lattice import _trusted


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


def build_dual_graph(model, names) -> WeightedDualGraph:
    """Dual graph of the named tracked curves with current intersections; a
    hand-built model is validated first, so none is negative."""
    model = _trusted(model)
    names = sorted(set(names))
    vertices = tuple((n, model.self_int(n), model.genus(n)) for n in names)
    edges = [(a, b) for a, b in combinations(names, 2) for _ in range(model.intersection(a, b))]
    return WeightedDualGraph(vertices=vertices, edges=tuple(sorted(edges)))

