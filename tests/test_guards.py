"""Guards that protect a result must hold with assertions compiled out.

The script below runs in a `python -O` subprocess, where every `assert`
statement is removed, and prints the exception each guard raises. The
package itself holds no `assert` statement at all.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = r"""
from fractions import Fraction

from logsurf.dualgraph import WeightedDualGraph, build_dual_graph
from logsurf.lattice import PointSpec, SurfaceModel, _validated, declare_contracted
from logsurf.linalg import extend_factor, is_negative_definite_matrix, solve_exact
from logsurf.singularities import QDivisor, minimal_resolution, pullback, total_discrepancy_snc
from oracles import coordinate_model

try:
    assert False
    print("asserts: off")
except AssertionError:
    print("asserts: on")

nodal = _validated(coordinate_model(2, (-3, 1), {"N": (3, -2), "E": (0, 1)}, {"E"}))
positive_line = coordinate_model(1, (-3,), {"H": (1,), "L": (1,)}, {"H"})
two_at_rank_1 = SurfaceModel(
    rank=1,
    names=("A", "B"),
    matrix=((9, -1, -1), (-1, -1, 0), (-1, 0, -1)),
    contracted=frozenset({"A", "B"}),
)
# validated smooth parents, so declare_contracted takes the bordered path
line = _validated(coordinate_model(1, (-3,), {"L": (1,)}))
meeting_once = _validated(coordinate_model(3, (-3, 1, 1), {"E1": (0, 1, 0), "L": (1, -1, -1)}))
two_at_rank_1_smooth = _validated(SurfaceModel(rank=1, names=("A", "B"), matrix=two_at_rank_1.matrix))
meeting_negatively = SurfaceModel(rank=3, names=("A", "B"), matrix=((7, 0, 0), (0, -2, -1), (0, -1, -2)))
A, B = ("A", -2, Fraction(0)), ("B", -2, Fraction(0))
guards = {
    "bareiss": lambda: is_negative_definite_matrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2.5]]),
    "bordered-bareiss": lambda: extend_factor([[-2, 1], [1, 3]], [1, 1, -2.5]),
    "back-substitution": lambda: solve_exact([[2, 1], [0, 1]], [1, 0]),
    "validated": lambda: _validated(SurfaceModel(rank=2, names=("A",), matrix=((8, 0), (1, -1)))),
    "hodge-index": lambda: _validated(two_at_rank_1),
    "bordered-self-intersection": lambda: declare_contracted(line, ["L"]),
    "bordered-not-negative-definite": lambda: declare_contracted(declare_contracted(meeting_once, ["E1"]), ["L"]),
    "bordered-hodge-index": lambda: declare_contracted(two_at_rank_1_smooth, ["A", "B"]),
    "no-factor": lambda: pullback(positive_line, QDivisor.from_map({"L": 1})),
    "genus": lambda: minimal_resolution(nodal),
    "snc-endpoint": lambda: total_discrepancy_snc({"a": 1}, [("a", "b")]),
    "qdivisor-order": lambda: QDivisor((("B", Fraction(1)), ("A", Fraction(1)))),
    "qdivisor-type": lambda: QDivisor((("A", 1),)),
    "point-kind": lambda: PointSpec("nowhere"),
    "point-names": lambda: PointSpec("general", ("A",)),
    "graph-repeat": lambda: WeightedDualGraph(vertices=(A, A), edges=()),
    "graph-endpoint": lambda: WeightedDualGraph(vertices=(A,), edges=(("A", "B"),)),
    "graph-order": lambda: WeightedDualGraph(vertices=(A, B), edges=(("B", "A"),)),
    "graph-self-loop": lambda: WeightedDualGraph(vertices=(A,), edges=(("A", "A"),)),
    "graph-multiplicity": lambda: build_dual_graph(meeting_negatively, ["A", "B"]),
}
for name, guard in guards.items():
    try:
        guard()
        print(f"{name}: no exception")
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_guards_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.splitlines() == [
        "asserts: off",
        "bareiss: ValueError: inexact Bareiss division; not an integer matrix",
        "bordered-bareiss: ValueError: inexact Bareiss division; not an integer matrix",
        "back-substitution: ValueError: inexact back-substitution; not a Bareiss factor",
        "validated: ModelError: intersection matrix is not a symmetric integer matrix at (0, 1)",
        "hodge-index: NotNegativeDefiniteError: contracted configuration ['A', 'B'] spans 2 "
        "negative directions; rank 1 allows at most 0",
        "bordered-self-intersection: NotNegativeDefiniteError: contracted curve 'L' has "
        "self-intersection 1 >= 0",
        "bordered-not-negative-definite: NotNegativeDefiniteError: contracted configuration "
        "['E1', 'L'] is not negative definite",
        "bordered-hodge-index: NotNegativeDefiniteError: contracted configuration ['A', 'B'] spans 2 "
        "negative directions; rank 1 allows at most 0",
        "no-factor: ModelError: contracted configuration ['H'] is not negative definite",
        "genus: ModelError: curve 'N' is not a smooth rational class (genus != 0)",
        "snc-endpoint: ModelError: edge endpoint is not a vertex",
        "qdivisor-order: ValueError: divisor names must be sorted and distinct: ['B', 'A']",
        "qdivisor-type: ValueError: divisor coefficients must be Fractions",
        "point-kind: ModelError: unknown point kind 'nowhere'",
        "point-names: ModelError: point kind 'general' needs 0 curve names, got 1",
        "graph-repeat: ModelError: dual graph vertex names repeat",
        "graph-endpoint: ModelError: dual graph edge ('A', 'B') has an unknown endpoint",
        "graph-order: ModelError: dual graph edge ('B', 'A') is not a sorted pair of distinct names",
        "graph-self-loop: ModelError: dual graph edge ('A', 'A') is not a sorted pair of distinct names",
        "graph-multiplicity: ModelError: tracked curves 'A' and 'B' have negative intersection",
    ]


def test_package_has_no_assert_statement():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "logsurf").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
