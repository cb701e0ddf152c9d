"""Guards that protect a result must hold with assertions compiled out.

The script below runs in a `python -O` subprocess, where every `assert`
statement is removed, and prints the exception each guard raises.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = r"""
from fractions import Fraction

from logsurf.lattice import PointSpec, SurfaceModel, _validated
from logsurf.linalg import is_negative_definite_matrix, solve_exact
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
guards = {
    "bareiss": lambda: is_negative_definite_matrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2.5]]),
    "back-substitution": lambda: solve_exact([[2, 1], [0, 1]], [1, 0]),
    "validated": lambda: _validated(SurfaceModel(rank=2, names=("A",), matrix=((8, 0), (1, -1)))),
    "hodge-index": lambda: _validated(two_at_rank_1),
    "no-factor": lambda: pullback(positive_line, QDivisor.from_map({"L": 1})),
    "genus": lambda: minimal_resolution(nodal),
    "snc-endpoint": lambda: total_discrepancy_snc({"a": 1}, [("a", "b")]),
    "qdivisor-order": lambda: QDivisor((("B", Fraction(1)), ("A", Fraction(1)))),
    "qdivisor-type": lambda: QDivisor((("A", 1),)),
    "point-kind": lambda: PointSpec("nowhere"),
    "point-names": lambda: PointSpec("general", ("A",)),
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
        "back-substitution: ValueError: inexact back-substitution; not a Bareiss factor",
        "validated: ModelError: intersection matrix is not a symmetric integer matrix at (0, 1)",
        "hodge-index: NotNegativeDefiniteError: contracted configuration ['A', 'B'] spans 2 "
        "negative directions; rank 1 allows at most 0",
        "no-factor: ModelError: contracted configuration ['H'] is not negative definite",
        "genus: ModelError: curve 'N' is not a smooth rational class (genus != 0)",
        "snc-endpoint: ModelError: edge endpoint is not a vertex",
        "qdivisor-order: ValueError: divisor names must be sorted and distinct: ['B', 'A']",
        "qdivisor-type: ValueError: divisor coefficients must be Fractions",
        "point-kind: ModelError: unknown point kind 'nowhere'",
        "point-names: ModelError: point kind 'general' needs 0 curve names, got 1",
    ]
