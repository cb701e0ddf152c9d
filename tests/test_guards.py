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
from logsurf.lattice import SurfaceModel, _validated
from logsurf.linalg import is_negative_definite_matrix
from logsurf.singularities import minimal_resolution, total_discrepancy_snc
from oracles import coordinate_model

try:
    assert False
    print("asserts: off")
except AssertionError:
    print("asserts: on")

nodal = _validated(coordinate_model(2, (-3, 1), {"N": (3, -2), "E": (0, 1)}, {"E"}))
guards = {
    "bareiss": lambda: is_negative_definite_matrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2.5]]),
    "validated": lambda: _validated(SurfaceModel(rank=2, names=("A",), matrix=((8, 0), (1, -1)))),
    "genus": lambda: minimal_resolution(nodal),
    "snc-endpoint": lambda: total_discrepancy_snc({"a": 1}, [("a", "b")]),
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
        "validated: ModelError: intersection matrix is not a symmetric integer matrix at (0, 1)",
        "genus: ModelError: curve 'N' is not a smooth rational class (genus != 0)",
        "snc-endpoint: ModelError: edge endpoint is not a vertex",
    ]
