"""Guards that protect a result must hold with assertions compiled out.

The script below runs in a `python -O` subprocess, where every `assert`
statement is removed, and prints the exception each guard raises. The
package itself holds no `assert` statement at all; `linalg`, the integer
classification core (the label core that audit check (c) feeds included),
the audit's carried log pullbacks, the successor function's step numbers,
check (c)'s gate and audit check (a)'s comparison never touch a Fraction.
Only `lattice._trusted` reads the `_checked` flag, so the builders keep one
path for raw and checked models. Only `singularities._log_numerators`
hands K's row to `pulled_back`, so every log pullback is one solve; only
`pulled_back` calls `solve_exact`, and no function takes a column list,
so the package has one solve site and one index space. Only
`mmp._successors` ranks a step's candidates and solves their C*, `mmp`
blows no curve down by name, and only `mmp.audit_step` builds a
resolution after the start's.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = r"""
from fractions import Fraction

from logsurf.dualgraph import WeightedDualGraph, build_dual_graph
from logsurf.lattice import PointSpec, SurfaceModel, _validated, blow_up, declare_contracted
from logsurf.linalg import extend_factor, negative_definite_factor, solve_exact, solved_border
from logsurf.singularities import QDivisor, minimal_resolution, pulled_back, total_discrepancy_snc
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
# smooth parents, whose factor declare_contracted borders
line = _validated(coordinate_model(1, (-3,), {"L": (1,)}))
meeting_once = _validated(coordinate_model(3, (-3, 1, 1), {"E1": (0, 1, 0), "L": (1, -1, -1)}))
two_at_rank_1_smooth = _validated(SurfaceModel(rank=1, names=("A", "B"), matrix=two_at_rank_1.matrix))
# raw models reach the solve core `pulled_back` directly; the public
# `pullback` validates them first. The model of test_negativity_lemma_guard:
# x_A = 2/3, x_B = -1/3 for D
negative_solution = SurfaceModel(
    rank=4,
    names=("A", "B", "D"),
    matrix=((6, 0, 0, -1), (0, -2, -1, 1), (0, -1, -2, 0), (-1, 1, 0, -1)),
    contracted=frozenset({"A", "B"}),
)
meeting_negatively = SurfaceModel(rank=3, names=("A", "B"), matrix=((7, 0, 0), (0, -2, -1), (0, -1, -2)))
A, B = ("A", -2, Fraction(0)), ("B", -2, Fraction(0))
guards = {
    "bareiss": lambda: negative_definite_factor([[-2, 1, 1], [1, -2, 1], [1, 1, -2.5]]) is not None,
    "bordered-bareiss": lambda: extend_factor([[-2, 1], [1, 3]], [1, 1, -2.5]),
    "back-substitution": lambda: solve_exact([[2, 1], [0, 1]], [1, 0]),
    "forward-elimination": lambda: solve_exact([[4, 3, -1], [5, 1, 1], [5, -1, -3]], [3, -5, 2]),
    "solved-border": lambda: solved_border([[-2, 1], [1, 3]], [1, 1], 3, -1),
    "validated": lambda: _validated(SurfaceModel(rank=2, names=("A",), matrix=((8, 0), (1, -1)))),
    "raw-blow-up": lambda: blow_up(SurfaceModel(rank=2, names=("A",), matrix=((8, 0), (1, -1))), PointSpec.general(), "E"),
    "hodge-index": lambda: _validated(two_at_rank_1),
    "bordered-self-intersection": lambda: declare_contracted(line, ["L"]),
    "bordered-not-negative-definite": lambda: declare_contracted(declare_contracted(meeting_once, ["E1"]), ["L"]),
    "bordered-hodge-index": lambda: declare_contracted(two_at_rank_1_smooth, ["A", "B"]),
    "no-factor": lambda: pulled_back(positive_line, [(positive_line.row("L"), 1)]),
    "negativity-lemma": lambda: pulled_back(negative_solution, [(negative_solution.row("D"), 1)]),
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
        "forward-elimination: ValueError: inexact Bareiss division; not an integer matrix",
        "solved-border: ValueError: inexact border division; not a solve against this factor",
        "validated: ModelError: intersection matrix is not a symmetric integer matrix at (0, 1)",
        "raw-blow-up: ModelError: intersection matrix is not a symmetric integer matrix at (0, 1)",
        "hodge-index: NotNegativeDefiniteError: contracted configuration ['A', 'B'] spans 2 "
        "negative directions; rank 1 allows at most 0",
        "bordered-self-intersection: NotNegativeDefiniteError: contracted curve 'L' has "
        "self-intersection 1 >= 0",
        "bordered-not-negative-definite: NotNegativeDefiniteError: contracted configuration "
        "['E1', 'L'] is not negative definite",
        "bordered-hodge-index: NotNegativeDefiniteError: contracted configuration ['A', 'B'] spans 2 "
        "negative directions; rank 1 allows at most 0",
        "no-factor: ModelError: contracted configuration ['H'] is not negative definite",
        "negativity-lemma: ModelError: negativity lemma violated; model inconsistent",
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


def names_fraction(tree):
    """Line numbers where `tree` names a Fraction or imports fractions."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]


def functions(module):
    path = SRC / "logsurf" / module
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_linalg_uses_no_fraction():
    # integers in, integers out: Fractions are made only at the API edge
    path = SRC / "logsurf" / "linalg.py"
    assert names_fraction(ast.parse(path.read_text(), filename=str(path))) == []


def test_classification_core_uses_no_fraction():
    # the log coefficients, the SNC total, the threshold rule and the label
    # core the audit feeds run on integer numerators over one denominator
    core = functions("singularities.py")
    for name in ("_log_numerators", "_snc_total", "_threshold_label", "_labelled", "_classified"):
        assert names_fraction(core[name]) == [], name


def test_carried_pullbacks_use_no_fraction():
    # the audit's rank-one update of the log pullbacks and the column sums
    # that re-derive (K + B).C run on integers, and so does the step path:
    # the successor function's numbers and the check (c) gate
    carried = functions("mmp.py")
    for name in ("_start", "_moved", "_paired", "_successors", "_gate"):
        assert names_fraction(carried[name]) == [], name


def test_audit_effectivity_comparison_uses_no_fraction():
    # check (a) cross-multiplies numerators; a Fraction is made only for a
    # violation's text; `audit_run` folds the per-step check that holds it
    audit = functions("mmp.py")["audit_step"]
    bad = [
        node.value
        for node in ast.walk(audit)
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["bad"]
    ]
    assert len(bad) == 1
    assert names_fraction(bad[0]) == []


def flag_uses(attr):
    """(module, innermost function, "read" or "set") for each use of the
    attribute `attr` in the package: `x.attr`, or `attr` as a string
    constant, as in `getattr(x, "attr")` or `object.__setattr__(x, "attr", v)`."""
    uses = []
    for path in sorted((SRC / "logsurf").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                sets = not isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Constant) and node.value == attr:
                up = parent[node]
                called = getattr(up.func, "attr", getattr(up.func, "id", None)) if isinstance(up, ast.Call) else None
                sets = called in ("setattr", "__setattr__", "delattr") or (
                    isinstance(up, ast.Subscript) and not isinstance(up.ctx, ast.Load)
                )
            else:
                continue
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent.get(scope)
            uses.append((path.stem, getattr(scope, "name", "<module>"), "set" if sets else "read"))
    return uses


def test_checked_flag_has_one_reader_and_one_writer():
    # one trust boundary: the builders' entry check alone reads the flag,
    # and the contracted-set checks that end every validation alone set it
    assert sorted(flag_uses("_checked")) == [
        ("lattice", "_contracted_checked", "set"),
        ("lattice", "_trusted", "read"),
    ]


def package_calls():
    """(module, innermost function, call node) for each call in the package."""
    for path in sorted((SRC / "logsurf").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                scope = parent.get(node)
                while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = parent.get(scope)
                yield path.stem, getattr(scope, "name", "<module>"), node


def called(node):
    """The name a call node calls: `f` for f(...) and for x.f(...)."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def k_row_pullbacks():
    """(module, innermost function) of each `pulled_back` call that names
    `K_ROW` in its arguments."""
    found = []
    for module, scope, node in package_calls():
        arguments = [*node.args, *(k.value for k in node.keywords)] if called(node) == "pulled_back" else []
        if any(getattr(n, "id", getattr(n, "attr", None)) == "K_ROW" for a in arguments for n in ast.walk(a)):
            found.append((module, scope))
    return found


def test_one_function_solves_a_log_pullback():
    # K + B is pulled back in `_log_numerators` alone; ranking, extremal
    # pairings, audit check (a) and the classifier all read its solve
    assert k_row_pullbacks() == [("singularities", "_log_numerators")]


def test_one_function_solves_against_the_contracted_factor():
    # every pullback, log or curve, is `pulled_back`'s solve, in its one
    # (coef, v, d) format
    solves = [(module, scope) for module, scope, node in package_calls() if called(node) == "solve_exact"]
    assert solves == [("singularities", "pulled_back")]


def mmp_callers(name):
    """The top-level functions of `mmp.py` that call `name`, once per call,
    sorted; a call in a nested function counts for the function holding it."""
    return sorted(
        scope
        for scope, node in functions("mmp.py").items()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and called(call) == name
    )


def test_one_successor_function_ranks_and_solves_a_step():
    # `_drive` (`run`'s loop), `step_candidates` and `contract` step
    # through `_successors` alone: it ranks off a (K + B)* row and solves
    # each C* it is asked for. The log pullback is solved at a run's start,
    # for `extremal_pairing` and, K + B alone, for `step_candidates`;
    # `audit_step` solves C* only for a stored run
    assert mmp_callers("_ranked") == ["_successors"]
    assert mmp_callers("_successors") == ["_drive", "contract", "step_candidates"]
    assert mmp_callers("_drive") == ["run"]
    # both harnesses run `run`, so a hook on `mmp.run` sees every run
    assert mmp_callers("run") == ["search_canonical_starts", "verify_smooth_start_runs"]
    assert mmp_callers("audit_step") == ["_drive", "audit_run", "contract"]
    # records are made at the edge, off the loop's integer cores
    assert mmp_callers("Candidate") == ["step_candidates"]
    assert mmp_callers("MmpStep") == ["run"]
    assert mmp_callers("AuditStep") == mmp_callers("_singularity_class") == ["_report"]
    assert mmp_callers("_fraction") == ["_report", "run", "run"]
    assert mmp_callers("pulled_back") == ["_successors", "audit_step", "contracted_self_intersection"]
    assert mmp_callers("_log_numerators") == ["_start", "extremal_pairing", "step_candidates"]


def test_only_the_audit_builds_a_later_resolution():
    # a smooth surface carries no resolution model: `_start` resolves the
    # start, and after it `audit_step` alone builds a resolution, one
    # cascade from a singular one or the resolution of an Artin step's
    # shadow from a smooth one
    assert mmp_callers("blow_down_cascade") == ["audit_step"]
    assert mmp_callers("minimal_resolution") == ["_start", "audit_step"]


def test_mmp_never_blows_a_curve_down_by_name():
    # a step declares its curve contracted on the shadow; only the audit's
    # resolution is blown down, through `blow_down_cascade`
    path = SRC / "logsurf" / "mmp.py"
    found = [
        getattr(node, "lineno", 0)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "blow_down")
        or (isinstance(node, ast.Attribute) and node.attr == "blow_down")
        or (isinstance(node, ast.alias) and node.name == "blow_down")
    ]
    assert found == []


def test_no_function_takes_a_column_list():
    # pullbacks and pairings are read over every row of a model, one index
    # space, so no function takes the columns its caller reads
    found = []
    for path in sorted((SRC / "logsurf").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                if any(p.arg == "cols" for p in params):
                    found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_public_names_are_listed_once():
    # `__all__` lists each public name the package binds, submodules aside,
    # once; the count is pinned, so dropping a name is a deliberate edit
    import logsurf

    public = {n for n, v in vars(logsurf).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert len(logsurf.__all__) == len(set(logsurf.__all__))
    assert set(logsurf.__all__) == public
    assert len(public) == 59
