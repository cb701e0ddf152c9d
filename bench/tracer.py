"""Per-layer call tracer for the logsurf benchmark.

The package imports functions by name (``from .linalg import solve_exact``),
so every importing module holds its own reference. Patching only the
defining module would leave those references untouched and report zero
calls. The tracer therefore rebinds each traced function in every loaded
``logsurf`` module that holds it, checks that no original reference is
left behind, and restores everything on ``uninstall``.

Time is measured with ``time.perf_counter`` around each call. A call's
self time is its duration minus the durations of the traced calls made
directly inside it. ``cum_s`` adds up every call; none of the traced
functions re-enters itself, so no interval is counted twice.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Layer = module of the package; each names the public functions it times.
LAYERS = {
    "linalg": ("pairing", "det_bareiss", "is_negative_definite_matrix", "solve_exact"),
    "lattice": ("new_projective_plane", "blow_up", "blow_down", "declare_contracted"),
    "singularities": (
        "pullback",
        "log_discrepancies",
        "minimal_resolution",
        "classify",
        "total_discrepancy_snc",
    ),
    "mmp": (
        "step_candidates",
        "run",
        "audit_run",
        "verify_smooth_start_runs",
        "search_canonical_starts",
    ),
    "scenario": ("parse_scenario", "load_scenario", "build_model"),
    "dualgraph": ("build_dual_graph",),
    "dot": ("export_dot",),
    "cli": ("main",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
PACKAGE = "logsurf"


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Counts calls and accumulates cumulative and self time per function.

    ``hooks`` maps a traced key such as ``"mmp.run"`` to a callable that
    receives ``(args, kwargs, result, seconds)`` after each successful call.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.stats = {key: [0, 0.0, 0.0] for key in TRACED}
        self._children = []  # child-time accumulator per active traced call
        self._patches = []  # (module, attribute, original)

    def _wrap(self, key, fn):
        stat = self.stats[key]
        children = self._children
        hook = self.hooks.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = children.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        return traced

    def install(self) -> None:
        modules = _package_modules()
        originals = []
        for key in TRACED:
            layer, fn_name = key.split(".")
            defining = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(defining, fn_name, None)
            if original is None:
                continue  # a function a later version removed reports zero calls
            wrapper = self._wrap(key, original)
            originals.append(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        left = [
            f"{module.__name__}.{attr}"
            for module in modules
            for attr, value in vars(module).items()
            if any(value is o for o in originals)
        ]
        if left:
            self.uninstall()
            raise RuntimeError(f"tracer left original functions bound at {left}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
