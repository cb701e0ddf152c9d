"""logsurf benchmark: one workload per process, stdlib only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (a fresh import of the package plus input generation) is repeated
and its median reported. The workload's fixed batch of ops is then run in
passes for ``--seconds``, timing only the public calls. Every time is
divided by a reference computation timed beside it (bench/reference.py),
so the other tenants of a shared machine do not move the figures. With
``--trace 1`` one more pass runs under the tracer and the per-layer metrics
are printed instead of the end-to-end ones. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads
from reference import REF_SECONDS, reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
TAIL_BEYOND = 10  # samples the tail percentile leaves beyond it
STEP_BUCKETS = ((1, 5), (6, 10), (11, 20), (21, 30))


def fresh_import():
    for name in [n for n in sys.modules if n == "logsurf" or n.startswith("logsurf.")]:
        del sys.modules[name]
    lib = importlib.import_module("logsurf")
    importlib.import_module("logsurf.cli")
    return lib


def run_pass(ops):
    """Run every op once. Returns per-op seconds, the reference times
    around them (one before each op and one after the last), the outcomes
    and the failures."""
    times, refs, outcomes, failures = [], [reference()], [], []
    for op in ops:
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises counts as failed; keep measuring
            times.append(perf_counter() - start)
            if len(failures) < 3:
                traceback.print_exc(file=sys.stderr)
            outcome = workloads.Outcome(f"{op.label} raised {exc!r}", 0, (f"raised {exc!r}",))
        else:
            times.append(perf_counter() - start)
            outcome = op.check(result)
        refs.append(reference())
        if outcome.problems:
            failures.append(f"{op.label}: {'; '.join(outcome.problems)}")
        outcomes.append(outcome)
    return times, refs, outcomes, failures


class Pass(NamedTuple):
    times: list  # raw seconds per op
    outcomes: list
    ref_times: list  # per op, in reference seconds
    refs: list  # reference durations around the ops


def normalise(times, refs):
    """Each op's time in reference seconds: divided by the mean of the
    reference times just before and just after it."""
    return [REF_SECONDS * t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.record.encode())
        h.update(b"\0")
    return h.hexdigest()


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "logsurf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, per_op, steps_per_pass):
    """``setup_times`` and ``per_op`` are in reference seconds; ``per_op``
    holds each op's median over the passes, and its sum is the time of one
    pass."""
    wall = sum(per_op)
    tail_s, _ = tail(per_op)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(len(per_op) / wall, "1/s"),
        "steps_per_s": metric(steps_per_pass / wall, "1/s"),
        "op_ms.p50": metric(1000 * statistics.median(per_op), "ms"),
        "op_ms.tail": metric(1000 * tail_s, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def ratio(num, den):
    return num / den if den else 0


def per_layer(tracer, runs, untraced_wall, traced_wall):
    """Per-layer metrics from one traced pass. ``runs`` holds one
    (tower blow-ups, seconds, step kinds) entry per ``mmp.run`` call."""
    out = {}
    for key, (calls, cum, self_s) in tracer.stats.items():
        out[f"{key}.calls"] = metric(calls, "count")
        out[f"{key}.cum_s"] = metric(cum, "s")
        out[f"{key}.self_s"] = metric(self_s, "s")
    calls = {key: s[0] for key, s in tracer.stats.items()}
    kinds = [k for _, _, ks in runs for k in ks]
    steps = len(kinds)
    constructors = sum(
        calls[f"lattice.{fn}"] for fn in ("new_projective_plane", "blow_up", "blow_down", "declare_contracted")
    )
    out["mmp.steps"] = metric(steps, "count")
    out["mmp.steps.castelnuovo"] = metric(kinds.count("castelnuovo"), "count")
    out["mmp.steps.artin"] = metric(kinds.count("artin-type"), "count")
    out["lattice.models_per_step"] = metric(ratio(constructors, steps), "ratio")
    out["singularities.mr_per_classify"] = metric(
        ratio(calls["singularities.minimal_resolution"], calls["singularities.classify"]), "ratio"
    )
    out["linalg.det_per_negdef"] = metric(
        ratio(calls["linalg.det_bareiss"], calls["linalg.is_negative_definite_matrix"]), "ratio"
    )
    out["linalg.solves_per_step"] = metric(ratio(calls["linalg.solve_exact"], steps), "ratio")
    out["mmp.audit_share"] = metric(
        ratio(tracer.stats["mmp.audit_run"][1], tracer.stats["mmp.run"][1]), "ratio"
    )
    for lo, hi in STEP_BUCKETS:
        in_bucket = [(s, len(ks)) for size, s, ks in runs if lo <= size <= hi and ks]
        seconds = sum(s for s, _ in in_bucket)
        count = sum(n for _, n in in_bucket)
        out[f"mmp.step_ms.blowups-{lo}-{hi}"] = metric(1000 * ratio(seconds, count), "ms")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    problems = []
    if round(out["lattice.models_per_step"]["value"] * steps) != constructors:
        problems.append("tracer: models_per_step x steps differs from the constructor calls")
    return out, problems, steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "logsurf" / "__init__.py").is_file():
        print(f"error: no logsurf package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


def measure(args, workload, workdir) -> int:
    setup_times, setup_refs = [], [reference()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        lib = fresh_import()
        ops = workload.prepare(lib, args.seed, workdir)
        setup_times.append(perf_counter() - start)
        setup_refs.append(reference())
    if Path(lib.__file__).resolve().parent != (SRC / "logsurf").resolve():
        print(f"error: imported logsurf from {lib.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    passes, problems, failed = [], [], 0
    began = perf_counter()
    while True:  # stop when one more pass would run past --seconds
        start = perf_counter()
        times, refs, outcomes, failures = run_pass(ops)
        passes.append(Pass(times, outcomes, normalise(times, refs), refs))
        failed += len(failures)
        problems.extend(failures)
        now = perf_counter()
        if now - began + (now - start) > args.seconds:
            break
    digests = {digest(p.outcomes) for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct digests")
    steps_per_pass = sum(o.steps for o in passes[0].outcomes)
    per_op = [statistics.median(p.ref_times[i] for p in passes) for i in range(len(ops))]
    attempted = len(ops) * len(passes)
    if workload.extra_checks is not None:
        problems.extend(workload.extra_checks(lib))

    if args.trace:
        runs = []

        def record_run(call_args, kwargs, result, seconds):
            state = call_args[0] if call_args else kwargs["state"]
            runs.append((state.surface.rank - 1, seconds, [s.kind for s in result.steps]))

        with Tracer(hooks={"mmp.run": record_run}) as tracer:
            times, refs, outcomes, failures = run_pass(ops)
        attempted += len(ops)
        failed += len(failures)
        problems.extend(failures)
        if digest(outcomes) != digest(passes[0].outcomes):
            problems.append("traced digest differs from the untraced digest")
        metrics, trace_problems, traced_steps = per_layer(tracer, runs, sum(per_op), sum(normalise(times, refs)))
        problems.extend(trace_problems)
        if traced_steps != steps_per_pass:
            problems.append(f"tracer counted {traced_steps} steps, the workload reported {steps_per_pass}")
        entry_calls = tracer.stats[workload.entry][0]
        if entry_calls != len(ops):
            problems.append(f"tracer counted {entry_calls} {workload.entry} calls for {len(ops)} ops")
    else:
        metrics = end_to_end(normalise(setup_times, setup_refs), per_op, steps_per_pass)

    _, tail_pct = tail(per_op)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "pass_walls_s": [sum(p.times) for p in passes],
        "pass_walls_ref_s": [sum(p.ref_times) for p in passes],
        "setup_s": statistics.median(setup_times),
        "reference_ms": 1000 * statistics.median(r for p in passes for r in p.refs),
        "reference_seconds": REF_SECONDS,
        "steps_per_pass": steps_per_pass,
        "tail_percentile": tail_pct,
        "tail_samples": len(per_op),
        "digest": digest(passes[0].outcomes),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    print("run-info " + json.dumps(info, sort_keys=True))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
