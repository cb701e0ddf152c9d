"""Workloads of the logsurf benchmark: inputs from a seed, ops, output checks.

An op is one public call: one trial of ``verify_smooth_start_runs`` or
``search_canonical_starts``, or one ``logsurf.cli.main`` query. ``prepare``
builds a workload's fixed batch of ops from the seed; the runner times
``Op.call`` and then passes its result to ``Op.check``, untimed.

Ops look their function up on the package at call time
(``lib.verify_smooth_start_runs``, not a reference taken at set-up), so
the tracer's rebinding is honoured.

Trial seeds are stratified by tower size. The cost of one trial grows
steeply with the size of its blow-up tower, so a batch of plain random
seeds would spread widely from one benchmark seed to the next. The size
of a trial's tower is read off its seed with the same draws the package
makes (``random.Random(seed * 1_000_003)``, tower size first); if the
package ever draws differently, the batch stays valid and only loses its
stratification.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

EXPECTED_CLI = Path(__file__).with_name("expected_cli.json")


@dataclass(frozen=True)
class Outcome:
    record: str  # canonical text of the exact result, fed to the digest
    steps: int  # contraction steps the op performed
    problems: tuple[str, ...]  # failed output checks; empty when the op passed


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # traced function each op calls exactly once
    prepare: Callable  # (lib, seed, workdir) -> list[Op]
    extra_checks: Callable | None = None  # (lib) -> list of problems


def _trial_seeds(rng: random.Random, quotas: dict, stratum_of) -> dict:
    """Draw distinct seeds until every stratum holds its quota."""
    chosen = {key: [] for key in quotas}
    missing = sum(quotas.values())
    seen = set()
    while missing:
        seed = rng.randrange(1 << 30)
        key = stratum_of(seed)
        if seed in seen or key not in chosen or len(chosen[key]) == quotas[key]:
            continue
        seen.add(seed)
        chosen[key].append(seed)
        missing -= 1
    return chosen


def _thm31_check(seed: int, epsilon: Fraction):
    def check(report) -> Outcome:
        problems = []
        if report.violations:
            problems.append(f"{len(report.violations)} audit violations: {report.violations[0]}")
        if report.trials != 1 or sum(n for _, n in report.outcome_counts) != report.trials:
            problems.append(f"outcome counts {report.outcome_counts} do not sum to 1 trial")
        if report.seed != seed or report.epsilon != epsilon:
            problems.append("report echoes another seed or epsilon")
        record = (
            f"thm31 {seed} {epsilon} {report.max_blowups} {report.total_steps} "
            f"{report.outcome_counts} {report.violations}"
        )
        return Outcome(record, report.total_steps, tuple(problems))

    return check


# Trials per tower size. The quotas keep a pass near 3.5 s, so that every
# op is timed in several passes of a run, and they put the median and the
# tail op (10 ops beyond it) in the middle of one size's trials, not on
# the step between two sizes, where they would jump from seed to seed:
# 28 trials of sizes 1-7 lie below the 16 of size 8, and only the two
# deepest towers lie above the 16 of size 14. Trials of one size differ
# in cost by up to 50%, so a quantile that rests on a few trials, or on
# a step, spread by 10-17% over ten seeds. One trial of 25-30 blow-ups
# alone costs 2-5 s, so the deepest tower has 22; it fills the 21-30
# bucket of the step-time curve.
DEEP_MAX_BLOWUPS = 30
DEEP_EPSILONS = (Fraction(1, 7),)
DEEP_QUOTAS = {
    **dict.fromkeys(range(1, 8), 4),
    8: 16,
    **dict.fromkeys(range(9, 13), 2),
    14: 16,
    18: 1,
    22: 1,
}

# The acceptance gate's own traffic: towers of at most 10 blow-ups and
# epsilon cycling over 0, 1/7 and 1/4. A trial costs 0.3-50 ms, so a pass
# takes about 3.5 s. With the same number of trials per size the median
# op would sit on the step between sizes 5 and 6 and jump from seed to
# seed; size 6 therefore gets twice the trials and sizes 7-10 get ten,
# which puts the median in the middle of size 6.
SHALLOW_MAX_BLOWUPS = 10
SHALLOW_EPSILONS = (Fraction(0), Fraction(1, 7), Fraction(1, 4))
SHALLOW_QUOTAS = {**dict.fromkeys(range(1, 6), 8), 6: 16, **dict.fromkeys(range(7, 11), 10)}


def _thm31_prepare(name: str, max_blowups: int, epsilons: tuple, quotas: dict):
    def prepare(lib, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{name}/{seed}")

        def tower_size(trial_seed):
            return random.Random(trial_seed * 1_000_003).randint(1, max_blowups)

        ops = []
        for eps in epsilons:
            for size, seeds in _trial_seeds(rng, quotas, tower_size).items():
                for s in seeds:

                    def call(s=s, eps=eps):
                        return lib.verify_smooth_start_runs(1, s, eps, max_blowups=max_blowups)

                    ops.append(Op(f"seed={s} eps={eps} size={size}", call, _thm31_check(s, eps)))
        rng.shuffle(ops)
        return ops

    return prepare


def _q44_check(seed: int):
    def check(report) -> Outcome:
        problems = []
        if report.trials != 1 or report.canonical_starts != report.trials:
            problems.append(f"{report.canonical_starts} canonical starts for {report.trials} trials")
        if report.runs_with_not_lc_intermediate not in (0, 1):
            problems.append("more runs with a not-lc intermediate than trials")
        if not 0 <= report.not_lc_steps <= report.total_steps:
            problems.append(f"{report.not_lc_steps} not-lc steps out of {report.total_steps}")
        if len(report.samples) != report.runs_with_not_lc_intermediate:
            problems.append("sample count does not match the runs reported")
        if report.seed != seed:
            problems.append("report echoes another seed")
        record = (
            f"q44 {seed} {report.canonical_starts} {report.total_steps} "
            f"{report.runs_with_not_lc_intermediate} {report.not_lc_steps} {report.samples}"
        )
        return Outcome(record, report.total_steps, tuple(problems))

    return check


# Ten trials per stratum: the per-trial cost varies within a stratum by up
# to 30%, and with ten the median op of ten seeds' batches spans about 3%.
Q44_PER_STRATUM = 10


def _q44_prepare(lib, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"q44-canonical/{seed}")
    cfg = lib.SearchConfig()

    def shape(trial_seed):
        # chain length, then extra blow-ups: the package's first two draws
        r = random.Random(trial_seed * 1_000_003)
        chain = r.randint(cfg.min_chain_length, cfg.max_chain_length)
        return chain, r.randint(0, max(cfg.max_blowups - chain - 1, 0))

    quotas = {
        (chain, extra): Q44_PER_STRATUM
        for chain in range(cfg.min_chain_length, cfg.max_chain_length + 1)
        for extra in range(max(cfg.max_blowups - chain - 1, 0) + 1)
    }
    ops = []
    for (chain, extra), seeds in _trial_seeds(rng, quotas, shape).items():
        for s in seeds:

            def call(s=s):
                return lib.search_canonical_starts(lib.SearchConfig(), 1, s)

            ops.append(Op(f"seed={s} chain={chain} extra={extra}", call, _q44_check(s)))
    rng.shuffle(ops)
    return ops


BUNDLED = ("triple_fork_236", "quad_fork_threshold", "quad_fork_star")
STAR_CENTERS = range(3, 13)
# pullback needs a tracked curve outside the contracted set
PULLBACK_DIVISOR = {"quad_fork_star": "X1"}
COMMANDS = ("build", "classify", "discrepancies", "pullback", "run", "dot")


def _cli_argv(command: str, scenario: str, path: Path) -> list[str]:
    argv = [command, str(path)]
    if command == "pullback":
        argv += ["--divisor", PULLBACK_DIVISOR.get(scenario, "D")]
    elif command == "dot":
        argv += ["--set", "all"]
    return argv + ["--json"]


def _cli_check(key: str, expected: dict):
    def check(result) -> Outcome:
        code, out, err = result
        problems = []
        if code != 0 or err:
            problems.append(f"exit code {code}, stderr {err.strip()!r}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != expected.get(key):
            problems.append(f"--json bytes differ from the frozen output (sha256 {digest})")
        steps = 0
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            problems.append(f"stdout is not JSON: {exc}")
        else:
            if key.endswith(" run"):
                steps = len(doc["steps"])
                if not doc["audit"]["ok"]:
                    problems.append(f"audit violations: {doc['audit']['violations']}")
        return Outcome(f"cli {key} {code}\n{out}", steps, tuple(problems))

    return check


def _cli_prepare(lib, seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in BUNDLED:
        text = resources.files("logsurf").joinpath("scenarios", f"{name}.json").read_text("utf-8")
        files[name] = text
    for n0 in STAR_CENTERS:
        scenario = lib.star_scenario(n0, (2, 3, 6), 3, boundary="6/7", epsilon="1/7")
        files[f"star_{n0}_236_3"] = lib.serialize_scenario(scenario)
    paths = {}
    for name, text in files.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    expected = json.loads(EXPECTED_CLI.read_text(encoding="utf-8"))
    ops = []
    for name, path in paths.items():
        for command in COMMANDS:
            key = f"{name} {command}"
            argv = _cli_argv(command, name, path)

            def call(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = lib.cli.main(argv)
                return code, out.getvalue(), err.getvalue()

            ops.append(Op(key, call, _cli_check(key, expected)))
    random.Random(f"cli-queries/{seed}").shuffle(ops)
    return ops


def readme_values(lib) -> list[str]:
    """The worked example in the README, checked through the library."""
    star = lib.star_scenario(5, (2, 2, 2), 3, boundary="6/7", epsilon="1/7")
    model = lib.build_model(star)
    problems = []
    got = lib.pullback(model, lib.QDivisor.from_map({"D": 1})).as_map()
    want = {"E0": Fraction(2, 7), "E1": Fraction(1, 7), "E2": Fraction(1, 7), "E3": Fraction(1, 7)}
    if got != want:
        problems.append(f"README pullback of D is {got}, expected {want}")
    label = lib.classify(model, lib.QDivisor.zero(), Fraction(1, 7)).classification
    if label != lib.EPS_LOG_CANONICAL:
        problems.append(f"README star classifies {label}, expected {lib.EPS_LOG_CANONICAL}")
    after = lib.contract(lib.build_state(star), "D")
    mr_total = lib.classify(after.surface, lib.QDivisor.zero(), Fraction(1, 7)).mr_total_discrepancy
    if mr_total != Fraction(-20, 19):
        problems.append(f"README mr_total after contracting D is {mr_total}, expected -20/19")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thm31-shallow",
            "mmp.verify_smooth_start_runs",
            _thm31_prepare("thm31-shallow", SHALLOW_MAX_BLOWUPS, SHALLOW_EPSILONS, SHALLOW_QUOTAS),
        ),
        Workload(
            "thm31-deep",
            "mmp.verify_smooth_start_runs",
            _thm31_prepare("thm31-deep", DEEP_MAX_BLOWUPS, DEEP_EPSILONS, DEEP_QUOTAS),
        ),
        Workload("q44-canonical", "mmp.search_canonical_starts", _q44_prepare),
        Workload("cli-queries", "cli.main", _cli_prepare, readme_values),
    )
}
