"""Command-line surface.

Every subcommand reads a scenario file (except the two harness commands),
prints a human-readable report, or a JSON document with --json. A report
that a record holds is that record's fields in declaration order. Exit
codes: 0 success, 1 audit/verification failure, 2 parse or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from functools import cache

from .dot import export_dot
from .dualgraph import build_dual_graph
from .errors import LogSurfError
from .mmp import (
    AuditStep,
    Exhausted,
    MinimalOverTracked,
    MoriFiberSignal,
    SearchConfig,
    VerificationReport,
    parse_strategy,
    run,
    search_canonical_starts,
    verify_smooth_start_runs,
)
from .scenario import MAX_BLOWUPS, build_model, build_state, load_scenario, parse_rational
from .singularities import QDivisor, classify, log_discrepancies, pullback

_KINDS = {MinimalOverTracked: "minimal-over-tracked", MoriFiberSignal: "mori-fiber-signal", Exhausted: "exhausted"}

# the two places a --json report departs from its record's fields: the
# run's MmpStep already shows an AuditStep's class, and the outcome counts
# are one object
_DEPARTURES = {
    (AuditStep, "post_classification"): (None, None),
    (VerificationReport, "outcome_counts"): ("outcomes", dict),
}


def _fmt_q(value) -> str:
    # rationals print as "p/q" strings, never floats; NEG_INFINITY as "-inf"
    return "n/a" if value is None else str(value)


def _outcome_kind(outcome) -> str:
    return _KINDS[type(outcome)]


@cache
def _shown(cls):
    """(attribute, key, encoder) for each field a `cls` record shows, in
    declaration order, then `ok` where it has one; None if `cls` is no record."""
    if not is_dataclass(cls):
        return None
    shown = [(f.name, *_DEPARTURES.get((cls, f.name), (f.name, _encode))) for f in fields(cls)]
    if isinstance(getattr(cls, "ok", None), property):
        shown.append(("ok", "ok", _encode))
    return tuple(entry for entry in shown if entry[1] is not None)


def _encode(value):
    """`value` as JSON: a record as its shown fields, an outcome led by its
    kind; a tuple as a list; None, bools, ints and strings as they are; and
    anything else, a Fraction or NEG_INFINITY, as its "p/q" string."""
    cls = type(value)
    if value is None or cls in (bool, int, str):
        return value
    if cls is tuple:
        return [_encode(v) for v in value]
    shown = _shown(cls)
    if shown is None:
        return str(value)
    doc = {"kind": _outcome_kind(value)} if cls in _KINDS else {}
    for attr, key, encode in shown:
        doc[key] = encode(getattr(value, attr))
    return doc


def _print_json(doc, ok=True) -> int:
    print(json.dumps(doc, indent=2))
    return 0 if ok else 1


def _print_violations(violations, label="violations") -> int:
    print(f"{label} ({len(violations)}):" if violations else f"{label}: none")
    for v in violations:
        print(f"  - {v}")
    return 1 if violations else 0


def _print_table(header, rows) -> None:
    table = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def _cmd_build(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    rows = [
        (name, model.self_int(name), model.k_dot(name), model.genus(name))
        for name in model.tracked
    ]
    if args.json:
        return _print_json({
            "rank": model.rank,
            "k_squared": model.k_squared,
            "contracted": sorted(model.contracted),
            "curves": [
                {"name": n, "self_int": s, "k_dot": k, "genus": str(g)}
                for n, s, k, g in rows
            ],
        })
    print(f"rank: {model.rank}  K²: {model.k_squared}")
    print(f"contracted: {', '.join(sorted(model.contracted)) or '(none)'}")
    _print_table(["curve", "self²", "K·C", "genus"], rows)
    return 0


def _cmd_classify(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    epsilon = scenario.epsilon if args.epsilon is None else parse_rational(args.epsilon, "epsilon")
    sc = classify(model, scenario.boundary, epsilon)
    if args.json:
        return _print_json(_encode(sc))
    print(f"epsilon: {sc.epsilon}")
    print(f"total discrepancy: {_fmt_q(sc.total_discrepancy)}")
    print(f"classification: {sc.classification}")
    print(f"minimal resolution total discrepancy: {_fmt_q(sc.mr_total_discrepancy)}")
    print(f"minimal resolution classification: {sc.mr_classification}")
    return 0


def _cmd_discrepancies(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    table = log_discrepancies(model, QDivisor.zero())
    if args.json:
        return _print_json({n: str(a) for n, a in table.coefficients})
    _print_table(["curve", "discrepancy"], list(table.coefficients))
    return 0


def _cmd_pullback(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    coeffs = pullback(model, QDivisor.from_map({args.divisor: 1}))
    if args.json:
        return _print_json({"divisor": args.divisor, "coefficients": {n: str(c) for n, c in coeffs.coefficients}})
    print(f"numerical pullback of {args.divisor}: {args.divisor} + sum of")
    _print_table(["curve", "coefficient"], list(coeffs.coefficients))
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    state = build_state(scenario)
    strategy = parse_strategy(args.strategy if args.strategy is not None else scenario.strategy)
    result = run(state, strategy, epsilon=scenario.epsilon)
    audit = result.audit
    if args.json:
        return _print_json(_encode(result), audit.ok)
    if result.steps:
        print("steps:")
        for i, s in enumerate(result.steps, start=1):
            print(
                f"  {i}. contract {s.contracted_curve} ({s.kind})"
                f"  value={s.extremal_value}  self²={s.self_int}"
                f"  post={s.post_classification.classification}"
            )
    else:
        print("steps: (none)")
    line = f"outcome: {_outcome_kind(result.outcome)}"
    if hasattr(result.outcome, "curve"):
        line += f" (curve {result.outcome.curve}, self²={result.outcome.self_int})"
    print(line)
    print(f"audit: rho {' -> '.join(str(r) for r in audit.rho_sequence)}")
    return _print_violations(audit.violations, "audit violations")


def _cmd_verify(args) -> int:
    if args.max_blowups > MAX_BLOWUPS:
        raise ValueError(f"max_blowups {args.max_blowups} exceeds the cap of {MAX_BLOWUPS} blow-ups")
    report = verify_smooth_start_runs(
        trials=args.trials,
        seed=args.seed,
        epsilon=parse_rational(args.epsilon, "epsilon"),
        max_blowups=args.max_blowups,
    )
    if args.json:
        return _print_json(_encode(report), report.ok)
    print(f"trials: {report.trials}  seed: {report.seed}  epsilon: {report.epsilon}  max blow-ups: {report.max_blowups}")
    print(f"total contraction steps: {report.total_steps}")
    for name, count in report.outcome_counts:
        print(f"outcome {name}: {count}")
    return _print_violations(report.violations)


def _cmd_dot(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    names = model.tracked if args.set == "all" else sorted(model.contracted)
    text = export_dot(build_dual_graph(model, names))
    if args.json:
        return _print_json({"dot": text})
    sys.stdout.write(text)
    return 0


def _cmd_search(args) -> int:
    report = search_canonical_starts(SearchConfig(), trials=args.trials, seed=args.seed)
    if args.json:
        return _print_json(_encode(report))
    print(f"trials: {report.trials}  seed: {report.seed}")
    print(f"canonical starts: {report.canonical_starts}")
    print(f"total contraction steps: {report.total_steps}")
    print(f"runs with a not-log-canonical intermediate: {report.runs_with_not_lc_intermediate}")
    print(f"not-log-canonical steps: {report.not_lc_steps}")
    for s in report.samples:
        print(f"  - {s}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsurf",
        description="Exact log-MMP contractions and singularity classification on blown-up planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, scenario_arg=True):
        p = sub.add_parser(name, help=help_text)
        if scenario_arg:
            p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    add("build", _cmd_build, "validate a scenario and print its curve table")
    p = add("classify", _cmd_classify, "classify the pair's contracted singularities")
    p.add_argument("--epsilon", default=None, help='threshold "p/q" (default: scenario epsilon)')
    add("discrepancies", _cmd_discrepancies, "exact discrepancies of the contracted curves")
    p = add("pullback", _cmd_pullback, "numerical pullback coefficients of a tracked curve")
    p.add_argument("--divisor", required=True, help="tracked curve name")
    p = add("run", _cmd_run, "run the contraction loop and audit it")
    p.add_argument("--strategy", default=None, help='"most-negative" or "named:A,B,..." (default: scenario strategy)')
    p = add("verify-thm31", _cmd_verify, "randomized smooth-start runs; fails on any audit violation", scenario_arg=False)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", required=True, help='threshold "p/q"')
    p.add_argument("--max-blowups", type=int, default=10)
    p = add("dot", _cmd_dot, "emit the weighted dual graph as DOT")
    p.add_argument("--set", choices=("contracted", "all"), default="contracted")
    p = add("search-q44", _cmd_search, "canonical-start evidence harness", scenario_arg=False)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (LogSurfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
