"""Command-line surface.

Every subcommand reads a scenario file (except the two harness commands),
prints a human-readable report, or a JSON document with --json. Exit codes:
0 success, 1 audit/verification failure, 2 parse or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dot import export_dot
from .dualgraph import build_dual_graph
from .errors import LogSurfError
from .mmp import (
    MmpRun,
    SearchConfig,
    parse_strategy,
    run,
    search_canonical_starts,
    verify_smooth_start_runs,
)
from .scenario import MAX_BLOWUPS, build_model, build_state, load_scenario, parse_rational
from .singularities import (
    QDivisor,
    SingularityClass,
    classify,
    log_discrepancies,
    pullback,
)


def _fmt_q(value) -> str:
    return "n/a" if value is None else _json_q(value)


def _json_q(value):
    # rationals travel as "p/q" strings, never floats; NEG_INFINITY as "-inf"
    return None if value is None else str(value)


def _print_table(header, rows) -> None:
    table = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def _classification_json(sc: SingularityClass) -> dict:
    return {
        "total_discrepancy": _json_q(sc.total_discrepancy),
        "classification": sc.classification,
        "mr_total_discrepancy": _json_q(sc.mr_total_discrepancy),
        "mr_classification": sc.mr_classification,
        "epsilon": _json_q(sc.epsilon),
    }


def _cmd_build(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    rows = [
        (name, model.self_int(name), model.k_dot(name), model.genus(name))
        for name in model.tracked
    ]
    if args.json:
        doc = {
            "rank": model.rank,
            "k_squared": model.k_squared,
            "contracted": sorted(model.contracted),
            "curves": [
                {"name": n, "self_int": s, "k_dot": k, "genus": str(g)}
                for n, s, k, g in rows
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0
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
        print(json.dumps(_classification_json(sc), indent=2))
        return 0
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
        print(json.dumps({n: str(a) for n, a in table.coefficients}, indent=2))
        return 0
    _print_table(["curve", "discrepancy"], list(table.coefficients))
    return 0


def _cmd_pullback(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    coeffs = pullback(model, QDivisor.from_map({args.divisor: 1}))
    if args.json:
        print(json.dumps({"divisor": args.divisor, "coefficients": {n: str(c) for n, c in coeffs.coefficients}}, indent=2))
        return 0
    print(f"numerical pullback of {args.divisor}: {args.divisor} + sum of")
    _print_table(["curve", "coefficient"], list(coeffs.coefficients))
    return 0


def _outcome_json(outcome) -> dict:
    doc = {"kind": _outcome_kind(outcome)}
    if hasattr(outcome, "curve"):
        doc["curve"] = outcome.curve
        doc["self_int"] = _json_q(outcome.self_int)
    return doc


def _outcome_kind(outcome) -> str:
    return {
        "MinimalOverTracked": "minimal-over-tracked",
        "MoriFiberSignal": "mori-fiber-signal",
        "Exhausted": "exhausted",
    }[type(outcome).__name__]


def _run_json(result: MmpRun) -> dict:
    audit = result.audit
    return {
        "steps": [
            {
                "contracted_curve": s.contracted_curve,
                "extremal_value": _json_q(s.extremal_value),
                "self_int": _json_q(s.self_int),
                "kind": s.kind,
                "post_classification": _classification_json(s.post_classification),
            }
            for s in result.steps
        ],
        "outcome": _outcome_json(result.outcome),
        "audit": {
            "initial_rho": audit.initial_rho,
            "rho_sequence": list(audit.rho_sequence),
            "smooth_start": audit.smooth_start,
            "coefficients_bounded": audit.coefficients_bounded,
            "epsilon": _json_q(audit.epsilon),
            "steps": [
                {
                    "curve": s.curve,
                    "rho_before": s.rho_before,
                    "rho_after": s.rho_after,
                    "effectivity_ok": s.effectivity_ok,
                    "classification": s.classification,
                    "step3_applicable": s.step3_applicable,
                    "step3_value": _json_q(s.step3_value),
                    "step3_ok": s.step3_ok,
                }
                for s in audit.steps
            ],
            "violations": list(audit.violations),
            "ok": audit.ok,
        },
    }


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    state = build_state(scenario)
    strategy = parse_strategy(args.strategy if args.strategy is not None else scenario.strategy)
    result = run(state, strategy, epsilon=scenario.epsilon)
    audit = result.audit
    if args.json:
        print(json.dumps(_run_json(result), indent=2))
        return 0 if audit.ok else 1
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
    if audit.ok:
        print("audit violations: none")
        return 0
    print(f"audit violations ({len(audit.violations)}):")
    for v in audit.violations:
        print(f"  - {v}")
    return 1


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
        doc = {
            "trials": report.trials,
            "seed": report.seed,
            "epsilon": _json_q(report.epsilon),
            "max_blowups": report.max_blowups,
            "total_steps": report.total_steps,
            "outcomes": dict(report.outcome_counts),
            "violations": list(report.violations),
            "ok": report.ok,
        }
        print(json.dumps(doc, indent=2))
        return 0 if report.ok else 1
    print(f"trials: {report.trials}  seed: {report.seed}  epsilon: {report.epsilon}  max blow-ups: {report.max_blowups}")
    print(f"total contraction steps: {report.total_steps}")
    for name, count in report.outcome_counts:
        print(f"outcome {name}: {count}")
    if report.ok:
        print("violations: none")
        return 0
    print(f"violations ({len(report.violations)}):")
    for v in report.violations:
        print(f"  - {v}")
    return 1


def _cmd_dot(args) -> int:
    scenario = load_scenario(args.scenario)
    model = build_model(scenario)
    names = model.tracked if args.set == "all" else sorted(model.contracted)
    text = export_dot(build_dual_graph(model, names))
    if args.json:
        print(json.dumps({"dot": text}, indent=2))
        return 0
    sys.stdout.write(text)
    return 0


def _cmd_search(args) -> int:
    report = search_canonical_starts(SearchConfig(), trials=args.trials, seed=args.seed)
    if args.json:
        doc = {
            "trials": report.trials,
            "seed": report.seed,
            "canonical_starts": report.canonical_starts,
            "total_steps": report.total_steps,
            "runs_with_not_lc_intermediate": report.runs_with_not_lc_intermediate,
            "not_lc_steps": report.not_lc_steps,
            "samples": list(report.samples),
        }
        print(json.dumps(doc, indent=2))
        return 0
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
