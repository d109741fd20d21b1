"""``python -m repro runs`` — inspect, diff, regress and prune the run
registry.

Subcommands::

    runs list    [-n N]                      # newest-last table
    runs show    REF                         # full RunRecord JSON
    runs diff    A B                         # structured metric diff
    runs regress --baseline REF [...]        # noise-aware gate, exit 1
    runs gc      --keep N                    # prune old records+artifacts
    runs export  REF [--out FILE]            # OpenMetrics textfile
    runs critical-path TRACE_JSON            # per-round gating site/phase

``REF`` is a run id (unique prefixes work), ``latest`` / ``latest~N``,
or a path to a committed record file (JSON or JSONL; a JSONL baseline
with k repeats is reduced by per-metric median).  See
``docs/observability.md`` for the regression thresholds and the CI
recipe.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.export import critical_path, format_critical_path, validate_trace
from repro.obs.openmetrics import render_run_record
from repro.obs.regress import (
    DEFAULT_RULES,
    detect_regressions,
    diff_records,
)
from repro.obs.registry import DEFAULT_REGISTRY_ROOT, RunRegistry

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``runs`` sub-parser family."""
    parser = argparse.ArgumentParser(
        prog="dbdc runs",
        description="DBDC run registry — list, diff, regress, gc, export",
    )
    parser.add_argument(
        "--registry",
        default=DEFAULT_REGISTRY_ROOT,
        help="registry root directory (default: .runs)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_list = sub.add_parser("list", help="list recorded runs")
    p_list.add_argument("-n", type=int, default=20, help="show the last N")

    p_show = sub.add_parser("show", help="print one RunRecord as JSON")
    p_show.add_argument("ref", help="run id / latest[~N] / record file")

    p_diff = sub.add_parser("diff", help="structured metric diff of two runs")
    p_diff.add_argument("baseline", help="baseline reference")
    p_diff.add_argument("candidate", help="candidate reference")
    p_diff.add_argument(
        "--json", action="store_true", help="emit the raw diff document"
    )

    p_reg = sub.add_parser(
        "regress", help="regression gate (exit 1 on regression)"
    )
    p_reg.add_argument(
        "--baseline", required=True, help="baseline reference (see above)"
    )
    p_reg.add_argument(
        "--candidate",
        default="latest",
        help="candidate reference (default: latest)",
    )
    p_reg.add_argument(
        "--last",
        type=int,
        default=1,
        help="median over the last N registry records matching the "
        "candidate's command (median-of-k repeats)",
    )
    p_reg.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fnmatch pattern of metric names to drop (repeatable)",
    )
    p_reg.add_argument(
        "--ignore-timing",
        action="store_true",
        help="drop wall/CPU-clock metrics (cross-machine comparisons)",
    )
    p_reg.add_argument(
        "--threshold-scale",
        type=float,
        default=1.0,
        help="scale every rule's noise thresholds",
    )

    p_gc = sub.add_parser("gc", help="prune the registry")
    p_gc.add_argument(
        "--keep", type=int, required=True, help="records to keep (newest)"
    )

    p_exp = sub.add_parser("export", help="OpenMetrics textfile export")
    p_exp.add_argument("ref", help="run id / latest[~N] / record file")
    p_exp.add_argument("--out", default=None, help="output path (default: stdout)")

    p_cp = sub.add_parser(
        "critical-path", help="per-round critical path of a merged session trace"
    )
    p_cp.add_argument("trace", help="a merged session trace JSON file")
    return parser


def _cmd_list(registry: RunRegistry, args) -> int:
    records = registry.load_records()[-args.n :]
    if not records:
        print(f"no runs recorded in {registry.root}")
        return 0
    header = f"{'run id':44s}  {'command':10s}  {'git':10s}  metrics"
    print(header)
    print("-" * len(header))
    for record in records:
        git_rev = str(record["environment"].get("git_rev", ""))[:10]
        print(
            f"{record['run_id']:44s}  {record['command']:10s}  "
            f"{git_rev:10s}  {len(record['metrics'])}"
        )
    return 0


def _cmd_show(registry: RunRegistry, args) -> int:
    (record,) = registry.resolve(args.ref)[-1:]
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_diff(registry: RunRegistry, args) -> int:
    baseline = registry.resolve(args.baseline)[-1]
    candidate = registry.resolve(args.candidate)[-1]
    diff = diff_records(baseline, candidate)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
        return 0
    print(f"baseline : {diff['baseline_run_id']}")
    print(f"candidate: {diff['candidate_run_id']}")
    for name, entry in diff["metrics"].items():
        if entry["delta"] is None:
            side = "baseline" if entry["candidate"] is None else "candidate"
            print(f"  {name}: only in {side}")
            continue
        if entry["delta"] == 0:
            continue
        rel = (
            f" ({entry['rel_delta']:+.1%})"
            if entry["rel_delta"] is not None
            else ""
        )
        print(
            f"  {name}: {entry['baseline']:g} -> {entry['candidate']:g}"
            f"{rel}  [{entry['verdict']}]"
        )
    return 0


def _cmd_regress(registry: RunRegistry, args) -> int:
    baselines = registry.resolve(args.baseline)
    candidates = registry.resolve(args.candidate)
    base_commands = {r["command"] for r in baselines}
    cand_commands = {r["command"] for r in candidates}
    # A scenario preset records under its own name, so a baseline from an
    # older command is fine as long as the two share metric names.
    shared = {n for r in baselines for n in r["metrics"]} & {
        n for r in candidates for n in r["metrics"]
    }
    if base_commands != cand_commands and not shared:
        print(
            f"warning: comparing different commands "
            f"({sorted(base_commands)} vs {sorted(cand_commands)}) that "
            f"share no metric",
            file=sys.stderr,
        )
    if args.last > 1 and len(candidates) == 1:
        if Path(args.candidate).is_file():
            print(
                "warning: --last ignored: candidate resolved from a "
                "record file, not the registry",
                file=sys.stderr,
            )
        else:
            candidate = candidates[0]
            widened = registry.last_runs(
                candidate["command"],
                args.last,
                config_digest=candidate.get("config_digest"),
            )
            if 0 < len(widened) < args.last:
                print(
                    f"warning: only {len(widened)} of the requested "
                    f"{args.last} registry records match the candidate's "
                    "command and config digest",
                    file=sys.stderr,
                )
            if widened:
                candidates = widened
    report = detect_regressions(
        baselines,
        candidates,
        rules=DEFAULT_RULES,
        ignore=tuple(args.ignore),
        include_timing=not args.ignore_timing,
        threshold_scale=args.threshold_scale,
    )
    print(report.to_text())
    return 0 if report.ok else 1


def _cmd_gc(registry: RunRegistry, args) -> int:
    dropped = registry.gc(args.keep)
    print(f"dropped {len(dropped)} record(s), kept the newest {args.keep}")
    for run_id in dropped:
        print(f"  - {run_id}")
    return 0


def _cmd_export(registry: RunRegistry, args) -> int:
    record = registry.resolve(args.ref)[-1]
    text = render_run_record(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_critical_path(registry: RunRegistry, args) -> int:
    doc = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    errors = validate_trace(doc)
    for error in errors:
        print(f"INVALID TRACE: {error}")
    rows = critical_path(doc)
    print(format_critical_path(rows))
    return 0 if rows and not errors else 1


_COMMANDS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "diff": _cmd_diff,
    "regress": _cmd_regress,
    "gc": _cmd_gc,
    "export": _cmd_export,
    "critical-path": _cmd_critical_path,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``runs`` subcommand family.

    Returns:
        Process exit code (``regress`` exits 1 on regression, 2 on
        unresolvable references).
    """
    args = build_parser().parse_args(argv)
    registry = RunRegistry(args.registry)
    try:
        return _COMMANDS[args.subcommand](registry, args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
