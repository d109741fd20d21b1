"""Command-line interface: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.cli fig6            # data set statistics + sketches
    python -m repro.cli fig7a fig7b     # runtime vs cardinality
    python -m repro.cli fig8 --cardinality 203000
    python -m repro.cli fig9 fig10 fig11
    python -m repro.cli ablations
    python -m repro.cli all             # everything (sized for a laptop)
    python -m repro.cli run --dataset A --sites 4 --scheme rep_kmeans
    python -m repro scenario hotpaths   # any preset of repro.scenario
    python -m repro scenario chaos-recovery --trials 3
    python -m repro runs list           # the run registry (.runs/)
    python -m repro runs regress --baseline baselines/run_smoke.json
    python -m repro serve               # live socket service (docs/service.md)
    python -m repro serve-worker --port 7171 --site-id 0

Every command (except ``runs`` itself) appends a schema-validated
RunRecord to the registry (``.runs/``, gitignored) through
:func:`repro.scenario.record`, so perf and quality trajectories
survive; ``--no-registry`` opts out.  The
figure commands print the same rows the paper reports;
``EXPERIMENTS.md`` records a captured run side by side with the paper's
numbers.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    run_compression_tradeoff,
    run_dimension_ablation,
    run_fig6,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_index_ablation,
    run_metric_ablation,
    run_noise_ablation,
    run_partition_ablation,
    run_site_failure_ablation,
    run_transmission_ablation,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="dbdc",
        description="DBDC (EDBT 2004) reproduction — experiment harness",
    )
    parser.add_argument(
        "commands",
        nargs="+",
        choices=[
            "fig6",
            "fig7a",
            "fig7b",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "ablations",
            "baselines",
            "figures",
            "all",
            "run",
        ],
        help="experiments to regenerate",
    )
    parser.add_argument(
        "--cardinality",
        type=int,
        default=None,
        help="override the data set cardinality (fig7/8/9/10, run)",
    )
    parser.add_argument(
        "--sites", type=int, default=4, help="number of client sites (run)"
    )
    parser.add_argument(
        "--dataset",
        default="A",
        choices=["A", "B", "C"],
        help="data set name for 'run'",
    )
    parser.add_argument(
        "--scheme",
        default="rep_scor",
        choices=["rep_scor", "rep_kmeans"],
        help="local model scheme for 'run'",
    )
    parser.add_argument("--seed", type=int, default=42, help="random seed")
    parser.add_argument(
        "--no-sketch", action="store_true", help="skip ASCII sketches in fig6"
    )
    parser.add_argument(
        "--out", default="figures", help="output directory for 'figures'"
    )
    parser.add_argument(
        "--registry",
        default=".runs",
        help="run registry root (RunRecords + artifacts)",
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        help="do not append a RunRecord to the registry",
    )
    return parser


def _spec(args: argparse.Namespace):
    """The scenario spec of ``run``'s data set options."""
    from repro.scenario import Scenario

    return Scenario(
        dataset=args.dataset,
        cardinality=(args.cardinality,) if args.cardinality else (),
        sites=args.sites,
        scheme=args.scheme,
        seed=args.seed,
    )


def _record_figure(args: argparse.Namespace, command: str, wall: float) -> None:
    """Record a figure command's wall time with the options it reads."""
    from repro.scenario import Report, record

    record(
        Report(spec=None, command=command,
               metrics={"command.wall_seconds": wall}),
        args.registry,
        config={
            "dataset": args.dataset,
            "cardinality": args.cardinality,
            "n_sites": args.sites,
            "scheme": args.scheme,
            "seed": args.seed,
        },
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Args:
        argv: argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code.
    """
    if argv is None:
        argv = sys.argv[1:]
    # The registry CLI is its own subcommand family with its own parser.
    if argv and argv[0] == "runs":
        from repro.obs.runs_cli import main as runs_main

        return runs_main(argv[1:])
    # Service mode commands own their parsers too (docs/service.md).
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "serve-worker":
        from repro.service.cli import worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "scenario":
        from repro.scenario import main as scenario_main

        return scenario_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = list(args.commands)
    spec = None
    if "run" in commands:
        # Validate before any command prints.
        try:
            spec = _spec(args)
        except ValueError as error:
            parser.error(str(error))
    if "all" in commands:
        commands = [
            "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "ablations", "baselines",
        ]

    for command in commands:
        command_start = time.perf_counter()
        if command == "fig6":
            table, sketches = run_fig6(sketch=not args.no_sketch)
            print(table.to_text())
            for name, sketch in sketches.items():
                print(f"\ndata set {name}:")
                print(sketch)
        elif command == "fig7a":
            print(run_fig7a(seed=args.seed).to_text())
        elif command == "fig7b":
            print(run_fig7b(seed=args.seed).to_text())
        elif command == "fig8":
            kwargs = {"seed": args.seed}
            if args.cardinality:
                kwargs["cardinality"] = args.cardinality
            print(run_fig8(**kwargs).to_text())
        elif command == "fig9":
            kwargs = {"seed": args.seed}
            if args.cardinality:
                kwargs["cardinality"] = args.cardinality
            print(run_fig9(**kwargs).to_text())
        elif command == "fig10":
            kwargs = {"seed": args.seed}
            if args.cardinality:
                kwargs["cardinality"] = args.cardinality
            print(run_fig10(**kwargs).to_text())
        elif command == "fig11":
            print(run_fig11(seed=args.seed).to_text())
        elif command == "ablations":
            print(run_index_ablation(seed=args.seed).to_text())
            print()
            print(run_partition_ablation(seed=args.seed).to_text())
            print()
            print(run_transmission_ablation(seed=args.seed).to_text())
            print()
            print(run_metric_ablation(seed=args.seed).to_text())
            print()
            print(run_dimension_ablation(seed=args.seed).to_text())
            print()
            print(run_noise_ablation(seed=args.seed).to_text())
            print()
            print(run_site_failure_ablation(seed=args.seed).to_text())
            print()
            print(run_compression_tradeoff(seed=args.seed).to_text())
        elif command == "figures":
            from repro.viz.figures import render_all_figures

            paths = render_all_figures(args.out, seed=args.seed)
            for path in paths:
                print(f"wrote {path}")
        elif command == "baselines":
            from repro.experiments.baselines import run_baseline_comparison

            print(run_baseline_comparison(seed=args.seed).to_text())
        elif command == "run":
            from repro.scenario import execute

            status = execute(
                spec,
                "run",
                registry=None if args.no_registry else args.registry,
            )
            if status:
                return status
        if command in (
            "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "ablations", "baselines", "figures",
        ) and not args.no_registry:
            _record_figure(args, command, time.perf_counter() - command_start)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
