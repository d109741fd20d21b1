"""Benchmark of the DBDC reproduction, one workload per run.

Run from the root of the repository::

    python3 perfbench/run.py --workload dbdc-a --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``dbdc-a`` — one in-process DBDC run over data set A (8,700 points) on
  4 sites, repeated;
* ``dbdc-b`` — the same over the noisy data set B (4,000 points);
* ``session`` — one 4-site, 3-round streaming session over real sockets
  against a journaling service, repeated;
* ``query-storm`` — 8 closed-loop clients sending 256-point label queries
  to a live service.

The whole run is pinned to one CPU, and every time is corrected to a
reference machine speed (``speed.py``).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:
median operation latency, a tail percentile of it (p75 for the two
repeated workloads, p90 for the query storm), points processed per
second of work, and set-up time (the median of several set-ups).  With
``--trace 1`` the same loop runs with per-layer timers installed
(``layers.py``) and the metrics are per-operation busy time and call
counts of each layer, plus the traced median latency; its difference to
the untraced ``latency_ms`` is the tracing overhead.  A traced run in
which a layer entry point is gone, or a layer the workload must reach
records no call, reports ``correct: false`` and names the layer on
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated and its median reported, so one slow boot does not
# decide the figure.
SETUP_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One CPU for the whole run, before any thread starts: the gauge then
    # reads the speed of the CPU the program runs on, and the threaded
    # workloads do not pay GIL hand-offs between CPUs, whose cost swings
    # with the load other tenants put on the second CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    from layers import LayerClock
    from speed import SpeedGauge
    from workloads import WORKLOAD_LAYERS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    gauge = SpeedGauge()
    try:
        setups = []
        for __ in range(SETUP_REPEATS):
            gauge.mark()
            start = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - start) * gauge.scale())
        clock = LayerClock().install() if args.trace else None
        try:
            measured = workload.measure(args.seconds, gauge)
        finally:
            if clock is not None:
                clock.uninstall()
        wrong = workload.verify()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    latencies = measured.latencies
    problems = [] if clock is None else clock.problems(WORKLOAD_LAYERS[args.workload])
    for problem in problems:
        print(problem, file=sys.stderr)
    if clock is None:
        metrics = {
            "latency_ms": (1e3 * statistics.median(latencies), "ms"),
            "tail_ms": (
                1e3 * percentile(latencies, workload.TAIL_PERCENTILE), "ms"
            ),
            "throughput_pts_s": (
                measured.points / measured.busy_seconds, "pts/s"
            ),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        metrics = clock.metrics(len(latencies), statistics.median(measured.scales))
        metrics["traced_latency_ms"] = (1e3 * statistics.median(latencies), "ms")
    result = {
        "correct": wrong == 0 and measured.failed == 0 and not problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
