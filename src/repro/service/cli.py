"""CLI entry points of service mode: ``serve`` and ``serve-worker``.

Dispatched by :func:`repro.cli.main` (so both ``python -m repro serve``
and the ``repro`` console script reach them)::

    repro serve --port 7171 --metrics-port 9464 --expected-sites 4
    repro serve-worker --port 7171 --site-id 0 --sites 4 --dataset A

A worker process loads the shared data set, takes its partition (same
``partition(seed)`` every site and the simulated runner use, so the
deployment reproduces the in-process run bit for bit) and runs the full
protocol against the live service.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["serve_main", "worker_main"]


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``serve`` command."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="run the DBDC central server as a socket service",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7171, help="protocol port (0 = ephemeral)"
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=9464,
        help="HTTP OpenMetrics port (0 = ephemeral, -1 = disabled)",
    )
    parser.add_argument(
        "--expected-sites",
        type=int,
        default=None,
        help="sites per round: a round commits when that many models are "
        "in (default: only on an explicit ROUND_COMMIT)",
    )
    parser.add_argument(
        "--eps-global",
        type=float,
        default=None,
        help="server merge radius (default: the paper's max eps_range)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="admission deadline in seconds after a round opens (round 0 "
        "opened by a bare upload: after service start)",
    )
    parser.add_argument(
        "--quorum",
        type=float,
        default=0.0,
        help="minimum admitted fraction for a healthy round",
    )
    parser.add_argument("--metric", default="euclidean", help="distance metric")
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        help="per-connection idle deadline in seconds",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="write-ahead journal directory (enables crash-restart "
        "recovery; replayed on startup when it already holds state)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission-queue bound: shed work requests beyond this many "
        "in flight with a typed 'overloaded' reply",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="refuse connections beyond this many concurrent ones",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=0.05,
        help="retry_after hint (seconds) stamped on overloaded replies",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Run a :class:`DBDCService` in the foreground until shutdown."""
    import asyncio

    from repro.service.server import DBDCService, ServiceConfig

    args = build_serve_parser().parse_args(argv)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        metrics_port=None if args.metrics_port < 0 else args.metrics_port,
        eps_global=args.eps_global,
        metric=args.metric,
        expected_sites=args.expected_sites,
        deadline_s=args.deadline,
        quorum=args.quorum,
        idle_timeout_s=args.idle_timeout,
        journal_dir=args.journal_dir,
        max_inflight_requests=args.max_inflight,
        max_connections=args.max_connections,
        retry_after_s=args.retry_after,
    )

    async def run() -> None:
        service = DBDCService(config)
        await service.start()
        metrics = service.metrics_bound_port
        scrape = (
            f", metrics on http://{config.host}:{metrics}/metrics"
            if metrics
            else ""
        )
        print(
            f"DBDC service on {config.host}:{service.bound_port}{scrape}",
            flush=True,
        )
        try:
            await service.serve_until_shutdown()
        except asyncio.CancelledError:
            await service.stop()
            raise

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted, shutting down", file=sys.stderr)
    return 0


def build_worker_parser() -> argparse.ArgumentParser:
    """Parser of the ``serve-worker`` command."""
    parser = argparse.ArgumentParser(
        prog="repro serve-worker",
        description="run one DBDC site against a live service",
    )
    parser.add_argument("--host", default="127.0.0.1", help="service host")
    parser.add_argument(
        "--port", type=int, required=True, help="service port"
    )
    parser.add_argument(
        "--site-id", type=int, required=True, help="this site's id"
    )
    parser.add_argument(
        "--sites", type=int, default=4, help="total sites in the deployment"
    )
    parser.add_argument("--dataset", default="A", help="data set name (A/B/C)")
    parser.add_argument(
        "--cardinality", type=int, default=None, help="data set size override"
    )
    parser.add_argument(
        "--scheme",
        default="rep_scor",
        choices=["rep_scor", "rep_kmeans"],
        help="local model scheme",
    )
    parser.add_argument("--seed", type=int, default=42, help="partition seed")
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout seconds"
    )
    parser.add_argument(
        "--await-global",
        type=float,
        default=60.0,
        help="seconds to wait for round 0's global model",
    )
    return parser


def worker_main(argv: list[str] | None = None) -> int:
    """Run one site worker process: partition, cluster, upload, relabel."""
    from repro.data.datasets import load_dataset
    from repro.distributed.partition import partition, split
    from repro.service.worker import run_site_worker

    args = build_worker_parser().parse_args(argv)
    if not 0 <= args.site_id < args.sites:
        print(
            f"site-id {args.site_id} out of range for {args.sites} sites",
            file=sys.stderr,
        )
        return 2
    data = load_dataset(args.dataset, cardinality=args.cardinality)
    assignment = partition(data.points, args.sites, seed=args.seed)
    parts = split(data.points, assignment)
    result = run_site_worker(
        args.host,
        args.port,
        args.site_id,
        parts[args.site_id],
        eps_local=data.eps_local,
        min_pts_local=data.min_pts,
        scheme=args.scheme,
        timeout_s=args.timeout,
        await_global_s=args.await_global,
    )
    summary = {
        "site_id": result.site_id,
        "verdict": result.verdict,
        "n_objects": result.n_objects,
        "n_labeled": int((result.labels >= 0).sum()),
        "n_noise": int((result.labels < 0).sum()),
        "upload_attempts": result.upload_attempts,
        "bytes_sent": result.bytes_sent,
        "wall_seconds": round(result.wall_seconds, 6),
    }
    if result.error:
        summary["error"] = result.error
    print(json.dumps(summary, sort_keys=True))
    return 0 if result.verdict == "admitted" else 1
