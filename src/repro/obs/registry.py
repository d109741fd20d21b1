"""Durable run registry: schema-validated RunRecords in an append-only
JSONL store.

Every harness entry point (``bench``, ``chaos``, ``trace``, ``run``, the
figure runners) appends one **RunRecord** per execution — run id, UTC
timestamp, git revision, config digest, interpreter/library versions,
cpu count, a flat ``metrics`` dict (timings, bytes, retries, Q_DBDC,
transmission ratios) and pointers into a per-run artifact directory —
so performance and quality trajectories survive across machines and
checkouts instead of being overwritten in place.

Layout (gitignored, see ``docs/observability.md``)::

    .runs/
      records.jsonl            # append-only, one RunRecord per line
      artifacts/<run_id>/      # full reports (BENCH JSON, traces, ...)

The record shape is pinned by ``runrecord_schema.json`` (validated with
the same built-in JSON-Schema subset the trace documents use), and the
``python -m repro runs`` CLI family (:mod:`repro.obs.runs_cli`) renders,
diffs, regresses and garbage-collects the store.  Like the rest of
``repro.obs`` this module is a leaf: it imports nothing from the rest of
``repro``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform as _platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.export import validate_document

__all__ = [
    "RUNRECORD_VERSION",
    "DEFAULT_REGISTRY_ROOT",
    "git_revision",
    "utc_now_iso",
    "run_environment",
    "config_digest",
    "build_run_record",
    "load_runrecord_schema",
    "validate_run_record",
    "RunRegistry",
]

RUNRECORD_VERSION = 1
DEFAULT_REGISTRY_ROOT = ".runs"

_SCHEMA_PATH = Path(__file__).with_name("runrecord_schema.json")
_RUN_COUNTER = itertools.count()


def load_runrecord_schema() -> dict:
    """Load the checked-in RunRecord schema."""
    return json.loads(_SCHEMA_PATH.read_text())


def validate_run_record(record, schema: dict | None = None) -> list[str]:
    """Validate a RunRecord dict; returns problems (empty means valid)."""
    if schema is None:
        schema = load_runrecord_schema()
    return validate_document(record, schema)


def git_revision(cwd=None) -> str:
    """The current git commit hash (``"unknown"`` outside a checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _git_dirty(cwd=None) -> bool | None:
    """Whether the worktree has uncommitted changes (``None`` if unknown)."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return bool(proc.stdout.strip())


def utc_now_iso() -> str:
    """The current UTC time as ``YYYY-MM-DDTHH:MM:SSZ``."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def usable_cpu_count() -> int | None:
    """CPUs this process may run on: the size of its affinity set where
    the OS keeps one (a ``taskset``-pinned process sees only its pinned
    CPUs), else ``os.cpu_count()`` (``None`` when even that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def run_environment(cwd=None) -> dict:
    """Provenance block shared by RunRecords and the BENCH ``meta``
    stamps: git revision + dirtiness, python/numpy versions, usable cpu
    count, platform string."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "git_rev": git_revision(cwd),
        "git_dirty": _git_dirty(cwd),
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": usable_cpu_count(),
        "platform": _platform.platform(),
    }


def config_digest(config: dict | None) -> str:
    """Short stable digest of a JSON-able config dict.

    Canonical-JSON (sorted keys, tight separators) sha256, truncated —
    two runs share a digest iff they ran the same configuration.
    """
    canonical = json.dumps(
        config or {}, sort_keys=True, separators=(",", ":"), default=str
    )
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _clean_metrics(metrics: dict | None) -> dict:
    """Coerce metric values to JSON-safe floats (non-finite → ``None``)."""
    out: dict[str, float | None] = {}
    for name, value in (metrics or {}).items():
        if value is None:
            out[str(name)] = None
            continue
        value = float(value)
        out[str(name)] = value if math.isfinite(value) else None
    return out


def _make_run_id(command: str, created_utc: str, digest: str) -> str:
    """Sortable unique id: ``<timestamp>-<command>-<8 hex>``."""
    stamp = created_utc.replace("-", "").replace(":", "")
    material = "|".join(
        [created_utc, command, digest, str(os.getpid()), str(next(_RUN_COUNTER))]
    )
    suffix = hashlib.sha256(material.encode()).hexdigest()[:8]
    return f"{stamp}-{command}-{suffix}"


def build_run_record(
    command: str,
    *,
    config: dict | None = None,
    metrics: dict | None = None,
    metrics_registry: dict | None = None,
    artifacts: dict[str, str] | None = None,
    environment: dict | None = None,
    created_utc: str | None = None,
    run_id: str | None = None,
) -> dict:
    """Assemble and validate one RunRecord dict.

    Args:
        command: the harness command that produced the run (``bench`` …).
        config: the JSON-able configuration the run executed.
        metrics: flat ``{dotted.name: float}`` measurements; per-kind
            variants append the kind in brackets
            (``"net.bytes[local_model]"``), matching the metric-name
            contract of :mod:`repro.obs.metrics`.
        metrics_registry: an optional ``MetricsRegistry.to_dict()``
            snapshot.
        artifacts: ``{name: registry-relative path}`` pointers (the
            :class:`RunRegistry` fills these in when it writes files).
        environment: provenance override (defaults to
            :func:`run_environment`).
        created_utc: timestamp override (defaults to now).
        run_id: id override (defaults to a fresh sortable id).

    Returns:
        The validated record.

    Raises:
        ValueError: when the assembled record fails schema validation.
    """
    config = dict(config or {})
    created = created_utc or utc_now_iso()
    digest = config_digest(config)
    record = {
        "version": RUNRECORD_VERSION,
        "run_id": run_id or _make_run_id(command, created, digest),
        "command": command,
        "created_utc": created,
        "environment": dict(environment) if environment else run_environment(),
        "config": config,
        "config_digest": digest,
        "metrics": _clean_metrics(metrics),
        "metrics_registry": metrics_registry,
        "artifacts": dict(artifacts or {}),
    }
    problems = validate_run_record(record)
    if problems:
        raise ValueError(
            "invalid RunRecord: " + "; ".join(problems)
        )
    return record


class RunRegistry:
    """The on-disk registry: append-only JSONL plus per-run artifacts."""

    def __init__(self, root=DEFAULT_REGISTRY_ROOT) -> None:
        self.root = Path(root)

    @property
    def records_path(self) -> Path:
        """The append-only JSONL file."""
        return self.root / "records.jsonl"

    def artifacts_dir(self, run_id: str) -> Path:
        """The artifact directory of one run."""
        return self.root / "artifacts" / run_id

    def record(
        self,
        command: str,
        *,
        config: dict | None = None,
        metrics: dict | None = None,
        metrics_registry: dict | None = None,
        artifacts: dict | None = None,
        environment: dict | None = None,
        created_utc: str | None = None,
        run_id: str | None = None,
    ) -> dict:
        """Write one run: artifacts to disk, the record to the JSONL.

        ``artifacts`` maps names to payloads — dicts/lists are written as
        pretty JSON, strings as text — and the stored record points at
        the written files with registry-relative paths.

        Returns:
            The appended (validated) RunRecord.
        """
        record = build_run_record(
            command,
            config=config,
            metrics=metrics,
            metrics_registry=metrics_registry,
            environment=environment,
            created_utc=created_utc,
            run_id=run_id,
        )
        art_dir = self.artifacts_dir(record["run_id"])
        for name, payload in (artifacts or {}).items():
            art_dir.mkdir(parents=True, exist_ok=True)
            path = art_dir / name
            if isinstance(payload, str):
                path.write_text(payload)
            else:
                path.write_text(
                    json.dumps(payload, indent=2, sort_keys=True, default=str)
                    + "\n"
                )
            record["artifacts"][name] = str(path.relative_to(self.root))
        self.root.mkdir(parents=True, exist_ok=True)
        with self.records_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def load_records(self) -> list[dict]:
        """All records, oldest first (malformed lines are skipped)."""
        if not self.records_path.exists():
            return []
        records = []
        for line in self.records_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "run_id" in record:
                records.append(record)
        return records

    def resolve(self, ref: str) -> list[dict]:
        """Resolve a record reference to a list of records.

        ``ref`` may be a path to a committed record file (single JSON
        object, a JSON list, or JSONL — every contained record is
        returned, which is how median-of-k baselines are committed), the
        literal ``latest`` / ``latest~N``, or a run id (unique prefixes
        accepted).

        Raises:
            ValueError: when the reference matches nothing (or is
                ambiguous).
        """
        path = Path(ref)
        if path.exists() and path.is_file():
            return _records_from_file(path)
        records = self.load_records()
        if not records:
            raise ValueError(
                f"cannot resolve {ref!r}: registry {self.root} is empty"
            )
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if ref.startswith("latest~"):
                back = int(ref.split("~", 1)[1])
            if back >= len(records):
                raise ValueError(
                    f"cannot resolve {ref!r}: only {len(records)} records"
                )
            return [records[-1 - back]]
        exact = [r for r in records if r["run_id"] == ref]
        if exact:
            return [exact[-1]]
        prefixed = [r for r in records if r["run_id"].startswith(ref)]
        if len(prefixed) == 1:
            return prefixed
        if len(prefixed) > 1:
            ids = ", ".join(r["run_id"] for r in prefixed[:5])
            raise ValueError(f"ambiguous run id prefix {ref!r}: {ids}")
        raise ValueError(f"no record matches {ref!r} in {self.root}")

    def last_runs(
        self, command: str, n: int, *, config_digest: str | None = None
    ) -> list[dict]:
        """The most recent ``n`` records of one command, oldest first.

        When ``config_digest`` is given, only records carrying that
        digest qualify, so median-of-k windows cannot silently mix
        runs produced under different configurations.
        """
        matching = [
            r
            for r in self.load_records()
            if r["command"] == command
            and (
                config_digest is None
                or r.get("config_digest") == config_digest
            )
        ]
        return matching[-n:]

    def gc(self, keep: int) -> list[str]:
        """Drop all but the newest ``keep`` records (and their artifacts).

        Returns:
            The dropped run ids, oldest first.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        records = self.load_records()
        # Clamp before slicing: a negative start would wrap around and
        # drop the newest records when keep > len(records).
        start = max(0, len(records) - keep)
        kept = records[start:]
        dropped = records[:start]
        if not dropped:
            return []
        tmp_path = self.records_path.with_suffix(".jsonl.tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            for record in kept:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        tmp_path.replace(self.records_path)
        for record in dropped:
            art_dir = self.artifacts_dir(record["run_id"])
            if art_dir.is_dir():
                for child in sorted(
                    art_dir.rglob("*"), key=lambda p: len(p.parts), reverse=True
                ):
                    if child.is_file():
                        child.unlink()
                    else:
                        child.rmdir()
                art_dir.rmdir()
        return [record["run_id"] for record in dropped]


def _records_from_file(path: Path) -> list[dict]:
    """Records from a committed baseline file (JSON object/list or JSONL)."""
    text = path.read_text().strip()
    if not text:
        raise ValueError(f"record file {path} is empty")
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        loaded = [json.loads(line) for line in text.splitlines() if line.strip()]
    records = loaded if isinstance(loaded, list) else [loaded]
    for record in records:
        problems = validate_run_record(record)
        if problems:
            raise ValueError(
                f"invalid record in {path}: " + "; ".join(problems[:5])
            )
    return records
