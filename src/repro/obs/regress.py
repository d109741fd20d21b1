"""Noise-aware regression detection over RunRecords.

Two pure functions do the work: :func:`diff_records` computes a
structured, antisymmetric metric diff of two records, and
:func:`detect_regressions` compares a *set* of baseline records against a
*set* of candidate records — median-of-k on both sides so a single noisy
repeat cannot flip the verdict — under direction-aware per-metric rules:
wall seconds going **up** is bad, Q_DBDC going **down** is bad, speedups
going **down** are bad, and everything inside the per-rule relative/
absolute threshold band is "unchanged".  A gated baseline metric the
candidate does not report at all is **lost** and fails the gate too, so
a harness that stops emitting a metric cannot pass by omission.  Both functions are
deterministic for fixed inputs (pinned by a hypothesis test), which is
what lets CI gate on ``python -m repro runs regress``.

The rule table is ordered, first match wins, and names are matched with
``fnmatch`` patterns against the flat metric names of
:mod:`repro.obs.registry` (``"local.wall_seconds"``,
``"quality.q_p2_percent"``, ``"net.bytes[local_model]"`` …).  Timing
rules are tagged so cross-machine comparisons (CI against a committed
baseline) can drop them wholesale with ``include_timing=False``.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from statistics import median

__all__ = [
    "MetricRule",
    "DEFAULT_RULES",
    "rule_for",
    "metric_medians",
    "classify",
    "diff_records",
    "RegressionReport",
    "detect_regressions",
]


@dataclass(frozen=True)
class MetricRule:
    """Direction + noise threshold for one family of metric names.

    Attributes:
        pattern: ``fnmatch`` pattern over flat metric names.
        direction: ``"lower"`` (lower is better), ``"higher"`` or
            ``"ignore"`` (informational only).
        rel_threshold: relative change tolerated before a verdict flips
            away from "unchanged" (fraction of the baseline magnitude).
        abs_threshold: absolute change tolerated regardless of the
            baseline (guards tiny denominators: 1ms → 2ms is not a 2×
            regression worth failing CI over).
        timing: whether the metric is a wall/CPU-clock reading — dropped
            entirely when a comparison runs with ``include_timing=False``
            (different machines, different clocks).
    """

    pattern: str
    direction: str
    rel_threshold: float = 0.10
    abs_threshold: float = 0.0
    timing: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher", "ignore"):
            raise ValueError(
                f"direction must be lower/higher/ignore, got {self.direction!r}"
            )


#: Ordered, first match wins.  Thresholds encode the observed noise of
#: each family: wall/CPU clocks are the noisiest (30%), the simulated
#: clock and byte counts are deterministic for a fixed seed (10% leaves
#: room for pickle/layout drift across library versions), quality is
#: deterministic (1% relative with half a percentage point of slack).
DEFAULT_RULES: tuple[MetricRule, ...] = (
    MetricRule("*speedup*", "higher", 0.25, abs_threshold=0.1, timing=True),
    MetricRule("*percent*", "higher", 0.01, abs_threshold=0.5),
    MetricRule("*cost_ratio*", "lower", 0.05, abs_threshold=0.01),
    MetricRule("*saving*", "higher", 0.05, abs_threshold=0.01),
    MetricRule("*wall_seconds*", "lower", 0.30, abs_threshold=0.005, timing=True),
    MetricRule("*cpu_seconds*", "lower", 0.30, abs_threshold=0.005, timing=True),
    MetricRule("*sim_seconds*", "lower", 0.10, abs_threshold=0.001),
    MetricRule("*seconds*", "lower", 0.30, abs_threshold=0.005, timing=True),
    MetricRule("*bytes*", "lower", 0.10),
    MetricRule("*retries*", "lower", 0.10, abs_threshold=0.5),
    MetricRule("*timeouts*", "lower", 0.10, abs_threshold=0.5),
    MetricRule("*failed*", "lower", 0.10, abs_threshold=0.5),
    MetricRule("*drops*", "lower", 0.10, abs_threshold=0.5),
    # Correctness flags (1.0 = verified): any drop is a hard regression,
    # so the thresholds are zero and the rule is *not* timing-tagged —
    # it survives --ignore-timing and gates cross-machine CI runs.
    MetricRule("*identical*", "higher", 0.0),
    MetricRule("*roundtrip_ok*", "higher", 0.0),
    # Memory budgets: tracemalloc peaks are reproducible for a fixed
    # config (python allocations only), RSS folds in the interpreter and
    # allocator and is machine-bound — timing-tagged like the clocks.
    MetricRule("*tracemalloc_peak_mb*", "lower", 0.20, abs_threshold=5.0),
    MetricRule("*rss_peak_mb*", "lower", 0.30, abs_threshold=16.0, timing=True),
    # Service-mode throughput (queries/s against a live DBDCService): a
    # rate is a clock reading in disguise, so it is timing-tagged and
    # only gates like-for-like reruns on the same machine.
    MetricRule("*_rps", "higher", 0.30, abs_threshold=1.0, timing=True),
    # Generic boolean verdicts (schema_ok, attribution_ok, …): like the
    # named correctness flags above, any drop from 1.0 is a hard
    # regression and survives --ignore-timing.  Specific *_ok families
    # (roundtrip_ok) are matched by their own earlier rule.
    MetricRule("*_ok", "higher", 0.0),
    MetricRule("*", "ignore"),
)


def rule_for(
    name: str, rules: tuple[MetricRule, ...] = DEFAULT_RULES
) -> MetricRule:
    """The first rule whose pattern matches ``name``."""
    for rule in rules:
        if fnmatch.fnmatchcase(name, rule.pattern):
            return rule
    return MetricRule("*", "ignore")


def metric_medians(records: list[dict]) -> dict[str, float]:
    """Per-metric median over several records' flat metrics.

    The median-of-k aggregate both sides of a comparison reduce to —
    ``None`` values (non-finite measurements) are dropped per metric.
    """
    values: dict[str, list[float]] = {}
    for record in records:
        for name, value in record.get("metrics", {}).items():
            if value is not None:
                values.setdefault(name, []).append(float(value))
    return {name: float(median(vals)) for name, vals in values.items()}


def classify(
    rule: MetricRule,
    baseline: float | None,
    candidate: float | None,
    *,
    threshold_scale: float = 1.0,
) -> str:
    """Verdict for one metric under one rule.

    Returns one of ``"regression"``, ``"improvement"``, ``"unchanged"``,
    ``"info"`` (ignored direction) or ``"missing"`` (either side absent).
    """
    if baseline is None or candidate is None:
        return "missing"
    if rule.direction == "ignore":
        return "info"
    delta = candidate - baseline
    threshold = max(
        rule.abs_threshold * threshold_scale,
        rule.rel_threshold * threshold_scale * abs(baseline),
    )
    if abs(delta) <= threshold:
        return "unchanged"
    worse = delta > 0 if rule.direction == "lower" else delta < 0
    return "regression" if worse else "improvement"


def _entry(
    name: str,
    baseline: float | None,
    candidate: float | None,
    rules: tuple[MetricRule, ...],
    threshold_scale: float,
) -> dict:
    rule = rule_for(name, rules)
    delta = (
        candidate - baseline
        if baseline is not None and candidate is not None
        else None
    )
    rel_delta = (
        delta / abs(baseline)
        if delta is not None and baseline not in (0, 0.0)
        else None
    )
    return {
        "baseline": baseline,
        "candidate": candidate,
        "delta": delta,
        "rel_delta": rel_delta,
        "direction": rule.direction,
        "timing": rule.timing,
        "verdict": classify(
            rule, baseline, candidate, threshold_scale=threshold_scale
        ),
    }


def diff_records(
    a: dict,
    b: dict,
    *,
    rules: tuple[MetricRule, ...] = DEFAULT_RULES,
    threshold_scale: float = 1.0,
) -> dict:
    """Structured metric diff of two RunRecords (``a`` = baseline).

    Antisymmetric by construction: swapping the arguments negates every
    ``delta`` (pinned by a hypothesis property test; verdicts swap too
    whenever the relative threshold band is symmetric around the pair).
    """
    a_metrics = a.get("metrics", {})
    b_metrics = b.get("metrics", {})
    names = sorted(set(a_metrics) | set(b_metrics))
    return {
        "baseline_run_id": a.get("run_id"),
        "candidate_run_id": b.get("run_id"),
        "baseline_config_digest": a.get("config_digest"),
        "candidate_config_digest": b.get("config_digest"),
        "metrics": {
            name: _entry(
                name,
                a_metrics.get(name),
                b_metrics.get(name),
                rules,
                threshold_scale,
            )
            for name in names
        },
    }


@dataclass
class RegressionReport:
    """Outcome of one baseline-vs-candidate comparison.

    Attributes:
        baseline_ids: run ids aggregated into the baseline medians.
        candidate_ids: run ids aggregated into the candidate medians.
        entries: per-metric diff entries (same shape as
            :func:`diff_records` entries).
        include_timing: whether timing metrics took part.
    """

    baseline_ids: list[str]
    candidate_ids: list[str]
    entries: dict[str, dict] = field(default_factory=dict)
    include_timing: bool = True

    @property
    def regressions(self) -> dict[str, dict]:
        """The entries whose verdict is ``regression``."""
        return {
            name: entry
            for name, entry in self.entries.items()
            if entry["verdict"] == "regression"
        }

    @property
    def improvements(self) -> dict[str, dict]:
        """The entries whose verdict is ``improvement``."""
        return {
            name: entry
            for name, entry in self.entries.items()
            if entry["verdict"] == "improvement"
        }

    @property
    def lost(self) -> dict[str, dict]:
        """Gated baseline metrics the candidate does not report.

        ``classify`` calls these ``missing``; a metric whose rule is
        ``ignore`` (informational) is never lost.
        """
        return {
            name: entry
            for name, entry in self.entries.items()
            if entry["verdict"] == "missing"
            and entry["candidate"] is None
            and entry["baseline"] is not None
            and entry["direction"] != "ignore"
        }

    @property
    def ok(self) -> bool:
        """``True`` when nothing regressed and no gated metric was lost."""
        return not self.regressions and not self.lost

    def to_text(self) -> str:
        """Human-readable report (regressions first)."""
        lines = [
            f"baseline : {', '.join(self.baseline_ids) or '<none>'}",
            f"candidate: {', '.join(self.candidate_ids) or '<none>'}"
            + ("" if self.include_timing else "  (timing metrics ignored)"),
        ]
        order = {"regression": 0, "improvement": 1, "unchanged": 2,
                 "info": 3, "missing": 4}
        lost = self.lost
        for name in sorted(lost):
            lines.append(
                f"{'LOST':11s} {name}: {lost[name]['baseline']:g} -> absent"
            )
        for name in sorted(
            self.entries, key=lambda n: (order[self.entries[n]["verdict"]], n)
        ):
            entry = self.entries[name]
            if entry["verdict"] in ("unchanged", "info", "missing"):
                continue
            rel = (
                f" ({entry['rel_delta']:+.1%})"
                if entry["rel_delta"] is not None
                else ""
            )
            lines.append(
                f"{entry['verdict'].upper():11s} {name}: "
                f"{entry['baseline']:g} -> {entry['candidate']:g}{rel}"
            )
        counts = {
            verdict: sum(
                1 for e in self.entries.values() if e["verdict"] == verdict
            )
            for verdict in order
        }
        if lost:
            counts["lost"] = len(lost)
        lines.append(
            "summary: "
            + ", ".join(f"{n} {verdict}" for verdict, n in counts.items() if n)
        )
        lines.append("verdict: " + ("OK" if self.ok else "REGRESSION"))
        return "\n".join(lines)


def detect_regressions(
    baseline_records: list[dict],
    candidate_records: list[dict],
    *,
    rules: tuple[MetricRule, ...] = DEFAULT_RULES,
    ignore: tuple[str, ...] = (),
    include_timing: bool = True,
    threshold_scale: float = 1.0,
) -> RegressionReport:
    """Compare medians of baseline records against medians of candidates.

    Args:
        baseline_records: one or more committed/stored baseline records
            (k repeats reduce by per-metric median).
        candidate_records: one or more fresh records (median likewise).
        rules: the ordered rule table.
        ignore: extra ``fnmatch`` patterns to drop before comparing.
        include_timing: ``False`` drops every rule tagged ``timing``
            (cross-machine comparisons).
        threshold_scale: scales every rule's thresholds (``2.0`` doubles
            the tolerated band).

    Returns:
        A :class:`RegressionReport`; ``report.ok`` gates CI.
    """
    if not baseline_records:
        raise ValueError("no baseline records to compare against")
    if not candidate_records:
        raise ValueError("no candidate records to compare")
    base = metric_medians(baseline_records)
    cand = metric_medians(candidate_records)
    entries: dict[str, dict] = {}
    for name in sorted(set(base) | set(cand)):
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in ignore):
            continue
        rule = rule_for(name, rules)
        if rule.timing and not include_timing:
            continue
        entries[name] = _entry(
            name, base.get(name), cand.get(name), rules, threshold_scale
        )
    return RegressionReport(
        baseline_ids=[r.get("run_id", "?") for r in baseline_records],
        candidate_ids=[r.get("run_id", "?") for r in candidate_records],
        entries=entries,
        include_timing=include_timing,
    )
