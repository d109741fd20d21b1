"""Experiment harness: one module per table/figure of the paper's §9.

Every ``run_figN`` function regenerates the corresponding figure's rows as
an :class:`~repro.experiments.reporting.ExperimentTable`; the CLI
(``python -m repro.cli``) prints them and ``benchmarks/`` wraps them in
pytest-benchmark targets.
"""

from repro.experiments.ablations import (
    run_compression_tradeoff,
    run_dimension_ablation,
    run_index_ablation,
    run_metric_ablation,
    run_noise_ablation,
    run_partition_ablation,
    run_site_failure_ablation,
    run_transmission_ablation,
)
from repro.experiments.baselines import baseline_workloads, run_baseline_comparison
from repro.experiments.common import (
    DistributedTrial,
    central_reference,
    dataset_trial,
    run_trial,
    timed,
)
from repro.experiments.fig6 import cluster_sketch, density_sketch, run_fig6
from repro.experiments.fig7 import run_fig7a, run_fig7b
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.reporting import ExperimentTable

__all__ = [
    "ExperimentTable",
    "DistributedTrial",
    "central_reference",
    "dataset_trial",
    "run_trial",
    "timed",
    "cluster_sketch",
    "density_sketch",
    "run_fig6",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_index_ablation",
    "run_metric_ablation",
    "run_dimension_ablation",
    "run_partition_ablation",
    "run_transmission_ablation",
    "run_noise_ablation",
    "run_site_failure_ablation",
    "run_compression_tradeoff",
    "baseline_workloads",
    "run_baseline_comparison",
]
