"""Experiment registry: one module per table/figure of the paper.

Every experiment exposes ``run(scale=..., seed=...) -> ExperimentResult``
and registers itself under the paper's artefact id; the campaign
experiments (``register(..., campaign=True)``) also pass
:func:`~repro.campaign.run_specs`' execution keywords through.  Use the
CLI::

    python -m repro experiments --list
    python -m repro experiments fig17 --scale small

``scale='small'`` finishes in seconds on a laptop; ``scale='full'`` uses
larger Monte-Carlo budgets and trace lengths for tighter estimates.
"""

from .registry import EXPERIMENTS, ExperimentResult, get_experiment, register

# importing the modules populates the registry
from . import (  # noqa: F401  (imported for registration side effects)
    chaos,
    fig03_ldpc,
    fig04_retention,
    fig06_motivation,
    fig07_timeline,
    fig10_syndrome,
    fig11_rp_accuracy,
    fig12_chunk_similarity,
    fig14_rp_approx,
    fig17_main,
    fig18_channel_usage,
    fig19_latency,
    frontier,
    table1_config,
    table2_workloads,
    overhead_rp,
)

__all__ = ["EXPERIMENTS", "ExperimentResult", "get_experiment", "register"]
