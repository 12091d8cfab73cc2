"""Shared helpers for the SSD-level experiments (Figs. 6, 17, 18, 19).

The grid machinery itself lives in :mod:`repro.campaign`; this module keeps
the paper's evaluation constants and :func:`run_grid`, a thin wrapper that
keys a :func:`~repro.campaign.executor.run_specs` grid by (workload, P/E,
policy).  Serial, parallel, and cached runs all produce identical results
because every cell is rebuilt from its seeded spec.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from ..campaign import SsdScale, grid_specs, run_specs, ssd_scale
from ..errors import ConfigError
from ..ssd import SimulationResult

__all__ = [
    "PE_POINTS",
    "FIG17_POLICIES",
    "SsdScale",
    "ssd_scale",
    "run_grid",
    "geomean",
]

#: Wear points of the evaluation (SecVI-A).
PE_POINTS: Tuple[float, ...] = (0.0, 1000.0, 2000.0)

#: The configurations Fig. 17 compares (SSDone additionally for Fig. 6).
FIG17_POLICIES: Tuple[str, ...] = (
    "SENC", "SWR", "SWR+", "RPSSD", "RiFSSD", "SSDzero",
)


def run_grid(
    workloads: Sequence[str],
    policies: Sequence[str],
    pe_points: Sequence[float] = PE_POINTS,
    scale: str = "small",
    seed: int = 7,
    **execution,
) -> Dict[Tuple[str, float, str], SimulationResult]:
    """Run every (workload, P/E, policy) combination once.

    Traces are generated deterministically per workload and replayed
    identically against every policy, and every simulator uses the same
    seed, so comparisons are paired.  ``execution`` goes to
    :func:`~repro.campaign.executor.run_specs` unchanged (``jobs``,
    ``cache``, ``ledger_dir``, ``progress``, ...); none of those options
    changes any result.
    """
    specs = grid_specs(workloads, policies, pe_points, scale=scale, seed=seed)
    results = run_specs(specs, **execution)
    keyed: Dict[Tuple[str, float, str], SimulationResult] = {}
    for spec, (workload, pe, policy) in zip(
        specs,
        ((w, pe, p) for w in workloads for pe in pe_points for p in policies),
    ):
        keyed[(workload, pe, policy)] = results[spec]
    return keyed


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregation of Fig. 17)."""
    if not values:
        raise ConfigError("geomean of nothing")
    if any(v <= 0 for v in values):
        raise ConfigError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
