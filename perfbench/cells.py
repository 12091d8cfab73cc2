"""The benchmark's workloads: which drive populations each one simulates.

Every workload is a :class:`repro.fleet.population.FleetSpec` population
run as one campaign through :func:`repro.fleet.service.run_fleet`, so the
three workloads exercise the same layers with very different weights:

* ``read_tail_2k`` and ``write_gc_mixed`` are homogeneous populations of
  a few large drives, two or three per policy, where the simulated SSD
  does almost all of the host work;
* ``fleet_campaign`` is hundreds of tiny heterogeneous drives, where
  per-cell set-up and the campaign layer do most of it.

Only plain data lives here, so the orchestrator (``run.py``) can read the
table without importing ``repro``.  ``rep.py`` turns an entry into a
``FleetSpec`` with the run's seed.
"""

from dataclasses import dataclass
from typing import Dict, Mapping

#: The seed the golden digests are recorded for (the repository's
#: ``PIN_SEED``).
DEFAULT_SEED = 7

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``FleetSpec`` fields per size (everything but ``seed``)
    sizes: Mapping[str, Dict[str, object]]


def _homogeneous(workload: str, policies, per_policy: int, pe_cycles: float,
                 n_requests: int) -> Dict[str, object]:
    """``per_policy`` drives per policy, all at one wear point and the
    configuration's own retention age (``refresh_days`` = 30 d), queue
    depth 64.  Drives differ only in their seed: per-block reliability
    variation is drawn per drive, so merging several drives per policy
    keeps the simulated metrics steady from one workload seed to the
    next."""
    return dict(
        n_drives=per_policy * len(policies), policies=tuple(policies),
        workload_mix=((workload, 1.0),),
        pe_cycles_range=(pe_cycles, pe_cycles),
        retention_days_range=(30.0, 30.0),
        n_requests=n_requests, queue_depth=64,
    )


def _fleet(n_drives: int, n_requests: int) -> Dict[str, object]:
    return dict(
        n_drives=n_drives, policies=("RiFSSD", "SSDone", "RVPSSD"),
        pe_cycles_range=(0.0, 3000.0), retention_days_range=(5.0, 90.0),
        fault_rate=0.1, n_requests=n_requests, user_pages=1200,
        queue_depth=8,
    )


_READ_POLICIES = ("SSDone", "RiFSSD", "RVPSSD")
_WRITE_POLICIES = ("RiFSSD", "RVPSSD")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="read_tail_2k",
        why=("Ali124 (96% reads) at 2K P/E, three drives each for SSDone, "
             "RiFSSD and RVPSSD: the paper's worn read path (ECC sampling, "
             "plan compilation, event loop)"),
        sizes={"full": _homogeneous("Ali124", _READ_POLICIES, 3, 2000.0, 2700),
               "tiny": _homogeneous("Ali124", _READ_POLICIES, 3, 2000.0, 100)},
    ),
    Workload(
        name="write_gc_mixed",
        why=("Ali2 (27% reads) at 0 P/E, two drives each for RiFSSD and "
             "RVPSSD, GC running: FTL writes and GC copies, where read-path "
             "changes should show no effect"),
        sizes={"full": _homogeneous("Ali2", _WRITE_POLICIES, 2, 0.0, 6000),
               "tiny": _homogeneous("Ali2", _WRITE_POLICIES, 2, 0.0, 150)},
    ),
    Workload(
        name="fleet_campaign",
        why=("200 tiny heterogeneous drives (P/E 0-3K, 5-90 d, 10% with "
             "faults): per-cell set-up, scheduling, cache writes and ledger "
             "fsyncs dominate"),
        sizes={"full": _fleet(200, 30), "tiny": _fleet(12, 20)},
    ),
)}
