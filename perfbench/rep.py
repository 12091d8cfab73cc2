"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--size full|tiny]
        [--trace 0|1] [--spawned-at T]

``run.py`` starts one of these per repetition, so every repetition pays
interpreter start-up, ``import repro`` and cold memo caches the way a
user's command-line run does.  The timed region is one campaign over the
workload's drive population (``run_fleet`` with a fresh result cache and
ledger), a second pass that replays it from the cache, and the SLO
evaluation over the rollup.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before the start, so ``setup_s`` covers
interpreter start, imports and the population's spec.

Prints one JSON object: host timings, the SHA-256 of every cell's
canonical result JSON, of the comparable rollup and of the SLO verdicts,
the cells that failed a check, the simulated metrics and, with
``--trace 1``, the per-layer split from :mod:`spans`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
import spans  # noqa: E402
from repro.fleet import service  # noqa: E402
from repro.fleet.population import FleetSpec  # noqa: E402
from repro.obs import slo  # noqa: E402
from repro.ssd.metrics import percentile  # noqa: E402

#: Policy whose cells give the simulated (paper) metrics.
SIM_POLICY = "RiFSSD"
#: Tail percentiles in the order tried: the reported tail is the highest
#: one that leaves at least ``TAIL_BEYOND`` samples beyond it.  A fixed
#: ladder keeps the reported percentile the same across seeds, where the
#: read count varies a little.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fleet_spec(workload: str, seed: int, size: str) -> FleetSpec:
    return FleetSpec(seed=seed, **cells.WORKLOADS[workload].sizes[size])


def run_workload(fleet: FleetSpec, work: Path):
    """The timed region: cold campaign, cache replay, SLO evaluation.

    One process (``jobs=1``): on a two-core host shared with other work,
    two workers plus the campaign process made throughput swing by ~17%
    from run to run, and every span lands in the recording process.
    """
    cache, ledger = work / "cache", work / "ledger"
    cold = service.run_fleet(fleet, jobs=1, cache=cache, ledger_dir=ledger)
    replay = service.run_fleet(fleet, jobs=1, cache=cache, ledger_dir=ledger)
    reports = slo.evaluate_fleet(cold.aggregator, slo.default_slos())
    return cold, replay, reports


def _digest(outcome):
    """``(sha, ok)`` of one cell outcome; failures hash their record."""
    ok = hasattr(outcome, "metrics") and outcome.completed
    return sha256_json(outcome.to_dict()), ok


def check_outputs(cold, replay, reports) -> dict:
    """Digests of every output and the ids of cells failing a check."""
    digests, failed = {}, []
    for drive_id, outcome in cold.outcomes.items():
        sha, ok = _digest(outcome)
        replay_sha, _ = _digest(replay.outcomes[drive_id])
        digests[str(drive_id)] = sha
        if not ok or replay_sha != sha:
            failed.append(drive_id)
    rollup = sha256_json(cold.comparable_rollup())
    return {
        "cells": digests,
        "rollup": rollup,
        "rollup_replayed": rollup == sha256_json(replay.comparable_rollup()),
        "slo": sha256_json([report.to_dict() for report in reports]),
        "failed_cells": failed,
    }


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def sim_metrics(cold) -> dict:
    """Simulated (modelled-SSD) metrics over the workload's RiFSSD cells,
    plus the write amplification and adaptive hit ratio over all cells.
    Exact under a fixed seed."""
    results = [(drive, outcome) for drive, outcome
               in zip(cold.drives, cold.outcomes.values())
               if hasattr(outcome, "metrics")]
    rif = [o.metrics for d, o in results if d.policy == SIM_POLICY]
    usage = [o.channel_usage for d, o in results if d.policy == SIM_POLICY]
    everyone = [o.metrics for _d, o in results]
    # exact nearest-rank percentiles over the raw latencies: the streaming
    # histograms answer with bucket edges, which repeat from seed to seed
    latencies = sorted(v for m in rif for v in m.read_latencies_us)
    n = len(latencies)
    tail_q = next(q for q in TAIL_LADDER
                  if n * (100.0 - q) / 100.0 >= TAIL_BEYOND or q == 50.0)
    reads = sum(m.page_reads for m in rif)
    cor = sum(u.cor for u in usage)
    uncor = sum(u.uncor for u in usage)
    writes = sum(m.page_writes for m in everyone)
    hits = sum(m.adaptive_hits for m in everyone)
    misses = sum(m.adaptive_mispredicts for m in everyone)
    injected = sum(m.faults_injected for m in rif)
    return {
        "sim_io_bandwidth_mb_s": math.exp(
            sum(math.log(m.io_bandwidth_mb_s()) for m in rif) / len(rif)),
        "sim_read_p50_us": percentile(latencies, 50.0),
        "sim_read_tail_us": percentile(latencies, tail_q),
        "sim.read_tail_percentile": tail_q,
        "sim.read_samples": n,
        "sim.retry_rate": _ratio(sum(m.retried_reads for m in rif), reads),
        "sim.extra_senses_per_read": _ratio(
            sum(m.total_senses for m in rif), reads, 1.0) - 1.0,
        "sim.uncor_transfer_share": _ratio(uncor, cor + uncor),
        "sim.channel.eccwait_share": _ratio(
            sum(u.eccwait for u in usage), sum(u.total for u in usage)),
        "sim.rp_mispredict_rate": _ratio(
            sum(m.rp_mispredicts for m in rif), reads),
        # no fault fired: nothing was lost
        "sim.faults_absorbed_share": _ratio(
            sum(m.faults_absorbed for m in rif), injected, 1.0),
        "ssd.ftl.write_amplification": _ratio(
            writes + sum(m.gc_page_copies for m in everyone), writes, 1.0),
        "ssd.adaptive.hit_ratio": _ratio(hits, hits + misses),
    }


def layer_metrics(recorder: spans.SpanRecorder, wall_s: float) -> dict:
    """Per-layer split of one traced repetition (see :mod:`spans`)."""
    out = {}
    times = recorder.layer_times()
    for layer, row in times.items():
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.s"] = row["s"]
        out[f"{layer}.self_s"] = row["self_s"]
    # scheduling, pickling and waiting: run_specs time no wrapped child
    # layer accounts for
    out["campaign.overhead.s"] = times["campaign.run_specs"]["self_s"]
    events = recorder.processed_events
    out["ssd.events.processed"] = events
    out["ssd.events.host_us_per_event"] = _ratio(
        times["ssd.events.run"]["s"] * 1e6, events)
    for side, (hits, lookups) in recorder.memo.items():
        out[f"ssd.{side}.memo_hit_ratio"] = _ratio(hits, lookups)
    out["trace.wall_s"] = wall_s
    out["unattributed.s"] = wall_s - sum(row["self_s"]
                                         for row in times.values())
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS in MiB (the campaign starts no workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetition(workload: str, seed: int, size: str, traced: bool,
               spawned_at: float, work_root: Path) -> dict:
    fleet = fleet_spec(workload, seed, size)
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=work_root))
    recorder = spans.SpanRecorder() if traced else None
    try:
        if recorder is not None:
            recorder.install()
        started = time.monotonic()
        t0 = time.perf_counter()
        try:
            cold, replay, reports = run_workload(fleet, work)
            wall = time.perf_counter() - t0
        finally:
            if recorder is not None:
                recorder.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {
        "workload": workload, "seed": seed, "size": size, "traced": traced,
        "setup_s": started - spawned_at,
        "wall_s": wall,
        "cells": fleet.n_drives,
        "page_ops": sum(o.metrics.page_reads + o.metrics.page_writes
                        + o.metrics.gc_page_copies
                        for o in cold.outcomes.values()
                        if hasattr(o, "metrics")),
        "rss_mb": peak_rss_mb(),
        "check": check_outputs(cold, replay, reports),
        "sim": sim_metrics(cold),
    }
    if recorder is not None:
        out["wrappers_left"] = recorder.leftovers()
        out["layers"] = layer_metrics(recorder, wall)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--size", choices=cells.SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    out = repetition(args.workload, args.seed, args.size, bool(args.trace),
                     spawned_at, work_root)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
