"""The golden-digest corpus: pinned simulations and their result digests.

Every cell is one deterministic simulation: a :class:`RunSpec` (built as
the campaign layer builds it) or a direct :class:`SSDSimulator` set-up,
optionally traced, optionally run for several ``fast_forward`` epochs.
``golden_digests.json`` maps each cell's stable name to the SHA-256 of its
canonical result JSON (``json.dumps(result.to_dict(), sort_keys=True)``,
one per epoch), of its per-resource counters (:func:`hardware_counters`)
and, for traced cells, of its request spans, its instants (without the
``perf.cache_stats`` telemetry) and its per-resource busy accounting.

The digests were first recorded while two independent engines — the
batched structure-of-arrays pipeline and the original closure-per-phase
engine — agreed on every cell, so a matching digest means "the same
result the reference engine produced".  The corpus spans:

* the fixed cells of the equivalence, fault, tracing, adaptive-policy,
  fleet and footprint-prefetch tests (those tests check their own cells)
  and a serial single-page cell that pins the decoder-slot lifecycle;
* a seeded, stratified sample over policy x workload x P/E x host mode x
  channel arbitration x reliability mode x fault plan (``SAMPLED``);
* ``fast_forward`` epoch cells (``EPOCHS``).

Every test that runs a cell also runs :func:`assert_invariants` on it.

Re-record (only for a deliberate, documented change of results)::

    PYTHONPATH=src python -m tests.record_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.campaign.spec import RunSpec, build_simulator, build_trace
from repro.config import small_test_config
from repro.faults import FaultPlan, FaultSpec
from repro.obs import TraceConfig
from repro.obs.registry import FleetAggregator
from repro.ssd.refresh import fast_forward
from repro.ssd.retry_policies import TAG_COR, TAG_GC, TAG_UNCOR, TAG_WRITE
from repro.ssd.simulator import SimulationResult, SSDSimulator
from repro.workloads import generate
from repro.workloads.synthetic import WorkloadSpec

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")


@dataclass
class Cell:
    """One pinned simulation.

    A campaign cell sets ``spec``; a direct cell sets ``sim`` (keyword
    arguments of :class:`SSDSimulator` on :func:`small_test_config`),
    ``trace`` (of :func:`generate`) and ``run`` (of ``run_trace``).
    """

    name: str
    spec: Optional[RunSpec] = None
    sim: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    #: runs of the same trace; ``FAST_FORWARD`` ages the drive between them
    epochs: int = 1
    #: also digest the fleet rollup of the (single-epoch) result
    rollup: bool = False


@dataclass
class CellRun:
    ssd: SSDSimulator
    trace: object
    #: ``to_dict()`` of each epoch's result, taken when the epoch ended
    results: List[dict]
    completed: bool


#: the aging step between epochs of a multi-epoch cell
FAST_FORWARD = dict(retention_days=21.0, pe_delta=300.0)


def run_cell(cell: Cell,
             prepare: Optional[Callable[[SSDSimulator], object]] = None
             ) -> CellRun:
    """Run a cell; ``prepare(ssd)`` runs between construction and the
    first epoch (tests use it to shrink memo tables)."""
    if cell.spec is not None:
        ssd = build_simulator(cell.spec)
        trace = build_trace(cell.spec)
        run_kwargs = cell.spec.run_kwargs()
    else:
        ssd = SSDSimulator(small_test_config(), **cell.sim)
        trace = generate(**cell.trace)
        run_kwargs = cell.run
    if prepare is not None:
        prepare(ssd)
    results, completed = [], True
    for epoch in range(cell.epochs):
        if epoch:
            fast_forward(ssd, **FAST_FORWARD)
        result = ssd.run_trace(trace, **run_kwargs)
        results.append(result.to_dict())
        completed = completed and result.completed
    return CellRun(ssd, trace, results, completed)


# --- digests ----------------------------------------------------------------------


def digest(obj) -> str:
    """SHA-256 of ``obj``'s canonical JSON."""
    payload = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def hardware_counters(ssd: SSDSimulator) -> dict:
    """The per-resource accounting a result does not carry: busy time by
    tag, blocked time and jobs of every channel, plane, decoder and the
    host link, and each decoder buffer's peak, in-use and held slots."""
    out = {}
    for res in (*ssd.channels, *ssd.planes, ssd.host_link,
                *(ecc.decoder for ecc in ssd.eccs)):
        out[res.name] = [res.busy_time_by_tag, res.blocked_time,
                         res.jobs_completed]
    for ecc in ssd.eccs:
        out[ecc.name] = [ecc.peak_slots_in_use, ecc.slots_in_use,
                         ecc.held_slots]
    return out


def cell_digests(cell: Cell, run: CellRun) -> Dict[str, object]:
    out: Dict[str, object] = {
        "results": [digest(result) for result in run.results],
        "hardware": digest(hardware_counters(run.ssd))}
    tracer = run.ssd.tracer
    if tracer is not None:
        out["request_spans"] = digest(
            [asdict(ev) for ev in tracer.request_spans])
        out["instants"] = digest([asdict(ev) for ev in tracer.instants
                                  if ev.name != "perf.cache_stats"])
        out["resource_busy_by_tag"] = digest(tracer.resource_busy_by_tag())
    if cell.rollup:
        fleet = FleetAggregator()
        fleet.observe(cell.spec, SimulationResult.from_dict(run.results[0]))
        out["rollup"] = digest(fleet.to_dict())
    return out


def load_digests() -> Dict[str, dict]:
    return json.loads(DIGESTS_PATH.read_text())


_GOLDEN: Optional[Dict[str, dict]] = None


def assert_golden(cell: Cell, run: CellRun) -> None:
    """The run reproduces the recorded digests of its cell, and passes
    every invariant of :func:`assert_invariants`."""
    global _GOLDEN
    if _GOLDEN is None:
        _GOLDEN = load_digests()
    assert cell.name in _GOLDEN, f"{cell.name} has no recorded digest"
    assert cell_digests(cell, run) == _GOLDEN[cell.name], \
        f"{cell.name}: results differ from the golden digests"
    assert_invariants(cell, run)


# --- invariants -------------------------------------------------------------------

#: float slack for sums of microsecond timestamps
EPS = 1e-6
#: the channel-time tags of the Fig.-18 breakdown
CHANNEL_TAGS = {TAG_COR, TAG_UNCOR, TAG_WRITE, TAG_GC}


def _fault_plan(cell: Cell) -> Optional[FaultPlan]:
    if cell.spec is not None:
        return cell.spec.fault_plan
    return cell.sim.get("fault_plan")


def _has_fault(cell: Cell, kind: str) -> bool:
    plan = _fault_plan(cell)
    return plan is not None and any(f.kind == kind for f in plan.faults)


def assert_invariants(cell: Cell, run: CellRun) -> None:
    """Checks every corpus run must pass, whatever its digests say.

    * a completed run recorded every dispatched request exactly once;
    * COR + UNCOR + WRITE + GC + ECCWAIT + IDLE = elapsed x channels, and
      no channel was busy or blocked longer than the run;
    * no decoder buffer ever held more than ``buffer_pages`` pages;
    * adaptive hits + mispredicts <= page reads;
    * on fault-free cells, every read took at least the Table-I floor of
      one sense, one channel transfer and one host-link page.
    """
    ssd, m = run.ssd, run.ssd.metrics
    final = run.results[-1]

    recorded = m.read_latency_hist.count + m.write_latency_hist.count
    assert len(m.read_latencies_us) == m.read_latency_hist.count
    assert len(m.write_latencies_us) == m.write_latency_hist.count
    assert recorded <= ssd._requests_submitted
    if run.completed:
        requests = run.trace.requests
        assert ssd._requests_submitted == cell.epochs * len(requests)
        assert recorded == ssd._requests_submitted
        assert (m.host_read_bytes + m.host_write_bytes
                == cell.epochs * sum(r.size_bytes for r in requests))
        for ecc in ssd.eccs:
            assert ecc.slots_in_use == 0, f"{ecc.name} leaked a slot"

    usage = final["channel_usage"]
    total = m.elapsed_us * len(ssd.channels)
    assert min(usage.values()) >= 0.0
    assert abs(sum(usage.values()) - total) <= EPS * max(1.0, total)
    busy_by_tag: Dict[str, float] = {}
    for channel in ssd.channels:
        assert set(channel.busy_time_by_tag) <= CHANNEL_TAGS
        busy = sum(channel.busy_time_by_tag.values()) + channel.blocked_time
        assert busy <= m.elapsed_us + EPS, f"{channel.name} over-booked"
        for tag, us in channel.busy_time_by_tag.items():
            busy_by_tag[tag] = busy_by_tag.get(tag, 0.0) + us
    for tag in CHANNEL_TAGS:
        assert abs(usage[tag.lower()] - busy_by_tag.get(tag, 0.0)) <= EPS

    # an ECC-saturation burst squats up to the whole buffer on top of the
    # pages already in it, and the peak counter adds both: under such a
    # fault the recorded peak may reach twice the buffer (real pages alone
    # never exceed it -- reserve_slot raises first)
    slack = 2 if _has_fault(cell, "ecc_saturation") else 1
    for ecc in ssd.eccs:
        assert ecc.peak_slots_in_use <= slack * ecc.buffer_pages, \
            f"{ecc.name}: {ecc.peak_slots_in_use} > {ecc.buffer_pages}"

    assert m.adaptive_hits + m.adaptive_mispredicts <= m.page_reads

    if _fault_plan(cell) is None and m.read_latencies_us:
        t = ssd.config.timings
        floor = t.t_read + t.t_dma + ssd._host_page_us
        assert min(m.read_latencies_us) >= floor - EPS, \
            f"a read beat the physical floor of {floor} us"


# --- the fixed cells of the equivalence, fault and tracing tests ------------------

#: write pressure on a shrunken geometry (8 blocks x 16 pages per plane)
#: drains the over-provisioning pool, so greedy GC copies pages
GC_SPEC = RunSpec(workload="Ali2", policy="RiFSSD", pe_cycles=2000.0,
                  n_requests=1200, seed=7, user_pages=2000,
                  config_overrides={"geometry": {"blocks_per_plane": 8,
                                                 "pages_per_block": 16}})
#: a threshold low enough that read-disturb management relocates blocks
DISTURB_SPEC = RunSpec(workload="Sys0", policy="RPSSD", pe_cycles=1000.0,
                       n_requests=800, seed=13, read_disturb_threshold=8)

SPECS = [
    RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000.0,
            n_requests=1200, seed=7),
    RunSpec(workload="Ali121", policy="SWR", pe_cycles=1000.0,
            n_requests=1200, seed=7),
    RunSpec(workload="Sys1", policy="RPSSD", pe_cycles=2000.0,
            n_requests=1200, seed=11),
    RunSpec(workload="Ali2", policy="RiFSSD", pe_cycles=2000.0,
            n_requests=1200, seed=7, reliability_mode="lut"),
    RunSpec(workload="Sys0", policy="SSDone", pe_cycles=0.0,
            n_requests=1200, seed=7),
    GC_SPEC,
]
SPEC_IDS = [f"{s.workload}-{s.policy}-{s.reliability_mode}" for s in SPECS]

EXTRA_MODE_SPECS = {
    "arbitration": RunSpec(workload="Sys1", policy="RiFSSD",
                           pe_cycles=2000.0, n_requests=800, seed=7,
                           channel_arbitration=True),
    "timed": RunSpec(workload="Ali124", policy="SWR+", pe_cycles=2000.0,
                     n_requests=800, seed=7, mode="timed",
                     time_limit_us=40000.0),
    "read-disturb": DISTURB_SPEC,
}

FAULT_PLANS = {
    "sense+spike": FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=7, magnitude=2.0),
        FaultSpec(kind="latency_spike", period=5, magnitude=3.0),
    )),
    "badblock+corrupt": FaultPlan(faults=(
        FaultSpec(kind="grown_bad_block", channel=0, die=0, plane=0,
                  block=2, start_read=30),
        FaultSpec(kind="channel_corrupt", period=11, count=4, magnitude=1),
    )),
    "saturation+offline": FaultPlan(faults=(
        FaultSpec(kind="ecc_saturation", channel=0, start_us=200.0,
                  end_us=3000.0),
        FaultSpec(kind="die_offline", channel=1, die=0, start_read=60),
    ), on_degraded="absorb"),
}
FAULT_POLICIES = ("RiFSSD", "SSDone")


def fault_spec(plan: str, policy: str) -> RunSpec:
    return RunSpec(workload="Sys0", policy=policy, pe_cycles=2000.0,
                   n_requests=600, seed=7, fault_plan=FAULT_PLANS[plan])


#: the plan of the traced-under-fault cell
TRACED_FAULT_PLAN = FaultPlan(faults=(
    FaultSpec(kind="transient_sense", period=9, magnitude=2.0),
    FaultSpec(kind="latency_spike", period=6, magnitude=2.5),
))


def traced_cell(name: str, **sim) -> Cell:
    return Cell(name,
                sim=dict(policy="RiFSSD", pe_cycles=2000.0, seed=31,
                         trace_config=TraceConfig(enabled=True), **sim),
                trace=dict(spec_or_name="Sys1", n_requests=300,
                           user_pages=3000, seed=31))


# --- adaptive policies, fleet metering, footprint prefetch ------------------------

#: (policy name, policy kwargs) for the three adaptive policies; RVPSSD
#: calibrates at the cell's wear point via a scalar kwarg.
ADAPTIVE = [
    ("OVCSSD", {}),
    ("OCASSD", {}),
    ("RVPSSD", {"pe_cycles": 2000.0}),
]


def adaptive_spec(policy, kwargs, n_requests=240, workload="Ali124", seed=7,
                  refresh_days=120.0) -> RunSpec:
    return RunSpec(
        workload=workload, policy=policy, pe_cycles=2000.0, seed=seed,
        scale="small", n_requests=n_requests, policy_kwargs=kwargs,
        config_overrides={"reliability": {"refresh_days": refresh_days}},
    )


#: the fleet tests' cells: a metered run and a rollup
FLEET_SPECS = {
    "metered": RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000.0,
                       n_requests=80, seed=7),
    "rollup": RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=1000.0,
                      n_requests=80, seed=7),
}

#: footprint-prefetch edge cases (simulator and trace keyword overrides)
PREFETCH_CASES = {
    "closed": {},
    "timed": dict(run=dict(mode="timed", time_limit_us=30000.0)),
    "faults": dict(fault_plan=FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=7, magnitude=2.0),
        FaultSpec(kind="grown_bad_block", channel=0, die=0, plane=0,
                  block=2, start_read=30),
    ))),
    "lut": dict(reliability_mode="lut"),
    "adaptive": dict(policy="RVPSSD"),
    "write-heavy": dict(trace=dict(name="Ali2", n_requests=300)),
}


def prefetch_cell(name: str, epochs: int = 1, **kw) -> Cell:
    kw = dict(kw)
    trace_kw = kw.pop("trace", dict(name="Ali124", n_requests=240))
    run_kw = kw.pop("run", {})
    return Cell(name,
                sim=dict(policy=kw.pop("policy", "RiFSSD"), pe_cycles=2000.0,
                         seed=5, **kw),
                trace=dict(spec_or_name=trace_kw["name"],
                           n_requests=trace_kw["n_requests"],
                           user_pages=3000, seed=9),
                run=run_kw, epochs=epochs)


#: one page in flight at a time (queue depth 1, single-page reads) with
#: corrupt transfers: a corrupted page's re-transfer follows its failed
#: decode directly, so the decoder buffer's peak pins the order of slot
#: release and re-transfer (release first: the peak stays 1)
SERIAL_CELL = Cell(
    "serial:SSDone-corrupt",
    sim=dict(policy="SSDone", pe_cycles=2000.0, seed=5,
             fault_plan=FaultPlan(faults=(
                 FaultSpec(kind="channel_corrupt", period=4, magnitude=1),))),
    trace=dict(spec_or_name=WorkloadSpec("serial", read_ratio=1.0,
                                         cold_read_ratio=1.0,
                                         sizes=(16 * 1024,),
                                         size_weights=(1.0,)),
               n_requests=200, user_pages=3000, seed=9),
    run=dict(queue_depth=1))


# --- the sampled grid and the epoch cells -----------------------------------------

POLICIES = ("SSDzero", "SSDone", "SENC", "SWR", "SWR+", "RPSSD", "RiFSSD",
            "OVCSSD", "OCASSD", "RVPSSD")
WORKLOADS = ("Ali2", "Ali46", "Ali81", "Ali121", "Ali124", "Ali295", "Sys0",
             "Sys1")
PE_POINTS = (0.0, 1000.0, 2000.0, 3000.0)
FAULTS = ("none",) + tuple(FAULT_PLANS)
SAMPLE_SEED = 1515
SAMPLE_SIZE = 40
#: timed cells stop here: the replayed arrivals of a small trace span
#: far more simulated time than the closed-loop cells need
SAMPLE_TIME_LIMIT_US = 60000.0


def _sampled() -> List[Cell]:
    """Stratified over policy x workload (cell i runs policy i mod 10 on
    workload i mod 8, so 40 cells cover all 40 reachable pairs and every
    policy and workload), seeded-random over the other axes."""
    rng = random.Random(SAMPLE_SEED)
    cells = []
    for i in range(SAMPLE_SIZE):
        policy, workload = POLICIES[i % 10], WORKLOADS[i % 8]
        pe = rng.choice(PE_POINTS)
        mode = rng.choice(("closed", "timed"))
        arbitration = rng.choice((False, True))
        reliability = rng.choice(("parametric", "lut"))
        fault = rng.choice(FAULTS)
        spec = RunSpec(
            workload=workload, policy=policy, pe_cycles=pe, seed=100 + i,
            n_requests=160, mode=mode, channel_arbitration=arbitration,
            reliability_mode=reliability,
            time_limit_us=SAMPLE_TIME_LIMIT_US if mode == "timed" else None,
            fault_plan=None if fault == "none" else FAULT_PLANS[fault])
        name = (f"sample{i:02d}:{workload}/{policy}/pe{pe:g}/{mode}/"
                f"{'arb' if arbitration else 'fifo'}/{reliability}/{fault}")
        cells.append(Cell(name, spec=spec))
    return cells


SAMPLED = _sampled()

#: fast_forward epoch cells: learned state and memoized routes must
#: survive (and be invalidated by) repeated aging
EPOCHS = [
    Cell("epochs:RVPSSD-Ali124",
         spec=adaptive_spec("RVPSSD", {"pe_cycles": 2000.0},
                            n_requests=200), epochs=3),
    Cell("epochs:OVCSSD-Sys1",
         spec=adaptive_spec("OVCSSD", {}, n_requests=200, workload="Sys1"),
         epochs=3),
    Cell("epochs:RiFSSD-Ali121-arb",
         spec=RunSpec(workload="Ali121", policy="RiFSSD", pe_cycles=1000.0,
                      n_requests=200, seed=21, channel_arbitration=True),
         epochs=2),
]


# --- the whole corpus -------------------------------------------------------------


def _all_cells() -> Dict[str, Cell]:
    cells: List[Cell] = []
    cells += [Cell(f"equiv:{i}", spec=s) for i, s in zip(SPEC_IDS, SPECS)]
    cells += [Cell(f"mode:{k}", spec=s) for k, s in EXTRA_MODE_SPECS.items()]
    cells += [Cell(f"fault:{policy}-{plan}", spec=fault_spec(plan, policy))
              for plan in FAULT_PLANS for policy in FAULT_POLICIES]
    cells.append(traced_cell("traced"))
    cells.append(traced_cell("traced:faults", fault_plan=TRACED_FAULT_PLAN))
    cells += [Cell(f"adaptive:{policy}",
                   spec=adaptive_spec(policy, kwargs, refresh_days=180.0))
              for policy, kwargs in ADAPTIVE]
    cells += [Cell(f"fleet:{k}", spec=s, rollup=k == "rollup")
              for k, s in FLEET_SPECS.items()]
    cells += [prefetch_cell(f"prefetch:{k}", **kw)
              for k, kw in PREFETCH_CASES.items()]
    cells.append(prefetch_cell("prefetch:epochs", epochs=3, policy="RVPSSD"))
    cells.append(SERIAL_CELL)
    cells += SAMPLED + EPOCHS
    by_name = {cell.name: cell for cell in cells}
    assert len(by_name) == len(cells), "duplicate corpus cell names"
    return by_name


CELLS = _all_cells()
