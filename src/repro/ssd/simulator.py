"""Top-level SSD simulator: wiring, request execution, and run loops.

The simulated device follows Fig. 5 / Table I: a host link (8 GB/s) in
front of a controller that spreads page operations over
``channels x dies x planes`` — planes sense independently (multi-plane
parallelism), each channel is a serial 1.2 GB/s link, and each channel owns
one LDPC decoder with a finite input buffer.  Retry behaviour is entirely
delegated to the configured :mod:`~repro.ssd.retry_policies` policy, which
compiles every page read into a timed phase plan.

Use :meth:`SSDSimulator.run_trace` for whole-workload runs, or
:meth:`SSDSimulator.submit_request` + :meth:`SSDSimulator.run` for custom
drivers.  Observability (all off by default, all passive — a traced run is
bit-identical to an untraced one):

* ``trace_config=TraceConfig(enabled=True)`` records per-request lifecycle
  spans (queued -> sense(s) -> plan decision -> transfer -> decode -> retry
  hops) plus full resource-occupancy streams into a
  :class:`~repro.obs.trace.SimTracer`; export with
  :meth:`export_chrome_trace` or :func:`repro.obs.write_events_jsonl`.
  ``TimelineTracer`` / ``TimelineEvent`` are kept as aliases of the new
  classes for the Fig. 7/8 execution-timeline experiments.
* ``snapshot_interval_us`` bins channel usage and counters into fixed
  windows (:class:`~repro.obs.snapshots.SnapshotRecorder`).
* ``keep_raw_latencies=False`` drops the unbounded per-request latency
  lists; the always-on streaming histograms keep serving percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..config import SSDConfig
from ..errors import (
    DegradedReadError,
    FaultInjectionError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
)
from ..faults import FaultInjector, FaultPlan, ReadFaultDecision
from ..nand.geometry import AddressMapper, PageAddress
from ..obs.export import write_chrome_trace
from ..obs.snapshots import SnapshotRecorder
from ..obs.trace import SimTracer, SpanEvent, TraceConfig
from ..perf.cache import caches_enabled
from ..rng import SeedLike, make_rng, spawn
from ..units import SEC
from ..workloads.trace import IORequest, Trace
from .core_mode import scalar_core_active
from .ecc_model import EccOutcomeModel
from .events import Simulator
from .ftl import PageMapFtl
from .host import ClosedLoopHost, TimedReplayHost
from .metrics import ChannelUsage, SimMetrics
from .reliability import PageReliabilitySampler
from .resources import EccEngine, Job, SerialResource
from .retry_policies import (
    Phase,
    PhaseKind,
    ReadPlan,
    TAG_GC,
    TAG_UNCOR,
    TAG_WRITE,
    make_policy,
)


#: Legacy names for the structured tracer — same classes, same ``events``
#: stream and ``by_resource()`` view the timeline experiments were built on.
TimelineTracer = SimTracer
TimelineEvent = SpanEvent

#: Version stamp written into every serialised :class:`SimulationResult`.
#: Readers ignore keys they do not know (see the ``from_dict`` methods), so
#: bumping this only matters for tooling that wants to warn on mismatch.
RESULT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SimulationResult:
    """Everything a workload run produces.

    ``completed`` distinguishes a trace driven to exhaustion from a run cut
    off at ``time_limit_us`` — partial runs still report valid bandwidth
    over the elapsed window, but comparisons across policies should check
    the flag.
    """

    policy: str
    pe_cycles: float
    workload: str
    metrics: SimMetrics
    channel_usage: ChannelUsage
    completed: bool = True

    @property
    def io_bandwidth_mb_s(self) -> float:
        return self.metrics.io_bandwidth_mb_s()

    def to_dict(self) -> dict:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "policy": self.policy,
            "pe_cycles": self.pe_cycles,
            "workload": self.workload,
            "metrics": self.metrics.to_dict(),
            "channel_usage": self.channel_usage.to_dict(),
            "completed": self.completed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild from a dict; only known keys are read, so payloads
        written by a newer schema version still load."""
        return cls(
            policy=data["policy"],
            pe_cycles=data["pe_cycles"],
            workload=data["workload"],
            metrics=SimMetrics.from_dict(data["metrics"]),
            channel_usage=ChannelUsage.from_dict(data["channel_usage"]),
            completed=data.get("completed", True),
        )


class _RequestState:
    """Tracks completion of a multi-page host request."""

    __slots__ = ("remaining", "started_us", "is_read", "bytes", "on_complete",
                 "request_id", "traced")

    def __init__(self, remaining: int, started_us: float, is_read: bool,
                 nbytes: int, on_complete: Optional[Callable[[], None]],
                 request_id: int = 0, traced: bool = False):
        self.remaining = remaining
        self.started_us = started_us
        self.is_read = is_read
        self.bytes = nbytes
        self.on_complete = on_complete
        self.request_id = request_id
        self.traced = traced


class SSDSimulator:
    """A complete simulated SSD running one retry policy at one wear level."""

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        policy: str = "RiFSSD",
        pe_cycles: float = 0.0,
        seed: SeedLike = 7,
        outcome_model: Optional[EccOutcomeModel] = None,
        policy_kwargs: Optional[dict] = None,
        tracer: Optional[TimelineTracer] = None,
        reliability_mode: str = "parametric",
        read_disturb_threshold: Optional[int] = None,
        operating_temp_c: Optional[float] = None,
        channel_arbitration: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        trace_config: Optional[TraceConfig] = None,
        snapshot_interval_us: Optional[float] = None,
        keep_raw_latencies: bool = True,
    ):
        self.config = config or SSDConfig()
        self.sim = Simulator()
        if tracer is None and trace_config is not None and trace_config.enabled:
            tracer = SimTracer(trace_config)
        self.tracer = tracer
        g = self.config.geometry
        self.mapper = AddressMapper(g)

        root = make_rng(seed)
        sampler_seed = int(spawn(root, 1).integers(0, 2**31))
        if reliability_mode == "parametric":
            self.sampler = PageReliabilitySampler(
                pe_cycles,
                self.config.reliability,
                self.config.ecc,
                seed=sampler_seed,
                operating_temp_c=operating_temp_c,
            )
        elif reliability_mode == "lut":
            if operating_temp_c is not None:
                raise SimulationError(
                    "LUT reliability tables are characterised at the "
                    "reference temperature; use the parametric mode for "
                    "temperature studies"
                )
            # the paper's exact methodology: per-block characterization
            # lookup tables from randomly assigned test blocks
            from .lut_reliability import LutReliabilitySampler

            self.sampler = LutReliabilitySampler(
                pe_cycles,
                reliability=self.config.reliability,
                ecc=self.config.ecc,
                seed=sampler_seed,
            )
        else:
            raise SimulationError(
                f"unknown reliability_mode {reliability_mode!r} "
                "(use 'parametric' or 'lut')"
            )
        self.outcome_model = outcome_model or EccOutcomeModel(
            ecc=self.config.ecc, seed=spawn(root, 2)
        )
        self.policy = make_policy(
            policy, self.config.timings, self.outcome_model,
            **(policy_kwargs or {}),
        )
        self.pe_cycles = pe_cycles
        self.ftl = PageMapFtl(self.config)
        self.metrics = SimMetrics(keep_raw_latencies=keep_raw_latencies)
        #: reads a block tolerates before read-disturb relocation (None =
        #: management off; real parts use ~100K, scale it to the trace)
        self.read_disturb_threshold = read_disturb_threshold
        if read_disturb_threshold is not None and read_disturb_threshold < 1:
            raise SimulationError("read_disturb_threshold must be >= 1")

        # --- resources ---
        #: which read-pipeline implementation executes this simulator:
        #: "batched" (the structure-of-arrays engine, default) or "scalar"
        #: (the closure-per-phase reference) — see repro.ssd.core_mode
        self.core = "scalar" if scalar_core_active() else "batched"
        #: with arbitration on, read transfers outrank writes/GC and
        #: un-gated traffic may bypass a decoder-stalled read (the channel
        #: keeps moving write data during ECCWAIT)
        self.channel_arbitration = channel_arbitration
        if self.core == "batched":
            from .read_pipeline import FastChannel, FastEcc, FastFifo

            self.host_link = FastFifo(self.sim, "host")
            self.planes = [
                FastFifo(self.sim, f"plane{i}") for i in range(g.total_planes)
            ]
            self.eccs = [
                FastEcc(self.sim, f"ecc{i}", self.config.ecc.buffer_pages)
                for i in range(g.channels)
            ]
            self.channels = [
                FastChannel(self.sim, f"ch{i}", self.eccs[i],
                            arbitrated=channel_arbitration)
                for i in range(g.channels)
            ]
        else:
            self.host_link = SerialResource(self.sim, "host")
            self.planes = [
                SerialResource(self.sim, f"plane{i}")
                for i in range(g.total_planes)
            ]
            self.channels = [
                SerialResource(self.sim, f"ch{i}",
                               arbitrated=channel_arbitration)
                for i in range(g.channels)
            ]
            self.eccs = [
                EccEngine(self.sim, f"ecc{i}", self.config.ecc.buffer_pages)
                for i in range(g.channels)
            ]
        for channel, ecc in zip(self.channels, self.eccs):
            ecc.subscribe_on_release(channel.kick)

        # --- observability wiring (repro.obs; all hooks are passive) ---
        self._requests_submitted = 0
        if (self.tracer is not None and self.tracer.config.enabled
                and self.tracer.config.trace_resources):
            for resource in (*self.channels, *self.planes, self.host_link):
                resource.attach_probe(self.tracer.record_resource)
            for ecc in self.eccs:
                ecc.decoder.attach_probe(self.tracer.record_resource)
        self.snapshots: Optional[SnapshotRecorder] = None
        if snapshot_interval_us is not None:
            self.snapshots = SnapshotRecorder(snapshot_interval_us,
                                              channels=g.channels)
            for channel in self.channels:
                channel.attach_probe(self.snapshots.observe_span)

        self._page_size = g.page_size
        self._host_page_us = self._page_size / self.config.bandwidth.host_bytes_per_us

        # --- fault injection (repro.faults) ---
        self.fault_plan = fault_plan
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None
            and fault_plan.simulator_faults() else None
        )
        if self.fault_injector is not None:
            self._schedule_saturation_windows()

        # --- batched read pipeline (constructed last: it captures the
        # policy, sampler, metrics, tracer and fault wiring above) ---
        if self.core == "batched":
            from .read_pipeline import ReadPipeline

            self._pipeline: Optional[ReadPipeline] = ReadPipeline(self)
        else:
            self._pipeline = None

    @property
    def tracer(self) -> Optional[SimTracer]:
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[SimTracer]) -> None:
        # tooling (repro.perf.profile) attaches a tracer post-construction;
        # the batched pipeline caches trace wiring, so keep it in sync
        self._tracer = value
        pipeline = getattr(self, "_pipeline", None)
        if pipeline is not None:
            pipeline.attach_tracer(value)

    def _schedule_saturation_windows(self) -> None:
        """Wire ``ecc_saturation`` faults as sim-time events: hold decoder
        buffer slots at window start, release (and re-kick the gated
        channels) at window end.  Windows should lie inside the measured
        run — the edge events advance the clock like any other event."""
        for spec in self.fault_injector.saturation_windows():
            if spec.channel is not None:
                if not 0 <= spec.channel < len(self.eccs):
                    raise FaultInjectionError(
                        f"ecc_saturation channel {spec.channel} outside "
                        f"[0, {len(self.eccs)})"
                    )
                targets = [self.eccs[spec.channel]]
            else:
                targets = list(self.eccs)
            slots = int(spec.magnitude)
            for ecc in targets:
                self.sim.at(spec.start_us,
                            lambda e=ecc, n=slots: e.hold_slots(n))
                self.sim.at(spec.end_us,
                            lambda e=ecc: e.release_held_slots())

    # --- request entry point ------------------------------------------------------------

    def submit_request(self, request: IORequest,
                       on_complete: Optional[Callable[[], None]] = None) -> None:
        """Admit one host request; pages fan out immediately."""
        lpns = list(request.lpns(self._page_size))
        request_id = self._requests_submitted
        self._requests_submitted += 1
        traced = (self.tracer is not None
                  and self.tracer.trace_request(request_id))
        state = _RequestState(
            remaining=len(lpns),
            started_us=self.sim.now,
            is_read=request.is_read,
            nbytes=request.size_bytes,
            on_complete=on_complete,
            request_id=request_id,
            traced=traced,
        )
        if traced and self.tracer.config.trace_requests:
            self.tracer.record_instant(
                "request.queued", self.sim.now, request_id=request_id,
                args={"op": "read" if request.is_read else "write",
                      "bytes": request.size_bytes, "pages": len(lpns)},
            )
        pipeline = self._pipeline
        if pipeline is not None:
            if request.is_read:
                pipeline.start_reads(lpns, state)
            else:
                for lpn in lpns:
                    pipeline.start_write(lpn, state)
            return
        for lpn in lpns:
            if request.is_read:
                self._start_page_read(lpn, state)
            else:
                self._start_page_write(lpn, state)

    def run(self, until: Optional[float] = None,
            stop_condition: Optional[Callable[[], bool]] = None) -> None:
        """Drive the event loop (see :meth:`Simulator.run`)."""
        self.sim.run(until=until, stop_condition=stop_condition)
        self.metrics.elapsed_us = self.sim.now
        for resource in (*self.channels, *self.planes, self.host_link):
            resource.finalize()
        # history-driven policies: snapshot learned state and hit/miss
        # counters into the metrics so result JSON (and thus the campaign
        # cache and fleet rollups) carries them; idempotent on re-entry
        if self.policy.stateful:
            self.metrics.adaptive_hits = self.policy.hits
            self.metrics.adaptive_mispredicts = self.policy.mispredicts
            self.metrics.adaptive_state = self.policy.export_state()
        # snapshots consume the channels' closing ECCWAIT probes above, so
        # the window series freezes only after every interval is closed
        if self.snapshots is not None and not self.snapshots.finalized:
            self.snapshots.finalize(self.sim.now)
        # passive perf telemetry: reliability-cache effectiveness for this
        # run, alongside the lifecycle events (repro.perf hook)
        if self.tracer is not None and self.tracer.config.enabled:
            self.tracer.record_instant(
                "perf.cache_stats", self.sim.now,
                args={"caches": self.cache_stats()},
            )

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of the reliability sampler's and
        outcome model's memo caches (see :mod:`repro.perf.cache`)."""
        return self.sampler.cache_stats() + self.outcome_model.cache_stats()

    def prefetch_footprint(self, requests: Sequence[IORequest]) -> None:
        """Memoize the per-page reliability inputs of a trace's reads
        before the event loop dispatches it.

        For the read pages still at their identity placement, in
        first-touch order, the sampler computes the cold age, the block
        and page strength factors and the retention base of each page's
        cold read (or its LUT assignment) in vectorized passes and seeds
        its memo tables (:meth:`PageReliabilitySampler.prefetch`; pages
        past half a table are left to the scalar miss path).  The inputs
        are order-free hashes of (seed, address) and a pure function of
        them, computed bit-identically to the scalar path, so every read
        gives the same bits as without the prefetch.  With caches
        disabled there is nothing to seed and nothing is computed.
        """
        if not caches_enabled():
            return
        page_size = self._page_size
        lpns = dict.fromkeys(chain.from_iterable(
            request.lpns(page_size) for request in requests
            if request.is_read))
        lpns = self.ftl.identity_resident(
            np.fromiter(lpns, dtype=np.int64, count=len(lpns)))
        if len(lpns):
            *block_cols, pages = self.mapper.address_columns(lpns)
            self.sampler.prefetch(lpns, block_cols, pages)

    # --- page read ---------------------------------------------------------------------------

    def _start_page_read(self, lpn: int, state: _RequestState) -> None:
        target = self.ftl.read(lpn)
        faults: Optional[ReadFaultDecision] = None
        if self.fault_injector is not None:
            faults = self.fault_injector.on_page_read(target.address,
                                                      self.sim.now)
            if faults.any:
                self.metrics.faults_injected += faults.fired
                target = self._mitigate_read_faults(lpn, target, faults,
                                                    state)
                if target is None:
                    return  # degraded: the page was completed (or raised)
            else:
                faults = None
        if target.cold:
            retention = self.sampler.cold_age_days(lpn)
        else:
            retention = self.sampler.warm_age_days(target.written_at_us, self.sim.now)
        rber = self.sampler.rber(
            target.address.block_key(), target.address.page,
            retention, target.block_read_count,
        )
        if self.policy.stateful:
            self.policy.begin_read(target.address.block_key(), retention)
        plan = self.policy.plan_read(rber)
        self._account_plan(plan)
        if state.traced and self.tracer.config.trace_requests:
            self.tracer.record_instant(
                "read.plan", self.sim.now, request_id=state.request_id,
                args=dict(plan.trace_args(), lpn=lpn),
            )
        self._execute_plan(plan, target.address, state, label=f"R:lpn{lpn}",
                           faults=faults)
        if (self.read_disturb_threshold is not None
                and target.block_read_count >= self.read_disturb_threshold):
            self._relocate_disturbed_block(target.address)

    # --- fault mitigation (repro.faults) ---------------------------------------------

    def _mitigate_read_faults(self, lpn: int, target, faults: ReadFaultDecision,
                              state: _RequestState):
        """Controller-level mitigation that must happen before the plan is
        compiled.  Returns the (possibly re-resolved) read target, or
        ``None`` when the read was dispatched as degraded."""
        if faults.offline:
            addr = target.address
            self._degraded_read(state, DegradedReadError(
                f"die (channel={addr.channel}, die={addr.die}) is offline"
            ))
            return None
        if faults.grown_bad_block:
            addr = target.address
            pidx = self.mapper.plane_index_of(addr)
            result = self.ftl.relocate_block(pidx, addr.block, self.sim.now)
            if result is not None:
                # retirement: live pages (ours included) moved off the bad
                # block through the existing relocation path
                self.metrics.retired_blocks += 1
                self.fault_injector.note_block_retired(addr)
                self.metrics.gc_page_copies += len(result.gc_copies)
                for copy in result.gc_copies:
                    self._start_gc_copy(copy.source, copy.destination)
                for plane_idx, _block in result.erased_blocks:
                    self.planes[plane_idx].submit(
                        Job(duration=self.config.timings.t_erase, tag="ERASE")
                    )
                target = self.ftl.read(lpn)  # re-resolve to the new home
            # the triggering read pays at least one retry round either way
            # (an unretired block struggles through like a transient fault)
            faults.sense_failures = max(faults.sense_failures, 1)
        return target

    def _degraded_read(self, state: _RequestState, error: ReproError) -> None:
        """A read the controller cannot serve: absorb it into the metrics
        (completing the page immediately with an error reply) or raise the
        typed error, per the plan's ``on_degraded`` disposition."""
        if self.fault_plan.on_degraded == "raise":
            raise error
        self.metrics.degraded_reads += 1
        self._page_done(state)

    def _relocate_disturbed_block(self, address: PageAddress) -> None:
        """Read-disturb management: rewrite a heavily-read block, resetting
        its disturb counter (SecI's 'read-disturb management' internal
        traffic)."""
        pidx = self.mapper.plane_index_of(address)
        result = self.ftl.relocate_block(pidx, address.block, self.sim.now)
        if result is None:
            return  # unsafe right now; the next read will retry
        self.metrics.disturb_relocations += 1
        self.metrics.gc_page_copies += len(result.gc_copies)
        for copy in result.gc_copies:
            self._start_gc_copy(copy.source, copy.destination)
        for plane_idx, _block in result.erased_blocks:
            self.planes[plane_idx].submit(
                Job(duration=self.config.timings.t_erase, tag="ERASE")
            )

    def _account_plan(self, plan: ReadPlan) -> None:
        m = self.metrics
        m.page_reads += 1
        m.total_senses += plan.senses
        m.retried_reads += int(plan.retried)
        m.in_die_retries += int(plan.in_die_retry)
        m.uncorrectable_transfers += plan.uncorrectable_transfers
        if plan.rp_predicted_retry is not None:
            m.rp_mispredicts += int(plan.rp_predicted_retry != plan.retried)
        if self.snapshots is not None:
            # one window lookup for the whole plan — this runs per page
            # read, so three separate note() calls are measurable
            per = self.snapshots.window_counters(self.sim.now)
            per["page_reads"] = per.get("page_reads", 0.0) + 1
            per["senses"] = per.get("senses", 0.0) + plan.senses
            if plan.retried:
                per["retried_reads"] = per.get("retried_reads", 0.0) + 1

    def _execute_plan(self, plan: ReadPlan, address: PageAddress,
                      state: _RequestState, label: str,
                      faults: Optional[ReadFaultDecision] = None) -> None:
        plane = self.planes[self.mapper.plane_index_of(address)]
        channel = self.channels[address.channel]
        ecc = self.eccs[address.channel]
        phases = plan.phases
        exhausted: Optional[ReproError] = None
        if faults is not None:
            phases, exhausted = self._apply_transfer_faults(phases, faults)
            if faults.latency_scale > 1.0:
                phases = [
                    replace(p, duration=p.duration * faults.latency_scale)
                    if p.kind is PhaseKind.SENSE else p
                    for p in phases
                ]

        def run_phase(index: int) -> None:
            if index >= len(phases):
                if exhausted is not None:
                    self._degraded_read(state, exhausted)
                    return
                if faults is not None:
                    self.metrics.faults_absorbed += faults.fired
                self._finish_page_read(state)
                return
            phase = phases[index]

            def advance() -> None:
                run_phase(index + 1)

            if phase.kind is PhaseKind.SENSE:
                self._submit_traced(
                    plane, phase.duration, "SENSE", label, advance,
                    state=state, kind="sense",
                )
            elif phase.kind is PhaseKind.TRANSFER:
                if phase.decode_us is None:
                    self._submit_traced(
                        channel, phase.duration, phase.tag, label, advance,
                        priority=1, state=state, kind="transfer",
                    )
                else:
                    self._submit_transfer_with_decode(
                        channel, ecc, phase, label, advance, state=state
                    )
            else:  # pragma: no cover - enum is closed
                raise SimulationError(f"unknown phase kind {phase.kind}")

        if faults is not None and faults.sense_failures:
            self._run_sense_retries(plane, faults.sense_failures, label,
                                    state, lambda: run_phase(0))
        else:
            run_phase(0)

    def _apply_transfer_faults(self, phases, faults: ReadFaultDecision):
        """Fold channel-corruption faults into a phase list.

        Each corrupted transfer crosses the channel, burns a doomed decode
        (UNCOR, full failed-decode latency), and is re-transferred; within
        the retry budget the clean plan follows, beyond it the corrupted
        rounds play out and the read ends degraded."""
        if not faults.corrupt_transfers:
            return phases, None
        budget = self.fault_plan.max_retries
        plays = min(faults.corrupt_transfers, budget + 1)
        for i, phase in enumerate(phases):
            if phase.kind is PhaseKind.TRANSFER and phase.decode_us is not None:
                corrupt = replace(phase, tag=TAG_UNCOR,
                                  decode_us=self.config.ecc.t_ecc_max)
                self.metrics.fault_retries += plays
                self.metrics.uncorrectable_transfers += plays
                if faults.corrupt_transfers > budget:
                    return list(phases[:i]) + [corrupt] * plays, \
                        RetryExhaustedError(
                            f"transfer still corrupt after {budget} "
                            "re-transfers"
                        )
                return (list(phases[:i]) + [corrupt] * plays
                        + list(phases[i:])), None
        return phases, None  # plan has no decoder-bound transfer to corrupt

    def _run_sense_retries(self, plane: SerialResource, failures: int,
                           label: str, state: _RequestState,
                           proceed: Callable[[], None]) -> None:
        """Bounded retry with backoff for transient sense faults: the die
        fails ``failures`` consecutive senses; the controller re-issues up
        to ``max_retries`` times, waiting ``retry_backoff_us * round``
        between attempts, then gives up (degraded read)."""
        fault_plan = self.fault_plan
        t_read = self.config.timings.t_read

        def attempt(i: int) -> None:
            def after_sense() -> None:
                nxt = i + 1
                backoff = fault_plan.retry_backoff_us * nxt
                if nxt > fault_plan.max_retries:
                    self._degraded_read(state, RetryExhaustedError(
                        f"sense still failing after "
                        f"{fault_plan.max_retries} retries"
                    ))
                    return
                self.metrics.fault_retries += 1
                if nxt >= failures:
                    # the re-issued sense succeeds: it is the plan's own
                    # first SENSE phase
                    self.sim.after(backoff, proceed)
                else:
                    self.sim.after(backoff, lambda: attempt(nxt))

            self._submit_traced(plane, t_read, "FAULT", label, after_sense,
                                state=state, kind="fault")

        attempt(0)

    def _submit_traced(self, resource: SerialResource, duration: float,
                       tag: str, label: str, on_complete: Callable[[], None],
                       priority: int = 0,
                       state: Optional[_RequestState] = None,
                       kind: str = "") -> None:
        traced = (self.tracer is not None
                  and (state is None or state.traced))
        if not traced:
            resource.submit(Job(duration=duration, tag=tag,
                                on_complete=on_complete, priority=priority,
                                label=label))
            return
        rid = state.request_id if state is not None else None
        start_holder = {}

        def on_start() -> None:
            start_holder["t"] = self.sim.now

        def done() -> None:
            self.tracer.record(label, resource.name, start_holder["t"],
                               self.sim.now, tag, kind=kind, request_id=rid)
            on_complete()

        resource.submit(Job(duration=duration, tag=tag,
                            on_start=on_start, on_complete=done,
                            priority=priority, label=label))

    def _submit_transfer_with_decode(self, channel: SerialResource,
                                     ecc: EccEngine, phase: Phase, label: str,
                                     advance: Callable[[], None],
                                     state: Optional[_RequestState] = None,
                                     ) -> None:
        """Channel transfer gated on a free decoder-buffer slot, followed by
        the decode itself."""
        traced = (self.tracer is not None
                  and (state is None or state.traced))
        rid = state.request_id if state is not None else None
        start_holder = {}

        def on_start() -> None:
            ecc.reserve_slot()
            start_holder["t"] = self.sim.now

        def after_transfer() -> None:
            if traced:
                self.tracer.record(label, channel.name, start_holder["t"],
                                   self.sim.now, phase.tag, kind="transfer",
                                   request_id=rid)
            decode_start = self.sim.now

            def after_decode() -> None:
                if traced:
                    self.tracer.record(label, ecc.name, decode_start,
                                       self.sim.now, phase.tag, kind="decode",
                                       request_id=rid)
                advance()

            ecc.submit_decode(phase.decode_us, phase.tag, after_decode,
                              label=label)

        channel.submit(Job(
            duration=phase.duration,
            tag=phase.tag,
            on_start=on_start,
            on_complete=after_transfer,
            can_start=ecc.can_reserve,
            priority=1,
            label=label,
        ))

    def _finish_page_read(self, state: _RequestState) -> None:
        """Corrected page goes to the host over the shared host link."""
        self.host_link.submit(Job(
            duration=self._host_page_us,
            tag="READ",
            on_complete=lambda: self._page_done(state),
        ))

    # --- page write -----------------------------------------------------------------------------

    def _start_page_write(self, lpn: int, state: _RequestState) -> None:
        result = self.ftl.write(lpn, self.sim.now)
        self.metrics.page_writes += 1
        for copy in result.gc_copies:
            self._start_gc_copy(copy.source, copy.destination)
        self.metrics.gc_page_copies += len(result.gc_copies)
        for pidx, _block in result.erased_blocks:
            self.planes[pidx].submit(
                Job(duration=self.config.timings.t_erase, tag="ERASE")
            )
        address = result.address
        plane = self.planes[self.mapper.plane_index_of(address)]
        channel = self.channels[address.channel]
        t = self.config.timings

        def after_host() -> None:
            channel.submit(Job(
                duration=t.t_dma, tag=TAG_WRITE, on_complete=after_channel,
            ))

        def after_channel() -> None:
            plane.submit(Job(
                duration=t.t_prog, tag=TAG_WRITE,
                on_complete=lambda: self._page_done(state),
            ))

        self.host_link.submit(Job(
            duration=self._host_page_us, tag="WRITE", on_complete=after_host,
        ))

    def _start_gc_copy(self, src: PageAddress, dst: PageAddress) -> None:
        """Internal relocation: sense, move out, move back, program."""
        t = self.config.timings
        src_plane = self.planes[self.mapper.plane_index_of(src)]
        dst_plane = self.planes[self.mapper.plane_index_of(dst)]
        out_channel = self.channels[src.channel]
        in_channel = self.channels[dst.channel]

        def after_sense() -> None:
            out_channel.submit(Job(duration=t.t_dma, tag=TAG_GC,
                                   on_complete=after_out))

        def after_out() -> None:
            in_channel.submit(Job(duration=t.t_dma, tag=TAG_GC,
                                  on_complete=after_in))

        def after_in() -> None:
            dst_plane.submit(Job(duration=t.t_prog, tag=TAG_GC))

        src_plane.submit(Job(duration=t.t_read, tag=TAG_GC,
                             on_complete=after_sense))

    # --- completion & metrics ---------------------------------------------------------------------

    def _page_done(self, state: _RequestState) -> None:
        state.remaining -= 1
        if state.remaining > 0:
            return
        latency = self.sim.now - state.started_us
        if state.is_read:
            self.metrics.host_read_bytes += state.bytes
            self.metrics.record_read_latency(latency)
        else:
            self.metrics.host_write_bytes += state.bytes
            self.metrics.record_write_latency(latency)
        if self.snapshots is not None:
            key = "host_read_bytes" if state.is_read else "host_write_bytes"
            self.snapshots.note(key, self.sim.now, state.bytes)
        if state.traced and self.tracer.config.trace_requests:
            op = "read" if state.is_read else "write"
            self.tracer.record_request_span(
                state.request_id, f"{op}:req{state.request_id}",
                state.started_us, self.sim.now, tag=op.upper(),
            )
            self.tracer.record_instant(
                "request.done", self.sim.now, request_id=state.request_id,
                args={"latency_us": latency},
            )
        if state.on_complete is not None:
            state.on_complete()

    def channel_usage(self) -> ChannelUsage:
        """Aggregate Fig.-18 channel-time breakdown across all channels."""
        if self.metrics.elapsed_us <= 0:
            raise SimulationError("run the simulation first")
        cor = uncor = write = gc = eccwait = 0.0
        for channel in self.channels:
            tags = channel.busy_time_by_tag
            cor += tags.get("COR", 0.0)
            uncor += tags.get("UNCOR", 0.0)
            write += tags.get(TAG_WRITE, 0.0)
            gc += tags.get(TAG_GC, 0.0)
            eccwait += channel.blocked_time
        total = self.metrics.elapsed_us * len(self.channels)
        busy = cor + uncor + write + gc + eccwait
        if busy > total + 1e-6:
            raise SimulationError("channel accounting exceeded wall clock")
        return ChannelUsage(
            cor=cor, uncor=uncor, write=write, gc=gc,
            eccwait=eccwait, idle=max(total - busy, 0.0),
        )

    def export_chrome_trace(self, path, title: Optional[str] = None):
        """Write the run's trace as Chrome ``trace_event`` JSON (open in
        ``chrome://tracing`` or Perfetto); requires tracing to be enabled."""
        if self.tracer is None:
            raise SimulationError(
                "no tracer attached; construct the simulator with "
                "trace_config=TraceConfig(enabled=True)"
            )
        name = title or f"{self.policy.name.value} @ {self.pe_cycles:g} P/E"
        return write_chrome_trace(path, self.tracer, title=name)

    # --- workload runs -------------------------------------------------------------------------------

    def run_trace(
        self,
        trace: Trace,
        mode: str = "closed",
        max_requests: Optional[int] = None,
        queue_depth: Optional[int] = None,
        time_limit_us: float = 300 * SEC,
    ) -> SimulationResult:
        """Run a whole trace and return the aggregated result.

        ``mode='closed'`` keeps a constant queue depth (bandwidth
        measurement); ``mode='timed'`` replays recorded arrival times.
        """
        if mode == "closed":
            host = ClosedLoopHost(self, trace, queue_depth=queue_depth,
                                  max_requests=max_requests)
        elif mode == "timed":
            host = TimedReplayHost(self, trace, max_requests=max_requests)
        else:
            raise SimulationError(f"unknown mode {mode!r}")
        self.prefetch_footprint(trace.requests[:host.max_requests])
        host.start()
        self.run(until=time_limit_us)
        return SimulationResult(
            policy=str(self.policy.name.value),
            pe_cycles=self.pe_cycles,
            workload=trace.name,
            metrics=self.metrics,
            channel_usage=self.channel_usage(),
            completed=host.done,
        )
