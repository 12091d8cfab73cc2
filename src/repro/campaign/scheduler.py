"""Async job-queue scheduler: the single execution path for campaigns.

Historically the repo had three hand-rolled execution loops — the serial
executor, the hardened process pool, and the durable ledger runtime —
each re-implementing the same skeleton (dedupe, replay, execute, observe,
interrupt).  This module folds them into one scheduler with one shared
campaign driver:

* :class:`JobScheduler` — a submit/poll/stream/cancel job queue.  Every
  submitted :class:`~repro.campaign.spec.RunSpec` becomes a :class:`Job`
  with a priority and a monotonically increasing sequence number; jobs
  execute in waves through a pluggable *backend* (any object with the
  executor ``map(specs, report, on_claim)`` contract — see below), with
  ``max_in_flight`` bounding how many jobs one wave may hand the backend
  (backpressure for fleet-scale campaigns).  Because every cell is a pure
  function of its spec, scheduling order can never leak into a result:
  the scheduler's wave shape changes wall-clock behaviour only.
* :func:`run_campaign` — the campaign driver behind
  :func:`~repro.campaign.executor.run_specs`, with or without a ledger.
  It owns spec dedupe, replay of already-known cells
  (cache or ledger), fresh execution through the scheduler, folding every
  outcome into a :class:`~repro.obs.registry.FleetAggregator` *in spec
  order* (so serial and parallel float sums are bit-identical), progress
  reporting, and the graceful-interrupt contract
  (:class:`~repro.errors.CampaignInterrupted` carrying partial results
  and a resume hint).

Backend contract
----------------

A scheduler backend is any object exposing::

    map(specs, report, on_claim) -> Dict[RunSpec, CellOutcome]

where ``report(spec, outcome, elapsed_s)`` fires once per finished cell
(in completion order) and ``on_claim(spec)`` fires just before a cell
starts executing.  A backend interrupted mid-map raises
:class:`~repro.errors.CampaignInterrupted` whose ``results`` carry the
cells that did finish.  :class:`~repro.campaign.executor.SerialExecutor`
and :class:`~repro.campaign.executor.ParallelExecutor` satisfy this
contract unchanged; the durable runtime layers the ledger on top via the
``report``/``on_claim`` hooks rather than a fourth loop.

Determinism
-----------

Ordering guarantees, all independent of backend completion order:

* :meth:`JobScheduler.results` returns outcomes keyed in submission
  order;
* :meth:`JobScheduler.stream` yields finished jobs in scheduling order
  (``(-priority, seq)``), never emitting a job while an earlier-ordered
  job is unfinished;
* waves are formed by scheduling order, so a given
  (``specs``, ``priorities``, ``max_in_flight``) triple always hands the
  backend the same batches.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import (
    CampaignExecutionError,
    CampaignInterrupted,
    ConfigError,
)
from .executor import (
    CellFailure,
    CellOutcome,
    ClaimFn,
    ReportFn,
    make_executor,
)
from .spec import RunSpec

#: Job lifecycle states.  ``pending`` jobs may be cancelled or executed;
#: ``running`` jobs are in the backend's hands; ``done``/``failed`` are
#: terminal outcomes; ``cancelled`` jobs never execute.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_PENDING, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@dataclass
class Job:
    """One scheduled cell: a spec plus its queue bookkeeping.

    ``seq`` is the submission ordinal (unique per scheduler); ``priority``
    schedules higher values first, ties broken by ``seq`` — so scheduling
    order is the deterministic ``(-priority, seq)``.  ``cached`` marks a
    job resolved externally (cache/ledger replay) rather than executed.
    """

    seq: int
    spec: RunSpec
    priority: int = 0
    state: str = JOB_PENDING
    outcome: Optional[CellOutcome] = None
    elapsed_s: float = 0.0
    cached: bool = False

    @property
    def finished(self) -> bool:
        """True once the job carries an outcome (done or failed)."""
        return self.state in (JOB_DONE, JOB_FAILED)

    def sort_key(self) -> tuple:
        return (-self.priority, self.seq)


class JobScheduler:
    """Priority job queue executing specs in bounded waves via a backend.

    With no ``backend``, one is built by
    :func:`~repro.campaign.executor.make_executor` from ``jobs`` and the
    hardening knobs — serial for ``jobs=1``, the crash-hardened process
    pool otherwise.  ``max_in_flight`` caps how many jobs a single wave
    hands the backend (``None`` = no cap: one wave runs everything, which
    is exactly the pre-scheduler behaviour); lower values trade pool
    efficiency for bounded memory and earlier backpressure, without
    changing any result.
    """

    def __init__(self, backend=None, *, jobs: Optional[int] = 1,
                 cell_timeout_s: Optional[float] = None,
                 max_cell_retries: int = 1, on_failure: str = "raise",
                 max_in_flight: Optional[int] = None):
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1 (or None), got {max_in_flight}"
            )
        if backend is None:
            backend = make_executor(jobs, cell_timeout_s=cell_timeout_s,
                                    max_cell_retries=max_cell_retries,
                                    on_failure=on_failure)
        self.backend = backend
        self.max_in_flight = max_in_flight
        self._jobs: Dict[int, Job] = {}
        self._by_spec: Dict[RunSpec, int] = {}
        self._next_seq = 0

    # --- submission -------------------------------------------------------

    def submit(self, spec: RunSpec, priority: int = 0) -> int:
        """Queue one spec; returns its job id.

        Submitting a spec already queued (and not cancelled) returns the
        existing job instead of duplicating work — campaigns dedupe by
        construction; a still-pending duplicate is promoted to the higher
        of the two priorities.
        """
        existing = self._by_spec.get(spec)
        if existing is not None:
            job = self._jobs[existing]
            if job.state != JOB_CANCELLED:
                if job.state == JOB_PENDING and priority > job.priority:
                    job.priority = priority
                return existing
        seq = self._next_seq
        self._next_seq += 1
        self._jobs[seq] = Job(seq=seq, spec=spec, priority=priority)
        self._by_spec[spec] = seq
        return seq

    def submit_many(self, specs: Sequence[RunSpec],
                    priority: int = 0) -> List[int]:
        return [self.submit(spec, priority) for spec in specs]

    # --- queries ----------------------------------------------------------

    def job(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ConfigError(f"unknown job id {job_id!r}") from None

    def poll(self, job_id: int) -> str:
        """The job's current lifecycle state (one of :data:`JOB_STATES`)."""
        return self.job(job_id).state

    def pending(self) -> List[Job]:
        """Pending jobs in scheduling order — the next wave's candidates."""
        return sorted(
            (job for job in self._jobs.values()
             if job.state == JOB_PENDING),
            key=Job.sort_key,
        )

    def jobs(self) -> List[Job]:
        """Every job in submission order."""
        return [self._jobs[seq] for seq in sorted(self._jobs)]

    def results(self) -> Dict[RunSpec, CellOutcome]:
        """Outcomes of every finished job, keyed in submission order."""
        return {job.spec: job.outcome for job in self._jobs.values()
                if job.finished}

    # --- state transitions ------------------------------------------------

    def cancel(self, job_id: int) -> bool:
        """Cancel a pending job; returns whether it was cancelled.

        Only pending jobs can be cancelled: a running cell is in a worker's
        hands (and results must stay deterministic), and terminal jobs are
        history.  Those return ``False`` instead of raising so callers can
        race completion without a try/except.
        """
        job = self.job(job_id)
        if job.state != JOB_PENDING:
            return False
        job.state = JOB_CANCELLED
        return True

    def resolve(self, job_id: int, outcome: CellOutcome,
                cached: bool = True) -> None:
        """Settle a job without executing it (cache or ledger replay)."""
        job = self.job(job_id)
        if job.finished or job.state == JOB_CANCELLED:
            raise ConfigError(
                f"job {job_id} is already {job.state}; resolve() applies "
                "to pending jobs only"
            )
        self._settle(job, outcome, 0.0, cached=cached)

    def _settle(self, job: Job, outcome: CellOutcome, elapsed: float,
                cached: bool = False) -> None:
        job.outcome = outcome
        job.elapsed_s = elapsed
        job.cached = cached
        job.state = (JOB_FAILED if isinstance(outcome, CellFailure)
                     else JOB_DONE)

    # --- execution --------------------------------------------------------

    def _interrupt_message(self, message: str) -> str:
        """Restate a backend interrupt with whole-campaign counts.

        Backends count only the cells of their own wave; the scheduler
        rewrites the trailing ``N of M cells finished`` clause so the
        message covers every fresh (non-replayed) job across all waves.
        With an unbounded single wave the rewrite is the identity.
        """
        prefix = message.rsplit(" with ", 1)[0]
        fresh = [job for job in self._jobs.values()
                 if not job.cached and job.state != JOB_CANCELLED]
        finished = sum(1 for job in fresh if job.finished)
        return f"{prefix} with {finished} of {len(fresh)} cells finished"

    def _run_wave(self, report: Optional[ReportFn] = None,
                  on_claim: Optional[ClaimFn] = None) -> None:
        """Hand one wave of pending jobs to the backend."""
        wave = self.pending()
        if self.max_in_flight is not None:
            wave = wave[:self.max_in_flight]
        if not wave:
            return
        by_spec = {job.spec: job for job in wave}
        for job in wave:
            job.state = JOB_RUNNING

        def _report(spec: RunSpec, outcome: CellOutcome,
                    elapsed: float) -> None:
            self._settle(by_spec[spec], outcome, elapsed)
            if report is not None:
                report(spec, outcome, elapsed)

        try:
            mapped = self.backend.map([job.spec for job in wave],
                                      _report, on_claim)
        except CampaignInterrupted as exc:
            # keep what the backend did finish, put the rest back in the
            # queue, and restate the message with campaign-level counts
            for spec, outcome in exc.results.items():
                job = by_spec.get(spec)
                if job is not None and not job.finished:
                    self._settle(job, outcome, 0.0)
            for job in wave:
                if job.state == JOB_RUNNING:
                    job.state = JOB_PENDING
            raise CampaignInterrupted(
                self._interrupt_message(str(exc)),
                results=self.results(),
            ) from None
        except BaseException:
            for job in wave:
                if job.state == JOB_RUNNING:
                    job.state = JOB_PENDING
            raise
        for job in wave:
            if job.finished:
                continue
            if job.spec in mapped:  # report hook bypassed (custom backend)
                self._settle(job, mapped[job.spec], 0.0)
            else:
                raise CampaignExecutionError(
                    f"backend returned no outcome for cell "
                    f"{job.spec.content_hash()} ({job.spec.label()})"
                )

    def run(self, report: Optional[ReportFn] = None,
            on_claim: Optional[ClaimFn] = None) -> Dict[RunSpec, CellOutcome]:
        """Execute every pending job; returns :meth:`results`."""
        while self.pending():
            self._run_wave(report, on_claim)
        return self.results()

    def stream(self, report: Optional[ReportFn] = None,
               on_claim: Optional[ClaimFn] = None) -> Iterator[Job]:
        """Yield finished jobs in scheduling order, executing lazily.

        The stream never emits a job while an earlier-ordered job is
        unfinished, so consumers see a deterministic sequence regardless
        of how the backend interleaves completions.  Waves run only when
        the next job in order still needs executing, which gives natural
        backpressure: a slow consumer delays later waves.  Jobs submitted
        mid-stream join the order at their scheduling position if not yet
        passed, else after the already-emitted prefix.
        """
        emitted: set = set()
        while True:
            ordered = sorted(
                (job for job in self._jobs.values()
                 if job.state != JOB_CANCELLED),
                key=Job.sort_key,
            )
            head = next((job for job in ordered if job.seq not in emitted),
                        None)
            if head is None:
                return
            if not head.finished:
                # head is the top of scheduling order, so it is in the
                # next wave's prefix; one wave always finishes it
                self._run_wave(report, on_claim)
                if not head.finished:
                    continue  # cancelled from a report callback
            emitted.add(head.seq)
            yield head


# --- the shared campaign driver ---------------------------------------------


def run_campaign(
    scheduler: JobScheduler,
    specs: Sequence[RunSpec],
    *,
    replay: Optional[Callable[[RunSpec], Optional[CellOutcome]]] = None,
    on_fresh: Optional[Callable[[RunSpec, CellOutcome], None]] = None,
    on_claim: Optional[ClaimFn] = None,
    progress=None,
    fleet=None,
    resume_hint: Optional[str] = None,
    execution_guard=None,
    on_interrupt: Optional[Callable[[str], None]] = None,
    on_finish: Optional[Callable[[int, int], None]] = None,
) -> Dict[RunSpec, CellOutcome]:
    """Drive one campaign through a scheduler: replay, execute, observe.

    This is the single body behind
    :func:`~repro.campaign.executor.run_specs`; its cache path and its
    ledger path differ only in the hooks they pass:

    * ``replay(spec)`` — return a known outcome (cache hit, ledger
      ``done``/``failed`` replay) or ``None`` to execute the cell.  May
      raise (e.g. :class:`~repro.errors.LedgerError` on a live claim).
    * ``on_fresh(spec, outcome)`` — runs before progress for every
      freshly-executed cell, in completion order (cache fill, ledger
      ``done``/``failed`` journaling, chaos windows).
    * ``on_claim(spec)`` — forwarded to the backend (ledger ``claim``).
    * ``execution_guard`` — context manager wrapping fresh execution
      (the durable runtime's SIGTERM→KeyboardInterrupt conversion).
      With a guard, a *raw* KeyboardInterrupt (not just a
      :class:`~repro.errors.CampaignInterrupted`) is also converted into
      the graceful-interrupt contract; without one (the plain path),
      Ctrl-C outside execution propagates as-is.
    * ``on_interrupt(message)`` / ``on_finish(executed, replayed)`` —
      journaling hooks, invoked before the corresponding progress hooks.

    Every outcome — fresh, cached, or ledger-replayed alike — is folded
    into ``fleet`` in one pass in *spec order* after execution completes
    (never in completion or replay order), so serial vs parallel runs
    *and* interrupted-then-resumed vs uninterrupted runs accumulate
    floating-point sums in exactly the same sequence: fleet aggregates
    are bit-identical, not just commutatively equivalent.  An interrupted
    campaign folds nothing (resume and re-observe instead).
    """
    unique: List[RunSpec] = list(dict.fromkeys(specs))
    started = time.perf_counter()
    results: Dict[RunSpec, CellOutcome] = {}
    executed = 0
    replayed = 0
    if progress is not None:
        progress.on_start(len(unique))
    try:
        to_run: List[RunSpec] = []
        replayed_specs: set = set()
        for spec in unique:
            outcome = replay(spec) if replay is not None else None
            if outcome is None:
                scheduler.submit(spec)
                to_run.append(spec)
                continue
            scheduler.resolve(scheduler.submit(spec), outcome, cached=True)
            results[spec] = outcome
            replayed += 1
            replayed_specs.add(spec)
            if progress is not None:
                progress.on_result(spec, outcome, 0.0, cached=True)

        if to_run:
            def _report(spec: RunSpec, outcome: CellOutcome,
                        elapsed: float) -> None:
                nonlocal executed
                if on_fresh is not None:
                    on_fresh(spec, outcome)
                executed += 1
                if progress is not None:
                    progress.on_result(spec, outcome, elapsed, cached=False)

            with (execution_guard or nullcontext)():
                finished = scheduler.run(_report, on_claim)
            for spec in to_run:
                results[spec] = finished[spec]

        # one observation pass in spec order, replayed and fresh alike
        # (see the docstring: this is what makes fleet rollups
        # bit-identical across executors and across resume boundaries)
        if fleet is not None:
            for spec in unique:
                fleet.observe(spec, results[spec],
                              cached=spec in replayed_specs)

        if on_finish is not None:
            on_finish(executed, replayed)
        if progress is not None:
            progress.on_finish(time.perf_counter() - started)
        return {spec: results[spec] for spec in unique}
    except KeyboardInterrupt as exc:  # includes CampaignInterrupted
        if not isinstance(exc, CampaignInterrupted) and execution_guard is None:
            raise
        partial = dict(results)
        if isinstance(exc, CampaignInterrupted):
            # the scheduler's message already names the reason and counts
            partial.update(exc.results)
            message = str(exc)
        else:
            detail = str(exc)
            message = (f"campaign interrupted{f' ({detail})' if detail else ''} "
                       f"with {len(partial)} of {len(unique)} cells finished")
        if on_interrupt is not None:
            on_interrupt(message)
        if progress is not None:
            progress.on_interrupt(message)
        raise CampaignInterrupted(
            message, results=partial, resume_hint=resume_hint,
        ) from None
