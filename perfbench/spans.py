"""Span recording for the benchmark's traced run, from outside ``repro``.

:class:`SpanRecorder` replaces the public entry points of each layer with
timing wrappers — class attributes for methods, module attributes (in
the module that looks the name up) for functions — and puts every
original back on :meth:`SpanRecorder.uninstall`.  It must be installed
before the simulators are built, because the batched read pipeline binds
some of these methods once per simulator.

Each wrapped call records one span: layer id, start, end, parent span and
cell id, kept in flat arrays in memory.  A layer's self time is its span
time minus the time of its child spans; summed over all layers, self times
plus ``unattributed.s`` (traced wall minus every root span) add up to the
traced wall.  A span whose direct parent is of the same layer (a
``super()`` call, or ``rber_batch`` delegating to ``rber``) is folded
into its caller for ``calls`` and ``.s``, so those count logical calls.

Only untraced runs give host timings; traced numbers describe where the
time goes, inflated by the wrappers by ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in out:
            out.append(klass)
            todo.extend(klass.__subclasses__())
    return out


def wrap_points() -> List[Tuple[str, Sequence[object], Sequence[str],
                                Optional[int]]]:
    """``(layer, owners, attribute names, spec argument index)`` per layer.

    The spec index names the positional argument that is a ``RunSpec``;
    spans under such a call carry that cell's id.
    """
    from repro.campaign import cache, durable, executor, spec
    from repro.fleet import service
    from repro.obs import registry, slo
    from repro.ssd import (adaptive, ecc_model, events, ftl, read_pipeline,
                           reliability, retry_policies, simulator)

    policies = _subclasses(retry_policies.ReadRetryPolicy)
    models = _subclasses(ecc_model.EccOutcomeModel)
    return [
        ("fleet.run_fleet", [service], ["run_fleet"], None),
        ("fleet.generate_population", [service], ["generate_population"],
         None),
        ("campaign.run_specs", [service], ["run_specs"], None),
        ("campaign.build_trace", [executor], ["build_trace"], 0),
        ("workloads.generate", [spec], ["generate"], None),
        ("campaign.execute", [executor], ["execute"], 0),
        ("campaign.build_simulator", [spec], ["build_simulator"], 0),
        ("campaign.cache.get", [cache.ResultCache], ["get"], 1),
        ("campaign.cache.put", [cache.ResultCache], ["put"], 1),
        ("campaign.ledger", [durable.RunLedger],
         ["claim", "done", "finish"], None),
        ("ssd.simulator.run_trace", [simulator.SSDSimulator], ["run_trace"],
         None),
        ("ssd.events.run", [events.Simulator], ["run"], None),
        ("ssd.read_pipeline.start_reads", [read_pipeline.ReadPipeline],
         ["start_reads"], None),
        ("ssd.read_pipeline.start_write", [read_pipeline.ReadPipeline],
         ["start_write"], None),
        ("ssd.ftl.resolve_fast", [ftl.PageMapFtl], ["resolve_fast"], None),
        ("ssd.ftl.write", [ftl.PageMapFtl], ["write"], None),
        ("ssd.reliability.rber", [reliability.PageReliabilitySampler],
         ["rber", "rber_batch"], None),
        ("ssd.reliability.cold_age", [reliability.PageReliabilitySampler],
         ["cold_age_days", "cold_age_days_batch"], None),
        ("ssd.ecc_model.decode", models,
         ["first_decode", "first_decode_outcome", "first_decode_batch",
          "retried_decode", "retried_decode_outcome"], None),
        ("ssd.ecc_model.rp", models,
         ["rp_predicts_retry", "rp_catches_failed_page"], None),
        ("ssd.retry_policies.plan_into", policies, ["plan_into"], None),
        ("ssd.adaptive.begin_read", _subclasses(adaptive.AdaptivePolicy),
         ["begin_read"], None),
        ("obs.scrape_result", [registry], ["scrape_result"], None),
        ("obs.evaluate_fleet", [slo], ["evaluate_fleet"], None),
    ]


class SpanRecorder:
    """Records spans of the wrapped calls between install and uninstall."""

    def __init__(self):
        self.layers: List[str] = []
        self.layer = array("H")
        self.parent = array("q")
        self.cell = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._cells = [-1]
        self._cell_ids: Dict[object, int] = {}
        #: (owner, attribute, original) of every replaced attribute
        self.patched: List[Tuple[object, str, object]] = []
        self.installed = False
        # simulator-level counters read when each run_trace returns
        self.processed_events = 0
        self.memo = {"reliability": [0, 0], "ecc_model": [0, 0]}

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("span recorder already installed")
        for lid, (layer, owners, names, spec_arg) in enumerate(wrap_points()):
            self.layers.append(layer)
            after = (self._after_run_trace
                     if layer == "ssd.simulator.run_trace" else None)
            for owner in owners:
                for name in names:
                    original = vars(owner).get(name)
                    if original is None:
                        continue
                    setattr(owner, name,
                            self._wrap(original, lid, spec_arg, after))
                    self.patched.append((owner, name, original))
        self.installed = True

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.installed = False

    def leftovers(self) -> List[str]:
        """Attributes that still do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner, name, original in self.patched
                if vars(owner).get(name) is not original]

    def _cell_of(self, spec) -> int:
        return self._cell_ids.setdefault(spec, len(self._cell_ids))

    def _wrap(self, fn: Callable, lid: int, spec_arg: Optional[int],
              after: Optional[Callable]) -> Callable:
        layer_add, parent_add = self.layer.append, self.parent.append
        cell_add, start_add = self.cell.append, self.start.append
        end_add = self.end.append
        starts, ends = self.start, self.end
        stack, cells = self._stack, self._cells
        clock = time.perf_counter

        if spec_arg is None and after is None:
            def wrapper(*args, **kwargs):
                idx = len(starts)
                layer_add(lid)
                parent_add(stack[-1])
                cell_add(cells[-1])
                end_add(0.0)
                stack.append(idx)
                start_add(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return functools.wraps(fn)(wrapper)

        cell_of = self._cell_of

        def tagged(*args, **kwargs):
            cells.append(cell_of(args[spec_arg]) if spec_arg is not None
                         and len(args) > spec_arg else cells[-1])
            idx = len(starts)
            layer_add(lid)
            parent_add(stack[-1])
            cell_add(cells[-1])
            end_add(0.0)
            stack.append(idx)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                cells.pop()
            if after is not None:
                after(args)
            return result
        return functools.wraps(fn)(tagged)

    def _after_run_trace(self, args) -> None:
        ssd = args[0]
        self.processed_events += ssd.sim.processed_events
        for stat in ssd.cache_stats():
            side = "ecc_model" if stat["name"].startswith("ecc.") \
                else "reliability"
            self.memo[side][0] += stat["hits"]
            self.memo[side][1] += stat["hits"] + stat["misses"]

    # --- analysis -----------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "s", "self_s"}}`` over all recorded spans."""
        n = len(self.start)
        layer = np.frombuffer(self.layer, dtype=np.uint16, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - child
        outer = np.ones(n, dtype=bool)
        outer[nested] = layer[parent[nested]] != layer[nested]
        out = {}
        for lid, name in enumerate(self.layers):
            mine = layer == lid
            top = mine & outer
            out[name] = {"calls": int(top.sum()),
                         "s": float(dur[top].sum()),
                         "self_s": float(self_t[mine].sum())}
        return out
