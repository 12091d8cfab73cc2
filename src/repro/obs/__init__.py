"""Observability: structured tracing, streaming metrics, telemetry.

The simulator's diagnostic substrate (ISSUE 3).  Everything in this
package is **zero-RNG and passive** — enabling any of it never changes a
simulation result, which the determinism tests pin down bit-for-bit.

* :mod:`.trace` — :class:`TraceConfig` / :class:`SimTracer`: per-request
  lifecycle spans (queued -> sense -> RP/RVS decision -> transfer ->
  decode -> retry hops), full resource-occupancy streams, and instant
  events, with deterministic request-index sampling and an event budget.
* :mod:`.export` — Chrome ``trace_event`` JSON (one track per
  channel/die, loadable in ``chrome://tracing``/Perfetto), compact JSONL,
  a schema validator for CI, and the ``report-trace`` summary helpers.
* :mod:`.histogram` — :class:`LatencyHistogram`, the O(1)-memory
  log-bucketed replacement for unbounded per-request latency lists.
* :mod:`.snapshots` — :class:`SnapshotRecorder`: fixed-window channel
  usage + counter time-series (bandwidth / ECCWAIT over time).
* :mod:`.telemetry` — JSONL sinks and live status lines the campaign
  progress reporters stream through.
* :mod:`.registry` — the labeled metric plane: :class:`MetricRegistry`
  (Counter/Gauge/Histogram families with exact, commutative merge),
  passive RNG-free scrapes of simulators and results, and
  :class:`FleetAggregator` for cross-cell/cross-worker rollups.
* :mod:`.slo` — declarative :class:`SloSpec` objectives (tail latency,
  error budgets, windowed burn-rate rules) with pass/fail verdicts.
* :mod:`.dashboard` — Prometheus text exposition (+ validator), registry
  JSONL, the rewriting terminal fleet panel, and static HTML reports.

``python -m repro obs`` (see :mod:`repro.cli`) exposes ``scrape``,
``slo-report``, and ``dashboard`` subcommands over these pieces.

Import discipline: nothing here imports :mod:`repro.ssd` or
:mod:`repro.campaign` at module scope (those layers import *us*), so the
package stays cycle-free; the scrape/evaluate entry points duck-type
against simulator/result/fleet attribute contracts instead.
"""

from .histogram import LatencyHistogram
from .trace import InstantEvent, SimTracer, SpanEvent, TraceConfig
from .export import (
    chrome_trace,
    load_trace_spans,
    longest_spans,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from .snapshots import SnapshotRecorder, UsageSnapshot
from .telemetry import JsonlSink, LiveLineWriter, format_duration, live_line
from .registry import (
    FleetAggregator,
    MetricFamily,
    MetricRegistry,
    reconcile_with_metrics,
    scrape_result,
    scrape_simulator,
)
from .slo import (
    BurnRateRule,
    LatencyObjective,
    SloReport,
    SloSpec,
    SloVerdict,
    default_slos,
    evaluate_fleet,
    evaluate_slo,
    load_slos,
    windows_from_snapshots,
)
from .dashboard import (
    MultiLineWriter,
    html_report,
    prometheus_text,
    registry_jsonl,
    render_dashboard,
    validate_prometheus_text,
)

__all__ = [
    "LatencyHistogram",
    "TraceConfig",
    "SimTracer",
    "SpanEvent",
    "InstantEvent",
    "chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "validate_chrome_trace",
    "load_trace_spans",
    "summarize_spans",
    "longest_spans",
    "SnapshotRecorder",
    "UsageSnapshot",
    "JsonlSink",
    "LiveLineWriter",
    "live_line",
    "format_duration",
    "MetricRegistry",
    "MetricFamily",
    "FleetAggregator",
    "scrape_simulator",
    "scrape_result",
    "reconcile_with_metrics",
    "SloSpec",
    "SloReport",
    "SloVerdict",
    "LatencyObjective",
    "BurnRateRule",
    "evaluate_slo",
    "evaluate_fleet",
    "default_slos",
    "load_slos",
    "windows_from_snapshots",
    "prometheus_text",
    "validate_prometheus_text",
    "registry_jsonl",
    "render_dashboard",
    "MultiLineWriter",
    "html_report",
]
