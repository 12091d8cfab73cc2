"""The command line: ``python -m repro <group> <command> [options]``.

Groups and commands:

``experiments [ID...]``
    regenerate the paper's tables and figures (``--list`` shows the
    registry, ``all`` runs everything); ``experiments report-trace
    FILE...`` summarises exported simulator traces instead.
``campaign verify-ledger DIR`` / ``campaign smoke-grid --ledger DIR``
    fsck a durable campaign directory; run the fixed crash-recovery grid.
``fleet generate|run|report|diff``
    expand a fleet spec into drives, simulate it as one resumable
    campaign, summarise or compare saved rollups.
``obs scrape|slo-report|dashboard``
    fold a grid into fleet metrics and export them, judge SLOs, rebuild
    the fleet panel from a telemetry log.
``perf record|check|profile``
    the pinned bench-regression suite and the one-cell profiler.

The options campaign commands share are declared once, in three groups,
and each maps onto a :func:`~repro.campaign.run_specs` keyword (see
:func:`execution_kwargs`): execution (``--jobs``, ``--max-in-flight``,
``--cache``, ``--ledger``, ``--lease-s``), progress (``--progress``,
``--live``, ``--telemetry``, ``--dashboard`` build ``progress``) and
chaos (``--kill-after``, ``--kill-window``, ``--torn-cell``,
``--torn-fraction`` build ``campaign_faults``).

Exit codes: 0 on success; 1 when a command's verdict is negative (a
damaged ledger, divergent rollups, a failed ``--strict`` SLO or bench
gate); 2 on a usage error or any :class:`~repro.errors.ReproError`; 130
when a campaign is interrupted, with the resume hint on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path
from typing import List, Optional

from .campaign import (
    CampaignStats,
    DashboardProgress,
    JsonlProgress,
    LiveProgress,
    MultiProgress,
    PrintProgress,
    ResultCache,
    RunSpec,
    build_simulator,
    build_trace,
    grid_specs,
    result_to_dict,
    run_specs,
)
from .campaign.durable import format_verify_report, grid_hash, verify_ledger
from .errors import ConfigError, ReproError
from .faults import FaultPlan, FaultSpec
from .fleet.population import FleetSpec, generate_population
from .fleet.service import comparable_rollup, run_fleet
from .obs.dashboard import (
    html_report,
    prometheus_text,
    registry_jsonl,
    render_dashboard,
    validate_prometheus_text,
)
from .obs.registry import FleetAggregator
from .obs.slo import (
    default_slos,
    evaluate_fleet,
    evaluate_slo,
    load_slos,
    windows_from_snapshots,
)
from .perf.bench_gate import (
    DEFAULT_TOLERANCE,
    evaluate_gate,
    format_verdicts,
    load_results,
    run_suite,
    write_results,
)
from .perf.profile import profile_spec

# --- shared option groups ----------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_execution_options(parser: argparse.ArgumentParser,
                          ledger_required: bool = False) -> None:
    group = parser.add_argument_group("execution")
    group.add_argument("--jobs", "-j", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes (results are identical to "
                            "--jobs 1)")
    group.add_argument("--max-in-flight", type=_positive_int, default=None,
                       metavar="N",
                       help="cap how many cells one scheduler wave hands "
                            "the executor (backpressure for huge grids; "
                            "results are identical)")
    group.add_argument("--cache", metavar="DIR", default=None,
                       help="content-addressed result cache: skip cells an "
                            "earlier run already computed")
    group.add_argument("--ledger", metavar="DIR", default=None,
                       required=ledger_required,
                       help="durable campaign runtime: journal every cell to "
                            "a write-ahead ledger under DIR so a killed or "
                            "interrupted run resumes exactly where it "
                            "stopped")
    group.add_argument("--lease-s", type=float, default=900.0, metavar="S",
                       help="seconds before another run may reclaim a cell "
                            "this run claimed (default 900)")


def add_progress_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("progress")
    group.add_argument("--progress", action="store_true",
                       help="report per-cell campaign completion on stderr")
    group.add_argument("--live", action="store_true",
                       help="single rewriting campaign status line with ETA "
                            "on stderr")
    group.add_argument("--telemetry", metavar="FILE", default=None,
                       help="stream one JSON record per campaign cell "
                            "(label, wall time, cache hit, counters) to "
                            "FILE; tail it while the grid runs")
    group.add_argument("--dashboard", action="store_true",
                       help="repaint a live multi-line fleet panel "
                            "(per-policy tail latency, retry rates, SLO "
                            "verdicts) on stderr while the grid runs")


def add_chaos_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("chaos")
    group.add_argument("--kill-after", type=int, default=None, metavar="N",
                       help="SIGKILL this campaign after its Nth executed "
                            "cell (0-based)")
    group.add_argument("--kill-window", choices=("pre", "post"),
                       default="pre",
                       help="kill before (pre) or after (post) the ledger's "
                            "done record for that cell")
    group.add_argument("--torn-cell", type=int, default=None, metavar="N",
                       help="tear the cache write of the Nth executed cell")
    group.add_argument("--torn-fraction", type=float, default=0.5,
                       help="fraction of bytes the torn write keeps")


def _progress_hook(args):
    """The progress reporters the progress flags ask for (or None)."""
    flags = vars(args)
    hooks = []
    if flags.get("progress"):
        hooks.append(PrintProgress())
    if flags.get("live"):
        hooks.append(LiveProgress())
    if flags.get("telemetry"):
        hooks.append(JsonlProgress(args.telemetry))
    if flags.get("dashboard"):
        hooks.append(DashboardProgress())
    if len(hooks) > 1:
        return MultiProgress(hooks)
    return hooks[0] if hooks else None


def _campaign_faults(args) -> Optional[FaultPlan]:
    """The chaos flags as a campaign fault plan (or None)."""
    flags = vars(args)
    faults = []
    if flags.get("kill_after") is not None:
        faults.append(FaultSpec(
            kind="campaign_kill", start_read=args.kill_after, count=1,
            magnitude=0.0 if args.kill_window == "pre" else 1.0,
        ))
    if flags.get("torn_cell") is not None:
        faults.append(FaultSpec(
            kind="torn_cache_write", start_read=args.torn_cell, count=1,
            magnitude=args.torn_fraction,
        ))
    return FaultPlan(faults=tuple(faults)) if faults else None


def execution_kwargs(args) -> dict:
    """The :func:`~repro.campaign.run_specs` keywords the shared option
    groups set (a group a command lacks leaves its keyword at default)."""
    return {
        "jobs": args.jobs,
        "max_in_flight": args.max_in_flight,
        "cache": args.cache,
        "ledger_dir": args.ledger,
        "lease_s": args.lease_s,
        "progress": _progress_hook(args),
        "campaign_faults": _campaign_faults(args),
    }


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _write_json(path, payload, indent: Optional[int] = 2) -> None:
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# --- experiments -------------------------------------------------------------


def _cmd_experiments(args) -> int:
    from .experiments import EXPERIMENTS, get_experiment

    if args.experiments[:1] == ["report-trace"]:
        paths = args.experiments[1:]
        if not paths:
            raise ConfigError("report-trace needs at least one trace file "
                              "(Chrome JSON or JSONL export)")
        from .experiments.report_trace import format_trace_report

        print("\n\n".join(format_trace_report(path, top=args.top)
                           for path in paths))
        return 0

    if args.wipe_cache:
        if not args.cache:
            raise ConfigError("--wipe-cache requires --cache DIR")
        removed = ResultCache(args.cache).wipe()
        print(f"-- wiped {removed} cached results from {args.cache}")
        return 0

    if args.list or not args.experiments:
        for exp_id in sorted(EXPERIMENTS):
            print(f"{exp_id:10s} {EXPERIMENTS[exp_id].title}")
        return 0

    ids = sorted(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    experiments = [get_experiment(exp_id) for exp_id in ids]
    collected = []
    for experiment in experiments:
        exp_id = experiment.experiment_id
        kwargs = {"scale": args.scale, "seed": args.seed}
        if experiment.campaign:
            kwargs.update(execution_kwargs(args))
            if args.ledger:
                # a ledger binds to one grid: one subdirectory per experiment
                kwargs["ledger_dir"] = f"{args.ledger}/{exp_id}"
        if experiment.traces and args.trace_out:
            kwargs["trace_out"] = args.trace_out
        start = time.time()
        result = experiment.run(**kwargs)
        collected.append(result)
        print(result.format_table())
        print(f"-- {exp_id} finished in {time.time() - start:.1f}s\n")
        if args.csv:
            from .experiments.export import result_to_csv

            path = result_to_csv(result, f"{args.csv}/{exp_id}.csv")
            print(f"-- wrote {path}\n")
    if args.report and collected:
        from .experiments.report import render_markdown

        Path(args.report).write_text(render_markdown(collected))
        print(f"-- report written to {args.report}")
    return 0


def _add_experiments(groups) -> None:
    parser = groups.add_parser(
        "experiments", help="regenerate the paper's tables and figures",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig17 table2); "
                             "'all' runs everything; "
                             "'report-trace FILE...' summarises exported "
                             "simulator traces instead")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--scale", default="small", choices=("small", "full"),
                        help="experiment scale (default: small)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--wipe-cache", action="store_true",
                        help="empty the --cache directory and exit")
    parser.add_argument("--trace-out", metavar="DIR", default=None,
                        help="export Chrome trace_event JSON from "
                             "trace-capable experiments (e.g. fig7) to DIR; "
                             "inspect via chrome://tracing or report-trace")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="report-trace: longest spans to list "
                             "(default: 10)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also export each result as DIR/<id>.csv")
    parser.add_argument("--report", metavar="FILE", default=None,
                        help="write a consolidated markdown report to FILE")
    add_execution_options(parser)
    add_progress_options(parser)
    parser.set_defaults(fn=_cmd_experiments)


# --- campaign ----------------------------------------------------------------

#: The smoke grid: small enough for sub-second cells, large enough that a
#: mid-grid kill leaves a meaningful mix of done/claimed/pending cells.
SMOKE_WORKLOADS = ("Ali124",)
SMOKE_POLICIES = ("SENC", "SWR", "RiFSSD")
SMOKE_PE = (0.0, 1000.0)


def smoke_specs(seed: int) -> list:
    return [
        RunSpec(workload=workload, policy=policy, pe_cycles=pe, seed=seed,
                n_requests=60, user_pages=2_000, queue_depth=16)
        for workload in SMOKE_WORKLOADS
        for pe in SMOKE_PE
        for policy in SMOKE_POLICIES
    ]


def _cmd_verify_ledger(args) -> int:
    report = verify_ledger(args.directory, cache_dir=args.cache)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_verify_report(report))
    return 0 if report["ok"] else 1


def _cmd_smoke_grid(args) -> int:
    specs = smoke_specs(args.seed)
    stats = CampaignStats()
    execution = execution_kwargs(args)
    hook = execution.pop("progress")
    progress = stats if hook is None else MultiProgress([stats, hook])
    with warnings.catch_warnings():
        # a quarantined-entry warning is an expected part of torn-write
        # recovery here, not console noise
        warnings.simplefilter("ignore", RuntimeWarning)
        results = run_specs(specs, on_failure="record", progress=progress,
                            **execution)
    _write_json(args.out, {
        "grid": grid_hash(specs),
        "executed": stats.executed,
        "cached": stats.cached,
        "cells": {
            spec.content_hash(): (
                result_to_dict(outcome) if hasattr(outcome, "metrics")
                else {"failure": outcome.to_dict()}
            )
            for spec, outcome in results.items()
        },
    })
    print(f"smoke-grid: {stats.executed} executed, {stats.cached} replayed",
          file=sys.stderr)
    return 0


def _add_campaign(groups) -> None:
    parser = groups.add_parser(
        "campaign", help="ledger maintenance and the crash-recovery driver",
        description="Campaign ledger maintenance and crash-recovery driver.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify-ledger",
        help="fsck a campaign directory (journal + cache integrity); exit "
             "1 on unrecoverable damage",
    )
    verify.add_argument("directory", help="campaign ledger directory")
    verify.add_argument("--cache", default=None,
                        help="cache directory (default: DIR/cache)")
    verify.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    verify.set_defaults(fn=_cmd_verify_ledger)

    smoke = sub.add_parser(
        "smoke-grid",
        help="run the fixed crash-recovery smoke grid under a ledger; "
             "re-invoke the identical command to resume",
    )
    smoke.add_argument("--seed", type=int, default=7)
    smoke.add_argument("--out", default=None,
                       help="write final results JSON here (default stdout)")
    add_execution_options(smoke, ledger_required=True)
    add_progress_options(smoke)
    add_chaos_options(smoke)
    smoke.set_defaults(fn=_cmd_smoke_grid)


# --- fleet -------------------------------------------------------------------


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="fleet spec JSON (a `generate` file or a bare "
                             "FleetSpec dict); other spec flags are ignored")
    parser.add_argument("--drives", type=int, default=8,
                        help="population size (default 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", default="small", choices=("small", "full"))
    parser.add_argument("--policies", default="SENC,RiFSSD",
                        help="comma-separated policies, assigned round-robin")
    parser.add_argument("--workloads", default=None,
                        help="weighted mix as name:weight[,name:weight...] "
                             "(default: built-in read-heavy mix)")
    parser.add_argument("--pe-range", default="0,3000", metavar="LO,HI",
                        help="uniform per-drive P/E cycle range")
    parser.add_argument("--retention-range", default="5,90", metavar="LO,HI",
                        help="uniform per-drive retention age range (days)")
    parser.add_argument("--temp-range", default=None, metavar="LO,HI",
                        help="uniform operating-temperature range (deg C)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="fraction of drives given a fault plan")
    parser.add_argument("--n-requests", type=int, default=None,
                        help="per-drive request count override")
    parser.add_argument("--user-pages", type=int, default=None,
                        help="per-drive user-page count override")
    parser.add_argument("--queue-depth", type=int, default=None)


def _parse_range(text: str, name: str):
    parts = _csv(text)
    if len(parts) != 2:
        raise ReproError(f"{name} expects LO,HI, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_mix(text: str):
    mix = []
    for item in _csv(text):
        name, _, weight = item.partition(":")
        mix.append((name.strip(), float(weight) if weight else 1.0))
    return mix


def _fleet_from_args(args) -> FleetSpec:
    if args.spec:
        data = json.loads(Path(args.spec).read_text())
        if "fleet" in data:  # a `generate` payload
            data = data["fleet"]
        return FleetSpec.from_dict(data)
    kwargs = {
        "n_drives": args.drives,
        "seed": args.seed,
        "scale": args.scale,
        "policies": tuple(_csv(args.policies)),
        "pe_cycles_range": _parse_range(args.pe_range, "--pe-range"),
        "retention_days_range": _parse_range(args.retention_range,
                                             "--retention-range"),
        "fault_rate": args.fault_rate,
        "n_requests": args.n_requests,
        "user_pages": args.user_pages,
        "queue_depth": args.queue_depth,
    }
    if args.workloads:
        kwargs["workload_mix"] = _parse_mix(args.workloads)
    if args.temp_range:
        kwargs["temp_c_range"] = _parse_range(args.temp_range, "--temp-range")
    return FleetSpec(**kwargs)


def _load_rollup(path: str) -> dict:
    """A fleet rollup from either a `run` payload or a bare rollup file."""
    data = json.loads(Path(path).read_text())
    return data["rollup"] if "rollup" in data else data


def _cmd_fleet_generate(args) -> int:
    fleet = _fleet_from_args(args)
    drives = generate_population(fleet)
    _write_json(args.out, {
        "fleet": fleet.to_dict(),
        "fleet_hash": fleet.content_hash(),
        "drives": [drive.to_dict() for drive in drives],
    })
    afflicted = sum(1 for d in drives if d.fault_plan is not None)
    print(f"[fleet] {fleet.label()}: {len(drives)} drives, "
          f"{afflicted} with fault plans, hash {fleet.content_hash()[:12]}",
          file=sys.stderr)
    return 0


def _cmd_fleet_run(args) -> int:
    fleet = _fleet_from_args(args)
    result = run_fleet(fleet, **execution_kwargs(args))
    if args.out:
        _write_json(args.out, result.to_payload())
    if args.rollup:
        _write_json(args.rollup, result.rollup())
    if not (args.out or args.rollup):
        _write_json(None, result.to_payload())
    print(f"[fleet] {fleet.label()}: {result.executed} simulated, "
          f"{result.replayed} replayed, {len(result.failures())} failed",
          file=sys.stderr)
    return 0


def _cmd_fleet_report(args) -> int:
    aggregator = FleetAggregator.from_dict(_load_rollup(args.rollup))
    print(f"fleet rollup: {aggregator.cells} cells "
          f"({aggregator.cached} cached, {aggregator.failed} failed)")
    header = (f"{'policy':<10} {'cells':>6} {'reads':>9} {'retry%':>7} "
              f"{'degraded':>9} {'p50 us':>9} {'p99 us':>9} {'p99.9 us':>9}")
    print(header)
    print("-" * len(header))
    for row in aggregator.policy_summary():
        print(f"{row['policy']:<10} {row['cells']:>6} {row['reads']:>9} "
              f"{100.0 * row['retry_rate']:>6.2f}% "
              f"{row['degraded_cells']:>9} {row['p50_us']:>9.1f} "
              f"{row['p99_us']:>9.1f} {row['p999_us']:>9.1f}")
    return 0


def _cmd_fleet_diff(args) -> int:
    left = comparable_rollup(_load_rollup(args.left))
    right = comparable_rollup(_load_rollup(args.right))
    if left == right:
        print(f"[fleet] identical: {args.left} == {args.right} "
              "(provenance counters masked)", file=sys.stderr)
        return 0
    keys = sorted(set(left) | set(right))
    diverged = [k for k in keys if left.get(k) != right.get(k)]
    print(f"[fleet] DIVERGENT in {diverged}: {args.left} vs {args.right}",
          file=sys.stderr)
    return 1


def _add_fleet(groups) -> None:
    parser = groups.add_parser(
        "fleet", help="fleet-scale simulation: generate, run, report, diff",
        description="Fleet-scale simulation: generate, run, report, diff.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="expand a fleet spec into its drive population "
                         "(a pure function of the spec)")
    _add_spec_options(gen)
    gen.add_argument("--out", default=None,
                     help="write the population JSON here (default stdout)")
    gen.set_defaults(fn=_cmd_fleet_generate)

    run = sub.add_parser(
        "run", help="simulate a fleet as one resumable campaign")
    _add_spec_options(run)
    run.add_argument("--out", default=None,
                     help="write the full run payload JSON here")
    run.add_argument("--rollup", default=None,
                     help="write the bare fleet rollup JSON here (feeds "
                          "`obs slo-report --fleet`)")
    add_execution_options(run)
    add_progress_options(run)
    add_chaos_options(run)
    run.set_defaults(fn=_cmd_fleet_run)

    rep = sub.add_parser(
        "report", help="per-policy summary of a saved fleet rollup")
    rep.add_argument("rollup", help="`run` payload or bare rollup JSON")
    rep.set_defaults(fn=_cmd_fleet_report)

    diff = sub.add_parser(
        "diff", help="compare two fleet rollups for bit-identity "
                     "(provenance counters masked); exit 1 if they differ")
    diff.add_argument("left")
    diff.add_argument("right")
    diff.set_defaults(fn=_cmd_fleet_diff)


# --- obs ---------------------------------------------------------------------


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workloads", default="Ali124",
                        help="comma-separated workload names")
    parser.add_argument("--policies", default="SENC,RPSSD,RiFSSD",
                        help="comma-separated policy names")
    parser.add_argument("--pe", default="1000,2000",
                        help="comma-separated P/E cycle points")
    parser.add_argument("--scale", default="small",
                        choices=("small", "full"))
    parser.add_argument("--seed", type=int, default=7)
    add_execution_options(parser)


def _grid_fleet(args) -> FleetAggregator:
    """Run (or replay) the grid the options describe; its fleet rollup."""
    specs = grid_specs(
        workloads=_csv(args.workloads),
        policies=_csv(args.policies),
        pe_points=[float(p) for p in _csv(args.pe)],
        scale=args.scale,
        seed=args.seed,
    )
    fleet = FleetAggregator()
    run_specs(specs, on_failure="record", fleet=fleet,
              **execution_kwargs(args))
    return fleet


def _load_fleet(path: str) -> FleetAggregator:
    return FleetAggregator.from_dict(json.loads(Path(path).read_text()))


def _slo_specs(args):
    if args.slo is None:
        return default_slos()
    return load_slos(json.loads(Path(args.slo).read_text()))


def _cmd_scrape(args) -> int:
    fleet = _grid_fleet(args)
    if args.json:
        _write_json(args.json, fleet.to_dict(), indent=None)
    if args.prom:
        text = prometheus_text(fleet.registry)
        validate_prometheus_text(text)  # never ship malformed exposition
        Path(args.prom).write_text(text)
    if args.jsonl:
        Path(args.jsonl).write_text(registry_jsonl(fleet.registry))
    if not (args.json or args.prom or args.jsonl or args.dashboard):
        sys.stdout.write(prometheus_text(fleet.registry))
    print(f"[obs] {fleet.cells} cells scraped "
          f"({fleet.cached} cached, {fleet.failed} failed), "
          f"policies: {', '.join(fleet.policies()) or 'none'}",
          file=sys.stderr)
    return 0


def _burn_reports(args, slos):
    """Run one cell with the snapshot recorder and judge its burn rules."""
    parts = args.burn.split(":")
    if len(parts) != 3:
        raise ReproError(
            f"--burn expects workload:policy:pe, got {args.burn!r}")
    spec = RunSpec(workload=parts[0], policy=parts[1],
                   pe_cycles=float(parts[2]), seed=args.seed,
                   scale=args.scale)
    sizing = spec.resolved_sizing()
    ssd = build_simulator(spec, snapshot_interval_us=args.burn_window_us)
    ssd.run_trace(build_trace(spec), mode="closed",
                  queue_depth=sizing.queue_depth)
    snapshots = ssd.snapshots.snapshots()
    reports = []
    for slo in slos:
        if not slo.burn_rules:
            continue
        windows = windows_from_snapshots(snapshots, slo.bad_event,
                                         slo.event_total)
        bad = sum(b for b, _t in windows)
        total = sum(t for _b, t in windows)
        reports.append(evaluate_slo(
            slo, ssd.metrics.read_latency_hist, bad, total,
            windows=windows, subject=f"{spec.label()} [burn]"))
    return reports


def _cmd_slo_report(args) -> int:
    slos = _slo_specs(args)
    fleet = _load_fleet(args.fleet) if args.fleet else _grid_fleet(args)
    reports = evaluate_fleet(fleet, slos)
    if args.burn:
        reports.extend(_burn_reports(args, slos))
    payload = {
        "cells": fleet.cells,
        "cached": fleet.cached,
        "failed": fleet.failed,
        "slos": [slo.to_dict() for slo in slos],
        "reports": [report.to_dict() for report in reports],
        "passed": all(report.passed for report in reports),
    }
    _write_json(args.out, payload)
    if args.html:
        Path(args.html).write_text(
            html_report(fleet, reports, title="SLO report"))
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        detail = "; ".join(
            f"{v.kind}:{v.rule} {'ok' if v.ok else 'VIOLATED'}"
            for v in report.verdicts)
        print(f"[slo] {status} {report.subject} vs {report.slo}: {detail}",
              file=sys.stderr)
    return 1 if args.strict and not payload["passed"] else 0


def _cmd_dashboard(args) -> int:
    if not (args.telemetry or args.fleet):
        raise ConfigError("dashboard needs --telemetry or --fleet")
    total = None
    if args.fleet:
        fleet = _load_fleet(args.fleet)
    else:
        fleet = FleetAggregator()
        with open(args.telemetry) as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("event") == "start":
                    total = record.get("total")
                elif record.get("event") == "cell":
                    fleet.observe_record(record)
    reports = evaluate_fleet(fleet, _slo_specs(args))
    for line in render_dashboard(fleet, done=fleet.cells,
                                 total=total if total is not None
                                 else fleet.cells,
                                 failed=fleet.failed, slo_reports=reports):
        print(line)
    return 0


def _add_obs(groups) -> None:
    parser = groups.add_parser(
        "obs", help="fleet metrics: scrape grids, judge SLOs, render panels",
        description="Fleet metrics: scrape grids, judge SLOs, render panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    scrape = sub.add_parser(
        "scrape", help="run/replay a grid and export fleet metrics")
    _add_grid_options(scrape)
    scrape.add_argument("--prom", default=None,
                        help="write Prometheus text exposition here")
    scrape.add_argument("--json", default=None,
                        help="write the mergeable fleet state (JSON) here")
    scrape.add_argument("--jsonl", default=None,
                        help="write one JSON line per metric sample here")
    add_progress_options(scrape)
    scrape.set_defaults(fn=_cmd_scrape)

    slo = sub.add_parser(
        "slo-report", help="judge fleet metrics against SLO specs")
    _add_grid_options(slo)
    slo.add_argument("--fleet", default=None,
                     help="fleet state JSON from `scrape --json` "
                          "(skips re-running the grid)")
    slo.add_argument("--slo", default=None,
                     help="SLO spec JSON file (default: built-in set)")
    slo.add_argument("--out", default=None, help="write the report JSON here")
    slo.add_argument("--html", default=None,
                     help="write a static HTML report here")
    slo.add_argument("--burn", default=None, metavar="W:P:PE",
                     help="also run this cell with time-sliced snapshots "
                          "and judge windowed burn-rate rules")
    slo.add_argument("--burn-window-us", type=float, default=20_000.0,
                     help="snapshot slice width for --burn (default 20ms)")
    slo.add_argument("--strict", action="store_true",
                     help="exit 1 when any verdict fails")
    slo.set_defaults(fn=_cmd_slo_report)

    dash = sub.add_parser(
        "dashboard", help="render the fleet panel from a telemetry log")
    dash.add_argument("--telemetry", default=None,
                      help="campaign JSONL log (from scrape --telemetry or "
                           "JsonlProgress)")
    dash.add_argument("--fleet", default=None,
                      help="fleet state JSON (alternative input)")
    dash.add_argument("--slo", default=None,
                      help="SLO spec JSON file (default: built-in set)")
    dash.set_defaults(fn=_cmd_dashboard)


# --- perf --------------------------------------------------------------------

BASELINE_NAME = "BENCH_baseline.json"
CURRENT_NAME = "BENCH_current.json"


def _run_bench_suite(args):
    return run_suite(reps=args.reps, e2e_reps=args.e2e_reps,
                     include_e2e=not args.no_e2e,
                     progress=lambda line: print(line, flush=True))


def _cmd_perf_record(args) -> int:
    results = _run_bench_suite(args)
    out = Path(args.output) if args.output else Path(
        BASELINE_NAME if args.baseline else CURRENT_NAME)
    write_results(results, out)
    print(f"wrote {out}")
    return 0


def _cmd_perf_check(args) -> int:
    baseline_path = Path(args.baseline_file)
    baseline = load_results(baseline_path) if baseline_path.exists() else None
    if baseline is None:
        print(f"note: no {baseline_path} — gating on absolute floors only")
    results = _run_bench_suite(args)
    write_results(results, Path(args.output or CURRENT_NAME))
    verdicts = evaluate_gate(results, baseline, tolerance=args.tolerance)
    print(format_verdicts(verdicts))
    failed = [v for v in verdicts if not v.passed]
    if failed:
        print(f"bench gate: {len(failed)} regression(s)")
        return 1
    print("bench gate: ok")
    return 0


def _cmd_perf_profile(args) -> int:
    spec = RunSpec(workload=args.workload, policy=args.policy,
                   pe_cycles=args.pe_cycles, n_requests=args.n_requests,
                   seed=args.seed, reliability_mode=args.reliability_mode)
    print(profile_spec(spec, top=args.top).format_table())
    return 0


def _add_perf(groups) -> None:
    parser = groups.add_parser(
        "perf", help="profiling and the bench-regression gate",
        description="Profiling and the bench-regression gate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def suite(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--reps", type=int, default=5,
                         help="best-of-k repetitions per micro benchmark")
        cmd.add_argument("--e2e-reps", type=int, default=3,
                         help="best-of-k repetitions per end-to-end cell")
        cmd.add_argument("--no-e2e", action="store_true",
                         help="skip the end-to-end cells (micro only)")
        return cmd

    record = suite("record", f"run the suite, write {CURRENT_NAME}")
    record.add_argument("--baseline", action="store_true",
                        help=f"write {BASELINE_NAME} instead of {CURRENT_NAME}")
    record.add_argument("--output", help="explicit output path")
    record.set_defaults(fn=_cmd_perf_record)

    check = suite("check", f"run the suite and gate it against "
                           f"{BASELINE_NAME}; exit 1 on regression")
    check.add_argument("--baseline-file", default=BASELINE_NAME)
    check.add_argument("--output", help=f"results path (default {CURRENT_NAME})")
    check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="allowed fractional drop vs baseline/floor")
    check.set_defaults(fn=_cmd_perf_check)

    profile = sub.add_parser("profile", help="cProfile one cell")
    profile.add_argument("--workload", default="Ali124")
    profile.add_argument("--policy", default="RiFSSD")
    profile.add_argument("--pe-cycles", type=float, default=2000.0)
    profile.add_argument("--n-requests", type=int, default=6000)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--reliability-mode", default="parametric",
                         choices=["parametric", "lut"])
    profile.add_argument("--top", type=int, default=15)
    profile.set_defaults(fn=_cmd_perf_profile)


# --- entry -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RiF reproduction: experiments, campaigns, fleets, "
                    "metrics and benchmarks.")
    groups = parser.add_subparsers(dest="group", required=True)
    for add in (_add_experiments, _add_campaign, _add_fleet, _add_obs,
                _add_perf):
        add(groups)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt as exc:  # includes CampaignInterrupted
        print("interrupted" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        hint = getattr(exc, "resume_hint", "")
        if hint:
            print(f"hint: {hint}", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
