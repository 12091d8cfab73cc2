"""The repository benchmark: host throughput and simulated tail per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--size full|tiny]
    python3 perfbench/run.py --record-digests

Run from the repository root.  Each repetition is a fresh interpreter
(``rep.py``); repetitions repeat for ``--seconds`` (at least
``MIN_REPS``), and host metrics are their medians.  With ``--trace 1``
the run alternates an untraced and a traced repetition and reports the
per-layer split of the traced one whose wall is the median.

Correctness, checked on every run:

* every cell completes, is no ``CellFailure``, and its replay from the
  cache equals its cold run;
* every repetition yields the same digests (and a traced repetition the
  same as an untraced one);
* at the default seed the digests equal the golden ones in
  ``digests.json``; at any other seed a tiny default-seed repetition is
  checked against them as well.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (cells) and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` untraced, its per-layer metrics traced.
``--record-digests`` re-records ``digests.json`` at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402

DIGESTS = HERE / "digests.json"
#: Declares every metric the run prints, with its unit.
BENCHMARK = ROOT / "BENCHMARK.json"
#: Untraced repetitions per run at the least (medians need a few).
MIN_REPS = 3
#: Hard ceiling on one run's wall time, in seconds.
RUN_CEILING_S = 170.0
#: Iterations of the host-speed calibration loop.
CALIB_N = 1_000_000


class RepFailed(RuntimeError):
    pass


def host_calibration() -> float:
    """Median wall of a fixed pure-Python loop: host speed, to read
    numbers from different hosts or times against."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIB_N):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def spawn_rep(workload: str, seed: int, size: str, traced: bool,
              timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and parse its JSON."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # own process group: a timeout kills the repetition and all it started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} repetition exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n"
                        + "\n".join(err.splitlines()[-20:]))
    return json.loads(out.strip().splitlines()[-1])


def with_units(section: str, values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` declares in ``section``, in its
    order and with its units."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def load_golden() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def outputs(rep: dict) -> dict:
    check = rep["check"]
    return {"cells": check["cells"], "rollup": check["rollup"],
            "slo": check["slo"]}


class Verdict:
    """Counts checked cells and failures across a run's repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, rep: dict, expected: dict, what: str) -> None:
        check = rep["check"]
        bad = {str(cell) for cell in check["failed_cells"]}
        for cell, sha in check["cells"].items():
            if expected["cells"].get(cell) != sha:
                bad.add(cell)
        bad |= set(expected["cells"]) - set(check["cells"])
        self.attempted += max(len(check["cells"]), len(expected["cells"]))
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{what}: cells {sorted(bad, key=int)} "
                                 "failed a check")
        for key in ("rollup", "slo"):
            if check[key] != expected[key]:
                self.problems.append(f"{what}: {key} digest differs")
        if not check["rollup_replayed"]:
            self.problems.append(f"{what}: replayed rollup differs")
        if rep.get("wrappers_left"):
            self.problems.append(f"{what}: wrappers left installed: "
                                 f"{rep['wrappers_left']}")
        layers = rep.get("layers")
        if layers is not None and layers["unattributed.s"] < 0:
            self.problems.append(f"{what}: layer self times exceed the wall")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def median_rep(reps):
    return sorted(reps, key=lambda r: r["wall_s"])[(len(reps) - 1) // 2]


def e2e_metrics(reps) -> dict:
    sim = reps[0]["sim"]
    values = {
        "page_ops_per_s": statistics.median(
            r["page_ops"] / r["wall_s"] for r in reps),
        "cells_per_s": statistics.median(r["cells"] / r["wall_s"]
                                         for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "sim_io_bandwidth_mb_s": sim["sim_io_bandwidth_mb_s"],
        "sim_read_p50_us": sim["sim_read_p50_us"],
        "sim_read_tail_us": sim["sim_read_tail_us"],
    }
    return with_units("end_to_end", values)


def layer_metrics(untraced, traced, calib_s: float) -> dict:
    """Per-layer metrics of the median traced repetition."""
    rep = median_rep(traced)
    values = dict(rep["layers"])
    values.update({k: v for k, v in rep["sim"].items() if "." in k})
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    values["host.calib_s"] = calib_s
    return with_units("per_layer", values)


def measure(workload: str, seed: int, size: str, seconds: float,
            traced: bool, verdict: Verdict, golden) -> tuple:
    """Repeat the workload for ``seconds``; returns (untraced, traced)."""
    started = time.monotonic()
    deadline = started + seconds
    untraced, traced_reps, took = [], [], []
    expected = golden

    def enough() -> bool:
        if traced:
            if traced_reps:
                estimate = statistics.median(took)
                return time.monotonic() + estimate > deadline
            return False
        if len(untraced) < MIN_REPS:
            return False
        return time.monotonic() + statistics.median(took) > deadline

    while not enough():
        t0 = time.monotonic()
        left = RUN_CEILING_S - (t0 - started)
        if traced:
            pair = [spawn_rep(workload, seed, size, False, left)]
            pair.append(spawn_rep(workload, seed, size, True,
                                  RUN_CEILING_S - (time.monotonic()
                                                   - started)))
            untraced.append(pair[0])
            traced_reps.append(pair[1])
            new = pair
        else:
            new = [spawn_rep(workload, seed, size, False, left)]
            untraced.extend(new)
        took.append(time.monotonic() - t0)
        for rep in new:
            if expected is None:
                expected = outputs(rep)
            label = "traced repetition" if rep["traced"] else "repetition"
            verdict.check(rep, expected, label)
    return untraced, traced_reps


def run(args) -> int:
    golden = load_golden()
    pinned = golden["workloads"][args.workload]
    calib_s = host_calibration()
    verdict = Verdict()
    at_default = args.seed == cells.DEFAULT_SEED
    untraced, traced = measure(
        args.workload, args.seed, args.size, args.seconds, bool(args.trace),
        verdict, pinned[args.size] if at_default else None)
    if not (at_default and args.size == "tiny"):
        # the pinned outputs, whatever seed the measured runs used
        rep = spawn_rep(args.workload, cells.DEFAULT_SEED, "tiny", False,
                        RUN_CEILING_S)
        verdict.check(rep, pinned["tiny"], "pinned tiny repetition")
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(untraced, traced, calib_s)
    else:
        metrics = e2e_metrics(untraced)
    reps = len(traced) if args.trace else len(untraced)
    sim = untraced[0]["sim"]
    print(f"{args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {reps} repetitions, "
          f"host.calib_s={calib_s:.4f}")
    beyond = sim["sim.read_samples"] * (100 - sim["sim.read_tail_percentile"])
    print(f"  sim_read_tail_us is p{sim['sim.read_tail_percentile']:g} of "
          f"{sim['sim.read_samples']} RiFSSD reads ({beyond / 100:.0f} "
          "beyond it)")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": verdict.correct,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed,
                      "metrics": metrics}))
    return 0


def record_digests() -> int:
    """Re-record ``digests.json`` at the default seed, both sizes."""
    out = {"seed": cells.DEFAULT_SEED, "workloads": {}}
    for name in cells.WORKLOADS:
        sizes = {}
        for size in cells.SIZES:
            rep = spawn_rep(name, cells.DEFAULT_SEED, size, False,
                            RUN_CEILING_S)
            check = rep["check"]
            if check["failed_cells"] or not check["rollup_replayed"]:
                print(f"error: {name}/{size} failed its own checks",
                      file=sys.stderr)
                return 1
            sizes[size] = outputs(rep)
            print(f"{name}/{size}: {len(check['cells'])} cells")
        out["workloads"][name] = sizes
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=cells.SIZES, default="full")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        return record_digests() if args.record_digests else run(args)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
