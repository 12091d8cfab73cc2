"""Self-tests of the repository benchmark (tiny populations, ~1 min).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cells  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT):
    script = cwd / BENCH.name / "run.py"
    return subprocess.run([sys.executable, str(script), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def layer_calls(result: dict) -> dict:
    return {name: value for name, value in result["layers"].items()
            if name.endswith(".calls")}


def test_declared_names_and_units_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)


@pytest.mark.parametrize("workload", list(cells.WORKLOADS))
def test_tiny_run_prints_every_e2e_metric_with_its_unit(workload):
    out = result_of(run_bench("--workload", workload, "--size", "tiny",
                              "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} \
        == units("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_tiny_run_prints_every_layer_metric_and_adds_up():
    out = result_of(run_bench("--workload", "write_gc_mixed", "--size",
                              "tiny", "--seconds", "1", "--trace", "1",
                              "--seed", "11"))
    assert out["correct"]
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert {name: m["unit"] for name, m in out["metrics"].items()} \
        == units("per_layer")
    parts = sum(value for name, value in metrics.items()
                if name.endswith(".self_s")) + metrics["unattributed.s"]
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["unattributed.s"] >= 0
    assert metrics["trace.overhead_ratio"] > 0


def test_traced_repetition_is_passive_and_removes_its_wrappers(tmp_path):
    originals = {(owner, name): vars(owner)[name]
                 for _layer, owners, names, _arg in spans.wrap_points()
                 for owner in owners for name in names
                 if name in vars(owner)}
    traced = rep.repetition("read_tail_2k", 7, "tiny", True,
                            time.monotonic(), tmp_path)
    assert traced["wrappers_left"] == []
    assert all(vars(owner)[name] is fn
               for (owner, name), fn in originals.items())
    plain = rep.repetition("read_tail_2k", 7, "tiny", False,
                           time.monotonic(), tmp_path)
    assert traced["check"] == plain["check"]
    assert traced["check"]["failed_cells"] == []
    golden = run.load_golden()["workloads"]["read_tail_2k"]["tiny"]
    assert traced["check"]["cells"] == golden["cells"]


def test_seed_changes_the_traces_not_the_code_paths(tmp_path):
    runs = [rep.repetition("fleet_campaign", seed, "tiny", True,
                           time.monotonic(), tmp_path) for seed in (7, 8)]
    first, second = (r["check"]["cells"] for r in runs)
    assert all(first[cell] != second[cell] for cell in first)
    calls = [layer_calls(r) for r in runs]
    assert set(calls[0]) == {f"{layer}.calls"
                             for layer, *_rest in spans.wrap_points()}
    assert all(value > 0 for value in calls[0].values())
    assert all(value > 0 for value in calls[1].values())


def test_golden_digests_cover_every_workload_and_size():
    golden = run.load_golden()
    assert golden["seed"] == cells.DEFAULT_SEED
    assert set(golden["workloads"]) == set(cells.WORKLOADS)
    for sizes in golden["workloads"].values():
        assert set(sizes) == set(cells.SIZES)


def test_refuses_to_run_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "read_tail_2k", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
