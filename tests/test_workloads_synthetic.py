"""Synthetic workload generators vs the Table-II targets."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.workloads import WORKLOADS, characterize, generate, workload_names
from repro.workloads.synthetic import WorkloadSpec


def test_all_eight_paper_workloads_present():
    assert workload_names() == [
        "Ali2", "Ali46", "Ali81", "Ali121", "Ali124", "Ali295", "Sys0", "Sys1",
    ]


def test_table2_targets_recorded():
    assert WORKLOADS["Ali124"].read_ratio == 0.96
    assert WORKLOADS["Ali124"].cold_read_ratio == 0.79
    assert WORKLOADS["Ali2"].read_ratio == 0.27
    assert WORKLOADS["Sys1"].cold_read_ratio == 0.83


@pytest.mark.parametrize("name", ["Ali2", "Ali124", "Sys0"])
def test_generated_trace_hits_targets(name):
    spec = WORKLOADS[name]
    trace = generate(name, n_requests=4000, user_pages=20000, seed=3)
    stats = characterize(trace)
    assert stats.read_ratio == pytest.approx(spec.read_ratio, abs=0.03)
    assert stats.cold_read_ratio == pytest.approx(spec.cold_read_ratio, abs=0.04)


def test_generation_deterministic():
    a = generate("Ali81", n_requests=100, user_pages=5000, seed=9)
    b = generate("Ali81", n_requests=100, user_pages=5000, seed=9)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_different_seeds_differ():
    a = generate("Ali81", n_requests=100, user_pages=5000, seed=1)
    b = generate("Ali81", n_requests=100, user_pages=5000, seed=2)
    assert any(ra != rb for ra, rb in zip(a, b))


def test_requests_stay_inside_user_space():
    trace = generate("Sys1", n_requests=2000, user_pages=3000, seed=4)
    assert trace.max_lpn() < 3000


def test_timestamps_nondecreasing_poisson():
    trace = generate("Ali46", n_requests=500, user_pages=5000, seed=5)
    times = [r.timestamp_us for r in trace]
    assert times == sorted(times)
    # mean inter-arrival near the spec
    spec = WORKLOADS["Ali46"]
    mean_gap = times[-1] / len(times)
    assert mean_gap == pytest.approx(spec.mean_interarrival_us, rel=0.2)


def test_writes_never_touch_cold_region():
    trace = generate("Ali2", n_requests=3000, user_pages=10000, seed=6)
    spec = WORKLOADS["Ali2"]
    hot_base = 10000 - max(4, int(10000 * spec.hot_fraction))
    for req in trace:
        if not req.is_read:
            assert req.lpns()[0] >= hot_base


def test_custom_spec():
    spec = WorkloadSpec("custom", read_ratio=1.0, cold_read_ratio=1.0)
    trace = generate(spec, n_requests=200, user_pages=5000, seed=7)
    stats = characterize(trace)
    assert stats.read_ratio == 1.0
    assert stats.cold_read_ratio == 1.0


def test_validation():
    with pytest.raises(TraceError):
        generate("Ali2", n_requests=0)
    with pytest.raises(TraceError):
        generate("Ali2", n_requests=10, user_pages=4)


def test_spec_validation():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read_ratio=1.4, cold_read_ratio=0.5)
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read_ratio=0.5, cold_read_ratio=0.5, hot_fraction=0.0)
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read_ratio=0.5, cold_read_ratio=0.5,
                     size_weights=(0.5, 0.5, 0.5, -0.5, 0.0))
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read_ratio=0.5, cold_read_ratio=0.5, sizes=(),
                     size_weights=())


def _trace_digest(trace) -> str:
    rows = [[r.timestamp_us, r.op, r.offset_bytes, r.size_bytes]
            for r in trace]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


#: SHA-256 of ``generate(name, n_requests=500, user_pages=20_000, seed=7)``
#: (timestamp, op, offset, size rows as compact JSON).  Pins the request
#: stream, including which uniform draw picks each request size.
GOLDEN_TRACES = {
    "Ali2": "3ba5da3cd48c152ef048bc6517434185d5da54eb5edb22aec1f15447ea55fa15",
    "Ali46": "945e4523a1fcac51dac40b741caa2300681eaa21b8acaf782dd2d447df02c8ce",
    "Ali81": "7784be17b3ae42dca3492498c996bfef3a6133746e1ba3bd542dcf6966a224df",
    "Ali121": "d15a45b86ee9ed87ae93edc0e041b1a5db7a0bcc93499c81655f1dade0ccfd91",
    "Ali124": "97ea9ba8722746f1f93bf2f7c8149e53396743d55d4c3b1fd2208fa6244cbe92",
    "Ali295": "64e090f5bea15b8c98cf4eb46845f7ee6a692218f87600efe3c46fa530d84e74",
    "Sys0": "dfd1aebdcf5b4a7265686dd6192a3aed2ffb5e1623f3164294d410eb406b6210",
    "Sys1": "fd1eaba0a58f14a4794fe4bc3e6cbe6ed21c133a056ba3b36799e0dbdd6c45e5",
}


@pytest.mark.parametrize("name", list(GOLDEN_TRACES))
def test_generated_trace_matches_golden_digest(name):
    trace = generate(name, n_requests=500, user_pages=20_000, seed=7)
    assert _trace_digest(trace) == GOLDEN_TRACES[name]


def test_default_seed_is_stable_across_processes():
    """``seed=None`` derives the seed from the workload name with a stable
    digest, so two interpreters with different string-hash salts produce
    the same trace."""
    script = ("from repro.workloads import generate; "
              "t = generate('Ali2', n_requests=50, user_pages=2000); "
              "print([(r.timestamp_us, r.op, r.offset_bytes, r.size_bytes) "
              "for r in t])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0].startswith("[(")
