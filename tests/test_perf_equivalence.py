"""Bit-identity of every hot-path optimization against its reference.

Two layers:

* kernel equivalence — the vectorized LDPC/sense kernels reproduce the
  seed implementations (:mod:`repro.perf.kernels`) bit for bit on random
  inputs;
* system equivalence — a fixed-seed fig.-17-style simulation produces an
  identical :class:`SimulationResult` (``to_dict()`` equality, which
  includes every latency float) with memo caches on and off, for both
  reliability modes and across retry policies.
"""

import numpy as np
import pytest

from repro.campaign.spec import RunSpec, execute
from repro.config import LdpcCodeConfig, small_test_config
from repro.faults import FaultPlan, FaultSpec
from repro.ldpc.qc_matrix import QcLdpcCode
from repro.ldpc.syndrome import (
    pruned_syndrome,
    pruned_syndrome_weight,
    rearrange_codeword,
    restore_codeword,
)
from repro.nand.vth import PageType, TlcVthModel
from repro.obs import TraceConfig
from repro.perf import kernels
from repro.perf.cache import MemoCache, caches_disabled, caches_enabled
from repro.ssd.core_mode import scalar_core
from repro.ssd.lut_reliability import LutReliabilitySampler
from repro.ssd.reliability import PageReliabilitySampler
from repro.ssd.simulator import SSDSimulator
from repro.workloads import generate


@pytest.fixture(scope="module")
def small_code():
    return QcLdpcCode(LdpcCodeConfig(circulant_size=37))


# --- kernel equivalence -----------------------------------------------------------


def _random_words(code, n_words=8, seed=123):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=code.n, dtype=np.uint8)
            for _ in range(n_words)]


def test_pruned_syndrome_matches_reference(small_code):
    for word in _random_words(small_code):
        np.testing.assert_array_equal(
            pruned_syndrome(small_code, word),
            kernels.pruned_syndrome_reference(small_code, word),
        )
        assert pruned_syndrome_weight(small_code, word) == \
            kernels.pruned_syndrome_weight_reference(small_code, word)


def test_rearrange_restore_match_reference(small_code):
    for word in _random_words(small_code):
        re_opt = rearrange_codeword(small_code, word)
        np.testing.assert_array_equal(
            re_opt, kernels.rearrange_codeword_reference(small_code, word))
        np.testing.assert_array_equal(
            restore_codeword(small_code, re_opt),
            kernels.restore_codeword_reference(small_code, re_opt),
        )
        # round trip is the identity
        np.testing.assert_array_equal(restore_codeword(small_code, re_opt),
                                      word)


@pytest.mark.parametrize("page_type", list(PageType))
def test_sense_many_matches_reference(page_type):
    model = TlcVthModel()
    _states, vth = model.sample_cells(2048, pe_cycles=1000.0,
                                      retention_months=6.0, seed=5)
    ladder = [None] + [
        {b: -0.04 * k for b in page_type.boundaries} for k in range(1, 5)
    ]
    batched = model.sense_many(vth, page_type, ladder)
    assert batched.shape == (len(ladder), len(vth))
    for row, offsets in zip(batched, ladder):
        np.testing.assert_array_equal(
            row, kernels.sense_reference(model, vth, page_type, offsets))


# --- sampler equivalence ------------------------------------------------------------


def _query_mix(sampler):
    out = []
    for rc in range(6):
        for block in range(6):
            key = (0, 0, block % 2, block)
            for page in range(4):
                out.append(sampler.rber(key, page, 3.0 + 0.7 * block,
                                        read_count=rc))
                out.append(sampler.cold_age_days(page + 16 * block))
    return out


@pytest.mark.parametrize("factory", [
    lambda: PageReliabilitySampler(pe_cycles=2000.0, seed=3),
    lambda: LutReliabilitySampler(pe_cycles=2000.0, n_lut_blocks=8, seed=3),
], ids=["parametric", "lut"])
def test_sampler_cached_equals_uncached(factory):
    cached = _query_mix(factory())
    with caches_disabled():
        uncached = _query_mix(factory())
    assert cached == uncached  # exact float equality, not approx


def test_repeated_queries_hit_cache():
    sampler = PageReliabilitySampler(pe_cycles=1000.0, seed=1)
    _query_mix(sampler)
    before = {s["name"]: s["hits"] for s in sampler.cache_stats()}
    _query_mix(sampler)
    after = {s["name"]: s["hits"] for s in sampler.cache_stats()}
    assert after["reliability.page_base"] > before["reliability.page_base"]
    assert after["reliability.cold_age"] > before["reliability.cold_age"]


def test_invalidate_caches_empties_tables():
    sampler = PageReliabilitySampler(pe_cycles=1000.0, seed=1)
    _query_mix(sampler)
    assert len(sampler._page_base_cache) > 0
    sampler.invalidate_caches()
    assert len(sampler._page_base_cache) == 0
    assert len(sampler._cold_age_cache) == 0
    # results after invalidation are unchanged (cache is transparent)
    assert _query_mix(sampler) == _query_mix(sampler)


# --- cache machinery ---------------------------------------------------------------


def test_caches_disabled_is_scoped_and_forces_misses():
    cache = MemoCache("test.scoped")
    assert cache.get_or_compute("k", lambda: 1) == 1
    assert caches_enabled()
    with caches_disabled():
        assert not caches_enabled()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 2) == 2
        assert calls  # stale entry was NOT returned while disabled
        assert len(cache) == 1  # and nothing new was stored
    assert caches_enabled()
    assert cache.get_or_compute("k", lambda: 3) == 1  # entry survived


def test_generational_eviction_bounds_memory():
    cache = MemoCache("test.bounded", max_entries=4)
    for i in range(11):
        cache.get_or_compute(i, lambda i=i: i)
    assert len(cache) <= 4
    assert cache.stats().evictions >= 2


def test_memocache_never_caches_while_disabled_then_reuses():
    cache = MemoCache("test.reuse")
    with caches_disabled():
        cache.get_or_compute("a", lambda: "computed")
    assert len(cache) == 0
    assert cache.get_or_compute("a", lambda: "fresh") == "fresh"


# --- end-to-end equivalence ---------------------------------------------------------


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
]


@pytest.mark.parametrize("spec", SPECS,
                         ids=[f"{s.workload}-{s.policy}-{s.reliability_mode}"
                              for s in SPECS])
def test_simulation_bit_identical_with_and_without_caches(spec):
    cached = execute(spec)
    with caches_disabled():
        reference = execute(spec)
    assert cached.to_dict() == reference.to_dict()


# --- batched vs scalar core ---------------------------------------------------------
#
# The batched read pipeline replaces the scalar per-read closure engine
# wholesale; ``scalar_core()`` keeps the seed path alive as the reference
# mode.  Every spec below must produce the same ``to_dict()`` — every
# latency float, every counter — in both cores.


@pytest.mark.parametrize("spec", SPECS,
                         ids=[f"{s.workload}-{s.policy}-{s.reliability_mode}"
                              for s in SPECS])
def test_batched_core_matches_scalar_core(spec):
    batched = execute(spec)
    with scalar_core():
        scalar = execute(spec)
    assert batched.to_dict() == scalar.to_dict()


def test_batched_core_matches_seed_path_uncached():
    """Batched + caches vs the pre-perf-layer seed path (scalar core with
    every memo layer disabled) — the bench gate's exact reference."""
    spec = SPECS[0]
    batched = execute(spec)
    with scalar_core():
        with caches_disabled():
            reference = execute(spec)
    assert batched.to_dict() == reference.to_dict()


EXTRA_MODE_SPECS = [
    RunSpec(workload="Sys1", policy="RiFSSD", pe_cycles=2000.0,
            n_requests=800, seed=7, channel_arbitration=True),
    RunSpec(workload="Ali124", policy="SWR+", pe_cycles=2000.0,
            n_requests=800, seed=7, mode="timed", time_limit_us=40000.0),
    RunSpec(workload="Sys0", policy="RPSSD", pe_cycles=1000.0,
            n_requests=800, seed=13, read_disturb_threshold=40),
]


@pytest.mark.parametrize("spec", EXTRA_MODE_SPECS,
                         ids=["arbitration", "timed", "read-disturb"])
def test_batched_core_matches_scalar_in_special_modes(spec):
    batched = execute(spec)
    with scalar_core():
        scalar = execute(spec)
    assert batched.to_dict() == scalar.to_dict()


FAULT_PLANS = [
    FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=7, magnitude=2.0),
        FaultSpec(kind="latency_spike", period=5, magnitude=3.0),
    )),
    FaultPlan(faults=(
        FaultSpec(kind="grown_bad_block", channel=0, die=0, plane=0,
                  block=2, start_read=30),
        FaultSpec(kind="channel_corrupt", period=11, count=4, magnitude=1),
    )),
    FaultPlan(faults=(
        FaultSpec(kind="ecc_saturation", channel=0, start_us=200.0,
                  end_us=3000.0),
        FaultSpec(kind="die_offline", channel=1, die=0, start_read=60),
    ), on_degraded="absorb"),
]


@pytest.mark.parametrize("plan", FAULT_PLANS,
                         ids=["sense+spike", "badblock+corrupt",
                              "saturation+offline"])
@pytest.mark.parametrize("policy", ["RiFSSD", "SSDone"])
def test_batched_core_matches_scalar_under_faults(plan, policy):
    """Fault plans force the sequential resolve path of the batched
    pipeline; outcomes, mitigation and degraded reads must stay
    bit-identical to the scalar engine."""
    spec = RunSpec(workload="Sys0", policy=policy, pe_cycles=2000.0,
                   n_requests=600, seed=7, fault_plan=plan)
    batched = execute(spec)
    with scalar_core():
        scalar = execute(spec)
    assert batched.to_dict() == scalar.to_dict()


def _traced_run(**kw):
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                       pe_cycles=2000.0, seed=31,
                       trace_config=TraceConfig(enabled=True), **kw)
    trace = generate("Sys1", n_requests=300, user_pages=3000, seed=31)
    result = ssd.run_trace(trace)
    return ssd, result


def test_batched_core_matches_scalar_with_tracing_enabled():
    """Tracing must observe the same simulation from both cores: identical
    results, request spans, lifecycle instants and per-resource busy
    accounting (``perf.cache_stats`` instants are excluded — the cores
    probe the memo layers differently by design)."""
    ssd_b, res_b = _traced_run()
    with scalar_core():
        ssd_s, res_s = _traced_run()
    assert res_b.to_dict() == res_s.to_dict()
    assert ssd_b.tracer.request_spans == ssd_s.tracer.request_spans
    instants_b = [ev for ev in ssd_b.tracer.instants
                  if ev.name != "perf.cache_stats"]
    instants_s = [ev for ev in ssd_s.tracer.instants
                  if ev.name != "perf.cache_stats"]
    assert instants_b == instants_s
    assert (ssd_b.tracer.resource_busy_by_tag()
            == ssd_s.tracer.resource_busy_by_tag())


def test_batched_core_matches_scalar_traced_under_faults():
    plan = FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=9, magnitude=2.0),
        FaultSpec(kind="latency_spike", period=6, magnitude=2.5),
    ))
    ssd_b, res_b = _traced_run(fault_plan=plan)
    with scalar_core():
        ssd_s, res_s = _traced_run(fault_plan=plan)
    assert res_b.to_dict() == res_s.to_dict()
    assert ssd_b.tracer.request_spans == ssd_s.tracer.request_spans
