"""Exactness of the footprint prefetch and its vectorized kernels.

The prefetch (``SSDSimulator.prefetch_footprint``) seeds the reliability
memo tables with values computed in numpy passes; a read that hits a
seeded entry must see the very bits the scalar miss path would compute.
Two layers:

* kernel properties — every lane of the batch hash, inverse normal,
  variation factors, cold ages and retention bases equals its scalar
  counterpart, across both inverse-normal tails, a nonzero retention
  offset and a non-default operating temperature;
* system edge cases — footprints larger than the memo tables, caches
  disabled, fast-forward epochs, fault plans, the LUT sampler and timed
  replay give ``to_dict()`` results identical to the caches-disabled
  reference and to the golden digests of the corpus (``tests/golden.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import ReliabilityConfig, small_test_config
from repro.nand.variation import (
    _P_HIGH,
    _P_LOW,
    VariationModel,
    _hash_to_unit,
    _unit_to_standard_normal,
    _unit_to_standard_normal_batch,
    hash_to_unit_batch,
)
from repro.perf.cache import caches_disabled
from repro.ssd.reliability import PageReliabilitySampler
from repro.ssd.simulator import SSDSimulator
from repro.workloads import generate

from tests.golden import CELLS, PREFETCH_CASES, assert_golden, run_cell

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])

U64 = st.integers(min_value=0, max_value=2**64 - 1)


# --- kernel properties ----------------------------------------------------------


@PROPERTY
@given(seed=U64,
       scalars=st.lists(st.integers(min_value=-2**63, max_value=2**64 - 1),
                        max_size=3),
       lanes=st.lists(st.tuples(st.integers(min_value=-2**63,
                                            max_value=2**63 - 1),
                                st.integers(min_value=0,
                                            max_value=2**63 - 1)),
                      min_size=1, max_size=40))
def test_hash_to_unit_batch_matches_scalar_in_every_lane(seed, scalars,
                                                         lanes):
    col_a = np.array([a for a, _ in lanes], dtype=np.int64)
    col_b = np.array([b for _, b in lanes], dtype=np.int64)
    got = hash_to_unit_batch(seed, *scalars, col_a, 0xB10C, col_b).tolist()
    want = [_hash_to_unit(seed, *scalars, a, 0xB10C, b) for a, b in lanes]
    assert got == want


def _unit(lo, hi):
    return st.floats(min_value=lo, max_value=hi, exclude_min=True,
                     exclude_max=True, allow_nan=False)


@PROPERTY
@given(low=st.lists(_unit(0.0, _P_LOW), min_size=1, max_size=8),
       high=st.lists(_unit(_P_HIGH, 1.0), min_size=1, max_size=8),
       mid=st.lists(_unit(_P_LOW, _P_HIGH), max_size=30),
       edges=st.lists(st.sampled_from([_P_LOW, _P_HIGH, 0.5]), max_size=3))
def test_inverse_normal_batch_matches_scalar_in_both_tails(low, high, mid,
                                                           edges):
    u = low + high + mid + edges
    got = _unit_to_standard_normal_batch(np.array(u)).tolist()
    assert got == [_unit_to_standard_normal(x) for x in u]


def _block_lanes():
    """Physical pages as (channel, die, plane, block, page) lanes, enough
    of them that both inverse-normal tails are usually hit."""
    return st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7),
                              st.integers(0, 3), st.integers(0, 4095),
                              st.integers(0, 2047)),
                    min_size=150, max_size=300, unique=True)


def _columns(lanes):
    cols = np.array(lanes, dtype=np.int64).T
    return list(cols[:4]), cols[4]


def _hits_both_tails(seed, key, *cols):
    u = hash_to_unit_batch(seed, key, *cols)
    return bool((u < _P_LOW).any() and (u > _P_HIGH).any())


@PROPERTY
@given(seed=st.integers(0, 2**31 - 1), lanes=_block_lanes(),
       block_sigma=st.floats(0.05, 0.8), page_sigma=st.floats(0.01, 0.4))
def test_variation_factor_batches_match_scalar(seed, lanes, block_sigma,
                                               page_sigma):
    block_cols, pages = _columns(lanes)
    assume(_hits_both_tails(seed, 0x9A6E, *block_cols, pages))
    model = VariationModel(ReliabilityConfig(
        block_variation_sigma=block_sigma, page_variation_sigma=page_sigma),
        seed=seed)
    keys = [lane[:4] for lane in lanes]
    assert model.block_factor_batch(block_cols).tolist() == \
        [model.block_factor(key) for key in keys]
    assert model.page_factor_batch(block_cols, pages).tolist() == \
        [model.page_factor(key, lane[4]) for key, lane in zip(keys, lanes)]


@PROPERTY
@given(seed=st.integers(0, 2**31 - 1), lanes=_block_lanes(),
       pe=st.sampled_from([0.0, 500.0, 2000.0, 3500.0]),
       offset=st.floats(0.5, 400.0),
       temp=st.floats(30.0, 85.0),
       refresh=st.floats(1.0, 120.0))
def test_prefetched_inputs_equal_the_uncached_scalar_path(seed, lanes, pe,
                                                          offset, temp,
                                                          refresh):
    """Seeded cold ages, factors and retention bases are what the
    caches-disabled scalar path computes, lane for lane — with a retention
    offset from a fast-forward and a hot chassis."""
    block_cols, pages = _columns(lanes)
    assume(_hits_both_tails(seed, 0x9A6E, *block_cols, pages))
    lpns = np.arange(len(lanes), dtype=np.int64) * 7919 + seed % 1000
    config = ReliabilityConfig(refresh_days=refresh)

    def sampler():
        s = PageReliabilitySampler(pe, config, seed=seed,
                                   operating_temp_c=temp)
        s.advance_retention(offset)
        return s

    warm, reference = sampler(), sampler()
    warm.prefetch(lpns, block_cols, pages)
    keys = [lane[:4] for lane in lanes]
    ages = [warm.cold_age_days(lpn) for lpn in lpns.tolist()]
    rbers = [warm.rber(key, lane[4], age, 3)
             for key, lane, age in zip(keys, lanes, ages)]
    assert warm._cold_age_cache.misses == 0
    assert warm._page_base_cache.misses == 0
    with caches_disabled():
        want_ages = [reference.cold_age_days(lpn) for lpn in lpns.tolist()]
        want_rbers = [reference.rber(key, lane[4], age, 3)
                      for key, lane, age in zip(keys, lanes, want_ages)]
    assert ages == want_ages
    assert rbers == want_rbers
    model, variation = warm.model, warm.model.variation
    assert [model._page_variation(key, lane[4])
            for key, lane in zip(keys, lanes)] == \
        [variation.block_factor(key) * variation.page_factor(key, lane[4])
         for key, lane in zip(keys, lanes)]


# --- system edge cases ----------------------------------------------------------

SEEDED_TABLES = 64  # far below any run's read footprint


def _shrink_tables(ssd, max_entries=SEEDED_TABLES):
    """Cap every memo table the prefetch seeds, so the trace's footprint
    overflows them and the run spans many generations."""
    sampler = ssd.sampler
    caches = [sampler._cold_age_cache]
    if hasattr(sampler, "model"):
        caches += [sampler._page_base_cache, sampler.model._factor_cache,
                   sampler.model._block_factor_cache]
    for cache in caches:
        cache.max_entries = max_entries
    return caches


def _run(name):
    """Run the corpus cell ``prefetch:<name>`` with shrunken memo tables."""
    caches = []
    run = run_cell(CELLS[f"prefetch:{name}"],
                   prepare=lambda ssd: caches.extend(_shrink_tables(ssd)))
    return run, caches


@pytest.mark.parametrize("case", list(PREFETCH_CASES))
def test_prefetch_past_table_capacity_is_bit_identical(case):
    """A read footprint far beyond ``max_entries`` (many generations)
    gives the caches-disabled reference's results."""
    got, caches = _run(case)
    with caches_disabled():
        want, _ = _run(case)
    assert got.results == want.results
    assert sum(cache.evictions for cache in caches) > 0
    assert_golden(CELLS[f"prefetch:{case}"], got)


def test_prefetch_across_fast_forward_epochs_is_bit_identical():
    got, caches = _run("epochs")
    with caches_disabled():
        want, _ = _run("epochs")
    assert len(got.results) == 3
    assert got.results == want.results
    assert sum(cache.evictions for cache in caches) > 0
    assert_golden(CELLS["prefetch:epochs"], got)


def _seeded_tables(ssd):
    sampler = ssd.sampler
    return (sampler._cold_age_cache, sampler._page_base_cache,
            sampler.model._factor_cache, sampler.model._block_factor_cache)


def test_prefetch_is_a_noop_with_caches_disabled():
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                       pe_cycles=2000.0, seed=5)
    trace = generate("Ali124", n_requests=120, user_pages=3000, seed=9)
    with caches_disabled():
        ssd.prefetch_footprint(trace.requests)
    for cache in _seeded_tables(ssd):
        assert len(cache) == 0 and cache.evictions == 0


def test_prefetch_covers_every_cold_read_of_a_fitting_trace():
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                       pe_cycles=2000.0, seed=5)
    trace = generate("Ali124", n_requests=400, user_pages=3000, seed=9)
    page_size = small_test_config().geometry.page_size
    ssd.prefetch_footprint(trace.requests)
    sampler = ssd.sampler
    for request in trace.requests:
        if request.is_read:
            for lpn in request.lpns(page_size):
                sampler.cold_age_days(lpn)
    assert sampler._cold_age_cache.misses == 0
    assert all(cache.evictions == 0 for cache in _seeded_tables(ssd))


def test_prefetch_seeds_the_first_reads_into_half_a_table():
    """A footprint past half the smallest table seeds its first-touched
    pages only and clears nothing."""
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                       pe_cycles=2000.0, seed=5)
    caches = _shrink_tables(ssd, 256)
    trace = generate("Ali124", n_requests=400, user_pages=3000, seed=9)
    page_size = small_test_config().geometry.page_size
    first_touch = list(dict.fromkeys(
        lpn for request in trace.requests if request.is_read
        for lpn in request.lpns(page_size)))
    assert len(first_touch) > 256
    ssd.prefetch_footprint(trace.requests)
    assert list(ssd.sampler._cold_age_cache._table) == first_touch[:128]
    assert all(cache.evictions == 0 for cache in caches)
