"""The golden-digest corpus: sampled grid cells, fast-forward epochs, and
the corpus's own coverage.

The fixed cells of the equivalence, fault, tracing, adaptive, fleet and
prefetch tests are checked by those tests; this module runs the rest and
guards what the corpus must span.
"""

import pytest

from repro.ssd import PolicyName
from repro.workloads import WORKLOADS

from tests.golden import (
    CELLS,
    DISTURB_SPEC,
    EPOCHS,
    FAULT_PLANS,
    GC_SPEC,
    POLICIES,
    SAMPLED,
    SERIAL_CELL,
    assert_golden,
    load_digests,
    run_cell,
)


@pytest.mark.parametrize("name", [cell.name for cell in SAMPLED + EPOCHS])
def test_cell_matches_golden_digest(name):
    assert_golden(CELLS[name], run_cell(CELLS[name]))


def test_serial_reads_never_share_the_decoder_buffer():
    """One page in flight at a time: a corrupted page's re-transfer starts
    only after its failed decode gave the slot back."""
    run = run_cell(SERIAL_CELL)
    assert run.ssd.metrics.fault_retries > 0
    assert [ecc.peak_slots_in_use for ecc in run.ssd.eccs] == [1, 1]
    assert_golden(SERIAL_CELL, run)


def test_every_cell_has_a_digest_and_every_digest_a_cell():
    assert set(load_digests()) == set(CELLS)


def _specs():
    return [cell.spec for cell in CELLS.values() if cell.spec is not None]


def test_corpus_spans_the_simulator():
    specs = _specs()
    assert len(CELLS) >= 50
    assert set(POLICIES) == {name.value for name in PolicyName}
    assert {s.policy for s in specs} == set(POLICIES)
    assert {s.workload for s in specs} == set(WORKLOADS)
    assert {s.reliability_mode for s in specs} == {"parametric", "lut"}
    assert {s.mode for s in specs} == {"closed", "timed"}
    assert any(s.channel_arbitration for s in specs)
    assert DISTURB_SPEC in specs and GC_SPEC in specs
    plans = {s.fault_plan for s in specs}
    assert set(FAULT_PLANS.values()) <= plans
    traced = [cell for cell in CELLS.values()
              if cell.sim.get("trace_config") is not None]
    assert any(cell.sim.get("fault_plan") is not None for cell in traced)
    assert any(cell.sim.get("fault_plan") is None for cell in traced)
    assert any(cell.epochs > 1 and cell.spec is not None
               and cell.spec.policy in ("OVCSSD", "OCASSD", "RVPSSD")
               for cell in CELLS.values())
