"""Property-based tests on the SSD layer: plans, FTL, traces."""

from hypothesis import given, settings, strategies as st

from repro.config import NandTimings, SSDConfig
from repro.ssd.ecc_model import EccOutcomeModel
from repro.ssd.ftl import PageMapFtl
from repro.ssd.retry_policies import PhaseKind, PolicyName, make_policy
from repro.units import KIB
from repro.workloads.trace import IORequest

_TIMINGS = NandTimings()


@given(
    st.sampled_from([p.value for p in PolicyName]),
    st.floats(min_value=0.0, max_value=0.05),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120, deadline=None)
def test_any_plan_is_well_formed(policy_name, rber, seed):
    """Whatever the policy and outcome draws, a read plan must be a valid
    alternation ending in a transfer, with consistent counters."""
    model = EccOutcomeModel(seed=seed)
    policy = make_policy(policy_name, _TIMINGS, model)
    plan = policy.plan_read(rber)
    assert plan.phases, "every read plan has at least one phase"
    assert plan.phases[0].kind is PhaseKind.SENSE
    assert plan.phases[-1].kind is PhaseKind.TRANSFER
    # the last transfer is always a correctable page going to the host
    assert plan.phases[-1].tag == "COR"
    # phase alternation: SENSE and TRANSFER strictly interleave
    for a, b in zip(plan.phases, plan.phases[1:]):
        assert a.kind is not b.kind
    assert plan.senses >= 1
    assert plan.uncorrectable_transfers <= sum(
        1 for p in plan.phases if p.kind is PhaseKind.TRANSFER
    )
    assert plan.total_plane_time() > 0
    assert plan.total_channel_time() > 0
    if not plan.retried:
        assert len(plan.phases) == 2


@given(
    st.floats(min_value=0.0, max_value=0.05),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_rif_plans_never_ship_predicted_failures(rber, seed):
    model = EccOutcomeModel(seed=seed)
    policy = make_policy("RiFSSD", _TIMINGS, model)
    plan = policy.plan_read(rber)
    if plan.in_die_retry and plan.uncorrectable_transfers:
        # only the rare residual decode failure of the re-read may ship a
        # bad page, and then a reactive round must follow
        assert len(plan.phases) > 2


_FTL_CONFIG = SSDConfig().scaled(
    channels=2, dies_per_channel=1, planes_per_die=2,
    blocks_per_plane=6, pages_per_block=4,
)
_FTL_GEOMETRY = _FTL_CONFIG.geometry
_FTL_LPNS = PageMapFtl(_FTL_CONFIG).user_pages
# mostly writes, over a hot set small enough that overwrites drain the
# over-provisioning pool and greedy GC fires
_FTL_OPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 11)),
    st.tuples(st.just("write"), st.integers(0, 11)),
    st.tuples(st.just("write"), st.integers(0, _FTL_LPNS - 1)),
    st.tuples(st.just("read"), st.integers(0, _FTL_LPNS - 1)),
    st.tuples(st.just("relocate"),
              st.integers(0, _FTL_GEOMETRY.total_planes - 1),
              st.integers(0, _FTL_GEOMETRY.blocks_per_plane - 1)),
)


def _assert_ftl_consistent(ftl, programmed, holder_before, written_lpn,
                           copies, erased):
    """The FTL invariants after one operation.  ``programmed`` is the set
    of ppns holding data since their block's last erase (the test's own
    record), ``holder_before`` maps each ppn to the lpn it held before the
    operation."""
    g = ftl.config.geometry
    planes_total = g.total_planes
    # _map and _reverse are inverses
    assert ftl._reverse == {ppn: lpn for lpn, ppn in ftl._map.items()}
    # live lpns resolve to distinct ppns
    home = {lpn: ftl.current_ppn(lpn) for lpn in range(ftl.user_pages)}
    holder = {ppn: lpn for lpn, ppn in home.items()}
    assert len(holder) == len(home), "two live lpns share a ppn"
    # every block's invalid count equals a recount of its dead pages
    span = g.pages_per_block * planes_total
    for pidx in range(planes_total):
        for block in range(g.blocks_per_plane):
            first = block * span + pidx
            dead = sum(1 for ppn in range(first, first + span, planes_total)
                       if ppn in programmed and ppn not in holder)
            assert ftl._invalid_counts.get((pidx, block), 0) == dead, \
                (pidx, block)
    # each GC copy moved the lpn its source held to the lpn's current home
    # (unless the operation's own host write superseded it right after)
    for src, dst in copies:
        lpn = holder_before[src]
        if lpn != written_lpn:
            assert home[lpn] == dst
    # erased blocks are back in the free pool (or reopened as the write
    # frontier by the same write) with cleared read counters
    for pidx, block in erased:
        state = ftl._planes[pidx]
        assert block in state.free_blocks or block == state.active_block
        assert (pidx, block) not in ftl._block_reads


@given(st.lists(_FTL_OPS, min_size=30, max_size=200))
@settings(max_examples=60, deadline=None)
def test_ftl_mapping_is_always_a_bijection(ops):
    """Any interleaving of host writes, reads and block relocations on a
    multi-plane geometry small enough for GC to fire keeps the map a
    bijection and the per-block accounting exact."""
    ftl = PageMapFtl(_FTL_CONFIG)
    g = _FTL_GEOMETRY
    span = g.pages_per_block * g.total_planes
    # the preconditioned region is programmed before the run starts
    programmed = set(range(ftl.user_pages))
    for step, op in enumerate(ops):
        now_us = float(step)
        holder_before = {ftl.current_ppn(lpn): lpn
                         for lpn in range(ftl.user_pages)}
        written_lpn, copies, erased = None, (), ()
        if op[0] == "write":
            written_lpn = op[1]
            ppn, copies, erased = ftl.write(written_lpn, now_us)
        elif op[0] == "read":
            ftl.read(op[1])
        else:
            result = ftl.relocate_block(op[1], op[2], now_us)
            if result is not None:
                _ppn, copies, erased = result
        # replay the operation on the record: copies program their
        # destinations, erases wipe their blocks (no destination lies in a
        # block erased by the same operation), then the host page lands
        programmed.update(dst for _src, dst in copies)
        for pidx, block in erased:
            first = block * span + pidx
            programmed.difference_update(
                range(first, first + span, g.total_planes))
        if op[0] == "write":
            programmed.add(ppn)
        _assert_ftl_consistent(ftl, programmed, holder_before, written_lpn,
                               copies, erased)


@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=1, max_value=512 * KIB),
)
@settings(max_examples=60, deadline=None)
def test_request_page_math(offset, size):
    req = IORequest(0.0, "R", offset, size)
    pages = req.lpns()
    assert pages[0] * 16 * KIB <= offset
    assert (pages[-1] + 1) * 16 * KIB >= offset + size
    assert len(pages) <= size // (16 * KIB) + 2
