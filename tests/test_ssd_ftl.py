"""Page-mapped FTL: mapping, preconditioned state, GC."""

import pytest

from repro.config import SSDConfig
from repro.errors import TraceError
from repro.ssd.ftl import PageMapFtl


@pytest.fixture()
def ftl(tiny_ssd_config):
    return PageMapFtl(tiny_ssd_config)


def test_user_space_excludes_overprovisioning(ftl, tiny_ssd_config):
    g = tiny_ssd_config.geometry
    assert ftl.user_pages < g.total_pages
    assert ftl.user_blocks_per_plane < g.blocks_per_plane


def test_cold_read_is_identity_mapped(ftl):
    target = ftl.read(5)
    assert target.cold
    assert target.written_at_us is None
    assert ftl.mapper.ppn(target.address) == 5


def test_read_counts_accumulate_per_block(ftl):
    first = ftl.read(0)
    again = ftl.read(0)
    assert again.block_read_count == first.block_read_count + 1


def test_write_then_read_is_warm(ftl):
    ppn, _copies, _erased = ftl.write(3, now_us=100.0)
    target = ftl.read(3)
    assert not target.cold
    assert target.written_at_us == 100.0
    assert target.address == ftl.mapper.address(ppn)


def test_write_moves_page_off_identity(ftl):
    ppn, _copies, _erased = ftl.write(3, now_us=1.0)
    assert ppn != 3
    # and the new location is in the over-provisioning region
    assert ftl.mapper.address(ppn).block >= ftl.user_blocks_per_plane


def test_overwrites_allocate_fresh_pages(ftl):
    seen = set()
    for i in range(10):
        ppn, _copies, _erased = ftl.write(7, now_us=float(i))
        assert ppn not in seen
        seen.add(ppn)
    # latest mapping wins and is one of the allocated pages
    current = ftl.current_ppn(7)
    assert ftl.mapper.ppn(ftl.read(7).address) == current
    assert current in seen


def test_out_of_range_lpn_rejected(ftl):
    with pytest.raises(TraceError):
        ftl.read(ftl.user_pages)
    with pytest.raises(TraceError):
        ftl.write(-1, 0.0)


def test_gc_triggers_and_frees_space(ftl):
    """Hammering a few hot pages far beyond the OP pool size must trigger
    GC rather than run out of space."""
    writes = ftl.user_pages * 3
    for i in range(writes):
        ftl.write(i % 4, now_us=float(i))
    assert ftl.gc_runs > 0


def test_gc_preserves_untouched_cold_data(ftl):
    """After heavy overwriting, an untouched logical page must still
    resolve somewhere, and reads return a valid physical address."""
    untouched = ftl.user_pages - 1
    for i in range(ftl.user_pages * 2):
        ftl.write(i % 4, now_us=float(i))
    target = ftl.read(untouched)
    ftl.mapper.ppn(target.address)  # must not raise


def test_gc_copies_reported(ftl):
    """When GC relocates live pages the copies are surfaced to the caller
    (the simulator turns them into internal traffic)."""
    total_copies = 0
    # write a broad working set so victims contain live pages
    for i in range(ftl.user_pages * 2):
        _ppn, copies, _erased = ftl.write(i % (ftl.user_pages // 2),
                                          now_us=float(i))
        total_copies += len(copies)
    assert ftl.gc_runs > 0
    assert total_copies == ftl.pages_copied_by_gc


def test_gc_victim_erased_blocks_reported(ftl):
    erased = []
    for i in range(ftl.user_pages * 2):
        _ppn, _copies, erased_blocks = ftl.write(i % 4, now_us=float(i))
        erased.extend(erased_blocks)
    assert erased  # at least one erase happened
    for pidx, block in erased:
        assert 0 <= pidx < ftl.config.geometry.total_planes
        assert 0 <= block < ftl.config.geometry.blocks_per_plane


def test_writes_round_robin_across_planes(ftl, tiny_ssd_config):
    planes = set()
    for i in range(tiny_ssd_config.geometry.total_planes):
        ppn, _copies, _erased = ftl.write(i, now_us=0.0)
        planes.add(ftl.mapper.address(ppn).plane_key())
    assert len(planes) == tiny_ssd_config.geometry.total_planes


def test_wear_levelled_allocation_prefers_least_erased(tiny_ssd_config):
    """The allocator must pick the coolest free block, bounding the wear
    spread across the pool under sustained hot writes."""
    ftl = PageMapFtl(tiny_ssd_config)
    for i in range(ftl.user_pages * 8):
        ftl.write(i % 4, now_us=float(i))
    per_plane_counts = {}
    for (pidx, _block), count in ftl.erase_counts.items():
        per_plane_counts.setdefault(pidx, []).append(count)
    assert ftl.erase_counts, "sustained overwrites must erase blocks"
    for pidx, counts in per_plane_counts.items():
        if len(counts) >= 2:
            assert max(counts) - min(counts) <= max(counts) // 2 + 2


def test_plane_full_of_live_data_keeps_its_gc_reserve():
    """Plane 0 only ever receives fresh lpns homed in other planes, so no
    page in it is ever invalidated.  Once its over-provisioning blocks are
    full, its host writes go to the next plane: its last free block stays
    the GC reserve instead of being spent, and the drive never runs out of
    space while other planes have room."""
    config = SSDConfig().scaled(
        channels=2, dies_per_channel=1, planes_per_die=2,
        blocks_per_plane=6, pages_per_block=4,
    )
    ftl = PageMapFtl(config)
    planes = config.geometry.total_planes
    fresh = [lpn for lpn in range(ftl.user_pages) if lpn % planes > 1]
    now = 0.0
    for lpn in fresh[:12]:
        ftl.write(lpn, now)  # plane 0's turn
        for _ in range(planes - 1):
            now += 1.0
            ftl.write(1, now)  # a hot lpn homed in plane 1
        assert all(state.free_blocks for state in ftl._planes)
    # one over-provisioning block filled plane 0; the rest went elsewhere
    homes = [ftl.current_ppn(lpn) % planes for lpn in fresh[:12]]
    assert homes[:4] == [0] * 4 and 0 not in homes[4:]
    assert not any(ftl.read(lpn).cold for lpn in fresh[:12])
