"""Page-mapped flash translation layer with preconditioned state and GC.

The evaluation reads a *preconditioned* SSD: most data was written long
before the measured window (the paper's "cold read ratio" is the fraction
of reads to pages never updated during the trace).  We model that exactly:

* logical pages never written during the simulation map **identity-style**
  onto the first ``(1 - OP)`` fraction of physical blocks in stripe order —
  these are the *pre-existing* pages whose retention ages the reliability
  sampler draws from the steady-state refresh distribution;
* pages written during the simulation allocate from per-plane write
  frontiers fed by the over-provisioning pool, and carry their true
  (simulated) ages;
* greedy garbage collection reclaims the emptiest block of a plane when its
  free pool runs dry, emitting the page-copy list the simulator turns into
  SSD-internal read+program traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SSDConfig
from ..errors import CapacityError, TraceError
from ..nand.geometry import AddressMapper, PageAddress


@dataclass(frozen=True)
class ReadTarget:
    """Where a logical page lives and how old its data is."""

    address: PageAddress
    cold: bool                      # never written during this simulation
    written_at_us: Optional[float]  # None for cold pages
    block_read_count: int


@dataclass(frozen=True)
class GcCopy:
    """One valid-page relocation performed by garbage collection."""

    source: PageAddress
    destination: PageAddress


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a logical write (or of a pure relocation, where no host
    page is written and ``address`` is ``None``)."""

    address: Optional[PageAddress]
    gc_copies: Tuple[GcCopy, ...] = ()
    erased_blocks: Tuple[Tuple[int, int], ...] = ()  # (plane_index, block)


class _PlaneState:
    """Per-plane allocator state."""

    __slots__ = ("free_blocks", "active_block", "next_page")

    def __init__(self, free_blocks: List[int]):
        self.free_blocks = free_blocks
        self.active_block: Optional[int] = None
        self.next_page = 0


class PageMapFtl:
    """Lazy page-mapped FTL over the configured geometry."""

    def __init__(self, config: SSDConfig):
        self.config = config
        g = config.geometry
        self.mapper = AddressMapper(g)
        self._planes_total = g.total_planes
        self._pages_per_block = g.pages_per_block
        if g.blocks_per_plane < 3:
            raise CapacityError("page-mapped GC needs >= 3 blocks per plane")
        # user-visible blocks per plane (identity / preconditioned region).
        # At least two spare blocks per plane: with the pool never consumed
        # below one block until invalid pages exist, greedy GC always has a
        # relocation target (any victim holds <= pages_per_block - 1 live
        # pages, which fits the reserved block).
        self.user_blocks_per_plane = max(
            1,
            min(
                int(g.blocks_per_plane * (1.0 - config.over_provisioning)),
                g.blocks_per_plane - 2,
            ),
        )
        self.user_pages = (
            self.user_blocks_per_plane * g.pages_per_block * self._planes_total
        )
        # logical -> physical (only entries for pages written this run, or
        # cold pages relocated by GC)
        self._map: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}
        #: ppn -> simulated write timestamp (absent = pre-existing data)
        self.written_at_us: Dict[int, float] = {}
        # per-block accounting, keyed by flat plane index
        self._invalid_counts: Dict[Tuple[int, int], int] = {}
        self._block_reads: Dict[Tuple[int, int], int] = {}
        self._planes: List[_PlaneState] = [
            _PlaneState(list(range(self.user_blocks_per_plane, g.blocks_per_plane)))
            for _ in range(self._planes_total)
        ]
        self._write_cursor = 0  # round-robin plane selector for writes
        self._in_gc = False
        self.gc_runs = 0
        self.pages_copied_by_gc = 0
        self.disturb_relocations = 0
        #: per-block erase counts (wear accounting)
        self.erase_counts: Dict[Tuple[int, int], int] = {}

    # --- helpers -----------------------------------------------------------------

    def _ppn_identity(self, lpn: int) -> int:
        """Identity placement of a pre-existing logical page."""
        return lpn

    def _plane_and_block(self, ppn: int) -> Tuple[int, int]:
        addr = self.mapper.address(ppn)
        return self.mapper.plane_index_of(addr), addr.block

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.user_pages:
            raise TraceError(f"lpn {lpn} outside user space [0, {self.user_pages})")

    def current_ppn(self, lpn: int) -> int:
        """Physical page currently holding ``lpn`` (identity if untouched)."""
        self._check_lpn(lpn)
        return self._map.get(lpn, self._ppn_identity(lpn))

    def identity_resident(self, lpns: np.ndarray) -> np.ndarray:
        """The in-range ``lpns`` whose data still sits at its identity
        placement (``ppn == lpn``): never written or relocated this run."""
        lpns = lpns[(lpns >= 0) & (lpns < self.user_pages)]
        remapped = self._map
        if remapped:
            lpns = lpns[np.fromiter((lpn not in remapped
                                     for lpn in lpns.tolist()),
                                    dtype=bool, count=len(lpns))]
        return lpns

    # --- reads -----------------------------------------------------------------------

    def read(self, lpn: int) -> ReadTarget:
        """Resolve a logical read and bump the block's read counter.

        Inlines :meth:`current_ppn` (and evaluates the identity fallback
        lazily) — this is the per-read hot path."""
        if not 0 <= lpn < self.user_pages:
            raise TraceError(f"lpn {lpn} outside user space [0, {self.user_pages})")
        ppn = self._map.get(lpn)
        if ppn is None:
            ppn = self._ppn_identity(lpn)
        addr = self.mapper.address(ppn)
        key = (self.mapper.plane_index_of(addr), addr.block)
        reads = self._block_reads.get(key, 0) + 1
        self._block_reads[key] = reads
        written = self.written_at_us.get(ppn)
        return ReadTarget(
            address=addr,
            cold=written is None,
            written_at_us=written,
            block_read_count=reads,
        )

    def resolve_fast(self, lpn: int) -> tuple:
        """``(ppn, written_at_us)`` of one logical read, nothing else.

        Allocation-lean resolver for the batched pipeline: same lookup as
        :meth:`read` but no :class:`ReadTarget`, no address decode, and no
        read-counter bump — the caller's memoized route carries the
        ``block_reads`` key and bumps the counter itself (same key values,
        same per-lpn order, so the counts match :meth:`read` exactly).
        ``written_at_us`` is ``None`` for a cold page, exactly
        :attr:`ReadTarget.cold`.
        """
        if not 0 <= lpn < self.user_pages:
            raise TraceError(
                f"lpn {lpn} outside user space [0, {self.user_pages})")
        ppn = self._map.get(lpn)
        if ppn is None:
            ppn = self._ppn_identity(lpn)
        return ppn, self.written_at_us.get(ppn)

    # --- writes ------------------------------------------------------------------------

    def write(self, lpn: int, now_us: float) -> WriteResult:
        """Allocate a fresh physical page for ``lpn``; may trigger GC."""
        self._check_lpn(lpn)
        gc_copies: List[GcCopy] = []
        erased: List[Tuple[int, int]] = []
        pidx = self._write_cursor
        self._write_cursor = (self._write_cursor + 1) % self._planes_total
        # Allocate first: GC inside the allocation may relocate this lpn's
        # current page, so the superseded location must be resolved *after*
        # allocation for the invalidation bookkeeping to stay consistent.
        ppn = self._allocate_page(pidx, now_us, gc_copies, erased)
        old_ppn = self.current_ppn(lpn)
        old_pidx, old_block = self._plane_and_block(old_ppn)
        key = (old_pidx, old_block)
        self._invalid_counts[key] = self._invalid_counts.get(key, 0) + 1
        self._reverse.pop(old_ppn, None)
        self.written_at_us.pop(old_ppn, None)
        self._map[lpn] = ppn
        self._reverse[ppn] = lpn
        self.written_at_us[ppn] = now_us
        return WriteResult(
            address=self.mapper.address(ppn),
            gc_copies=tuple(gc_copies),
            erased_blocks=tuple(erased),
        )

    # --- allocation & GC ---------------------------------------------------------------------

    def _allocate_page(
        self,
        pidx: int,
        now_us: float,
        gc_copies: List[GcCopy],
        erased: List[Tuple[int, int]],
    ) -> int:
        state = self._planes[pidx]
        self._retire_full_active(state)
        if state.active_block is None:
            # keep one block in reserve so GC relocations never deadlock;
            # GC is a no-op when no block holds any invalid page
            if not self._in_gc and len(state.free_blocks) <= 1:
                self._collect_garbage(pidx, now_us, gc_copies, erased)
                self._retire_full_active(state)
            if state.active_block is None:
                if not state.free_blocks:
                    raise CapacityError(
                        f"plane {pidx}: no free blocks and nothing to collect"
                    )
                state.active_block = self._pick_free_block(pidx, state)
                state.next_page = 0
        page = state.next_page
        state.next_page += 1
        channel, die, plane = self.mapper.plane_from_index(pidx)
        addr = PageAddress(channel, die, plane, state.active_block, page)
        return self.mapper.ppn(addr)

    def _pick_free_block(self, pidx: int, state: _PlaneState) -> int:
        """Wear-levelled allocation: take the least-erased free block (FIFO
        among ties), spreading P/E cycles across the pool."""
        best_i = min(
            range(len(state.free_blocks)),
            key=lambda i: self.erase_counts.get(
                (pidx, state.free_blocks[i]), 0
            ),
        )
        return state.free_blocks.pop(best_i)

    def _retire_full_active(self, state: _PlaneState) -> None:
        """A completely written active block becomes a regular data block
        (and thereby a GC candidate)."""
        if state.active_block is not None and state.next_page >= self._pages_per_block:
            state.active_block = None
            state.next_page = 0

    def _block_valid_count(self, pidx: int, block: int) -> int:
        return self._pages_per_block - self._invalid_counts.get((pidx, block), 0)

    def _collect_garbage(
        self,
        pidx: int,
        now_us: float,
        gc_copies: List[GcCopy],
        erased: List[Tuple[int, int]],
    ) -> None:
        """Greedy GC: reclaim the block with the fewest valid pages.

        A no-op when every candidate is fully valid — collecting such a
        block would copy a whole block's pages for zero net space."""
        state = self._planes[pidx]
        g = self.config.geometry
        free = set(state.free_blocks)
        candidates = [
            b for b in range(g.blocks_per_plane)
            if b != state.active_block and b not in free
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda b: self._block_valid_count(pidx, b))
        if self._invalid_counts.get((pidx, victim), 0) == 0:
            return
        self.gc_runs += 1
        self._reclaim_block(pidx, victim, now_us, gc_copies, erased)

    def _reclaim_block(
        self,
        pidx: int,
        victim: int,
        now_us: float,
        gc_copies: List[GcCopy],
        erased: List[Tuple[int, int]],
    ) -> None:
        """Relocate every live page of ``victim``, erase it, and return it
        to the plane's free pool.  Shared by GC and read-disturb
        relocation."""
        state = self._planes[pidx]
        self._in_gc = True
        channel, die, plane = self.mapper.plane_from_index(pidx)
        # relocate live pages: destination pages come from the same plane's
        # remaining frontier (the victim is erased afterwards, so GC frees
        # net space as long as the victim is not fully valid)
        for page in range(self._pages_per_block):
            src = PageAddress(channel, die, plane, victim, page)
            src_ppn = self.mapper.ppn(src)
            lpn = self._reverse.get(src_ppn)
            if lpn is None:
                # identity-region page: live iff its lpn was never remapped
                if victim >= self.user_blocks_per_plane:
                    continue  # OP-region page with no owner: dead
                implied_lpn = src_ppn
                if self._map.get(implied_lpn, src_ppn) != src_ppn:
                    continue  # superseded: dead
                lpn = implied_lpn
            elif self._map.get(lpn) != src_ppn:
                continue  # stale reverse entry
            dst_ppn = self._allocate_page(pidx, now_us, gc_copies, erased)
            self._map[lpn] = dst_ppn
            self._reverse.pop(src_ppn, None)
            self._reverse[dst_ppn] = lpn
            self.written_at_us[dst_ppn] = now_us
            self.written_at_us.pop(src_ppn, None)
            gc_copies.append(GcCopy(source=src, destination=self.mapper.address(dst_ppn)))
            self.pages_copied_by_gc += 1
        # the victim is now empty: erase and return to the pool
        self._invalid_counts.pop((pidx, victim), None)
        self._block_reads.pop((pidx, victim), None)
        self.erase_counts[(pidx, victim)] = self.erase_counts.get((pidx, victim), 0) + 1
        state.free_blocks.append(victim)
        erased.append((pidx, victim))
        self._in_gc = False

    # --- read-disturb relocation --------------------------------------------------------------

    def block_read_count(self, pidx: int, block: int) -> int:
        """Reads accumulated by a block since its last erase."""
        return self._block_reads.get((pidx, block), 0)

    def relocate_block(self, pidx: int, block: int, now_us: float
                       ) -> Optional[WriteResult]:
        """Proactively rewrite a block (read-disturb management): move its
        live pages elsewhere and erase it, clearing the read counter.

        Returns the relocation traffic, or ``None`` when relocation is not
        currently safe (the block is the active frontier or in the free
        pool, or the plane has no spare block to relocate into)."""
        state = self._planes[pidx]
        if block in state.free_blocks:
            return None
        if block == state.active_block:
            # an overheated write frontier is closed early; its unwritten
            # tail comes back when the block is erased below
            state.active_block = None
            state.next_page = 0
        if not state.free_blocks:
            return None  # defer until GC replenishes the pool
        gc_copies: List[GcCopy] = []
        erased: List[Tuple[int, int]] = []
        self._reclaim_block(pidx, block, now_us, gc_copies, erased)
        self.disturb_relocations += 1
        return WriteResult(
            address=None,  # no host page is written
            gc_copies=tuple(gc_copies),
            erased_blocks=tuple(erased),
        )
