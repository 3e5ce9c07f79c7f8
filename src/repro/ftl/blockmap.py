"""Block-mapped FTL: the low-end device model behind S2slc/S3slc and Figure 2.

The mapping unit is a whole **stripe**: one erase block per element of a
gang, page-interleaved across the gang (byte ``i`` of a stripe lives in flash
page ``i // page_bytes``; page ``p`` lives on element ``p % S`` at local page
``p // S``).  The paper's S2slc device behaves this way with a 1 MB stripe.

Write behaviour, which produces both the catastrophic random-write bandwidth
in Table 2 and the saw-tooth of Figure 2:

* a write that only touches never-written pages of its stripe programs them
  in place (sequential streams therefore run at near-full speed);
* any overwrite of live data triggers a **read-modify-erase-write cycle** of
  the *entire stripe*: surviving pages are copied into a freshly-erased
  stripe, the new data is merged in, and the old stripe is erased in the
  background.  A 512-byte overwrite thus moves a full stripe of data.

There is no separate cleaner: reclamation is inline (the erase after each
RMW), as on the simple devices this models.

Stripe rows live in per-gang :class:`repro.ftl.freepool.FreeBlockPool`
pools (via :class:`repro.ftl.base.StripeFTLBase`), completion joins are
slab-recycled, and single-page requests ride join-free with ``done``
attached directly to the flash op — the same fast-path architecture as
:class:`repro.ftl.pagemap.PageMappedFTL`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Optional

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_HOST
from repro.ftl.base import CompletionJoin, StripeFTLBase, complete_async
from repro.sim.engine import Simulator

__all__ = ["BlockMappedFTL"]


class BlockMappedFTL(StripeFTLBase):
    """Stripe-granularity mapping with read-modify-erase-write (see module
    docstring)."""

    def __init__(
        self,
        sim: Simulator,
        elements: List[FlashElement],
        gang_size: Optional[int] = None,
        spare_fraction: float = 0.06,
    ) -> None:
        shards = self.resolve_shards(elements, gang_size)
        if not 0.0 < spare_fraction < 1.0:
            raise ValueError(f"spare_fraction must be in (0, 1), got {spare_fraction}")
        geom = elements[0].geometry
        user_rows = int(geom.blocks_per_element * (1.0 - spare_fraction))
        if user_rows <= 0:
            raise ValueError("device too small for the requested spare fraction")
        super().__init__(sim, elements, shards, user_rows)
        # reserve_rows stays at the StripeFTLBase default (frontier + one RMW)

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------

    def write(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]] = None,
        tag: str = TAG_HOST,
        temp: str = "hot",
    ) -> None:
        self._check_range(offset, size)
        sb = self.stripe_bytes
        fp = self.geometry.page_bytes
        end = offset + size

        if (offset % fp) + size <= fp:
            # fast path: a single-page append into a mapped stripe — the
            # sequential-stream common case — needs exactly one program, so
            # ``done`` rides join-free on the flash op.  Everything else
            # (fresh stripes, RMW, multi-page) falls into the general loop.
            lbn = offset // sb
            a = offset - lbn * sb
            gang, slot = self._gang_slot(lbn)
            row = int(self._maps[gang][slot])
            p = a // fp
            if row >= 0 and self._one_free(gang, row, p):
                self.stats.host_pages_written += 1
                self.stats.host_writes += 1
                el, local = self._element(gang, p)
                if el.program_page(row, local, slot, tag=tag, callback=done):
                    self.stats.flash_pages_programmed += 1
                else:
                    self._rescue_program(gang, row, p, slot, tag, done)
                return

        join = self.acquire_join(done)
        for lbn in range(offset // sb, (end - 1) // sb + 1):
            base = lbn * sb
            a = max(offset, base) - base
            b = min(end, base + sb) - base
            gang, slot = self._gang_slot(lbn)
            row = int(self._maps[gang][slot])
            p0, p1 = a // fp, (b - 1) // fp
            self.stats.host_pages_written += p1 - p0 + 1

            if row < 0:
                row = self._alloc_row(gang)
                self._maps[gang][slot] = row
                self._program_covered(gang, row, slot, p0, p1, join, tag)
            elif self._all_free(gang, row, p0, p1):
                self._program_covered(gang, row, slot, p0, p1, join, tag)
            else:
                self._rmw(gang, slot, row, a, b, join, tag)

        self.stats.host_writes += 1
        join.arm()

    def _one_free(self, gang: int, row: int, p: int) -> bool:
        el, local = self._element(gang, p)
        return el.page_state[row, local] == PageState.FREE

    def _all_free(self, gang: int, row: int, p0: int, p1: int) -> bool:
        for p in range(p0, p1 + 1):
            el, local = self._element(gang, p)
            if el.page_state[row, local] != PageState.FREE:
                return False
        return True

    def _program_covered(
        self,
        gang: int,
        row: int,
        slot: int,
        p0: int,
        p1: int,
        join: CompletionJoin,
        tag: str,
    ) -> None:
        """Program host pages in place (fresh stripe or pure append)."""
        for p in range(p0, p1 + 1):
            join.expect()
            row = self._program_with_rescue(gang, row, p, slot, tag,
                                            join.child_done)

    def _rmw(
        self,
        gang: int,
        slot: int,
        old_row: int,
        a: int,
        b: int,
        join: CompletionJoin,
        tag: str,
    ) -> None:
        """The read-modify-erase-write cycle of §3.4.

        Surviving pages are read out and reprogrammed at the same position
        of a freshly erased stripe; partially-overwritten pages need a real
        read to merge with host bytes; fully-overwritten pages are
        programmed directly.  The old stripe is erased in the background
        afterwards.

        Each gang element does its share in one
        :meth:`FlashElement.rewrite_row` call.  That equals the page-major
        loop of :meth:`_rmw_per_page` exactly: each element's FIFO gets the
        same ops in the same order, and the elements are visited in the
        order their first op comes up page-major, so idle elements draw
        their drain-event seqs in the same order too.  The join counts one
        completion per element share, not per op: a share's ops run back to
        back on its serial FIFO, so the join still fires at the event of the
        stripe's last op.  Gangs carrying a fault model keep the per-page
        loop, because a failed program must be rescued at its place in the
        global issue order.
        """
        new_row = self._alloc_row(gang)
        shards = self.shards
        elements = self.elements[gang * shards:(gang + 1) * shards]
        if any(el.fault_model is not None for el in elements):
            new_row = self._rmw_per_page(gang, slot, old_row, new_row, a, b,
                                         join, tag)
        else:
            fp = self.geometry.page_bytes
            ppb = self.geometry.pages_per_block
            p0, p1 = a // fp, (b - 1) // fp
            partial = [p for p in sorted({p0, p1})
                       if a > p * fp or b < (p + 1) * fp]
            shares = []
            for j, el in enumerate(elements):
                # covered local pages, then the local page of the element's
                # first op (its stripe page orders the elements below)
                lo = (p0 - j + shards - 1) // shards
                hi = max(lo, (p1 - j) // shards + 1)
                if lo == 0 < hi or el.page_state[old_row, 0] == PageState.VALID:
                    first = 0
                else:
                    valid = np.flatnonzero(el.page_state[old_row] == PageState.VALID)
                    first = min(int(valid[0]) if valid.size else ppb,
                                lo if lo < hi else ppb)
                part = tuple(p // shards for p in partial if p % shards == j)
                shares.append((first * shards + j, el, range(lo, hi), part))
            shares.sort(key=itemgetter(0))
            callback = join.child_done
            reads = programs = 0
            for _, el, covered, part in shares:
                r, w = el.rewrite_row(old_row, new_row, slot, covered, part,
                                      tag, callback)
                if w:
                    join.expect()  # the share's last op carries callback
                reads += r
                programs += w
            self.stats.rmw_pages_read += reads
            self.stats.flash_pages_programmed += programs
        self._maps[gang][slot] = new_row
        self._retire_row(gang, old_row)

    def _rmw_per_page(
        self,
        gang: int,
        slot: int,
        old_row: int,
        new_row: int,
        a: int,
        b: int,
        join: CompletionJoin,
        tag: str,
    ) -> int:
        """:meth:`_rmw` one stripe page at a time, in page-major order,
        rescuing failed programs as they happen; returns the row the stripe
        ended up in."""
        fp = self.geometry.page_bytes
        for p in range(self.pages_per_stripe):
            el, local = self._element(gang, p)
            state = el.page_state[old_row, local]
            ca = max(a, p * fp)
            cb = min(b, (p + 1) * fp)
            covered = cb - ca
            if covered <= 0:
                if state == PageState.VALID:
                    # surviving page: the simple controllers this FTL models
                    # read the data out and rewrite it (both legs cross the
                    # shared gang bus — no copy-back engine)
                    join.expect()
                    el.read_page(old_row, local, nbytes=fp, tag=tag,
                                 callback=join.child_done)
                    el.invalidate_state(old_row, local)
                    join.expect()
                    new_row = self._program_with_rescue(
                        gang, new_row, p, slot, tag, join.child_done
                    )
                    self.stats.rmw_pages_read += 1
                continue
            if state == PageState.VALID:
                if covered < fp:
                    # merge read before reprogramming the partial page
                    join.expect()
                    el.read_page(
                        old_row, local, nbytes=fp, tag=tag,
                        callback=join.child_done,
                    )
                    self.stats.rmw_pages_read += 1
                el.invalidate_state(old_row, local)
            join.expect()
            new_row = self._program_with_rescue(
                gang, new_row, p, slot, tag, join.child_done
            )
        return new_row

    def read(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]] = None,
        tag: str = TAG_HOST,
    ) -> None:
        self._check_range(offset, size)
        sb = self.stripe_bytes
        fp = self.geometry.page_bytes
        end = offset + size

        if (offset % fp) + size <= fp:
            # fast path: one flash page on one element (pages are aligned
            # within stripes, so one page implies one stripe); ``done``
            # rides directly on the single read op (holes complete via a
            # zero-delay event, preserving the no-reentrant-done contract)
            lbn = offset // sb
            base = lbn * sb
            a = offset - base
            gang, slot = self._gang_slot(lbn)
            row = int(self._maps[gang][slot])
            self.stats.host_pages_read += 1
            self.stats.host_reads += 1
            if row < 0:
                complete_async(self.sim, done)
                return
            p = a // fp
            el, local = self._element(gang, p)
            if el.page_state[row, local] != PageState.VALID:
                complete_async(self.sim, done)
                return
            el.read_page(row, local, nbytes=size, tag=tag, callback=done)
            return

        join = self.acquire_join(done)
        for lbn in range(offset // sb, (end - 1) // sb + 1):
            base = lbn * sb
            a = max(offset, base) - base
            b = min(end, base + sb) - base
            gang, slot = self._gang_slot(lbn)
            row = int(self._maps[gang][slot])
            p0, p1 = a // fp, (b - 1) // fp
            self.stats.host_pages_read += p1 - p0 + 1
            if row < 0:
                continue
            for p in range(p0, p1 + 1):
                el, local = self._element(gang, p)
                if el.page_state[row, local] != PageState.VALID:
                    continue
                ca = max(a, p * fp)
                cb = min(b, (p + 1) * fp)
                join.expect()
                el.read_page(
                    row, local, nbytes=cb - ca, tag=tag, callback=join.child_done
                )
        self.stats.host_reads += 1
        join.arm()

    def trim(self, offset: int, size: int) -> None:
        """FREE notification: wholly-covered stripes are unmapped and erased;
        wholly-covered pages of partly-covered stripes are invalidated so a
        later RMW stops copying them."""
        self._check_range(offset, size)
        sb = self.stripe_bytes
        fp = self.geometry.page_bytes
        end = offset + size
        self.stats.trims += 1

        for lbn in range(offset // sb, (end - 1) // sb + 1):
            base = lbn * sb
            a = max(offset, base) - base
            b = min(end, base + sb) - base
            gang, slot = self._gang_slot(lbn)
            row = int(self._maps[gang][slot])
            if row < 0:
                continue
            if a == 0 and b == sb:
                for p in range(self.pages_per_stripe):
                    el, local = self._element(gang, p)
                    if el.page_state[row, local] == PageState.VALID:
                        el.invalidate_state(row, local)
                        self.stats.trimmed_pages += 1
                self._maps[gang][slot] = -1
                self._retire_row(gang, row)
            else:
                first = -(-a // fp)
                last_excl = b // fp
                for p in range(first, last_excl):
                    el, local = self._element(gang, p)
                    if el.page_state[row, local] == PageState.VALID:
                        el.invalidate_state(row, local)
                        self.stats.trimmed_pages += 1

    # ------------------------------------------------------------------

    def _check_gang(self, gang: int) -> None:
        """Every row is mapped, pooled, retiring, or fully free; counts agree."""
        mapped = set(int(r) for r in self._maps[gang] if r >= 0)
        pool = set(self._pool[gang])
        retiring = set(self._retiring[gang])
        assert not mapped & pool, f"gang {gang}: mapped rows in pool"
        assert not mapped & retiring, f"gang {gang}: mapped rows retiring"
        assert not pool & retiring, f"gang {gang}: pooled rows retiring"
        for j in range(self.shards):
            el = self.elements[gang * self.shards + j]
            recount = (el.page_state == PageState.VALID).sum(axis=1)
            assert (recount == el.valid_count).all(), (
                f"element {gang * self.shards + j}: valid_count out of sync"
            )
            live = set(np.nonzero(el.valid_count > 0)[0].tolist())
            assert live <= mapped, (
                f"element {gang * self.shards + j}: valid pages outside "
                f"mapped rows: {sorted(live - mapped)[:5]}"
            )
            for row in sorted(pool):
                assert el.write_ptr[row] == 0, (
                    f"gang {gang}: pooled row {row} not erased"
                )
