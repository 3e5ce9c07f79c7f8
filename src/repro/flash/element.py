"""One flash element: serial timed command execution + physical page state.

The element plays two roles:

1. **Timed executor.**  Commands (:class:`repro.flash.ops.FlashOp`) are
   enqueued FIFO and executed one at a time — a flash die can only do one
   array operation at once.  Completion callbacks fire on the simulator
   clock.  ``queue_wait_us()`` exposes the estimated wait, which is exactly
   the quantity the paper's SWTF scheduler (§3.2) ranks requests by.

   The executor is built for throughput: the FIFO is a ``deque`` (O(1) at
   both ends), completions are realized by a single reusable *drain* event
   per element (no per-op Event allocation), ops are recycled through a
   per-element free list, durations come from a memoized per-(kind, size)
   cache, and per-tag busy accounting uses accumulator cells bound at
   enqueue time instead of dict updates per completion.

2. **Physical page state machine.**  Every physical page is FREE → VALID →
   INVALID → (erase) → FREE.  State transitions are *synchronous* — the FTL
   updates them at command issue so that back-to-back commands in the queue
   observe consistent mappings; the element enforces legality (no program of
   a non-free page, no double-invalidate, erase resets the block).

State is held in numpy arrays so multi-GB devices stay compact and warm-up
(:mod:`repro.ftl.prefill`) can bulk-initialize.  Hot scalar accesses go
through memoryviews over the same buffers — plain-int reads without numpy
scalar boxing — so bulk operations stay vectorized while the per-op path
stays cheap.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.ops import FlashOp, OpKind, TAG_CLEAN, TAG_HOST
from repro.flash.timing import FlashTiming
from repro.sim.engine import Event, Simulator

__all__ = ["PageState", "FlashElement", "FlashStateError"]


class FlashStateError(RuntimeError):
    """An illegal physical page state transition was attempted."""


class PageState:
    """Physical page states (stored as uint8 in the state arrays)."""

    __slots__ = ()

    FREE = 0
    VALID = 1
    INVALID = 2


class FlashElement:
    """A single parallel element (package/die) of an SSD."""

    __slots__ = (
        "sim", "geometry", "timing", "element_id",
        "page_state", "reverse_lpn", "valid_count", "write_ptr",
        "erase_count", "block_mtime", "retired",
        "_ps", "_rl", "_vc", "_wp", "_ec", "_mt", "_rt",
        "_queue", "_inflight", "_inflight_done_at", "_queued_us",
        "drain_at_us", "_op_pool", "_drain",
        "_page_bytes", "_page_read_us", "_page_program_us",
        "_erase_cmd_us", "_page_copy_us",
        "_accum", "erases_performed", "pages_programmed", "pages_read",
        "read_retries", "fault_model", "on_idle", "strict_program_order",
        "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        geometry: FlashGeometry,
        timing: FlashTiming,
        element_id: int = 0,
    ) -> None:
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.element_id = element_id

        blocks = geometry.blocks_per_element
        ppb = geometry.pages_per_block

        #: per-page state, PageState values
        self.page_state = np.zeros((blocks, ppb), dtype=np.uint8)
        #: logical page tag per physical page (-1 when free/invalid); the FTL
        #: uses this as its reverse map during cleaning
        self.reverse_lpn = np.full((blocks, ppb), -1, dtype=np.int64)
        #: valid pages per block (kept in sync with page_state)
        self.valid_count = np.zeros(blocks, dtype=np.int32)
        #: pages written so far per block: NAND requires in-order programming
        self.write_ptr = np.zeros(blocks, dtype=np.int32)
        #: erase cycles endured per block
        self.erase_count = np.zeros(blocks, dtype=np.int64)
        #: simulated time of the last write to each block (for cost-benefit)
        self.block_mtime = np.zeros(blocks, dtype=np.float64)
        #: blocks retired after exceeding rated erase cycles
        self.retired = np.zeros(blocks, dtype=bool)

        # memoryviews over the arrays above: scalar reads/writes without
        # numpy boxing; bulk/vectorized users keep the numpy handles
        self._ps = memoryview(self.page_state)
        self._rl = memoryview(self.reverse_lpn)
        self._vc = memoryview(self.valid_count)
        self._wp = memoryview(self.write_ptr)
        self._ec = memoryview(self.erase_count)
        self._mt = memoryview(self.block_mtime)
        self._rt = memoryview(self.retired)

        # timed-executor state
        self._queue: deque[FlashOp] = deque()
        self._inflight: Optional[FlashOp] = None
        self._inflight_done_at: float = 0.0
        self._queued_us: float = 0.0  # total duration of queued (not inflight) ops
        #: absolute simulated time at which everything currently enqueued
        #: (inflight + FIFO) finishes.  Updated O(1) at enqueue only: popping
        #: the next op moves work from the FIFO to the in-flight slot without
        #: changing when the tail drains, and an idle element simply leaves a
        #: stale (past) value behind — ``max(drain_at_us, now) - now`` is the
        #: element's queue wait.  Monotonically non-decreasing, which is the
        #: property the SWTF scheduler's lazy heap relies on.
        self.drain_at_us: float = 0.0
        #: recycled FlashOp instances (slab; see module docstring of ops)
        self._op_pool: list[FlashOp] = []
        #: the one drain event realizing this element's FIFO on the clock
        self._drain = Event(0.0, -1, self._on_drain, ())
        self._drain.alive = False

        # per-page-command durations for the overwhelmingly common sizes
        page_bytes = geometry.page_bytes
        self._page_bytes = page_bytes
        self._page_read_us = timing.duration_us(OpKind.READ, page_bytes)
        self._page_program_us = timing.duration_us(OpKind.PROGRAM, page_bytes)
        self._erase_cmd_us = timing.duration_us(OpKind.ERASE, 0)
        self._page_copy_us = timing.duration_us(OpKind.COPY, page_bytes)

        # accounting: tag -> [busy_us, op_count]; ops hold their cell
        self._accum: dict[str, list] = {}
        self.erases_performed = 0
        self.pages_programmed = 0
        self.pages_read = 0
        #: read-retry steps endured (transient read errors, faults only)
        self.read_retries = 0

        #: optional :class:`repro.flash.faults.FaultModel`; None (the
        #: default) means a flawless medium — every hook below is guarded
        #: so fault-free runs stay bit-identical
        self.fault_model = None

        #: optional hook invoked whenever the element becomes idle
        self.on_idle: Optional[Callable[[], None]] = None
        #: NAND in-order programming enforcement.  Log-structured FTLs keep
        #: this True; the block-mapped FTL programs pages in place at
        #: arbitrary offsets (legal on the SLC-era parts it models) and
        #: turns it off.
        self.strict_program_order: bool = True

    # ------------------------------------------------------------------
    # timed execution
    # ------------------------------------------------------------------

    def enqueue(self, op: FlashOp) -> None:
        """Queue a command for serial execution on this element."""
        op.duration_us = self.timing.duration_us(op.kind, op.nbytes)
        self._submit(op)

    def _submit(self, op: FlashOp) -> None:
        accum = self._accum
        acc = accum.get(op.tag)
        if acc is None:
            acc = accum[op.tag] = [0.0, 0]
        op.acc = acc
        if self._inflight is None:
            self._inflight = op
            done_at = self.sim.now + op.duration_us
            self._inflight_done_at = done_at
            self.drain_at_us = done_at
            self.sim.reschedule(self._drain, done_at)
        else:
            self._queue.append(op)
            self._queued_us += op.duration_us
            self.drain_at_us += op.duration_us

    def _issue(self, kind: OpKind, nbytes: int, tag: str,
               callback: Optional[Callable[[float], None]],
               duration_us: float) -> None:
        """Issue an internally-built (recyclable) op; hot path.

        Body mirrors :meth:`_submit` with the slab acquire fused in — this
        runs once per flash command, so the extra call layer is worth
        eliding.
        """
        pool = self._op_pool
        if pool:
            op = pool.pop()
            op.kind = kind
            op.nbytes = nbytes
            op.tag = tag
            op.callback = callback
            op.duration_us = duration_us
        else:
            op = FlashOp(kind, nbytes, tag, callback, duration_us)
            op._pooled = True
        accum = self._accum
        acc = accum.get(tag)
        if acc is None:
            acc = accum[tag] = [0.0, 0]
        op.acc = acc
        if self._inflight is None:
            self._inflight = op
            done_at = self.sim.now + duration_us
            self._inflight_done_at = done_at
            self.drain_at_us = done_at
            self.sim.reschedule(self._drain, done_at)
        else:
            self._queue.append(op)
            self._queued_us += duration_us
            self.drain_at_us += duration_us

    def _on_drain(self) -> None:
        """The in-flight command finished: account, start the next, notify."""
        op = self._inflight
        acc = op.acc
        acc[0] += op.duration_us
        acc[1] += 1
        queue = self._queue
        if queue:
            nxt = queue.popleft()
            self._queued_us -= nxt.duration_us
            self._inflight = nxt
            done_at = self.sim.now + nxt.duration_us
            self._inflight_done_at = done_at
            self.sim.reschedule(self._drain, done_at)
        else:
            self._inflight = None
        callback = op.callback
        if op._pooled:
            op.callback = None
            op.acc = None
            self._op_pool.append(op)
        if callback is not None:
            callback(self.sim.now)
        if self._inflight is None and not queue and self.on_idle is not None:
            self.on_idle()

    @property
    def idle(self) -> bool:
        return self._inflight is None and not self._queue

    @property
    def queue_depth(self) -> int:
        depth = len(self._queue)
        if self._inflight is not None:
            depth += 1
        return depth

    def queue_wait_us(self) -> float:
        """Estimated wait before a newly enqueued op would start executing.

        This is the remaining time of the in-flight command plus the summed
        durations of everything queued behind it — the quantity SWTF uses.
        """
        wait = self._queued_us
        if self._inflight is not None:
            remaining = self._inflight_done_at - self.sim.now
            if remaining > 0.0:
                wait += remaining
        return wait

    @property
    def ops_by_tag(self) -> dict[str, int]:
        """Completed op count per accounting tag."""
        return {tag: acc[1] for tag, acc in self._accum.items()}

    def busy_us(self, tag: Optional[str] = None) -> float:
        """Total busy time, optionally restricted to one accounting tag."""
        if tag is not None:
            acc = self._accum.get(tag)
            return acc[0] if acc is not None else 0.0
        return sum(acc[0] for acc in self._accum.values())

    # ------------------------------------------------------------------
    # physical state transitions (synchronous; called by the FTL at issue)
    # ------------------------------------------------------------------

    def program_state(self, block: int, page: int, lpn: int,
                      op: str = "program", tag: Optional[str] = None) -> None:
        """Mark (block, page) programmed with logical page *lpn*.

        Enforces NAND in-order programming within a block.  *op* and *tag*
        only enrich the error message when the transition is illegal.
        """
        if self._ps[block, page] != PageState.FREE:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of non-free "
                f"page ({block}, {page}) state={self.page_state[block, page]}"
            )
        write_ptr = self._wp[block]
        if self.strict_program_order and page != write_ptr:
            raise FlashStateError(
                f"element {self.element_id}: out-of-order {op} (tag={tag}) of "
                f"page {page} in block {block} "
                f"(write_ptr={self.write_ptr[block]})"
            )
        self._ps[block, page] = PageState.VALID
        self._rl[block, page] = lpn
        self._vc[block] += 1
        if page >= write_ptr:
            self._wp[block] = page + 1
        self._mt[block] = self.sim.now
        self.pages_programmed += 1

    def invalidate_state(self, block: int, page: int,
                         op: str = "invalidate",
                         tag: Optional[str] = None) -> None:
        """Mark a previously valid page invalid (its data was superseded)."""
        if self._ps[block, page] != PageState.VALID:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of non-valid "
                f"page ({block}, {page}) state={self.page_state[block, page]}"
            )
        self._ps[block, page] = PageState.INVALID
        self._rl[block, page] = -1
        self._vc[block] -= 1

    def erase_state(self, block: int, op: str = "erase",
                    tag: Optional[str] = None) -> None:
        """Reset a block to all-free and charge one erase cycle."""
        if self._vc[block] != 0:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of block "
                f"{block} with {self.valid_count[block]} valid pages"
            )
        self.page_state[block, :] = PageState.FREE
        self.reverse_lpn[block, :] = -1
        self._wp[block] = 0
        count = self._ec[block] + 1
        self._ec[block] = count
        self.erases_performed += 1
        if count >= self.timing.erase_cycles:
            self._rt[block] = True

    def read_state_check(self, block: int, page: int, op: str = "read",
                         tag: Optional[str] = None) -> None:
        """Sanity check that a read targets a valid page."""
        if self._ps[block, page] != PageState.VALID:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of non-valid "
                f"page ({block}, {page}) state={self.page_state[block, page]}"
            )

    def _burn_page(self, block: int, page: int, op: str, tag: str) -> None:
        """A program failed on (block, page): the page is consumed (the
        write pointer advances, state goes INVALID) but holds no data."""
        ps = self._ps
        if ps[block, page] != PageState.FREE:
            self.program_state(block, page, -1, op=op, tag=tag)  # raises
        wp = self._wp
        write_ptr = wp[block]
        if self.strict_program_order and page != write_ptr:
            self.program_state(block, page, -1, op=op, tag=tag)  # raises
        ps[block, page] = PageState.INVALID
        if page >= write_ptr:
            wp[block] = page + 1

    # ------------------------------------------------------------------
    # convenience issue helpers (state transition + timed command)
    # ------------------------------------------------------------------

    def read_page(
        self,
        block: int,
        page: int,
        nbytes: Optional[int] = None,
        tag: str = TAG_HOST,
        callback: Optional[Callable[[float], None]] = None,
    ) -> None:
        if self._ps[block, page] != PageState.VALID:
            self.read_state_check(block, page, tag=tag)  # raises with detail
        self.pages_read += 1
        if nbytes is None or nbytes == self._page_bytes:
            nbytes = self._page_bytes
            duration = self._page_read_us
        else:
            duration = self.timing.duration_us(OpKind.READ, nbytes)
        fm = self.fault_model
        if fm is not None:
            steps = fm.draw_read_retries(block, page)
            if steps:
                # transient read error: each retry step re-reads the page
                # with shifted thresholds, paying escalating latency
                self.read_retries += steps
                duration += fm.retry_penalty_us(steps)
        self._issue(OpKind.READ, nbytes, tag, callback, duration)

    def program_page(
        self,
        block: int,
        page: int,
        lpn: int,
        nbytes: Optional[int] = None,
        tag: str = TAG_HOST,
        callback: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Program a page.  Returns False when fault injection failed the
        program: the page is burned (consumed, INVALID), the op's time is
        charged, and the caller's *callback* does NOT ride the op — the
        caller must redirect the write and retire the block."""
        # state transition inlined from program_state (one call per host
        # write; the checks are identical)
        ps = self._ps
        if ps[block, page] != 0:  # PageState.FREE
            self.program_state(block, page, lpn, tag=tag)  # raises with detail
        wp = self._wp
        write_ptr = wp[block]
        if self.strict_program_order and page != write_ptr:
            self.program_state(block, page, lpn, tag=tag)  # raises with detail
        if nbytes is None or nbytes == self._page_bytes:
            nbytes = self._page_bytes
            duration = self._page_program_us
        else:
            duration = self.timing.duration_us(OpKind.PROGRAM, nbytes)
        fm = self.fault_model
        if fm is not None and fm.draw_program_failure(block, page):
            ps[block, page] = 2  # PageState.INVALID: burned
            if page >= write_ptr:
                wp[block] = page + 1
            self._issue(OpKind.PROGRAM, nbytes, tag, None, duration)
            return False
        ps[block, page] = 1  # PageState.VALID
        self._rl[block, page] = lpn
        self._vc[block] += 1
        if page >= write_ptr:
            wp[block] = page + 1
        self._mt[block] = self.sim.now
        self.pages_programmed += 1
        self._issue(OpKind.PROGRAM, nbytes, tag, callback, duration)
        return True

    def erase_block(
        self,
        block: int,
        tag: str = TAG_CLEAN,
        callback: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Erase a block.  Returns False when fault injection failed the
        erase: the block becomes a grown bad block (``retired`` set, pages
        left as-is, no cycle charged).  Time is still charged and the
        callback still fires — callers chain state machines off it — but
        the block must never be re-pooled."""
        fm = self.fault_model
        if fm is not None and fm.draw_erase_failure(block, self._ec[block]):
            if self._vc[block] != 0:
                self.erase_state(block, tag=tag)  # raises with full detail
            self._rt[block] = True
            self._issue(OpKind.ERASE, 0, tag, callback, self._erase_cmd_us)
            return False
        self.erase_state(block, tag=tag)
        self._issue(OpKind.ERASE, 0, tag, callback, self._erase_cmd_us)
        return True

    def copy_page(
        self,
        src_block: int,
        src_page: int,
        dst_block: int,
        dst_page: int,
        lpn: int,
        tag: str = TAG_CLEAN,
        callback: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Copy-back a valid page to a free page within this element.

        Returns False when fault injection failed the program half: the
        destination page is burned, the source page stays VALID (the data
        was never lost from the medium), time is charged, and the caller's
        *callback* does not ride the op — the caller retries elsewhere."""
        # transitions inlined from read_state_check + invalidate_state +
        # program_state (cleaning-heavy runs do one copy per moved page)
        ps = self._ps
        if ps[src_block, src_page] != 1:  # PageState.VALID
            self.read_state_check(src_block, src_page, op="copy", tag=tag)
        fm = self.fault_model
        if fm is not None and fm.draw_program_failure(dst_block, dst_page):
            # draw BEFORE invalidating the source: a failed copy-back can
            # always be retried from the still-valid source page
            self._burn_page(dst_block, dst_page, "copy", tag)
            self.pages_read += 1
            self._issue(OpKind.COPY, self._page_bytes, tag, None,
                        self._page_copy_us)
            return False
        rl = self._rl
        ps[src_block, src_page] = 2  # PageState.INVALID
        rl[src_block, src_page] = -1
        vc = self._vc
        vc[src_block] -= 1
        if ps[dst_block, dst_page] != 0:  # PageState.FREE
            self.program_state(dst_block, dst_page, lpn, op="copy", tag=tag)
        wp = self._wp
        write_ptr = wp[dst_block]
        if self.strict_program_order and dst_page != write_ptr:
            self.program_state(dst_block, dst_page, lpn, op="copy", tag=tag)
        ps[dst_block, dst_page] = 1  # PageState.VALID
        rl[dst_block, dst_page] = lpn
        vc[dst_block] += 1
        if dst_page >= write_ptr:
            wp[dst_block] = dst_page + 1
        self._mt[dst_block] = self.sim.now
        self.pages_programmed += 1
        self.pages_read += 1
        self._issue(OpKind.COPY, self._page_bytes, tag, callback,
                    self._page_copy_us)
        return True

    def rewrite_row(
        self,
        old_row: int,
        new_row: int,
        lpn: int,
        covered: range,
        partial: tuple,
        tag: str,
        callback: Optional[Callable[[float], None]],
    ) -> tuple[int, int]:
        """This element's share of a stripe read-modify-write: every valid
        page of *old_row* moves to the same local page of the erased
        *new_row*, merged with a host write covering the local pages in
        *covered* (those in *partial* only partly).

        Equals, op for op, visiting the local pages in ascending order and
        calling ``read_page`` / ``invalidate_state`` / ``program_page`` on
        each: an uncovered valid page is read and reprogrammed, a partly
        covered valid page is read for the merge, and every covered page is
        programmed; every op carries *callback* and the programmed pages
        are tagged *lpn*.  The state transitions are numpy row operations;
        the ops enter the FIFO from one loop that accumulates
        ``drain_at_us`` and ``_queued_us`` op by op, so the clock stays
        bit-identical to per-page issue.  A fault-free element only (no
        read-retry or program-failure draws).  Returns ``(pages read,
        pages programmed)``."""
        if self.fault_model is not None or self.strict_program_order:
            raise FlashStateError(
                f"element {self.element_id}: row rewrite needs a fault-free "
                "element with relaxed program order"
            )
        ps = self.page_state
        valid = ps[old_row] == PageState.VALID
        prog = valid.copy()
        prog[covered.start:covered.stop] = True
        programs = int(np.count_nonzero(prog))
        if not programs:
            return 0, 0
        taken = prog & (ps[new_row] != PageState.FREE)
        if taken.any():
            self.program_state(new_row, int(taken.argmax()), lpn,
                               op="rewrite", tag=tag)  # raises with detail
        read = valid.copy()
        read[covered.start:covered.stop] = False
        for local in partial:
            read[local] = valid[local]
        reads = int(np.count_nonzero(read))

        rl = self.reverse_lpn
        moved = int(np.count_nonzero(valid))
        if moved:
            ps[old_row, valid] = PageState.INVALID
            rl[old_row, valid] = -1
            self._vc[old_row] -= moved
        ps[new_row, prog] = PageState.VALID
        rl[new_row, prog] = lpn
        self._vc[new_row] += programs
        end = len(prog) - int(prog[::-1].argmax())
        if end > self._wp[new_row]:
            self._wp[new_row] = end
        sim = self.sim
        self._mt[new_row] = sim.now
        self.pages_read += reads
        self.pages_programmed += programs

        # issue order: per local page, its read (if any) before its program
        codes = (np.flatnonzero(np.column_stack((read, prog))) & 1).tolist()
        kinds = (OpKind.READ, OpKind.PROGRAM)
        durations = (self._page_read_us, self._page_program_us)
        nbytes = self._page_bytes
        accum = self._accum
        acc = accum.get(tag)
        if acc is None:
            acc = accum[tag] = [0.0, 0]
        pool = self._op_pool
        queue = self._queue
        queued = self._queued_us
        drain_at = self.drain_at_us
        idle = self._inflight is None
        for code in codes:
            duration = durations[code]
            if pool:
                op = pool.pop()
                op.kind = kinds[code]
                op.nbytes = nbytes
                op.tag = tag
                op.callback = callback
                op.duration_us = duration
            else:
                op = FlashOp(kinds[code], nbytes, tag, callback, duration)
                op._pooled = True
            op.acc = acc
            if idle:
                idle = False
                self._inflight = op
                drain_at = sim.now + duration
                self._inflight_done_at = drain_at
                sim.reschedule(self._drain, drain_at)
            else:
                queue.append(op)
                queued += duration
                drain_at += duration
        self._queued_us = queued
        self.drain_at_us = drain_at
        return reads, programs

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlashElement {self.element_id} qd={self.queue_depth} "
            f"erases={self.erases_performed}>"
        )
