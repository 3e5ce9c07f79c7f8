"""Unit tests for the flash element: timing, state machine, accounting."""

from __future__ import annotations

import pytest

from repro.flash.element import FlashElement, FlashStateError, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.ops import OpKind
from repro.flash.timing import FlashTiming
from repro.sim.engine import Simulator


@pytest.fixture
def element():
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=8, blocks_per_element=16)
    return sim, FlashElement(sim, geom, FlashTiming.slc(), element_id=0)


class TestTiming:
    def test_slc_read_duration(self):
        timing = FlashTiming.slc()
        # 2 (cmd) + 25 (array) + 4096 bytes at 40 MB/s
        expected = 2.0 + 25.0 + 4096 / (40 * 1024 * 1024 / 1e6)
        assert timing.read_us(4096) == pytest.approx(expected)

    def test_program_slower_than_read(self):
        timing = FlashTiming.slc()
        assert timing.program_us(4096) > timing.read_us(4096)

    def test_mlc_slower_and_weaker(self):
        slc, mlc = FlashTiming.slc(), FlashTiming.mlc()
        assert mlc.page_program_us > slc.page_program_us
        assert mlc.block_erase_us > slc.block_erase_us
        assert mlc.erase_cycles < slc.erase_cycles

    def test_copy_avoids_bus(self):
        timing = FlashTiming.slc()
        assert timing.copy_us(4096) < timing.read_us(4096) + timing.program_us(4096)

    def test_zero_transfer(self):
        assert FlashTiming.slc().transfer_us(0) == 0.0


class TestSerialExecution:
    def test_ops_execute_serially(self, element):
        sim, el = element
        times = []
        for _ in range(3):
            el.enqueue(OpKind.READ, nbytes=4096, callback=times.append)
        sim.run_until_idle()
        dur = el.timing.read_us(4096)
        assert times == pytest.approx([dur, 2 * dur, 3 * dur])

    def test_queue_wait_estimate(self, element):
        sim, el = element
        assert el.queue_wait_us() == 0.0
        el.enqueue(OpKind.READ, nbytes=4096)
        el.enqueue(OpKind.READ, nbytes=4096)
        dur = el.timing.read_us(4096)
        assert el.queue_wait_us() == pytest.approx(2 * dur)
        sim.run(max_events=1)
        assert el.queue_wait_us() == pytest.approx(dur)

    def test_busy_accounting_by_tag(self, element):
        sim, el = element
        el.enqueue(OpKind.READ, nbytes=4096, tag="host")
        el.enqueue(OpKind.ERASE, tag="clean")
        sim.run_until_idle()
        assert el.busy_us("host") == pytest.approx(el.timing.read_us(4096))
        assert el.busy_us("clean") == pytest.approx(el.timing.erase_us())
        assert el.busy_us() == pytest.approx(
            el.timing.read_us(4096) + el.timing.erase_us()
        )

    def test_idle_hook_fires_when_drained(self, element):
        sim, el = element
        idles = []
        el.on_idle = lambda: idles.append(sim.now)
        el.enqueue(OpKind.READ, nbytes=4096)
        sim.run_until_idle()
        assert len(idles) == 1


class TestDeepQueue:
    """Regression guards for the element FIFO at depth (the seed used a
    list with O(n) pop(0), which went quadratic on deep queues)."""

    def test_deep_queue_completes_in_order_with_exact_clock(self, element):
        sim, el = element
        times = []
        depth = 500
        for _ in range(depth):
            el.enqueue(OpKind.READ, nbytes=4096, callback=times.append)
        assert el.queue_depth == depth
        dur = el.timing.read_us(4096)
        assert el.queue_wait_us() == pytest.approx(depth * dur)
        sim.run_until_idle()
        assert times == pytest.approx([dur * (i + 1) for i in range(depth)])
        assert el.idle
        assert el.ops_by_tag["host"] == depth

    def test_deep_queue_wall_time_is_not_quadratic(self):
        # 50k queued ops: O(1) popleft finishes in well under a second;
        # the old list.pop(0) took multiple seconds.  The generous bound
        # keeps this stable on slow CI while still catching O(n) re-entry.
        import time

        sim = Simulator()
        geom = FlashGeometry(page_bytes=4096, pages_per_block=8,
                             blocks_per_element=16)
        el = FlashElement(sim, geom, FlashTiming.slc())
        count = 50_000
        start = time.perf_counter()
        for _ in range(count):
            el.enqueue(OpKind.READ, nbytes=4096)
        sim.run_until_idle()
        elapsed = time.perf_counter() - start
        assert el.ops_by_tag["host"] == count
        assert elapsed < 5.0, f"deep FIFO took {elapsed:.1f}s — O(n) pop again?"


class TestOpIssue:
    """The FIFO holds ``(duration_us, acc, callback)`` entries: every issue
    path, ``enqueue`` included, queues a plain tuple and no op object."""

    def test_internal_issue_builds_no_flash_op(self, element):
        sim, el = element
        el.strict_program_order = False
        el.program_state(0, 0, lpn=1)
        for _ in range(4):
            el.read_page(0, 0)
        el.program_page(0, 1, lpn=2)
        # row 0's two valid pages move to row 2 with page 2 written
        assert el.rewrite_row(0, 2, 3, range(2, 3), (), "host", None) == (2, 3)
        el.enqueue(OpKind.ERASE)
        assert el.queue_depth == 4 + 1 + 5 + 1
        entries = [el._inflight, *el._queue]
        assert {type(entry) for entry in entries} == {tuple}
        assert all(len(entry) == 3 for entry in entries)
        sim.run_until_idle()
        assert el.ops_by_tag == {"host": 11}

    def test_enqueue_fires_at_its_duration_under_its_tag(self, element):
        sim, el = element
        times = []
        el.enqueue(OpKind.READ, nbytes=4096, tag="clean",
                   callback=times.append)
        dur = el.timing.read_us(4096)
        assert el.drain_at_us == dur
        sim.run_until_idle()
        assert times == [dur]
        assert el.ops_by_tag == {"clean": 1}
        assert el.busy_us("clean") == dur


class TestStateMachine:
    def test_program_requires_free(self, element):
        _sim, el = element
        el.program_state(0, 0, lpn=7)
        with pytest.raises(FlashStateError):
            el.program_state(0, 0, lpn=8)

    def test_program_in_order_enforced(self, element):
        _sim, el = element
        with pytest.raises(FlashStateError):
            el.program_state(0, 3, lpn=1)

    def test_out_of_order_allowed_when_relaxed(self, element):
        _sim, el = element
        el.strict_program_order = False
        el.program_state(0, 3, lpn=1)
        assert el.write_ptr[0] == 4
        el.program_state(0, 1, lpn=2)  # below write_ptr, still free
        assert el.write_ptr[0] == 4

    def test_invalidate_requires_valid(self, element):
        _sim, el = element
        with pytest.raises(FlashStateError):
            el.invalidate_state(0, 0)
        el.program_state(0, 0, lpn=1)
        el.invalidate_state(0, 0)
        with pytest.raises(FlashStateError):
            el.invalidate_state(0, 0)

    def test_erase_requires_no_valid_pages(self, element):
        _sim, el = element
        el.program_state(0, 0, lpn=1)
        with pytest.raises(FlashStateError):
            el.erase_state(0)
        el.invalidate_state(0, 0)
        el.erase_state(0)
        assert el.write_ptr[0] == 0
        assert el.erase_count[0] == 1
        assert (el.page_state[0] == PageState.FREE).all()

    def test_valid_count_tracks_transitions(self, element):
        _sim, el = element
        for page in range(4):
            el.program_state(0, page, lpn=page)
        assert el.valid_count[0] == 4
        el.invalidate_state(0, 1)
        assert el.valid_count[0] == 3

    def test_read_check_rejects_free_page(self, element):
        _sim, el = element
        with pytest.raises(FlashStateError):
            el.read_state_check(0, 0)

    def test_retirement_after_rated_cycles(self):
        sim = Simulator()
        geom = FlashGeometry(pages_per_block=4, blocks_per_element=2)
        timing = FlashTiming.slc().scaled(erase_cycles=3)
        el = FlashElement(sim, geom, timing)
        for _ in range(3):
            el.erase_state(0)
        assert el.retired[0]
        assert not el.retired[1]


class TestCopyPage:
    def test_copy_moves_validity_and_tag(self, element):
        sim, el = element
        el.program_state(0, 0, lpn=42)
        el.copy_page(0, 0, 1, 0, lpn=42)
        sim.run_until_idle()
        assert el.page_state[0, 0] == PageState.INVALID
        assert el.page_state[1, 0] == PageState.VALID
        assert el.reverse_lpn[1, 0] == 42
        assert el.reverse_lpn[0, 0] == -1


class TestRewriteRow:
    """``rewrite_row`` against the per-page read/invalidate/program
    sequence a stripe read-modify-write would otherwise issue."""

    COVERED = range(3, 6)
    PARTIAL = (3,)

    @staticmethod
    def _aged(busy, full=False):
        sim = Simulator()
        geom = FlashGeometry(page_bytes=4096, pages_per_block=8,
                             blocks_per_element=16)
        # S2slc's shared gang bus: durations whose float sums round
        timing = FlashTiming.slc().scaled(bus_mb_per_s=40.0 / 8)
        el = FlashElement(sim, geom, timing, element_id=3)
        el.strict_program_order = False
        if full:
            for page in range(8):
                el.program_state(0, page, lpn=9)
        else:
            # old row 0: valid {0, 1, 3, 5, 6}, invalid {2}, free {4, 7}
            for page in (0, 1, 2, 3, 5, 6):
                el.program_state(0, page, lpn=9)
            el.invalidate_state(0, 2)
        # an off-grid clock and odd-sized queued ops make the float sums
        # sensitive to the order the durations are added in
        sim.schedule(0.3, lambda: None)
        sim.run_until_idle()
        if busy:
            for nbytes in (1000, 3001, 777):
                el.enqueue(OpKind.READ, nbytes)
        return sim, el

    @staticmethod
    def _per_page(el, old_row, new_row, lpn, covered, partial, done):
        for local in range(el.geometry.pages_per_block):
            valid = el.page_state[old_row, local] == PageState.VALID
            if local not in covered:
                if valid:
                    el.read_page(old_row, local, callback=done)
                    el.invalidate_state(old_row, local)
                    el.program_page(new_row, local, lpn, callback=done)
                continue
            if valid:
                if local in partial:
                    el.read_page(old_row, local, callback=done)
                el.invalidate_state(old_row, local)
            el.program_page(new_row, local, lpn, callback=done)

    @pytest.mark.parametrize("busy", [False, True])
    def test_matches_per_page_issue(self, busy):
        # reads: uncovered valid {0, 1, 6} + partial valid {3}; programs:
        # uncovered valid {0, 1, 6} + covered {3, 4, 5}
        self._check_against_per_page(busy, full=False, counts=(4, 6))

    @pytest.mark.parametrize("busy", [False, True])
    def test_full_row_matches_per_page_issue(self, busy):
        # every page valid: whole-row transitions; reads: all but the
        # wholly covered {4, 5}
        self._check_against_per_page(busy, full=True, counts=(6, 8))

    def _check_against_per_page(self, busy, full, counts):
        sim_a, batched = self._aged(busy, full)
        sim_b, reference = self._aged(busy, full)
        done_a, done_b = [], []
        assert batched.rewrite_row(0, 5, 9, self.COVERED, self.PARTIAL,
                                   "host", done_a.append) == counts
        self._per_page(reference, 0, 5, 9, self.COVERED, self.PARTIAL,
                       done_b.append)
        for name in ("page_state", "reverse_lpn", "valid_count", "write_ptr",
                     "block_mtime"):
            assert (getattr(batched, name) == getattr(reference, name)).all()
        for name in ("pages_read", "pages_programmed", "drain_at_us"):
            assert getattr(batched, name) == getattr(reference, name)
        # entry for entry, in-flight command first
        assert ([entry[0] for entry in (batched._inflight, *batched._queue)]
                == [entry[0] for entry in (reference._inflight,
                                           *reference._queue)])
        assert batched._drain.time == reference._drain.time
        sim_a.run_until_idle()
        sim_b.run_until_idle()
        assert (sim_a.now, sim_a.events_run) == (sim_b.now, sim_b.events_run)
        # one completion for the share, when its last op finishes
        assert len(done_b) == sum(counts)
        assert done_a == [done_b[-1]]
        assert batched.ops_by_tag == reference.ops_by_tag
        assert batched.busy_us() == reference.busy_us()

    def test_rejects_a_destination_row_that_is_not_erased(self):
        _sim, el = self._aged(busy=False)
        el.program_state(5, 4, lpn=1)
        before = el.page_state.copy()
        with pytest.raises(FlashStateError,
                           match=r"element 3: rewrite .* page \(5, 4\)"):
            el.rewrite_row(0, 5, 9, self.COVERED, self.PARTIAL, "host", None)
        # the check runs before any transition or issue
        assert (el.page_state == before).all()
        assert el.idle and el.pages_read == 0

    def test_only_checks_the_destination_pages_it_programs(self):
        _sim, el = self._aged(busy=False)
        el.program_state(5, 7, lpn=1)  # page 7: free in row 0, uncovered
        assert el.rewrite_row(0, 5, 9, self.COVERED, self.PARTIAL, "host",
                              None) == (4, 6)
        assert el.reverse_lpn[5].tolist() == [9, 9, -1, 9, 9, 9, 9, 1]
