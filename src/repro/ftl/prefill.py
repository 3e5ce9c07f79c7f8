"""Zero-time steady-state warmup for cleaning experiments.

The paper's cleaning experiments (Tables 5/6, Figure 3) run on devices that
are already *full* — cleaning only matters once the free pool is scarce and
invalid pages are scattered.  Simulating hours of fill traffic event by
event would dominate run time, so these helpers bulk-initialize FTL state
directly (mappings, page states, counters), bypassing the event loop, and
leave the device exactly as if the fill had been simulated:
``check_consistency`` passes afterwards, which the test suite asserts.

``overwrite_fraction`` performs a second pass of random logical-page
rewrites so invalid pages scatter across blocks — the steady state a real
aged device is in.  The pass draws every rewrite first, then ages one
element at a time.  That is exact because elements are independent during
aging: an element's map slots, write frontier, free-block pool, free count
and victim choice are its own, and no rewrite or clean on one element reads
another's state (the only shared writes are the additive
``stats.blocks_retired`` count and the allocation epoch, taken once at the
end).  So walking each element's rewrites in draw order leaves the same
state as walking all rewrites in draw order.  The zero-time cleans move a
victim's valid pages as one numpy run per destination block.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import List, Optional, Union

import numpy as np

from repro.flash.element import PageState
from repro.ftl.base import _ALLOC_EPOCH
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.hybrid import HybridLogBlockFTL
from repro.ftl.pagemap import PageMappedFTL

__all__ = ["prefill_pagemap", "prefill_stripe_ftl"]

_FREE, _VALID, _INVALID = (
    int(PageState.FREE), int(PageState.VALID), int(PageState.INVALID)
)


def prefill_pagemap(
    ftl: PageMappedFTL,
    fill_fraction: float = 0.9,
    overwrite_fraction: float = 0.0,
    rng: Optional[random.Random] = None,
) -> int:
    """Fill the first ``fill_fraction`` of the logical space, then rewrite a
    further ``overwrite_fraction`` of it at random.  Returns the number of
    logical pages mapped."""
    if not 0.0 <= fill_fraction <= 1.0:
        raise ValueError(f"fill_fraction must be in [0, 1], got {fill_fraction}")
    if overwrite_fraction < 0.0:
        raise ValueError("overwrite_fraction must be non-negative")

    geom = ftl.geometry
    ppb = geom.pages_per_block
    count = int(fill_fraction * ftl.user_logical_pages)

    for e_idx, el in enumerate(ftl.elements):
        gang = e_idx // ftl.shards
        # logical pages gang, gang+n_gangs, ... < count land here, at
        # consecutive map slots 0..n-1
        n = len(range(gang, count, ftl.n_gangs))
        if n == 0:
            continue
        emap = ftl._maps[e_idx]
        pool = ftl._pool[e_idx]
        n_blocks = -(-n // ppb)
        if n_blocks > len(pool):
            raise ValueError(
                f"element {e_idx}: fill needs {n_blocks} blocks, pool has "
                f"{len(pool)} (reduce fill_fraction)"
            )
        # batch carve + bulk state writes: one numpy assignment per array
        # instead of one per block (state identical to the seed's per-block
        # loop — blocks leave the pool in the same FIFO order and map to
        # the same consecutive slot runs)
        blocks = np.asarray(pool.pop_fifo_many(n_blocks), dtype=np.int64)
        tail = n % ppb
        full = blocks if tail == 0 else blocks[:-1]
        n_full_pages = len(full) * ppb
        if len(full):
            el.page_state[full, :] = PageState.VALID
            el.reverse_lpn[full, :] = np.arange(n_full_pages).reshape(-1, ppb)
            el.valid_count[full] = ppb
            el.write_ptr[full] = ppb
            emap[:n_full_pages] = (
                full[:, None] * ppb + np.arange(ppb)
            ).ravel()
        if tail:
            block = int(blocks[-1])
            el.page_state[block, :tail] = PageState.VALID
            el.reverse_lpn[block, :tail] = np.arange(n - tail, n)
            el.valid_count[block] = tail
            el.write_ptr[block] = tail
            emap[n - tail : n] = block * ppb + np.arange(tail)
            ftl._frontier[e_idx]["hot"] = block
        ftl._free[e_idx] -= n

    if overwrite_fraction > 0.0 and count > 0:
        rng = rng if rng is not None else random.Random(0)
        rewrites = int(overwrite_fraction * count)
        # every draw first, in the per-rewrite order, so the rng ends in the
        # same state; then each element ages on its own (module docstring)
        lpns = np.fromiter(map(rng.randrange, repeat(count, rewrites)),
                           dtype=np.int64, count=rewrites)
        gangs = lpns % ftl.n_gangs
        slots = lpns // ftl.n_gangs
        # steady-state floor: just above the cleaner's low watermark (where
        # a live device hovers)
        floor = max(
            ftl.reserve_pages,
            ftl.cleaner.low_watermark_pages + geom.pages_per_block,
        )
        for gang in range(ftl.n_gangs):
            gang_slots = slots[gangs == gang].tolist()
            for j in range(ftl.shards):
                _age_element(ftl, gang * ftl.shards + j, gang_slots, floor)
        ftl.alloc_epoch = _ALLOC_EPOCH()
    return count


def _age_element(ftl: PageMappedFTL, e_idx: int, slots: List[int],
                 floor: int) -> None:
    """Rewrite *slots* in order on element *e_idx*, keeping its free count
    above *floor* with instant cleans.

    Equals, page for page, ``invalidate_state`` on the old copy,
    ``allocate_page`` and ``program_state`` on the hot frontier: the same
    checks run inline on flat views of the element's arrays, and the
    methods are called only to raise their detailed errors.  The in-order
    program check holds by construction (the page is the frontier's write
    pointer).
    """
    el = ftl.elements[e_idx]
    ppb = ftl._ppb
    ps = memoryview(el.page_state.reshape(-1))
    rl = memoryview(el.reverse_lpn.reshape(-1))
    vc, wp, mt = el._vc, el._wp, el._mt
    mapv = ftl._mapv[e_idx]
    frontiers = ftl._frontier[e_idx]
    free = ftl._free
    now = ftl.sim.now
    frontier = frontiers.get("hot", -1)
    programmed = 0
    try:
        for slot in slots:
            while free[e_idx] <= floor:
                if not _instant_clean(ftl, e_idx):
                    raise ValueError(
                        f"element {e_idx}: nothing reclaimable during "
                        "prefill (reduce fill_fraction)"
                    )
                frontier = frontiers.get("hot", -1)
            old = mapv[slot]
            if ps[old] != _VALID:
                el.invalidate_state(old // ppb, old % ppb)  # raises
            ps[old] = _INVALID
            rl[old] = -1
            vc[old // ppb] -= 1
            if frontier < 0 or wp[frontier] >= ppb:
                frontier = ftl._pull_block(e_idx, "hot")
                frontiers["hot"] = frontier
            free[e_idx] -= 1
            page = wp[frontier]
            ppn = frontier * ppb + page
            if ps[ppn] != _FREE:
                el.program_state(frontier, page, slot)  # raises
            ps[ppn] = _VALID
            rl[ppn] = slot
            vc[frontier] += 1
            wp[frontier] = page + 1
            mt[frontier] = now
            mapv[slot] = ppn
            programmed += 1
    finally:
        el.pages_programmed += programmed


def _instant_clean(ftl: PageMappedFTL, e_idx: int) -> bool:
    """One zero-time clean: state transitions only, no events.

    The victim's valid pages move in one numpy step per destination run:
    the frontier's remainder, then blocks pulled exactly when per-page
    allocation would pull them.  Used only during warmup; the timed
    cleaner in :mod:`repro.ftl.cleaning` does the same work on the clock.
    """
    victim = ftl.cleaner.select_victim(e_idx)
    if victim < 0:
        return False
    el = ftl.elements[e_idx]
    ppb = ftl._ppb
    page_state, reverse_lpn = el.page_state, el.reverse_lpn
    valid = page_state[victim] == _VALID
    slots = reverse_lpn[victim][valid]
    moved = len(slots)
    page_state[victim][valid] = _INVALID
    reverse_lpn[victim][valid] = -1
    el._vc[victim] -= moved
    wp = el._wp
    emap = ftl._maps[e_idx]
    frontiers = ftl._frontier[e_idx]
    done = 0
    while done < moved:
        frontier = frontiers.get("hot", -1)
        if frontier < 0 or wp[frontier] >= ppb:
            frontier = ftl._pull_block(e_idx, "hot")
            frontiers["hot"] = frontier
        start = wp[frontier]
        take = min(ppb - start, moved - done)
        end = start + take
        dst = page_state[frontier, start:end]
        if np.count_nonzero(dst):  # FREE is 0: some destination is taken
            busy = int(np.flatnonzero(dst)[0])
            el.program_state(frontier, start + busy,
                             int(slots[done + busy]))  # raises
        run = slots[done:done + take]
        dst[:] = _VALID
        reverse_lpn[frontier, start:end] = run
        el._vc[frontier] += take
        wp[frontier] = end
        el._mt[frontier] = ftl.sim.now
        base = frontier * ppb
        emap[run] = np.arange(base + start, base + end)
        ftl._free[e_idx] -= take
        el.pages_programmed += take
        done += take
    el.erase_state(victim)
    ftl.release_block(e_idx, victim)
    return True


def prefill_stripe_ftl(
    ftl: Union[BlockMappedFTL, HybridLogBlockFTL],
    fill_fraction: float = 0.9,
) -> int:
    """Map the first ``fill_fraction`` of a stripe-mapped FTL's logical
    stripes to fully-valid rows (so overwrites trigger RMW/log appends, as on
    an aged device).  Returns the number of stripes mapped."""
    if not 0.0 <= fill_fraction <= 1.0:
        raise ValueError(f"fill_fraction must be in [0, 1], got {fill_fraction}")
    ppb = ftl.geometry.pages_per_block
    total = ftl.n_gangs * ftl.user_rows_per_gang
    count = int(fill_fraction * total)
    # one batch per gang instead of one pop + per-element slice per stripe:
    # lbn order interleaves gangs, but each gang's pool only sees its own
    # ascending-slot pops, so grouping by gang carves identical rows
    for gang in range(ftl.n_gangs):
        n_slots = len(range(gang, count, ftl.n_gangs))
        if n_slots == 0:
            continue
        gmap = ftl._maps[gang]
        slots = np.nonzero(gmap[:n_slots] < 0)[0]
        if len(slots) == 0:
            continue
        rows = np.asarray(ftl._pool[gang].pop_fifo_many(len(slots)),
                          dtype=np.int64)
        gmap[slots] = rows
        for j in range(ftl.shards):
            el = ftl.elements[gang * ftl.shards + j]
            el.page_state[rows, :] = PageState.VALID
            el.reverse_lpn[rows, :] = slots[:, None]
            el.valid_count[rows] = ppb
            el.write_ptr[rows] = ppb
    return count
