"""Batch simulation kernels for the exact trace engine.

The scalar simulators (:class:`~repro.uarch.cache.Cache`, the
predictors in :mod:`repro.uarch.branch`) process one access per Python
method call, which makes the scalar oracle interpreter-bound.  The
kernels here consume whole address/outcome arrays at once; fused
replay (:mod:`repro.uarch.fused`) builds on them.  Each is
**bit-identical** to its scalar simulator — same final structure state,
same statistics, same RANDOM-policy RNG draws:

* :func:`_simulate_level` replays a read-only stream through one FIFO
  or RANDOM cache level (LRU levels and TLBs take fused replay's own
  stack-depth pass);
* :func:`simulate_two_bit`, :func:`simulate_chooser` and
  :func:`gshare_histories` back the predictors' ``predict_many``.

Why bit-identity holds
----------------------

*Set partitioning.*  Cache sets (and predictor table entries) are
independent: an access only reads and writes the state of its own set.
Grouping the access stream by set index (stable ``np.argsort``) and
replaying each set's short subsequence therefore produces exactly the
state the global interleaved replay would.  Global quantities are
reconstructed from stream positions: the scalar clock after access
``i`` of a level's stream is ``clock0 + i + 1``, so every arrival stamp
a set-local replay writes equals the scalar one.

*Victim order.*  Within a FIFO set, state lives in one tag-keyed dict
whose **insertion order** is kept equal to ascending stamp order:
residents are inserted oldest-first and every insertion carries a
stamp larger than all resident ones (the clock is strictly monotone).
The victim is therefore simply the first key — the minimum stamp — and
since monotone stamps are unique within a set this coincides with the
scalar ``argmin(stamp)`` (ties cannot occur).  Empty ways are kept in
an ascending list, matching the scalar "lowest-index empty way" rule.

*RANDOM draw order.*  The scalar RANDOM policy draws one victim from
the cache's own :class:`numpy.random.Generator` per eviction, in global
eviction order.  Per-set replays are suspended at each eviction
(generator ``yield``) and resumed by a driver that merges the stalled
replays through a min-heap keyed on stream position — so draws are
consumed from the same generator, one per eviction, in exactly the
scalar order.
"""

from __future__ import annotations

import heapq
import os
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch.cache import Cache, ReplacementPolicy

__all__ = [
    "TRACE_KERNELS",
    "KERNEL_ENV",
    "default_trace_kernel",
    "validate_trace_kernel",
    "resolve_trace_kernel",
    "simulate_two_bit",
    "simulate_chooser",
    "gshare_histories",
]

#: The trace-engine implementations: fused batch replay over the
#: kernels here (``vector``, the default) and the scalar per-access
#: reference oracle.
TRACE_KERNELS = ("scalar", "vector")

#: Environment variable overriding the default kernel (used by the CI
#: leg that runs the whole suite against the scalar oracle).
KERNEL_ENV = "REPRO_TRACE_KERNEL"


def validate_trace_kernel(kernel: str) -> str:
    """Return ``kernel`` if it names a known implementation, else raise."""
    if kernel not in TRACE_KERNELS:
        raise ConfigurationError(
            f"unknown trace kernel {kernel!r}; expected one of {TRACE_KERNELS}"
        )
    return kernel


def default_trace_kernel() -> str:
    """The session default: ``$REPRO_TRACE_KERNEL`` if set, else ``"vector"``."""
    value = os.environ.get(KERNEL_ENV)
    if value:
        return validate_trace_kernel(value)
    return "vector"


def resolve_trace_kernel(kernel: Optional[str] = None) -> str:
    """Resolve an optional kernel choice: ``None`` means the default."""
    if kernel is None:
        return default_trace_kernel()
    return validate_trace_kernel(kernel)


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


def _group_by_set(sets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Stable-sort a set-index stream into per-set groups.

    Returns ``(order, touched, bounds)`` where ``order`` permutes the
    stream into set-major order, ``touched`` lists the distinct sets in
    that order and group ``g`` occupies ``order[bounds[g]:bounds[g+1]]``.
    """
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_sets[1:] != sorted_sets[:-1]))
    )
    touched = sorted_sets[starts]
    bounds = starts.tolist()
    bounds.append(int(sets.size))
    return order, touched, bounds


def _replay_set_fifo_ro(
    tags_seq, pos_seq, d, empty, clock0, miss_pos, evict_pos, wb_pos
) -> None:
    # Read-only FIFO replay: hits touch nothing at all.
    get = d.get
    for tag, pos in zip(tags_seq, pos_seq):
        if get(tag) is None:
            miss_pos.append(pos)
            if empty:
                way = empty.pop(0)
            else:
                evict_pos.append(pos)
                way, _, dirty = d.pop(next(iter(d)))
                if dirty:
                    wb_pos.append(pos)
            d[tag] = [way, clock0 + pos + 1, False]


def _replay_set_random(
    tags_seq, pos_seq, tags_row, dirty_row, stamp_row, empty,
    clock0, miss_pos, evict_pos, wb_pos,
):
    # Read-only RANDOM replay as a generator: suspends at each eviction,
    # yielding its stream position; the driver resumes it with the
    # victim way so the draw comes from the cache's own RNG in global
    # eviction order.
    for tag, pos in zip(tags_seq, pos_seq):
        if tag not in tags_row:
            miss_pos.append(pos)
            if empty:
                way = empty.pop(0)
            else:
                evict_pos.append(pos)
                way = yield pos
                if dirty_row[way]:
                    wb_pos.append(pos)
            tags_row[way] = tag
            dirty_row[way] = False
            stamp_row[way] = clock0 + pos + 1


def _simulate_level(cache: Cache, addrs: np.ndarray) -> np.ndarray:
    """Replay a read-only access stream through one FIFO/RANDOM level.

    Equivalent to calling ``cache.access(a)`` per element on a level
    with no ``next_level`` — same final tags, dirty bits, stamps and
    clock, same statistics and the same RANDOM-policy RNG draws.
    Returns the ascending stream positions that missed, which form the
    next level's access stream.  LRU levels never come here: fused
    replay counts their misses with a stack-depth pass instead.
    """
    policy = cache.config.policy
    if policy is ReplacementPolicy.LRU:
        raise ConfigurationError("_simulate_level replays FIFO/RANDOM only")
    m = int(addrs.size)
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    lines = addrs >> cache._set_shift
    if cache._set_mask is not None:
        sets = lines & cache._set_mask
    else:
        sets = lines % cache._num_sets
    order, touched, bounds = _group_by_set(sets)
    tags_seq = lines[order].tolist()
    pos_seq = order.tolist()

    clock0 = cache._clock
    miss_pos: List[int] = []
    evict_pos: List[int] = []
    wb_pos: List[int] = []
    rows_tags = cache._tags[touched]
    rows_dirty = cache._dirty[touched]
    rows_stamp = cache._stamp[touched]
    n_groups = int(touched.size)
    assoc = cache.config.associativity
    all_ways = list(range(assoc))

    if policy is ReplacementPolicy.RANDOM:
        # Way-indexed state rows; per-set generators merged by a heap so
        # victim draws happen in global eviction order (see module doc).
        rows_tags_l = rows_tags.tolist()
        rows_dirty_l = rows_dirty.tolist()
        rows_stamp_l = rows_stamp.tolist()
        rng = cache._rng
        heap: List[Tuple[int, int]] = []
        gens = {}
        for g in range(n_groups):
            s, e = bounds[g], bounds[g + 1]
            tags_row = rows_tags_l[g]
            gen = _replay_set_random(
                tags_seq[s:e],
                pos_seq[s:e],
                tags_row,
                rows_dirty_l[g],
                rows_stamp_l[g],
                [w for w in all_ways if tags_row[w] == -1],
                clock0,
                miss_pos,
                evict_pos,
                wb_pos,
            )
            stall = next(gen, None)
            if stall is not None:
                gens[g] = gen
                heapq.heappush(heap, (stall, g))
        while heap:
            _pos, g = heapq.heappop(heap)
            way = int(rng.integers(0, assoc))
            try:
                stall = gens[g].send(way)
            except StopIteration:
                del gens[g]
            else:
                heapq.heappush(heap, (stall, g))
        cache._tags[touched] = np.asarray(rows_tags_l, dtype=np.int64)
        cache._dirty[touched] = np.asarray(rows_dirty_l, dtype=bool)
        cache._stamp[touched] = np.asarray(rows_stamp_l, dtype=np.int64)
    else:
        tags_rows = rows_tags.tolist()
        dirty_rows = rows_dirty.tolist()
        stamp_rows = rows_stamp.tolist()
        upd_rows: List[int] = []
        upd_ways: List[int] = []
        upd_tags: List[int] = []
        upd_dirty: List[bool] = []
        upd_stamp: List[int] = []
        for g, row in enumerate(touched.tolist()):
            s, e = bounds[g], bounds[g + 1]
            tags_row = tags_rows[g]
            stamp_row = stamp_rows[g]
            # Residents enter the dict oldest-stamp first so that
            # insertion order equals ascending stamp order.
            resident = sorted(
                (w for w in all_ways if tags_row[w] != -1),
                key=stamp_row.__getitem__,
            )
            d = {
                tags_row[w]: [w, stamp_row[w], dirty_rows[g][w]]
                for w in resident
            }
            empty = [w for w in all_ways if tags_row[w] == -1]
            _replay_set_fifo_ro(
                tags_seq[s:e],
                pos_seq[s:e],
                d,
                empty,
                clock0,
                miss_pos,
                evict_pos,
                wb_pos,
            )
            upd_rows.extend([row] * len(d))
            upd_tags.extend(d)
            vals = list(d.values())
            upd_ways.extend([v[0] for v in vals])
            upd_stamp.extend([v[1] for v in vals])
            upd_dirty.extend([v[2] for v in vals])
        if upd_rows:
            cache._tags[upd_rows, upd_ways] = upd_tags
            cache._dirty[upd_rows, upd_ways] = upd_dirty
            cache._stamp[upd_rows, upd_ways] = upd_stamp

    cache._clock = clock0 + m
    misses = len(miss_pos)
    stats = cache.stats
    stats.accesses += m
    stats.hits += m - misses
    stats.misses += misses
    stats.evictions += len(evict_pos)
    stats.writebacks += len(wb_pos)
    miss_local = np.asarray(miss_pos, dtype=np.intp)
    miss_local.sort()
    return miss_local


# ---------------------------------------------------------------------------
# branch predictors
# ---------------------------------------------------------------------------


def _segmented_clamp_scan(
    steps: np.ndarray, seg: np.ndarray, max_seg: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive segmented prefix composition of saturating-counter steps.

    A saturating-counter update is the clamped add
    ``f(c) = min(3, max(0, c + step))``, and compositions of clamped
    adds stay in the three-parameter family
    ``f(c) = min(h, max(l, c + s))`` — an associative monoid.  All
    per-position prefix compositions within each segment are therefore
    computed with O(log n) Hillis-Steele doubling passes of pure numpy
    work instead of a per-access Python loop; doubling stops once the
    stride covers ``max_seg``, the largest segment length.  Returns the
    ``(s, h, l)`` arrays of the inclusive composition ending at each
    position.
    """
    n = int(steps.size)
    s = steps.astype(np.int64, copy=True)
    h = np.full(n, 3, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    d = 1
    while d < max_seg:
        same = np.zeros(n, dtype=bool)
        np.equal(seg[d:], seg[:-d], out=same[d:])
        ps = np.zeros(n, dtype=np.int64)
        ph = np.zeros(n, dtype=np.int64)
        pl = np.zeros(n, dtype=np.int64)
        ps[d:] = s[:-d]
        ph[d:] = h[:-d]
        pl[d:] = low[:-d]
        # current element covers (i-d, i], the shifted one (i-2d, i-d]:
        # compose shifted-first, current-second.
        s2 = ps + s
        l2 = np.maximum(low, pl + s)
        h2 = np.minimum(h, np.maximum(low, ph + s))
        s = np.where(same, s2, s)
        low = np.where(same, l2, low)
        h = np.where(same, h2, h)
        d <<= 1
    return s, h, low


def _scan_counter_states(
    counters: np.ndarray,
    touched: np.ndarray,
    bounds: List[int],
    seg: np.ndarray,
    steps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-access counter states for a partitioned step stream.

    Returns the counter value seen by each access (before its own
    update) and writes the final per-counter states back into
    ``counters`` — the vectorized equivalent of replaying each touched
    counter's subsequence one access at a time.
    """
    n = int(steps.size)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    s, h, low = _segmented_clamp_scan(steps, seg, int(sizes.max()))
    start = counters[touched].astype(np.int64)
    c0 = np.repeat(start, sizes)
    has_prev = np.zeros(n, dtype=bool)
    has_prev[1:] = seg[1:] == seg[:-1]
    ps = np.zeros(n, dtype=np.int64)
    ph = np.zeros(n, dtype=np.int64)
    pl = np.zeros(n, dtype=np.int64)
    ps[1:] = s[:-1]
    ph[1:] = h[:-1]
    pl[1:] = low[:-1]
    before = np.where(
        has_prev, np.minimum(ph, np.maximum(pl, c0 + ps)), c0
    )
    last = np.asarray(bounds[1:], dtype=np.int64) - 1
    finals = np.minimum(h[last], np.maximum(low[last], start + s[last]))
    counters[touched] = finals
    return before, c0


def simulate_two_bit(
    counters: np.ndarray, indices: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Replay a two-bit saturating-counter table over a whole stream.

    ``indices`` are the per-access table indices (already masked);
    ``counters`` is updated in place.  Returns the per-access predicted
    directions — identical to per-element predict-then-update because a
    counter's trajectory depends only on its own access subsequence,
    replayed here as a segmented clamped-add scan.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order, touched, bounds = _group_by_set(indices)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    seg = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    t_sorted = taken[order]
    steps = np.where(t_sorted, 1, -1).astype(np.int64)
    before, _c0 = _scan_counter_states(counters, touched, bounds, seg, steps)
    preds = np.empty(n, dtype=bool)
    preds[order] = before >= 2
    return preds


def gshare_histories(
    history: int, history_bits: int, taken: np.ndarray
) -> np.ndarray:
    """Per-access global-history register values for a taken stream.

    ``histories[i]`` is the register content *before* branch ``i``
    resolves, starting from ``history``: the register is the last
    ``history_bits`` outcomes, so each value is one window of the
    padded outcome bit sequence.
    """
    n = int(taken.size)
    hb = history_bits
    seq = np.empty(n + hb, dtype=np.int64)
    for j in range(hb):
        seq[j] = (history >> (hb - 1 - j)) & 1
    seq[hb:] = taken
    windows = np.lib.stride_tricks.sliding_window_view(seq, hb)[:n]
    weights = (1 << np.arange(hb - 1, -1, -1, dtype=np.int64))
    return windows @ weights


def simulate_chooser(
    chooser: np.ndarray,
    indices: np.ndarray,
    pred_bimodal: np.ndarray,
    pred_gshare: np.ndarray,
    taken: np.ndarray,
) -> np.ndarray:
    """Replay a tournament chooser table over a whole stream.

    Component predictions are precomputed (their counter streams are
    independent of the chooser), so only the per-index chooser counters
    are replayed here.  ``chooser`` is updated in place; returns the
    tournament's per-access predicted directions.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order, touched, bounds = _group_by_set(indices)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    seg = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    bp_sorted = pred_bimodal[order]
    gp_sorted = pred_gshare[order]
    t_sorted = taken[order]
    g_eq = gp_sorted == t_sorted
    b_eq = bp_sorted == t_sorted
    # The chooser moves only when exactly one component was right.
    steps = (g_eq & ~b_eq).astype(np.int64) - (~g_eq & b_eq).astype(
        np.int64
    )
    before, _c0 = _scan_counter_states(chooser, touched, bounds, seg, steps)
    preds = np.empty(n, dtype=bool)
    preds[order] = np.where(before >= 2, gp_sorted, bp_sorted)
    return preds
