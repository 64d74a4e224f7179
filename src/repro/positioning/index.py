"""Exact k-nearest search over radio-map fingerprints (the serving hot path).

Two kernels feed one exact finish, :func:`select_k_nearest`:
:class:`MapSearch` runs every unindexed search (the brute-force
estimator path and map completion) with an exact scan or one float32
bound GEMM over the map per batch.  :class:`SpatialIndex`, for large
maps, replaces that O(N) sweep with a three-stage *exact* search:

1. **Bucket pruning** — reference fingerprints are rotated into a
   PCA basis and embedded into ``p+1`` dims (top-``p`` projection plus
   the residual norm).  Distances in that augmented space lower-bound
   true distances, so a per-bucket centroid/radius bound discards
   whole buckets against a per-query upper bound obtained by probing
   the nearest buckets.
2. **Block filtering** — surviving buckets are stored row-contiguous,
   so candidate distances come from small float32 GEMMs over
   *centered* data (no per-row gathers).  The float32 expansion is
   only a bound: a conservative error margin keeps every reference
   whose true distance could reach the upper bound.
3. **Exact finish** — the few finalists per query go through
   :func:`select_k_nearest`: per-pair exact float64
   ``((a-b)**2).sum()`` re-evaluation, then canonical
   ``(distance, reference index)`` selection.

:class:`MapSearch` orders the same exact values the same way, so the
index returns **bit-identical** neighbours to it and to the test oracle
(:func:`~repro.positioning.base.pairwise_sq_dists` plus
:func:`canonical_k_smallest`) — pinned by the parity tests.  Stages
1-2 can only over-include candidates (pads + margins), never drop a
true neighbour.

The index persists as three small arrays (``mu``, ``basis``,
``assign``); everything else is derived from the fingerprints at
load time.  :meth:`refreshed` rebuilds incrementally after an
ingestion delta: the learned rotation and bucket structure are kept,
only changed rows are reassigned (falling back to a full rebuild when
most of the map changed).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import PositioningError
from ..obs.trace import current_span

__all__ = [
    "INDEX_MIN_RECORDS",
    "MapSearch",
    "SpatialIndex",
    "canonical_k_smallest",
    "pair_exact_sq_dists",
    "select_k_nearest",
]

#: Below this many reference records the dense brute-force path wins
#: (the index's fixed per-batch overhead outweighs the pruning); the
#: ``"auto"`` estimator mode only builds an index at or above it.
INDEX_MIN_RECORDS = 4096

#: Projection dims of the augmented embedding (clamped to the map's D).
_N_DIMS = 32

#: Target records per bucket of the 2-D quantile grid.  Large leaves
#: keep the per-bucket bound work small; pruning granularity is
#: already dominated by the augmented-space radii at this size.
_LEAF_SIZE = 192

#: Multiplicative pad applied to upper bounds (covers f64 rounding).
_PAD_UB = 1.0 + 1e-9

#: Multiplicative shrink applied to lower bounds before comparison.
_PAD_LB = 1.0 - 1e-9

#: Scale factor of the float32 filter margin: generous cover for sgemm
#: accumulation error plus the f32 rounding of the centered inputs.
_F32_MARGIN = 128.0 * float(np.finfo(np.float32).eps)

#: Twice the bound margin of :class:`MapSearch`, in units of
#: ``(D + 2)·(‖q_c‖² + 2·max‖C_r‖²)``: the float32 dot-product bound
#: with 2x slack, doubled for the threshold.
_BOUND_MARGIN = 4.0 * float(np.finfo(np.float32).eps)

#: Float64 elements per chunk: of the map while :class:`MapSearch`
#: builds its bound matrix, and of a batch's box-bound temporaries.
_BUILD_CHUNK = 1 << 17

#: Once the buckets a batch must read hold this share of the map, it
#: reads all of it.  Further rows can only add buckets, and past this
#: share bounding them costs more than reading the rest of ``W``: on
#: a 32768 × 96 map the buckets of a 2-row batch hold a median 61% of
#: the rows, of a 4-row batch 86% and of an 8-row batch 99%.
_SWEEP_ALL = 0.75

#: Up to this many difference elements (batch rows × records × APs) a
#: :class:`MapSearch` batch scans every record exactly instead of
#: using the bound.  Below it the scan costs about what the bound does
#: (36 vs 42 µs for one masked row on a 96 × 24 map, 89 vs 76 µs on
#: 113 × 107; 2-vCPU Xeon), and it never builds ``W``: a small venue
#: that a memory-budgeted fleet reloads often would otherwise rebuild
#: it (~40 µs) after each load.
_SCAN_ELEMS = 1 << 14

#: If fewer than this fraction of rows survive a delta unchanged, an
#: incremental refresh degenerates; rebuild from scratch instead.
_REFRESH_MIN_KEPT = 0.5

#: Row cap per stage-2 band.  Bucket ids are spatially ordered (the
#: grid code is row-major), so a run of consecutive ids is a cluster
#: of neighbouring cells whose active-query sets overlap heavily —
#: that keeps the band rectangles dense.  Bigger bands mean fewer
#: Python iterations but more wasted GEMM rows.
_BAND_ROWS = 768

#: Row cap per probe band (stage 1b); probe pools are small, so the
#: cap mostly bounds the per-band rectangle width.
_PROBE_BAND_ROWS = 1024

#: Difference elements gathered per chunk of the exact finish.  Large
#: batches (a delta re-locating every cached scan) would otherwise
#: materialise several candidates-by-D temporaries at once; chunks this
#: size keep the finish's peak memory flat and run faster too.
_FINISH_CHUNK = 1 << 14

#: Above this many elements a dense per-query scatter for pool/finish
#: selection is refused in favour of the O(candidates) segment path —
#: one query with a huge pool would otherwise pad every row to its
#: width (the ``(b, width)`` blow-up).
_DENSE_SELECT_CAP = 1 << 20


def _ramp(lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l) for l in lens])`` without the loop."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(lens)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - lens, lens)
    return out


def pair_exact_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair exact squared distances: ``(n, D), (n, D) -> (n,)``.

    The shared exact primitive: a materialised difference reduced over
    the contiguous last axis, so its floating-point result depends
    only on ``D`` — the brute exact path and the index's finish stage
    produce bit-identical values for the same pair.
    """
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diff *= diff
    return diff.sum(axis=-1)


def canonical_k_smallest(
    d2: np.ndarray, k: int, ids: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The k smallest entries per row, canonically ordered.

    ``d2`` is ``(n, w)`` (``np.inf`` padding allowed); ``ids`` maps
    columns to reference indices (defaults to the column index; pad
    columns carry ``-1`` and must be ``inf``).  Returns ``(values,
    ids)`` of shape ``(n, k)`` sorted by ``(value, id)`` — ties at the
    k-th value are resolved toward smaller reference indices, so two
    callers that agree on the candidate *values* select identical
    neighbour sets regardless of how the candidates were found.
    """
    d2 = np.asarray(d2)
    n, w = d2.shape
    if k <= 0 or k > w:
        raise PositioningError(f"k={k} out of range for {w} candidates")
    if k < w:
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    else:
        part = np.broadcast_to(np.arange(w), (n, w)).copy()
    pv = np.take_along_axis(d2, part, axis=1)
    pid = part if ids is None else np.take_along_axis(ids, part, axis=1)
    if ids is not None:
        pid = pid.copy()
        pv = pv.copy()
    kth = pv.max(axis=1)
    # argpartition breaks ties at the k-th value arbitrarily; rows
    # where the tie group straddles the boundary are re-resolved
    # toward smaller ids (rare, so a Python loop is fine).
    full_ties = (d2 == kth[:, None]).sum(axis=1)
    sel_ties = (pv == kth[:, None]).sum(axis=1)
    for i in np.nonzero(full_ties > sel_ties)[0]:
        v = kth[i]
        row_ids = np.arange(w) if ids is None else ids[i]
        below = d2[i] < v
        n_below = int(below.sum())
        tie_ids = np.sort(row_ids[d2[i] == v])
        pid[i] = np.concatenate(
            [row_ids[below], tie_ids[: k - n_below]]
        )
        pv[i] = np.concatenate(
            [d2[i][below], np.full(k - n_below, v)]
        )
    order = np.lexsort((pid, pv), axis=-1)
    return (
        np.take_along_axis(pv, order, axis=1),
        np.take_along_axis(pid, order, axis=1),
    )


def select_k_nearest(
    queries: np.ndarray,
    refs: np.ndarray,
    k: int,
    qi: np.ndarray,
    ri: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact finish + canonical selection over candidate pairs.

    ``(qi[j], ri[j])`` pairs a query row with a reference id; callers
    must include every true neighbour of each query among its pairs
    (over-inclusion is free).  Each pair is re-evaluated with
    :func:`pair_exact_sq_dists` and selection runs on lexsorted
    ``(query, distance, id)`` segments — the first k entries of a
    query's segment *are* its canonically-ordered neighbours — so
    memory stays O(candidates); the re-evaluation runs in chunks of
    :data:`_FINISH_CHUNK` elements.  A query left with fewer than k
    candidates (a NaN row, say, whose bound admits nothing) falls back
    to the exact scan of every reference through
    :func:`canonical_k_smallest`, which orders the same values the
    same way.  Returns ``(d2, ids)`` of shape ``(n, k)``.

    ``mask`` (``(n, D)`` bool, optional) restricts each query's
    distance to its observed dims: the pair distance becomes
    ``pair_exact_sq_dists(queries[qi], refs[ri] * mask[qi])``, so
    ``queries`` must hold zeros where ``mask`` is False.
    """
    b, d = queries.shape
    d2x = np.empty(qi.size)
    step = max(1, _FINISH_CHUNK // max(d, 1))
    for s in range(0, qi.size, step):
        e = s + step
        r = refs[ri[s:e]]
        if mask is not None:
            r *= mask[qi[s:e]]
        d2x[s:e] = pair_exact_sq_dists(queries[qi[s:e]], r)
    order = np.lexsort((ri, d2x, qi))
    sd, si = d2x[order], ri[order]
    counts = np.bincount(qi, minlength=b)
    starts = np.cumsum(counts) - counts
    short = counts < k
    if not short.any():
        pick = starts[:, None] + np.arange(k)
        return sd[pick], si[pick]
    vals = np.empty((b, k))
    ids = np.empty((b, k), dtype=np.int64)
    good = np.nonzero(~short)[0]
    pick = starts[good, None] + np.arange(k)
    vals[good], ids[good] = sd[pick], si[pick]
    rows = np.nonzero(short)[0]
    # One row at a time, references chunked: a fallback row on a large
    # map would otherwise materialise an (n_refs, D) difference per row.
    scan = np.empty((rows.size, refs.shape[0]))
    for j, i in enumerate(rows):
        for s in range(0, refs.shape[0], step):
            r = refs[s : s + step]
            if mask is not None:
                r = r * mask[i]
            scan[j, s : s + step] = pair_exact_sq_dists(queries[i], r)
    vals[rows], ids[rows] = canonical_k_smallest(scan, k)
    return vals, ids


class _Bound(NamedTuple):
    """:class:`MapSearch`'s bound state: the per-AP centre ``c``,
    float32 ``W = [C∘C | C]`` and ``2·max_r ‖C_r‖²``; partitioned,
    also the record id of each row of ``w`` (which is in bucket
    order), the non-empty buckets' row offsets, and each bucket's box
    of ``C`` (centre and half-width of its float64 min and max per
    AP)."""

    centre: np.ndarray
    w: np.ndarray
    c2max2: float
    perm: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    mid: Optional[np.ndarray] = None
    half: Optional[np.ndarray] = None


class MapSearch:
    """Exact k nearest records of one map, over every AP or a mask.

    The candidate kernel of every search that does not use a
    :class:`SpatialIndex`: the brute-force estimator path (every AP
    heard) and map completion (a scan's heard APs).  The distance is
    ``pair_exact_sq_dists(q_zeroed, record * mask)``, and answers are
    ordered by ``(distance, record id)`` as :func:`select_k_nearest`
    orders them, so a row's answer depends only on the row and the map.

    A batch of at most :data:`_SCAN_ELEMS` difference elements scans
    every record exactly and stable-sorts the distances.  A larger one
    takes its candidates from one float32 bound GEMM.  A row left with
    exactly ``k`` candidates has them as its k nearest: :meth:`query`
    orders them by exact distance, :meth:`nearest` takes them as they
    are.  Other rows go through :func:`select_k_nearest`.

    *Bound.*  With a per-AP centre ``c`` (any centre is valid; only
    the margin's tightness depends on it), ``C = map − c`` and the
    query's centred heard values ``q_c`` (zero where unheard), the
    distance is ``‖q_c‖² + W_r·a`` with ``W = [C∘C | C]`` (``(N,
    2D)``, record major, built on the first batch that needs it) and
    ``a = [mask | −2·q_c]`` (all ones for an unmasked search).  The
    candidates are selected on ``s_r = fl32(W_r·a)`` alone.

    *Margin.*  With ``u = eps32/2``, the float32 roundings of ``W``
    and ``a`` perturb each product by at most ``2u`` relative, and the
    standard dot-product bound adds ``γ_2D = 2D·u/(1 − 2D·u)`` of
    ``S_r = Σ|W_r,j·a_j|``.  So ``s_r`` stays within ``(2D + 2)·u·S_r``
    (to first order) of its exact value; the float64 roundings
    (centring, the exact finish) are ``2^-29`` of that.  Since
    ``2|q||C| ≤ q² + C²``, ``S_r ≤ ‖q_c‖² + 2·max_r‖C_r‖²``, so
    ``margin = 2·(D + 2)·eps32·(‖q_c‖² + 2·max_r‖C_r‖²)`` bounds
    ``|‖q_c‖² + s_r − d_r|`` against the exact distance ``d_r`` with
    2x slack.  The k smallest ``s`` give ``d_(k) ≤ ‖q_c‖² + s_(k) +
    margin``, so every true neighbour and every record tied with the
    k-th has ``s_r ≤ s_(k) + 2·margin``; all of those are kept and
    re-evaluated exactly.  The slack also covers rounding the
    threshold to float32.  (The relative error model needs every
    nonzero term above float32's subnormal range; a nonzero ``C`` or
    ``q_c`` is at least one float64 ulp of a dBm reading, ~1e-14.)  A
    row whose ``s`` is not all finite (a NaN, or a huge reading
    overflowing float32) keeps no candidates and takes the finish's
    exact scan of every record.

    *Buckets.*  Given a bucket assignment (:meth:`partition`; in
    serving, that of an index over the same records), ``W`` is laid
    out in bucket order and each non-empty bucket keeps a box of
    ``C``, the float64 min and max per AP as centre and half-width.

    - *Lower bound.*  Over a row's heard APs, ``lb = Σ_j gap_j²``
      (``gap_j``: from ``q_c,j`` to the box's interval) is at most
      every member's ``d_r``, its roundings ~``2^-29`` of the margin.
    - *Upper bound.*  The row probes its buckets in ``lb`` order until
      they hold ``k`` records; their ``s`` give ``d_(k) ≤ ‖q_c‖² +
      s_(k) + margin``.
    - *Pruning.*  A bucket with ``lb > ‖q_c‖² + s_(k) + 2·margin``
      holds no neighbour of the row and no record tied with the k-th.
    - *Sweep.*  A batch sweeps the union of its rows' surviving
      buckets, one GEMM per run of consecutive buckets.  That union
      holds every record at or below each row's ``d_(k)``, so the
      threshold keeps every neighbour as above.  Reading more is
      always safe: once the union holds :data:`_SWEEP_ALL` of the
      rows, the batch reads all of ``W``.  A row whose upper bound is
      not finite reads every bucket.

    Any partition keeps the answer exact; the index's only makes the
    bound tight.  A memory-mapped map is searched in place: ``W`` is
    the only derived matrix.  A traced bound batch records
    ``<stage>.bound``, ``<stage>.gemm`` (meta ``rows_read``, rows of
    ``W`` swept) and ``<stage>.finish`` (meta ``candidates``) as
    children of the active span, ``stage`` naming the caller
    (``brute`` or ``completion``), so one search can serve both users
    of a map; untraced, nothing is timed.
    """

    def __init__(self, refs: np.ndarray):
        self.refs = refs
        #: The bucket assignment the bound is laid out in, if any.
        self.assign: Optional[np.ndarray] = None
        self._bound: Optional[_Bound] = None

    def partition(self, assign: np.ndarray) -> None:
        """Search through the buckets of ``assign`` (a non-negative
        bucket id per record); the next batch rebuilds ``W``."""
        if assign is not self.assign:
            self.assign = np.asarray(assign, dtype=np.int64)
            self._bound = None

    def nbytes(self) -> int:
        """Bytes of the bound state, built or not: a memory budget
        charges it before the first batch that builds it."""
        n, d = self.refs.shape
        total = n * 2 * d * 4 + d * 8
        if self.assign is not None:
            nb = int(np.count_nonzero(np.bincount(self.assign)))
            total += n * 8 + (nb + 1) * 8 + 2 * nb * d * 8
        return total

    def _bound_state(self) -> _Bound:
        """The bound state, built on first use.

        ``W`` is filled in row chunks, so the transient memory is one
        float64 chunk on top of ``W`` itself.  With a partition, each
        chunk gathers its records in bucket order and widens the boxes
        of the buckets it overlaps.
        """
        if self._bound is None:
            t = self.refs
            n, d = t.shape
            # A plain array even when ``t`` is a memory map.
            centre = np.array(t.mean(axis=0), dtype=float)
            w = np.empty((n, 2 * d), dtype=np.float32)
            perm = offsets = lo = hi = None
            if self.assign is not None:
                perm = np.argsort(self.assign, kind="stable")
                sizes = np.bincount(self.assign)
                offsets = np.concatenate(
                    ([0], np.cumsum(sizes[sizes > 0]))
                )
                lo = np.full((offsets.size - 1, d), np.inf)
                hi = np.full((offsets.size - 1, d), -np.inf)
            c2max = 0.0
            step = max(1, _BUILD_CHUNK // d)
            for s in range(0, n, step):
                if perm is None:
                    c = t[s : s + step] - centre
                else:
                    e = min(s + step, n)
                    c = t[perm[s:e]]
                    c -= centre
                    # Widen the boxes of the buckets rows [s, e) meet.
                    first = np.searchsorted(offsets, s, "right") - 1
                    for j in range(first, np.searchsorted(offsets, e)):
                        part = c[
                            max(offsets[j] - s, 0) : offsets[j + 1] - s
                        ]
                        np.minimum(lo[j], part.min(axis=0), out=lo[j])
                        np.maximum(hi[j], part.max(axis=0), out=hi[j])
                w[s : s + step, d:] = c
                c *= c
                w[s : s + step, :d] = c
                c2max = max(c2max, float(c.sum(axis=1).max()))
            mid = half = None
            if perm is not None:
                mid = (lo + hi) / 2.0
                half = np.maximum(hi - mid, mid - lo)
            self._bound = _Bound(
                centre, w, 2.0 * c2max, perm, offsets, mid, half
            )
        return self._bound

    @staticmethod
    def _surviving_runs(
        state: _Bound,
        a: np.ndarray,
        qc: np.ndarray,
        base: np.ndarray,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)``: the row runs of ``w`` a batch sweeps.

        ``base`` is ``‖q_c‖² + 2·margin`` per row; a bucket survives
        for a row unless its box bound exceeds ``base + s_(k)`` of the
        row's probe (see *Buckets* in the class docstring).
        """
        w, off = state.w, state.offsets
        sizes = np.diff(off)
        # The mask half of ``a``: 1 on each row's heard APs.
        heard = a[:, : qc.shape[1]].astype(float)
        # ``union[1:-1]`` flags the buckets some row must read.
        union = np.zeros(sizes.size + 2, dtype=bool)
        step = max(1, _BUILD_CHUNK // state.mid.size)
        for r in range(0, qc.shape[0], step):
            # Box bounds over each row's heard APs: (rows, buckets).
            gap = qc[r : r + step, None] - state.mid
            np.abs(gap, out=gap)
            gap -= state.half
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            lb = np.matmul(gap, heard[r : r + step, :, None])[..., 0]
            for i, row in enumerate(lb, start=r):
                # Probe the nearest buckets until they hold k records.
                near = [int(row.argmin())]
                if sizes[near[0]] < k:
                    order = np.argsort(row)
                    held = np.cumsum(sizes[order])
                    near = order[: np.searchsorted(held, k) + 1]
                s = np.concatenate(
                    [w[off[j] : off[j + 1]] @ a[i] for j in near]
                )
                limit = base[i] + np.partition(s, k - 1)[k - 1]
                if not np.isfinite(limit):
                    return off[:1], off[-1:]
                # A NaN bound (an overflowing box) keeps its bucket.
                union[1:-1] |= ~(row > limit)
                if sizes[union[1:-1]].sum() >= _SWEEP_ALL * off[-1]:
                    return off[:1], off[-1:]
        edges = np.flatnonzero(union[1:] != union[:-1])
        return off[edges[::2]], off[edges[1::2]]

    def query(
        self,
        q: np.ndarray,
        k: int,
        mask: Optional[np.ndarray] = None,
        *,
        stage: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(d2, ids)`` of each row's ``min(k, N)`` nearest records.

        ``mask`` (``(b, D)`` bool) restricts each row to its heard
        APs, where ``q`` must hold zeros elsewhere; ``None`` means
        every AP is heard.
        """
        return self._find(q, k, mask, True, stage)

    def nearest(
        self,
        q: np.ndarray,
        k: int,
        mask: Optional[np.ndarray] = None,
        *,
        stage: str,
    ) -> np.ndarray:
        """The ids :meth:`query` returns, each row in record order:
        without the order, a row left with exactly ``k`` candidates
        needs no exact distances at all."""
        return np.sort(self._find(q, k, mask, False, stage)[1], axis=1)

    def _find(self, q, k, mask, ordered, stage):
        """:meth:`query`, or with ``ordered`` False the same ids
        possibly out of order and without their distances."""
        refs = self.refs
        b = q.shape[0]
        n, d = refs.shape
        k = min(k, n)
        if b * n * d <= _SCAN_ELEMS:
            if mask is not None:
                refs = refs * mask[:, None, :]
            d2 = pair_exact_sq_dists(q[:, None, :], refs)
            # A stable sort orders them by (distance, record id).
            ids = np.argsort(d2, axis=1, kind="stable")[:, :k]
            return d2[np.arange(b)[:, None], ids] if ordered else None, ids
        span = current_span()
        tick = time.perf_counter if span is not None else (lambda: 0.0)
        t0 = tick()
        state = self._bound_state()
        w = state.w
        a = np.empty((b, 2 * d), dtype=np.float32)
        a[:, :d] = 1.0 if mask is None else mask
        with np.errstate(over="ignore", invalid="ignore"):
            qc = q - state.centre
            if mask is not None:
                qc *= mask
            np.multiply(qc, -2.0, out=a[:, d:], casting="same_kind")
            qc2 = np.einsum("ij,ij->i", qc, qc)
            margin2 = _BOUND_MARGIN * (d + 2) * (qc2 + state.c2max2)
            if state.perm is None:
                t1 = tick()
                # Below 64 rows ``W @ aᵀ`` is the faster GEMM, and the
                # (b, N) copy makes the row scans contiguous.  From 64
                # the copy dominates: ``a @ Wᵀ`` takes 15 vs 29 ms at
                # 64 rows on a 32768 × 96 map, 0.19 vs 0.67 s at 1024.
                if b < 64:
                    s = np.ascontiguousarray((w @ a.T).T)
                else:
                    s = a @ w.T
            else:
                starts, ends = self._surviving_runs(
                    state, a, qc, qc2 + margin2, k
                )
                t1 = tick()
                lens = ends - starts
                dst = np.cumsum(lens) - lens
                sweep = np.empty((int(lens.sum()), b), dtype=np.float32)
                for r0, r1, p in zip(starts, ends, dst):
                    np.matmul(w[r0:r1], a.T, out=sweep[p : p + r1 - r0])
                s = np.ascontiguousarray(sweep.T)
            t2 = tick()
            thr = np.partition(s, k - 1, axis=1)[:, k - 1] + margin2
            finite = np.isfinite(s).all(axis=1)
            if not finite.all():
                # No candidates: the finish scans every record instead.
                thr[~finite] = np.nan
            keep = s <= thr.astype(np.float32)[:, None]
        qi, ri = np.divmod(np.flatnonzero(keep), s.shape[1])
        if state.perm is not None:
            # Sweep column → row of ``w`` → record id.
            run = np.searchsorted(dst, ri, "right") - 1
            ri = state.perm[starts[run] + (ri - dst[run])]
        if qi.size == b * k and (np.bincount(qi, minlength=b) == k).all():
            # k candidates per row contain the k nearest, so they are
            # them; only :meth:`query` needs their exact order.
            ids = ri.reshape(b, k)
            d2 = None
            if ordered:
                r = refs[ids]
                if mask is not None:
                    r *= mask[:, None, :]
                d2 = pair_exact_sq_dists(q[:, None, :], r)
                # Fancy indexing: ``take_along_axis`` costs ~8 µs.
                rows, order = np.arange(b)[:, None], np.lexsort((ids, d2))
                d2, ids = d2[rows, order], ids[rows, order]
            out = d2, ids
        else:
            out = select_k_nearest(q, refs, k, qi, ri, mask)
        if span is not None:
            t3 = time.perf_counter()
            span.child(f"{stage}.bound", duration=t1 - t0)
            span.child(
                f"{stage}.gemm",
                duration=t2 - t1,
                meta={"rows_read": int(s.shape[1])},
            )
            span.child(
                f"{stage}.finish",
                duration=t3 - t2,
                meta={"candidates": int(qi.size)},
            )
        return out


class SpatialIndex:
    """Bucketed PCA index with an exact-parity query path.

    Construct with :meth:`build` (fresh) or :meth:`from_arrays`
    (persisted state + the fingerprints it indexes).  The instance is
    immutable after construction and safe for concurrent queries.
    """

    def __init__(
        self,
        fingerprints: np.ndarray,
        mu: np.ndarray,
        basis: np.ndarray,
        assign: np.ndarray,
    ):
        fp = np.ascontiguousarray(fingerprints, dtype=float)
        if fp.ndim != 2 or fp.shape[0] == 0:
            raise PositioningError("index needs a (n, D) radio map")
        n, d = fp.shape
        mu = np.asarray(mu, dtype=float)
        basis = np.asarray(basis, dtype=float)
        assign = np.asarray(assign, dtype=np.int64)
        if mu.shape != (d,) or basis.ndim != 2 or basis.shape[0] != d:
            raise PositioningError("index basis does not match the map")
        if assign.shape != (n,) or assign.min(initial=0) < 0:
            raise PositioningError("index assignment does not match")
        self._fp = fp
        self.mu = mu
        self.basis = basis
        self.assign = assign
        self._derive()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, fingerprints: np.ndarray) -> "SpatialIndex":
        """Learn the rotation and bucket grid from the fingerprints."""
        fp = np.ascontiguousarray(fingerprints, dtype=float)
        if fp.ndim != 2 or fp.shape[0] == 0:
            raise PositioningError("index needs a (n, D) radio map")
        n, d = fp.shape
        mu = fp.mean(axis=0)
        centered = fp - mu
        # Orthonormal rotation from the covariance eigenbasis, top
        # variance first.  Validity of the bounds only needs
        # orthonormality, so numerical eigh differences across
        # platforms cannot break exactness.
        _, vectors = np.linalg.eigh(centered.T @ centered)
        basis = np.ascontiguousarray(
            vectors[:, :: -1][:, : min(_N_DIMS, d)]
        )
        proj = centered @ basis
        side = max(1, min(64, int(round(np.sqrt(n / _LEAF_SIZE)))))
        quantiles = np.linspace(0.0, 1.0, side + 1)[1:-1]
        edge0 = np.quantile(proj[:, 0], quantiles)
        edge1 = (
            np.quantile(proj[:, 1], quantiles)
            if basis.shape[1] > 1
            else np.empty(0)
        )
        col1 = proj[:, 1] if basis.shape[1] > 1 else np.zeros(n)
        assign = np.searchsorted(edge0, proj[:, 0]) * side + (
            np.searchsorted(edge1, col1)
        )
        return cls(fp, mu, basis, assign)

    def _derive(self) -> None:
        """Compute the query-time state from (fp, mu, basis, assign)."""
        fp, assign = self._fp, self.assign
        n = fp.shape[0]
        self.n_buckets = int(assign.max()) + 1
        centered = fp - self.mu
        proj = centered @ self.basis
        full2 = (centered * centered).sum(axis=1)
        tail = np.sqrt(
            np.maximum(full2 - (proj * proj).sum(axis=1), 0.0)
        )
        aug = np.concatenate([proj, tail[:, None]], axis=1)

        self._order = np.argsort(assign, kind="stable")
        self._counts = np.bincount(assign, minlength=self.n_buckets)
        self._offsets = np.concatenate(
            [[0], np.cumsum(self._counts)]
        )
        # Extended reference rows [C_r, 1, c2] in f32, bucket
        # contiguous so the block filter reads them with plain slices:
        # against query rows [-2*C_q, qf - t, 1] a single GEMM yields
        # d2 - t (or d2 itself with t=0) fused — no per-rectangle
        # elementwise passes for the -2g + c2 + qf expansion.  ``c2``
        # is the squared norm of the f32-rounded ``C_r``.
        d = fp.shape[1]
        ext = np.empty((n, d + 2), dtype=np.float32)
        ext[:, :d] = centered[self._order]
        ext[:, d] = 1.0
        ext[:, d + 1] = (ext[:, :d].astype(np.float64) ** 2).sum(axis=1)
        self._ext32 = ext
        cent = np.zeros((self.n_buckets, aug.shape[1]))
        np.add.at(cent, assign, aug)
        cent /= np.maximum(self._counts, 1)[:, None]
        delta = aug - cent[assign]
        dist_c = np.sqrt((delta * delta).sum(axis=1))
        radius = np.zeros(self.n_buckets)
        np.maximum.at(radius, assign, dist_c)
        self._centroids = cent
        self._cent2 = (cent * cent).sum(axis=1)
        self._radius = radius
        self._scale = float(ext[:, d + 1].max(initial=1.0)) + 1.0
        self._n = n

        # Per-bucket axis-aligned bounding boxes in the augmented
        # space.  Distance-to-box lower-bounds the distance to every
        # row of the bucket and is much tighter than centroid-radius:
        # the radius is dominated by spread along the un-bucketed
        # dims, which the per-dim box simply doesn't pay for.
        aug_sorted = aug[self._order]
        starts = np.minimum(self._offsets[:-1], max(n - 1, 0))
        box_lo = np.minimum.reduceat(aug_sorted, starts, axis=0)
        box_hi = np.maximum.reduceat(aug_sorted, starts, axis=0)
        empty = self._counts == 0
        # reduceat yields a stray row for zero-length segments; empty
        # buckets must never pass a bound check.
        box_lo[empty] = np.inf
        box_hi[empty] = -np.inf
        self._box_lo = box_lo
        self._box_hi = box_hi
        # Contiguous 2-dim copies for the cheap bound peek — slicing
        # columns out of the wide boxes per query batch would gather
        # full rows.
        w2 = min(2, box_lo.shape[1])
        self._box2_lo = np.ascontiguousarray(box_lo[:, :w2])
        self._box2_hi = np.ascontiguousarray(box_hi[:, :w2])

        # Stage-2 band boundaries: bucket-id runs capped at
        # ``_BAND_ROWS`` rows.  Empty buckets occupy zero rows, so a
        # run of consecutive ids is always one contiguous slice of
        # ``_ext32`` — each band is evaluated with a single GEMM
        # over that slice, no gathers, no extra copy of the map.
        band_of_bucket = (np.cumsum(self._counts) - 1) // _BAND_ROWS
        np.maximum(band_of_bucket, 0, out=band_of_bucket)
        n_bands = int(band_of_bucket.max(initial=0)) + 1
        # bucket-id boundary of each band (band bd covers ids
        # [_band_bounds[bd], _band_bounds[bd+1]))
        bounds = np.searchsorted(
            band_of_bucket, np.arange(n_bands + 1)
        )
        self._band_of_bucket = band_of_bucket
        self._band_bounds = bounds
        self._band_rows = self._offsets[bounds]
        self._n_bands = n_bands

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return self._n

    @property
    def n_dims(self) -> int:
        return self._fp.shape[1]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The persisted state (rotation + bucket assignment)."""
        return {
            "mu": self.mu,
            "basis": self.basis,
            "assign": self.assign,
        }

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], fingerprints: np.ndarray
    ) -> "SpatialIndex":
        """Rebuild from :meth:`to_arrays` output + the fingerprints."""
        return cls(
            fingerprints,
            arrays["mu"],
            arrays["basis"],
            arrays["assign"],
        )

    def refreshed(
        self,
        fingerprints: np.ndarray,
        keep_old: np.ndarray,
        keep_new: np.ndarray,
    ) -> "SpatialIndex":
        """Incrementally rebuilt index over a post-delta radio map.

        ``keep_old[i]`` / ``keep_new[i]`` pair up rows that survived
        the delta unchanged: they keep their bucket; every other row
        of ``fingerprints`` is assigned to the nearest existing bucket
        centroid in the augmented space.  The learned rotation and
        grid are frozen (bucket radii are recomputed, so the bounds
        stay exact regardless of drift); when less than half the map
        survives, a from-scratch :meth:`build` is both cheaper to
        reason about and tighter, so the refresh falls back to it.
        """
        fp = np.ascontiguousarray(fingerprints, dtype=float)
        keep_old = np.asarray(keep_old, dtype=np.int64)
        keep_new = np.asarray(keep_new, dtype=np.int64)
        if fp.ndim != 2 or fp.shape[1] != self._fp.shape[1]:
            raise PositioningError(
                "refreshed map does not match the indexed AP count"
            )
        if keep_old.shape != keep_new.shape:
            raise PositioningError("keep row maps must pair up")
        n = fp.shape[0]
        if keep_new.size < _REFRESH_MIN_KEPT * n:
            return SpatialIndex.build(fp)
        assign = np.full(n, -1, dtype=np.int64)
        assign[keep_new] = self.assign[keep_old]
        dirty = np.nonzero(assign < 0)[0]
        if dirty.size:
            centered = fp[dirty] - self.mu
            proj = centered @ self.basis
            full2 = (centered * centered).sum(axis=1)
            tail = np.sqrt(
                np.maximum(full2 - (proj * proj).sum(axis=1), 0.0)
            )
            aug = np.concatenate([proj, tail[:, None]], axis=1)
            occupied = np.nonzero(self._counts > 0)[0]
            cent = self._centroids[occupied]
            d2 = (
                (aug * aug).sum(axis=1)[:, None]
                + (cent * cent).sum(axis=1)[None, :]
                - 2.0 * (aug @ cent.T)
            )
            assign[dirty] = occupied[np.argmin(d2, axis=1)]
        return SpatialIndex(fp, self.mu, self.basis, assign)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-nearest references for a query batch.

        Returns ``(d2, ids)`` of shape ``(n, k)``, canonically ordered
        by ``(distance, reference index)`` through
        :func:`select_k_nearest` — the same exact finish and selection
        the brute-force estimator path uses, so the two are
        bit-identical.

        Both GEMM stages run over *bands* — runs of consecutive bucket
        ids capped at a row budget — so the Python iteration count is
        O(bands), not O(buckets).  The probe pool extracts exactly the
        probed ``(query, bucket)`` pair values from each band
        rectangle through one flat CSR gather; stage 2 thresholds the
        whole band rectangle first and compacts with a single
        ``flatnonzero`` (over-inclusion is free: every kept pair is
        re-evaluated exactly in stage 3, and each bucket lives in
        exactly one band so no pair can appear twice).  Probe buckets
        are *not* excluded from stage 2 — re-filtering their few rows
        costs less than masking them out of the rectangles, and the
        probe pool is used only for the upper bound.
        """
        q = np.ascontiguousarray(queries, dtype=float)
        if q.ndim != 2 or q.shape[1] != self._fp.shape[1]:
            raise PositioningError(
                f"queries must be (n, {self._fp.shape[1]})"
            )
        if not 0 < k <= self._n:
            raise PositioningError(
                f"k={k} out of range for {self._n} records"
            )
        b = q.shape[0]
        if b == 0:
            return np.empty((0, k)), np.empty((0, k), dtype=np.int64)

        centered = q - self.mu
        proj = centered @ self.basis
        qfull2 = (centered * centered).sum(axis=1)
        tail = np.sqrt(
            np.maximum(qfull2 - (proj * proj).sum(axis=1), 0.0)
        )
        aug = np.concatenate([proj, tail[:, None]], axis=1)
        centered32 = np.ascontiguousarray(centered, dtype=np.float32)
        scale = max(self._scale, float(qfull2.max(initial=0.0)) + 1.0)
        margin = _F32_MARGIN * scale + 1e-9

        # Stage 1a: bucket-level lower bounds in the augmented space.
        aug2 = (aug * aug).sum(axis=1)
        d2_qb = (
            aug2[:, None]
            + self._cent2[None, :]
            - 2.0 * (aug @ self._centroids.T)
        )
        err_b = 1e-12 * (aug2[:, None] + self._cent2[None, :] + 1.0)
        d_qb = np.sqrt(np.maximum(d2_qb - err_b, 0.0))
        lb_bucket = (
            np.maximum(d_qb - self._radius[None, :], 0.0) ** 2
        )
        lb_bucket[:, self._counts == 0] = np.inf

        # Probe selection: the nearest buckets until the cumulative
        # count reaches k, giving a valid upper bound on each query's
        # true k-th distance once their rows are evaluated.
        near = np.argsort(
            np.where(self._counts[None, :] > 0, d_qb, np.inf), axis=1
        )
        cum = np.cumsum(self._counts[near], axis=1)
        n_probe = np.minimum(
            (cum < k).sum(axis=1) + 1, self.n_buckets
        )

        # Inside a traced batch the five stages become ``kernel.*``
        # children of the active span; otherwise nothing is timed.
        span = current_span()
        tick = time.perf_counter if span is not None else (lambda: 0.0)
        qf32 = qfull2.astype(np.float32)
        # Extended query rows [-2*C_q, qf, 1]: one GEMM against the
        # extended reference rows [C_r, 1, c2] evaluates the full f32
        # expansion d2 = -2g + qf + c2 fused (the *2 scaling is exact
        # in binary floating point).  Stage 2 later overwrites the qf
        # slot with qf - t so its rectangles compare against zero.
        dq = centered32.shape[1]
        qext = np.empty((b, dq + 2), dtype=np.float32)
        np.multiply(centered32, np.float32(-2.0), out=qext[:, :dq])
        qext[:, dq] = qf32
        qext[:, dq + 1] = 1.0
        t0 = tick()

        # ---- stage 1b: banded probe pool ---------------------------
        # Probe pairs sorted by bucket id; bands chunk the distinct
        # probed buckets at ~_PROBE_BAND_ROWS probed rows.  Each band
        # GEMMs the contiguous id-range slice (interleaved un-probed
        # rows ride along in the GEMM but are never extracted).
        pq = np.repeat(np.arange(b), n_probe)
        pb = near[pq, _ramp(n_probe)]
        order = np.argsort(pb, kind="stable")
        pq, pb = pq[order], pb[order]
        ubuck, bucket_pos = np.unique(pb, return_inverse=True)
        bsz = self._counts[ubuck]
        pband_of_bucket = (np.cumsum(bsz) - 1) // _PROBE_BAND_ROWS
        n_pbands = int(pband_of_bucket[-1]) + 1 if bsz.size else 0
        pband = pband_of_bucket[bucket_pos]
        # band -> contiguous bucket-id range [lo, hi)
        pb_seg = np.searchsorted(
            pband_of_bucket, np.arange(n_pbands + 1)
        )
        offsets = self._offsets
        lens_p = bsz[bucket_pos]
        pair_seg = np.searchsorted(pband, np.arange(n_pbands + 1))
        # element ramp + per-pair output offsets, shared across bands
        pos_ramp = _ramp(lens_p)
        lens_cum = np.concatenate([[0], np.cumsum(lens_p)])
        pool_qi = np.repeat(pq, lens_p)
        pool_parts: List[np.ndarray] = []
        for bd in range(n_pbands):
            blo = ubuck[pb_seg[bd]]
            bhi = ubuck[pb_seg[bd + 1] - 1] + 1
            s, e = offsets[blo], offsets[bhi]
            ps, pe = pair_seg[bd], pair_seg[bd + 1]
            qrows = np.unique(pq[ps:pe])
            qpos = np.empty(b, np.int64)
            qpos[qrows] = np.arange(qrows.size)
            gram = qext[qrows] @ self._ext32[s:e].T
            # flat CSR extraction of the probed pair values
            width = e - s
            head = qpos[pq[ps:pe]] * width + (offsets[pb[ps:pe]] - s)
            flat = np.repeat(head, lens_p[ps:pe])
            flat += pos_ramp[lens_cum[ps]:lens_cum[pe]]
            pool_parts.append(gram.ravel()[flat])
        pool_v = (
            np.concatenate(pool_parts)
            if pool_parts
            else np.empty(0, np.float32)
        )
        t1 = tick()

        # ---- pooled k-th -> upper bound ----------------------------
        ub = self._csr_kth(pool_qi, pool_v, lens_p, pq, b, k)
        ub = ub * _PAD_UB + margin
        thresh32 = (ub + margin).astype(np.float32)
        t2 = tick()

        # ---- bucket bounds: centroid-radius, then per-pair box -----
        # The box bound is evaluated twice: a 2-dim peek at the grid
        # axes first (those carry most of the separation between a
        # query and a far bucket), then the full-width distance-to-box
        # only on what survives — roughly halving the wide gather.
        active = lb_bucket * _PAD_LB <= ub[:, None]
        aqi, abi = np.nonzero(active)
        w2 = self._box2_lo.shape[1]
        aug2d = np.ascontiguousarray(aug[:, :w2])
        pt2 = aug2d[aqi]
        gap2 = pt2 - np.clip(pt2, self._box2_lo[abi], self._box2_hi[abi])
        lb_box2 = np.einsum("ij,ij->i", gap2, gap2)
        keep = lb_box2 * _PAD_LB <= ub[aqi]
        aqi, abi = aqi[keep], abi[keep]
        pt = aug[aqi]
        gap = pt - np.clip(pt, self._box_lo[abi], self._box_hi[abi])
        lb_box = np.einsum("ij,ij->i", gap, gap)
        keep = lb_box * _PAD_LB <= ub[aqi]
        aqi, abi = aqi[keep], abi[keep]
        t3 = tick()

        # ---- stage 2: banded rectangles, threshold-first compaction
        # With the qf slot rewritten to qf - t, each fused rectangle
        # holds d2 - t directly and survivors are just gram <= 0 — one
        # GEMM and one scan per band, nothing elementwise in between.
        # The fused accumulation rounds differently from the legacy
        # three-pass expansion, but both stay within the shared f32
        # margin, which is all stage 2 ever promises.
        qext[:, dq] = qf32 - thresh32
        pair_band = self._band_of_bucket[abi]
        code = pair_band * np.int64(b) + aqi
        code = np.unique(code)
        act_q = (code % b).astype(np.int64)
        band_seg = np.searchsorted(
            code // b, np.arange(self._n_bands + 1)
        )
        # active-bucket id range per band: trims each rectangle's
        # columns to the rows its surviving buckets actually occupy
        # instead of paying the full band slice.
        bord = np.argsort(pair_band, kind="stable")
        abi_bb = abi[bord]
        bband_seg = np.searchsorted(
            pair_band[bord], np.arange(self._n_bands + 1)
        )
        qi_parts: List[np.ndarray] = []
        ri_parts: List[np.ndarray] = []
        v_parts: List[np.ndarray] = []
        gemm_rows = 0
        for bd in range(self._n_bands):
            clo, chi = band_seg[bd], band_seg[bd + 1]
            if clo == chi:
                continue
            rows = act_q[clo:chi]
            bks = abi_bb[bband_seg[bd]:bband_seg[bd + 1]]
            s = offsets[int(bks.min())]
            e = offsets[int(bks.max()) + 1]
            gram = qext[rows] @ self._ext32[s:e].T
            gflat = gram.ravel()
            flat = np.flatnonzero(gflat <= 0.0)
            width = e - s
            gemm_rows += rows.size * width
            qi_parts.append(rows[flat // width])
            ri_parts.append(s + flat % width)
            v_parts.append(gflat[flat])
        qi = (
            np.concatenate(qi_parts)
            if qi_parts
            else np.empty(0, np.int64)
        )
        ri = (
            np.concatenate(ri_parts)
            if ri_parts
            else np.empty(0, np.int64)
        )
        t4 = tick()

        # ---- f32 refine: shrink the exact finish ------------------
        # The rectangles already evaluated every candidate's f32
        # ``d2 - t``; adding ``t`` back (exactly, in f64) recovers an
        # estimate within the f32 margin of the true distance.  Its
        # per-query k-th is at most ``margin`` below the k-th true
        # candidate distance, so keeping ``est <= kth + 4*margin``
        # (double the two-sided error, doubled again for slack — the
        # superset stays exact no matter how loose) provably retains
        # every true neighbour, ties included, while cutting the f64
        # gather/lexsort to near-k candidates.
        if qi.size:
            est = np.concatenate(v_parts).astype(np.float64)
            est += thresh32.astype(np.float64)[qi]
            kth = self._pooled_kth(qi, est.astype(np.float32), b, k)
            keep = est <= kth[qi] * _PAD_UB + 4.0 * margin
            qi, ri = qi[keep], ri[keep]

        out = select_k_nearest(q, self._fp, k, qi, self._order[ri])
        if span is not None:
            t5 = time.perf_counter()
            span.child("kernel.probe", duration=t1 - t0)
            span.child("kernel.select", duration=t2 - t1)
            span.child("kernel.bound", duration=t3 - t2)
            span.child("kernel.gemm", duration=t4 - t3)
            span.child(
                "kernel.finish",
                duration=t5 - t4,
                meta={
                    "candidates": int(qi.size),
                    "gemm_rows": int(gemm_rows),
                },
            )
        return out

    def _csr_kth(
        self,
        pool_qi: np.ndarray,
        pool_v: np.ndarray,
        lens_p: np.ndarray,
        pair_q: np.ndarray,
        b: int,
        k: int,
    ) -> np.ndarray:
        """Per-query k-th smallest of the banded probe pool.

        The pool arrives as per-``(query, bucket)`` blocks of
        contiguous values (``lens_p[i]`` values for the pair whose
        query is ``pair_q[i]``), so each block's scatter position
        inside its query's row follows from the block lengths alone —
        no per-element sort.  When one query's pool would blow the
        dense ``(b, width)`` scatter past :data:`_DENSE_SELECT_CAP`,
        selection falls back to the O(candidates) segment path.
        """
        counts = np.bincount(pool_qi, minlength=b)
        width = int(counts.max(initial=0))
        if b * width <= max(4 * pool_v.size, _DENSE_SELECT_CAP):
            border = np.argsort(pair_q, kind="stable")
            lens_sorted = lens_p[border]
            ends = np.cumsum(lens_sorted)
            block_start = ends - lens_sorted
            qseg = np.searchsorted(
                pair_q[border], np.arange(b + 1)
            )
            first = np.repeat(
                block_start[
                    np.minimum(qseg[:-1], max(lens_sorted.size - 1, 0))
                ],
                np.diff(qseg),
            )
            start_in_q = np.empty(lens_p.size, np.int64)
            start_in_q[border] = block_start - first
            pos = np.repeat(start_in_q, lens_p) + _ramp(lens_p)
            pool = np.full((b, width), np.inf, dtype=pool_v.dtype)
            pool[pool_qi, pos] = pool_v
            if width <= k:
                kth = pool.max(axis=1, initial=0.0)
            else:
                kth = np.partition(pool, k - 1, axis=1)[:, k - 1]
                kth[counts < k] = np.inf
        else:
            order = np.lexsort((pool_v, pool_qi))
            seg = np.searchsorted(
                pool_qi[order], np.arange(b + 1)
            )
            kth = np.full(b, np.inf)
            ok = counts >= k
            picks = np.minimum(
                seg[:-1] + k - 1, max(pool_v.size - 1, 0)
            )
            kth[ok] = pool_v[order][picks[ok]]
        return np.maximum(np.asarray(kth, dtype=np.float64), 0.0)

    @staticmethod
    def _pooled_kth(
        qi: np.ndarray, values: np.ndarray, b: int, k: int
    ) -> np.ndarray:
        """Per-query k-th smallest of a pooled ``(qi, value)`` set.

        ``values`` arrives float32 from the block filter and is
        selected at that width; only the chosen bound widens to f64
        (exactly).  Past :data:`_DENSE_SELECT_CAP` a lexsort over the
        candidates replaces the dense ``(b, width)`` scatter, so one
        query with a huge pool cannot pad every row to its width.
        """
        counts = np.bincount(qi, minlength=b)
        width = int(counts.max(initial=0))
        if b * width > max(4 * values.size, _DENSE_SELECT_CAP):
            order = np.lexsort((values, qi))
            sq, sv = qi[order], values[order]
            seg = np.searchsorted(sq, np.arange(b + 1))
            kth = np.full(b, np.inf, dtype=values.dtype)
            ok = counts >= k
            picks = np.minimum(
                seg[:-1] + k - 1, max(values.size - 1, 0)
            )
            kth[ok] = sv[picks[ok]]
            return np.maximum(kth.astype(np.float64), 0.0)
        order = np.argsort(qi, kind="stable")
        qi, values = qi[order], values[order]
        starts = np.concatenate([[0], np.cumsum(counts)])
        pos = np.arange(qi.size) - starts[qi]
        pool = np.full((b, width), np.inf, dtype=values.dtype)
        pool[qi, pos] = values
        if width <= k:
            kth = pool.max(axis=1, initial=0.0)
        else:
            kth = np.partition(pool, k - 1, axis=1)[:, k - 1]
            # Queries whose probe pool came up short scan everything.
            kth[counts < k] = np.inf
        return np.maximum(kth.astype(np.float64), 0.0)
