"""Query completion strategies (filling a fingerprint's unheard APs).

Every query reaching an estimator must be fully finite.  How the NaNs
get filled is the *completion* step of a shard's pipeline, and it is
where the PR-5 serving path spent most of its time on BiSIM venues:
:meth:`~repro.bisim.OnlineImputer.impute_batch` ran the trained
encoder over every batch.  The completers here make that a build-time
decision instead:

* :class:`MapCompletion` — the serving default for BiSIM shards.  The
  fully-imputed radio-map tensor is precomputed once at artifact-build
  time; at serve time a query's missing APs are filled from its
  nearest map records *measured over the observed APs only* (masked
  KNN against the precomputed tensor — one float32 bound GEMM, over
  only the buckets of the shard's spatial index that can hold a
  neighbour when it has one, then the estimator's exact finish; no
  encoder).
  Fully-missing queries fall back to the per-AP fill values.
* :class:`MeanFillCompletion` — per-AP mean fill, the instant-deploy
  path for venues without a trained BiSIM.
* :class:`EncoderCompletion` — the PR-5 behaviour, kept for
  ingest-time refresh and as the degraded fallback when a shard
  artifact's precomputed tensor fails validation (``fallback=True``
  marks that case so the service can count it).

All completers are immutable after construction and safe to share
across threads; ``complete`` never mutates its input.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..artifacts import backed_by_memmap
from ..bisim import OnlineImputer
from ..exceptions import ServingError
from ..obs.trace import current_span
from ..positioning.index import pair_exact_sq_dists, select_k_nearest

__all__ = [
    "EncoderCompletion",
    "MapCompletion",
    "MeanFillCompletion",
    "completion_from",
]

#: Twice the bound margin, in units of ``(D + 2)·(‖q_c‖² +
#: 2·max‖C_r‖²)``: the float32 dot-product bound (see
#: :class:`MapCompletion`) with 2x slack, doubled for the threshold.
_BOUND_MARGIN = 4.0 * float(np.finfo(np.float32).eps)

#: Float64 elements per chunk: of the map while building the bound
#: matrix, and of a batch's box-bound temporaries.
_BUILD_CHUNK = 1 << 17

#: Once the buckets a batch must read hold this share of the map, it
#: reads all of it.  Further rows can only add buckets, and past this
#: share bounding them costs more than reading the rest of ``W``: on
#: a 32768 × 96 map the buckets of a 2-row batch hold a median 61% of
#: the rows, of a 4-row batch 86% and of an 8-row batch 99%.
_SWEEP_ALL = 0.75

#: Up to this many difference elements (batch rows × records × APs) a
#: batch scans every record exactly instead of using the bound.  Below
#: it the scan costs about what the bound does (36 vs 42 µs for one
#: row on a 96 × 24 map, 89 vs 76 µs on 113 × 107; 2-vCPU Xeon), and
#: it never builds ``W``: a small venue that a memory-budgeted fleet
#: reloads often would otherwise rebuild it (~40 µs) after each load.
_SCAN_ELEMS = 1 << 14


class MeanFillCompletion:
    """Fill missing APs with the per-AP mean of the filled radio map."""

    def __init__(self, fill_values: np.ndarray):
        self.fill_values = np.asarray(fill_values, dtype=float)

    def complete(self, queries: np.ndarray) -> np.ndarray:
        return np.where(
            np.isfinite(queries), queries, self.fill_values[None, :]
        )

    def resident_nbytes(self) -> int:
        return int(self.fill_values.nbytes)

    def mapped_nbytes(self) -> int:
        return 0


class EncoderCompletion:
    """Run the trained BiSIM encoder over the batch (PR-5 semantics)."""

    def __init__(self, online: OnlineImputer, *, fallback: bool = False):
        self.online = online
        #: True when this completer stands in for a precomputed tensor
        #: that failed validation — the service counts these.
        self.fallback = fallback
        self._nbytes: Optional[int] = None

    def complete(self, queries: np.ndarray) -> np.ndarray:
        return self.online.impute_batch(queries, squeeze=False)

    def resident_nbytes(self) -> int:
        # Best effort via the checkpoint payload (model weights +
        # context index); computed once — the registry only asks at
        # load/evict frequency.
        if self._nbytes is None:
            try:
                from ..bisim.checkpoint import online_payload

                _, arrays, _ = online_payload(self.online)
                self._nbytes = int(
                    sum(np.asarray(a).nbytes for a in arrays.values())
                )
            except Exception:
                self._nbytes = 0
        return self._nbytes

    def mapped_nbytes(self) -> int:
        return 0


class _Bound(NamedTuple):
    """:class:`MapCompletion`'s bound state (see its docstring)."""

    #: The per-AP centre ``c``.
    centre: np.ndarray
    #: ``W = [C∘C | C]`` in float32, in bucket order when partitioned.
    w: np.ndarray
    #: ``2·max_r ‖C_r‖²``.
    c2max2: float
    #: Record id of each row of ``w`` (``None``: record order).
    perm: Optional[np.ndarray] = None
    #: Row offsets of the non-empty buckets in ``w``.
    offsets: Optional[np.ndarray] = None
    #: Per-bucket boxes of ``C``: the centre and half-width of the
    #: float64 min and max per AP.
    mid: Optional[np.ndarray] = None
    half: Optional[np.ndarray] = None


class MapCompletion:
    """Masked-KNN completion against the precomputed imputed map.

    ``precomputed`` is the fully-imputed ``(n_records, n_aps)``
    radio-map tensor written at artifact-build time (it may be a
    read-only memory map).  A query's missing APs are filled with the
    mean, taken in record order, of its ``k`` (at least 1) nearest map
    records.
    Nearness is the squared distance over the query's *observed* APs
    only, computed exactly as ``pair_exact_sq_dists(q_zeroed, record *
    mask)``, with ties broken toward the smaller record index — the
    estimator's :func:`~repro.positioning.index.select_k_nearest`
    finish and tie-break.  A completed row therefore depends only on
    the scan and the map, never on its batch-mates.

    A small batch (at most :data:`_SCAN_ELEMS` difference elements,
    e.g. one row on a 100-record map) scans every record exactly and
    stable-sorts the distances.  A larger one takes its candidates
    from one float32 bound GEMM.  A row left with exactly ``k``
    candidates needs no finish: the candidates contain its k nearest
    records, so they are them.  Other rows go through
    :func:`~repro.positioning.index.select_k_nearest` with the
    observed-AP mask.  All three pick the same records, and taking the
    mean in record order keeps a fill independent of which one its
    row took.

    *Bound.*  With a per-AP centre ``c`` (any centre is valid; only
    the margin's tightness depends on it), ``C = map − c`` and the
    query's centred observed values ``q_c`` (zero where unheard), the
    masked distance is ``‖q_c‖² + W_r·a`` with ``W = [C∘C | C]``
    (``(N, 2D)``, record major, built on the first batch that needs
    it) and ``a = [mask | −2·q_c]``.  ``‖q_c‖²`` is the same for
    every record of a row, so the candidates are selected on
    ``s_r = fl32(W_r·a)`` alone.

    *Margin.*  With ``u = eps32/2``, the float32 roundings of ``W``
    and ``a`` perturb each product by at most ``2u`` relative, and the
    standard dot-product bound adds ``γ_2D = 2D·u/(1 − 2D·u)`` of
    ``S_r = Σ|W_r,j·a_j|``.  So ``s_r`` stays within ``(2D + 2)·u·S_r``
    (to first order) of its exact value; the float64 roundings
    (centring, the exact finish) are ``2^-29`` of that.  Since
    ``2|q||C| ≤ q² + C²``, ``S_r ≤ ‖q_c‖² + 2·max_r‖C_r‖²``, so
    ``margin = 2·(D + 2)·eps32·(‖q_c‖² + 2·max_r‖C_r‖²)`` bounds
    ``|‖q_c‖² + s_r − d_r|`` against the finish's exact distance
    ``d_r`` with 2x slack.  The k records with the smallest ``s`` have
    ``d ≤ ‖q_c‖² + s_(k) + margin``, so the k-th smallest ``d`` does
    too, and every record at or below it — each true neighbour and
    each record tied with the k-th — has ``s_r ≤ s_(k) + 2·margin``.
    All of those are kept and re-evaluated exactly.  The slack also
    covers rounding the threshold to float32.  (The relative error
    model needs every nonzero term above float32's subnormal range;
    a nonzero ``C`` or ``q_c`` is at least one float64 ulp of a dBm
    reading, ~1e-14, so its square is ~1e-28.)  A row whose ``s`` is
    not all finite (a huge reading overflowing float32, say) keeps no
    candidates and takes the finish's exact scan of every record.

    *Buckets.*  A shard whose estimator has a
    :class:`~repro.positioning.SpatialIndex` over as many records as
    the map hands the index's bucket assignment to its completion.
    ``W`` is then laid out in bucket order, and each non-empty bucket
    keeps a box: the float64 min and max of ``C`` per AP, stored as
    the interval's centre and half-width.

    - *Lower bound.*  Restricted to a row's heard APs, a box gives
      ``lb = Σ_j gap_j²``, where ``gap_j`` is the distance from
      ``q_c,j`` to the box's interval on AP ``j``.  Each member's
      centred readings lie inside the box, so ``lb`` is at most every
      member's masked distance ``d_r``.  Its float64 roundings are
      again ~``2^-29`` of the margin.
    - *Upper bound.*  The row probes its buckets in ``lb`` order until
      they hold ``k`` records.  By the margin argument, their ``s``
      give ``d_(k) ≤ ‖q_c‖² + s_(k) + margin``.
    - *Pruning.*  A bucket with ``lb > ‖q_c‖² + s_(k) + 2·margin``
      has ``d_r > d_(k)`` for every member (the second margin covers
      ``lb``'s roundings).  It holds no neighbour of the row and no
      record tied with the k-th, so the row need not read it.
    - *Sweep.*  A batch sweeps the union of its rows' surviving
      buckets, one GEMM per run of consecutive buckets.  Every record
      at or below a row's ``d_(k)`` lies in that union, so the k
      smallest ``s`` over it bound ``d_(k)`` as over the whole map,
      and the threshold keeps every neighbour as above.  Reading more
      buckets than that is always safe: once the union holds
      :data:`_SWEEP_ALL` of the rows, the batch reads all of ``W``.
    - *Non-finite.*  A row whose upper bound is not finite reads every
      bucket.  If its ``s`` is not all finite either, it takes the
      exact scan as above.

    Any partition keeps the answer exact; the index's only makes the
    bound tight.  Without one, a batch sweeps all of ``W``.

    A memory-mapped tensor is served *in place*: ``W`` (the same
    bytes as a float64 copy of the map) is the only derived matrix,
    and the exact finish gathers only the candidate records.  A shard
    whose queries arrive fully observed touches no tensor pages at
    all after the construction-time validation pass.
    """

    def __init__(
        self,
        precomputed: np.ndarray,
        fill_values: Optional[np.ndarray],
        *,
        k: int = 3,
    ):
        if int(k) < 1:
            raise ServingError(f"completion needs k >= 1, got {k}")
        if not isinstance(precomputed, np.ndarray):
            precomputed = np.asarray(precomputed)
        if precomputed.ndim != 2 or precomputed.shape[0] == 0:
            raise ServingError(
                "precomputed completion tensor must be (n, D)"
            )
        if not np.isfinite(precomputed).all():
            raise ServingError(
                "precomputed completion tensor must be fully imputed"
            )
        if precomputed.dtype != np.float64:
            # One resident copy beats a per-batch upcast; shard
            # artifacts store float64, so this is the exotic case.
            precomputed = np.ascontiguousarray(precomputed, dtype=float)
        self.precomputed = precomputed
        self.fill_values = (
            None
            if fill_values is None
            else np.asarray(fill_values, dtype=float)
        )
        self.k = int(k)
        self._assign: Optional[np.ndarray] = None
        self._bound: Optional[_Bound] = None

    def _partition(self, assign: np.ndarray) -> None:
        """Serve through the buckets of ``assign`` (a non-negative
        bucket id per record), as the class docstring describes.

        The owning shard calls this before the completion serves;
        ``W`` is rebuilt in bucket order on the next batch that needs
        it.
        """
        if assign is not self._assign:
            self._assign = np.asarray(assign, dtype=np.int64)
            self._bound = None

    def _bound_state(self) -> _Bound:
        """The bound state, built on first use.

        ``W`` is filled in row chunks, so the transient memory is one
        float64 chunk on top of ``W`` itself.  With a partition, each
        chunk gathers its records in bucket order and widens the boxes
        of the buckets it overlaps.
        """
        if self._bound is None:
            t = self.precomputed
            n, d = t.shape
            # A plain array even when ``t`` is a memory map.
            centre = np.array(t.mean(axis=0), dtype=float)
            w = np.empty((n, 2 * d), dtype=np.float32)
            perm = offsets = lo = hi = None
            if self._assign is not None:
                perm = np.argsort(self._assign, kind="stable")
                sizes = np.bincount(self._assign)
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
        mask: np.ndarray,
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
        heard = mask.astype(float)
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

    def _nearest(self, qz: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``(b, k)`` masked nearest-record ids, in record order.

        Inside a traced batch the bound path records
        ``completion.bound``, ``completion.gemm`` (meta ``rows_read``,
        the rows of ``W`` the sweep read) and ``completion.finish``
        (meta ``candidates``) as children of the active span;
        otherwise nothing is timed.
        """
        b = qz.shape[0]
        n, d = self.precomputed.shape
        k = min(self.k, n)
        if b * n * d <= _SCAN_ELEMS:
            # The finish's pair distances; a stable sort orders them
            # by (distance, record id) as the finish does.
            d2 = pair_exact_sq_dists(
                qz[:, None, :], self.precomputed * mask[:, None, :]
            )
            ids = np.argsort(d2, axis=1, kind="stable")[:, :k]
            return np.sort(ids, axis=1)
        span = current_span()
        tick = time.perf_counter if span is not None else (lambda: 0.0)
        t0 = tick()
        state = self._bound_state()
        w = state.w
        a = np.empty((b, 2 * d), dtype=np.float32)
        a[:, :d] = mask
        with np.errstate(over="ignore", invalid="ignore"):
            qc = qz - state.centre
            qc *= mask
            np.multiply(qc, -2.0, out=a[:, d:], casting="same_kind")
            qc2 = np.einsum("ij,ij->i", qc, qc)
            margin2 = _BOUND_MARGIN * (d + 2) * (qc2 + state.c2max2)
            if state.perm is None:
                t1 = tick()
                # ``W @ aᵀ`` is the faster GEMM at the small batches
                # serving sees; the (b, N) copy makes the row scans
                # contiguous.
                s = np.ascontiguousarray((w @ a.T).T)
            else:
                starts, ends = self._surviving_runs(
                    state, a, qc, mask, qc2 + margin2, k
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
            # them.
            ids = np.sort(ri.reshape(b, k), axis=1)
        else:
            ids = select_k_nearest(qz, self.precomputed, k, qi, ri, mask)[1]
            ids = np.sort(ids, axis=1)
        if span is not None:
            t3 = time.perf_counter()
            span.child("completion.bound", duration=t1 - t0)
            span.child(
                "completion.gemm",
                duration=t2 - t1,
                meta={"rows_read": int(s.shape[1])},
            )
            span.child(
                "completion.finish",
                duration=t3 - t2,
                meta={"candidates": int(qi.size)},
            )
        return ids

    def complete(self, queries: np.ndarray) -> np.ndarray:
        q = np.asarray(queries, dtype=float)
        observed = np.isfinite(q)
        if observed.all():
            return q
        out = q.copy()
        any_obs = observed.any(axis=1)
        if not any_obs.all():
            fill = self.fill_values
            if fill is None:
                raise ServingError(
                    "fully-missing query and no fill values to complete it"
                )
            out[~any_obs] = fill
        partial = np.nonzero(any_obs & ~observed.all(axis=1))[0]
        if partial.size:
            mask = observed[partial]
            # The gathered block doubles as the zero-filled query
            # matrix: fancy indexing already copied it out of ``out``.
            qz = out[partial]
            qz[~mask] = 0.0
            fills = self.precomputed[self._nearest(qz, mask)].mean(axis=1)
            # Observed slots still hold the query values — only the
            # zeroed missing slots take the KNN fills.
            np.copyto(qz, fills, where=~mask)
            out[partial] = qz
        return out

    def resident_nbytes(self) -> int:
        """Bytes of completion state living in anonymous memory."""
        n = 0
        if not backed_by_memmap(self.precomputed):
            n += int(self.precomputed.nbytes)
        if self._bound is not None:
            n += sum(
                int(a.nbytes)
                for a in self._bound
                if isinstance(a, np.ndarray)
            )
        if self.fill_values is not None:
            n += int(self.fill_values.nbytes)
        return n

    def mapped_nbytes(self) -> int:
        """Bytes of completion state served through a memory map."""
        if backed_by_memmap(self.precomputed):
            return int(self.precomputed.nbytes)
        return 0


def completion_from(
    online: Optional[OnlineImputer],
    fill_values: Optional[np.ndarray],
):
    """The legacy completer for a pipeline without a precomputed map.

    Mirrors the PR-5 dispatch: a trained online imputer runs the
    encoder, otherwise per-AP mean fill; ``None`` when the pipeline
    has neither (such a shard cannot complete queries).
    """
    if online is not None:
        return EncoderCompletion(online)
    if fill_values is not None:
        return MeanFillCompletion(fill_values)
    return None
