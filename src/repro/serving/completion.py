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
  KNN against the precomputed tensor — one float32 bound GEMM, then
  the estimator's exact finish; no encoder).
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

from typing import Optional, Tuple

import numpy as np

from ..artifacts import backed_by_memmap
from ..bisim import OnlineImputer
from ..exceptions import ServingError
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

#: Map elements per chunk while building the bound matrix.
_BUILD_CHUNK = 1 << 17

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


class MapCompletion:
    """Masked-KNN completion against the precomputed imputed map.

    ``precomputed`` is the fully-imputed ``(n_records, n_aps)``
    radio-map tensor written at artifact-build time (it may be a
    read-only memory map).  A query's missing APs are filled with the
    mean, taken in record order, of its ``k`` nearest map records.
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
        self._bound: Optional[Tuple[np.ndarray, np.ndarray, float]] = None

    def _bound_state(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """``(centre, W, 2·max_r ‖C_r‖²)``, built on first use.

        ``W`` is filled in row chunks, so the transient memory is one
        float64 chunk on top of ``W`` itself.
        """
        if self._bound is None:
            t = self.precomputed
            n, d = t.shape
            # A plain array even when ``t`` is a memory map.
            centre = np.array(t.mean(axis=0), dtype=float)
            w = np.empty((n, 2 * d), dtype=np.float32)
            c2max = 0.0
            step = max(1, _BUILD_CHUNK // d)
            for s in range(0, n, step):
                c = t[s : s + step] - centre
                w[s : s + step, d:] = c
                c *= c
                w[s : s + step, :d] = c
                c2max = max(c2max, float(c.sum(axis=1).max()))
            self._bound = (centre, w, 2.0 * c2max)
        return self._bound

    def _nearest(self, qz: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``(b, k)`` masked nearest-record ids, in record order."""
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
        centre, w, c2max2 = self._bound_state()
        a = np.empty((b, 2 * d), dtype=np.float32)
        a[:, :d] = mask
        with np.errstate(over="ignore", invalid="ignore"):
            qc = qz - centre
            qc *= mask
            np.multiply(qc, -2.0, out=a[:, d:], casting="same_kind")
            # ``W @ aᵀ`` is the faster GEMM at the small batches serving
            # sees; the (b, N) copy makes the row scans contiguous.
            s = np.ascontiguousarray((w @ a.T).T)
            margin2 = _BOUND_MARGIN * (d + 2) * (
                np.einsum("ij,ij->i", qc, qc) + c2max2
            )
            thr = np.partition(s, k - 1, axis=1)[:, k - 1] + margin2
            finite = np.isfinite(s).all(axis=1)
            if not finite.all():
                # No candidates: the finish scans every record instead.
                thr[~finite] = np.nan
            keep = s <= thr.astype(np.float32)[:, None]
        qi, ri = np.divmod(np.flatnonzero(keep), n)
        if qi.size == b * k and (np.bincount(qi, minlength=b) == k).all():
            # k candidates per row contain the k nearest, so they are
            # them; ``ri`` is already in record order.
            return ri.reshape(b, k)
        ids = select_k_nearest(qz, self.precomputed, k, qi, ri, mask)[1]
        return np.sort(ids, axis=1)

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
            centre, w, _ = self._bound
            n += int(centre.nbytes + w.nbytes)
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
