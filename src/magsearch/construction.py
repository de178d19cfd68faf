"""The exact K-NN graph builder and the two edge-selection rules.

Edge selection is what turns a raw K-NN graph into a navigable index:

* Euclidean pruning keeps candidate p only when p is closer to the node
  than to every already-kept neighbor, which removes detour edges while
  preserving monotone search paths.
* Dominator selection scans candidates in descending inner-product order.
  The first candidate (the potential out-dominator) is always accepted;
  every later candidate y is accepted iff nothing in the candidate set or
  the list owner dominates it: <y,y> >= <y,z> for every other z. Accepted
  points beyond the first are therefore exactly the self-dominators of
  the scanned set, which also guarantees the pairwise non-domination
  conditions among accepted points (no accepted point beyond the first
  can be dominated by, or dominate, another accepted non-first point).

Both rules, ``mrng_prune`` and ``ndg_select``, take (B, W) candidate rows
padded with -1 and return the (B, W) kept mask.

Graph-side arithmetic runs in float64: these are construction-time
decisions, so order stability against the float64 oracle matters more
than kernel speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .metrics import Dataset, MetricKind
from .stats import _census_blocks, _chunk_best_cross

EXACT_NDG_MAX_N = 20000  # quadratic; exists to verify dominator structure, not to index
_PRUNE_BYTES = 1 << 19  # float64 vectors gathered at once by the block rules


@dataclass
class KnnGraph:
    """Per-node K nearest Euclidean neighbors, rows sorted by (distance, id)."""

    neighbors: np.ndarray  # (n, k) int32
    dists: np.ndarray      # (n, k) float64 squared distances
    self_dominator: np.ndarray  # (n,) bool strict census from the same gram pass


@dataclass(frozen=True)
class CsrEdges:
    """Per-node neighbor ids stored flat: row i is ids[offsets[i]:offsets[i + 1]]."""

    offsets: np.ndarray  # (n + 1,) int64, non-decreasing from 0 to len(ids)
    ids: np.ndarray      # (offsets[-1],) int32

    @classmethod
    def from_pairs(cls, src: np.ndarray, dst: np.ndarray, n: int) -> CsrEdges:
        """Rows from (source, target) pairs grouped by ascending source."""
        return cls(np.searchsorted(src, np.arange(n + 1)), dst.astype(np.int32))

    @classmethod
    def empty(cls, n: int) -> CsrEdges:
        return cls(offsets=np.zeros(n + 1, dtype=np.int64),
                   ids=np.empty(0, dtype=np.int32))

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sources(self) -> np.ndarray:
        """The owning node of every entry of ``ids``."""
        return np.repeat(np.arange(self.n, dtype=np.int32), self.lengths())

    def copy(self) -> CsrEdges:
        return CsrEdges(offsets=self.offsets.copy(), ids=self.ids.copy())

    def __getitem__(self, i: int) -> np.ndarray:
        return self.ids[self.offsets[i]:self.offsets[i + 1]]

    def __iter__(self):
        return (self[i] for i in range(self.n))


def _topk_rows(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (B, n) keys, the ids of its k smallest by (key, id)
    and their keys, both (B, k).

    One partition finds each row's k-th key; the candidates are the keys
    at or below it. A row with more than k of them has a tie at the
    boundary: then one stable sort of the block's candidates by (row, key)
    keeps each row's first k in id order among ties. The final stable sort
    within rows orders the k ids by (key, id).
    """
    b, n = keys.shape
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1, None]
    rows, cols = np.divmod(np.flatnonzero(keys <= kth), n)
    if len(cols) > b * k:
        cols = cols[np.lexsort((keys[rows, cols], rows))]
        cols = cols[np.searchsorted(rows, np.arange(b))[:, None] + np.arange(k)]
    cols = cols.reshape(b, k)
    order = np.argsort(np.take_along_axis(keys, cols, axis=1), axis=1, kind="stable")
    ids = np.take_along_axis(cols, order, axis=1)
    return ids.astype(np.int32), np.take_along_axis(keys, ids, axis=1)


def build_exact_knn(dataset: Dataset, K: int) -> KnnGraph:
    """Exact K nearest others per node by brute force, O(n^2), plus the
    strict self-dominator census from the same gram blocks
    (``stats._census_blocks``), which then become squared distances in
    place: |x|^2 - 2<x, y> + |y|^2, with +inf on the diagonal."""
    n = dataset.n
    if not 1 <= K < n:
        raise UsageError(f"K={K} out of range [1, {n})")
    base = dataset.data.astype(np.float64)
    sq_norms = np.einsum("ij,ij->i", base, base)
    neighbors = np.empty((n, K), dtype=np.int32)
    dists = np.empty((n, K), dtype=np.float64)
    census = np.empty(n, dtype=bool)
    for start, self_dots, best_cross, d2 in _census_blocks(base):
        stop = start + len(d2)
        census[start:stop] = self_dots > best_cross
        d2 *= -2.0
        d2 += sq_norms[start:stop, None]
        d2 += sq_norms[None, :]
        np.maximum(d2, 0.0, out=d2)
        neighbors[start:stop], dists[start:stop] = _topk_rows(d2, K)
    return KnnGraph(neighbors=neighbors, dists=dists, self_dominator=census)


def mrng_prune(owners: np.ndarray, ids: np.ndarray, d2: np.ndarray,
               base: np.ndarray, K1: int) -> np.ndarray:
    """Euclidean occlusion pruning of (B, W) candidate rows, each sorted
    ascending by distance ``d2`` to its owner and padded with -1.

    Returns the (B, W) kept mask. A row keeps p iff p is neither padding
    nor the owner and d2(owner, p) < d2(p, r) for every r it kept before p,
    up to K1 keeps. ``base`` is the float64 dataset. Each row holds the
    vectors it has kept, so a candidate is measured against those alone,
    at most K1 of them, in the difference form |r - p|^2.
    """
    kept = np.zeros(ids.shape, dtype=bool)
    width = ids.shape[1]
    cap = min(K1, width)
    rows = max(1, _PRUNE_BYTES // max(1, 8 * width * base.shape[1]))
    for lo in range(0, len(ids), rows):
        block, dists, kept_block = ids[lo:lo + rows], d2[lo:lo + rows], kept[lo:lo + rows]
        vecs = base[block.T]  # (W, B, dim): candidate j of every row is vecs[j]
        open_ = (block >= 0) & (block != owners[lo:lo + rows, None])
        # row b's kept vectors fill held[:keeps[b], b]; the next candidate
        # goes to held[keeps[b], b] and stays there only if it is kept
        held = np.zeros((cap + 1, len(block), base.shape[1]))
        keeps = np.zeros(len(block), dtype=np.int64)
        every = np.arange(len(block))
        for j in range(width):
            take = open_[:, j] & (keeps < cap)
            most = keeps.max()
            if most:
                diff = held[:most] - vecs[j]
                near = dists[:, j] >= np.einsum("kbd,kbd->kb", diff, diff)
                near &= np.arange(most)[:, None] < keeps
                take &= ~near.any(axis=0)
            kept_block[:, j] = take
            held[keeps, every] = vecs[j]
            keeps += take
    return kept


def ndg_select(owners: np.ndarray, ids: np.ndarray, base: np.ndarray,
               K2: int | None) -> np.ndarray:
    """Dominator selection over (B, W) candidate rows, each sorted by
    descending inner product with its owner and padded with -1.

    Returns the (B, W) kept mask. A row never keeps padding or its owner.
    It keeps its first candidate (the potential out-dominator), and a later
    candidate y iff <y,y> >= <y,z> for every other z of the row and for the
    owner, up to K2 keeps (None: no cap). ``base`` is the float64 dataset.

    Candidate y's verdict reads only y's gram row against the row's
    candidates and owner. So the first 2 * K2 columns are decided first,
    and only the rows that have not kept K2 by then pay for the gram rows
    of the columns after them.
    """
    width = ids.shape[1]
    cap = width if K2 is None else min(K2, width)
    kept = np.zeros(ids.shape, dtype=bool)
    if cap == 0:
        return kept
    head = min(width, 2 * cap)
    # a row holds its width + 1 vectors and the gram rows of one pass
    rows = max(1, _PRUNE_BYTES // (8 * (width + 1)
                                   * (max(head, width - head) + base.shape[1])))
    for lo in range(0, len(ids), rows):
        block, own = ids[lo:lo + rows], owners[lo:lo + rows, None]
        open_ = (block >= 0) & (block != own)
        # the owner fills the last column and stands in for the padding and
        # for its own column: a repeated <y, owner> cannot change a maximum
        vecs = base[np.concatenate((np.where(open_, block, own), own), axis=1)]
        take = open_ & (np.cumsum(open_, axis=1) == 1)
        take[:, :head] |= open_[:, :head] & _weak_self_dominators(vecs, 0, head)
        short = np.flatnonzero(np.count_nonzero(take, axis=1) < cap)
        if head < width and len(short):
            take[short, head:] |= (open_[short, head:]
                                   & _weak_self_dominators(vecs[short], head, width))
        kept[lo:lo + rows] = take & (np.cumsum(take, axis=1) <= cap)
    return kept


def _weak_self_dominators(vecs: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(B, stop - start): whether <y,y> >= <y,z> for every other z of its
    row of vecs, for the y in columns [start, stop) of the (B, W, dim)
    stack, from one product of those gram rows against the whole row."""
    gram = vecs[:, start:stop] @ vecs.transpose(0, 2, 1)
    self_dots, best_cross = _chunk_best_cross(gram, start)
    return self_dots >= best_cross


def build_exact_ndg(dataset: Dataset) -> CsrEdges:
    """Full dominator graph with unbounded acceptance, symmetrized.

    Quadratic scan; gated to small n because it exists to verify the
    dominator-structure and connectivity properties, not to serve queries.
    """
    n = dataset.n
    if n < 2:
        raise UsageError("exact dominator graph needs n >= 2")
    if n > EXACT_NDG_MAX_N:
        raise UsageError(f"exact dominator graph gated to n <= {EXACT_NDG_MAX_N}")
    base = dataset.data.astype(np.float64)

    # every node's candidate set plus itself is the whole dataset, so a node
    # accepts its best candidate and every weak self-dominator but itself
    weak, best = [], []
    for start, self_dots, best_cross, gram in _census_blocks(base):
        weak.append(start + np.flatnonzero(self_dots >= best_cross))
        best.append(gram.argmax(axis=1))  # first = lowest id
    weak, best = np.concatenate(weak), np.concatenate(best)
    src = np.concatenate((np.arange(n), np.repeat(np.arange(n), len(weak))))
    dst = np.concatenate((best, np.tile(weak, n)))
    src, dst, _ = _mirror_pairs(src, dst, base, MetricKind.INNER_PRODUCT)
    return CsrEdges.from_pairs(src, dst, n)


def _pair_keys(metric: MetricKind, base: np.ndarray, src: np.ndarray,
               dst: np.ndarray) -> np.ndarray:
    """The best-first ascending key of base[src] and base[dst] per pair,
    -<a, b> or |b - a|^2, in slices; each kernel scores a pair the same
    whatever shares the call."""
    out = np.empty(len(src))
    step = max(1, _PRUNE_BYTES // (8 * base.shape[1]))
    for lo in range(0, len(src), step):
        a, b = base[src[lo:lo + step]], base[dst[lo:lo + step]]
        out[lo:lo + step] = (-np.vecdot(a, b) if metric.larger_is_better
                             else np.einsum("ij,ij->i", b - a, b - a))
    return out


def _mirror_pairs(src: np.ndarray, dst: np.ndarray, base: np.ndarray,
                  metric: MetricKind, cap: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs and their reverses, each once and without self-loops, in
    (source, key, target) order with their ``_pair_keys``, the first cap
    per source (None: all). Duplicates fall out of one sort of the codes
    source * n + target, which leaves targets ascending within a source,
    so one stable sort by (source, key) breaks key ties by target."""
    n = len(base)
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    codes = np.sort((np.concatenate((src, dst)) * n
                     + np.concatenate((dst, src)))[np.tile(src != dst, 2)])
    src, dst = np.divmod(codes[np.diff(codes, prepend=-1) != 0], n)
    key = _pair_keys(metric, base, src, dst)
    order = np.lexsort((key, src))
    if cap is not None:
        ranked = src[order]
        order = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < cap]
    return src[order], dst[order], key[order]


def count_strong_components(edges: CsrEdges) -> int:
    """Number of strongly connected components of a directed adjacency.

    scipy loads here, on the first call, not with the package: no build,
    query or CLI start needs it, and loading it would double the start-up
    time and memory of every process that imports the package."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    mat = csr_matrix((np.ones(len(edges.ids)), edges.ids, edges.offsets),
                     shape=(edges.n, edges.n))
    count, _ = connected_components(mat, directed=True, connection="strong")
    return int(count)
