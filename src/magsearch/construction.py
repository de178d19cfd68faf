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

Graph-side arithmetic runs in float64: these are construction-time
decisions, so order stability against the float64 oracle matters more
than kernel speed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import UsageError
from .metrics import Dataset
from .stats import _GRAM_CHUNK, _chunk_best_cross, best_cross_inner_product

EXACT_NDG_MAX_N = 20000  # quadratic; exists to verify dominator structure, not to index

_RowRule = Callable[[int, np.ndarray], np.ndarray]  # (node, merged row) -> kept row


@dataclass
class KnnGraph:
    """Per-node K nearest Euclidean neighbors, rows sorted by (distance, id)."""

    k: int
    neighbors: np.ndarray  # (n, k) int32
    dists: np.ndarray      # (n, k) float64 squared distances
    self_dominator: np.ndarray  # (n,) bool strict census from the same gram pass

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]

    def validate(self) -> None:
        n = self.n
        for i in range(n):
            row = self.neighbors[i]
            if (row == i).any():
                raise UsageError(f"node {i} has a self-loop")
            if len(np.unique(row)) != self.k:
                raise UsageError(f"node {i} has duplicate neighbors")
            keys = list(zip(self.dists[i], row))
            if keys != sorted(keys):
                raise UsageError(f"node {i} row not sorted by (distance, id)")


@dataclass(frozen=True)
class CsrEdges:
    """Per-node neighbor ids stored flat: row i is ids[offsets[i]:offsets[i + 1]]."""

    offsets: np.ndarray  # (n + 1,) int64, non-decreasing from 0 to len(ids)
    ids: np.ndarray      # (offsets[-1],) int32

    @classmethod
    def from_rows(cls, rows: list[np.ndarray]) -> CsrEdges:
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=offsets[1:])
        ids = np.concatenate([np.empty(0, dtype=np.int32), *rows]).astype(np.int32)
        return cls(offsets=offsets, ids=ids)

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


def _topk_row(d2_row: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k smallest by (distance, id), handling ties at the boundary."""
    part = np.argpartition(d2_row, k - 1)[:k]
    theta = d2_row[part].max()
    cand = np.nonzero(d2_row <= theta)[0]
    order = np.lexsort((cand, d2_row[cand]))
    sel = cand[order[:k]]
    return sel.astype(np.int32), d2_row[sel]


def build_exact_knn(dataset: Dataset, K: int) -> KnnGraph:
    """Exact K nearest others per node by brute force, O(n^2), plus the
    strict self-dominator census from the same gram chunks, which then
    become squared distances in place: |x|^2 - 2<x, y> + |y|^2."""
    n = dataset.n
    if not 1 <= K < n:
        raise UsageError(f"K={K} out of range [1, {n})")
    base = dataset.data.astype(np.float64)
    sq_norms = np.einsum("ij,ij->i", base, base)
    neighbors = np.empty((n, K), dtype=np.int32)
    dists = np.empty((n, K), dtype=np.float64)
    census = np.empty(n, dtype=bool)
    for start in range(0, n, _GRAM_CHUNK):
        stop = min(start + _GRAM_CHUNK, n)
        d2 = base[start:stop] @ base.T
        self_dots, best_cross = _chunk_best_cross(d2, start)
        census[start:stop] = self_dots > best_cross
        d2 *= -2.0
        d2 += sq_norms[start:stop, None]
        d2 += sq_norms[None, :]
        np.maximum(d2, 0.0, out=d2)
        for local in range(stop - start):
            ids, dd = _topk_row(d2[local], K)
            neighbors[start + local] = ids
            dists[start + local] = dd
    return KnnGraph(k=K, neighbors=neighbors, dists=dists, self_dominator=census)


def mrng_prune(node: int, candidate_ids, candidate_d2, base: np.ndarray,
               K1: int | None) -> np.ndarray:
    """Euclidean occlusion pruning over candidates sorted ascending by distance.

    Keep candidate p iff d2(node, p) < d2(p, r) for every already-kept r;
    stop after K1 keeps. The nearest candidate is always kept. ``base`` is
    the float64 copy of the dataset.
    """
    limit = len(candidate_ids) if K1 is None else min(K1, len(candidate_ids))
    kept_ids = np.empty(limit, dtype=np.int32)
    kept_vecs = np.empty((limit, base.shape[1]))
    m = 0
    for cid, cd2 in zip(candidate_ids, candidate_d2):
        cid = int(cid)
        if cid == node:
            continue
        v = base[cid]
        if m:
            diff = kept_vecs[:m] - v
            if (cd2 >= np.einsum("ij,ij->i", diff, diff)).any():
                continue
        kept_ids[m] = cid
        kept_vecs[m] = v
        m += 1
        if m == limit:
            break
    return kept_ids[:m].copy()


def ndg_select(node: int, candidate_ids, base: np.ndarray,
               K2: int | None) -> np.ndarray:
    """Dominator edge selection over candidates sorted by descending <node, .>.

    The first candidate is always accepted (the potential out-dominator);
    each later one is accepted iff it is a self-dominator of the scanned
    set: <y,y> >= <y,z> for every other candidate z and for the owner.
    Returns at most K2 ids in acceptance (= list) order. ``base`` is the
    float64 copy of the dataset.
    """
    cand = np.asarray(candidate_ids, dtype=np.int64)
    cand = cand[cand != node]
    if len(cand) == 0 or K2 == 0:
        return np.empty(0, dtype=np.int32)
    self_dots, best_cross = best_cross_inner_product(base[np.append(cand, node)])
    kept = self_dots[:len(cand)] >= best_cross[:len(cand)]
    kept[0] = True
    return cand[kept][:K2].astype(np.int32)


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

    # every node's candidate set plus itself is the whole dataset, so the
    # acceptance test reduces to one global weak self-domination census
    self_dots, best_cross = best_cross_inner_product(base)
    weak_dominator = self_dots >= best_cross
    by_ip = _by_inner_product(base)
    ids = np.arange(n)
    rows = []
    for i in range(n):
        order = by_ip(i, ids[ids != i])
        rows.append(order[(np.arange(len(order)) == 0) | weak_dominator[order]])
    return _merge_reverse(CsrEdges.from_rows(rows), by_ip)


def _merge_reverse(edges: CsrEdges, rule: _RowRule) -> CsrEdges:
    """Unite every row with the reverse copies of the edges that point at it.

    ``rule(node, merged)`` then orders (and may cap) each merged row, which
    it receives ascending by id with no self-loop.
    """
    n = edges.n
    out_src, out_dst = edges.sources().astype(np.int64), edges.ids.astype(np.int64)
    src = np.concatenate((out_src, out_dst))
    dst = np.concatenate((out_dst, out_src))
    pairs = np.unique((src * n + dst)[src != dst])
    merged = CsrEdges(offsets=np.searchsorted(pairs // n, np.arange(n + 1)),
                      ids=(pairs % n).astype(np.int32))
    return CsrEdges.from_rows([rule(i, merged[i]) for i in range(n)])


def _by_inner_product(base: np.ndarray, cap: int | None = None) -> _RowRule:
    """Row rule for ``_merge_reverse``: descending <node, .> (ties by id), first cap."""
    def rule(node: int, merged: np.ndarray) -> np.ndarray:
        return merged[np.lexsort((merged, -(base[merged] @ base[node])))][:cap]
    return rule


def count_strong_components(edges: CsrEdges) -> int:
    """Number of strongly connected components of a directed adjacency."""
    mat = csr_matrix((np.ones(len(edges.ids)), edges.ids, edges.offsets),
                     shape=(edges.n, edges.n))
    count, _ = connected_components(mat, directed=True, connection="strong")
    return int(count)
