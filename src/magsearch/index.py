"""Two-stage index assembly, persistence, and runtime edge loading.

Stage 1 prunes the exact K-NN graph down to at most K1 Euclidean edges
per node and flags the self-dominators by the strict census, at every n.
Stage 2 runs an inner-product graph search from every node over the
stage-1 graph, filters the candidates through dominator selection, and
stores at most K2 IP-oriented edges alongside. The searches run as
lockstep blocks of nodes on the query engine (``search._lockstep_pools``);
dominator selection takes each block's final pools at once, and a node
range hands back (source, target) arrays. Ranges run in-process, or on one
process pool per build when workers > 1. At query time ``materialize``
loads ceil(alpha * R) IP edges first and fills the remaining out-degree
budget with Euclidean edges.

In memory each edge family is one ``CsrEdges`` pair (n + 1 offsets, flat
int32 ids); ``materialize`` is the only step that pads them into a
``SearchGraph``. The file keeps a per-node layout.

File format (little-endian): magic ``MAG1``; u32 fields version=1, n, dim,
K1, K2; per node u32 n_euc, u32 n_ip, then that many u32 ids (Euclidean
edges first); n bytes of self-dominator flags (the strict census); u32
metadata byte length; UTF-8 JSON metadata.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .construction import (CsrEdges, _merge_reverse, _pair_scores, _rank,
                           build_exact_knn, mrng_prune, ndg_select)
from .errors import FormatError, UsageError
from .metrics import Dataset, MetricKind
from .search import SearchGraph, _block_size, _key_ids, _lockstep_pools
from .stats import self_dominator_set

MAGIC = b"MAG1"
VERSION = 1


@dataclass
class MagIndex:
    """Per-node dual adjacency: Euclidean-pruned edges plus IP-dominator edges."""

    n: int
    dim: int
    K1: int
    K2: int
    euclid: CsrEdges                    # rows in ascending distance order, <= K1 each
    ip: CsrEdges                        # rows in descending inner product order, <= K2 each
    self_dominator: np.ndarray          # (n,) bool
    metadata: dict = field(default_factory=dict)

    def check_shape(self, dataset: Dataset, what: str = "index") -> None:
        """Raise unless the index was built on data of the dataset's shape."""
        if (self.n, self.dim) != (dataset.n, dataset.dim):
            raise UsageError(f"{what} has {self.n} vectors of dim {self.dim}, "
                             f"but the data has {dataset.n} of dim {dataset.dim}")

    def validate(self, dataset: Dataset | None = None) -> None:
        for kind, edges, cap in (("euclid", self.euclid, self.K1),
                                 ("ip", self.ip, self.K2)):
            if edges.n != self.n:
                raise UsageError("edge list length does not match n")
            src, ids = edges.sources(), edges.ids
            order = np.lexsort((ids, src))
            repeated = (np.diff(src[order]) == 0) & (np.diff(ids[order]) == 0)
            checks = ((np.flatnonzero(edges.lengths() > cap),
                       f"{kind} edges exceed cap {cap}"),
                      (src[ids == src], f"self-loop in {kind} edges"),
                      (src[(ids < 0) | (ids >= self.n)], f"{kind} edge id out of range"),
                      (src[order][1:][repeated], f"duplicate {kind} edges"))
            for bad, what in checks:
                if len(bad):
                    raise UsageError(f"node {bad[0]}: {what}")
        if dataset is not None:
            self.check_shape(dataset)
            base = dataset.data.astype(np.float64)
            src, ids = self.euclid.sources(), self.euclid.ids
            diff = base[ids] - base[src]
            d2 = np.einsum("ij,ij->i", diff, diff)
            descending = (d2[1:] < d2[:-1]) | ((d2[1:] == d2[:-1]) & (ids[1:] < ids[:-1]))
            bad = src[1:][(src[1:] == src[:-1]) & descending]
            if len(bad):
                raise UsageError(f"node {bad[0]}: euclid edges not in "
                                 "(distance, id) order")
            if not np.array_equal(np.flatnonzero(self.self_dominator),
                                  self_dominator_set(dataset)):
                raise UsageError("self-dominator flags disagree with the census")


def _mirror_euclid(src: np.ndarray, dst: np.ndarray, base: np.ndarray,
                   K1: int) -> CsrEdges:
    """Add reverse edges, then re-prune any node whose list exceeds K1.

    Pruned-graph edges are conceptually undirected; without the reverse
    copies, outlying points that appear in nobody's K-NN lists end up with
    zero in-degree and become unreachable. Overflow is resolved with the
    same occlusion rule, which keeps far-but-unshadowed arrivals alive.
    Rows stay in (distance, id) order; only the rows over K1 are pruned.
    """
    n = len(base)
    src, dst = _merge_reverse(src, dst, n)
    src, dst, d2 = _rank(src, dst, _pair_scores(MetricKind.EUCLIDEAN, base, src, dst))
    col = np.arange(len(src)) - np.searchsorted(src, src)
    ids = np.full((n, col.max(initial=-1) + 1), -1)
    dists = np.full(ids.shape, np.inf)
    ids[src, col], dists[src, col] = dst, d2
    keep = ids >= 0
    over = keep.sum(axis=1) > K1
    keep[over] = mrng_prune(np.flatnonzero(over), ids[over], dists[over], base, K1)
    return CsrEdges.from_pairs(np.nonzero(keep)[0], ids[keep], n)


def build_stage1(dataset: Dataset, K: int, K1: int, seed: int = 0) -> MagIndex:
    """Euclidean-pruned edges from the exact K-NN graph, symmetrized under
    the K1 cap; IP edge lists stay empty. The self-dominator flags are the
    census from the same gram pass. Stage 1 draws nothing at random:
    ``seed`` is only recorded in the metadata."""
    n = dataset.n
    if not 1 <= K1 <= K or not K < n:
        raise UsageError(f"need 1 <= K1 <= K < n, got K1={K1}, K={K}, n={n}")
    knn = build_exact_knn(dataset, K)
    base = dataset.data.astype(np.float64)
    mask = mrng_prune(np.arange(n), knn.neighbors, knn.dists, base, K1)
    euclid = _mirror_euclid(np.nonzero(mask)[0], knn.neighbors[mask], base, K1)
    # the K-NN mode and its iteration count stay in the metadata: the index
    # bytes then equal those of earlier versions, which also offered an
    # approximate K-NN graph
    meta = {"stage": 1, "K": K, "K1": K1, "K2": 0, "knn_mode": "exact",
            "seed": seed, "mirror": True, "nndescent_iters": 0}
    return MagIndex(n=n, dim=dataset.dim, K1=K1, K2=0, euclid=euclid,
                    ip=CsrEdges.empty(n), self_dominator=knn.self_dominator,
                    metadata=meta)


def _stage2_entries(nodes: np.ndarray, graph: SearchGraph, n: int,
                    accepted_pad: np.ndarray | None, ls: int, seed: int,
                    passno: int) -> tuple[np.ndarray, np.ndarray]:
    """The (B, W) entries of a block of nodes, distinct per row and padded
    with -1, and the (B, n) seen masks that mark them.

    A node's entries: the node, its current graph neighbors, the 2-hop
    frontier of the previous sweep's accepted IP edges (``accepted_pad``,
    none on the first sweep), and min(ls, n) distinct ids drawn by
    ``default_rng([seed, passno, node])``.
    """
    fill = np.stack([np.random.default_rng([seed, passno, node]).choice(
        n, size=min(ls, n), replace=False) for node in nodes.tolist()])
    parts = [nodes[:, None], graph.adjacency[nodes], fill]
    if accepted_pad is not None:
        parts.append(accepted_pad[accepted_pad[nodes]].reshape(len(nodes), -1))
    entries = np.sort(np.concatenate(parts, axis=1), axis=1)
    entries[:, 1:][entries[:, 1:] == entries[:, :-1]] = -1
    # sort the duplicates, now -1, to the front and drop the columns that
    # are padding in every row: the block scores fewer entries
    entries.sort(axis=1)
    entries = entries[:, (entries < 0).sum(axis=1).min():]
    seen = np.zeros((len(nodes), n), dtype=bool)
    kept = entries >= 0
    seen[np.nonzero(kept)[0], entries[kept]] = True
    return entries, seen


def _stage2_rows(bounds: tuple[int, int], graph: SearchGraph, dataset: Dataset,
                 accepted: CsrEdges | None, K2: int, ls: int, seed: int,
                 passno: int) -> tuple[np.ndarray, np.ndarray]:
    """Dominator edges of the nodes in [start, stop) as (source, target)
    arrays, grouped by ascending source: an inner-product search from each
    node, run as lockstep blocks, then dominator selection over each
    block's final pools, best first.

    Blocks are sized from the widest entry row of any sweep,
    1 + out-degree + K2**2 + min(ls, n); the first sweep, which has no
    2-hop frontier, is sized the same way.
    """
    start, stop = bounds
    n = dataset.n
    base64 = dataset.data.astype(np.float64)
    accepted_pad = None
    if accepted is not None:
        # accepted edges padded to (n + 1, K2) with -1; row n, which a -1
        # reads, is all padding
        accepted_pad = np.full((n + 1, K2), -1)
        src = accepted.sources()
        accepted_pad[src, np.arange(len(src)) - accepted.offsets[src]] = accepted.ids
    width = 1 + graph.adjacency.shape[1] + K2 * K2 + min(ls, n)
    block = _block_size(n, width, dataset.dim)
    srcs, dsts = [], []
    for lo in range(start, stop, block):
        nodes = np.arange(lo, min(lo + block, stop))
        entries, seen = _stage2_entries(nodes, graph, n, accepted_pad, ls, seed,
                                        passno)
        keys, _ = _lockstep_pools(graph, dataset, dataset.data[nodes], entries,
                                  seen, ls, 0, MetricKind.INNER_PRODUCT)
        pools = _key_ids(keys)
        kept = ndg_select(nodes, pools, base64, K2)
        srcs.append(nodes[np.nonzero(kept)[0]])
        dsts.append(pools[kept])
    return np.concatenate(srcs), np.concatenate(dsts)


def _mirror_ip(accepted: CsrEdges, base: np.ndarray, K2: int) -> CsrEdges:
    """Merge the reverse copy of every dominator edge into its target's list,
    then keep each node's K2 best by descending inner product (ties by id).

    The result is not bi-directional: the K2 cap drops most reverse copies.
    On heavy-tailed norms the edges point at a few high-norm hubs, so most
    nodes keep no IP in-edge (9,029 of 10,000 on the acceptance c07 panel).
    """
    src, dst = _merge_reverse(accepted.sources(), accepted.ids, accepted.n)
    ips = _pair_scores(MetricKind.INNER_PRODUCT, base, src, dst)
    src, dst, _ = _rank(src, dst, -ips, K2)
    return CsrEdges.from_pairs(src, dst, accepted.n)


def build_stage2(stage1: MagIndex, dataset: Dataset, K2: int, ls: int,
                 seed: int = 0, workers: int = 1, passes: int = 3,
                 mirror: bool = True) -> MagIndex:
    """Inject up to K2 dominator edges per node on top of a stage-1 index.

    Each node's candidates come from an inner-product greedy search
    (entry: the node itself, its current neighbors, then seeded random
    fill); blocks of nodes run their searches in lockstep on the query
    engine, as one query panel. The first sweep runs over the stage-1
    graph; later sweeps run over the provisional graph including the
    previous sweep's IP edges, which sharply improves candidate quality at
    bounded search budgets (with ls = n one sweep is already exact).
    mirror=True adds the reverse copy of every selected edge under the K2
    cap; metadata records the flag. K2=0 leaves the index unchanged apart
    from metadata. The self-dominator flags are stage 1's strict census at
    every n. Results are independent of ``workers``, which must be >= 1.
    """
    stage1.check_shape(dataset, "stage-1 index")
    if K2 < 0:
        raise UsageError(f"K2 must be >= 0, got {K2}")
    if passes < 1:
        raise UsageError(f"passes must be >= 1, got {passes}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    meta = dict(stage1.metadata)
    meta.update({"stage": 2, "K2": K2, "stage2_ls": ls, "stage2_seed": seed,
                 "stage2_passes": passes, "mirror": mirror})
    if K2 == 0:
        return MagIndex(n=stage1.n, dim=stage1.dim, K1=stage1.K1, K2=0,
                        euclid=stage1.euclid.copy(), ip=CsrEdges.empty(stage1.n),
                        self_dominator=stage1.self_dominator.copy(), metadata=meta)
    if ls < K2:
        raise UsageError(f"search budget ls={ls} must be >= K2={K2}")

    n = stage1.n
    base64 = dataset.data.astype(np.float64)
    chunk = max(256, math.ceil(n / (workers * 4)))
    bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    current = stage1
    accepted: CsrEdges | None = None
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for passno in range(1, passes + 1):
            graph = materialize(current, R=max(1, current.K1 + current.K2), alpha=1.0)
            task = functools.partial(_stage2_rows, graph=graph, dataset=dataset,
                                     accepted=accepted, K2=K2, ls=ls, seed=seed,
                                     passno=passno)
            parts = (pool.map if pool else map)(task, bounds)
            # one statement, so that no task's (source, target) arrays outlive it
            accepted = CsrEdges.from_pairs(*map(np.concatenate, zip(*parts)), n)
            ip_edges = _mirror_ip(accepted, base64, K2) if mirror else accepted
            current = MagIndex(n=n, dim=stage1.dim, K1=stage1.K1, K2=K2,
                               euclid=stage1.euclid.copy(), ip=ip_edges,
                               self_dominator=stage1.self_dominator.copy(),
                               metadata=meta)
    return current


def build_mag(dataset: Dataset, K: int, K1: int, K2: int, ls: int,
              seed: int = 0, workers: int = 1, passes: int = 3) -> MagIndex:
    """Convenience wrapper: stage 1 then stage 2."""
    stage1 = build_stage1(dataset, K, K1, seed=seed)
    return build_stage2(stage1, dataset, K2, ls, seed=seed, workers=workers,
                        passes=passes)


def index_to_bytes(index: MagIndex) -> bytes:
    parts = [MAGIC, struct.pack("<5I", VERSION, index.n, index.dim,
                                index.K1, index.K2)]
    for e, p in zip(index.euclid, index.ip):
        parts.append(struct.pack("<2I", len(e), len(p)))
        parts.append(e.astype("<u4").tobytes())
        parts.append(p.astype("<u4").tobytes())
    parts.append(index.self_dominator.astype(np.uint8).tobytes())
    blob = json.dumps(index.metadata, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    return b"".join(parts)


def save_index(index: MagIndex, path: str) -> None:
    with open(path, "wb") as f:
        f.write(index_to_bytes(index))


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.off + count > len(self.buf):
            raise FormatError(f"{self.path}: truncated index file")
        out = self.buf[self.off:self.off + count]
        self.off += count
        return out

    def u32(self, count: int = 1) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<u4")


def load_index(path: str) -> MagIndex:
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic (not an index file)")
    version, n, dim, K1, K2 = (int(v) for v in r.u32(5))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported index version {version}")
    euclid, ip = [], []
    for _ in range(n):
        n_euc, n_ip = (int(v) for v in r.u32(2))
        euclid.append(r.u32(n_euc))
        ip.append(r.u32(n_ip))
    flags = np.frombuffer(r.take(n), dtype=np.uint8)
    if (flags > 1).any():
        bad = int(np.flatnonzero(flags > 1)[0])
        raise FormatError(f"{path}: node {bad}: self-dominator flag byte "
                          f"{flags[bad]} is not 0 or 1")
    blob_len = int(r.u32(1)[0])
    blob = r.take(blob_len)
    if r.off != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.off} trailing bytes")
    try:
        metadata = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise FormatError(f"{path}: metadata block is not a JSON object")
    index = MagIndex(n=n, dim=dim, K1=K1, K2=K2, euclid=CsrEdges.from_rows(euclid),
                     ip=CsrEdges.from_rows(ip), self_dominator=flags.astype(bool),
                     metadata=metadata)
    try:
        index.validate()
    except UsageError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return index


def ip_quota(alpha: float, R: int) -> int:
    """ceil(alpha * R) with a guard against float artifacts like 0.3*10."""
    return min(R, max(0, math.ceil(alpha * R - 1e-9)))


def materialize(index: MagIndex, R: int, alpha: float) -> SearchGraph:
    """Load per-node runtime adjacency: IP edges first, Euclidean fill.

    Takes min(ceil(alpha*R), available) IP edges, then Euclidean edges not
    already taken, up to R total. Preserves per-kind order.
    """
    if R < 1:
        raise UsageError(f"R must be >= 1, got {R}")
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
    n, ip, euclid = index.n, index.ip, index.euclid
    adjacency = np.full((n, R), -1, dtype=np.int32)
    quota = ip_quota(alpha, R)
    src = ip.sources()
    col = np.arange(len(src)) - ip.offsets[src]
    take = col < quota
    adjacency[src[take], col[take]] = ip.ids[take]
    n_ip = np.minimum(ip.lengths(), quota)
    # a Euclidean edge whose (row, id) code is among the sorted codes of
    # the IP edges taken drops out (n * n closes the list above every
    # code); the rest follow the IP edges in order until the row holds R
    taken = np.sort(np.append(src[take].astype(np.int64) * n + ip.ids[take], n * n))
    src = euclid.sources()
    code = src.astype(np.int64) * n + euclid.ids
    fresh = taken[np.searchsorted(taken, code)] != code
    src, ids = src[fresh], euclid.ids[fresh]
    col = n_ip[src] + np.arange(len(src)) - np.searchsorted(src, src)
    take = col < R
    adjacency[src[take], col[take]] = ids[take]
    counts = (n_ip + np.bincount(src[take], minlength=n)).astype(np.int32)
    return SearchGraph(R=R, alpha=alpha, adjacency=adjacency, counts=counts)
