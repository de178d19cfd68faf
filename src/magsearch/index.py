"""Two-stage index assembly, persistence, and runtime edge loading.

Stage 1 prunes the exact K-NN graph down to at most K1 Euclidean edges
per node and flags the self-dominators by the strict census, at every n.
Stage 2 takes every node's pool from ``io.compute_ground_truth``, with
the node as an inner-product query: its exact top min(ls, n) ids, ties by
id, itself included. It filters each pool through dominator selection and
stores at most K2 IP-oriented edges alongside. Both stages step over the
same gram blocks, whose rows ``stats._gram_rows`` works out from n alone;
a node range of whole blocks (``_stage2_rows``) hands back (source,
target) arrays. Stage 2 splits the nodes once into at most ``workers``
such ranges, fewer when n spans fewer gram blocks (``_stage2_ranges``):
the calling thread runs the first and a pool thread each of the rest,
all threads of the calling process (``_run_ranges``). The ranges join in
range order, so the bytes do not depend on the split. At query time
``materialize`` loads ceil(alpha * R) IP edges first and fills the
remaining out-degree budget with Euclidean edges.

In memory each edge family is one ``CsrEdges`` pair (n + 1 offsets, flat
int32 ids); ``materialize`` is the only step that pads them into a
``SearchGraph``. The file keeps a per-node layout, whose word positions
``_layout`` works out once: the writer scatters through it into one u32
array, and the reader gathers through it from one.

File format (little-endian): magic ``MAG1``; u32 fields version=1, n, dim,
K1, K2; per node u32 n_euc, u32 n_ip, then that many u32 ids (Euclidean
edges first); n bytes of self-dominator flags (the strict census); u32
metadata byte length; UTF-8 JSON metadata.
"""

from __future__ import annotations

import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .construction import (CsrEdges, _mirror_pairs, _pair_keys, build_exact_knn,
                           mrng_prune, ndg_select)
from .errors import FormatError, UsageError
from .io import compute_ground_truth
from .metrics import Dataset, MetricKind
from .search import SearchGraph
from .stats import _gram_rows, _row_blocks, self_dominator_set

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
        families = (("euclid", self.euclid, self.K1, MetricKind.EUCLIDEAN),
                    ("ip", self.ip, self.K2, MetricKind.INNER_PRODUCT))
        for kind, edges, cap, _ in families:
            if edges.n != self.n:
                raise UsageError("edge list length does not match n")
            src, ids = edges.sources(), edges.ids
            # a repeat is a repeated code source * n + id; ids are checked
            # for range first, so no out-of-range id can pose as one
            codes = np.sort(src.astype(np.int64) * self.n + ids)
            checks = ((np.flatnonzero(edges.lengths() > cap),
                       f"{kind} edges exceed cap {cap}"),
                      (src[ids == src], f"self-loop in {kind} edges"),
                      (src[(ids < 0) | (ids >= self.n)], f"{kind} edge id out of range"),
                      (codes[1:][np.diff(codes) == 0] // self.n,
                       f"duplicate {kind} edges"))
            for bad, what in checks:
                if len(bad):
                    raise UsageError(f"node {bad[0]}: {what}")
        if dataset is not None:
            self.check_shape(dataset)
            base = dataset.data.astype(np.float64)
            # the keys both mirrors rank by, so that a fresh build passes
            # whatever the rounding of other kernels
            for kind, edges, _, metric in families:
                src, ids = edges.sources(), edges.ids
                key = _pair_keys(metric, base, src, ids)
                descending = (key[1:] < key[:-1]) | ((key[1:] == key[:-1])
                                                     & (ids[1:] < ids[:-1]))
                bad = src[1:][(src[1:] == src[:-1]) & descending]
                if len(bad):
                    raise UsageError(f"node {bad[0]}: {kind} edges not best "
                                     "first, ties by id")
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
    src, dst, d2 = _mirror_pairs(src, dst, base, MetricKind.EUCLIDEAN)
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


def _stage2_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    """At most ``workers`` contiguous node ranges of whole gram blocks, each
    ceil(blocks / workers) blocks but the last: the fewest ranges whose
    longest is that short. As in every gram scan, a lone last row joins
    the range before it."""
    block = _gram_rows(n)
    return _row_blocks(n, block * math.ceil(math.ceil(n / block) / workers))


def _stage2_rows(bounds: tuple[int, int], dataset: Dataset, K2: int,
                 ls: int, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominator edges of the nodes in [start, stop) as (source, target)
    arrays, grouped by ascending source. A node's pool is its
    ``compute_ground_truth`` row as an inner-product query: its exact top
    min(ls, n) ids by (-IP, id), itself included. Dominator selection runs
    over the range's pools, on ``base``, the float64 dataset."""
    start, stop = bounds
    pools = compute_ground_truth(dataset, Dataset(dataset.data[start:stop]),
                                 min(ls, dataset.n), MetricKind.INNER_PRODUCT)
    kept = ndg_select(np.arange(start, stop), pools, base, K2)
    return start + np.nonzero(kept)[0], pools[kept]


def _run_ranges(task, ranges: list[tuple[int, int]]) -> list:
    """task(r) for every node range r, in range order, on threads of the
    calling process: the calling thread runs the first range and a pool of
    one thread per other range the rest, so a single range opens no pool;
    a range's exception propagates."""
    if len(ranges) == 1:
        return [task(ranges[0])]
    with ThreadPoolExecutor(max_workers=len(ranges) - 1) as pool:
        rest = pool.map(task, ranges[1:])
        return [task(ranges[0]), *rest]


def _check_stage2_args(K2: int, ls: int, seed: int, workers: int) -> None:
    """Raise ``UsageError`` on a bad stage-2 argument, before any work."""
    for bad, what in ((K2 < 0, f"K2 must be >= 0, got {K2}"),
                      (ls < 1, f"candidate pool ls must be >= 1, got {ls}"),
                      (seed < 0, f"seed must be >= 0, got {seed}"),
                      (workers < 1, f"workers must be >= 1, got {workers}"),
                      (ls < K2, f"candidate pool ls={ls} must be >= K2={K2}")):
        if bad:
            raise UsageError(what)


def build_stage2(stage1: MagIndex, dataset: Dataset, K2: int, ls: int,
                 seed: int = 0, workers: int = 1,
                 passes: int | None = None) -> MagIndex:
    """Inject up to K2 dominator edges per node on top of a stage-1 index.

    Each node's IP candidate pool is its ``compute_ground_truth`` row as an
    inner-product query: its exact top min(ls, n) ids by descending inner
    product (ties by id), the node itself included. Dominator selection
    keeps up to K2 of each pool, and the reverse copy of every selected
    edge joins its target's list; each list then keeps its K2 best by
    descending inner product, ties by id (``_mirror_pairs``). K2=0
    leaves the index unchanged apart from metadata. The self-dominator flags
    are stage 1's strict census at every n. Stage 2 draws nothing at
    random: ``seed`` is only validated and recorded. ``passes`` is ignored;
    it remains for callers written against the search-based stage 2.
    Results are independent of ``workers``, which must be >= 1: node ranges
    are whole gram blocks, whose bounds depend on n alone, run on threads
    of the calling process that share its one BLAS thread count (with
    ``workers > 1`` set it to 1; see the README). ``ls`` must be >= 1 at
    every K2, since it goes into the metadata.
    """
    stage1.check_shape(dataset, "stage-1 index")
    _check_stage2_args(K2, ls, seed, workers)
    meta = dict(stage1.metadata)
    # "mirror" stays in the metadata, so the index bytes equal those of
    # earlier versions, which could also skip the reverse copies
    meta.update({"stage": 2, "K2": K2, "stage2_ls": ls, "stage2_seed": seed,
                 "mirror": True})
    n = stage1.n
    ip = CsrEdges.empty(n)
    if K2 > 0:
        base = dataset.data.astype(np.float64)
        rows = _run_ranges(lambda r: _stage2_rows(r, dataset, K2, ls, base),
                           _stage2_ranges(n, workers))
        src, dst = map(np.concatenate, zip(*rows))
        # the result is not bi-directional: the K2 cap drops most reverse
        # copies. On heavy-tailed norms the edges point at a few high-norm
        # hubs, so most nodes keep no IP in-edge (9,029 of 10,000 on the
        # acceptance c07 panel)
        src, dst, _ = _mirror_pairs(src, dst, base, MetricKind.INNER_PRODUCT, K2)
        ip = CsrEdges.from_pairs(src, dst, n)
    return MagIndex(n=n, dim=stage1.dim, K1=stage1.K1, K2=K2,
                    euclid=stage1.euclid.copy(), ip=ip,
                    self_dominator=stage1.self_dominator.copy(), metadata=meta)


def build_mag(dataset: Dataset, K: int, K1: int, K2: int, ls: int,
              seed: int = 0, workers: int = 1) -> MagIndex:
    """Stage 1 then stage 2, with stage 2's arguments checked first."""
    _check_stage2_args(K2, ls, seed, workers)
    stage1 = build_stage1(dataset, K, K1, seed=seed)
    return build_stage2(stage1, dataset, K2, ls, seed=seed, workers=workers)


def _layout(euclid: CsrEdges, ip: CsrEdges) -> tuple[np.ndarray, ...]:
    """Word positions, within the per-node section, of every node's first
    count (its second follows), of every Euclidean id and of every IP id.
    Node i's record starts at word 2i + (edges of the nodes before it).
    Reads only the offsets of either family."""
    heads = 2 * np.arange(euclid.n) + euclid.offsets[:-1] + ip.offsets[:-1]
    e_src, p_src = euclid.sources(), ip.sources()
    return (heads,
            np.arange(len(e_src)) + 2 * (e_src + 1) + ip.offsets[e_src],
            np.arange(len(p_src)) + 2 * (p_src + 1) + euclid.offsets[p_src + 1])


def index_to_bytes(index: MagIndex) -> bytes:
    euclid, ip = index.euclid, index.ip
    heads, e_at, p_at = _layout(euclid, ip)
    nodes = np.empty(2 * index.n + len(euclid.ids) + len(ip.ids), dtype="<u4")
    nodes[heads], nodes[heads + 1] = euclid.lengths(), ip.lengths()
    nodes[e_at], nodes[p_at] = euclid.ids, ip.ids
    blob = json.dumps(index.metadata, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<5I", VERSION, index.n, index.dim,
                                        index.K1, index.K2),
                     nodes.tobytes(), index.self_dominator.astype(np.uint8).tobytes(),
                     struct.pack("<I", len(blob)), blob])


def index_from_bytes(buf: bytes, name: str) -> MagIndex:
    """Parse and validate the bytes of an index file; every ``FormatError``
    names ``name``, the file's path when ``load_index`` reads it."""
    at = 0

    def take(count: int) -> bytes:
        nonlocal at
        if at + count > len(buf):
            raise FormatError(f"{name}: truncated index file")
        at += count
        return buf[at - count:at]

    if take(4) != MAGIC:
        raise FormatError(f"{name}: bad magic (not an index file)")
    version, n, dim, K1, K2 = struct.unpack("<5I", take(20))
    if version != VERSION:
        raise FormatError(f"{name}: unsupported index version {version}")
    # the per-node section: a walk over the counts finds each node's record
    # and so both families' offsets; the ids are then gathered through the
    # writer's layout
    words = np.frombuffer(buf, dtype="<u4", count=(len(buf) - at) // 4, offset=at)
    heads, end = [], 0
    for _ in range(n):
        if end + 2 > len(words):
            raise FormatError(f"{name}: truncated index file")
        heads.append(end)
        end += 2 + words.item(end) + words.item(end + 1)
    take(4 * end)
    counts = words[np.array(heads, dtype=np.int64) + [[0], [1]]]  # n_euc, n_ip
    euclid, ip = (CsrEdges(np.append(0, np.cumsum(c, dtype=np.int64)),
                           np.empty(c.sum(), dtype=np.int32)) for c in counts)
    _, e_at, p_at = _layout(euclid, ip)
    euclid.ids[:], ip.ids[:] = words[e_at], words[p_at]
    flags = np.frombuffer(take(n), dtype=np.uint8)
    if (flags > 1).any():
        bad = int(np.flatnonzero(flags > 1)[0])
        raise FormatError(f"{name}: node {bad}: self-dominator flag byte "
                          f"{flags[bad]} is not 0 or 1")
    (blob_len,) = struct.unpack("<I", take(4))
    blob = take(blob_len)
    if at != len(buf):
        raise FormatError(f"{name}: {len(buf) - at} trailing bytes")
    try:
        metadata = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{name}: bad metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise FormatError(f"{name}: metadata block is not a JSON object")
    index = MagIndex(n=n, dim=dim, K1=K1, K2=K2, euclid=euclid, ip=ip,
                     self_dominator=flags.astype(bool), metadata=metadata)
    try:
        index.validate()
    except UsageError as exc:
        raise FormatError(f"{name}: {exc}") from exc
    return index


def save_index(index: MagIndex, path: str) -> None:
    with open(path, "wb") as f:
        f.write(index_to_bytes(index))


def load_index(path: str) -> MagIndex:
    with open(path, "rb") as f:
        return index_from_bytes(f.read(), path)


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
    return SearchGraph(alpha=alpha, adjacency=adjacency)
