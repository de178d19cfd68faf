"""Greedy beam search over a materialized graph, with optional metric switch.

The traversal loop: seed a bounded candidate pool, repeatedly expand the
best unvisited entry, score its unseen neighbors, insert them, truncate
to the pool bound, and stop when every pool entry has been expanded.

The single-query path (``anms_search``, ``greedy_search``) is the
lockstep engine's reference, and it runs at Python speed rather than
numpy-call speed: a Python list of (score, id) keys, one ``sorted()`` to
seed it, one neighbour row taken as a list per hop, filtered and marked
through a memoryview of the seen mask, one kernel call on the fresh rows,
and one ``CandidatePool.offer`` of their keys, which skips a key no
better than the worst with one comparison. The switch is one sort.

The two-stage variant runs that loop under Euclidean distance for m
expansions (pulling the pool toward the query direction), then switches
the surviving pool to inner product — visited flags intact — and runs to
termination. m=0 is exactly the plain inner-product search. The Euclidean
phase scores a node x as |x|² - 2<x,q> (``Dataset.sq_norms``): the
squared distance to q less |q|², which ranks nodes as that distance does
up to float32 rounding (the split FAISS uses; Johnson, Douze & Jégou,
IEEE Trans. Big Data 2019). It keeps every <x,q> it computes, and the
switch re-keys the pool from those products. So the switch costs no
distance computation, and the IP phase sees the very scores a fresh
``np.vecdot`` would give.

A query scores c = ``_entry_count(n, ls, R)`` entries before its first
hop: every id when ls >= n, which keeps the answers exact there, and
otherwise min(ls, R), so that seeding costs no more than one expansion.
The pool holds up to min(ls, n) ids, and the walk fills the rest of it,
as graph indexes do from one or a few entry points (HNSW: Malkov &
Yashunin, TPAMI 2020). A pool that the walk cannot fill holds every id
reachable from the entries, so a query returns fewer than k ids only when
fewer than k are reachable.
The c ids are a pure function of the seed words, n and c. splitmix64's
finaliser (Steele, Lea & Flood, OOPSLA 2014) folded over the words gives
a 64-bit key; draws hashed from the key and a counter feed Floyd's
sampling without replacement (Bentley & Floyd, CACM 1987). The lockstep
engine, ``run_queries``, evaluates the rule for a whole block in a few
array operations, the single-query path for one query, and both pick the
same ids.

Scores are float32 on both paths, and the engine's pool keys hold float32
scores, so a query whose scores could overflow float32 is refused
(``_check_query``). Only queries search: the build's stage 2 ranks exact
inner products from gram rows and runs no search.

The engine's step is array bookkeeping around one ``score_batch`` call,
so it keeps that bookkeeping small. It gathers with ``np.take``, which
beats fancy indexing on these shapes. It walks a copy of the neighbour
rows padded with each row's own id (``SearchGraph.padded``, made once
per graph), which the seen mask always rejects, so a step needs no
padding mask. And it counts distance computations once, off the seen
masks at the end, since every scored id is marked seen exactly once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UsageError
from .metrics import Dataset, MetricKind, score_batch


@dataclass(frozen=True)
class SearchGraph:
    """Immutable runtime adjacency under a fixed out-degree cap and IP-edge ratio."""

    alpha: float
    adjacency: np.ndarray  # (n, R) int32; a -1 cell is padding, wherever it sits

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def padded(self) -> np.ndarray:
        """The adjacency with each padding cell holding its row's own id,
        made on first use and kept; both search paths walk it."""
        return np.where(self.adjacency >= 0, self.adjacency,
                        np.arange(self.n, dtype=self.adjacency.dtype)[:, None])


@dataclass(frozen=True)
class SearchParams:
    ls: int                      # candidate pool bound
    k: int                       # results to return
    m: int = 0                   # Euclidean expansions before the IP switch
    seed: int | tuple[int, ...] = 0  # words, each an int in [0, 2**64)
    _key: int = field(init=False, repr=False, compare=False)  # _seed_key(seed)

    def __post_init__(self):
        if not 1 <= self.k <= self.ls:
            raise UsageError(f"need 1 <= k <= ls, got k={self.k}, ls={self.ls}")
        if self.m < 0:
            raise UsageError(f"m must be >= 0, got {self.m}")
        object.__setattr__(self, "_key", _seed_key(self.seed))


@dataclass
class SearchStats:
    dist_comps: int = 0
    hops: int = 0


@dataclass
class SearchResult:
    ids: np.ndarray  # int32 best-first: at most k ids, fewer only when
                     # fewer are reachable
    stats: SearchStats


class CandidatePool:
    """Bounded pool of (id, score, visited) kept sorted best-first.

    Keys are orientation-adjusted (score, id) tuples so ascending order is
    best-first under either metric, with ties broken by lower id. A scan
    hint makes repeated first-unvisited lookups cheap: every index below
    the hint is known to be visited.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._keys: list[tuple[float, int]] = []
        self._visited: list[bool] = []
        self._hint = 0

    def fill(self, keys) -> None:
        """Replace the entries by the best ``capacity`` of keys, orientation-
        adjusted (score, id) tuples of distinct ids, all unvisited: one sort."""
        self._keys = sorted(keys)[:self.capacity]
        self._visited = [False] * len(self._keys)
        self._hint = 0

    def offer(self, keys) -> int:
        """Insert each of keys, orientation-adjusted (score, id) tuples with
        the score negated when larger is better, in turn, and return how many
        went in. While the pool is full, a key no better than the worst entry
        is skipped with one comparison.

        Callers must not offer the same id twice per query (the traversal's
        seen-table guarantees that); an id evicted from a full pool can
        never re-qualify because the pool only ever improves.
        """
        pool, visited, capacity = self._keys, self._visited, self.capacity
        hint, taken = self._hint, 0
        for key in keys:
            if len(pool) >= capacity and key >= pool[capacity - 1]:
                continue
            pos = bisect_left(pool, key)
            pool.insert(pos, key)
            visited.insert(pos, False)
            if pos < hint:
                hint = pos
            taken += 1
        del pool[capacity:], visited[capacity:]  # the keys pushed past the bound
        self._hint = hint
        return taken

    def pop_best_unvisited(self) -> int:
        """Mark and return the best unvisited id, or -1 when none remain."""
        visited = self._visited
        try:
            i = visited.index(False, self._hint)
        except ValueError:
            self._hint = len(visited)
            return -1
        visited[i] = True
        self._hint = i + 1
        return self._keys[i][1]

    def ids_best_first(self) -> np.ndarray:
        return np.fromiter((k[1] for k in self._keys), dtype=np.int32,
                           count=len(self._keys))

    def resort(self, metric: MetricKind, raw_scores: np.ndarray) -> None:
        """Re-key every entry under a new metric from raw_scores, an array
        of raw scores indexed by id, preserving visited flags.

        One sort of (key, id, visited) triples: the (key, id) pairs are
        distinct, so the flags never decide the order."""
        ids = [key[1] for key in self._keys]
        scores = raw_scores[ids].tolist()
        if metric.larger_is_better:
            scores = [-s for s in scores]
        triples = sorted(zip(scores, ids, self._visited))
        self._keys = [(s, vid) for s, vid, _ in triples]
        self._visited = [vis for _, _, vis in triples]
        self._hint = 0

    def check_invariants(self) -> None:
        keys, visited = self._keys, self._visited
        if len(keys) > self.capacity:
            raise AssertionError("pool exceeded its capacity bound")
        if len(visited) != len(keys):
            raise AssertionError("pool has a visited flag count unlike its key count")
        if not 0 <= self._hint <= len(keys):
            raise AssertionError("pool scan hint out of range")
        if not all(visited[:self._hint]):
            raise AssertionError("pool has an unvisited entry below its scan hint")
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise AssertionError("pool keys not strictly sorted best-first")
        ids = [k[1] for k in keys]
        if len(set(ids)) != len(ids):
            raise AssertionError("pool contains duplicate ids")


_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, splitmix64's increment
_MASK64 = (1 << 64) - 1


def _mix64(z):
    """splitmix64's finaliser on a Python int, masked to 64 bits, or on a
    uint64 array, whose products wrap."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _seed_key(seed: int | tuple[int, ...]) -> int:
    """Fold _mix64 over the seed words: an int is one word, a tuple its items.

    The fold runs on Python ints, which for one query cost a fraction of
    numpy calls on a one-element array. A word that is not an int in
    [0, 2**64) is a UsageError.
    """
    words = seed if isinstance(seed, tuple) else (seed,)
    if not words:
        raise UsageError("seed needs at least one word")
    h = 0
    for w in words:
        if not isinstance(w, (int, np.integer)) or not 0 <= int(w) <= _MASK64:
            raise UsageError(f"seed words must be integers in [0, 2**64), got {seed!r}")
        h = _mix64((h ^ int(w)) + _GOLDEN & _MASK64)
    return h


def _seed_draws(keys: np.ndarray | np.uint64, n: int, c: int) -> np.ndarray:
    """Draws for Floyd's sampling of c of n ids: (c,) for one uint64 key,
    (B, c) for a (B, 1) column of keys.

    Draw t is mix64(key ^ (t + 1) * GOLDEN) mod (n - c + t + 1). The modulo
    bias is below n / 2**64.
    """
    t1 = np.arange(1, c + 1, dtype=np.uint64)
    return (_mix64(keys ^ t1 * _GOLDEN) % (t1 + np.uint64(n - c))).astype(np.intp)


def _entry_count(n: int, ls: int, R: int) -> int:
    """The entries a query scores before its first hop: all n when ls >= n,
    so that the pool holds every id and the answers are exact, and
    otherwise min(ls, R), so that seeding costs no more than one expansion
    of a graph with out-degree cap R."""
    return n if ls >= n else min(ls, R)


def _seed_ids(n: int, params: SearchParams, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The query's entries: c distinct ids drawn from its seed, in pick
    order, and the (n,) seen mask that marks them. The search passes c =
    ``_entry_count(n, ls, R)``.

    Floyd's step t picks draw t unless it is taken, and then n - c + t,
    which no earlier step can reach. The mask serves as the picked set, as
    in ``_seed_block``, which picks the same ids.
    """
    ids = _seed_draws(np.uint64(params._key), n, c)
    seen = np.zeros(n, dtype=bool)
    picked = memoryview(seen)  # Python-speed reads and writes of the mask
    for t, d in enumerate(ids.tolist()):
        if picked[d]:
            ids[t] = d = n - c + t
        picked[d] = True
    return ids, seen


def _euclid_scores(ip: np.ndarray, sq: np.ndarray, ids: np.ndarray,
                   store: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Both paths' Euclidean-phase scores sq[x] - 2<x,q> for each x in ids,
    given ip, their <x,q>, which this keeps for the switch in store at cells:
    x itself on the single-query path, x's seen cell in the engine."""
    store[cells] = ip
    return sq.take(ids) - (ip + ip)  # ip + ip is 2·ip exactly


def _expand_loop(pool: CandidatePool, graph: SearchGraph, dataset: Dataset,
                 q: np.ndarray, metric: MetricKind, seen: np.ndarray,
                 stats: SearchStats, max_expansions: int | None = None,
                 debug: bool = False, ips: np.ndarray | None = None) -> None:
    """Expand the pool's best unvisited entry until none is left or after
    max_expansions. Given ips, an (n,) float32 array, the loop runs the
    Euclidean phase: it scores through ``_euclid_scores`` and keeps every
    <x,q> in ips.

    A hop is Python work around one kernel call. It takes the expanded
    node's row of ``graph.padded`` as one list, filters and marks it
    through a memoryview of the seen mask, and offers the scored fresh ids
    to the pool in one call. Every node in the pool is seen, so its padding
    cells are never fresh. Inner products go to ``np.vecdot`` directly,
    without ``score_batch``'s per-call checks."""
    data, rows = dataset.data, graph.padded
    sq = None if ips is None else dataset.sq_norms
    vecdot = np.vecdot
    flip = metric.larger_is_better
    mask = memoryview(seen)  # the same cells, read and written at Python speed
    pop, offer = pool.pop_best_unvisited, pool.offer
    hops = comps = 0
    while max_expansions is None or hops < max_expansions:
        vid = pop()
        if vid < 0:
            break
        hops += 1
        fresh = [u for u in rows[vid].tolist() if not mask[u]]
        if fresh:
            for u in fresh:
                mask[u] = True
            comps += len(fresh)
            if ips is not None:
                ids = np.array(fresh)
                scores = _euclid_scores(vecdot(data.take(ids, axis=0), q), sq,
                                        ids, ips, ids).tolist()
            elif flip:
                scores = [-s for s in vecdot(data.take(fresh, axis=0), q).tolist()]
            else:
                scores = score_batch(metric, q, data.take(fresh, axis=0)).tolist()
            offer(zip(scores, fresh))
        if debug:
            pool.check_invariants()
    stats.hops += hops
    stats.dist_comps += comps


_SCORE_LIMIT = float(np.finfo(np.float32).max) / 2  # see _check_query


def _check_query(graph: SearchGraph, dataset: Dataset, q, k: int,
                 ndim: int = 1) -> np.ndarray:
    """q as float32 with ndim axes: one query (1) or a panel (2).

    Both paths score in float32, so a query is refused when a score could
    overflow: (max|x| + max|q|)^2, with the norms in float64, bounds
    |<x,q>|, the Euclidean split |x|^2 - 2<x,q> and the difference form
    |x - q|^2, and it must stay below half of FLT_MAX, the rest being room
    for rounding."""
    if graph.n != dataset.n:
        raise UsageError(f"graph has {graph.n} nodes but dataset has {dataset.n}")
    qv = np.asarray(q, dtype=np.float32)
    if qv.ndim != ndim or qv.shape[-1] != dataset.dim:
        raise UsageError(f"query shape {qv.shape} does not match dim {dataset.dim}")
    # float64 norms of float32 rows cannot overflow, so a norm that is not
    # finite comes from a NaN or Inf value. One query's norm costs less in
    # Python floats than in numpy calls; a panel's norms take one einsum
    norms = ([math.hypot(*qv.tolist())] if ndim == 1 else
             np.sqrt(np.einsum("ij,ij->i", qv, qv, dtype=np.float64)).tolist())
    if not math.isfinite(sum(norms)):
        raise UsageError("query contains NaN or Inf values")
    q_norm = max(norms)
    if (dataset.max_norm + q_norm) ** 2 > _SCORE_LIMIT:
        raise UsageError(f"query norm {q_norm:.3g} with data norms up to "
                         f"{dataset.max_norm:.3g} overflows float32 scores")
    if k > dataset.n:
        raise UsageError(f"k={k} exceeds n={dataset.n}")
    return qv


def _search(graph: SearchGraph, dataset: Dataset, q, params: SearchParams,
            metric: MetricKind, debug: bool) -> SearchResult:
    """One query: params.m expansions under Euclidean distance (none when 0),
    the switch of the surviving pool to ``metric`` with visited flags
    kept, then expansion to pool exhaustion under ``metric``.

    The Euclidean phase keeps each <x,q> it computes in an (n,) array
    beside the seen mask, and the switch re-keys the pool from it, so the
    switch adds no distance computation."""
    qv = _check_query(graph, dataset, q, params.k)
    m = params.m
    first = MetricKind.EUCLIDEAN if m > 0 else metric
    entries, seen = _seed_ids(graph.n, params,
                              _entry_count(graph.n, params.ls, graph.adjacency.shape[1]))
    if m > 0:
        ips = np.empty(graph.n, dtype=np.float32)
        scores = _euclid_scores(np.vecdot(dataset.data.take(entries, axis=0), qv),
                                dataset.sq_norms, entries, ips, entries)
    else:
        scores = score_batch(first, qv, dataset.data[entries])
    scores = scores.tolist()
    if first.larger_is_better:
        scores = [-s for s in scores]
    pool = CandidatePool(params.ls)
    pool.fill(zip(scores, entries.tolist()))
    stats = SearchStats(dist_comps=len(entries))
    if m > 0:
        _expand_loop(pool, graph, dataset, qv, first, seen, stats,
                     max_expansions=m, debug=debug, ips=ips)
        pool.resort(metric, ips)
    _expand_loop(pool, graph, dataset, qv, metric, seen, stats, debug=debug)
    return SearchResult(ids=pool.ids_best_first()[:params.k], stats=stats)


def greedy_search(graph: SearchGraph, dataset: Dataset, q, params: SearchParams,
                  metric: MetricKind, debug: bool = False) -> SearchResult:
    """Single-metric beam search: expand best-unvisited until pool exhaustion.

    The metric switch is ``anms_search``'s: params.m must be 0."""
    if params.m > 0:
        raise UsageError(f"greedy_search runs no metric switch, got m={params.m}; "
                         "use anms_search")
    return _search(graph, dataset, q, params, metric, debug)


def anms_search(graph: SearchGraph, dataset: Dataset, q, params: SearchParams,
                debug: bool = False) -> SearchResult:
    """Euclidean navigation for params.m expansions, then switch to IP.

    The switch re-keys the surviving pool by the inner products that the
    Euclidean phase kept, so it adds no distance computation. m = 0 is
    plain inner-product search. Returns the top k by inner product.
    """
    return _search(graph, dataset, q, params, MetricKind.INNER_PRODUCT, debug)


# Bytes that one block of the lockstep engine may hold. The block size
# derives from the shapes (_block_size), so its (B, n) seen masks stay under
# this budget whatever the panel size.
_BLOCK_BYTES = 1 << 24
# sorts after every real pool key and reads as visited: the padding of a
# pool that the walk has not filled
_NO_KEY = np.uint64(2 ** 64 - 1)


def _pool_keys(metric: MetricKind, scores: np.ndarray, ids: np.ndarray,
               visited: np.ndarray | np.uint64 = np.uint64(0)) -> np.ndarray:
    """uint64 keys that sort ascending in the pool's (score, id) order.

    The high 32 bits are the float32 score, negated when larger is better
    and with -0.0 folded into 0.0, mapped to unsigned bits that order as the
    floats do. The low 32 bits are ``id << 1 | visited``. Scores must not be
    NaN, which is why queries must be finite.
    """
    s = (-scores if metric.larger_is_better else scores) + np.float32(0.0)
    bits = s.astype(np.float32, copy=False).view(np.int32)
    # the arithmetic shift spreads the sign: flip every bit of a negative
    # float, only the sign bit of the others
    bits = (bits ^ (bits >> 31 | np.int32(-2 ** 31))).view(np.uint32)
    return ((bits.astype(np.uint64) << np.uint64(32))
            | (ids.astype(np.uint64) << np.uint64(1)) | visited)


def _key_ids(keys: np.ndarray) -> np.ndarray:
    return ((keys & np.uint64(0xFFFFFFFF)) >> np.uint64(1)).astype(np.intp)


def _block_size(n: int, ls: int, c: int, dim: int, m: int) -> int:
    """Queries per block. Each holds an n-byte seen mask, L = min(ls, n)
    uint64 pool keys and, at seeding, a (c, dim) float32 gather of its c
    entries. At m = 0 a query also holds the gather's L2 difference, which
    only an l2 search makes; at m > 0 it holds instead the (n,) float32
    inner products that the Euclidean phase keeps."""
    L = min(ls, n)
    scratch = 4 * n if m > 0 else 4 * c * dim
    return max(1, _BLOCK_BYTES // (n + 8 * L + 4 * c * dim + scratch))


def _seed_block(keys: np.ndarray, n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """``_seed_ids`` for a block of uint64 seed keys: the (B, c) entries in
    pick order and the (B, n) seen masks that mark them.

    Floyd's c steps run on every row at once, the masks serving as the
    picked sets.
    """
    rows = np.arange(len(keys))
    entries = _seed_draws(keys[:, None], n, c)
    seen = np.zeros((len(keys), n), dtype=bool)
    for t in range(c):
        pick = entries[:, t]  # a view: the assignment below edits entries
        pick[seen[rows, pick]] = n - c + t
        seen[rows, pick] = True
    return entries, seen


def _lockstep_expand(adjacency: np.ndarray, data: np.ndarray, qs: np.ndarray,
                     keys: np.ndarray, seen: np.ndarray, hops: np.ndarray,
                     metric: MetricKind, max_expansions: int | None = None,
                     ips: np.ndarray | None = None,
                     sq: np.ndarray | None = None) -> None:
    """``_expand_loop`` for a block of queries, one expansion each per step.

    adjacency is the graph's (n, R) rows padded with each row's own id
    (``SearchGraph.padded``); keys is the (B, L) sorted pools, a pool that
    is not full ending in ``_NO_KEY``, which reads as visited; seen is the
    (B, n) masks and hops the (B,) counters, all updated in place. A query
    leaves the step loop when its pool has no unvisited entry or after
    max_expansions. Given the (B, n) float32 ips and the squared norms sq,
    the step runs the Euclidean phase: it scores x as sq[x] - 2<x,q> and
    writes each <x,q> into ips at x's seen cell.

    The live rows' pools sit in one compact array; a row that closes is
    written back to keys and dropped from it. A step marks each live row's
    best unvisited entry, gathers its neighbour row, and reads and sets
    their seen cells through the flat mask. The expanded node is seen, so
    a cell padded with its id is never fresh. The fresh neighbours are
    scored in one ``score_batch`` call and scattered into a (live, R) row
    of candidate keys. A row whose best candidate beats its worst pool
    entry merges its sorted candidates with its sorted pool by a stable
    sort, which merges the two runs; a candidate no better than the worst
    entry sorts past the cut. Every gather is an ``np.take``.
    """
    width, R = keys.shape[1], adjacency.shape[1]
    n = seen.shape[1]
    flat_seen = seen.reshape(-1)  # a view: the masks are C-contiguous
    flat_ips = None if ips is None else ips.reshape(-1)
    live = np.arange(len(keys))
    pool = keys  # until a row closes; then a compact copy of the live rows
    rows = qs  # the live rows' queries
    starts = live * width  # of the pool rows in the flat pool
    offsets = (live * n)[:, None]  # of the live rows' masks in flat_seen
    step = 0
    while max_expansions is None or step < max_expansions:
        unvisited = (pool & np.uint64(1)) == 0
        best = starts + unvisited.argmax(axis=1)
        open_ = np.take(unvisited, best)  # argmax is 0 in a closed row
        if not open_.all():
            shut = ~open_
            if pool is not keys:
                keys[live[shut]] = pool[shut]
            hops[live[shut]] += step
            live, pool = live[open_], pool[open_]
            if not live.size:
                break
            rows = np.take(qs, live, axis=0)
            starts = starts[:len(live)]
            offsets = (live * n)[:, None]
            best = starts + best[open_] % width
        picked = np.take(pool, best) | np.uint64(1)
        pool.reshape(-1)[best] = picked
        step += 1
        nbrs = np.take(adjacency, _key_ids(picked), axis=0)
        cells = nbrs + offsets
        at = np.flatnonzero(~np.take(flat_seen, cells))
        fresh = np.take(cells, at)
        flat_seen[fresh] = True
        vid = np.take(nbrs, at)
        scores = score_batch(metric if ips is None else MetricKind.INNER_PRODUCT,
                             np.take(rows, at // R, axis=0),
                             np.take(data, vid, axis=0))
        if ips is not None:
            scores = _euclid_scores(scores, sq, vid, flat_ips, fresh)
        cand = np.full(nbrs.shape, _NO_KEY)
        cand.reshape(-1)[at] = _pool_keys(metric, scores, vid)
        # a row gains nothing unless a candidate beats its worst entry; a
        # pool that is not full yet ends in _NO_KEY, which every one beats
        touched = np.flatnonzero(cand.min(axis=1, initial=_NO_KEY)
                                 < np.take(pool, starts + width - 1))
        cand = np.sort(np.take(cand, touched, axis=0), axis=1)
        pool[touched] = np.sort(
            np.concatenate((np.take(pool, touched, axis=0), cand), axis=1),
            axis=1, kind="stable")[:, :width]
    if pool is not keys:
        keys[live] = pool
    hops[live] += step


def _lockstep_pools(graph: SearchGraph, dataset: Dataset, qs: np.ndarray,
                    entries: np.ndarray, seen: np.ndarray, ls: int, m: int,
                    metric: MetricKind) -> tuple[np.ndarray, np.ndarray]:
    """The lockstep engine from a block's entries to its final pools.

    entries is the (B, c) rows of c distinct ids each that ``_seed_block``
    makes, c <= L = min(ls, n), and seen the (B, n) masks that mark them.
    Every entry is scored into a pool of L whose last L - c keys are
    ``_NO_KEY``, then the rows expand as ``_search`` does: when m > 0, m
    Euclidean expansions and the switch, then ``metric`` to exhaustion.
    The walk fills a pool as far as the ids it reaches. Returns the (B, L)
    sorted pools as ``_pool_keys``, each row's real keys first, and the
    (B,) hops.

    At m > 0 a zeroed (B, n) float32 array keeps each <x,q> of the
    Euclidean phase at x's seen cell, and the switch re-keys the real
    entries of the pools from it under ``metric``, which is inner product
    there; the padding stays ``_NO_KEY``. Every scored id is marked seen
    exactly once, so a row's comps is its mask's count. The steps walk
    ``graph.padded``; ``graph`` itself stays as it is.
    """
    nq, n, data = len(entries), graph.n, dataset.data
    hops = np.zeros(nq, dtype=np.int64)
    first = MetricKind.EUCLIDEAN if m > 0 else metric
    # metric is inner product at m > 0: the kernel of both phases
    scores = score_batch(metric, qs[:, None], np.take(data, entries, axis=0))
    if m > 0:
        sq = dataset.sq_norms
        ips = np.zeros((nq, n), dtype=np.float32)
        scores = _euclid_scores(scores, sq, entries, ips.reshape(-1),
                                entries + (np.arange(nq) * n)[:, None])
    keys = np.full((nq, min(ls, n)), _NO_KEY)
    keys[:, :entries.shape[1]] = np.sort(_pool_keys(first, scores, entries),
                                         axis=1)
    if m > 0:
        _lockstep_expand(graph.padded, data, qs, keys, seen, hops, first,
                         max_expansions=m, ips=ips, sq=sq)
        pad = keys == _NO_KEY
        ids = _key_ids(keys)
        ids[pad] = 0  # a zeroed cell if unscored, not NaN; keys put back below
        scores = np.take(ips, ids + (np.arange(nq) * n)[:, None])
        del ips
        keys = _pool_keys(metric, scores, ids, keys & np.uint64(1))
        keys[pad] = _NO_KEY
        keys.sort(axis=1)
    _lockstep_expand(graph.padded, data, qs, keys, seen, hops, metric)
    return keys, hops


def run_queries(graph: SearchGraph, dataset: Dataset, queries: Dataset,
                ls: int, k: int, m: int = 0, seed: int = 0,
                metric: MetricKind = MetricKind.INNER_PRODUCT
                ) -> list[SearchResult]:
    """Search the whole panel; query i is seeded with the words (seed, i).

    Query i gets the ids, dist_comps and hops that ``anms_search`` (m > 0)
    or ``greedy_search`` under ``metric`` (m = 0) give it alone with
    ``SearchParams(ls, k, m, seed=(seed, i))``: ``_entry_count(n, ls, R)``
    entries, a pool of min(ls, n) that the walk fills, and at most k ids,
    fewer only when fewer are reachable. Blocks of ``_block_size``
    queries are seeded by ``_seed_block`` and run by ``_lockstep_pools``:
    they advance in lockstep, one expansion per open query per step, over
    a compact array of the open queries' pools held as ``_pool_keys``
    (``_lockstep_expand``): one ``np.take`` of self-padded neighbour rows,
    one flat seen-mask read and write, one ``score_batch`` call, and a
    merge of each touched pool with its sorted candidates. The switch
    re-keys the pools from the Euclidean phase's kept inner products.
    dist_comps is read off the seen masks when the block ends, and each
    row's ids stop at the ``_NO_KEY`` padding of a pool the walk did not
    fill.
    """
    head = SearchParams(ls=ls, k=k, m=m, seed=seed)._key  # checks the arguments
    if m > 0 and metric is not MetricKind.INNER_PRODUCT:
        raise UsageError("the metric switch targets inner product; use m=0 for l2")
    qs = _check_query(graph, dataset, queries.data, k, ndim=2)
    n = graph.n
    # _seed_key((seed, i)): the fold's last step, taken for every i at once
    keys = _mix64((np.uint64(head) ^ np.arange(len(qs), dtype=np.uint64))
                  + _GOLDEN & _MASK64)
    c = _entry_count(n, ls, graph.adjacency.shape[1])
    block = _block_size(n, ls, c, dataset.dim, m)
    results: list[SearchResult] = []
    for lo in range(0, len(qs), block):
        entries, seen = _seed_block(keys[lo:lo + block], n, c)
        pools, hops = _lockstep_pools(graph, dataset, qs[lo:lo + block],
                                      entries, seen, ls, m, metric)
        top = pools[:, :k]
        ids = _key_ids(top).astype(np.int32)
        results.extend(SearchResult(ids=row[:real],
                                    stats=SearchStats(dist_comps=comps, hops=h))
                       for row, real, comps, h in zip(
                           ids, (top != _NO_KEY).sum(axis=1).tolist(),
                           seen.sum(axis=1).tolist(), hops.tolist()))
    return results
