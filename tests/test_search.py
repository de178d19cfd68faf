"""Candidate pool mechanics, greedy traversal, and the metric switch."""

import contextlib
import math

import numpy as np
import pytest

import magsearch.search as search_mod
from magsearch import (Dataset, MetricKind, SearchParams, UsageError,
                       anms_search, brute_force_topk, build_mag,
                       compute_ground_truth, greedy_search, materialize,
                       recall_at_k)
from magsearch.bench import run_queries
from magsearch.metrics import score_batch
from magsearch.search import (CandidatePool, SearchGraph, SearchStats,
                              _expand_loop)
from magsearch.stats import verify_scaling_duality


@pytest.fixture(scope="module")
def searchable():
    rng = np.random.default_rng(21)
    data = Dataset(rng.standard_normal((400, 8)).astype(np.float32))
    index = build_mag(data, K=16, K1=8, K2=8, ls=32, seed=3)
    graph = materialize(index, R=12, alpha=0.5)
    return data, graph


@pytest.fixture(scope="module")
def trap():
    """A small version of the c06 trap: an answer blob along u on the rim
    of a background cloud, and high-norm outliers nearly orthogonal to u
    that bait inner-product navigation. Queries sit at the blob; entry
    rows hold 48 distinct ids."""
    rng = np.random.default_rng(81)
    dim = 8
    u = np.eye(dim)[0]
    v = rng.standard_normal((40, dim))
    v[:, 0] = 0.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    angle = np.deg2rad(87.0)
    points = np.vstack([4.0 * u + 0.3 * rng.standard_normal((40, dim)),
                        30.0 * (np.cos(angle) * u + np.sin(angle) * v)
                        + 0.3 * rng.standard_normal((40, dim)),
                        0.9 * rng.standard_normal((500, dim))])
    data = Dataset(points.astype(np.float32)[rng.permutation(len(points))])
    qs = (4.0 * u + 0.04 * rng.standard_normal((20, dim))).astype(np.float32)
    graph = materialize(build_mag(data, K=16, K1=8, K2=8, ls=32, seed=1),
                        R=12, alpha=0.5)
    entries = np.stack([rng.choice(data.n, 48, replace=False) for _ in qs])
    return graph, data, qs, entries


def complete_graph(n):
    adj = np.zeros((n, n - 1), dtype=np.int32)
    for i in range(n):
        adj[i] = [j for j in range(n) if j != i]
    return SearchGraph(alpha=0.0, adjacency=adj)


@contextlib.contextmanager
def counting_kernels():
    """Count the rows that ``np.vecdot`` scores inside the block, and the
    distinct vectors among its first operand's rows.

    Every kernel of the search runs on ``np.vecdot``: ``score_batch`` under
    either metric, and the Euclidean phase of the metric switch. Touch
    ``Dataset.sq_norms`` before the block, or its one-off product counts
    too."""
    real = np.vecdot
    counted = {"rows": 0, "vectors": set()}

    def counting(a, b):
        counted["rows"] += math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        counted["vectors"].update(row.tobytes() for row in a.reshape(-1, a.shape[-1]))
        return real(a, b)

    np.vecdot = counting
    try:
        yield counted
    finally:
        np.vecdot = real


def sort_key(metric, score, vid):
    """The scalar pool's key: (score, id), the score negated when larger is
    better, so that ascending order is best-first."""
    return (-score, vid) if metric.larger_is_better else (score, vid)


def expansion_order(monkeypatch, search):
    """The ids that search() expands, in order, read off the pool's pops."""
    order = []
    real = CandidatePool.pop_best_unvisited

    def recording(pool):
        vid = real(pool)
        if vid >= 0:
            order.append(vid)
        return vid

    with monkeypatch.context() as patch:
        patch.setattr(CandidatePool, "pop_best_unvisited", recording)
        search()
    return order


class TestCandidatePool:
    def test_bound_and_order(self):
        pool = CandidatePool(3)
        for vid, s in [(5, 9.0), (2, 1.0), (8, 4.0), (1, 2.0)]:
            pool.offer((sort_key(MetricKind.EUCLIDEAN, s, vid),))
        assert len(pool) == 3
        assert pool.ids_best_first().tolist() == [2, 1, 8]  # 9.0 evicted
        pool.check_invariants()

    def test_reject_worse_when_full(self):
        pool = CandidatePool(2)
        inserted = [pool.offer((sort_key(MetricKind.INNER_PRODUCT, s, vid),))
                    for vid, s in [(0, 5.0), (1, 4.0), (2, 3.0), (3, 6.0)]]
        assert inserted == [True, True, False, True]
        assert pool.ids_best_first().tolist() == [3, 0]

    def test_tie_breaks_by_lower_id(self):
        pool = CandidatePool(4)
        for vid in (7, 2, 5):
            pool.offer((sort_key(MetricKind.INNER_PRODUCT, 1.0, vid),))
        assert pool.ids_best_first().tolist() == [2, 5, 7]

    def test_pop_best_unvisited(self):
        pool = CandidatePool(4)
        for vid, s in [(3, 2.0), (1, 1.0), (4, 3.0)]:
            pool.offer((sort_key(MetricKind.EUCLIDEAN, s, vid),))
        assert pool.pop_best_unvisited() == 1
        assert pool.pop_best_unvisited() == 3
        pool.offer((sort_key(MetricKind.EUCLIDEAN, 0.5, 9),))  # best, still unvisited
        assert pool.pop_best_unvisited() == 9
        assert pool.pop_best_unvisited() == 4
        assert pool.pop_best_unvisited() == -1

    def test_resort_preserves_visited(self):
        pool = CandidatePool(3)
        pool.offer((sort_key(MetricKind.EUCLIDEAN, 1.0, 0),))
        pool.offer((sort_key(MetricKind.EUCLIDEAN, 2.0, 1),))
        assert pool.pop_best_unvisited() == 0
        pool.resort(MetricKind.INNER_PRODUCT, np.array([1.0, 5.0]))
        assert pool.ids_best_first().tolist() == [1, 0]
        assert pool.pop_best_unvisited() == 1  # 0 stays visited
        assert pool.pop_best_unvisited() == -1

    def test_fill_below_capacity(self):
        pool = CandidatePool(5)
        pool.fill([(3.0, 7), (1.0, 9), (3.0, 2)])
        assert pool.ids_best_first().tolist() == [9, 2, 7]
        assert pool._visited == [False] * 3
        pool.check_invariants()
        # room left: a key worse than every entry still goes in
        assert pool.offer([(8.0, 1), (0.5, 4)]) == 2
        assert pool.ids_best_first().tolist() == [4, 9, 2, 7, 1]
        pool.check_invariants()

    def test_fill_keeps_the_best_capacity(self):
        pool = CandidatePool(2)
        pool.fill([(0.5, 5), (0.7, 6)])
        assert pool.pop_best_unvisited() == 5
        pool.fill([(4.0, 0), (2.0, 1), (3.0, 2)])  # replaces entries and flags
        assert pool.ids_best_first().tolist() == [1, 2]
        assert pool._visited == [False, False] and pool._hint == 0
        pool.check_invariants()

    def test_offer_keeps_the_bound(self):
        pool = CandidatePool(3)
        pool.fill([(1.0, 0), (2.0, 1), (3.0, 2)])
        assert pool.offer([(2.5, 3), (0.5, 4), (9.0, 5)]) == 2
        assert pool.ids_best_first().tolist() == [4, 0, 1]
        pool.check_invariants()

    def test_offer_breaks_a_tie_at_the_worst_key_by_id(self):
        pool = CandidatePool(2)
        pool.fill([(1.0, 3), (2.0, 5)])
        assert pool.offer([(2.0, 6)]) == 0  # equal score, higher id
        assert pool.offer([(2.0, 4)]) == 1  # equal score, lower id
        assert pool.ids_best_first().tolist() == [3, 4]

    def test_offer_skips_keys_no_better_than_the_worst_when_full(self):
        pool = CandidatePool(3)
        pool.fill([(1.0, 0), (2.0, 1), (3.0, 2)])
        assert pool.pop_best_unvisited() == 0
        before = (list(pool._keys), list(pool._visited), pool._hint)
        assert pool.offer([(3.0, 9), (3.5, 7), (9.0, 8)]) == 0
        assert (pool._keys, pool._visited, pool._hint) == before

    def test_offer_before_the_hint_moves_it_back(self):
        pool = CandidatePool(4)
        pool.fill([(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)])
        assert [pool.pop_best_unvisited() for _ in range(2)] == [0, 1]
        assert pool._hint == 2
        assert pool.offer([(3.5, 5), (1.5, 6)]) == 2
        assert pool._hint == 1
        pool.check_invariants()
        assert pool.ids_best_first().tolist() == [0, 6, 1, 2]
        assert pool.pop_best_unvisited() == 6
        assert pool.pop_best_unvisited() == 2

    @pytest.mark.parametrize("corrupt", [
        lambda pool: pool._visited.pop(),
        lambda pool: setattr(pool, "_hint", len(pool) + 1),
        lambda pool: setattr(pool, "_hint", -1),
        lambda pool: setattr(pool, "_hint", 2),
    ], ids=["flag-count", "hint-above", "hint-below", "unvisited-below-hint"])
    def test_check_invariants_catches_a_corrupt_pool(self, corrupt):
        pool = CandidatePool(4)
        pool.fill([(1.0, 0), (2.0, 1), (3.0, 2)])
        assert pool.pop_best_unvisited() == 0
        pool.check_invariants()
        corrupt(pool)
        with pytest.raises(AssertionError):
            pool.check_invariants()


class TestGreedySearch:
    def test_saturated_pool_is_exact(self, searchable):
        data, graph = searchable
        rng = np.random.default_rng(77)
        for qi in range(25):
            q = rng.standard_normal(8).astype(np.float32)
            for metric in MetricKind:
                res = greedy_search(graph, data, q,
                                    SearchParams(ls=data.n, k=10, seed=(1, qi)),
                                    metric)
                oracle = brute_force_topk(data, q, 10, metric)
                assert res.ids.tolist() == oracle.tolist()

    def test_complete_graph_one_hop(self, rng):
        data = Dataset(rng.standard_normal((40, 4)).astype(np.float32))
        graph = complete_graph(40)
        q = rng.standard_normal(4).astype(np.float32)
        res = greedy_search(graph, data, q, SearchParams(ls=12, k=5, seed=0),
                            MetricKind.INNER_PRODUCT)
        oracle = brute_force_topk(data, q, 5, MetricKind.INNER_PRODUCT)
        assert res.ids.tolist() == oracle.tolist()

    def test_deterministic_including_stats(self, searchable):
        data, graph = searchable
        q = np.ones(8, dtype=np.float32)
        p = SearchParams(ls=40, k=7, seed=123)
        a = greedy_search(graph, data, q, p, MetricKind.INNER_PRODUCT)
        b = greedy_search(graph, data, q, p, MetricKind.INNER_PRODUCT)
        assert a.ids.tolist() == b.ids.tolist()
        assert (a.stats.dist_comps, a.stats.hops) == (b.stats.dist_comps, b.stats.hops)

    def test_counter_matches_kernel_calls(self, searchable, monkeypatch):
        data, graph = searchable
        scored = {"count": 0}
        real = search_mod.score_batch

        def counting(metric, q, block):
            scored["count"] += len(np.atleast_2d(block))
            return real(metric, q, block)

        monkeypatch.setattr(search_mod, "score_batch", counting)
        res = greedy_search(graph, data, np.ones(8, np.float32),
                            SearchParams(ls=32, k=5, seed=4),
                            MetricKind.EUCLIDEAN)
        assert res.stats.dist_comps == scored["count"]

    def test_counter_matches_kernel_calls_anms(self, searchable):
        data, graph = searchable
        assert data.sq_norms.shape == (data.n,)
        with counting_kernels() as counted:
            res = anms_search(graph, data, np.ones(8, np.float32),
                              SearchParams(ls=32, k=5, m=6, seed=4))
        assert res.stats.dist_comps == counted["rows"]

    def test_debug_mode_clean(self, searchable):
        data, graph = searchable
        greedy_search(graph, data, np.ones(8, np.float32),
                      SearchParams(ls=16, k=4, seed=2),
                      MetricKind.INNER_PRODUCT, debug=True)

    def test_debug_mode_clean_l2(self, searchable):
        data, graph = searchable
        for seed in range(5):
            q = np.full(8, 0.3 * seed, np.float32)
            res = greedy_search(graph, data, q, SearchParams(ls=16, k=4, seed=seed),
                                MetricKind.EUCLIDEAN, debug=True)
            assert res.stats.hops > 1

    def test_debug_mode_clean_with_switch(self, trap):
        graph, data, qs, _ = trap
        for i, q in enumerate(qs):
            params = SearchParams(ls=48, k=10, m=16, seed=(2, i))
            res = anms_search(graph, data, q, params, debug=True)
            assert res.stats.hops > params.m
            plain = anms_search(graph, data, q, params)
            assert res.ids.tolist() == plain.ids.tolist()

    @pytest.mark.parametrize("m", [0, 4])
    def test_pool_larger_than_n_is_exact_under_debug(self, searchable, m):
        data, graph = searchable
        q = np.linspace(-1, 1, 8).astype(np.float32)
        res = anms_search(graph, data, q, SearchParams(ls=data.n + 50, k=10, m=m,
                                                       seed=1), debug=True)
        assert res.stats.dist_comps == data.n
        oracle = brute_force_topk(data, q, 10, MetricKind.INNER_PRODUCT)
        assert res.ids.tolist() == oracle.tolist()

    def test_usage_errors(self, searchable):
        data, graph = searchable
        with pytest.raises(UsageError):
            greedy_search(graph, data, np.ones(8, np.float32),
                          SearchParams(ls=500, k=401, seed=0),
                          MetricKind.INNER_PRODUCT)
        with pytest.raises(UsageError):
            SearchParams(ls=4, k=5)
        with pytest.raises(UsageError):
            greedy_search(graph, data, np.ones(9, np.float32),
                          SearchParams(ls=8, k=2), MetricKind.INNER_PRODUCT)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_metric_switch_rejected(self, searchable, metric):
        # m > 0 used to run m = 0 and return its ids without a word
        data, graph = searchable
        with pytest.raises(UsageError, match="m=3; use anms_search"):
            greedy_search(graph, data, np.ones(8, np.float32),
                          SearchParams(ls=8, k=2, m=3), metric)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, searchable, bad):
        data, graph = searchable
        q = np.ones(8, np.float32)
        q[3] = bad
        with pytest.raises(UsageError, match="NaN or Inf"):
            greedy_search(graph, data, q, SearchParams(ls=8, k=2),
                          MetricKind.INNER_PRODUCT)
        with pytest.raises(UsageError, match="NaN or Inf"):
            anms_search(graph, data, q, SearchParams(ls=8, k=2, m=3))


class TestAnms:
    def test_m_zero_equals_pure_ip(self, searchable):
        data, graph = searchable
        q = np.ones(8, dtype=np.float32)
        p = SearchParams(ls=32, k=8, m=0, seed=17)
        a = anms_search(graph, data, q, p)
        b = greedy_search(graph, data, q, p, MetricKind.INNER_PRODUCT)
        assert a.ids.tolist() == b.ids.tolist()
        assert (a.stats.dist_comps, a.stats.hops) == (b.stats.dist_comps, b.stats.hops)

    def test_huge_m_is_euclid_run_reranked(self, searchable):
        data, graph = searchable
        q = np.ones(8, dtype=np.float32)
        full = greedy_search(graph, data, q, SearchParams(ls=32, k=32, seed=9),
                             MetricKind.EUCLIDEAN)
        base = data.data.astype(np.float32)
        ips = base[full.ids] @ q
        order = np.lexsort((full.ids, -ips))
        expected = full.ids[order][:8]
        got = anms_search(graph, data, q, SearchParams(ls=32, k=8, m=10 ** 6, seed=9))
        assert got.ids.tolist() == expected.tolist()

    def test_stage1_trace_is_euclid_prefix(self, searchable, monkeypatch):
        data, graph = searchable
        q = np.ones(8, dtype=np.float32)
        for m in (1, 3, 9):
            a = expansion_order(monkeypatch, lambda: anms_search(
                graph, data, q, SearchParams(ls=24, k=4, m=m, seed=5)))
            b = expansion_order(monkeypatch, lambda: greedy_search(
                graph, data, q, SearchParams(ls=24, k=4, seed=5),
                MetricKind.EUCLIDEAN))
            assert len(a) > m and len(b) > m
            assert a[:m] == b[:m]

    def test_switch_adds_no_comps(self, searchable):
        # the switch re-keys the pool from the Euclidean phase's inner
        # products: every row scored, on either path, is a distinct vector
        # scored once, and dist_comps counts exactly those
        data, graph = searchable
        q = np.ones(8, dtype=np.float32)
        assert len(np.unique(data.data, axis=0)) == data.n
        assert data.sq_norms.shape == (data.n,)
        with counting_kernels() as scalar:
            res = anms_search(graph, data, q, SearchParams(ls=16, k=4, m=2,
                                                           seed=(6, 0)))
        with counting_kernels() as engine:
            [got] = run_queries(graph, data, Dataset(q[None]), ls=16, k=4, m=2, seed=6)
        assert res.stats.hops > 2 and res.stats.dist_comps > 16
        for counted, comps in ((scalar, res.stats.dist_comps),
                               (engine, got.stats.dist_comps)):
            assert comps == counted["rows"] == len(counted["vectors"])
        assert got.ids.tolist() == res.ids.tolist()


class TestRecallBehavior:
    def test_monotone_recall_in_ls(self, rng):
        data = Dataset(rng.standard_normal((2000, 12)).astype(np.float32))
        queries = Dataset(rng.standard_normal((100, 12)).astype(np.float32))
        gt = compute_ground_truth(data, queries, 10, MetricKind.INNER_PRODUCT)
        index = build_mag(data, K=20, K1=10, K2=10, ls=40, seed=1)
        graph = materialize(index, R=16, alpha=0.5)
        means = []
        for ls in (16, 32, 64, 128):
            results = run_queries(graph, data, queries, ls=ls, k=10, seed=3)
            means.append(recall_at_k([r.ids for r in results], gt, 10))
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 0.005

    def test_exactness_at_saturation(self, searchable):
        data, graph = searchable
        rng = np.random.default_rng(31)
        queries = Dataset(rng.standard_normal((30, 8)).astype(np.float32))
        gt = compute_ground_truth(data, queries, 10, MetricKind.INNER_PRODUCT)
        results = run_queries(graph, data, queries, ls=data.n, k=10, seed=0)
        assert recall_at_k([r.ids for r in results], gt, 10) == 1.0


def random_graph(n, R, seed):
    """Rows of 1..R distinct non-self neighbours, padded with -1; node 0 is
    a neighbour of every third node, so a padded row also lists node 0."""
    rng = np.random.default_rng(seed)
    adj = np.full((n, R), -1, dtype=np.int32)
    counts = rng.integers(1, R + 1, size=n)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        row = rng.choice(others, size=counts[i], replace=False)
        if i % 3 == 1 and 0 not in row:
            row[-1] = 0
        adj[i, :counts[i]] = row
    return SearchGraph(alpha=0.0, adjacency=adj)


def assert_matches_scalar(graph, data, queries, ls, k, m=0, seed=0,
                          metric=MetricKind.INNER_PRODUCT, debug=False):
    """run_queries gives each query the ids and counters of its own
    greedy_search (m = 0) or anms_search (m > 0) call, which checks its
    pool after every hop when debug is set."""
    got = run_queries(graph, data, queries, ls=ls, k=k, m=m, seed=seed,
                      metric=metric)
    assert len(got) == queries.n
    for qid, res in enumerate(got):
        params = SearchParams(ls=ls, k=k, m=m, seed=(seed, qid))
        q = queries.vector(qid)
        want = (anms_search(graph, data, q, params, debug=debug) if m
                else greedy_search(graph, data, q, params, metric, debug=debug))
        assert res.ids.tolist() == want.ids.tolist(), qid
        assert (res.stats.dist_comps, res.stats.hops) == \
            (want.stats.dist_comps, want.stats.hops), qid
    return got


def entry_rows(graph, ls, seed, nq):
    """The (nq, c) entries that run_queries draws for its nq queries."""
    c = search_mod._entry_count(graph.n, ls, graph.adjacency.shape[1])
    return np.stack([search_mod._seed_ids(
        graph.n, SearchParams(ls=ls, k=1, seed=(seed, i)), c)[0] for i in range(nq)])


def scalar_pools(graph, data, qs, entries, ls, m, metric, old_switch=False):
    """``_lockstep_pools`` replayed one row at a time on ``CandidatePool``
    and ``_expand_loop``, as ``_search`` runs a query: per row the pool ids
    best first, their visited flags, the seen mask, the rows that every
    kernel the replay calls scored, and hops.

    At m > 0 the Euclidean phase scores x as |x|² - 2<x,q> and keeps
    <x,q>; the switch re-keys the pool from the kept products, or with
    old_switch re-scores it with a fresh ``np.vecdot``."""
    first = MetricKind.EUCLIDEAN if m > 0 else metric
    sq = data.sq_norms
    rows = []
    for q, ids in zip(qs, entries):
        pool = CandidatePool(min(ls, graph.n))
        seen = np.zeros(graph.n, dtype=bool)
        seen[ids] = True
        ips = np.empty(graph.n, dtype=np.float32)
        stats = SearchStats()
        with counting_kernels() as counted:
            if m > 0:
                ips[ids] = np.vecdot(data.data[ids], q)
                scores = sq[ids] - 2 * ips[ids]
            else:
                scores = score_batch(first, q, data.data[ids])
            for vid, score in zip(ids.tolist(), scores.tolist()):
                pool.offer((sort_key(first, score, vid),))
            if m > 0:
                _expand_loop(pool, graph, data, q, first, seen, stats,
                             max_expansions=m, ips=ips)
                if old_switch:
                    kept = pool.ids_best_first()
                    ips[kept] = np.vecdot(data.data[kept], q)
                pool.resort(metric, ips)
            _expand_loop(pool, graph, data, q, metric, seen, stats)
        rows.append((pool.ids_best_first().tolist(), list(pool._visited), seen,
                     counted["rows"], stats.hops))
    return rows


def assert_pools_match(graph, data, qs, entries, ls, m, metric, old_switch=False):
    """Every row's whole final pool, visited bits, seen mask and counters
    from one ``_lockstep_pools`` call equal the scalar replay's; a row's
    comps is its seen mask's count, and a pool the walk did not fill ends
    in ``_NO_KEY`` padding. Against the old switch's replay the replay's
    comps are min(ls, n) higher at m > 0. Returns the hops."""
    seen = np.zeros((len(entries), graph.n), dtype=bool)
    for mask, row in zip(seen, entries):
        mask[row] = True
    keys, hops = search_mod._lockstep_pools(graph, data, qs, entries, seen, ls,
                                            m, metric)
    assert keys.shape == (len(entries), min(ls, graph.n))
    comps = seen.sum(axis=1)
    extra = min(ls, graph.n) if old_switch and m > 0 else 0
    want = scalar_pools(graph, data, qs, entries, ls, m, metric, old_switch)
    for i, (ids, visited, mask, dist_comps, n_hops) in enumerate(want):
        real, pad = keys[i, :len(ids)], keys[i, len(ids):]
        assert search_mod._key_ids(real).tolist() == ids, i
        assert (pad == search_mod._NO_KEY).all(), i
        assert ((real & np.uint64(1)) == 1).tolist() == visited, i
        assert np.array_equal(seen[i], mask), i
        assert (comps[i] + extra, hops[i]) == (dist_comps, n_hops), i
    return hops


class TestLockstep:
    """The lockstep engine against the per-query search, its oracle."""

    @pytest.fixture(scope="class")
    def chain(self):
        """Points on a line, each linked to the two nodes on either side
        (end rows padded with -1), with entries drawn from the first 30 and
        queries spread along the line: a row walks as far as its query
        lies from the entries, so rows close at very different steps.

        Entry rows hold 12 distinct ids: min(ls, n) for the tests' ls."""
        rng = np.random.default_rng(61)
        n, R = 200, 4
        x = np.arange(n) / 10.0
        data = Dataset(np.stack([x, 0.01 * rng.standard_normal(n)], axis=1)
                       .astype(np.float32))
        adj = np.full((n, R), -1, dtype=np.int32)
        for i in range(n):
            row = [j for j in (i - 2, i - 1, i + 1, i + 2) if 0 <= j < n]
            adj[i, :len(row)] = row
        graph = SearchGraph(alpha=0.0, adjacency=adj)
        nq = 45
        qs = np.stack([rng.uniform(-2.0, 22.0, nq), rng.standard_normal(nq)],
                      axis=1).astype(np.float32)
        entries = np.stack([rng.choice(30, 12, replace=False) for _ in range(nq)])
        return graph, data, qs, entries

    def test_whole_pools_when_rows_close_far_apart(self, chain):
        graph, data, qs, entries = chain
        hops = assert_pools_match(graph, data, qs, entries, 12, 0,
                                  MetricKind.EUCLIDEAN)
        # closed rows are written back at many different steps
        assert len(set(hops.tolist())) >= 20 and hops.max() > 4 * hops.min()

    def test_whole_pools_when_rows_close_before_m(self, chain):
        graph, data, qs, entries = chain
        m = 40
        hops = assert_pools_match(graph, data, qs, entries, 12, m,
                                  MetricKind.INNER_PRODUCT)
        assert hops.min() < m < hops.max()

    @pytest.mark.parametrize("m", [0, 6])
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_whole_pools_in_small_blocks(self, chain, block, m):
        graph, data, qs, entries = chain
        for lo in range(0, 21, block):
            assert_pools_match(graph, data, qs[lo:lo + block],
                               entries[lo:lo + block], 12, m,
                               MetricKind.INNER_PRODUCT)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_pool_keys_sort_as_score_id_tuples(self, rng, metric):
        scores = rng.standard_normal(300).astype(np.float32)
        special = np.float32([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf])
        scores[:40] = rng.choice(special, 40)
        ids = rng.permutation(10_000)[:300]
        keys = search_mod._pool_keys(metric, scores, ids)
        want = sorted(zip(scores.tolist(), ids.tolist()),
                      key=lambda t: sort_key(metric, *t))
        assert search_mod._key_ids(np.sort(keys)).tolist() == [i for _, i in want]

    @pytest.fixture(scope="class")
    def panel(self):
        rng = np.random.default_rng(41)
        return Dataset(rng.standard_normal((40, 8)).astype(np.float32))

    @pytest.mark.parametrize("ls", [10, 16, 40])
    def test_ip(self, searchable, panel, ls):
        data, graph = searchable
        assert_matches_scalar(graph, data, panel, ls=ls, k=10, seed=2)

    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_metric_switch(self, searchable, panel, m):
        data, graph = searchable
        assert_matches_scalar(graph, data, panel, ls=24, k=10, m=m, seed=3)

    def test_switch_after_every_search_ends(self, searchable, panel):
        data, graph = searchable
        m = 10 ** 6
        got = assert_matches_scalar(graph, data, panel, ls=24, k=10, m=m, seed=4)
        assert max(r.stats.hops for r in got) < m

    def test_l2(self, searchable, panel):
        data, graph = searchable
        assert_matches_scalar(graph, data, panel, ls=20, k=10, seed=5,
                              metric=MetricKind.EUCLIDEAN)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_saturated_pool_is_exact(self, searchable, panel, metric):
        data, graph = searchable
        got = assert_matches_scalar(graph, data, panel, ls=data.n, k=10, seed=6,
                                    metric=metric)
        for qid, res in enumerate(got):
            oracle = brute_force_topk(data, panel.vector(qid), 10, metric)
            assert res.ids.tolist() == oracle.tolist()

    def test_saturated_pool_with_switch_is_exact(self, searchable, panel):
        data, graph = searchable
        got = assert_matches_scalar(graph, data, panel, ls=data.n, k=10, m=5,
                                    seed=6)
        for qid, res in enumerate(got):
            oracle = brute_force_topk(data, panel.vector(qid), 10,
                                      MetricKind.INNER_PRODUCT)
            assert res.ids.tolist() == oracle.tolist()

    @pytest.mark.parametrize("case,ls,m", [("chain", 12, 6), ("chain", 12, 40),
                                           ("sparse", 8, 3), ("panel", 24, 5),
                                           ("trap", 48, 16)])
    def test_old_switch_replay(self, request, case, ls, m):
        # the switch used to re-score the pool with a fresh np.vecdot; the
        # kept products give the same pools, visited bits, seen masks and
        # hops, for min(ls, n) fewer comps
        if case == "panel":
            data, graph = request.getfixturevalue("searchable")
            qs = request.getfixturevalue("panel").data
            entries = np.stack([search_mod._seed_ids(
                data.n, SearchParams(ls=ls, k=10, seed=(3, i)), ls)[0]
                for i in range(len(qs))])
        else:
            graph, data, qs, entries = request.getfixturevalue(case)
            qs = qs.data if isinstance(qs, Dataset) else qs
        hops = assert_pools_match(graph, data, qs, entries, ls, m,
                                  MetricKind.INNER_PRODUCT, old_switch=True)
        assert hops.max() > m

    def test_kept_products_equal_fresh_vecdot(self, trap, monkeypatch):
        # after the Euclidean phase, on both paths, every scored id's kept
        # <x,q> has the bits of a fresh np.vecdot of its row with q
        graph, data, qs, _ = trap
        m, kept = 16, []

        def keeping(real, masks):
            def run(*args, ips=None, **kwargs):
                real(*args, ips=ips, **kwargs)
                if ips is not None:
                    kept.append((ips.copy(), masks(args).copy()))
            return run

        monkeypatch.setattr(search_mod, "_expand_loop",
                            keeping(search_mod._expand_loop, lambda a: a[5]))
        monkeypatch.setattr(search_mod, "_lockstep_expand",
                            keeping(search_mod._lockstep_expand, lambda a: a[4]))
        for i, q in enumerate(qs):
            anms_search(graph, data, q, SearchParams(ls=48, k=10, m=m, seed=(2, i)))
        run_queries(graph, data, Dataset(qs), ls=48, k=10, m=m, seed=2)
        assert len(kept) == len(qs) + 1
        scalar = kept[:-1]
        engine = list(zip(*kept[-1]))
        for ips, seen in scalar + engine:
            assert seen.sum() > 48
        for q, (ips, seen), (ips_e, seen_e) in zip(qs, scalar, engine):
            ids = np.flatnonzero(seen)
            assert np.array_equal(seen, seen_e)
            fresh = np.vecdot(data.data[ids], q).tobytes()
            assert ips[ids].tobytes() == fresh == ips_e[ids].tobytes()

    @pytest.mark.parametrize("m", [0, 4])
    def test_pool_larger_than_n(self, searchable, panel, m):
        data, graph = searchable
        assert_matches_scalar(graph, data, panel, ls=data.n + 50, k=10, m=m, seed=7)

    @pytest.mark.parametrize("m", [0, 3])
    def test_padded_rows_that_list_node_zero(self, rng, m):
        data = Dataset(rng.standard_normal((90, 6)).astype(np.float32))
        queries = Dataset(rng.standard_normal((60, 6)).astype(np.float32))
        graph = random_graph(90, 7, seed=8)
        assert (graph.adjacency < 0).any() and (graph.adjacency == 0).any()
        assert_matches_scalar(graph, data, queries, ls=6, k=4, m=m, seed=9)

    @pytest.mark.parametrize("m", [0, 3])
    def test_padding_between_neighbours(self, rng, m):
        # a -1 cell is padding wherever it sits: rows such as
        # [3, -1, 5, 8, 2, -1] search as their left-packed twins do
        n, R = 90, 9
        data = Dataset(rng.standard_normal((n, 6)).astype(np.float32))
        queries = Dataset(rng.standard_normal((40, 6)).astype(np.float32))
        packed = np.full((n, R), -1, dtype=np.int32)
        packed[:, :R - 3] = random_graph(n, R - 3, seed=10).adjacency
        gapped = np.full((n, R), -1, dtype=np.int32)
        for i, row in enumerate(packed):
            row = row[row >= 0]
            gapped[i, np.sort(rng.choice(R, len(row), replace=False))] = row
        # a -1 cell before a neighbour in most rows
        assert ((gapped[:, :-1] < 0) & (gapped[:, 1:] >= 0)).any(axis=1).mean() > 0.5
        twins = [SearchGraph(alpha=0.0, adjacency=adj) for adj in (packed, gapped)]
        for i in range(n):
            assert twins[0].neighbors(i).tolist() == twins[1].neighbors(i).tolist()
        got = [assert_matches_scalar(g, data, queries, ls=8, k=5, m=m, seed=11)
               for g in twins]
        assert [(r.ids.tolist(), r.stats.dist_comps, r.stats.hops) for r in got[0]] \
            == [(r.ids.tolist(), r.stats.dist_comps, r.stats.hops) for r in got[1]]

    @pytest.fixture
    def sparse(self):
        """A graph where every fifth node has no out-edges, its row all
        padding, and whose last column is padding in every row; with queries
        and entry rows of 8 distinct ids: min(ls, n) for the tests' ls.
        Built per test, so a test that wrote into the graph cannot hide it
        from the next."""
        rng = np.random.default_rng(71)
        n, R = 60, 6
        graph = random_graph(n, R - 1, seed=14)
        adj = np.full((n, R), -1, dtype=np.int32)
        adj[:, :R - 1] = graph.adjacency
        adj[::5] = -1
        graph = SearchGraph(alpha=0.0, adjacency=adj)
        data = Dataset(rng.standard_normal((n, 5)).astype(np.float32))
        queries = Dataset(rng.standard_normal((30, 5)).astype(np.float32))
        entries = np.stack([rng.choice(n, 8, replace=False)
                            for _ in range(queries.n)])
        return graph, data, queries, entries

    @pytest.mark.parametrize("m", [0, 3])
    def test_rows_with_no_out_edges(self, sparse, m):
        graph, data, queries, entries = sparse
        empty = set(np.flatnonzero((graph.adjacency < 0).all(axis=1)).tolist())
        got = assert_matches_scalar(graph, data, queries, ls=8, k=8, m=m, seed=15)
        # every id of an exhausted pool was expanded, empty rows included
        assert any(empty & set(r.ids.tolist()) for r in got)
        assert_pools_match(graph, data, queries.data, entries, 8, m,
                           MetricKind.INNER_PRODUCT)

    def test_shared_graph_is_not_written(self, sparse):
        graph, data, queries, entries = sparse
        adjacency = graph.adjacency.copy()
        run_queries(graph, data, queries, ls=8, k=4, m=2, seed=16)
        assert_pools_match(graph, data, queries.data, entries, 8, 0,
                           MetricKind.INNER_PRODUCT)
        assert graph.adjacency.tobytes() == adjacency.tobytes()

    @pytest.fixture(scope="class")
    def narrow(self):
        """A graph of out-degree R = 4 < k = 10 with queries: a query at
        ls = 32 scores 4 entries, the walk fills the rest of its pool, and
        at m = 1 or 3 the pool is still partial at the switch, since m
        expansions reach at most 4 + 4m ids."""
        rng = np.random.default_rng(91)
        data = Dataset(rng.standard_normal((400, 8)).astype(np.float32))
        graph = materialize(build_mag(data, K=16, K1=8, K2=8, ls=32, seed=3),
                            R=4, alpha=0.5)
        queries = Dataset(rng.standard_normal((30, 8)).astype(np.float32))
        return graph, data, queries

    @pytest.mark.parametrize("m,metric", [(0, MetricKind.INNER_PRODUCT),
                                          (0, MetricKind.EUCLIDEAN),
                                          (1, MetricKind.INNER_PRODUCT),
                                          (3, MetricKind.INNER_PRODUCT),
                                          (8, MetricKind.INNER_PRODUCT)])
    def test_pools_that_the_walk_fills(self, narrow, m, metric):
        graph, data, queries = narrow
        ls, k, seed = 32, 10, 17
        assert graph.adjacency.shape[1] < k
        got = assert_matches_scalar(graph, data, queries, ls=ls, k=k, m=m,
                                    seed=seed, metric=metric, debug=True)
        assert all(len(r.ids) == k for r in got)
        entries = entry_rows(graph, ls, seed, queries.n)
        assert entries.shape == (queries.n, graph.adjacency.shape[1])
        hops = assert_pools_match(graph, data, queries.data, entries, ls, m,
                                  metric)
        assert hops.min() >= ls

    @pytest.fixture(scope="class")
    def islands(self):
        """Two rings of 6 nodes, each node linked to its two ring
        neighbours, searched at ls = 10 < n = 12 with R = 2: a query scores
        two entries, and when both lie on one ring it reaches that ring's 6
        ids only, fewer than k = 8."""
        n, R = 12, 2
        adj = np.array([[6 * (i // 6) + (i - 1) % 6, 6 * (i // 6) + (i + 1) % 6]
                        for i in range(n)], dtype=np.int32)
        graph = SearchGraph(alpha=0.0, adjacency=adj)
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((n, 3)).astype(np.float32))
        queries = Dataset(rng.standard_normal((40, 3)).astype(np.float32))
        return graph, data, queries

    @pytest.mark.parametrize("m,metric", [(0, MetricKind.INNER_PRODUCT),
                                          (0, MetricKind.EUCLIDEAN),
                                          (1, MetricKind.INNER_PRODUCT),
                                          (3, MetricKind.INNER_PRODUCT)])
    def test_short_rows_when_few_ids_are_reachable(self, islands, m, metric):
        graph, data, queries = islands
        ls, k, seed = 10, 8, 19
        got = assert_matches_scalar(graph, data, queries, ls=ls, k=k, m=m,
                                    seed=seed, metric=metric, debug=True)
        assert {len(r.ids) for r in got} == {6, k}
        for r in got:
            # no padding id (2**31 - 1) reaches a result
            assert r.ids.dtype == np.int32 and 0 <= r.ids.min() <= r.ids.max() < graph.n
            if len(r.ids) < k:
                ring = 6 * (r.ids[0] // 6) + np.arange(6)
                assert sorted(r.ids.tolist()) == ring.tolist()
                assert r.stats.dist_comps == 6
        entries = entry_rows(graph, ls, seed, queries.n)
        assert_pools_match(graph, data, queries.data, entries, ls, m, metric)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_duplicate_vectors_tie_by_id(self, rng, metric):
        unique = rng.standard_normal((20, 5)).astype(np.float32)
        data = Dataset(np.ascontiguousarray(np.repeat(unique, 4, axis=0)))
        queries = Dataset(rng.standard_normal((30, 5)).astype(np.float32))
        graph = random_graph(80, 10, seed=10)
        got = assert_matches_scalar(graph, data, queries, ls=12, k=8, seed=11,
                                    metric=metric)
        # some result holds two ids of one vector, so the tie decided it
        assert any(len(np.unique(data.data[r.ids], axis=0)) < len(r.ids)
                   for r in got)

    def test_zero_query_ties_by_id(self, searchable):
        data, graph = searchable
        zero = Dataset(np.zeros((3, 8), dtype=np.float32))
        got = assert_matches_scalar(graph, data, zero, ls=data.n, k=10, seed=12)
        assert all(r.ids.tolist() == list(range(10)) for r in got)

    @pytest.mark.parametrize("m", [0, 6])
    def test_any_block_size(self, searchable, panel, monkeypatch, m):
        data, graph = searchable
        c = search_mod._entry_count(data.n, 24, graph.adjacency.shape[1])
        assert search_mod._block_size(data.n, 24, c, data.dim, m) >= panel.n
        whole = assert_matches_scalar(graph, data, panel, ls=24, k=10, m=m, seed=13)
        for block in (1, 2, 3, 7, panel.n - 1):
            monkeypatch.setattr(search_mod, "_block_size", lambda *_: block)
            got = run_queries(graph, data, panel, ls=24, k=10, m=m, seed=13)
            assert [(r.ids.tolist(), r.stats.dist_comps, r.stats.hops) for r in got] \
                == [(r.ids.tolist(), r.stats.dist_comps, r.stats.hops) for r in whole]

    def test_block_masks_stay_in_budget(self):
        # a block holds at least one query, whose mask alone may exceed it;
        # at m > 0 a query also keeps n float32 inner products
        for n in (10, 1200, 64_000, 10 ** 8):
            for m, per_query in ((0, n), (3, 5 * n)):
                block = search_mod._block_size(n, 128, min(128, n), 16, m)
                assert block >= 1
                assert block * per_query <= max(search_mod._BLOCK_BYTES, per_query)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, searchable, panel, bad):
        data, graph = searchable
        qs = Dataset(panel.data.copy())
        qs.data[7, 2] = bad  # a Dataset checks its values only when made
        for m in (0, 3):
            with pytest.raises(UsageError, match="NaN or Inf"):
                run_queries(graph, data, qs, ls=16, k=5, m=m)

    def test_panel_checks(self, searchable, panel):
        data, graph = searchable
        wide = Dataset(np.ones((4, 9), dtype=np.float32))
        with pytest.raises(UsageError, match="does not match dim"):
            run_queries(graph, data, wide, ls=16, k=5)
        other = Dataset(data.data[:-1].copy())
        with pytest.raises(UsageError, match="nodes but dataset has"):
            run_queries(graph, other, panel, ls=16, k=5)
        with pytest.raises(UsageError, match="targets inner product"):
            run_queries(graph, data, panel, ls=16, k=5, m=2,
                        metric=MetricKind.EUCLIDEAN)


def reference_entries(words, n, ls, R):
    """The seeding rule on Python ints: splitmix64 folded over the words,
    counter-hashed draws, Floyd's sampling of every id when ls >= n and
    else of min(ls, R)."""
    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
        return z ^ (z >> 31)
    golden = 0x9E3779B97F4A7C15
    h = 0
    for w in words:
        h = mix(((h ^ w) + golden) % 2 ** 64)
    c = n if ls >= n else min(ls, R)
    picked = []
    for t in range(c):
        d = mix(h ^ (t + 1) * golden % 2 ** 64) % (n - c + t + 1)
        picked.append(n - c + t if d in picked else d)
    return picked


RS = (1, 5, 16, 32)  # the out-degree caps that TestSeeding draws entries for


def seed_keys(words_list):
    return np.array([search_mod._seed_key(w) for w in words_list], dtype=np.uint64)


class TestSeeding:
    """The rule that picks a query's entries from its seed words, and how
    many: every id when ls >= n, else min(ls, R)."""

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 1200])
    def test_distinct_ids_on_both_paths(self, n):
        ls = 16
        words = [(3, i) for i in range(50)]
        for R in (None, *RS):  # None: the uncapped draw, min(ls, n)
            c = min(ls, n) if R is None else search_mod._entry_count(n, ls, R)
            assert c == (n if ls >= n else min(ls, R or ls))
            entries, seen = search_mod._seed_block(seed_keys(words), n, c)
            for row, mask, w in zip(entries, seen, words):
                params = SearchParams(ls=ls, k=1, seed=w)
                ids, own = search_mod._seed_ids(n, params, c)
                assert ids.tolist() == row.tolist()
                assert np.array_equal(own, mask)
                assert len(set(row.tolist())) == c
                assert 0 <= row.min() and row.max() < n
                assert np.flatnonzero(mask).tolist() == sorted(row.tolist())
                if n <= ls:
                    assert sorted(row.tolist()) == list(range(n))

    @pytest.mark.parametrize("R", RS)
    @pytest.mark.parametrize("ls", [3, 16, 60, 61])
    def test_entry_count_on_both_search_paths(self, R, ls):
        # on a graph with no edges a search scores and expands its entries
        # and nothing else: every id of the 60 when ls >= n, else min(ls, R)
        rng = np.random.default_rng(R)
        n, k = 60, 3
        data = Dataset(rng.standard_normal((n, 4)).astype(np.float32))
        queries = Dataset(rng.standard_normal((8, 4)).astype(np.float32))
        graph = SearchGraph(alpha=0.0, adjacency=np.full((n, R), -1, dtype=np.int32))
        c = n if ls >= n else min(ls, R)
        for m in (0, 2):
            got = assert_matches_scalar(graph, data, queries, ls=ls, k=k, m=m,
                                        seed=R, debug=True)
            for qid, res in enumerate(got):
                entries, _ = search_mod._seed_ids(
                    n, SearchParams(ls=ls, k=k, seed=(R, qid)), c)
                want = brute_force_topk(Dataset(data.data[entries]),
                                        queries.vector(qid), min(k, c),
                                        MetricKind.INNER_PRODUCT)
                assert (res.stats.dist_comps, res.stats.hops) == (c, c)
                assert res.ids.tolist() == entries[want].tolist()

    def test_inclusion_is_uniform(self):
        n, ls, nq = 1000, 16, 20_000
        keys = seed_keys([(11, i) for i in range(nq)])
        counts = np.zeros(n, dtype=np.int64)
        for start in range(0, nq, 4000):
            entries, _ = search_mod._seed_block(keys[start:start + 4000], n, ls)
            counts += np.bincount(entries.ravel(), minlength=n)
        expected = nq * ls / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 / (n - 1) < 1.5

    @pytest.mark.parametrize("words, want", [
        ((0, 0), [805, 514, 872, 770, 820, 182, 638, 493]),
        ((2 ** 64 - 1, 5), [790, 977, 22, 326, 993, 450, 428, 836]),
    ])
    def test_pinned_entries(self, words, want):
        """The rule decides result ids, so a change to it must show here."""
        assert search_mod._seed_ids(1000, SearchParams(ls=8, k=1, seed=words),
                                    8)[0].tolist() == want
        entries, _ = search_mod._seed_block(seed_keys([words]), 1000, 8)
        assert entries[0].tolist() == want

    def test_matches_python_int_reference(self, rng):
        for _ in range(200):
            n, ls = int(rng.integers(1, 1500)), int(rng.integers(1, 150))
            words = tuple(int(w) for w in rng.integers(
                0, 2 ** 64 - 1, size=rng.integers(1, 4), dtype=np.uint64,
                endpoint=True))
            params = SearchParams(ls=ls, k=1, seed=words)
            got, _ = search_mod._seed_ids(n, params, min(ls, n))
            assert got.tolist() == reference_entries(words, n, ls, ls), (words, n, ls)
            for R in RS:
                got, _ = search_mod._seed_ids(
                    n, params, search_mod._entry_count(n, ls, R))
                assert got.tolist() == reference_entries(words, n, ls, R), \
                    (words, n, ls, R)

    def test_an_int_seed_is_one_word(self):
        assert search_mod._seed_key(7) == search_mod._seed_key((7,))
        assert search_mod._seed_key(np.uint64(7)) == search_mod._seed_key(7)

    def test_no_generator_per_query(self, searchable, monkeypatch):
        data, graph = searchable
        qs = data.data[:30] + np.float32(0.5)

        def refuse(*_args, **_kwargs):
            raise AssertionError("query seeding built a numpy Generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        run_queries(graph, data, Dataset(qs), ls=16, k=5, seed=3)
        run_queries(graph, data, Dataset(qs), ls=16, k=5, m=4, seed=3)
        greedy_search(graph, data, qs[0], SearchParams(ls=16, k=5, seed=(3, 0)),
                      MetricKind.INNER_PRODUCT)
        anms_search(graph, data, qs[0], SearchParams(ls=16, k=5, m=4, seed=9))

    @pytest.mark.parametrize("bad", [-1, 2 ** 64, "3", 1.5, (), (1, -2),
                                     (1, "2"), [1, 2], None])
    def test_bad_seed_is_a_usage_error(self, searchable, bad):
        data, graph = searchable
        with pytest.raises(UsageError, match="seed"):
            SearchParams(ls=16, k=5, seed=bad)
        with pytest.raises(UsageError, match="seed"):
            run_queries(graph, data, Dataset(data.data[:3]), ls=16, k=5, seed=bad)

    def test_edge_seed_words_accepted(self, searchable):
        data, graph = searchable
        for seed in (0, 2 ** 64 - 1, np.int64(5), (0, 2 ** 64 - 1)):
            SearchParams(ls=16, k=5, seed=seed)
        run_queries(graph, data, Dataset(data.data[:3]), ls=16, k=5, seed=2 ** 64 - 1)


class TestScalingDuality:
    def test_hand_example(self):
        data = Dataset.from_array([[2, 0], [0, 1]])
        queries = Dataset.from_array([[1, 1]])
        rep = verify_scaling_duality(data, queries)
        assert rep.nn_agreement == 1.0

    def test_full_agreement_with_auto_mu(self, rng):
        data = Dataset(rng.standard_normal((300, 10)).astype(np.float32))
        queries = Dataset(rng.standard_normal((40, 10)).astype(np.float32))
        rep = verify_scaling_duality(data, queries)
        assert rep.nn_agreement == 1.0
        assert rep.n_tied == 0

    def test_trace_agreement_on_graph(self, searchable, monkeypatch):
        # float64 greedy traversals for q under IP and for mu*q under
        # Euclidean distance expand the same nodes in the same order; the
        # scalar loop calls np.vecdot itself for inner products
        data, graph = searchable
        vecdot = np.vecdot

        def vecdot64(a, b):
            return vecdot(np.asarray(a, np.float64), np.asarray(b, np.float64))

        def score64(metric, q, block):
            rows = np.asarray(block, np.float64)
            qv = np.asarray(q, np.float64)
            if metric is MetricKind.INNER_PRODUCT:
                return vecdot64(rows, qv)
            diff = rows - qv
            return vecdot64(diff, diff)

        monkeypatch.setattr(search_mod, "score_batch", score64)
        monkeypatch.setattr(np, "vecdot", vecdot64)
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((20, 8)).astype(np.float32)
        max_norm = float(np.linalg.norm(data.data.astype(np.float64), axis=1).max())
        params = SearchParams(ls=32, k=1, seed=8)
        for q in queries.astype(np.float64):
            scaled = (1e6 * max_norm / float(np.linalg.norm(q))) * q
            ip = expansion_order(monkeypatch, lambda: greedy_search(
                graph, data, q.astype(np.float32), params,
                MetricKind.INNER_PRODUCT))
            nn = expansion_order(monkeypatch, lambda: greedy_search(
                graph, data, scaled.astype(np.float32), params,
                MetricKind.EUCLIDEAN))
            assert ip and ip == nn


def overflow_case(x_norm, q_norm):
    """300 Gaussian rows of d = 8 with row 0 = (x_norm / 2) e0 and row 1 =
    x_norm e0, a graph built on them, and the query q_norm e0, whose top
    two by inner product are [1, 0]."""
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((300, 8)).astype(np.float32)
    pts[:2] = 0.0
    pts[0, 0], pts[1, 0] = x_norm / 2, x_norm
    data = Dataset(pts)
    graph = materialize(build_mag(data, K=12, K1=6, K2=6, ls=24), R=10, alpha=0.5)
    q = np.zeros(8, dtype=np.float32)
    q[0] = q_norm
    return graph, data, q


class TestScoreOverflow:
    """Queries score in float32: a query whose scores could overflow it is
    refused, one just inside the bound is answered exactly."""

    RUNS = [(0, MetricKind.INNER_PRODUCT), (4, MetricKind.INNER_PRODUCT),
            (0, MetricKind.EUCLIDEAN)]

    @pytest.mark.parametrize("m,metric", RUNS)
    def test_overflowing_query_is_refused(self, m, metric):
        # (4e19 + 2e19)^2 = 3.6e39 > FLT_MAX / 2; without the check both
        # paths ranked [0, 1] at ls = n, where the oracle gives [1, 0]
        graph, data, q = overflow_case(4e19, 2e19)
        assert brute_force_topk(data, q, 2, MetricKind.INNER_PRODUCT).tolist() == [1, 0]
        params = SearchParams(ls=data.n, k=2, m=m)
        with pytest.raises(UsageError, match="overflows float32 scores"):
            run_queries(graph, data, Dataset(q[None]), ls=data.n, k=2, m=m,
                        metric=metric)
        with pytest.raises(UsageError, match="overflows float32 scores"):
            if m:
                anms_search(graph, data, q, params)
            else:
                greedy_search(graph, data, q, params, metric)

    @pytest.mark.parametrize("m,metric", RUNS)
    def test_query_inside_the_bound_is_exact(self, m, metric):
        # (4e18 + 2.8e18)^2 = 4.6e37 < FLT_MAX / 2 = 1.7e38
        graph, data, q = overflow_case(4e18, 2.8e18)
        want = brute_force_topk(data, q, 10, metric).tolist()
        assert want[:2] == ([1, 0] if metric.larger_is_better else [0, 1])
        got = assert_matches_scalar(graph, data, Dataset(q[None]), ls=data.n,
                                    k=10, m=m, metric=metric)
        assert got[0].ids.tolist() == want
