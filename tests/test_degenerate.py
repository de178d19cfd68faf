"""Seeded degenerate datasets, at ls >= n against the exact oracle and at
ls < n across the two search paths.

The datasets hold the cases a graph index must not get wrong: duplicate
rows, zero vectors, collinear points, norms from 1e-3 to 1e3, and n <= ls
with the K-NN graph built at K = n - 1, either all mixed in one dataset
or one case making up a whole dataset. At ls >= n a query's pool holds
every id from its seeding on, so both search paths must return
``brute_force_topk``'s ids: under inner product, under l2, and through
the metric switch at m = 1 and 4. The single-query path runs with
``debug=True``, which checks the pool's invariants after every hop. The
index must also round-trip byte-identically and be the same bytes at one
and two workers.

The same mix at 297 rows, built sparse (K = 16, K1 = K2 = 8) and searched
at ls = 8 and 32, leaves most ids outside every pool; there the
single-query path and ``run_queries`` must still agree on ids,
``dist_comps`` and ``hops`` under inner product at m = 0 and 4 and under
l2, at search seeds 0-5, and the index must keep its bytes the same way.
A query at ls < n scores min(ls, R) entries and the walk fills its pool,
so at R = 4 < k = 8 the duplicates and zero vectors reach the pool from
the walk alone; the two paths must agree there too, with ``k`` ids in
every row and none outside the data.
"""

import numpy as np
import pytest

from magsearch import (Dataset, MetricKind, SearchParams, anms_search,
                       brute_force_topk, build_mag, greedy_search, load_index,
                       materialize, run_queries, save_index)
from magsearch.index import index_to_bytes


SEEDS = range(6)
# whole datasets made of one degenerate case each
PLAIN = {
    "two-rows": [[1.0, 0.0], [0.0, 2.0]],
    "all-duplicates": [[1.0, 1.0]] * 3,
    "all-zero": [[0.0, 0.0, 0.0]] * 5,
    "norm-extremes": [[1e-3, 0.0], [0.0, 1e3], [1e3, 1e3], [0.0, 0.0]],
    "line-through-origin": np.outer(np.arange(-4, 5), [1.0, 2.0, -1.0]),
}


def panel(rng: np.random.Generator, data: np.ndarray) -> Dataset:
    """Queries: random ones at two scales, a zero query and a data row."""
    dim = data.shape[1]
    return Dataset(np.vstack([rng.standard_normal((5, dim)),
                              100.0 * rng.standard_normal((1, dim)),
                              np.zeros((1, dim)), data[:1]]).astype(np.float32))


def mixed(seed: int, size: int = 1) -> tuple[Dataset, Dataset]:
    """A shuffled dataset of 27 * size rows holding every case, and its panel."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    base = rng.standard_normal((8 * size, dim))
    line = rng.standard_normal(dim)
    spread = rng.standard_normal((8 * size, dim))
    spread *= (10.0 ** rng.uniform(-3, 3, 8 * size)
               / np.linalg.norm(spread, axis=1))[:, None]
    steps = np.outer(np.arange(1, size + 1), [-3.0, -1.0, 0.5, 2.0, 7.0]).ravel()
    rows = np.vstack([
        base,
        base[rng.integers(0, len(base), 4 * size)],         # duplicates
        np.zeros((2 * size, dim)),                          # zero vectors
        np.outer(steps, line),                              # collinear
        spread,                                             # norms 1e-3 .. 1e3
    ])
    data = rows[rng.permutation(len(rows))].astype(np.float32)
    return Dataset(data), panel(rng, data)


def build(data: Dataset, workers: int = 1):
    n = data.n
    return build_mag(data, K=n - 1, K1=min(8, n - 1), K2=min(6, n - 1), ls=n,
                     seed=3, workers=workers)


@pytest.fixture(scope="module", params=[*SEEDS, *PLAIN],
                ids=lambda p: p if isinstance(p, str) else f"mixed-seed{p}")
def case(request):
    """(data, queries, index, search seed) of one case."""
    if isinstance(request.param, str):
        data = np.asarray(PLAIN[request.param], dtype=np.float32)
        seed = len(data)
        data, queries = Dataset(data), panel(np.random.default_rng(seed), data)
    else:
        seed = request.param
        data, queries = mixed(seed)
    return data, queries, build(data), seed


@pytest.mark.parametrize("ls_extra", [0, 5])
def test_both_paths_exact_at_saturation(case, ls_extra):
    data, queries, index, seed = case
    n = data.n
    ls, k = n + ls_extra, n  # k = n: the whole ranking
    graph = materialize(index, R=n - 1, alpha=0.5)
    runs = [(MetricKind.INNER_PRODUCT, 0), (MetricKind.EUCLIDEAN, 0),
            (MetricKind.INNER_PRODUCT, 1), (MetricKind.INNER_PRODUCT, 4)]
    for metric, m in runs:
        engine = run_queries(graph, data, queries, ls=ls, k=k, m=m, seed=seed,
                             metric=metric)
        for i, q in enumerate(queries.data):
            want = brute_force_topk(data, q, k, metric).tolist()
            params = SearchParams(ls=ls, k=k, m=m, seed=(seed, i))
            scalar = (anms_search(graph, data, q, params, debug=True) if m
                      else greedy_search(graph, data, q, params, metric, debug=True))
            assert scalar.ids.tolist() == want, (metric, m, i)
            assert engine[i].ids.tolist() == want, (metric, m, i)
            assert (engine[i].stats.dist_comps, engine[i].stats.hops) == \
                (scalar.stats.dist_comps, scalar.stats.hops), (metric, m, i)


def test_index_round_trips_byte_identically(case, tmp_path):
    data, _, index, _ = case
    path = str(tmp_path / "index.mag")
    save_index(index, path)
    again = load_index(path)
    again.validate(data)
    assert index_to_bytes(again) == index_to_bytes(index)


def test_worker_count_keeps_the_bytes(case):
    data, _, index, _ = case
    assert index_to_bytes(build(data, workers=2)) == index_to_bytes(index)


SPARSE_SIZE = 11  # mixed(seed, SPARSE_SIZE) holds 297 rows


def build_sparse(data: Dataset, workers: int = 1):
    return build_mag(data, K=16, K1=8, K2=8, ls=32, seed=3, workers=workers)


@pytest.fixture(scope="module", params=SEEDS, ids=lambda p: f"mixed297-seed{p}")
def sparse_case(request):
    """(data, queries, index) of one 297-row mixed dataset."""
    data, queries = mixed(request.param, SPARSE_SIZE)
    return data, queries, build_sparse(data)


@pytest.mark.parametrize("ls", [8, 32])
def test_both_paths_agree_below_saturation(sparse_case, ls):
    data, queries, index = sparse_case
    assert ls < data.n
    k = 8
    graph = materialize(index, R=16, alpha=0.5)
    runs = [(MetricKind.INNER_PRODUCT, 0), (MetricKind.EUCLIDEAN, 0),
            (MetricKind.INNER_PRODUCT, 4)]
    for seed in SEEDS:
        for metric, m in runs:
            engine = run_queries(graph, data, queries, ls=ls, k=k, m=m, seed=seed,
                                 metric=metric)
            for i, q in enumerate(queries.data):
                params = SearchParams(ls=ls, k=k, m=m, seed=(seed, i))
                scalar = (anms_search(graph, data, q, params, debug=True) if m
                          else greedy_search(graph, data, q, params, metric,
                                             debug=True))
                where = (seed, metric, m, i)
                assert engine[i].ids.tolist() == scalar.ids.tolist(), where
                assert (engine[i].stats.dist_comps, engine[i].stats.hops) == \
                    (scalar.stats.dist_comps, scalar.stats.hops), where


@pytest.mark.parametrize("ls", [8, 32])
def test_both_paths_agree_when_the_walk_fills_the_pool(sparse_case, ls):
    data, queries, index = sparse_case
    k, R = 8, 4
    graph = materialize(index, R=R, alpha=0.5)
    runs = [(MetricKind.INNER_PRODUCT, 0), (MetricKind.EUCLIDEAN, 0),
            (MetricKind.INNER_PRODUCT, 1), (MetricKind.INNER_PRODUCT, 4)]
    for seed in SEEDS:
        for metric, m in runs:
            engine = run_queries(graph, data, queries, ls=ls, k=k, m=m, seed=seed,
                                 metric=metric)
            for i, q in enumerate(queries.data):
                params = SearchParams(ls=ls, k=k, m=m, seed=(seed, i))
                scalar = (anms_search(graph, data, q, params, debug=True) if m
                          else greedy_search(graph, data, q, params, metric,
                                             debug=True))
                where = (seed, metric, m, i)
                assert engine[i].ids.tolist() == scalar.ids.tolist(), where
                assert (engine[i].stats.dist_comps, engine[i].stats.hops) == \
                    (scalar.stats.dist_comps, scalar.stats.hops), where
                assert len(scalar.ids) == k, where
                assert 0 <= scalar.ids.min() and scalar.ids.max() < data.n, where


def test_sparse_index_round_trips_and_ignores_workers(sparse_case, tmp_path):
    data, _, index = sparse_case
    path = str(tmp_path / "index.mag")
    save_index(index, path)
    again = load_index(path)
    again.validate(data)
    assert index_to_bytes(again) == index_to_bytes(index)
    assert index_to_bytes(build_sparse(data, workers=2)) == index_to_bytes(index)
