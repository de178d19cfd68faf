"""K-NN builders, Euclidean pruning, and dominator edge selection."""

import numpy as np
import pytest

from magsearch import (Dataset, MetricKind, UsageError, brute_force_topk,
                       build_exact_knn, build_exact_ndg, mrng_prune, ndg_select,
                       count_strong_components, self_dominator_set)
from magsearch import construction, index as index_mod
from magsearch.bench import SyntheticSpec, generate_synthetic
from magsearch.construction import CsrEdges
from magsearch.io import compute_ground_truth
from magsearch.stats import _chunk_best_cross, best_cross_inner_product


def f64(ds):
    """The float64 copy of a dataset that the edge rules take."""
    return ds.data.astype(np.float64)


class TestExactKnn:
    def test_collinear_hand_example(self):
        ds = Dataset.from_array([[0.0], [1.0], [3.0]])
        g = build_exact_knn(ds, 1)
        assert g.neighbors[:, 0].tolist() == [1, 0, 1]
        assert g.dists[:, 0].tolist() == [1.0, 1.0, 4.0]

    def test_complete_graph(self, small_gaussian):
        g = build_exact_knn(small_gaussian, small_gaussian.n - 1)
        for i in range(small_gaussian.n):
            assert sorted(g.neighbors[i].tolist()) == [
                j for j in range(small_gaussian.n) if j != i]
            keys = list(zip(g.dists[i].tolist(), g.neighbors[i].tolist()))
            assert keys == sorted(keys)  # (distance, id) order

    def test_agrees_with_oracle(self, rng):
        ds = Dataset(rng.standard_normal((500, 16)).astype(np.float32))
        g = build_exact_knn(ds, 10)
        for i in range(500):
            top = brute_force_topk(ds, ds.vector(i), 11, MetricKind.EUCLIDEAN)
            expected = [int(t) for t in top if t != i][:10]
            assert g.neighbors[i].tolist() == expected

    def test_duplicate_points_tie_break(self):
        ds = Dataset.from_array([[0, 0], [1, 1], [1, 1], [1, 1]])
        g = build_exact_knn(ds, 2)
        assert g.neighbors[0].tolist() == [1, 2]

    def test_k_out_of_range(self, small_gaussian):
        with pytest.raises(UsageError):
            build_exact_knn(small_gaussian, small_gaussian.n)


class TestTopkRows:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("k", [1, 5, 17, 60])
    def test_matches_oracle_with_boundary_ties(self, metric, k):
        # integer points, ten of them twice: the keys are exact and many
        # rows tie at their k-th key, so one block mixes tied and untied rows
        rng = np.random.default_rng(4)
        grid = np.stack(np.meshgrid(np.arange(-20, 21), np.arange(-20, 21)),
                        axis=-1).reshape(-1, 2)
        pts = grid[rng.choice(len(grid), 60, replace=False)].astype(np.float32)
        pts[50:] = pts[:10]
        ds = Dataset(pts)
        queries = grid[rng.choice(len(grid), 30, replace=False)].astype(np.float64)
        base = f64(ds)
        keys = (-(queries @ base.T) if metric.larger_is_better
                else ((base - queries[:, None]) ** 2).sum(axis=-1))
        kth = np.sort(keys, axis=1)[:, k - 1, None]
        tied = np.count_nonzero(keys <= kth, axis=1) > k
        assert tied.any() == (k < ds.n) and not tied.all()
        ids, vals = construction._topk_rows(keys.copy(), k)
        assert ids.dtype == np.int32
        want = [brute_force_topk(ds, q, k, metric) for q in queries]
        assert np.array_equal(ids, want)
        assert np.array_equal(vals, np.take_along_axis(keys, ids, axis=1))


def prune_row(node, ids, d2, base, K1):
    """The ids ``mrng_prune`` keeps of one candidate row."""
    ids = np.asarray(ids)
    return ids[mrng_prune(np.array([node]), ids[None], np.asarray(d2)[None],
                          base, K1)[0]]


def select_row(node, ids, base, K2):
    """The ids ``ndg_select`` keeps of one candidate row."""
    ids = np.asarray(ids)
    return ids[ndg_select(np.array([node]), ids[None], base, K2)[0]]


class TestMrngPrune:
    def test_hand_example(self):
        # node (0,0); keep (1,0) and (0,1.5); prune (2,0) which is closer
        # to (1,0) than to the node
        ds = Dataset.from_array([[0, 0], [1, 0], [0, 1.5], [2, 0]])
        kept = prune_row(0, [1, 2, 3], [1.0, 2.25, 4.0], f64(ds), 3)
        assert kept.tolist() == [1, 2]

    def test_collinear_hand_example(self):
        ds = Dataset.from_array([[0.0], [1.0], [2.0]])
        kept = prune_row(0, [1, 2], [1.0, 4.0], f64(ds), 2)
        assert kept.tolist() == [1]

    def test_single_candidate_kept(self):
        ds = Dataset.from_array([[0, 0], [5, 5]])
        kept = prune_row(0, [1], [50.0], f64(ds), 4)
        assert kept.tolist() == [1]

    def test_nearest_always_kept_and_cap(self, rng):
        ds = Dataset(rng.standard_normal((100, 4)).astype(np.float32))
        base = ds.data.astype(np.float64)
        for node in (0, 17, 63):
            diff = base - base[node]
            d2 = np.einsum("ij,ij->i", diff, diff)
            others = np.array([i for i in range(100) if i != node])
            order = others[np.lexsort((others, d2[others]))]
            kept = prune_row(node, order, d2[order], base, 5)
            assert len(kept) <= 5
            assert kept[0] == order[0]
            assert node not in kept.tolist()


def prune_reference(node, candidate_ids, candidate_d2, base, K1):
    """The per-node occlusion prune: candidates in order, each kept unless
    it is the node or a kept one lies at least as close to it as the node."""
    limit = len(candidate_ids) if K1 is None else min(K1, len(candidate_ids))
    kept = []
    for cid, cd2 in zip(candidate_ids, candidate_d2):
        cid = int(cid)
        if cid == node:
            continue
        if kept:
            diff = base[kept] - base[cid]
            if (cd2 >= np.einsum("ij,ij->i", diff, diff)).any():
                continue
        kept.append(cid)
        if len(kept) == limit:
            break
    return kept


def prune_panel():
    """(owners, -1 padded candidate rows, their d2, float64 base, row
    lengths): a 5x5 integer grid (equal distances, a zero vector at the
    origin), three duplicated grid points, and Gaussian points. Rows list
    the nearest candidates by (d2, id) in lengths 3..39; even rows keep
    the owner among its own candidates, odd rows drop it."""
    rng = np.random.default_rng(3)
    grid = np.array([[x, y] for x in range(-2, 3) for y in range(-2, 3)], float)
    base = np.concatenate((grid, grid[[0, 12, 18]],
                           rng.standard_normal((22, 2)) * 2))
    n = len(base)
    lengths, rows, dists = [], [], []
    for node in range(n):
        diff = base - base[node]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((np.arange(n), d2))
        if node % 2:
            order = order[order != node]
        order = order[:3 + (7 * node) % 37]
        lengths.append(len(order))
        rows.append(order)
        dists.append(d2[order])
    width = max(lengths)
    ids = np.full((n, width), -1)
    d2s = np.full((n, width), np.inf)
    for i, (row, dd) in enumerate(zip(rows, dists)):
        ids[i, :len(row)], d2s[i, :len(row)] = row, dd
    return np.arange(n), ids, d2s, base, lengths


def merged_rows(edges):
    """Each row united with the reverse edges that point at it, ascending,
    without self-loops."""
    rows = [set(row.tolist()) for row in edges]
    for i, row in enumerate(edges):
        for j in row.tolist():
            rows[j].add(i)
    return [np.array(sorted(row - {i}), dtype=np.int64) for i, row in enumerate(rows)]


def by_ip_reference(i, row, base):
    """A row ordered by descending <i, .>, ties by id. Scored by np.vecdot,
    the kernel of the block rules, so the reference checks the ranking
    and not the rounding of a different kernel."""
    return row[np.lexsort((row, -np.vecdot(base[row], base[i])))]


def select_reference(node, candidate_ids, base, K2):
    """The per-node dominator selection: drop the node, then keep the first
    candidate and every later y with <y,y> >= <y,z> for every other z of
    the candidates and the node, the first K2 of them."""
    cand = np.asarray(candidate_ids, dtype=np.int64)
    cand = cand[cand != node]
    if len(cand) == 0 or K2 == 0:
        return []
    self_dots, best_cross = best_cross_inner_product(base[np.append(cand, node)])
    kept = self_dots[:len(cand)] >= best_cross[:len(cand)]
    kept[0] = True
    return cand[kept][:K2].tolist()


def select_panel():
    """(owners, -1 padded candidate rows, float64 base, row lengths): the
    points of ``prune_panel`` (an integer grid with equal inner products
    and a zero vector, duplicated grid points, Gaussian points) and four of
    them stretched 4x, which as owners dominate their candidates. A row
    lists random candidates by descending <owner, .>, ties by id, in
    lengths 0..12, 5 in 17 of them unpadded; even rows that are not empty
    hold their owner, odd rows do not, and row 2 holds only its owner."""
    _, _, _, base, _ = prune_panel()
    base = np.concatenate((base, 4 * base[[6, 13, 31, 40]]))
    n = len(base)
    rng = np.random.default_rng(4)
    ids = np.full((n, 12), -1)
    lengths = []
    for node in range(n):
        length = 1 if node == 2 else min(12, (5 * node) % 17)
        pick = rng.choice(np.delete(np.arange(n), node), size=length, replace=False)
        if node % 2 == 0 and length:
            pick[0] = node
        row = pick[np.lexsort((pick, -(base[pick] @ base[node])))]
        ids[node, :length] = row
        lengths.append(length)
    return np.arange(n), ids, base, lengths


def two_pass_select_panel():
    """(owners, -1 padded candidate rows, float64 base) for the two passes
    of ``ndg_select``. The points have small integer coordinates: many lie
    on a few rays, so a candidate is often dominated by a longer one on its
    ray, and many pairs tie exactly, <y,y> == <y,z>. Rows hold 20 columns
    in random order, padding and the owner among them; every third row
    opens with 2 to 6 columns of padding and owner copies, so that its
    first open column lies past the first pass at small K2."""
    rng = np.random.default_rng(11)
    rays = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 1], [0, 1, 1],
                     [-1, 0, 1], [2, 1, 0]], float)
    base = np.concatenate([rays * t for t in (1, 2, 3)]
                          + [rng.integers(-2, 3, (20, 3)).astype(float)])
    n, width = len(base), 20
    owners = rng.integers(0, n, 90)
    ids = np.empty((len(owners), width), dtype=np.int64)
    for r, node in enumerate(owners):
        row = rng.choice(np.delete(np.arange(n), node), size=width, replace=False)
        filler = np.where(rng.random(width) < 0.5, -1, node)
        row = np.where(rng.random(width) < 0.2, filler, row)
        if r % 3 == 0:
            row[:2 + r % 5] = filler[:2 + r % 5]
        ids[r] = row
    return owners, ids, base


def orthogonal_prune_panel():
    """(owners, -1 padded candidate rows sorted by d2, their d2, float64
    base) whose kept counts differ widely within every block of three or
    more rows. Rows cycle through four kinds: candidates on the axes
    around the owner, which keep all of them; candidates on one line from
    the owner, which keep only the nearest; only padding and the owner,
    which keep nothing; and Gaussian candidates."""
    rng = np.random.default_rng(5)
    dim, width = 8, 16
    points, rows = [], []

    def add(vecs):
        points.extend(vecs)
        return list(range(len(points) - len(vecs), len(points)))

    for r in range(40):
        (owner,) = add([rng.standard_normal(dim)])
        centre = points[owner]
        kind = r % 4
        if kind == 0:
            axes = np.concatenate((np.eye(dim), -np.eye(dim)))
            row = add(list(centre + axes * (1 + 0.01 * np.arange(2 * dim))[:, None]))
        elif kind == 1:
            row = add([centre + t * np.eye(dim)[0] for t in range(1, width + 1)])
        elif kind == 2:
            row = [owner] if r % 8 == 2 else []
        else:
            row = add(list(centre + rng.standard_normal((width, dim))))
            row[3] = owner
        rows.append((owner, row))
    base = np.array(points)
    ids = np.full((len(rows), 2 * dim), -1)
    d2s = np.full(ids.shape, np.inf)
    for r, (owner, row) in enumerate(rows):
        row = np.array(row, dtype=np.int64)
        dd = ((base[row] - base[owner]) ** 2).sum(axis=1)
        order = np.lexsort((row, dd))
        ids[r, :len(row)], d2s[r, :len(row)] = row[order], dd[order]
    return np.array([owner for owner, _ in rows]), ids, d2s, base


def prune_blocks_before(owners, ids, d2, base, K1):
    """``mrng_prune`` as it was when every candidate was measured against
    every earlier candidate of its row, kept or not."""
    kept = np.zeros(ids.shape, dtype=bool)
    width = ids.shape[1]
    cap = width if K1 is None else K1
    rows = max(1, (1 << 19) // max(1, 8 * width * base.shape[1]))
    for lo in range(0, len(ids), rows):
        block, dists, kept_block = ids[lo:lo + rows], d2[lo:lo + rows], kept[lo:lo + rows]
        vecs = base[block]
        open_ = (block >= 0) & (block != owners[lo:lo + rows, None])
        keeps = np.zeros(len(block), dtype=np.int64)
        for j in range(width):
            take = open_[:, j] & (keeps < cap)
            if j:
                diff = vecs[:, :j] - vecs[:, j, None]
                near = dists[:, j, None] >= np.einsum("bjd,bjd->bj", diff, diff)
                take &= ~(kept_block[:, :j] & near).any(axis=1)
            kept_block[:, j] = take
            keeps += take
    return kept


def select_blocks_before(owners, ids, base, K2):
    """``ndg_select`` as it was when every row multiplied its whole
    (W + 1) x (W + 1) gram."""
    width = ids.shape[1]
    cap = width if K2 is None else K2
    kept = np.zeros(ids.shape, dtype=bool)
    rows = max(1, (1 << 19) // (8 * (width + 1) * (width + 1 + base.shape[1])))
    for lo in range(0, len(ids), rows):
        block, own = ids[lo:lo + rows], owners[lo:lo + rows, None]
        open_ = (block >= 0) & (block != own)
        vecs = base[np.concatenate((np.where(open_, block, own), own), axis=1)]
        self_dots, best_cross = _chunk_best_cross(vecs @ vecs.transpose(0, 2, 1), 0)
        take = open_ & ((self_dots >= best_cross)[:, :-1]
                        | (np.cumsum(open_, axis=1) == 1))
        kept[lo:lo + rows] = take & (np.cumsum(take, axis=1) <= cap)
    return kept


def rule_data(kind):
    if kind == "duplicates":
        pts = np.random.default_rng(9).standard_normal((150, 6)).astype(np.float32)
        pts[[20, 41, 97, 120]] = pts[5]
        pts[60:70] = pts[:10]
        pts[63] = 0.0
        return Dataset(pts)
    return generate_synthetic(SyntheticSpec(kind, n=150, dim=6, seed=9))


def random_edges(n, most, seed):
    """Directed rows of 0..most random other nodes."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        rows.append(rng.choice(others, size=rng.integers(0, most + 1), replace=False))
    return CsrEdges.from_rows(rows)


class TestBlockRulesMatchPerRow:
    @pytest.mark.parametrize("K1", [None, 1, 4, 40])
    @pytest.mark.parametrize("slice_rows", [1, 2, 7, None])
    def test_mrng_prune(self, K1, slice_rows, monkeypatch):
        owners, ids, d2, base, lengths = prune_panel()
        if slice_rows is not None:
            monkeypatch.setattr(construction, "_PRUNE_BYTES",
                                slice_rows * 8 * ids.shape[1] * base.shape[1])
        # K1 = None is the row width: no cap
        kept = mrng_prune(owners, ids, d2, base, ids.shape[1] if K1 is None else K1)
        assert not kept[ids < 0].any()
        for node, row, dd, keep, length in zip(owners, ids, d2, kept, lengths):
            expected = prune_reference(node, row[:length], dd[:length], base, K1)
            assert row[keep].tolist() == expected

    @pytest.mark.parametrize("K2", [None, 0, 1, 3])
    @pytest.mark.parametrize("slice_rows", [1, 2, 7, None])
    def test_ndg_select(self, K2, slice_rows, monkeypatch):
        owners, ids, base, lengths = select_panel()
        width = ids.shape[1]
        if slice_rows is not None:
            monkeypatch.setattr(construction, "_PRUNE_BYTES",
                                slice_rows * 8 * (width + 1) * (width + 1 + base.shape[1]))
        kept = ndg_select(owners, ids, base, K2)
        assert not kept[ids < 0].any()
        assert not kept[ids == owners[:, None]].any()
        for node, row, keep, length in zip(owners, ids, kept, lengths):
            assert row[keep].tolist() == select_reference(node, row[:length], base, K2)

    @pytest.mark.parametrize("K2", [None, 0, 1, 2, 3, 20])
    @pytest.mark.parametrize("slice_rows", [1, 7, None])
    def test_ndg_select_two_passes(self, K2, slice_rows, monkeypatch):
        owners, ids, base = two_pass_select_panel()
        width = ids.shape[1]
        if slice_rows is not None:
            monkeypatch.setattr(construction, "_PRUNE_BYTES",
                                slice_rows * 8 * (width + 1) * (width + 1 + base.shape[1]))
        kept = ndg_select(owners, ids, base, K2)
        head = width if K2 is None else min(width, 2 * K2)
        late_fill = late_first = straddle = 0
        for node, row, keep in zip(owners, ids, kept):
            expected = select_reference(node, row[row >= 0], base, K2)
            assert row[keep].tolist() == expected
            cols = np.flatnonzero(keep)
            late_fill += bool(K2) and len(cols) == K2 and cols[-1] >= head
            open_cols = np.flatnonzero((row >= 0) & (row != node))
            late_first += len(open_cols) > 0 and open_cols[0] >= head
            # an exact tie <y,y> == <y,z> with y and z on either side of
            # the first pass
            cand = base[np.where(row >= 0, row, node)]
            gram = cand @ cand.T
            tie = gram == np.diag(gram)[:, None]
            np.fill_diagonal(tie, False)
            straddle += bool(tie[:head, head:].any() or tie[head:, :head].any())
        if K2 in (1, 2, 3):
            # the panel reaches the cases the second pass exists for
            assert late_fill and late_first and straddle

    @pytest.mark.parametrize("K1", [None, 1, 3, 16])
    @pytest.mark.parametrize("slice_rows", [1, 3, 7, None])
    def test_mrng_prune_kept_counts_differ(self, K1, slice_rows, monkeypatch):
        owners, ids, d2, base = orthogonal_prune_panel()
        if slice_rows is not None:
            monkeypatch.setattr(construction, "_PRUNE_BYTES",
                                slice_rows * 8 * ids.shape[1] * base.shape[1])
        cap = ids.shape[1] if K1 is None else K1
        kept = mrng_prune(owners, ids, d2, base, cap)
        counts = kept.sum(axis=1)
        for node, row, dd, keep in zip(owners, ids, d2, kept):
            length = int((row >= 0).sum())
            expected = prune_reference(node, row[:length], dd[:length], base, K1)
            assert row[keep].tolist() == expected
        # every four rows in a row hold one at the cap and one that keeps
        # nothing, so every block of three or more rows mixes them
        for lo in range(0, len(ids) - 3):
            assert counts[lo:lo + 4].max() == cap and counts[lo:lo + 4].min() == 0

    @pytest.mark.parametrize("kind", ["gaussian", "heavytail"])
    def test_perfbench_size_panel_matches_the_full_products(self, kind):
        # n = 1,200, d = 16 and the perfbench build (K = 32, K1 = 16,
        # K2 = 16, ls = 64): the block rules give the masks of the versions
        # that measured every pair, bit for bit
        ds = generate_synthetic(SyntheticSpec(kind, n=1200, dim=16, seed=3,
                                              sigma_log=0.5))
        base = ds.data.astype(np.float64)
        owners = np.arange(ds.n)
        knn = build_exact_knn(ds, 32)
        assert np.array_equal(mrng_prune(owners, knn.neighbors, knn.dists, base, 16),
                              prune_blocks_before(owners, knn.neighbors, knn.dists,
                                                  base, 16))
        pools = compute_ground_truth(ds, ds, 64, MetricKind.INNER_PRODUCT)
        assert np.array_equal(ndg_select(owners, pools, base, 16),
                              select_blocks_before(owners, pools, base, 16))

    @pytest.mark.parametrize("kind", ["gaussian", "heavytail", "duplicates"])
    def test_mirror_euclid(self, kind):
        ds = rule_data(kind)
        base = ds.data.astype(np.float64)
        edges = random_edges(ds.n, 8, seed=1)
        expected = []
        for i, merged in enumerate(merged_rows(edges)):
            diff = base[merged] - base[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((merged, d2))
            merged, d2 = merged[order], d2[order]
            expected.append(prune_reference(i, merged, d2, base, 4)
                            if len(merged) > 4 else merged.tolist())
        got = index_mod._mirror_euclid(edges.sources(), edges.ids, base, 4)
        assert [row.tolist() for row in got] == expected

    @pytest.mark.parametrize("kind", ["gaussian", "heavytail", "duplicates"])
    def test_mirror_ip(self, kind):
        ds = rule_data(kind)
        base = ds.data.astype(np.float64)
        edges = random_edges(ds.n, 6, seed=2)
        expected = [by_ip_reference(i, merged, base)[:4].tolist()
                    for i, merged in enumerate(merged_rows(edges))]
        src, dst, _ = construction._mirror_pairs(edges.sources(), edges.ids, base,
                                                 MetricKind.INNER_PRODUCT, 4)
        got = CsrEdges.from_pairs(src, dst, ds.n)
        assert [row.tolist() for row in got] == expected

    @pytest.mark.parametrize("kind", ["gaussian", "heavytail", "duplicates"])
    def test_build_exact_ndg(self, kind):
        ds = rule_data(kind)
        base = ds.data.astype(np.float64)
        self_dots, best_cross = best_cross_inner_product(base)
        weak = self_dots >= best_cross
        ids = np.arange(ds.n)
        rows = []
        for i in range(ds.n):
            order = by_ip_reference(i, ids[ids != i], base)
            rows.append(order[(np.arange(len(order)) == 0) | weak[order]])
        expected = [by_ip_reference(i, merged, base).tolist()
                    for i, merged in enumerate(merged_rows(CsrEdges.from_rows(rows)))]
        assert [row.tolist() for row in build_exact_ndg(ds)] == expected


class TestNdgSelect:
    def test_hand_example(self):
        # node a=(2,0); L(a) = [c (1.8), b (0)]; both accepted
        ds = Dataset.from_array([[2, 0], [0, 2], [0.9, 0.9]])
        assert select_row(0, np.array([2, 1]), f64(ds), None).tolist() == [2, 1]

    def test_single_candidate_accepted(self):
        ds = Dataset.from_array([[1, 0], [0, 1]])
        assert select_row(0, np.array([1]), f64(ds), None).tolist() == [1]

    def test_dominated_candidate_rejected(self):
        # y_k = 2 * y_j dominates y_j: <yj,yj> < <yj,yk>
        ds = Dataset.from_array([[0, 1], [1, 0], [2, 0]])
        # L(node 0): candidates sorted by <node,.>; force [2*yj, yj] order
        out = select_row(0, np.array([2, 1]), f64(ds), None)
        assert 1 not in out.tolist()
        assert out.tolist() == [2]

    def test_owner_dominates_candidate(self):
        # node o=(2,0) scans f=(0.9,-1) then w=(0.8,0.6); only the owner
        # dominates w: <w,w>=1 < <w,o>=1.6, while <w,f>=0.12
        ds = Dataset.from_array([[2, 0], [0.9, -1], [0.8, 0.6]])
        assert select_row(0, np.array([1, 2]), f64(ds), None).tolist() == [1]

    def test_truncates_to_k2(self, rng):
        ds = Dataset(rng.standard_normal((80, 6)).astype(np.float32))
        base = ds.data.astype(np.float64)
        ips = base @ base[0]
        others = np.array([i for i in range(80) if i != 0])
        order = others[np.lexsort((others, -ips[others]))]
        full = select_row(0, order, base, None)
        only3 = select_row(0, order, base, 3)
        assert len(only3) <= 3
        assert only3.tolist() == full[:3].tolist()

    def test_all_self_dominators_accept_everything(self, rng):
        # orthogonal-ish unit frame: every point is a self-dominator
        eye = np.eye(12, dtype=np.float32)
        ds = Dataset(eye)
        for node in range(12):
            others = np.array([i for i in range(12) if i != node])
            out = select_row(node, others, f64(ds), None)
            assert sorted(out.tolist()) == others.tolist()

    def test_matches_bruteforce_reimplementation(self, rng):
        # independent re-implementation: first candidate, then candidates
        # not strictly dominated within candidates + owner
        for trial in range(5):
            local = np.random.default_rng(100 + trial)
            ds = Dataset(local.standard_normal((60, 5)).astype(np.float32))
            base = ds.data.astype(np.float64)
            node = int(local.integers(60))
            others = np.array([i for i in range(60) if i != node])
            ips = base @ base[node]
            order = others[np.lexsort((others, -ips[others]))]
            got = select_row(node, order, base, None).tolist()
            expected = [int(order[0])]
            group = np.concatenate((order, [node]))
            for y in order[1:]:
                rivals = group[group != y]
                if base[y] @ base[y] >= (base[rivals] @ base[y]).max():
                    expected.append(int(y))
            assert got == expected


class TestExactNdg:
    def test_three_point_structure(self):
        ds = Dataset.from_array([[2, 0], [0, 2], [0.9, 0.9]])
        ndg = build_exact_ndg(ds)
        assert count_strong_components(ndg) == 1
        # every node ends up linked to both self-dominators {0, 1}
        for i, row in enumerate(ndg):
            expected = {0, 1} - {i}
            assert expected <= set(row.tolist())

    def test_accepted_lists_sorted_by_ip(self, small_gaussian):
        ndg = build_exact_ndg(small_gaussian)
        base = small_gaussian.data.astype(np.float64)
        for i in (0, 50, 150):
            row = ndg[i]
            ips = base[row] @ base[i]
            keys = list(zip(-ips, row))
            assert keys == sorted(keys)

    def test_dominator_structure(self, small_gaussian):
        census = set(self_dominator_set(small_gaussian).tolist())
        ds = small_gaussian
        base = ds.data.astype(np.float64)
        ids = np.arange(ds.n)
        for i in range(0, ds.n, 13):
            ips = base @ base[i]
            others = ids[ids != i]
            order = others[np.lexsort((others, -ips[others]))]
            accepted = select_row(i, order, base, None)
            for j in accepted[1:]:
                assert int(j) in census

    def test_gate(self, rng):
        with pytest.raises(UsageError):
            build_exact_ndg(Dataset(np.zeros((1, 2), dtype=np.float32)))


def random_pairs(seed, n=30):
    """Random pairs with repeats, with reverse copies and with self-loops,
    over n nodes."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, 300), rng.integers(0, n, 300)
    src = np.concatenate((src, src[:40], dst[40:80], np.arange(0, n, 3)))
    dst = np.concatenate((dst, dst[:40], src[40:80], np.arange(0, n, 3)))
    return src, dst


def tie_base(n, seed):
    """n points with coordinates in {-1, 0, 1} and repeated points, so that
    both keys tie for many pairs of one source."""
    base = np.random.default_rng(seed).integers(-1, 2, (n, 3)).astype(np.float64)
    base[n // 2:] = base[:n - n // 2]
    return base


def mirror_reference(src, dst, base, metric, cap):
    """The two-step rule: sort and dedupe the codes of the pairs and their
    reverses without self-loops, then order by (source, key, target) and
    keep the first cap per source."""
    n = len(base)
    keep = src != dst
    codes = np.unique(np.concatenate((src[keep] * n + dst[keep],
                                      dst[keep] * n + src[keep])))
    src, dst = codes // n, codes % n
    key = construction._pair_keys(metric, base, src, dst)
    order = np.lexsort((dst, key, src))
    if cap is not None:
        order = np.concatenate([np.empty(0, dtype=np.int64)]
                               + [order[src[order] == i][:cap] for i in range(n)])
    return src[order], dst[order], key[order]


class TestMergeReverse:
    """``_mirror_pairs`` merges every pair with its reverse and ranks each
    source's pairs best first, ties by target."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unique(self, seed):
        n = 30
        src, dst = random_pairs(seed, n)
        keep = src != dst
        codes = np.unique(np.concatenate((src[keep] * n + dst[keep],
                                          dst[keep] * n + src[keep])))
        got_src, got_dst, _ = construction._mirror_pairs(
            src, dst, tie_base(n, seed), MetricKind.EUCLIDEAN)
        assert np.array_equal(np.sort(got_src * n + got_dst), codes)

    @pytest.mark.parametrize("pairs", [[], [(3, 3), (0, 0)]])
    def test_no_edges(self, pairs):
        src, dst = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
        for metric in MetricKind:
            got = construction._mirror_pairs(src, dst, tie_base(5, 0), metric, 2)
            assert [part.tolist() for part in got] == [[], [], []]

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("cap", [None, 1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_step_rule(self, seed, cap, metric):
        n = 30
        src, dst = random_pairs(seed, n)
        base = tie_base(n, seed)
        expected = mirror_reference(src, dst, base, metric, cap)
        # the panel has key ties within a source, which break by target
        every, _, key = mirror_reference(src, dst, base, metric, None)
        assert ((np.diff(every) == 0) & (np.diff(key) == 0)).any()
        for ids in (np.int32, np.int64):
            got = construction._mirror_pairs(src.astype(ids), dst.astype(ids),
                                             base, metric, cap)
            for part, want in zip(got, expected):
                assert np.array_equal(part, want)


class TestStrongComponents:
    def test_cycle_vs_chain(self):
        cycle = [np.array([1], np.int32), np.array([2], np.int32),
                 np.array([0], np.int32)]
        chain = [np.array([1], np.int32), np.array([2], np.int32),
                 np.array([], np.int32)]
        assert count_strong_components(CsrEdges.from_rows(cycle)) == 1
        assert count_strong_components(CsrEdges.from_rows(chain)) == 3
