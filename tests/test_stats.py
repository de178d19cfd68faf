"""Indicator hand values, census correctness, and the analytic estimators."""

import math

import numpy as np
import pytest

from magsearch import Dataset, UsageError
from magsearch.bench import SyntheticSpec, generate_synthetic
from magsearch.construction import build_exact_knn
from magsearch.stats import (KMEANS_MAX_ITER, Clustering, StatsReport,
                             _chunk_best_cross, _gram_rows,
                             best_cross_inner_product,
                             coefficient_of_variation, compute_stats,
                             davies_bouldin, dominator_probability,
                             dominator_probability_mc, estimate_nn_angle,
                             expected_self_dominators, kmeans,
                             self_dominator_set, tuning_hint,
                             verify_scaling_duality)


def census_reference(dataset):
    """Independent double-loop census (the library uses a matrix product)."""
    out = []
    base = dataset.data.astype(np.float64)
    for i in range(dataset.n):
        keep = True
        for j in range(dataset.n):
            if j != i and base[i] @ base[i] <= base[i] @ base[j]:
                keep = False
                break
        if keep:
            out.append(i)
    return np.asarray(out, dtype=np.int32)


def spherical_kmeans_reference(dataset, n_clusters, seed):
    """Spherical k-means step by step in cosine terms: k-means++ seeding by
    1 - cos to the normalized center, assignment by argmax cos to the
    normalized centroids, each centroid the renormalized mean of its
    members, and an empty cluster taking the movable point of least cosine
    to its centroid. The library runs Euclidean Lloyd on the unit rows
    instead, where |p - c|^2 = 2 - 2 cos(p, c)."""
    pts = dataset.data.astype(np.float64)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    n = len(pts)

    def dist_to(center):
        return 1.0 - pts @ (center / np.linalg.norm(center))

    centroids = np.empty((n_clusters, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    closest = dist_to(centroids[0])
    for c in range(1, n_clusters):
        weights = np.maximum(closest, 0.0)
        total = weights.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=weights / total))
        centroids[c] = pts[idx]
        closest = np.minimum(closest, dist_to(centroids[c]))

    assignment = np.zeros(n, dtype=np.int32)
    for _ in range(KMEANS_MAX_ITER):
        cnorm = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
        new_assignment = np.argmax(pts @ cnorm.T, axis=1).astype(np.int32)
        for c in range(n_clusters):
            if (new_assignment == c).any():
                continue
            gap = dist_to(centroids[c])
            counts = np.bincount(new_assignment, minlength=n_clusters)
            gap[counts[new_assignment] <= 1] = -np.inf
            new_assignment[int(np.argmax(gap))] = c
        converged = (new_assignment == assignment).all()
        assignment = new_assignment
        for c in range(n_clusters):
            mean = pts[assignment == c].mean(axis=0)
            norm = np.linalg.norm(mean)
            centroids[c] = mean / norm if norm > 0 else mean
        if converged:
            break
    return assignment, centroids


def cosine_dbi_reference(dataset, clustering):
    """DBI with distance 1 - cos, computed from cosines."""
    pts = dataset.data.astype(np.float64)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    cents = clustering.centroids / np.linalg.norm(clustering.centroids, axis=1,
                                                  keepdims=True)
    sigma = np.array([np.mean(1.0 - pts[clustering.assignment == c] @ cents[c])
                      for c in range(len(clustering.centroids))])
    sep = 1.0 - cents @ cents.T
    np.fill_diagonal(sep, np.inf)
    return float(np.mean(((sigma[:, None] + sigma[None, :]) / sep).max(axis=1)))


class TestCV:
    def test_equal_norms_zero(self):
        ds = Dataset.from_array([[1, 0], [0, 1], [-1, 0]])
        assert coefficient_of_variation(ds) == 0.0

    def test_hand_value(self):
        # norms 1 and 3: population sigma = 1, mean = 2
        ds = Dataset.from_array([[1, 0], [3, 0]])
        assert coefficient_of_variation(ds) == pytest.approx(0.5, abs=1e-6)

    def test_scale_invariant(self, rng):
        ds = Dataset(rng.standard_normal((300, 12)).astype(np.float32))
        scaled = Dataset((ds.data * np.float32(3.7)).astype(np.float32))
        assert coefficient_of_variation(scaled) == pytest.approx(
            coefficient_of_variation(ds), rel=1e-5)

    def test_zero_dataset_rejected(self):
        ds = Dataset(np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(UsageError):
            coefficient_of_variation(ds)

    def test_single_vector_rejected(self):
        with pytest.raises(UsageError, match="at least 2 vectors"):
            coefficient_of_variation(Dataset.from_array([[1.0, 2.0]]))


class TestKmeans:
    def test_separated_blobs_pure(self, rng):
        centers = np.array([[0.0, 0.0], [50.0, 50.0]])
        labels = np.arange(200) % 2
        pts = centers[labels] + rng.standard_normal((200, 2))
        ds = Dataset(pts.astype(np.float32))
        clus = kmeans(ds, 2, seed=3)
        # 100% purity up to label swap
        a = clus.assignment[labels == 0]
        b = clus.assignment[labels == 1]
        assert len(set(a.tolist())) == 1 and len(set(b.tolist())) == 1
        assert a[0] != b[0]

    def test_single_cluster_centroid_is_mean(self, small_gaussian):
        clus = kmeans(small_gaussian, 1, seed=0)
        assert np.allclose(clus.centroids[0],
                           small_gaussian.data.astype(np.float64).mean(axis=0))

    def test_deterministic(self, small_gaussian):
        a = kmeans(small_gaussian, 8, seed=11)
        b = kmeans(small_gaussian, 8, seed=11)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("n_clusters,metric,match", [
        (0, "euclidean", r"n_clusters=0 out of range \[1, 200\]"),
        (201, "euclidean", r"n_clusters=201 out of range \[1, 200\]"),
        (2, "manhattan", "must be 'euclidean' or 'cosine'")])
    def test_bad_arguments_rejected(self, small_gaussian, n_clusters, metric, match):
        with pytest.raises(UsageError, match=match):
            kmeans(small_gaussian, n_clusters, metric=metric, seed=0)

    def test_degenerate_rejected(self):
        ds = Dataset(np.ones((10, 3), dtype=np.float32))
        with pytest.raises(UsageError):
            kmeans(ds, 2, seed=0)

    def test_cosine_rejects_zero_vectors(self):
        ds = Dataset.from_array([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(UsageError):
            kmeans(ds, 2, metric="cosine", seed=0)

    def test_cosine_centroids_unit_norm(self, small_gaussian):
        clus = kmeans(small_gaussian, 4, metric="cosine", seed=2)
        assert np.allclose(np.linalg.norm(clus.centroids, axis=1), 1.0)

    def test_empty_cluster_takes_the_worst_served_point(self):
        # a Lloyd step of this cosine case leaves cluster 0 empty, so it
        # takes the movable point farthest from its centroid; output pinned
        rng = np.random.default_rng(384)
        pts = rng.standard_normal((12, 2)) * rng.lognormal(0, 1, (12, 1))
        clus = kmeans(Dataset(pts.astype(np.float32)), 4, metric="cosine", seed=0)
        assert clus.assignment.tolist() == [2, 3, 2, 0, 1, 1, 2, 1, 3, 2, 3, 0]
        assert clus.centroids.tolist() == [
            [0.018267309450059097, 0.9998331387813948],
            [0.8684053795452434, 0.4958549150476193],
            [-0.6931621758053018, -0.7207816576695468],
            [0.41977915305537916, -0.9076262791810893]]


# (kind, sigma_log) of the panels on which cosine k-means must equal the
# cosine-terms reference
SPHERE_PANELS = [("gaussian", 0.5), ("heavytail", 0.5), ("heavytail", 1.0),
                 ("blobs", 0.5)]


@pytest.mark.parametrize("kind,sigma_log", SPHERE_PANELS,
                         ids=[f"{k}-{s}" for k, s in SPHERE_PANELS])
@pytest.mark.parametrize("dim", [8, 16, 64])
@pytest.mark.parametrize("n_clusters", [4, 16])
def test_cosine_kmeans_is_euclidean_lloyd_on_unit_rows(kind, sigma_log, dim, n_clusters):
    ds = generate_synthetic(SyntheticSpec(kind, n=400, dim=dim, seed=dim + n_clusters,
                                          sigma_log=sigma_log))
    clus = kmeans(ds, n_clusters, metric="cosine", seed=n_clusters)
    assignment, centroids = spherical_kmeans_reference(ds, n_clusters, seed=n_clusters)
    assert np.array_equal(clus.assignment, assignment)
    assert np.array_equal(clus.centroids, centroids)
    assert davies_bouldin(ds, clus, metric="cosine") == pytest.approx(
        cosine_dbi_reference(ds, clus), rel=1e-12, abs=0)


class TestDaviesBouldin:
    def _two_pair_clustering(self):
        ds = Dataset.from_array([[0, 0], [0, 1], [10, 0], [10, 1]])
        clus = kmeans(ds, 2, seed=0)
        return ds, clus

    def test_hand_value(self):
        ds, clus = self._two_pair_clustering()
        # sigma = 0.5 each, centroid distance 10 -> DBI = 0.1
        assert davies_bouldin(ds, clus) == pytest.approx(0.1, abs=1e-6)

    def test_moving_clusters_apart_decreases(self):
        near = Dataset.from_array([[0, 0], [0, 1], [5, 0], [5, 1]])
        far = Dataset.from_array([[0, 0], [0, 1], [50, 0], [50, 1]])
        dbi_near = davies_bouldin(near, kmeans(near, 2, seed=0))
        dbi_far = davies_bouldin(far, kmeans(far, 2, seed=0))
        assert dbi_far < dbi_near

    def test_singleton_clusters_zero(self):
        ds = Dataset.from_array([[0, 0], [9, 9]])
        clus = kmeans(ds, 2, seed=0)
        assert davies_bouldin(ds, clus) == 0.0

    def test_euclidean_scale_invariant(self, rng):
        pts = rng.standard_normal((240, 6)).astype(np.float32)
        ds = Dataset(pts)
        clus = kmeans(ds, 6, seed=5)
        dbi = davies_bouldin(ds, clus)
        scaled = Dataset((pts * np.float32(2.5)).astype(np.float32))
        clus_scaled = kmeans(scaled, 6, seed=5)
        assert davies_bouldin(scaled, clus_scaled) == pytest.approx(dbi, rel=1e-5)

    @pytest.mark.parametrize("bad,match", [
        ("empty-cluster", "empty cluster"),
        ("id-out-of-range", "ids out of range"),
        ("short-assignment", "does not fit 20 vectors of dim 4"),
        ("centroid-dim", "does not fit 20 vectors of dim 4")])
    def test_clustering_must_fit_the_data(self, bad, match):
        # each used to give a NaN DBI, a wrong one or a numpy error
        ds = Dataset(np.random.default_rng(5).standard_normal((20, 4))
                     .astype(np.float32))
        clus = kmeans(ds, 4, seed=5)
        assignment, centroids = clus.assignment.copy(), clus.centroids
        if bad == "empty-cluster":
            assignment[assignment == 3] = 2
        elif bad == "id-out-of-range":
            # one point of the largest cluster, so that no cluster empties
            assignment[np.argmax(np.bincount(assignment)[assignment])] = 4
        elif bad == "short-assignment":
            assignment = assignment[:-1]
        else:
            centroids = centroids[:, :3]
        for metric in ("euclidean", "cosine"):
            with pytest.raises(UsageError, match=match):
                davies_bouldin(ds, Clustering(assignment, centroids), metric=metric)

    def test_bad_arguments_rejected(self, small_gaussian):
        with pytest.raises(UsageError, match="must be 'euclidean' or 'cosine'"):
            davies_bouldin(small_gaussian, kmeans(small_gaussian, 2, seed=0),
                           metric="manhattan")
        with pytest.raises(UsageError, match="at least 2 clusters"):
            davies_bouldin(small_gaussian, kmeans(small_gaussian, 1, seed=0))

    def test_coincident_centroids_rejected(self):
        ds = Dataset.from_array([[0, 0], [1, 1], [0, 0], [1, 1]])
        clus = Clustering(assignment=np.array([0, 0, 1, 1], dtype=np.int32),
                          centroids=np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ZeroDivisionError):
            davies_bouldin(ds, clus)


class TestSelfDominators:
    def test_hand_example(self):
        # c=(0.9,0.9) is dominated by a=(2,0): <c,c>=1.62 < <c,a>=1.8
        ds = Dataset.from_array([[2, 0], [0, 2], [0.9, 0.9]])
        assert self_dominator_set(ds).tolist() == [0, 1]

    def test_singleton(self):
        ds = Dataset.from_array([[0.1, 0.2]])
        assert self_dominator_set(ds).tolist() == [0]

    def test_duplicates_empty(self):
        ds = Dataset.from_array([[1, 2], [1, 2], [1, 2]])
        assert self_dominator_set(ds).tolist() == []

    def test_agrees_with_double_loop(self, rng):
        # 1,100 rows span ten gram blocks of _gram_rows(1100) = 119 rows
        for n in (50, 300, 1100):
            ds = Dataset(rng.standard_normal((n, 6)).astype(np.float32))
            assert np.array_equal(self_dominator_set(ds), census_reference(ds))

    def test_duplicates_across_chunk_boundary(self, rng):
        # two copies of one long vector, on either side of a gram block
        # boundary, tie with each other, so neither is a strict
        # self-dominator; a single copy is one
        pts = rng.standard_normal((1100, 6)).astype(np.float32)
        long = 3 * pts[int(np.argmax(np.einsum("ij,ij->i", pts, pts)))]
        edge = _gram_rows(1100)  # the first block boundary
        for a, b in ((500, 700), (edge - 1, edge), (3, 1090)):
            single = pts.copy()
            single[a] = long
            assert a in self_dominator_set(Dataset(single))
            dup = single.copy()
            dup[b] = long
            census = self_dominator_set(Dataset(dup))
            assert a not in census and b not in census
            assert np.array_equal(census, census_reference(Dataset(dup)))

    @pytest.mark.parametrize("start", [0, 3])
    def test_stacked_grams_match_per_gram(self, start):
        # integer entries, so rows hold equal cross products
        grams = np.random.default_rng(6).integers(-3, 4, size=(5, 4, 9)).astype(float)
        self_dots, best_cross = _chunk_best_cross(grams.copy(), start)
        for gram, dots, best in zip(grams, self_dots, best_cross):
            expected = _chunk_best_cross(gram.copy(), start)
            assert np.array_equal(dots, expected[0])
            assert np.array_equal(best, expected[1])

    def test_exact_knn_census(self, rng):
        # the exact K-NN pass takes the census from its own gram blocks:
        # 1,100 rows span ten, and two tied pairs of long rows sit on
        # either side of a block boundary and in the first and last block
        pts = rng.standard_normal((1100, 6)).astype(np.float32)
        long = 3 * pts[int(np.argmax(np.einsum("ij,ij->i", pts, pts)))]
        edge = _gram_rows(1100)  # the first block boundary
        pts[edge - 1], pts[3] = long, -long
        single = build_exact_knn(Dataset(pts), 8).self_dominator
        assert single.dtype == bool and single[[3, edge - 1]].all()
        pts[edge], pts[1090] = long, -long
        ds = Dataset(pts)
        flags = build_exact_knn(ds, 8).self_dominator
        assert not flags[[3, edge - 1, edge, 1090]].any()
        assert np.array_equal(np.flatnonzero(flags), census_reference(ds))

    def test_lone_last_row_is_a_gemm_row(self):
        # 1,200 rows leave one over eleven blocks of _gram_rows(1200) = 109.
        # Alone, that row's product would run as a gemv, which rounds
        # differently from a gemm; it joins the block before it, so its
        # best cross product and K-NN distances carry the bits of the same
        # row in a 200-row block
        ds = generate_synthetic(SyntheticSpec("gaussian", n=1200, dim=16, seed=1))
        base = ds.data.astype(np.float64)
        assert ds.n % _gram_rows(ds.n) == 1
        gram = (base[-200:] @ base.T)[-1]
        self_dot, gram[-1] = gram[-1], -np.inf
        dots, cross = best_cross_inner_product(base)
        assert dots[-1] == self_dot and cross[-1] == gram.max()
        sq = np.einsum("ij,ij->i", base, base)
        d2 = np.maximum(gram * -2.0 + sq[-1] + sq, 0.0)
        knn = build_exact_knn(ds, 32)
        assert knn.neighbors[-1].tolist() == np.argsort(d2, kind="stable")[:32].tolist()
        assert np.array_equal(knn.dists[-1], d2[knn.neighbors[-1]])

    def test_monotone_under_growth(self, rng):
        # adding points can only remove dominators among the existing ones,
        # so the census restricted to a prefix shrinks as the dataset grows,
        # and on this nested random family the fraction is non-increasing
        pts = rng.standard_normal((400, 8)).astype(np.float32)
        sizes = (50, 100, 200, 400)
        censuses = [set(self_dominator_set(Dataset(pts[:n].copy())).tolist())
                    for n in sizes]
        for smaller, larger, n_small in zip(censuses, censuses[1:], sizes):
            assert {i for i in larger if i < n_small} <= smaller
        fractions = [len(c) / n for c, n in zip(censuses, sizes)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))


class TestEstimators:
    def test_phi_values(self):
        assert dominator_probability(0.0) == pytest.approx(0.5, abs=1e-12)
        assert dominator_probability(4.0) >= 0.9999
        assert dominator_probability(1.0) == pytest.approx(0.8413447, abs=1e-6)

    def test_phi_rejects_negative(self):
        with pytest.raises(UsageError):
            dominator_probability(-1.0)
        with pytest.raises(UsageError):
            dominator_probability_mc(-1.0)

    def test_monte_carlo_matches_phi(self):
        for j, r in enumerate((0.5, 1.0, 2.0, 3.0)):
            est = dominator_probability_mc(r, d=32, n_samples=20000, seed=60 + j)
            assert est == pytest.approx(dominator_probability(r), abs=0.03)

    def test_expected_dominators_full_tail(self):
        assert expected_self_dominators(500, 7, 0.0) == pytest.approx(500.0)

    def test_expected_dominators_halving_point(self):
        # d=2: tail Q(1, r^2/2) = exp(-r^2/2); at r = sqrt(2 ln 2) this is 1/2
        r = math.sqrt(2 * math.log(2))
        assert expected_self_dominators(1000, 2, r) == pytest.approx(500.0, rel=1e-9)

    def test_expected_dominators_vanishes(self):
        assert expected_self_dominators(1000, 8, 100.0) < 1e-6

    def test_nn_angle_clamps_to_zero(self):
        # argument exceeds 1 -> arccos(1) = 0
        assert estimate_nn_angle(100, 10, 0.5) == 0.0

    def test_nn_angle_hand_value(self):
        # d=100, t=0.5: (log 100 + 50 log(4/3)) / 50 = 0.379786...
        assert estimate_nn_angle(100, 100, 0.5) == pytest.approx(1.1813, abs=2e-4)

    def test_nn_angle_vanishes_with_n(self):
        assert estimate_nn_angle(10 ** 9, 40, 0.5) < estimate_nn_angle(100, 40, 0.5)
        assert estimate_nn_angle(10 ** 30, 16, 0.5) == 0.0

    @pytest.mark.parametrize("n,d,r", [(0, 2, 1.0), (10, 0, 1.0), (10, 2, -1.0)])
    def test_expected_dominators_domain(self, n, d, r):
        with pytest.raises(UsageError, match="need n >= 1, d >= 1, r >= 0"):
            expected_self_dominators(n, d, r)

    def test_zero_query_has_no_scaling_direction(self, small_gaussian):
        queries = Dataset(np.zeros((2, small_gaussian.dim), dtype=np.float32))
        with pytest.raises(UsageError, match="zero query vector"):
            verify_scaling_duality(small_gaussian, queries)

    def test_nn_angle_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(UsageError):
                estimate_nn_angle(100, 10, bad)
        for n, d in ((1, 10), (100, 0)):
            with pytest.raises(UsageError, match="need n >= 2 and d >= 1"):
                estimate_nn_angle(n, d, 0.5)


class TestReport:
    def test_compute_stats_fields(self, small_gaussian):
        report = compute_stats(small_gaussian, n_clusters=8, seed=1)
        assert report.cv >= 0
        assert report.dbi_euclidean >= 0 and report.dbi_cosine >= 0
        assert 0 <= report.self_dominator_fraction <= 1
        assert report.n_clusters == 8

    def test_tuning_hint_tight_and_even_clauses(self):
        report = StatsReport(cv=0.05, dbi_euclidean=3.5, dbi_cosine=2.5,
                             self_dominator_fraction=0.1, n_clusters=8)
        assert tuning_hint(report) == (
            "cv=0.050 < 0.1: tight norm spread, favor Euclidean-oriented tuning "
            "(lower alpha, raise m); min dbi=2.500 > 2.0: evenly spread, favor "
            "IP-oriented tuning (raise alpha, lower m)")

    def test_tuning_hint_mentions_thresholds(self, small_gaussian):
        report = compute_stats(small_gaussian, n_clusters=8, seed=1)
        hint = tuning_hint(report)
        assert "alpha" in hint and "m" in hint
