"""Data-topology indicators and analytic dominator estimators.

These quantities drive index tuning: the coefficient of variation of the
norm distribution (high CV favors inner-product-oriented settings), the
Davies-Bouldin index under Euclidean and cosine distance (low DBI means
strong clustering, favoring Euclidean-oriented settings), and a census of
self-dominators — points x with <x,x> strictly greater than <x,y> for
every other y, which are exact search answers for queries in their own
inner-product Voronoi cell. The exact O(n^2) scans live here too, with the
brute-force check of the scaling duality that runs on them.

Both metrics share one clustering code path. On unit vectors
|a - b|^2 = 2 - 2 cos(a, b), so cosine k-means is Euclidean Lloyd on the
normalized rows with each centroid projected back onto the sphere, and
the cosine DBI's distance 1 - cos(a, b) is |a - b|^2 / 2 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .metrics import Dataset, MetricKind

CV_IP_THRESHOLD = 0.1   # norm spread at or above this favors IP-oriented tuning
DBI_CLUSTERED_THRESHOLD = 2.0  # DBI at or below this favors Euclidean-oriented tuning
DEFAULT_DBI_CLUSTERS = 16
KMEANS_MAX_ITER = 100  # Lloyd iterations before kmeans stops short of convergence
_GRAM_BYTES = 1 << 20  # float64 gram rows that an exact O(n^2) scan holds at once
_GRAM_MIN_ROWS = 32  # rows of the thinnest gemm call that pays for its set-up


@dataclass
class Clustering:
    assignment: np.ndarray  # (n,) int32 cluster ids
    centroids: np.ndarray   # (n_clusters, dim) float64

    def validate(self) -> None:
        nclus = len(self.centroids)
        if self.assignment.min() < 0 or self.assignment.max() >= nclus:
            raise UsageError("cluster assignment ids out of range")
        counts = np.bincount(self.assignment, minlength=nclus)
        if (counts == 0).any():
            raise UsageError("clustering has an empty cluster")


@dataclass
class StatsReport:
    cv: float
    dbi_euclidean: float
    dbi_cosine: float
    self_dominator_fraction: float
    n_clusters: int


def coefficient_of_variation(dataset: Dataset) -> float:
    """Population std of vector norms divided by the mean norm."""
    if dataset.n < 2:
        raise UsageError("CV needs at least 2 vectors")
    norms = np.linalg.norm(dataset.data.astype(np.float64), axis=1)
    mean = norms.mean()
    if mean == 0.0:
        raise UsageError("CV undefined: all vectors have zero norm")
    return float(norms.std() / mean)  # np.std is the population std


def _normalize_rows(data: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(data, axis=1, keepdims=True)
    if (norms == 0).any():
        raise UsageError("cosine mode rejects zero vectors")
    return data / norms


def _check_cluster_metric(metric: str) -> None:
    if metric not in ("euclidean", "cosine"):
        raise UsageError(f"clustering metric must be 'euclidean' or 'cosine', got {metric!r}")


def kmeans(dataset: Dataset, n_clusters: int, metric: str = "euclidean",
           seed: int = 0) -> Clustering:
    """Lloyd's iteration with k-means++ seeding, deterministic given seed.

    Cosine mode clusters direction (spherical k-means): the same iteration
    on the norm-normalized points, each updated centroid projected back
    onto the unit sphere.
    """
    _check_cluster_metric(metric)
    if not 1 <= n_clusters <= dataset.n:
        raise UsageError(f"n_clusters={n_clusters} out of range [1, {dataset.n}]")
    pts = dataset.data.astype(np.float64)
    if metric == "cosine":
        pts = _normalize_rows(pts)
    n_distinct = np.unique(pts, axis=0).shape[0]
    if n_clusters > n_distinct:
        raise UsageError(f"n_clusters={n_clusters} exceeds {n_distinct} distinct points "
                         "(degenerate clustering)")

    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)

    def dist_to(center: np.ndarray) -> np.ndarray:
        diff = pts - center
        return np.einsum("ij,ij->i", diff, diff)

    # k-means++ seeding
    centroids = np.empty((n_clusters, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    closest = dist_to(centroids[0])
    for c in range(1, n_clusters):
        weights = np.maximum(closest, 0.0)
        total = weights.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids[c] = pts[idx]
        closest = np.minimum(closest, dist_to(centroids[c]))

    assignment = np.zeros(n, dtype=np.int32)
    for _ in range(KMEANS_MAX_ITER):
        d2 = (sq[:, None] - 2.0 * pts @ centroids.T
              + np.einsum("ij,ij->i", centroids, centroids)[None, :])
        new_assignment = np.argmin(d2, axis=1).astype(np.int32)

        # keep every cluster non-empty: steal the point worst-served by its
        # current centroid (deterministic: max distance, ties by lower id)
        for c in range(n_clusters):
            if (new_assignment == c).any():
                continue
            gap = dist_to(centroids[c])
            counts = np.bincount(new_assignment, minlength=n_clusters)
            movable = counts[new_assignment] > 1
            gap[~movable] = -np.inf
            new_assignment[int(np.argmax(gap))] = c

        converged = (new_assignment == assignment).all()
        assignment = new_assignment
        for c in range(n_clusters):
            centroids[c] = pts[assignment == c].mean(axis=0)
            if metric == "cosine":
                norm = np.linalg.norm(centroids[c])
                if norm > 0:  # a zero mean has no direction to project onto
                    centroids[c] /= norm
        if converged:
            break

    out = Clustering(assignment=assignment, centroids=centroids.copy())
    out.validate()
    return out


def davies_bouldin(dataset: Dataset, clustering: Clustering,
                   metric: str = "euclidean") -> float:
    """DBI = (1/N) sum_i max_{j != i} (sigma_i + sigma_j) / d(c_i, c_j).

    sigma_i is the mean distance of cluster-i members to their centroid.
    Cosine mode uses distance 1 - cosine similarity, which on the
    normalized points and centroids is half their squared distance.
    """
    _check_cluster_metric(metric)
    nclus = len(clustering.centroids)
    if nclus < 2:
        raise UsageError("DBI needs at least 2 clusters")
    pts = dataset.data.astype(np.float64)
    cents = clustering.centroids
    if metric == "cosine":
        pts, cents = _normalize_rows(pts), _normalize_rows(cents)

        def dist(diff: np.ndarray) -> np.ndarray:
            return 0.5 * np.einsum("...k,...k->...", diff, diff)
    else:
        def dist(diff: np.ndarray) -> np.ndarray:
            return np.sqrt(np.einsum("...k,...k->...", diff, diff))

    sigma = np.array([np.mean(dist(pts[clustering.assignment == c] - cents[c]))
                      for c in range(nclus)])
    sep = dist(cents[:, None, :] - cents[None, :, :])
    off_diag = ~np.eye(nclus, dtype=bool)
    if (np.abs(sep[off_diag]) < 1e-300).any():
        raise ZeroDivisionError("coincident centroids make DBI undefined")

    ratios = (sigma[:, None] + sigma[None, :]) / np.where(off_diag, sep, np.inf)
    return float(np.mean(ratios.max(axis=1)))


def _gram_rows(n: int) -> int:
    """Rows of one block of every exact scan over n vectors: _GRAM_BYTES of
    gram rows, or _GRAM_MIN_ROWS where those are more (at n = 64,000
    two-row blocks made stage 2 1.7x slower with one BLAS thread, 2.5x with
    two). A pure function of n, so that every gemm call has the same shape
    whatever the caller or the worker count: BLAS may round a row
    differently depending on how many rows share the call."""
    return max(_GRAM_MIN_ROWS, _GRAM_BYTES // (8 * n))


def _row_blocks(rows: int, step: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of blocks of step rows over rows. A lone last row
    joins the block before it: a one-row product runs as a gemv, which
    rounds differently from the same row in a gemm of two or more rows."""
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def best_cross_inner_product(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: <x_i, x_i> and max over j != i of <x_i, x_j> (-inf for one row).

    Both come from the same gram blocks (``_census_blocks``), so a self dot
    carries the rounding of the cross products it is compared with. The
    self-dominator census rests on this comparison, and dominator selection
    makes it on stacked grams through ``_chunk_best_cross``.
    """
    blocks = [(dots, cross) for _, dots, cross, _ in _census_blocks(vecs)]
    self_dots, best_cross = map(np.concatenate, zip(*blocks))
    return self_dots, best_cross


def _census_blocks(vecs: np.ndarray):
    """Per block of ``_gram_rows`` rows (``_row_blocks``) of the float64
    gram of vecs: the block's first row, its self dots and best cross
    products, and its gram rows with -inf on the diagonal."""
    for start, stop in _row_blocks(len(vecs), _gram_rows(len(vecs))):
        gram = vecs[start:stop] @ vecs.T
        yield start, *_chunk_best_cross(gram, start), gram


def _exact_key_blocks(base: np.ndarray, qs: np.ndarray, metric: MetricKind):
    """Per block of the float64 queries qs, its first row and the keys that
    rank ``base`` best-first ascending for each, as ``brute_force_topk``
    computes them: -<x, q> from one gemm, or |x - q|^2 in difference form,
    which holds dim values per pair, so its blocks have dim times fewer
    rows than a gram block."""
    n, dim = base.shape
    step = _gram_rows(n) if metric.larger_is_better else max(1, _gram_rows(n) // dim)
    for lo, hi in _row_blocks(len(qs), step):
        if metric.larger_is_better:
            yield lo, -(qs[lo:hi] @ base.T)
        else:
            diff = base - qs[lo:hi, None]
            yield lo, np.einsum("bij,bij->bi", diff, diff)


@dataclass
class DualityReport:
    """Agreement between plain MIPS and Euclidean search on the scaled query."""

    nn_agreement: float          # brute-force: NN of mu*q equals the MIPS argmax
    n_tied: int = 0              # queries excluded for a tied MIPS top-1


def verify_scaling_duality(dataset: Dataset, queries: Dataset) -> DualityReport:
    """Check that scaling a query by a large mu turns MIPS into Euclidean NNS.

    mu is 1e6 * (max vector norm / query norm) per query. One pass
    per block of queries takes the scaled queries' nearest neighbours in
    difference form, and the MIPS argmax and whether its score is tied
    from one inner-product gram.
    """
    base64 = dataset.data.astype(np.float64)
    qs = queries.data.astype(np.float64)
    norms = np.sqrt(np.vecdot(qs, qs))[:, None]  # the bits of np.linalg.norm
    if (norms == 0).any():
        raise UsageError("zero query vector has no scaling direction")
    scale = 1e6 * dataset.max_norm / norms

    agree = tied = 0
    for lo, d2 in _exact_key_blocks(base64, scale * qs, MetricKind.EUCLIDEAN):
        ips = qs[lo:lo + len(d2)] @ base64.T
        tie = (ips == ips.max(axis=1, keepdims=True)).sum(axis=1) > 1
        agree += int((~tie & (ips.argmax(axis=1) == d2.argmin(axis=1))).sum())
        tied += int(tie.sum())

    considered = queries.n - tied
    return DualityReport(nn_agreement=agree / considered if considered else 1.0,
                         n_tied=tied)


def _chunk_best_cross(gram: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Self dots and best cross products of the gram rows from ``start``,
    of one gram or of a stack of them; leaves -inf on the diagonal, so the
    buffer stays reusable."""
    rows = gram.shape[-2]
    diag = (..., np.arange(rows), np.arange(start, start + rows))
    self_dots = gram[diag]
    gram[diag] = -np.inf
    return self_dots, gram.max(axis=-1)


def self_dominator_set(dataset: Dataset) -> np.ndarray:
    """Exact census: ids i with <x_i, x_i> > <x_i, x_j> for every j != i."""
    self_dots, best_cross = best_cross_inner_product(dataset.data.astype(np.float64))
    return np.flatnonzero(self_dots > best_cross).astype(np.int32)


def dominator_probability(r: float) -> float:
    """P(a norm-r point beats a standard Gaussian point on its own query) = Phi(r)."""
    if r < 0:
        raise UsageError(f"norm value must be >= 0, got {r}")
    return 0.5 * math.erfc(-r / math.sqrt(2.0))


def dominator_probability_mc(r: float, d: int = 32, n_samples: int = 20000,
                             seed: int = 0) -> float:
    """Monte-Carlo estimate of P(<x, y> < r^2) for ||x|| = r, y ~ N(0, I_d)."""
    if r < 0:
        raise UsageError(f"norm value must be >= 0, got {r}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    x = r * direction / np.linalg.norm(direction)
    ys = rng.standard_normal((n_samples, d))
    return float(np.mean(ys @ x < r * r))


def expected_self_dominators(n: int, d: int, r: float) -> float:
    """n * P(||x|| > r) for element-wise standard Gaussian vectors.

    The norm follows a Chi distribution, so the tail is the regularized
    upper incomplete gamma Q(d/2, r^2/2). scipy loads on the first call,
    as in ``construction.count_strong_components``.
    """
    from scipy.special import gammaincc

    if n < 1 or d < 1 or r < 0:
        raise UsageError(f"need n >= 1, d >= 1, r >= 0; got n={n}, d={d}, r={r}")
    return float(n * gammaincc(d / 2.0, r * r / 2.0))


def estimate_nn_angle(n: int, d: int, t: float) -> float:
    """Estimated angle (radians) between a point and its nearest neighbor.

    arccos(min((1/(t d)) (log n + (d/2) log 1/(1 - t^2)), 1)) for Gaussian
    i.i.d. data; t in (0, 1) tunes the tightness of the bound.
    """
    if not 0.0 < t < 1.0:
        raise UsageError(f"t must lie strictly in (0, 1), got {t}")
    if n < 2 or d < 1:
        raise UsageError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    arg = (math.log(n) + (d / 2.0) * math.log(1.0 / (1.0 - t * t))) / (t * d)
    arg = min(max(arg, -1.0), 1.0)
    return math.acos(arg)


def compute_stats(dataset: Dataset, n_clusters: int = DEFAULT_DBI_CLUSTERS,
                  seed: int = 0) -> StatsReport:
    """One-stop indicator report used by the stats CLI and the tuning guide."""
    cv = coefficient_of_variation(dataset)
    clus_e = kmeans(dataset, n_clusters, metric="euclidean", seed=seed)
    dbi_e = davies_bouldin(dataset, clus_e, metric="euclidean")
    clus_c = kmeans(dataset, n_clusters, metric="cosine", seed=seed)
    dbi_c = davies_bouldin(dataset, clus_c, metric="cosine")
    frac = len(self_dominator_set(dataset)) / dataset.n
    return StatsReport(cv=cv, dbi_euclidean=dbi_e, dbi_cosine=dbi_c,
                       self_dominator_fraction=frac, n_clusters=n_clusters)


def tuning_hint(report: StatsReport) -> str:
    """Turn indicator values into an alpha/m tuning suggestion."""
    parts = []
    if report.cv >= CV_IP_THRESHOLD:
        parts.append(f"cv={report.cv:.3f} >= {CV_IP_THRESHOLD}: wide norm spread, "
                     "favor IP-oriented tuning (raise alpha, lower m)")
    else:
        parts.append(f"cv={report.cv:.3f} < {CV_IP_THRESHOLD}: tight norm spread, "
                     "favor Euclidean-oriented tuning (lower alpha, raise m)")
    min_dbi = min(report.dbi_euclidean, report.dbi_cosine)
    if min_dbi <= DBI_CLUSTERED_THRESHOLD:
        parts.append(f"min dbi={min_dbi:.3f} <= {DBI_CLUSTERED_THRESHOLD}: strongly "
                     "clustered, favor Euclidean-oriented tuning (lower alpha, raise m)")
    else:
        parts.append(f"min dbi={min_dbi:.3f} > {DBI_CLUSTERED_THRESHOLD}: evenly spread, "
                     "favor IP-oriented tuning (raise alpha, lower m)")
    return "; ".join(parts)
