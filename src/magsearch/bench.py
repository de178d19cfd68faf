"""Synthetic data generation, recall/QPS measurement, sweeps, and the
invariant-verification suite.

Distance-computation counts are the primary cross-machine comparison
metric (deterministic); QPS is reported alongside, timed over the query
loop only and averaged over repetitions. All randomized paths take a seed
and produce bit-identical non-timing outputs regardless of worker count.
Ground truth is the (n_queries, k) int32 id array that
``io.compute_ground_truth`` returns and ``io.read_ivecs`` loads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .construction import build_exact_ndg, count_strong_components, ndg_select
from .errors import FormatError, UsageError
from .index import (MagIndex, build_mag, index_from_bytes, index_to_bytes,
                    materialize)
from .io import check_ground_truth, compute_ground_truth
from .metrics import Dataset, MetricKind
from .search import (SearchGraph, SearchParams, anms_search, greedy_search,
                     run_queries)
from .stats import (_exact_key_blocks, best_cross_inner_product,
                    dominator_probability, dominator_probability_mc,
                    verify_scaling_duality)

BENCH_CSV_HEADER = "ls,alpha,m,R,recall,qps,dist_comps,hops"
SCALE_CSV_HEADER = "n,ls,recall,dist_comps,flagged"
VERIFY_MC_SAMPLES = 20000      # Monte Carlo draws per dominator-probability check
VERIFY_MC_TOLERANCE = 0.03     # allowed |estimate - Phi(r)|
VERIFY_DUALITY_QUERIES = 50    # random queries for the scaling-duality check
GT_CHECK_QUERIES = 8           # leading ground-truth rows run_benchmark ranks exactly


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic synthetic dataset recipe.

    kinds: ``gaussian`` (element-wise standard normal), ``blobs``
    (separated clusters, low Euclidean DBI), ``heavytail`` (Gaussian
    directions scaled by log-normal radii, wide norm spread).
    """

    kind: str
    n: int
    dim: int
    seed: int = 0
    n_clusters: int = 8       # blobs
    center_scale: float = 10.0  # blobs
    spread: float = 1.0       # blobs
    sigma_log: float = 0.5    # heavytail

    def __post_init__(self):
        if self.kind not in ("gaussian", "blobs", "heavytail"):
            raise UsageError(f"unknown synthetic kind {self.kind!r}")
        if self.n < 1 or self.dim < 1:
            raise UsageError("need n >= 1 and dim >= 1")
        if self.n_clusters < 1:
            raise UsageError(f"need n_clusters >= 1, got {self.n_clusters}")
        if self.sigma_log < 0:
            raise UsageError(f"need sigma_log >= 0, got {self.sigma_log}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian":
        data = rng.standard_normal((spec.n, spec.dim))
    elif spec.kind == "blobs":
        centers = rng.standard_normal((spec.n_clusters, spec.dim)) * spec.center_scale
        labels = np.arange(spec.n) % spec.n_clusters
        data = centers[labels] + rng.standard_normal((spec.n, spec.dim)) * spec.spread
    else:  # heavytail
        dirs = rng.standard_normal((spec.n, spec.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.sqrt(spec.dim) * rng.lognormal(0.0, spec.sigma_log, spec.n)
        data = dirs * radii[:, None]
    return Dataset(np.ascontiguousarray(data, dtype=np.float32))


def recall_at_k(results: list[np.ndarray], gt: np.ndarray, k: int) -> float:
    """Mean over queries of |result ids within the first k true ids| / k;
    gt holds one row of true ids per query, best first."""
    if k > gt.shape[1]:
        raise UsageError(f"recall@{k} needs ground-truth rows of >= {k} ids, "
                         f"have {gt.shape[1]}")
    if len(results) != len(gt):
        raise UsageError(f"{len(results)} result rows vs {len(gt)} ground-truth rows")
    total = 0
    for res, row in zip(results, gt):
        total += len(np.intersect1d(np.asarray(res), row[:k]))
    return total / (k * len(results))


@dataclass
class BenchRecord:
    ls: int
    alpha: float
    m: int
    R: int
    recall: float
    qps: float
    dist_comps: float
    hops: float

    def csv_row(self) -> str:
        return (f"{self.ls},{self.alpha},{self.m},{self.R},{self.recall:.6f},"
                f"{self.qps:.2f},{self.dist_comps:.2f},{self.hops:.2f}")


def bench_one(graph: SearchGraph, dataset: Dataset, queries: Dataset,
              gt: np.ndarray, ls: int, k: int, m: int, seed: int,
              reps: int = 3) -> BenchRecord:
    """One measured point: recall/counters from the first rep, QPS from all reps."""
    if reps < 1:
        raise UsageError(f"reps must be >= 1, got {reps}")
    times = []
    results = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = run_queries(graph, dataset, queries, ls=ls, k=k, m=m, seed=seed)
        times.append(time.perf_counter() - t0)
        if results is None:
            results = out
    recall = recall_at_k([r.ids for r in results], gt, k)
    qps = queries.n / (sum(times) / len(times))
    return BenchRecord(
        ls=ls, alpha=graph.alpha, m=m, R=graph.adjacency.shape[1], recall=recall,
        qps=qps, dist_comps=float(np.mean([r.stats.dist_comps for r in results])),
        hops=float(np.mean([r.stats.hops for r in results])))


def run_benchmark(index: MagIndex, dataset: Dataset, queries: Dataset,
                  gt: np.ndarray, ls_list: list[int], R: int, alpha: float,
                  m: int = 0, k: int = 100, seed: int = 0,
                  reps: int = 3) -> list[BenchRecord]:
    """Recall/QPS sweep over pool sizes on one materialized graph. Ground
    truth carries no metric: a row of the first ``GT_CHECK_QUERIES`` with
    an id below its query's exact k-th inner product (k = the row length,
    keys as in ``io.compute_ground_truth``; ties pass) raises UsageError."""
    if queries.dim != dataset.dim:
        raise UsageError("query dimension does not match the dataset")
    if len(gt) != queries.n:
        raise UsageError("ground truth does not cover the query panel")
    check_ground_truth(gt, dataset.n)
    k_gt = gt.shape[1]
    for lo, keys in _exact_key_blocks(dataset.data.astype(np.float64),
                                      queries.data[:GT_CHECK_QUERIES].astype(np.float64),
                                      MetricKind.INNER_PRODUCT):
        kth = np.partition(keys, k_gt - 1, axis=1)[:, k_gt - 1, None]
        below = np.take_along_axis(keys, gt[lo:lo + len(keys)], axis=1) > kth
        if below.any():
            raise UsageError(f"ground truth row {lo + below.any(axis=1).argmax()} is "
                             f"not the exact inner-product top {k_gt} of its query")
    graph = materialize(index, R=R, alpha=alpha)
    return [bench_one(graph, dataset, queries, gt, ls=ls, k=k, m=m, seed=seed,
                      reps=reps)
            for ls in ls_list]


def config_line(config: dict) -> str:
    """The ``#``-prefixed JSON line that opens a CSV output."""
    return "# " + json.dumps(config, sort_keys=True, default=str)


def records_to_csv(records: list, config: dict,
                   header: str = BENCH_CSV_HEADER) -> str:
    """CSV text: the config line, the header, one row per record."""
    return "\n".join([config_line(config), header,
                      *(r.csv_row() for r in records)]) + "\n"


DEFAULT_LS_SCHEDULE = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
                       1024, 1536, 2048, 3072, 4096)


def find_ls_for_recall(graph: SearchGraph, dataset: Dataset, queries: Dataset,
                       gt: np.ndarray, target: float, k: int, m: int = 0,
                       seed: int = 0) -> BenchRecord | None:
    """Walk the pool-size schedule until panel recall reaches the target."""
    for ls in DEFAULT_LS_SCHEDULE:
        if ls < k:
            continue
        if ls > dataset.n:
            break
        rec = bench_one(graph, dataset, queries, gt, ls=ls, k=k, m=m, seed=seed,
                        reps=1)
        if rec.recall >= target:
            return rec
    return None


@dataclass
class ScaleRecord:
    n: int
    ls: int
    recall: float
    dist_comps: float
    flagged: bool  # recall target unreachable on the schedule

    def csv_row(self) -> str:
        return (f"{self.n},{self.ls},{self.recall:.6f},{self.dist_comps:.2f},"
                f"{int(self.flagged)}")


def run_scaling_study(sizes: list[int], dim: int, K: int, K1: int, K2: int,
                      build_ls: int, R: int, alpha: float, m: int = 0,
                      k: int = 10, n_queries: int = 100, target: float = 0.95,
                      seed: int = 0, workers: int = 1) -> list[ScaleRecord]:
    """Distance computations at matched recall across dataset sizes."""
    out = []
    for idx, n in enumerate(sizes):
        data = generate_synthetic(SyntheticSpec("gaussian", n=n, dim=dim,
                                                seed=seed + idx))
        queries = generate_synthetic(SyntheticSpec("gaussian", n=n_queries, dim=dim,
                                                   seed=seed + 1000 + idx))
        gt = compute_ground_truth(data, queries, k, MetricKind.INNER_PRODUCT)
        index = build_mag(data, K=K, K1=K1, K2=K2, ls=build_ls, seed=seed,
                          workers=workers)
        graph = materialize(index, R=R, alpha=alpha)
        rec = find_ls_for_recall(graph, data, queries, gt, target=target, k=k,
                                 m=m, seed=seed)
        if rec is None:
            out.append(ScaleRecord(n=n, ls=0, recall=0.0, dist_comps=0.0,
                                   flagged=True))
        else:
            out.append(ScaleRecord(n=n, ls=rec.ls, recall=rec.recall,
                                   dist_comps=rec.dist_comps, flagged=False))
    return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))

    def render(self) -> str:
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [f"{c.name.ljust(width)}  {'PASS' if c.passed else 'FAIL'}  {c.detail}"
                 for c in self.checks]
        lines.append(f"{'overall'.ljust(width)}  {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_suite(dataset: Dataset, index: MagIndex | None = None,
                 max_n_exact: int = 2000) -> VerifyReport:
    """Run the cross-module invariant checks and collect a pass/fail table.

    The exact dominator-graph checks are quadratic and run only when the
    dataset has at most ``max_n_exact`` points.
    """
    report = VerifyReport()
    rng = np.random.default_rng(12345)

    # dominator-graph structure (tie-tolerant so duplicated points pass)
    if dataset.n <= max_n_exact:
        n = dataset.n
        ndg = build_exact_ndg(dataset)
        scc = count_strong_components(ndg)
        report.add("ndg-strong-connectivity", scc == 1, f"components={scc}")

        base = dataset.data.astype(np.float64)
        self_dots, best_cross = best_cross_inner_product(base)
        weak_dom = self_dots >= best_cross
        sample = np.sort(rng.choice(n, size=min(n, 100), replace=False))
        # every node ranked by inner product with the sampled ones, owner
        # included; the first candidate is the first cell that is not the owner
        rows = compute_ground_truth(dataset, Dataset(dataset.data[sample]), n,
                                    MetricKind.INNER_PRODUCT)
        kept = ndg_select(sample, rows, base, None)
        open_ = rows != sample[:, None]
        first = open_ & (np.cumsum(open_, axis=1) == 1)
        violations = int((kept & ~first & ~weak_dom[rows]).sum())
        mismatches = int((kept != (open_ & (first | weak_dom[rows]))).any(axis=1).sum())
        report.add("ndg-dominator-structure", violations == 0,
                   f"violations={violations} over {len(sample)} nodes")
        report.add("ndg-select-census-agreement", mismatches == 0,
                   f"mismatching nodes={mismatches}")
    else:
        report.add("ndg-checks-skipped", True,
                   f"n={dataset.n} above exact gate {max_n_exact}")

    # per-pair dominator probability, Monte Carlo vs the closed form
    worst = 0.0
    for j, r in enumerate((0.5, 1.0, 2.0, 3.0)):
        est = dominator_probability_mc(r, d=32, n_samples=VERIFY_MC_SAMPLES,
                                       seed=777 + j)
        worst = max(worst, abs(est - dominator_probability(r)))
    report.add("dominator-probability-mc", worst <= VERIFY_MC_TOLERANCE,
               f"max |mc - phi| = {worst:.4f} (tol {VERIFY_MC_TOLERANCE})")
    report.add("dominator-probability-tail", dominator_probability(4.0) >= 0.9999,
               f"phi(4) = {dominator_probability(4.0):.6f}")

    # scaling duality on a query subsample
    nq = VERIFY_DUALITY_QUERIES
    qdata = Dataset(np.ascontiguousarray(
        rng.standard_normal((nq, dataset.dim)), dtype=np.float32))
    duality = verify_scaling_duality(dataset, qdata)
    report.add("scaling-duality-bruteforce", duality.nn_agreement == 1.0,
               f"agreement={duality.nn_agreement:.3f} over {nq} queries "
               f"({duality.n_tied} tied excluded)")

    # index invariants, either the provided index or a freshly built one
    if index is None and dataset.n >= 32:
        index = build_mag(dataset, K=min(16, dataset.n - 1),
                          K1=min(8, dataset.n - 1), K2=8,
                          ls=max(16, min(32, dataset.n)), seed=7)
    if index is not None:
        try:
            index.validate(dataset)
            report.add("index-invariants", True,
                       f"n={index.n}, K1={index.K1}, K2={index.K2}")
        except UsageError as exc:
            report.add("index-invariants", False, str(exc))
        blob = index_to_bytes(index)
        try:
            again = index_to_bytes(index_from_bytes(blob, "index bytes"))
            report.add("index-roundtrip", blob == again, f"{len(blob)} bytes")
        except FormatError as exc:
            report.add("index-roundtrip", False, str(exc))

    # pool invariants exercised through an instrumented search
    if index is not None and (index.n, index.dim) == (dataset.n, dataset.dim):
        graph = materialize(index, R=max(8, index.K1), alpha=0.5)
        q = rng.standard_normal(dataset.dim).astype(np.float32)
        params = SearchParams(ls=min(64, dataset.n), k=min(10, dataset.n), seed=3)
        try:
            greedy_search(graph, dataset, q, params, MetricKind.INNER_PRODUCT,
                          debug=True)
            anms_search(graph, dataset, q,
                        SearchParams(ls=min(64, dataset.n), k=min(10, dataset.n),
                                     m=8, seed=3), debug=True)
            report.add("pool-invariants", True, "instrumented searches clean")
        except AssertionError as exc:
            report.add("pool-invariants", False, str(exc))

    return report
