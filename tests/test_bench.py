"""Synthetic generators, recall measurement, benchmark records, verify suite."""

import importlib

import numpy as np
import pytest

from magsearch import (Dataset, MetricKind, UsageError, build_mag,
                       compute_ground_truth, generate_synthetic, recall_at_k,
                       run_benchmark, verify_suite)
from magsearch import bench as bench_mod
from magsearch.bench import (BENCH_CSV_HEADER, SyntheticSpec, records_to_csv,
                             run_scaling_study)
from magsearch.search import CandidatePool
from magsearch.stats import coefficient_of_variation, davies_bouldin, kmeans


class TestRecallAtK:
    def test_hand_fraction(self):
        gt = np.array([[1, 2, 4]], dtype=np.int32)
        assert recall_at_k([np.array([1, 2, 3])], gt, 3) == pytest.approx(2 / 3)

    def test_identity(self):
        gt = np.array([[5, 6, 7]], dtype=np.int32)
        assert recall_at_k([np.array([7, 5, 6])], gt, 3) == 1.0

    def test_disjoint(self):
        gt = np.array([[1, 2]], dtype=np.int32)
        assert recall_at_k([np.array([8, 9])], gt, 2) == 0.0

    def test_short_rows_rejected(self):
        gt = np.array([[1, 2]], dtype=np.int32)
        with pytest.raises(UsageError):
            recall_at_k([np.array([1, 2, 3])], gt, 3)

    def test_row_count_mismatch_rejected(self):
        # zip would otherwise score the first row alone
        gt = np.array([[1, 2], [3, 4]], dtype=np.int32)
        with pytest.raises(UsageError, match="1 result rows vs 2"):
            recall_at_k([np.array([1, 2])], gt, 2)


class TestSynthetic:
    def test_gaussian_low_cv(self):
        ds = generate_synthetic(SyntheticSpec("gaussian", n=10000, dim=32, seed=0))
        assert coefficient_of_variation(ds) < 0.15

    def test_heavytail_high_cv(self):
        ds = generate_synthetic(SyntheticSpec("heavytail", n=10000, dim=32,
                                              seed=0, sigma_log=0.5))
        assert coefficient_of_variation(ds) >= 0.2

    def test_blobs_low_dbi(self):
        ds = generate_synthetic(SyntheticSpec("blobs", n=2000, dim=16, seed=0,
                                              n_clusters=8))
        clus = kmeans(ds, 8, seed=0)
        assert davies_bouldin(ds, clus) <= 2.0

    def test_deterministic(self):
        spec = SyntheticSpec("heavytail", n=500, dim=8, seed=42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.data.tobytes() == b.data.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            SyntheticSpec("uniform", n=10, dim=2)

    @pytest.mark.parametrize("kind,field,value", [("blobs", "n_clusters", 0),
                                                  ("heavytail", "sigma_log", -1.0),
                                                  ("gaussian", "n", 0),
                                                  ("gaussian", "dim", 0)])
    def test_out_of_range_parameter_rejected(self, kind, field, value):
        with pytest.raises(UsageError, match=rf"\b{field} >="):
            SyntheticSpec(**{"kind": kind, "n": 10, "dim": 2, field: value})


@pytest.fixture(scope="module")
def bench_setup():
    data = generate_synthetic(SyntheticSpec("gaussian", n=800, dim=8, seed=5))
    queries = generate_synthetic(SyntheticSpec("gaussian", n=40, dim=8, seed=6))
    gt = compute_ground_truth(data, queries, 10, MetricKind.INNER_PRODUCT)
    index = build_mag(data, K=16, K1=8, K2=8, ls=32, seed=5)
    return data, queries, gt, index


class TestBenchmark:
    def test_csv_schema(self, bench_setup):
        data, queries, gt, index = bench_setup
        records = run_benchmark(index, data, queries, gt, ls_list=[16, 32],
                                R=12, alpha=0.5, m=0, k=10, seed=1, reps=1)
        text = records_to_csv(records, {"note": "test"})
        lines = text.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == BENCH_CSV_HEADER
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "16" and first[3] == "12"

    def test_recall_non_decreasing_in_ls(self, bench_setup):
        data, queries, gt, index = bench_setup
        records = run_benchmark(index, data, queries, gt,
                                ls_list=[16, 32, 64, 128], R=12, alpha=0.5,
                                m=0, k=10, seed=1, reps=1)
        recalls = [r.recall for r in records]
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 0.005

    def test_ground_truth_ids_must_index_the_data(self, bench_setup):
        # ids shifted past n used to give recall 0.0 with no error
        data, queries, gt, index = bench_setup
        shifted = gt + data.n
        with pytest.raises(UsageError, match="out of range"):
            run_benchmark(index, data, queries, shifted, ls_list=[16], R=12,
                          alpha=0.5, m=0, k=10, seed=1, reps=1)

    @pytest.mark.parametrize("bad", ["query-dim", "gt-rows"])
    def test_queries_and_ground_truth_must_match(self, bench_setup, bad):
        data, queries, gt, index = bench_setup
        if bad == "query-dim":
            queries = Dataset(np.ascontiguousarray(queries.data[:, :4]))
            match = "query dimension does not match"
        else:
            gt = gt[:-1]
            match = "does not cover the query panel"
        with pytest.raises(UsageError, match=match):
            run_benchmark(index, data, queries, gt, ls_list=[16], R=12,
                          alpha=0.5, m=0, k=10, seed=1, reps=1)

    def test_zero_reps_rejected(self, bench_setup):
        # reps=0 used to time one rep while the config echoed 0
        data, queries, gt, index = bench_setup
        with pytest.raises(UsageError, match="reps must be >= 1"):
            run_benchmark(index, data, queries, gt, ls_list=[16], R=12,
                          alpha=0.5, m=0, k=10, seed=1, reps=0)

    def test_qps_positive_and_counters_exact(self, bench_setup):
        data, queries, gt, index = bench_setup
        records = run_benchmark(index, data, queries, gt, ls_list=[16],
                                R=12, alpha=0.5, m=0, k=10, seed=1, reps=3)
        rec = records[0]
        assert rec.qps > 0
        assert rec.dist_comps > 0 and rec.hops > 0


def test_scaling_study_flags_a_size_the_schedule_cannot_serve(monkeypatch):
    # at R = 1 the graph has one edge per node, so at n = 20 the schedule's
    # ls = 16 misses the target; the walk then stops, since the next ls,
    # 24 > n, would make the search exact
    tried = []

    def recording(*args, ls, **kwargs):
        tried.append(ls)
        return real(*args, ls=ls, **kwargs)

    real = bench_mod.bench_one
    monkeypatch.setattr(bench_mod, "bench_one", recording)
    records = run_scaling_study([20], dim=4, K=4, K1=2, K2=2, build_ls=8, R=1,
                                alpha=0.0, k=10, n_queries=5, target=0.95)
    assert tried == [16]
    assert [r.csv_row() for r in records] == ["20,0,0.000000,0.00,1"]


@pytest.mark.parametrize("module,name", [
    ("magsearch.index", "build_exact_knn"),
    ("magsearch.index", "self_dominator_set"),
    ("magsearch.index", "_stage2_rows"),
    ("magsearch.index", "materialize"),
    ("magsearch.bench", "greedy_search"),
    ("magsearch.bench", "anms_search"),
    ("magsearch.search", "score_batch"),
])
def test_traced_call_sites_exist(module, name):
    # perfbench's per-layer trace rebinds these module attributes and
    # silently skips a missing one, which would read as a zero layer time
    assert callable(getattr(importlib.import_module(module), name))


class TestVerifySuite:
    def test_passes_on_gaussian(self):
        report = verify_suite(
            generate_synthetic(SyntheticSpec("gaussian", n=400, dim=8, seed=0)),
            max_n_exact=500)
        assert report.passed, report.render()
        names = {c.name for c in report.checks}
        assert "ndg-strong-connectivity" in names
        assert "dominator-probability-mc" in names

    def test_detects_injected_self_loop(self):
        data = generate_synthetic(SyntheticSpec("gaussian", n=300, dim=8, seed=1))
        index = build_mag(data, K=12, K1=6, K2=6, ls=24, seed=1)
        index.euclid.ids[index.euclid.offsets[5]] = 5
        report = verify_suite(dataset=data, index=index,
                              max_n_exact=0)
        failing = {c.name: c.detail for c in report.checks if not c.passed}
        assert "index-invariants" in failing
        # the round trip parses the bytes, so it fails with the parser's message
        assert failing["index-roundtrip"] == "index bytes: node 5: self-loop in euclid edges"

    def test_index_of_other_data_fails(self):
        data = generate_synthetic(SyntheticSpec("gaussian", n=300, dim=8, seed=1))
        index = build_mag(data, K=12, K1=6, K2=6, ls=24, seed=1)
        report = verify_suite(
            generate_synthetic(SyntheticSpec("gaussian", n=400, dim=8, seed=0)),
            index=index, max_n_exact=0)
        rows = {c.name: c for c in report.checks}
        assert not rows["index-invariants"].passed
        assert rows["index-invariants"].detail == (
            "index has 300 vectors of dim 8, but the data has 400 of dim 8")
        assert "pool-invariants" not in rows
        assert not report.passed

    def test_pool_invariant_failure_is_reported(self, monkeypatch):
        def broken(pool):
            raise AssertionError("pool keys not strictly sorted best-first")

        monkeypatch.setattr(CandidatePool, "check_invariants", broken)
        report = verify_suite(
            generate_synthetic(SyntheticSpec("gaussian", n=300, dim=8, seed=1)),
            max_n_exact=0)
        rows = {c.name: c for c in report.checks}
        assert not rows["pool-invariants"].passed
        assert rows["pool-invariants"].detail == (
            "pool keys not strictly sorted best-first")
        assert rows["index-invariants"].passed and not report.passed

    def test_duplicated_points_pass(self):
        # census is empty under strict domination; the suite's tie-tolerant
        # checks must still pass
        base = np.random.default_rng(3).standard_normal((40, 4))
        pts = np.vstack([base, base]).astype(np.float32)
        report = verify_suite(dataset=Dataset(np.ascontiguousarray(pts)),
                              max_n_exact=100)
        ndg_checks = [c for c in report.checks if c.name.startswith("ndg")]
        assert ndg_checks and all(c.passed for c in ndg_checks)

    def test_selection_that_keeps_every_candidate_fails(self, monkeypatch):
        # a selection with no dominator rule keeps non-dominators after the
        # first candidate and disagrees with the census on every sampled node
        def keep_all(owners, ids, base, K2):
            return (ids >= 0) & (ids != owners[:, None])

        monkeypatch.setattr("magsearch.bench.ndg_select", keep_all)
        report = verify_suite(
            generate_synthetic(SyntheticSpec("gaussian", n=400, dim=8, seed=0)),
            max_n_exact=500)
        rows = {c.name: c for c in report.checks}
        assert not rows["ndg-dominator-structure"].passed
        assert not rows["ndg-select-census-agreement"].passed
        assert rows["ndg-select-census-agreement"].detail == "mismatching nodes=100"
        assert rows["ndg-strong-connectivity"].passed
