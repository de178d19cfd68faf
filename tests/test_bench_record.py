"""The aggregation of ``tools/bench_record.py`` on fake perfbench runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BETTER = {"lat_p50_ms": "lower", "qps_r95": "higher", "comps_r95": "lower"}


def fake_run(checkout, seed, rep, lat, qps, workload="trap-anms", failed=0,
             sha="ab12"):
    return {"checkout": checkout, "workload": workload, "seed": seed, "rep": rep,
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"lat_p50_ms": lat, "qps_r95": qps, "comps_r95": 410.0},
            "ls_r95": 128, "index_sha256": sha}


@pytest.fixture
def runs():
    parent = [fake_run("parent", seed, rep, lat, 100.0)
              for (seed, rep), lat in zip([(1, 0), (2, 0), (1, 1), (2, 1)],
                                          [1.0, 2.0, 3.0, 4.0])]
    change = [fake_run("change", seed, rep, lat, qps)
              for (seed, rep), lat, qps in zip([(1, 0), (2, 0), (1, 1), (2, 1)],
                                               [0.5, 2.5, 1.5, 2.0],
                                               [110.0, 90.0, 100.0, 120.0])]
    return parent + change


def test_quartiles_and_counts(runs):
    lat = bench_record.summarize(runs)["parent"]["trap-anms"]["metrics"]["lat_p50_ms"]
    assert lat == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}


def test_per_seed_values_are_distinct_and_failures_add_up(runs):
    runs.append(fake_run("parent", 1, 2, 9.0, 100.0, failed=2, sha="cd34"))
    seeds = bench_record.summarize(runs)["parent"]["trap-anms"]["seeds"]
    assert seeds["1"] == {"ls_r95": [128], "comps_r95": [410.0],
                          "index_sha256": ["ab12", "cd34"], "runs": 3,
                          "failed": 2, "all_correct": False}
    assert seeds["2"]["runs"] == 2 and seeds["2"]["all_correct"]


def test_compare_pairs_runs_of_equal_workload_seed_and_rep(runs):
    # a change run with no parent run of its (workload, seed, rep) is left out
    runs.append(fake_run("change", 5, 0, 0.1, 500.0))
    got = bench_record.compare(runs, "parent", "change", BETTER)["trap-anms"]
    # lat pairs (parent, change): (1, .5) (2, 2.5) (3, 1.5) (4, 2): 3 wins
    assert got["lat_p50_ms"] == {"wins": 3, "pairs": 4, "ratio_of_medians": 0.7}
    # a tie is no win; higher qps is better
    assert got["qps_r95"]["wins"] == 2
    assert got["comps_r95"] == {"wins": 0, "pairs": 4, "ratio_of_medians": 1.0}


def test_record_compares_every_later_checkout_with_the_first(runs):
    machines = {"parent": {"nproc": 2}, "change": {"nproc": 2}}
    out = bench_record.record(runs, machines, BETTER, {"commit": "c1d60f3"})
    assert out["commit"] == "c1d60f3"
    assert list(out["comparisons"]) == ["change vs parent"]
    assert set(out["summary"]) == {"parent", "change"}
    assert out["runs"] is runs
