"""End-to-end CLI flows over the documented subcommands."""

import json
import struct

import numpy as np
import pytest

from magsearch import Dataset
from magsearch.cli import build_parser, int_list, main, seed as cli_seed
from magsearch.io import read_ivecs, write_fvecs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    base = str(root / "base.fvecs")
    queries = str(root / "q.fvecs")
    assert main(["gen", "--kind", "gaussian", "--n", "500", "--dim", "8",
                 "--seed", "1", "--out", base]) == 0
    assert main(["gen", "--kind", "gaussian", "--n", "20", "--dim", "8",
                 "--seed", "2", "--out", queries]) == 0
    return root, base, queries


def test_gen_deterministic(tmp_path):
    a, b = str(tmp_path / "a.fvecs"), str(tmp_path / "b.fvecs")
    main(["gen", "--kind", "heavytail", "--n", "50", "--dim", "4",
          "--seed", "7", "--out", a])
    main(["gen", "--kind", "heavytail", "--n", "50", "--dim", "4",
          "--seed", "7", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gt_build_search_bench_flow(workspace):
    root, base, queries = workspace
    gt = str(root / "gt.ivecs")
    index = str(root / "index.mag")
    assert main(["gt", "--data", base, "--queries", queries, "--k", "10",
                 "--metric", "ip", "--out", gt]) == 0
    assert read_ivecs(gt).shape == (20, 10)

    assert main(["build", "--data", base, "--K", "12", "--K1", "6", "--K2", "6",
                 "--ls", "24", "--seed", "3", "--out", index]) == 0

    out = str(root / "res.csv")
    assert main(["search", "--index", index, "--data", base, "--queries",
                 queries, "--R", "10", "--alpha", "0.5", "--ls", "32",
                 "--k", "10", "--m", "0", "--seed", "4", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("# {")
    assert lines[1] == "query,ids,dist_comps,hops"
    assert len(lines) == 22
    assert len(lines[2].split(",")[1].split()) == 10

    bench_out = str(root / "bench.csv")
    assert main(["bench", "--index", index, "--data", base, "--queries",
                 queries, "--gt", gt, "--ls", "16,32", "--R", "10",
                 "--alpha", "0.5", "--k", "10", "--seed", "4", "--reps", "1",
                 "--out", bench_out]) == 0
    blines = open(bench_out).read().strip().split("\n")
    assert blines[1] == "ls,alpha,m,R,recall,qps,dist_comps,hops"
    assert len(blines) == 4


def test_search_rejects_m_with_l2(workspace, capsys):
    root, base, queries = workspace
    index = str(root / "index.mag")
    assert main(["search", "--index", index, "--data", base, "--queries",
                 queries, "--R", "10", "--alpha", "0.5", "--ls", "32",
                 "--k", "5", "--m", "3", "--metric", "l2"]) == 2
    assert ("the metric switch targets inner product; use m=0 for l2"
            in capsys.readouterr().err)


def test_search_refuses_a_query_whose_scores_overflow(tmp_path, capsys):
    # finite float32 data and query whose inner products pass FLT_MAX
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((300, 8)).astype(np.float32)
    pts[:2] = 0.0
    pts[0, 0], pts[1, 0] = 2e19, 4e19
    q = np.zeros((1, 8), dtype=np.float32)
    q[0, 0] = 2e19
    base, queries, index = (str(tmp_path / f) for f in ("b.fvecs", "q.fvecs", "i.mag"))
    write_fvecs(Dataset(pts), base)
    write_fvecs(Dataset(q), queries)
    assert main(["build", "--data", base, "--K", "12", "--K1", "6", "--K2", "6",
                 "--ls", "24", "--out", index]) == 0
    assert main(["search", "--index", index, "--data", base, "--queries", queries,
                 "--R", "10", "--alpha", "0.5", "--ls", "300", "--k", "2"]) == 2
    assert "overflows float32 scores" in capsys.readouterr().err


def test_index_must_match_the_data(tmp_path, capsys):
    # an index built on 400 vectors of d=8, run against 400 vectors of d=16
    base8, base16 = str(tmp_path / "b8.fvecs"), str(tmp_path / "b16.fvecs")
    base500, q16 = str(tmp_path / "b500.fvecs"), str(tmp_path / "q16.fvecs")
    q8, gt, index = (str(tmp_path / "q8.fvecs"), str(tmp_path / "gt.ivecs"),
                     str(tmp_path / "i.mag"))
    for path, n, dim in ((base8, 400, 8), (base16, 400, 16), (base500, 500, 8),
                         (q16, 5, 16), (q8, 5, 8)):
        assert main(["gen", "--n", str(n), "--dim", str(dim), "--seed", "1",
                     "--out", path]) == 0
    assert main(["build", "--data", base8, "--K", "12", "--K1", "6", "--K2", "6",
                 "--ls", "24", "--out", index]) == 0
    assert main(["gt", "--data", base8, "--queries", q8, "--k", "5",
                 "--out", gt]) == 0
    capsys.readouterr()
    search = ["search", "--index", index, "--R", "10", "--alpha", "0.5",
              "--ls", "16", "--k", "5"]
    bench = ["bench", "--index", index, "--gt", gt, "--ls", "16", "--R", "10",
             "--alpha", "0.5", "--k", "5", "--reps", "1"]
    for argv in (search + ["--data", base16, "--queries", q16],
                 search + ["--data", base500, "--queries", q8],
                 bench + ["--data", base16, "--queries", q16],
                 bench + ["--data", base500, "--queries", q8]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "index has 400 vectors of dim 8" in captured.err
    assert main(search + ["--data", base8, "--queries", q8]) == 0


def test_stats_json(workspace, capsys):
    root, base, _ = workspace
    assert main(["stats", "--data", base, "--clusters", "8", "--seed", "0",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"cv", "dbi_euclidean", "dbi_cosine", "self_dominator_fraction",
            "hint"} <= set(payload)


def test_stats_csv(workspace, capsys):
    root, base, _ = workspace
    args = ["stats", "--data", base, "--clusters", "8", "--seed", "0"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(lines) == 4
    assert lines[0].startswith("# {")
    assert json.loads(lines[0][2:])["format"] == "csv"
    assert lines[1] == "cv,dbi_euclidean,dbi_cosine,self_dominator_fraction,n_clusters"
    names = lines[1].split(",")
    assert lines[2] == ",".join([*(f"{payload[k]:.6f}" for k in names[:4]), "8"])
    assert lines[3] == f"# hint: {payload['hint']}"


def test_verify_subcommand(capsys):
    rc = main(["verify", "--n", "300", "--dim", "8", "--seed", "0",
               "--max-n-exact", "400"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "overall" in out


def test_verify_rejects_an_index_of_other_data(tmp_path, capsys):
    base, index = str(tmp_path / "b.fvecs"), str(tmp_path / "i.mag")
    assert main(["gen", "--n", "300", "--dim", "8", "--seed", "1",
                 "--out", base]) == 0
    assert main(["build", "--data", base, "--K", "12", "--K1", "6", "--K2", "6",
                 "--ls", "24", "--out", index]) == 0
    capsys.readouterr()
    assert main(["verify", "--index", index, "--max-n-exact", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  index has 300 vectors of dim 8, but the data has 1000 of dim 8" in out


def test_scale_subcommand_smoke(tmp_path, capsys):
    out = str(tmp_path / "scale.csv")
    rc = main(["scale", "--sizes", "400,800", "--dim", "8", "--K", "12",
               "--K1", "6", "--K2", "6", "--build-ls", "24", "--R", "10",
               "--alpha", "0.5", "--k", "5", "--queries", "20",
               "--target", "0.9", "--seed", "0", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[1] == "n,ls,recall,dist_comps,flagged"
    assert len(lines) == 4


def test_zero_workers_is_a_usage_error(tmp_path, capsys):
    base, index = str(tmp_path / "b.fvecs"), str(tmp_path / "i.mag")
    assert main(["gen", "--n", "60", "--dim", "4", "--out", base]) == 0
    assert main(["build", "--data", base, "--K", "8", "--K1", "4", "--K2", "4",
                 "--ls", "8", "--workers", "0", "--out", index]) == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "i.mag").exists()


def test_zero_ls_is_a_usage_error_without_ip_edges(tmp_path, capsys):
    base, index = str(tmp_path / "b.fvecs"), str(tmp_path / "i.mag")
    assert main(["gen", "--n", "60", "--dim", "4", "--out", base]) == 0
    assert main(["build", "--data", base, "--K", "8", "--K1", "4", "--K2", "0",
                 "--ls", "0", "--out", index]) == 2
    assert "ls must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "i.mag").exists()


@pytest.mark.parametrize("command", ["build", "scale"])
def test_workers_help_names_the_blas_thread_variable(command):
    # both subcommands run stage 2 on threads of the calling process, and
    # each of them keeps the BLAS library's default thread count
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a.choices, dict))
    (workers,) = [a for a in subparsers.choices[command]._actions
                  if a.dest == "workers"]
    assert "OPENBLAS_NUM_THREADS" in (workers.help or "")


@pytest.mark.parametrize("option", [["--kind", "blobs", "--clusters", "0"],
                                    ["--kind", "heavytail", "--sigma-log", "-1"]],
                         ids=["clusters", "sigma-log"])
def test_gen_out_of_range_parameter_is_a_usage_error(option, tmp_path, capsys):
    out = tmp_path / "x.fvecs"
    assert main(["gen", *option, "--n", "10", "--dim", "2",
                 "--out", str(out)]) == 2
    assert "error: need" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_data_is_a_format_error(tmp_path, capsys):
    base = tmp_path / "nan.fvecs"
    base.write_bytes(struct.pack("<i2f", 2, 1.0, float("nan")))
    assert main(["stats", "--data", str(base)]) == 2
    assert "nan.fvecs: record 0 contains NaN or Inf" in capsys.readouterr().err


def test_missing_file_is_clean_error(tmp_path):
    assert main(["stats", "--data", str(tmp_path / "nope.fvecs")]) == 2


# each subcommand with its required options filled in
SEEDED = {
    "gen": ["--n", "5", "--dim", "2", "--out", "x"],
    "stats": ["--data", "x"],
    "build": ["--data", "x", "--K", "4", "--K1", "2", "--K2", "2", "--ls", "8",
              "--out", "x"],
    "search": ["--index", "x", "--data", "x", "--queries", "x", "--R", "4",
               "--alpha", "0.5", "--ls", "8"],
    "bench": ["--index", "x", "--data", "x", "--queries", "x", "--gt", "x",
              "--ls", "8", "--R", "4", "--alpha", "0.5"],
    "scale": [],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("bad", ["-1", "1.5", "abc"])
def test_bad_seed_is_a_usage_error(command, bad, tmp_path, capsys):
    argv = [command, *SEEDED[command]]
    assert build_parser().parse_args(argv + ["--seed", "3"]).seed == 3
    with pytest.raises(SystemExit) as exc:
        main([a if a != "x" else str(tmp_path / "x") for a in argv]
             + ["--seed", bad])
    assert exc.value.code == 2
    assert "error: argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_every_seed_option_shares_one_type():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a.choices, dict))
    types = {name: a.type for name, sub in subparsers.choices.items()
             for a in sub._actions if a.dest == "seed"}
    assert types == dict.fromkeys(SEEDED, cli_seed)


@pytest.mark.parametrize("command,option,bad", [
    ("bench", "--ls", "16,x"), ("bench", "--ls", "16,0"), ("bench", "--ls", ""),
    ("scale", "--sizes", "100,abc"), ("scale", "--sizes", "100,-4"),
    ("scale", "--sizes", "1.5")])
def test_bad_comma_list_is_a_usage_error(command, option, bad, tmp_path, capsys):
    argv = [a if a != "x" else str(tmp_path / "x") for a in [command, *SEEDED[command]]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, bad])
    assert exc.value.code == 2
    assert (f"error: argument {option}: need a comma list of positive integers"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_comma_lists_share_one_type():
    parser = build_parser()
    assert parser.parse_args(["bench", *SEEDED["bench"], "--ls", "16,32"]).ls == [16, 32]
    assert parser.parse_args(["scale"]).sizes == [1000, 4000, 16000, 64000]
    subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
    types = {(name, a.dest): a.type for name, sub in subparsers.choices.items()
             for a in sub._actions if a.dest in ("ls", "sizes")}
    assert types[("bench", "ls")] is types[("scale", "sizes")] is int_list


def test_bench_rejects_ground_truth_of_the_other_metric(tmp_path, capsys):
    # ivecs carries no metric: an l2 file used to print recall 0.048 at an
    # exhaustive pool with exit 0, where the ip file prints 1.000
    base, queries, index = (str(tmp_path / "b.fvecs"), str(tmp_path / "q.fvecs"),
                            str(tmp_path / "i.mag"))
    assert main(["gen", "--kind", "heavytail", "--n", "800", "--dim", "8",
                 "--seed", "1", "--out", base]) == 0
    assert main(["gen", "--kind", "heavytail", "--n", "50", "--dim", "8",
                 "--seed", "2", "--out", queries]) == 0
    assert main(["build", "--data", base, "--K", "16", "--K1", "8", "--K2", "8",
                 "--ls", "32", "--out", index]) == 0
    bench = ["bench", "--index", index, "--data", base, "--queries", queries,
             "--ls", "800", "--R", "16", "--alpha", "0.5", "--k", "10",
             "--reps", "1"]
    for metric in ("l2", "ip"):
        gt = str(tmp_path / f"{metric}.ivecs")
        assert main(["gt", "--data", base, "--queries", queries, "--k", "10",
                     "--metric", metric, "--out", gt]) == 0
    capsys.readouterr()
    assert main(bench + ["--gt", str(tmp_path / "l2.ivecs")]) == 2
    assert "not the exact inner-product top 10" in capsys.readouterr().err
    out = str(tmp_path / "bench.csv")
    assert main(bench + ["--gt", str(tmp_path / "ip.ivecs"), "--out", out]) == 0
    assert open(out).read().strip().split("\n")[2].split(",")[4] == "1.000000"
