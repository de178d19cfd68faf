"""Command-line interface: gen, gt, stats, build, search, bench, scale, verify.

CSV outputs start with a ``#``-prefixed JSON line echoing the effective
configuration. All randomized subcommands take --seed and reproduce their
non-timing outputs bit-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, fields

from .bench import (SCALE_CSV_HEADER, SyntheticSpec, config_line,
                    generate_synthetic, records_to_csv, run_benchmark,
                    run_scaling_study, verify_suite)
from .errors import FormatError, UsageError
from .index import MagIndex, build_mag, load_index, materialize, save_index
from .io import (compute_ground_truth, read_fvecs, read_ivecs, write_fvecs,
                 write_ivecs)
from .metrics import Dataset, MetricKind
from .search import run_queries
from .stats import DEFAULT_DBI_CLUSTERS, compute_stats, tuning_hint


# --workers of build and scale: both run stage 2 on at most workers threads of
# the calling process, and on fewer when n spans fewer gram blocks
_WORKERS_HELP = ("stage 2 runs on at most this many threads of the calling "
                "process; the index bytes do not depend on it. Every thread "
                "calls BLAS with its default thread count, so run "
                "workers > 1 with OPENBLAS_NUM_THREADS=1")


def seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def int_list(text: str) -> list[int]:
    """argparse type of --ls and --sizes: a comma list of positive integers."""
    try:
        values = [int(v) for v in text.split(",")]
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"need a comma list of positive integers, got {text!r}")


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def _write_out(path: str | None, text: str) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_matching_index(path: str, data: Dataset) -> MagIndex:
    """Load an index and check that it was built on data of this shape."""
    index = load_index(path)
    index.check_shape(data)
    return index


def cmd_gen(args) -> int:
    spec = SyntheticSpec(kind=args.kind, n=args.n, dim=args.dim, seed=args.seed,
                         n_clusters=args.clusters, center_scale=args.center_scale,
                         spread=args.spread, sigma_log=args.sigma_log)
    write_fvecs(generate_synthetic(spec), args.out)
    print(f"wrote {args.n} x {args.dim} {args.kind} vectors to {args.out}")
    return 0


def cmd_gt(args) -> int:
    data = read_fvecs(args.data)
    queries = read_fvecs(args.queries)
    gt = compute_ground_truth(data, queries, args.k, MetricKind(args.metric))
    write_ivecs(gt, args.out)
    print(f"wrote top-{args.k} {args.metric} ground truth for "
          f"{queries.n} queries to {args.out}")
    return 0


def cmd_stats(args) -> int:
    data = read_fvecs(args.data)
    report = compute_stats(data, n_clusters=args.clusters, seed=args.seed)
    if args.format == "json":
        lines = [json.dumps({**asdict(report), "hint": tuning_hint(report)},
                            sort_keys=True)]
    else:
        lines = [config_line(_config(args)),
                 ",".join(f.name for f in fields(report)),
                 ",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                          for v in astuple(report)),
                 f"# hint: {tuning_hint(report)}"]
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_build(args) -> int:
    data = read_fvecs(args.data)
    index = build_mag(data, K=args.K, K1=args.K1, K2=args.K2, ls=args.ls,
                      seed=args.seed, workers=args.workers)
    save_index(index, args.out)
    print(f"built index over {data.n} vectors (K={args.K}, K1={args.K1}, "
          f"K2={args.K2}) -> {args.out}")
    return 0


def cmd_search(args) -> int:
    data = read_fvecs(args.data)
    index = _load_matching_index(args.index, data)
    queries = read_fvecs(args.queries)
    graph = materialize(index, R=args.R, alpha=args.alpha)
    results = run_queries(graph, data, queries, ls=args.ls, k=args.k, m=args.m,
                          seed=args.seed, metric=MetricKind(args.metric))
    lines = [config_line(_config(args)), "query,ids,dist_comps,hops"]
    for qid, res in enumerate(results):
        ids = " ".join(str(int(v)) for v in res.ids)
        lines.append(f"{qid},{ids},{res.stats.dist_comps},{res.stats.hops}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    data = read_fvecs(args.data)
    index = _load_matching_index(args.index, data)
    queries = read_fvecs(args.queries)
    gt = read_ivecs(args.gt)
    records = run_benchmark(index, data, queries, gt, ls_list=args.ls, R=args.R,
                            alpha=args.alpha, m=args.m, k=args.k, seed=args.seed,
                            reps=args.reps)
    _write_out(args.out, records_to_csv(records, _config(args)))
    return 0


def cmd_scale(args) -> int:
    records = run_scaling_study(args.sizes, dim=args.dim, K=args.K, K1=args.K1,
                                K2=args.K2, build_ls=args.build_ls, R=args.R,
                                alpha=args.alpha, m=args.m, k=args.k,
                                n_queries=args.queries, target=args.target,
                                seed=args.seed, workers=args.workers)
    _write_out(args.out, records_to_csv(records, _config(args), SCALE_CSV_HEADER))
    return 0


def cmd_verify(args) -> int:
    dataset = (read_fvecs(args.data) if args.data else generate_synthetic(
        SyntheticSpec(kind=args.kind, n=args.n, dim=args.dim, seed=args.seed)))
    index = load_index(args.index) if args.index else None
    report = verify_suite(dataset, index=index, max_n_exact=args.max_n_exact)
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsearch",
        description="Graph-based maximum inner product search toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic fvecs dataset")
    p.add_argument("--kind", choices=["gaussian", "blobs", "heavytail"],
                   default="gaussian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--center-scale", dest="center_scale", type=float, default=10.0)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--sigma-log", dest="sigma_log", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("gt", help="compute exact ground truth (ivecs)")
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--metric", choices=["ip", "l2"], default="ip")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gt)

    p = sub.add_parser("stats", help="print data-topology indicators")
    p.add_argument("--data", required=True)
    p.add_argument("--clusters", type=int, default=DEFAULT_DBI_CLUSTERS)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("build", help="build an index file")
    p.add_argument("--data", required=True)
    p.add_argument("--K", type=int, required=True,
                   help="width of the exact K-NN graph that stage 1 prunes")
    p.add_argument("--K1", type=int, required=True,
                   help="Euclidean edges kept per node")
    p.add_argument("--K2", type=int, required=True,
                   help="inner-product dominator edges kept per node")
    p.add_argument("--ls", type=int, required=True,
                   help="per-node IP candidate pool: the node's exact top ls "
                        "by inner product, from which stage 2 selects its "
                        "dominator edges (>= K2)")
    p.add_argument("--seed", type=seed, default=0,
                   help="recorded in the metadata; the build draws nothing "
                        "at random")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="run queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ls", type=int, required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--metric", choices=["ip", "l2"], default="ip")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="recall/QPS sweep over pool sizes")
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--ls", type=int_list, required=True,
                   help="comma-separated pool sizes")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scale", help="distance computations at matched recall vs n")
    p.add_argument("--sizes", type=int_list, default="1000,4000,16000,64000")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--K", type=int, default=32)
    p.add_argument("--K1", type=int, default=16)
    p.add_argument("--K2", type=int, default=16)
    p.add_argument("--build-ls", dest="build_ls", type=int, default=64)
    p.add_argument("--R", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--target", type=float, default=0.95)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("verify", help="run the invariant-verification suite")
    p.add_argument("--data", help="fvecs dataset (default: synthetic)")
    p.add_argument("--kind", choices=["gaussian", "blobs", "heavytail"],
                   default="gaussian")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--index", help="optional index file to validate")
    p.add_argument("--max-n-exact", dest="max_n_exact", type=int, default=2000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
