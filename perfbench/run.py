"""magsearch benchmark: QPS at recall 0.95, per-query latency and set-up time.

Run from the repository root:

    python3 perfbench/run.py --workload gauss-ip --seed 1 --seconds 10 --trace 0

For one workload (see ``workloads.py``) the run generates data and queries
from ``--seed``, sets the index up three times (stage 1, stage 2 with one
worker per CPU, save, load, materialize), builds it once more with one
worker to check that the bytes do not depend on the worker count, and
picks the smallest pool size on the library's schedule that reaches
recall@k 0.95. For ``--seconds`` in all, cut into slices between the
later builds, it alternates one ``run_queries`` pass over the panel with
one ``anms_search`` call per query. The load is a single client in a
closed loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``layers.py``) and writes its spans
to ``.perfbench/``. The last line of standard output is the result object;
the line before it holds the machine, parameters and context. ``--smoke``
shrinks the inputs for the benchmark's own check (``smoke.py``).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

# One BLAS thread in every process, including stage-2 workers, so that
# workers x BLAS threads never exceed the CPU count and every run uses the
# same setting. Must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "magsearch", "__init__.py")):
    sys.exit(f"run.py: no library source under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import magsearch  # noqa: E402
from magsearch.bench import (DEFAULT_LS_SCHEDULE, recall_at_k,  # noqa: E402
                             run_queries)
from magsearch.index import (build_stage1, build_stage2, load_index,  # noqa: E402
                             materialize, save_index)
from magsearch.io import compute_ground_truth  # noqa: E402
from magsearch.metrics import MetricKind  # noqa: E402
from magsearch.search import SearchParams, anms_search  # noqa: E402

from layers import (BUILD_HOOKS, PER_LAYER, QUERY_HOOKS, Spans,  # noqa: E402
                    build_metrics, query_metrics)
from tracing import Tracer, rebound, wrapper_cost_s  # noqa: E402
from workloads import BUILD, TARGET_RECALL, WORKLOADS, make_inputs  # noqa: E402

if os.path.dirname(os.path.abspath(magsearch.__file__)) != os.path.join(SRC, "magsearch"):
    sys.exit(f"run.py: magsearch was imported from {magsearch.__file__}, not {SRC}")

# name: unit
END_TO_END = {"setup_s": "s", "qps_r95": "queries/s", "lat_p50_ms": "ms",
              "lat_p99_ms": "ms", "comps_r95": "comps/query", "index_bytes": "bytes",
              "peak_rss_mb": "MiB"}
SETUP_REPS = 3
LAT_BLOCK = 1000  # calls per latency block: ten beyond its p99
OUT_DIR = os.path.join(ROOT, ".perfbench")


class Ledger:
    """Operations attempted and failed; a failure is logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str, count: int = 1) -> bool:
        return self.add_many(count, 0 if ok else count, what) == 0

    def add_many(self, count: int, failed: int, what: str) -> int:
        self.attempted += count
        self.failed += failed
        if failed:
            print(f"FAILED ({failed} of {count}): {what}", file=sys.stderr)
        return failed


class Setup:
    """One set-up: raw vectors to a queryable graph, with stage timings."""

    def __init__(self, data, w, workers, path, tracer=None):
        span = tracer.span if tracer else (lambda name: nullcontext())
        marks = [time.perf_counter()]
        with span("index.build_stage1"):
            self.stage1 = build_stage1(data, BUILD["K"], BUILD["K1"], seed=BUILD["seed"])
        marks.append(time.perf_counter())
        with span("index.build_stage2"):
            index = build_stage2(self.stage1, data, BUILD["K2"], BUILD["ls"],
                                 seed=BUILD["seed"], workers=workers,
                                 passes=BUILD["passes"])
        marks.append(time.perf_counter())
        with span("index.save_index"):
            save_index(index, path)
        marks.append(time.perf_counter())
        with span("index.load_index"):
            self.index = load_index(path)
        marks.append(time.perf_counter())
        with span("index.materialize"):
            self.graph = materialize(self.index, R=w.R, alpha=w.alpha)
        marks.append(time.perf_counter())
        self.seconds = marks[-1] - marks[0]
        self.stages = dict(zip(("stage1_s", "stage2_s", "save_s", "load_s",
                                "materialize_s"), np.diff(marks).tolist()))
        self.blob = _read(path)
        self.sha256 = hashlib.sha256(self.blob).hexdigest()

    def round_trips(self, path) -> bool:
        """save_index of the loaded index gives the same bytes again."""
        save_index(self.index, path)
        return _read(path) == self.blob


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform(),
            "git_commit": git_commit(), "src_sha256": source_digest()}


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree; None otherwise."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    ref = _read(head).decode().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        return _read(ref_path).decode().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        for line in _read(packed).decode().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "magsearch")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + _read(os.path.join(pkg, name)))
    return digest.hexdigest()


def checked_setup(data, w, tmp, ledger, rep, first=None) -> Setup:
    """A set-up at one worker per CPU that must round-trip and match the
    run's first set-up byte for byte."""
    s = Setup(data, w, nproc(), os.path.join(tmp, f"rep{rep}.mag"))
    ledger.add(s.round_trips(os.path.join(tmp, "again.mag"))
               and (first is None or s.sha256 == first.sha256),
               f"set-up {rep}: round trip or repeat build differs")
    return s


def one_worker_matches(setup: Setup, data, tmp, ledger) -> None:
    """Stage 2 with one worker must give the same index bytes."""
    path = os.path.join(tmp, "one_worker.mag")
    index = build_stage2(setup.stage1, data, BUILD["K2"], BUILD["ls"],
                         seed=BUILD["seed"], workers=1, passes=BUILD["passes"])
    save_index(index, path)
    sha = hashlib.sha256(_read(path)).hexdigest()
    ledger.add(sha == setup.sha256,
               f"one-worker index sha256 {sha} != {nproc()}-worker {setup.sha256}")


def pick_ls(graph, data, queries, gt, w, search_seed):
    """Smallest schedule ls >= k whose panel recall@k reaches the target,
    with that pass's results; (None, None) when the schedule runs out."""
    for ls in DEFAULT_LS_SCHEDULE:
        if ls < w.k:
            continue
        if ls > data.n:
            break
        res = run_queries(graph, data, queries, ls=ls, k=w.k, m=w.m, seed=search_seed)
        if recall_at_k([r.ids for r in res], gt, w.k) >= TARGET_RECALL:
            return ls, res
    return None, None


def same_ids(got, want, k) -> bool:
    return len(got) >= k and np.array_equal(got, want)


def batch_pass(graph, data, queries, w, ls, search_seed, ref, ledger,
               tracer=None) -> float:
    """Seconds of one run_queries pass over the panel."""
    with tracer.span("bench.run_queries") if tracer else nullcontext():
        t0 = time.perf_counter()
        res = run_queries(graph, data, queries, ls=ls, k=w.k, m=w.m, seed=search_seed)
        dt = time.perf_counter() - t0
    bad = sum(not same_ids(r.ids, f.ids, w.k) for r, f in zip(res, ref))
    ledger.add_many(queries.n, bad, "batch results differ from the first pass")
    return dt


def single_pass(graph, data, queries, w, ls, search_seed, ref, ledger, lat):
    """One anms_search call per query, each timed on its own."""
    for qid in range(queries.n):
        params = SearchParams(ls=ls, k=w.k, m=w.m, seed=(search_seed, qid))
        q = queries.vector(qid)
        t0 = time.perf_counter()
        r = anms_search(graph, data, q, params)
        lat.append(time.perf_counter() - t0)
        ledger.add(same_ids(r.ids, ref[qid].ids, w.k),
                   f"query {qid}: single call differs from the batch pass")


def mean_comps(results) -> float:
    return float(np.mean([r.stats.dist_comps for r in results]))


def brute_force_qps(data, queries, k, reps=3) -> float:
    """Batched numpy exact top-k over the panel: the floor to beat."""
    base, qs = data.data, queries.data
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for s in range(0, len(qs), 256):
            scores = qs[s:s + 256] @ base.T
            top = np.argpartition(-scores, k - 1, axis=1)[:, :k]
            order = np.argsort(-np.take_along_axis(scores, top, 1), axis=1,
                               kind="stable")
            np.take_along_axis(top, order, 1)
        times.append(time.perf_counter() - t0)
    return len(qs) / statistics.median(times)


def measure(graph, data, queries, w, ls, search_seed, ref, ledger, seconds,
            batch_s, lat) -> None:
    """Alternate a batch pass and a single-call pass for ``seconds``, at
    least once."""
    deadline = time.perf_counter() + seconds
    while True:
        batch_s.append(batch_pass(graph, data, queries, w, ls, search_seed, ref, ledger))
        single_pass(graph, data, queries, w, ls, search_seed, ref, ledger, lat)
        if time.perf_counter() >= deadline:
            break


def timed_run(w, data, queries, gt, search_seed, seconds, tmp, ledger, ctx):
    reps = 1 if ctx["smoke"] else SETUP_REPS
    setups = [checked_setup(data, w, tmp, ledger, 0)]
    graph = setups[0].graph
    ls, ref = pick_ls(graph, data, queries, gt, w, search_seed)
    if not ledger.add(ls is not None, f"recall {TARGET_RECALL} unreachable on the schedule"):
        return None
    ctx["floor_bf_qps"] = brute_force_qps(data, queries, w.k)

    # The machine's speed drifts in spells of seconds, so the timed window
    # is cut into slices placed between the remaining set-ups and the
    # one-worker build: the queries sample the whole run, not one spell.
    batch_s, lat = [], []
    slice_s = seconds / (reps + 1)
    for rep in range(1, reps):
        measure(graph, data, queries, w, ls, search_seed, ref, ledger, slice_s, batch_s, lat)
        setups.append(checked_setup(data, w, tmp, ledger, rep, setups[0]))
    measure(graph, data, queries, w, ls, search_seed, ref, ledger, slice_s, batch_s, lat)
    one_worker_matches(setups[0], data, tmp, ledger)
    measure(graph, data, queries, w, ls, search_seed, ref, ledger, slice_s, batch_s, lat)
    lat_ms = np.asarray(lat) * 1e3
    # percentiles per block of LAT_BLOCK consecutive calls. The machine's
    # speed drifts over seconds and moves every block, so p50 averages the
    # blocks as qps_r95 averages the passes; a burst moves one block's tail,
    # so p99 takes the median block.
    blocks = np.array_split(lat_ms, max(1, len(lat_ms) // LAT_BLOCK))
    ctx.update({"ls_r95": ls, "recall_r95": recall_at_k([r.ids for r in ref], gt, w.k),
                "setup_samples_s": [s.seconds for s in setups],
                "setup_stages_s": [s.stages for s in setups],
                "index_sha256": setups[0].sha256,
                "qps_samples": [queries.n / t for t in batch_s],
                "lat_samples": len(lat_ms),
                "lat_blocks": len(blocks)})
    return {
        "setup_s": statistics.median(s.seconds for s in setups),
        # the rate over all batch passes, which averages the machine's drift
        # where a median of passes jumps between its fast and slow spells
        "qps_r95": queries.n * len(batch_s) / sum(batch_s),
        "lat_p50_ms": float(np.mean([np.percentile(b, 50) for b in blocks])),
        "lat_p99_ms": float(np.median([np.percentile(b, 99) for b in blocks])),
        "comps_r95": mean_comps(ref),
        "index_bytes": float(len(setups[0].blob)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(w, data, queries, gt, search_seed, seconds, tmp, ledger, ctx):
    timed = checked_setup(data, w, tmp, ledger, 0)
    tracer = Tracer()
    with tracer.span("setup"), rebound(tracer, BUILD_HOOKS):
        traced = Setup(data, w, 1, os.path.join(tmp, "traced.mag"), tracer)
    build_spans = len(tracer)
    ledger.add(traced.sha256 == timed.sha256,
               f"one-worker traced index sha256 {traced.sha256} != "
               f"{nproc()}-worker {timed.sha256}")
    ledger.add(traced.round_trips(os.path.join(tmp, "again.mag")),
               "traced index round trip differs")

    graph = traced.graph
    ls, ref = pick_ls(graph, data, queries, gt, w, search_seed)
    if not ledger.add(ls is not None, f"recall {TARGET_RECALL} unreachable on the schedule"):
        return None
    plain, traced_qps = [], []
    deadline = time.perf_counter() + seconds
    with tracer.span("queries"):
        while True:
            plain.append(queries.n / batch_pass(graph, data, queries, w, ls,
                                                search_seed, ref, ledger))
            with rebound(tracer, QUERY_HOOKS):
                traced_qps.append(queries.n / batch_pass(
                    graph, data, queries, w, ls, search_seed, ref, ledger, tracer))
            if time.perf_counter() >= deadline:
                break
    comps = mean_comps(ref)
    extra = 0.0
    if w.m > 0:
        no_switch = run_queries(graph, data, queries, ls=ls, k=w.k, m=0, seed=search_seed)
        extra = comps - mean_comps(no_switch)

    spans = Spans(tracer)
    metrics = build_metrics(spans, nproc(), timed.stages["stage2_s"])
    metrics.update(query_metrics(spans, float(np.mean([r.stats.hops for r in ref]))))
    metrics["search.switch_extra_comps"] = extra
    metrics["trace.query_qps_overhead"] = (statistics.median(plain)
                                           - statistics.median(traced_qps))
    metrics["trace.build_overhead_s"] = build_spans * wrapper_cost_s()

    trace_path = os.path.join(OUT_DIR, f"trace-{w.name}-seed{ctx['seed']}.npz")
    tracer.save(trace_path)
    ctx.update({"ls_r95": ls, "comps_r95": comps, "spans": len(tracer),
                "trace_file": os.path.relpath(trace_path, ROOT),
                "timed_stages_s": timed.stages, "traced_stages_s": traced.stages,
                "qps_untraced": plain, "qps_traced": traced_qps,
                "moves": {name: moves for name, (_, moves) in PER_LAYER.items()}})
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and one set-up, for the benchmark's own check")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    data, queries, search_seed = make_inputs(w, args.seed, smoke=args.smoke)
    gt = compute_ground_truth(data, queries, w.k, MetricKind.INNER_PRODUCT)
    ctx = {"workload": w.name, "seed": args.seed, "smoke": args.smoke,
           "trace": args.trace, "search_seed": search_seed}
    params = dict(w.params(), n=data.n, n_queries=queries.n, workers=nproc(),
                  setup_reps=1 if args.smoke or args.trace else SETUP_REPS)
    ledger = Ledger()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    run = traced_run if args.trace else timed_run
    try:
        values = run(w, data, queries, gt, search_seed, args.seconds, tmp, ledger, ctx)
    except Exception:
        # a library call that raises fails the run; the traceback says where
        traceback.print_exc()
        ledger.add(False, "the run raised")
        values = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = ({n: unit for n, (unit, _) in PER_LAYER.items()} if args.trace
             else END_TO_END)
    record = {"machine": machine(), "params": params, "context": ctx}
    with open(os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(record, metrics=values), f, indent=1)
    print(json.dumps(record))
    if values is None:
        print(json.dumps({"correct": False, "attempted": max(1, ledger.attempted),
                          "failed": max(1, ledger.failed), "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
