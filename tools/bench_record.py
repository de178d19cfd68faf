"""Record perfbench runs into a committed BENCH_<short-commit>.json.

Run from the repository root:

    python3 tools/bench_record.py --reps 2
    python3 tools/bench_record.py --checkout parent=../parent-copy \\
        --checkout change=. --reps 4

Each checkout's own, unmodified ``perfbench/run.py --trace 0`` runs for
every workload of ``BENCHMARK.json`` at seeds 1, 2 and 5, for its
``run_seconds``, ``--reps`` times. The runs go round robin over reps,
seeds, workloads and checkouts, the checkout that runs first alternating,
so the machine's drift in speed falls on every checkout alike.

The file is named after the repository's HEAD: it records that commit
(``parent``) and the change on top of it. It holds every run as perfbench
printed it (ok, attempted, failed, metrics, ``ls_r95`` and
``index_sha256``), each checkout's machine record, and a summary per
checkout, workload and metric: the median, the quartiles and the run
count, plus the ``ls_r95``, ``comps_r95`` and ``index_sha256`` seen at each
seed. Each later checkout is compared with the first run by run: the ratio
of medians and how many of the runs with the same workload, seed and rep
it beats, under the direction ``BENCHMARK.json`` gives each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 5)


def run_perfbench(path: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run of the checkout at path: its
    machine record and a flat run record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench_record: {' '.join(cmd)} in {path} printed no "
                         f"result (exit {out.returncode}):\n{out.stderr}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    ctx = record["context"]
    return {"machine": record["machine"],
            "run": {"workload": workload, "seed": seed,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {name: m["value"]
                                for name, m in result["metrics"].items()},
                    "ls_r95": ctx.get("ls_r95"),
                    "index_sha256": ctx.get("index_sha256")}}


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """Per checkout, workload and metric: median, quartiles and run count;
    per seed, the distinct ls_r95, comps_r95 and index_sha256 values and
    the failed operation count."""
    out: dict = {}
    for r in runs:
        w = out.setdefault(r["checkout"], {}).setdefault(
            r["workload"], {"metrics": {}, "seeds": {}})
        for name, value in r["metrics"].items():
            w["metrics"].setdefault(name, []).append(value)
        s = w["seeds"].setdefault(str(r["seed"]), {
            "ls_r95": [], "comps_r95": [], "index_sha256": [], "runs": 0,
            "failed": 0, "all_correct": True})
        for key, value in (("ls_r95", r["ls_r95"]),
                           ("comps_r95", r["metrics"].get("comps_r95")),
                           ("index_sha256", r["index_sha256"])):
            if value not in s[key]:
                s[key].append(value)
        s["runs"] += 1
        s["failed"] += r["failed"]
        s["all_correct"] = s["all_correct"] and r["correct"]
    for workloads in out.values():
        for w in workloads.values():
            w["metrics"] = {name: _quartiles(values)
                            for name, values in w["metrics"].items()}
    return out


def compare(runs: list[dict], base: str, other: str, better: dict) -> dict:
    """other against base per workload and metric: the ratio of medians,
    and in how many runs of equal (workload, seed, rep) other is better
    (``better[name]`` is "lower" or "higher"; metrics without one are
    left out)."""
    by_key = {(r["checkout"], r["workload"], r["seed"], r["rep"]): r for r in runs}
    out: dict = {}
    for (name, workload, seed, rep), r in sorted(by_key.items()):
        if name != other or (base, workload, seed, rep) not in by_key:
            continue
        b = by_key[(base, workload, seed, rep)]
        for metric, direction in better.items():
            if metric not in r["metrics"] or metric not in b["metrics"]:
                continue
            x, y = r["metrics"][metric], b["metrics"][metric]
            c = out.setdefault(workload, {}).setdefault(
                metric, {"wins": 0, "pairs": 0, "base": [], "other": []})
            c["wins"] += x < y if direction == "lower" else x > y
            c["pairs"] += 1
            c["base"].append(y)
            c["other"].append(x)
    for metrics in out.values():
        for c in metrics.values():
            b, o = np.median(c.pop("base")), np.median(c.pop("other"))
            c["ratio_of_medians"] = float(o / b) if b else None
    return out


def record(runs: list[dict], machines: dict, better: dict, meta: dict) -> dict:
    names = list(machines)
    return dict(meta, checkouts={n: {"machine": machines[n]} for n in names},
                summary=summarize(runs),
                comparisons={f"{n} vs {names[0]}": compare(runs, names[0], n, better)
                             for n in names[1:]},
                runs=runs)


def short_head() -> str | None:
    out = subprocess.run(["git", "rev-parse", "--short=7", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", action="append", metavar="NAME=PATH",
                    help="a checkout to run, repeatable; the first is the base "
                         "of the comparisons (default: change=<this checkout>)")
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--out", help="default: BENCH_<short HEAD>.json at the repo root")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    checkouts = dict(c.split("=", 1) for c in (args.checkout or [f"change={ROOT}"]))
    head = short_head()
    if not (args.out or head):
        ap.error("not a git checkout: give --out")
    out = args.out or os.path.join(ROOT, f"BENCH_{head}.json")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    meta = {"commit": head, "seconds": seconds,
            "command": "perfbench/run.py --trace 0"}

    runs, machines = [], dict.fromkeys(checkouts)
    order = list(checkouts.items())
    for rep in range(args.reps):
        for seed in SEEDS:
            for workload in (w["name"] for w in bench["workloads"]):
                order.reverse()  # which checkout runs first alternates
                for name, path in order:
                    got = run_perfbench(path, workload, seed, seconds)
                    machines[name] = machines[name] or got["machine"]
                    runs.append(dict(got["run"], checkout=name, rep=rep))
                    print(f"{name} {workload} seed {seed} rep {rep}: "
                          f"failed {got['run']['failed']}", file=sys.stderr)
                    with open(out, "w") as f:
                        json.dump(record(runs, machines, better, meta), f, indent=1)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
