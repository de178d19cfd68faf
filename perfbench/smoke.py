"""Smoke check of the benchmark itself, on small inputs (about a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --smoke`` with
``--trace 0`` and ``--trace 1`` and checks that the last line of output is
the result object, that it carries every declared metric with its unit
and no other, and that the correctness checks ran and passed. It then
checks that the benchmark, copied without the library source, exits
non-zero without printing a result. Exits non-zero on any problem.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != declared {expected}")
    if not all(isinstance(m["value"], float) for m in result["metrics"].values()):
        problems.append(f"{where}: non-float metric value")
    return problems


def check_without_source(workload: str) -> list[str]:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the library source: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, declared[trace])
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            problems += found
    problems += check_without_source(spec["workloads"][0]["name"])
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
