#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in about a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at toy size with --trace 0 and 1 and
checks that the last stdout line is a passing result whose metric names and
units are exactly the end_to_end (or per_layer) entries of BENCHMARK.json.
Then runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.
Exits 1 on the first mismatch.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(spec, workload, trace):
    proc = bench(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = last_json(proc.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: last line is not a result: {proc.stdout[-300:]}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"{label}: outputs failed their checks\n{proc.stderr}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return f"{label}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}"
    return None


def check_without_program():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "fit_large_n", 0)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            return "without src/ the benchmark must fail without a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            failures.append(check_result(spec, w["name"], trace))
            print(f"{w['name']} --trace {trace}: {'ok' if failures[-1] is None else 'FAIL'}")
    failures.append(check_without_program())
    print(f"without src/: {'ok' if failures[-1] is None else 'FAIL'}")
    failures = [f for f in failures if f]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
