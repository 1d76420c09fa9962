#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark (about a minute on two cores).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at a tiny graph size with and
without tracing and checks the result line against the contract: the
four keys, every listed metric present with its unit and a finite
value, end-to-end values above zero, and ``correct`` true.  It also
checks that a copy holding only ``BENCHMARK.json`` and the benchmark's
own files fails without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "4",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    errors = []
    if proc.returncode != 0:
        return [f"{workload}/trace{trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}/trace{trace}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{workload}/trace{trace}: correct={result.get('correct')} attempted={result.get('attempted')}")
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in listed}:
        errors.append(f"{workload}/trace{trace}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for metric in listed:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"] or not math.isfinite(got.get("value", math.nan)):
            errors.append(f"{workload}/trace{trace}: {metric['name']} = {got}")
        elif not trace and got["value"] <= 0:
            errors.append(f"{workload}: end-to-end {metric['name']} is {got['value']}")
    return errors


def check_bare_copy(spec: dict) -> list[str]:
    """Without the program's source the benchmark must fail and print no result."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_copy(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_result(workload["name"], trace, spec)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
