"""Self-check of the benchmark harness on shrunk inputs.

    python3 perfbench/selfcheck.py

Runs ``run.py --small`` on every workload, untraced and traced, and fails
unless each run prints every metric named in ``BENCHMARK.json`` with its
unit, passes its output checks with no failed job, and reports no
unmeasured layer, and unless every per-layer metric is non-zero on at least
one workload, so a refactor that silently drops a traced layer shows here.
It also checks that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def run(script: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int, spec: dict, nonzero: set) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(HERE / "run.py", ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--small")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        checks = [ln for ln in lines if ln.startswith("check failed")]
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']} {checks}")
    expected = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} in {got['unit']}, expected {m['unit']}")
        if not any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines):
            problems.append(f"{where}: no printed line for {m['name']} in {m['unit']}")
        if got["value"] != 0:
            nonzero.add(m["name"])
    for name in ("cut_fraction", "balance_ratio", "failed_ratio"):
        if not any(ln.startswith(f"{name} = ") for ln in lines):
            problems.append(f"{where}: {name} not printed")
    if not any(ln.startswith("failed_ratio = 0.0 1") for ln in lines):
        problems.append(f"{where}: failed_ratio is not 0")
    if trace and "trace: unmeasured layers: none" not in lines:
        problems += [f"{where}: {ln}" for ln in lines if ln.startswith("trace: unmeasured")]
    return problems


def check_refuses_without_sources() -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark must not produce a result."""
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare / HERE.name / "run.py", bare, "--workload", "sbm2-c1", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"run without sources exited {proc.returncode} with output {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources()
    nonzero: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, spec, nonzero)
    for m in spec["per_layer"]:
        if m["name"] not in nonzero:
            problems.append(f"{m['name']} is zero on every workload")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
