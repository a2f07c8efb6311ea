"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for a few ops in both modes and asserts that every
metric named in BENCHMARK.json is printed, in the final JSON line and in the
text lines before it, with its unit.  Then it injects wrong outputs (every
second op's output is corrupted before its check) and asserts that each one
is counted as a failed op and lowers ``success_ratio``.  Exits nonzero on
the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "0.5"
MIN_OPS = 100  # worker.MIN_OPS: a --trace 0 run never measures fewer


def run(workload: str, trace: int, inject: bool = False) -> tuple[dict, list[str]]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", SECONDS, "--trace", str(trace)]
    if inject:
        argv.append("--inject-fault")
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def injected(lines: list[str]) -> int:
    for line in lines:
        if line.startswith("injected faults: "):
            return int(line.split(": ")[1])
    return 0


def check_metrics(result: dict, lines: list[str], expected: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, (name, result["metrics"][name])
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    modes = {0: "end_to_end", 1: "per_layer"}
    for workload in workloads:
        for trace, key in modes.items():
            result, lines = run(workload, trace)
            check_metrics(result, lines, {m["name"]: m["unit"] for m in bench[key]})
            assert result["correct"], (workload, trace, result)
            assert result["attempted"] >= (MIN_OPS if trace == 0 else 2), result["attempted"]
            print(f"ok  {workload} --trace {trace}: {result['attempted']} ops")

        result, lines = run(workload, 1, inject=True)
        n_bad = injected(lines)
        assert n_bad >= 1 and not result["correct"], (workload, n_bad, result)
        assert result["failed"] >= n_bad, (workload, n_bad, result)
        print(f"ok  {workload} injected {n_bad} wrong outputs, {result['failed']} failed")

    result, lines = run("simulate_traj", 0, inject=True)
    n_bad = injected(lines)
    ratio = result["metrics"]["success_ratio"]["value"]
    assert result["failed"] == n_bad >= MIN_OPS // 2, (n_bad, result["failed"])
    assert abs(ratio - (1 - n_bad / result["attempted"])) <= 1e-12, ratio
    print(f"ok  simulate_traj --trace 0 injected {n_bad}: success_ratio {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
