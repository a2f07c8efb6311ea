"""squarepulse benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit and sample count, and the environment.

Every measurement runs in a child process (``worker.py``), so each workload
gets its own process and its own peak RSS.  With ``--trace 0`` the set-up
is repeated in ``SETUP_RUNS - 1`` extra set-up-only processes and
``setup_s`` is the median of all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("cli_roundtrip", "synth_n7", "simulate_traj", "closure")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # per workload; the run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(argv: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, inject: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if inject:
        argv.append("--inject-fault")
    if trace:
        return run_worker(argv, deadline)
    setups = [run_worker(argv + ["--setup-only"], deadline)
              for _ in range(SETUP_RUNS - 1)]
    result = run_worker(argv, deadline)
    setups.append({"setup_s": result["metrics"]["setup_s"]["value"],
                   "setup_raw_s": result["setup_raw_s"]})
    result["metrics"]["setup_s"]["value"] = statistics.median(s["setup_s"] for s in setups)
    result["notes"]["setup_s"] = f"median of {len(setups)} set-ups: " + ", ".join(
        f"{s['setup_s']:.4f} (raw wall {s['setup_raw_s']:.4f})" for s in setups)
    return result


def report(result: dict) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    notes = result["notes"]
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if result["injected"]:
        print(f"injected faults: {result['injected']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt every second output, to show the checks catch it")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "squarepulse" / "__init__.py").is_file():
        print(f"error: no squarepulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, args.trace, args.inject_fault)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"== {name}")
        report(result)
        summary["correct"] = summary["correct"] and result["wrong"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, m in result["metrics"].items():
            summary["metrics"][prefix + key] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
