"""One measurement process for one workload; ``run.py`` starts it.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        [--setup-only] [--inject-fault]

Prints one JSON object as its last line of standard output.

Set-up time runs from just before ``import squarepulse`` to the first timed
op: the import, ``validate_spectrum`` for the workload's spectra and the
warm-up ops.  Input generation happens before it and is excluded.

Times are reported in nominal units, corrected for the speed of the host at
the moment they were taken; see ``probe_ns``.  The raw wall times are
printed next to them.

With ``--trace 0`` ops run in a closed loop (one client, the next op
starts when the previous one and its untimed check are done) until ``T``
seconds of op time and at least ``MIN_OPS`` ops have passed.  With
``--trace 1`` the first half of ``T`` runs untraced and the second half
traced, which gives the per-layer metrics and the tracing overhead; spans
are written to ``perfbench/out/spans-<workload>.jsonl``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: multi-threaded BLAS on these
# small matrices is slower and makes timings depend on the core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90

# On a shared host the CPU speed one process sees can swing by 2x within
# seconds, which would swamp any change to the program.  So every op is
# bracketed by a fixed probe that does not touch squarepulse, and each time
# is rescaled to a host on which the probe takes exactly PROBE_REF_NS:
# nominal = wall * PROBE_REF_NS / (probe time measured next to it).
# Interpreter work and many small numpy calls slow down by different
# factors (about 1.5x and 2.3x in the slowest phases seen); the ops of all
# four workloads slow down between the two, so the probe does each for about
# half of its time.
PROBE_REF_NS = 1_000_000
_PROBE_VECTOR = np.ones(200)


def probe_ns() -> int:
    """Wall time of fixed work that does not depend on squarepulse."""
    start = time.perf_counter_ns()
    x = 0
    for i in range(10000):
        x += i * i
    for _ in range(340):
        float(np.dot(_PROBE_VECTOR, _PROBE_VECTOR))
        _PROBE_VECTOR * 1.0
    return time.perf_counter_ns() - start


def nominal_ns(raw_ns: list[int], probes: list[int]) -> list[float]:
    """Rescale op ``i`` by the median of the probes around it.

    ``probes[i]`` is taken just before op ``i``; ``probes[-1]`` after the last.
    """
    return [
        ns * PROBE_REF_NS / statistics.median(probes[max(0, i - 1): i + 3])
        for i, ns in enumerate(raw_ns)
    ]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt every second output before its check")
    return p.parse_args(argv)


def import_package():
    """Import squarepulse from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import squarepulse

    if not Path(squarepulse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"squarepulse imported from {squarepulse.__file__}, not {src}")
    return squarepulse


class Phase:
    """Closed-loop ops until ``seconds`` of op time and ``min_ops`` ops."""

    def __init__(self, wl, errors, first: int, seconds: float, min_ops: int,
                 tracer: Tracer | None, inject: bool) -> None:
        self.latency_ns: list[int] = []
        self.probes: list[int] = []
        self.ok = self.failed = self.wrong = self.injected = 0
        i = first
        budget = seconds * 1e9
        op_ns = 0
        while op_ns < budget or len(self.latency_ns) < max(min_ops, 1):
            staged = wl.stage(wl.items[i % len(wl.items)])
            self.probes.append(probe_ns())
            if tracer is not None:
                tracer.begin_op(i)
            start = time.perf_counter_ns()
            try:
                out = wl.run(staged)
                raised = False
            except errors:
                raised = True
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_op(start, end)
            self.latency_ns.append(end - start)
            op_ns += end - start
            if raised:
                self.failed += 1
            else:
                if inject and i % 2 == 1:
                    out = wl.corrupt(out)
                    self.injected += 1
                if wl.check(i, staged, out):
                    self.ok += 1
                else:
                    self.wrong += 1
            i += 1
        self.probes.append(probe_ns())
        self.next = i
        self.op_s = op_ns / 1e9
        self.nominal_ns = nominal_ns(self.latency_ns, self.probes)
        self.nominal_s = sum(self.nominal_ns) / 1e9

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> dict:
    args = parse_args(argv)
    cls = WORKLOADS[args.workload]
    n_ops = max(MIN_OPS, math.ceil(args.seconds * cls.pool_rate))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(args.seed, n_ops, str(workdir))

        probe_before = probe_ns()
        setup_start = time.perf_counter_ns()
        sp = import_package()
        errors = (sp.errors.ControlError, OpFailed)
        wl.setup(sp)
        for item in wl.warmup:
            try:
                wl.run(wl.stage(item))
            except errors:
                pass
        setup_raw_ns = time.perf_counter_ns() - setup_start
        (setup_ns,) = nominal_ns([setup_raw_ns], [probe_before, probe_ns()])
        setup = {"setup_s": setup_ns / 1e9, "setup_raw_s": setup_raw_ns / 1e9}
        if args.setup_only:
            return setup

        import scipy

        env = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        if args.trace:
            return traced_run(args, wl, errors, env)
        return timed_run(args, wl, errors, env, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, wl, errors, env: dict, setup: dict) -> dict:
    run = Phase(wl, errors, 0, args.seconds, MIN_OPS, None, args.inject_fault)
    n = run.attempted
    lat_ms = [ns / 1e6 for ns in run.nominal_ns]
    raw_ms = [ns / 1e6 for ns in run.latency_ns]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    raw_p90 = statistics.quantiles(raw_ms, n=10, method="inclusive")[8]
    failed = run.failed + run.wrong
    return {
        "env": env,
        "attempted": n,
        "failed": failed,
        "wrong": run.wrong,
        "injected": run.injected,
        "setup_raw_s": setup["setup_raw_s"],
        "metrics": {
            "setup_s": metric(setup["setup_s"], "s"),
            "ops_per_s": metric(run.ok / run.nominal_s, "1/s"),
            "latency_ms_p50": metric(statistics.median(lat_ms), "ms"),
            "latency_ms_p90": metric(p90, "ms"),
            "success_ratio": metric(run.ok / n, "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
        "notes": {
            "ops_per_s": f"{run.ok} ok ops; raw wall {run.ok / run.op_s:.4g} /s "
                         f"over {run.op_s:.3f} s of op time; median probe "
                         f"{statistics.median(run.probes) / 1e6:.4f} ms",
            "latency_ms_p50": f"n={n}; raw wall {statistics.median(raw_ms):.4g} ms",
            "latency_ms_p90": f"n={n}, {sum(x > p90 for x in lat_ms)} samples above; "
                              f"raw wall {raw_p90:.4g} ms",
            "success_ratio": f"fail_ratio={failed / n:.4f}: failed {failed} "
                             f"({run.failed} raised, {run.wrong} wrong) of attempted {n}",
            "peak_rss_mb": "ru_maxrss of this workload's process",
        },
    }


def traced_run(args, wl, errors, env: dict) -> dict:
    half = args.seconds / 2
    plain = Phase(wl, errors, 0, half, 0, None, args.inject_fault)
    tracer = Tracer()
    tracer.install()
    traced = Phase(wl, errors, plain.next, half, 0, tracer, args.inject_fault)

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}.jsonl"), {"env": env})

    untraced_rate = plain.attempted / plain.nominal_s
    traced_rate = traced.attempted / traced.nominal_s
    layer = tracer.metrics()
    layer["bench.untraced_ops_per_s"] = (untraced_rate, "1/s")
    layer["bench.traced_ops_per_s"] = (traced_rate, "1/s")
    layer["bench.tracing_overhead"] = (1.0 - traced_rate / untraced_rate, "ratio")
    wrong = plain.wrong + traced.wrong
    return {
        "env": env,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed + wrong,
        "wrong": wrong,
        "injected": plain.injected + traced.injected,
        "metrics": {k: metric(v, u) for k, (v, u) in layer.items()},
        "notes": {
            "bench.tracing_overhead": f"attempted ops per nominal op-second, "
                                      f"{plain.attempted} untraced vs "
                                      f"{traced.attempted} traced ops",
        },
    }


if __name__ == "__main__":
    print(json.dumps(main()))
