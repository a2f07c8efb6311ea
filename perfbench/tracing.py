"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` at every squarepulse
module attribute that refers to it, so callers inside the package resolve
the wrapper (``squarepulse.synthesis.forward_ledger``,
``squarepulse.propagator.pulse_propagator``, ...).  Nothing under ``src/``
changes.  Wrappers record only while an op is open, so correctness checks
run between ops are not traced.

A span is ``(id, parent id, op id, name, start ns, end ns)``.  Spans stay in
memory during the run and are written out by ``write`` when it ends.  A
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

SPAN, COUNT, OUTERMOST = "span", "count", "outermost"
ROOT = "bench.op"

# (module the function is defined or imported in, function, mode)
TRACED = (
    ("cli", "run_synth", SPAN),
    ("cli", "run_simulate", SPAN),
    ("serialize", "load_json", SPAN),
    ("serialize", "spec_from_dict", SPAN),
    ("serialize", "state_from_dict", SPAN),
    ("serialize", "schedule_from_dict", SPAN),
    ("serialize", "report_to_dict", SPAN),
    ("serialize", "trajectory_to_csv", SPAN),
    ("serialize", "dumps", OUTERMOST),  # recursive: count the outermost call
    ("synthesis", "synthesize", SPAN),
    ("synthesis", "solve_angles", SPAN),
    ("synthesis", "angles_to_widths", SPAN),
    ("synthesis", "solve_free_times", SPAN),
    ("synthesis", "fidelity", SPAN),
    ("synthesis", "linprog", SPAN),  # scipy's solver as synthesis resolves it
    ("ledger", "forward_ledger", SPAN),
    ("ledger", "evaluate_ledger", SPAN),
    ("operators", "block_params", COUNT),  # hot and cheap: count only
    ("propagator", "simulate", SPAN),
    ("propagator", "pulse_propagator", SPAN),
    ("propagator", "free_propagator", SPAN),
    ("propagator", "validate_state", SPAN),
    ("controllability", "system_generators", SPAN),
    ("controllability", "lie_closure", SPAN),
    ("controllability", "chevalley_witness", SPAN),
)


def _dense_bytes(tracer: "Tracer", args: tuple, result) -> None:
    # each call builds one dense N x N complex128 matrix
    tracer.counts["propagator.dense_bytes"] += 16 * args[0].n_levels ** 2


def _closure_dim(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["controllability.closure_dim"] += result.dimension


def _synthesis_quality(tracer: "Tracer", args: tuple, result) -> None:
    duration = sum(c.tau + c.tau_free for c in result.schedule.cycles)
    tracer.quality.append((1.0 - result.fidelity, duration))


HOOKS = {
    "propagator.pulse_propagator": _dense_bytes,
    "propagator.free_propagator": _dense_bytes,
    "controllability.lie_closure": _closure_dim,
    "synthesis.synthesize": _synthesis_quality,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.quality: list[tuple[float, float]] = []
        self.stack: list[tuple[int, str]] = []
        self.op: int | None = None
        self.next_id = 0

    def install(self) -> None:
        """Wrap every ``TRACED`` function wherever squarepulse refers to it."""
        for module, _, _ in TRACED:
            importlib.import_module(f"squarepulse.{module}")
        modules = [m for name, m in sys.modules.items()
                   if name == "squarepulse" or name.startswith("squarepulse.")]
        for module, func, mode in TRACED:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"squarepulse.{module}"], func)
            wrapper = self._wrap(name, original, mode, HOOKS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, mode, hook):
        tracer = self
        if mode == COUNT:
            def counted(*args, **kwargs):
                if tracer.op is not None:
                    tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            if tracer.op is None or (mode == OUTERMOST and tracer.stack[-1][1] == name):
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0]
            tracer.stack.append((sid, name))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result
        return spanned

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [(self.next_id, ROOT)]
        self.next_id += 1

    def end_op(self, start: int, end: int) -> None:
        self.spans.append((self.stack[0][0], -1, self.op, ROOT, start, end))
        self.op = None
        self.stack = []

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ops, as ``name: (value, unit)``."""
        covered: Counter = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - covered[sid]
        n_ops = calls[ROOT]
        op_ns = sum(end - start for _, _, _, name, start, end in self.spans if name == ROOT)

        out: dict[str, tuple[float, str]] = {}
        for module, func, mode in TRACED:
            name = f"{module}.{func}"
            n_calls = self.counts[name] if mode == COUNT else calls[name]
            out[f"{name}.calls_per_op"] = (n_calls / n_ops, "calls/op")
            if mode != COUNT:
                out[f"{name}.self_ms_per_op"] = (self_ns[name] / n_ops / 1e6, "ms/op")
                out[f"{name}.share"] = (self_ns[name] / op_ns, "ratio")
        out[f"{ROOT}.share"] = (self_ns[ROOT] / op_ns, "ratio")
        out["propagator.dense_bytes_per_op"] = (
            self.counts["propagator.dense_bytes"] / n_ops, "computed_B/op")
        out["controllability.closure_dim_per_op"] = (
            self.counts["controllability.closure_dim"] / n_ops, "dim/op")
        infid = [q[0] for q in self.quality]
        durations = [q[1] for q in self.quality]
        out["synthesis.worst_infidelity"] = (max(infid, default=0.0), "ratio")
        out["synthesis.schedule_duration_mean"] = (
            sum(durations) / len(durations) if durations else 0.0, "1/E")
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
