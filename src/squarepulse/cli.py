"""Command-line interface: synthesize, simulate, check, classify.

Exit codes: 0 success, 1 input or usage error, 2 fidelity floor violated,
3 not fully controllable.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Sequence

import numpy as np

from . import serialize
from .controllability import lie_closure, system_generators
from .errors import ControlError, FidelityBelowFloor
from .ledger import LedgerMode, forward_ledger
from .propagator import simulate
from .serialize import InputError
from .spectrum import classify_spectrum
from .synthesis import SynthesisOptions, synthesize

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FIDELITY = 2
EXIT_UNCONTROLLABLE = 3


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def run_synth(args: argparse.Namespace) -> int:
    spec = serialize.spec_from_dict(serialize.load_json(args.spec))
    target = serialize.state_from_dict(
        serialize.load_json(args.target), spec.n_levels
    )
    try:
        options = SynthesisOptions(
            field_ratio=args.ratio, zero_threshold=args.zero_threshold
        )
    except ValueError as exc:
        flag = "--ratio" if "field_ratio" in str(exc) else "--zero-threshold"
        raise InputError(f"flag '{flag}': {exc}") from exc
    try:
        report = synthesize(spec, target, options)
    except FidelityBelowFloor as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIDELITY

    print(f"{'m':>3} {'d_m':>14} {'tau_m':>14} {'tau_free_m':>14} {'theta_m':>12}")
    for cyc, th in zip(report.schedule.cycles, report.angles):
        print(f"{cyc.m:>3} {cyc.d:>14.6g} {cyc.tau:>14.6g} {cyc.tau_free:>14.6g} {th:>12.8f}")
    print(f"fidelity = {report.fidelity:.15f}")
    _write(args.out, serialize.dumps(serialize.report_to_dict(report)) + "\n")
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    spec = serialize.spec_from_dict(serialize.load_json(args.spec))
    schedule = serialize.schedule_from_dict(serialize.load_json(args.schedule), spec)
    if args.samples < 0:
        raise InputError("flag '--samples' must be >= 0")
    initial = None
    if args.initial:
        initial = serialize.state_from_dict(
            serialize.load_json(args.initial), spec.n_levels
        )
    final, traj = simulate(schedule, initial, samples_per_segment=args.samples)
    text = serialize.dumps(serialize.state_to_dict(final)) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    if args.trajectory:
        _write(args.trajectory, serialize.trajectory_to_csv(traj))
    return EXIT_OK


def run_check(args: argparse.Namespace) -> int:
    if not args.tolerance > 0:
        raise InputError("flag '--tolerance' must be > 0")
    spec = serialize.spec_from_dict(serialize.load_json(args.spec))
    gens = system_generators(spec, recentered=True)
    if args.generators:
        try:
            keep = sorted({int(s) for s in args.generators.split(",")})
        except ValueError:
            raise InputError("flag '--generators' must be comma-separated integers")
        if any(m < 1 or m > spec.n_levels - 1 for m in keep):
            raise InputError(
                f"flag '--generators' indices must lie in 1..{spec.n_levels - 1}"
            )
        gens = [gens[0]] + [gens[m] for m in keep]
    result = lie_closure(gens, tol=args.tolerance)
    doc = {
        "dimension": result.dimension,
        "required": spec.n_levels**2 - 1,
        "fully_controllable": result.fully_controllable,
        "bracket_depth": result.bracket_depth,
    }
    text = serialize.dumps(doc) + "\n"
    print(text, end="")
    _write(args.out, text)
    return EXIT_OK if result.fully_controllable else EXIT_UNCONTROLLABLE


def run_classify(args: argparse.Namespace) -> int:
    doc = serialize.load_json(args.spec)
    energies = serialize.energies_from_dict(doc)
    tol = serialize._tolerance_from_dict(doc)
    try:
        label = classify_spectrum(energies, tol)
    except ControlError as exc:
        raise InputError(f"field 'energies': {exc}") from exc
    print(label.value)
    if args.out:
        # with a concrete kind in the input, also dump the symbolic ledger
        spec = serialize.spec_from_dict(doc)
        mode = LedgerMode(args.mode)
        ledger = forward_ledger(spec, mode)
        _write(args.out, serialize.dumps(ledger.to_dict()) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_INPUT; its own code 2 is EXIT_FIDELITY."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="squarepulse",
        description="Square-pulse control schedule synthesis and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a schedule for a target state")
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.add_argument("--ratio", type=float, default=100.0)
    p.add_argument("--zero-threshold", type=float, default=1e-10)
    p.set_defaults(func=run_synth)

    p = sub.add_parser("simulate", help="run a schedule by exact propagation")
    p.add_argument("--spec", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--initial")
    p.add_argument("--out")
    p.add_argument("--trajectory")
    p.add_argument("--samples", type=int, default=0)
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("check", help="Lie-algebra controllability check")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--generators", help="comma-separated cycle indices to keep")
    p.set_defaults(func=run_check)

    p = sub.add_parser("classify", help="classify a spectrum; optionally dump ledger")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--mode", choices=["paper", "physical"], default="physical")
    p.set_defaults(func=run_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ControlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
