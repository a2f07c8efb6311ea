"""Deterministic JSON/CSV input and output for the CLI and golden tests.

Floats are rendered with 17 significant digits (lossless round trip) and
object keys are emitted in sorted order, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Sequence

import numpy as np

from .errors import ControlError, DimensionMismatch
from .propagator import PulseCycle, PulseSchedule, Trajectory, validate_state
from .spectrum import DEFAULT_TOLERANCE, SystemKind, SystemSpec, validate_spectrum
from .synthesis import SynthesisReport


class InputError(ControlError):
    """Malformed input document; the message names the offending field."""


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(k)}:{dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    return json.dumps(obj)


def _require(doc: dict, field: str, path: str) -> Any:
    if field not in doc:
        raise InputError(f"missing field {path}{field!r}")
    return doc[field]


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"top-level JSON object expected in {path}")
    return doc


def _is_number(x: Any) -> bool:
    # JSON true/false load as bool, which is a subclass of int; a JSON
    # integer beyond the float range would overflow when converted
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def energies_from_dict(doc: dict) -> list:
    energies = _require(doc, "energies", "")
    if not isinstance(energies, list) or not all(_is_number(e) for e in energies):
        raise InputError("field 'energies' must be a list of numbers")
    return energies


def _tolerance_from_dict(doc: dict) -> float:
    tol = doc.get("tolerance", DEFAULT_TOLERANCE)
    if not (_is_number(tol) and 0 < tol < np.inf):
        raise InputError("field 'tolerance' must be a positive finite number")
    return float(tol)


def spec_from_dict(doc: dict) -> SystemSpec:
    energies = energies_from_dict(doc)
    kind_name = _require(doc, "kind", "")
    try:
        kind = SystemKind(kind_name)
    except ValueError:
        choices = ", ".join(k.value for k in SystemKind)
        raise InputError(f"field 'kind' must be one of: {choices}") from None
    tol = _tolerance_from_dict(doc)
    try:
        return validate_spectrum(energies, kind, tol)
    except ControlError as exc:
        raise InputError(f"field 'energies': {exc}") from exc


def state_from_dict(doc: dict, n_levels: int | None = None) -> np.ndarray:
    amps = _require(doc, "amplitudes", "")
    if not isinstance(amps, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(map(_is_number, a)) for a in amps
    ):
        raise InputError("field 'amplitudes' must be a list of [re, im] number pairs")
    vec = np.array([complex(a[0], a[1]) for a in amps])
    try:
        return validate_state(vec, n_levels)
    except ControlError as exc:
        raise InputError(f"field 'amplitudes': {exc}") from exc


def state_to_dict(state: np.ndarray) -> dict:
    return {"amplitudes": [[float(a.real), float(a.imag)] for a in state]}


def _cycle_field(c: dict, field: str, path: str) -> float:
    x = _require(c, field, path)
    if field == "m":
        if _is_number(x) and (isinstance(x, int) or x.is_integer()):
            return int(x)
        raise InputError(f"field '{path}m' must be an integer")
    if _is_number(x):
        return float(x)
    raise InputError(f"field '{path}{field}' must be a number")


def schedule_from_dict(doc: dict, spec: SystemSpec) -> PulseSchedule:
    cycles_doc = _require(doc, "cycles", "")
    if not isinstance(cycles_doc, list):
        raise InputError("field 'cycles' must be a list")
    cycles = []
    for i, c in enumerate(cycles_doc):
        path = f"cycles[{i}]."
        if not isinstance(c, dict):
            raise InputError(f"field 'cycles[{i}]' must be an object")
        fields = [_cycle_field(c, f, path) for f in ("m", "d", "tau", "tau_free")]
        try:
            cycles.append(PulseCycle(*fields))
        except ControlError as exc:
            raise InputError(f"field 'cycles[{i}]': {exc}") from exc
    try:
        return PulseSchedule(spec=spec, cycles=tuple(cycles))
    except DimensionMismatch as exc:
        raise InputError(f"field 'cycles': {exc}") from exc


def schedule_to_dict(schedule: PulseSchedule) -> dict:
    return {
        "cycles": [
            {"m": c.m, "d": c.d, "tau": c.tau, "tau_free": c.tau_free}
            for c in schedule.cycles
        ]
    }


def report_to_dict(report: SynthesisReport) -> dict:
    doc = schedule_to_dict(report.schedule)
    doc.update(
        {
            "fidelity": report.fidelity,
            "angles": list(report.angles),
            "predicted": [[a.real, a.imag] for a in report.predicted],
            "simulated": [[a.real, a.imag] for a in report.simulated],
            "residual_phases": list(report.residual_phases),
        }
    )
    return doc


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with header ``t,re_1,im_1,...,re_N,im_N``, 17 significant digits."""
    n = traj.states[0].size
    header = "t," + ",".join(f"re_{k},im_{k}" for k in range(1, n + 1))
    lines = [header]
    for t, psi in zip(traj.times, traj.states):
        cells = [format_float(t)]
        for a in psi:
            cells.append(format_float(a.real))
            cells.append(format_float(a.imag))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
