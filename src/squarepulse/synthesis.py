"""Invert a target state into a pulse schedule.

Magnitudes fix the rotation angles through the hyperspherical closed
forms, the field ratio fixes pulse widths, and the remaining relative
phases are matched by free-evolution times found in one backward sweep
over their suffix sums, each taken least in its residue class mod 2*pi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    FidelityBelowFloor,
    InfeasibleMagnitudes,
    NotNormalized,
)
from .ledger import AmplitudeLedger, LedgerMode, evaluate_ledger, forward_ledger
from .operators import block_params
from .propagator import PulseCycle, PulseSchedule, simulate, validate_state
from .spectrum import SystemKind, SystemSpec, coupled_gap

TWO_PI = 2.0 * np.pi
MAGNITUDE_NORM_ATOL = 1e-9
_RATIO_SLACK = 1e-6
_PHASE_ATOL = 1e-9


@dataclass(frozen=True)
class SynthesisOptions:
    field_ratio: float = 100.0
    winding_bound: int | None = None  # deprecated and ignored
    zero_threshold: float = 1e-10

    def __post_init__(self) -> None:
        if not 1 < self.field_ratio < np.inf:
            raise ValueError("field_ratio must be finite and exceed 1")
        if self.winding_bound is not None:
            warnings.warn(
                "winding_bound is ignored: free times are solved exactly",
                DeprecationWarning,
                stacklevel=3,
            )
            if self.winding_bound < 0:
                raise ValueError("winding_bound must be >= 0")
        if not 0 <= self.zero_threshold < 1:
            raise ValueError("zero_threshold must be in [0, 1)")


@dataclass(frozen=True)
class SynthesisReport:
    schedule: PulseSchedule
    angles: tuple[float, ...]
    predicted: np.ndarray
    simulated: np.ndarray
    fidelity: float
    residual_phases: tuple[float, ...]


def _clip_ratio(ratio: float, what: str) -> float:
    if ratio > 1.0 + _RATIO_SLACK:
        raise InfeasibleMagnitudes(f"{what}: factor ratio {ratio} exceeds 1")
    return min(ratio, 1.0)


def solve_angles(
    kind: SystemKind,
    magnitudes: Sequence[float],
    zero_threshold: float = 1e-10,
) -> tuple[float, ...]:
    """Rotation angles in [0, pi/2] reproducing the target magnitudes.

    Works down the hyperspherical decomposition level by level; once the
    running prefix product vanishes the remaining magnitudes must vanish
    too and the remaining angles are set to zero.
    """
    mags = np.asarray(magnitudes, dtype=float)
    if np.any(mags < 0):
        raise InfeasibleMagnitudes("magnitudes must be nonnegative")
    if abs(np.sum(mags**2) - 1.0) > MAGNITUDE_NORM_ATOL:
        raise NotNormalized(f"squared magnitudes sum to {np.sum(mags ** 2)}")
    n = mags.size
    theta = np.zeros(n - 1)

    def check_residual(start: int) -> None:
        bad = [k + 1 for k in range(start, n) if mags[k] > zero_threshold]
        if bad:
            raise InfeasibleMagnitudes(
                f"levels {bad} carry mass behind a vanished prefix product"
            )

    prefix = 1.0
    if kind is SystemKind.GAP_TO_GROUND:
        # level m+1 magnitude = sin(theta_m) * prod_{i<m} cos(theta_i)
        for m in range(1, n):
            if prefix < zero_threshold:
                check_residual(m)
                break
            theta[m - 1] = np.arcsin(_clip_ratio(mags[m] / prefix, f"level {m + 1}"))
            prefix *= np.cos(theta[m - 1])
    else:
        # level k magnitude = cos(theta_k) * prod_{i<k} sin(theta_i)
        for k in range(1, n):
            if prefix < zero_threshold:
                check_residual(k - 1)
                break
            theta[k - 1] = np.arccos(_clip_ratio(mags[k - 1] / prefix, f"level {k}"))
            prefix *= np.sin(theta[k - 1])
    return tuple(theta)


def angles_to_widths(
    spec: SystemSpec, theta: Sequence[float], rho: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-cycle field amplitudes d_m = rho * gap_m and widths theta_m / Omega_m."""
    d = []
    tau = []
    for m, th in enumerate(theta, start=1):
        dm = rho * coupled_gap(spec, m)
        d.append(dm)
        tau.append(th / block_params(spec, m, dm).rabi)
    return tuple(d), tuple(tau)


def solve_free_times(
    spec: SystemSpec,
    ledger: AmplitudeLedger,
    tau: Sequence[float],
    target_phases: Sequence[float | None],
) -> tuple[float, ...]:
    """Nonnegative free-evolution times of least total matching the target phases.

    Levels are numbered from 0.  ``target_phases[k-1]`` is the wanted phase
    of level k relative to level 0 (``None`` for levels excluded by zero
    magnitude).  Write S_j = sum_{i>=j} tau_free_i.  Every populated level
    k >= 1 has a nearest populated ancestor a(k): level 0 for
    gap_to_ground, the closest populated level below k for
    nearest_neighbor (level 0 always counts as populated).  In the physical
    ledger the free-time rows of k and a(k) differ only by the coupled gaps
    of the cycles in between, each multiplying its own suffix sum.  Giving
    the empty levels in between zero free time telescopes those gaps, and
    no other split of that stretch reaches a residue sooner; the congruence
    for level k then reads

        (E_k - E_a(k)) * S_{k-1} = -(r_k - r_a(k))   (mod 2*pi),

    with r_k the wanted phase minus the ledger's pulse-time phase (r_0 = 0).
    ``tau_free >= 0`` makes S non-increasing and the total free time is
    S_0, so sweeping j = N-2 ... 0 and taking each S_j as the least value
    >= S_{j+1} in its residue class gives the least total.  Each step is
    below 2*pi / (E_k - E_a(k)); an empty level adds no step.
    """
    n = spec.n_levels
    if len(target_phases) != n - 1:
        raise DimensionMismatch(f"expected {n - 1} relative phases")
    if ledger.mode is not LedgerMode.PHYSICAL:
        raise ValueError("free-time solving requires a physical-mode ledger")

    def pulse_phase(k: int) -> float:
        form = ledger.levels[k].phase
        return float(np.dot(form.coeff_tau, tau)) - form.quarter_turns * np.pi / 2

    base_const = pulse_phase(0)
    r = [0.0] * n
    populated = [True] * n
    for k, phi in enumerate(target_phases, start=1):
        if phi is None:
            populated[k] = False
        else:
            r[k] = float(phi) - (pulse_phase(k) - base_const)

    ancestor = [0] * n
    if spec.kind is SystemKind.NEAREST_NEIGHBOR:
        for k in range(1, n):
            ancestor[k] = k - 1 if populated[k - 1] else ancestor[k - 1]

    energies = spec.energies
    tau_free = [0.0] * (n - 1)
    s = 0.0  # S_{j+1}
    for j in range(n - 2, -1, -1):
        k = j + 1
        if not populated[k]:
            continue
        a = ancestor[k]
        gap = energies[k] - energies[a]
        step = (-(r[k] - r[a]) - gap * s) % TWO_PI
        if step > TWO_PI - _PHASE_ATOL:  # a rounding error below a full turn
            step = 0.0
        tau_free[j] = step / gap
        s += tau_free[j]
    return tuple(tau_free)


def __getattr__(name: str):
    # Kept only for the benchmark's TRACED row ("synthesis", "linprog"), which
    # looks the name up here; nothing calls it.  Delete when that row goes.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-invariant overlap |<a|b>|^2."""
    return float(abs(np.vdot(a, b)) ** 2)


def synthesize(
    spec: SystemSpec,
    target: np.ndarray,
    options: SynthesisOptions | None = None,
) -> SynthesisReport:
    """Full pipeline: angles -> widths -> free times -> verified schedule."""
    opts = options or SynthesisOptions()
    psi = validate_state(target, spec.n_levels)
    mags = np.abs(psi)
    theta = solve_angles(spec.kind, mags, opts.zero_threshold)
    d, tau = angles_to_widths(spec, theta, opts.field_ratio)

    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    ref_phase = float(np.angle(psi[0])) if mags[0] > opts.zero_threshold else 0.0
    target_phases: list[float | None] = [
        float(np.angle(psi[k])) - ref_phase if mags[k] > opts.zero_threshold else None
        for k in range(1, spec.n_levels)
    ]
    tau_free = solve_free_times(spec, ledger, tau, target_phases)

    schedule = PulseSchedule(
        spec=spec,
        cycles=tuple(
            PulseCycle(m=m, d=d[m - 1], tau=tau[m - 1], tau_free=tau_free[m - 1])
            for m in range(1, spec.n_levels)
        ),
    )
    predicted = evaluate_ledger(ledger, theta, tau, tau_free)
    simulated, _ = simulate(schedule)
    fid = fidelity(psi, simulated)

    residuals = []
    for k in range(1, spec.n_levels):
        if target_phases[k - 1] is None:
            residuals.append(0.0)
            continue
        got = np.angle(simulated[k]) - np.angle(simulated[0])
        want = np.angle(psi[k]) - np.angle(psi[0])
        residuals.append(float(np.angle(np.exp(1j * (got - want)))))

    floor = 1.0 - 10.0 / (2.0 * opts.field_ratio) ** 2 - 1e-6
    if fid < floor:
        raise FidelityBelowFloor(f"fidelity {fid} below floor {floor}")
    return SynthesisReport(
        schedule=schedule,
        angles=theta,
        predicted=predicted,
        simulated=simulated,
        fidelity=fid,
        residual_phases=tuple(residuals),
    )
