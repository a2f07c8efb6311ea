"""Exact evolution under piecewise-constant Hamiltonians.

A pulse cycle rotates one coupled pair of levels and free flight only adds
diagonal phases, so `simulate` advances a state in O(N) per segment: one
private kernel applies the closed-form 2x2 Rabi block to the pair and pure
phases to every other level.  `pulse_propagator` and `free_propagator` are
dense N x N views kept for inspection and tests; `matrix_exp_oracle` is an
independent eigendecomposition-based check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    NegativeDuration,
    NonPositiveField,
    NotNormalized,
)
from .operators import block_params
from .spectrum import SystemSpec

STATE_NORM_ATOL = 1e-12


def validate_state(amplitudes: np.ndarray, n_levels: int | None = None) -> np.ndarray:
    """Return ``amplitudes`` as a normalized complex vector or raise."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    if n_levels is not None and psi.size != n_levels:
        raise DimensionMismatch(f"state has {psi.size} amplitudes, expected {n_levels}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= STATE_NORM_ATOL:  # a NaN norm fails too
        raise NotNormalized(f"state norm {norm} deviates from 1 beyond {STATE_NORM_ATOL}")
    return psi


def ground_state(n_levels: int) -> np.ndarray:
    psi = np.zeros(n_levels, dtype=complex)
    psi[0] = 1.0
    return psi


@dataclass(frozen=True)
class PulseCycle:
    """One control cycle: pulse at amplitude ``d`` for ``tau``, then free flight."""

    m: int
    d: float
    tau: float
    tau_free: float

    def __post_init__(self) -> None:
        # written so that a NaN fails each check
        if not self.d > 0:
            raise NonPositiveField(f"cycle {self.m}: field amplitude {self.d} <= 0")
        if not (self.tau >= 0 and self.tau_free >= 0):
            raise NegativeDuration(f"cycle {self.m}: negative duration")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered cycles m = 1..N-1 for one system."""

    spec: SystemSpec
    cycles: tuple[PulseCycle, ...]

    def __post_init__(self) -> None:
        n = self.spec.n_levels
        if len(self.cycles) != n - 1:
            raise DimensionMismatch(
                f"schedule has {len(self.cycles)} cycles, expected {n - 1}"
            )
        for i, cyc in enumerate(self.cycles, start=1):
            if cyc.m != i:
                raise DimensionMismatch(f"cycle at position {i} has index {cyc.m}")


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]


def matrix_exp_oracle(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via Hermitian eigendecomposition (brute-force oracle)."""
    h = np.asarray(hamiltonian, dtype=complex)
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def free_propagator(spec: SystemSpec, t: float) -> np.ndarray:
    """Evolution under the drift alone: diagonal phases exp(-i E_n t)."""
    if t < 0:
        raise NegativeDuration(f"negative free-evolution time {t}")
    return np.diag(np.exp(-1j * np.asarray(spec.energies) * t))


def pulse_propagator(spec: SystemSpec, m: int, d: float, t: float) -> np.ndarray:
    """Closed-form propagator of drift + d * coupling(m) for time ``t``.

    A dense view of the kernel that `simulate` runs, kept for inspection
    and tests: the kernel applied to the identity's rows, transposed.
    """
    if t < 0:
        raise NegativeDuration(f"negative pulse duration {t}")
    return _advance(spec, PulseCycle(m, d, t, 0.0), np.eye(spec.n_levels), t).T


def _advance(spec: SystemSpec, cycle: PulseCycle, psi: np.ndarray, t: float) -> np.ndarray:
    """States ``psi`` of shape (..., N) advanced by ``t`` from the start of ``cycle``.

    Level n gets exp(-i E_n t_pulse), t_pulse = min(t, tau); the pair (lo, hi)
    then gets the exact Rabi rotation with the pair's mean-energy phase, and
    free flight adds exp(-i E_n (t - tau)) once t > tau.  O(N) per state; no
    N x N array and no BLAS call.
    """
    energies = np.asarray(spec.energies)
    t_pulse = min(t, cycle.tau)
    out = psi * np.exp(-1j * energies * t_pulse)

    lo, hi = spec.coupled_levels(cycle.m)
    p = block_params(spec, cycle.m, cycle.d)
    c, s = math.cos(p.rabi * t_pulse), math.sin(p.rabi * t_pulse)
    # 2x2 block in the (lo, hi) basis, higher level as +z
    tilt = 1j * s * (0.5 * p.gap) / p.rabi
    flip = -1j * s * cycle.d / p.rabi
    phase = cmath.exp(-1j * p.mean_energy * t_pulse)
    a, b = psi.take(lo, axis=-1), psi.take(hi, axis=-1)  # scalars, not 0-d arrays
    out[..., lo] = phase * ((c + tilt) * a + flip * b)
    out[..., hi] = phase * (flip * a + (c - tilt) * b)
    if t > cycle.tau:
        out *= np.exp(-1j * energies * (t - cycle.tau))
    return out


def simulate(
    schedule: PulseSchedule,
    initial: np.ndarray | None = None,
    samples_per_segment: int = 0,
) -> tuple[np.ndarray, Trajectory]:
    """Run the full schedule and return (final state, sampled trajectory).

    ``samples_per_segment`` intermediate states are recorded uniformly
    within each cycle, plus each cycle's endpoint and the initial state.
    Samples and endpoint each take one kernel call from the state at the
    cycle's start.  Where zero-duration segments repeat a time, the
    trajectory keeps the last state at that time.
    """
    if samples_per_segment < 0:
        raise ValueError(f"samples_per_segment must be >= 0, got {samples_per_segment}")
    spec = schedule.spec
    n = spec.n_levels
    psi = ground_state(n) if initial is None else validate_state(initial, n)
    times = [0.0]
    states = [psi.copy()]
    t0 = 0.0
    for cycle in schedule.cycles:
        duration = cycle.tau + cycle.tau_free
        for k in range(1, samples_per_segment + 1):
            offset = duration * k / (samples_per_segment + 1)
            times.append(t0 + offset)
            states.append(_advance(spec, cycle, psi, offset))
        psi = _advance(spec, cycle, psi, duration)
        t0 += duration
        times.append(t0)
        states.append(psi.copy())
    # zero-duration segments repeat a time; keep the last state at each time
    keep = [a < b for a, b in zip(times, times[1:])] + [True]
    traj = Trajectory(tuple(compress(times, keep)), tuple(compress(states, keep)))
    return psi, traj
