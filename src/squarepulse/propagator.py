"""Exact evolution under piecewise-constant Hamiltonians.

A pulse cycle rotates one coupled pair of levels and free flight only adds
diagonal phases, so every state `simulate` emits is a row of phases
exp(-i E_n t) times the state at its cycle's start, with the pair's two
entries replaced by the closed-form 2x2 Rabi block.  `_pair_blocks`
computes those blocks for every cycle and sample offset at once, and
`simulate` writes every state into one preallocated (T, N) table in a
single pass over the cycles; the table is the returned `Trajectory`.
`pulse_propagator` is a dense N x N view of the same blocks and
`free_propagator` of the phases, kept for inspection and tests;
`matrix_exp_oracle` is an independent eigendecomposition-based check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ControlError,
    DimensionMismatch,
    EigenFailure,
    NegativeDuration,
    NonPositiveField,
    NotNormalized,
)
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
        if not 0 < self.d < math.inf:
            raise NonPositiveField(
                f"cycle {self.m}: field amplitude {self.d} must be positive and finite"
            )
        if not (0 <= self.tau < math.inf and 0 <= self.tau_free < math.inf):
            raise NegativeDuration(
                f"cycle {self.m}: durations must be nonnegative and finite"
            )


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
    """Sampled times, shape (T,), and the states at them, shape (T, N); read-only."""

    times: np.ndarray
    states: np.ndarray


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
    and tests: diagonal phases with the pair block from `_pair_blocks`.
    """
    if t < 0:
        raise NegativeDuration(f"negative pulse duration {t}")
    (lo,), (hi,), blocks = _pair_blocks(spec, (PulseCycle(m, d, t, 0.0),), np.array([[t]]))
    u = np.diag(np.exp(-1j * np.asarray(spec.energies) * t))
    u[np.ix_((lo, hi), (lo, hi))] = blocks[0, 0]
    return u


def _pair_blocks(
    spec: SystemSpec, cycles: Sequence[PulseCycle], offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupled pairs and their 2x2 blocks for every cycle at every offset.

    ``offsets[j, k]`` is a time since the start of cycle j.  Returns the
    pairs' lower and upper level indices, each of shape (C,), and the
    blocks, of shape ``offsets.shape + (2, 2)`` in the (lo, hi) basis: the
    exact Rabi rotation for t_pulse = min(t, tau) with the pair's
    mean-energy phase, higher level as +z, and then free flight's phase
    exp(-i E (t - tau)) on each row once t > tau.
    """
    energies = np.asarray(spec.energies)
    lo, hi = np.array([spec.coupled_levels(c.m) for c in cycles]).T
    d = np.array([c.d for c in cycles])[:, None]
    tau = np.array([c.tau for c in cycles])[:, None]
    e_lo, e_hi = energies[lo, None], energies[hi, None]
    gap = e_hi - e_lo
    rabi = np.hypot(0.5 * gap, d)
    t_pulse = np.minimum(offsets, tau)
    t_free = offsets - t_pulse
    c, s = np.cos(rabi * t_pulse), np.sin(rabi * t_pulse)
    tilt = 1j * s * (0.5 * gap / rabi)
    flip = -1j * s * (d / rabi)
    # a product of phases, not the phase of a summed argument: at large
    # energies that sum would add one rounding of a large angle
    pulse_phase = np.exp(-0.5j * (e_lo + e_hi) * t_pulse)
    w_lo = pulse_phase * np.exp(-1j * e_lo * t_free)
    w_hi = pulse_phase * np.exp(-1j * e_hi * t_free)
    blocks = np.empty(offsets.shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = w_lo * (c + tilt)
    blocks[..., 0, 1] = w_lo * flip
    blocks[..., 1, 0] = w_hi * flip
    blocks[..., 1, 1] = w_hi * (c - tilt)
    return lo, hi, blocks


def simulate(
    schedule: PulseSchedule,
    initial: np.ndarray | None = None,
    samples_per_segment: int = 0,
) -> tuple[np.ndarray, Trajectory]:
    """Run the full schedule and return (final state, sampled trajectory).

    ``samples_per_segment`` intermediate states are recorded uniformly
    within each cycle, plus each cycle's endpoint and the initial state.
    All of them are rows of one preallocated (T, N) table: the spectator
    phases exp(-i E_n t) are filled in place, each cycle's rows are scaled
    by the state at its start, and the pair's two columns are overwritten
    from blocks computed for every cycle and offset at once.  Where
    zero-duration segments repeat a time, the trajectory keeps the last
    state at that time.
    """
    if samples_per_segment < 0:
        raise ValueError(f"samples_per_segment must be >= 0, got {samples_per_segment}")
    spec = schedule.spec
    n = spec.n_levels
    per = samples_per_segment + 1
    cycles = schedule.cycles
    psi = ground_state(n) if initial is None else validate_state(initial, n)

    # finite fields can still give a phase angle beyond the float range;
    # that yields a NaN state, which is reported below instead of returned
    with np.errstate(over="ignore", invalid="ignore"):
        duration = np.array([c.tau + c.tau_free for c in cycles])
        offsets = np.empty((n - 1, per))
        # element-wise as duration * k / (S+1), and exactly duration at the endpoint
        np.divide(duration[:, None] * np.arange(1, per), per, out=offsets[:, :-1])
        offsets[:, -1] = duration
        starts = np.zeros(n)
        np.add.accumulate(duration, out=starts[1:])  # sequential, like a running sum
        times = np.empty(1 + (n - 1) * per)
        times[0] = 0.0
        np.add(starts[:-1, None], offsets, out=times[1:].reshape(n - 1, per))

        lo, hi, blocks = _pair_blocks(spec, cycles, offsets)
        table = np.empty((times.size, n), dtype=complex)
        table[0] = psi
        body = table[1:].reshape(n - 1, per, n)
        body.real = 0.0
        np.multiply(offsets[..., None], -np.asarray(spec.energies), out=body.imag)
        np.exp(body, out=body)
        for rows, block, l, h in zip(body, blocks, lo.tolist(), hi.tolist()):
            rows *= psi
            pair = slice(l, h + 1, h - l)  # exactly the columns lo and hi
            np.matmul(block, psi[pair], out=rows[:, pair])
            psi = rows[-1]
    if not np.isfinite(psi).all():
        raise ControlError("schedule overflows the float range in a phase angle")

    # zero-duration segments repeat a time; keep the last state at each time
    keep = np.append(times[:-1] < times[1:], True)
    if not keep.all():
        times, table = times[keep], table[keep]
    times.flags.writeable = False
    table.flags.writeable = False
    return psi.copy(), Trajectory(times, table)
