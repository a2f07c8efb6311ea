"""The one-table `simulate` against the per-sample kernel it replaced.

`oracle_advance` and `oracle_simulate` are the previous kernel and loop,
kept verbatim apart from their names: every sample and every cycle
endpoint is one O(N) kernel call from the state at the cycle's start, and
each call rebuilds the pair's Rabi block.  The new `simulate` must give
the same times bit for bit and the same states to rounding, and its
rounding error against a 40-digit mpmath evolution must stay within a
small factor of the old kernel's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squarepulse import (
    PulseCycle,
    PulseSchedule,
    SystemKind,
    ground_state,
    simulate,
    validate_spectrum,
    validate_state,
)
from squarepulse.operators import block_params
from squarepulse.spectrum import SystemSpec

from conftest import spec_for

STATE_ATOL = 1e-13
EPS = float(np.finfo(float).eps)
# the new kernel's error against mpmath, as a multiple of the old kernel's
PRECISION_FACTOR = 3.0


@dataclass(frozen=True)
class OracleTrajectory:
    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]


def oracle_advance(spec: SystemSpec, cycle: PulseCycle, psi: np.ndarray, t: float) -> np.ndarray:
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


def oracle_simulate(
    schedule: PulseSchedule,
    initial: np.ndarray | None = None,
    samples_per_segment: int = 0,
) -> tuple[np.ndarray, OracleTrajectory]:
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
            states.append(oracle_advance(spec, cycle, psi, offset))
        psi = oracle_advance(spec, cycle, psi, duration)
        t0 += duration
        times.append(t0)
        states.append(psi.copy())
    # zero-duration segments repeat a time; keep the last state at each time
    keep = [a < b for a, b in zip(times, times[1:])] + [True]
    traj = OracleTrajectory(tuple(compress(times, keep)), tuple(compress(states, keep)))
    return psi, traj


def make_schedule(spec, params):
    return PulseSchedule(
        spec,
        tuple(
            PulseCycle(m, d, tau, tau_free)
            for m, (d, tau, tau_free) in enumerate(params, start=1)
        ),
    )


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def drift_bound(sched):
    """How far the two kernels may drift apart by rounding alone.

    The new kernel takes a spectator's phase as one exp of E * (tau +
    tau_free), the old one as a product of exps of E * tau and E * tau_free.
    Each rounds the angle to about eps * |E t|, so beyond a 1e-13 floor
    they may differ by that much summed over the schedule.
    """
    total = sum(c.tau + c.tau_free for c in sched.cycles)
    return STATE_ATOL + EPS * max(abs(e) for e in sched.spec.energies) * total


def assert_matches_oracle(sched, samples, initial=None):
    final, traj = simulate(sched, initial, samples_per_segment=samples)
    want_final, want = oracle_simulate(sched, initial, samples_per_segment=samples)
    assert traj.times.tolist() == list(want.times)
    assert traj.states.shape == (len(want.times), sched.spec.n_levels)
    bound = drift_bound(sched)
    for got, expected in zip(traj.states, want.states):
        assert np.max(np.abs(got - expected)) <= bound
    assert np.max(np.abs(final - want_final)) <= bound
    assert np.array_equal(final, traj.states[-1])


durations = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    kind=st.sampled_from(list(SystemKind)),
    centered=st.booleans(),
    samples=st.integers(min_value=0, max_value=5),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    data=st.data(),
)
def test_simulate_matches_oracle(n, kind, centered, samples, seed, data):
    fields = st.floats(min_value=0.1, max_value=30.0)
    params = [
        (data.draw(fields), data.draw(durations), data.draw(durations)) for _ in range(n - 1)
    ]
    initial = None if seed is None else random_state(np.random.default_rng(seed), n)
    assert_matches_oracle(make_schedule(spec_for(kind, n, centered), params), samples, initial)


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n, samples", [(160, 4), (1000, 1)])
def test_simulate_matches_oracle_large(kind, n, samples):
    rng = np.random.default_rng(n)
    spec = spec_for(kind, n)
    params = [(rng.uniform(1, 30), rng.uniform(0, 0.2), rng.uniform(0, 1)) for _ in range(n - 1)]
    params[n // 2] = (5.0, 0.0, 0.0)  # one zero-duration cycle repeats a time
    assert_matches_oracle(make_schedule(spec, params), samples, random_state(rng, n))


def test_trajectory_arrays_are_read_only():
    sched = make_schedule(spec_for(SystemKind.GAP_TO_GROUND, 4), [(5.0, 0.3, 0.2)] * 3)
    final, traj = simulate(sched, samples_per_segment=2)
    assert traj.times.shape == (1 + 3 * 3,) and traj.states.shape == (1 + 3 * 3, 4)
    for arr in (traj.times, traj.states):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    final[0] = 0.0  # the final state is the caller's own copy
    assert traj.states[-1, 0] != 0.0


def mp_final_state(sched: PulseSchedule) -> np.ndarray:
    """Final state from the ground state, evolved in 40-digit arithmetic.

    Each level keeps its amplitude and the time it was last touched; its
    drift phase is applied when a pulse next touches it, and at the end.
    """
    mpmath = pytest.importorskip("mpmath")
    spec = sched.spec
    n = spec.n_levels
    with mpmath.workdps(40):
        i = mpmath.mpc(0, 1)
        e = [mpmath.mpf(x) for x in spec.energies]
        amp = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (n - 1)
        last = [mpmath.mpf(0)] * n
        clock = mpmath.mpf(0)

        def bring(k, t):
            amp[k] *= mpmath.expj(-e[k] * (t - last[k]))
            last[k] = t

        for cyc in sched.cycles:
            lo, hi = spec.coupled_levels(cyc.m)
            bring(lo, clock)
            bring(hi, clock)
            d, tau = mpmath.mpf(cyc.d), mpmath.mpf(cyc.tau)
            half_gap = (e[hi] - e[lo]) / 2
            rabi = mpmath.sqrt(half_gap**2 + d**2)
            c, s = mpmath.cos(rabi * tau), mpmath.sin(rabi * tau)
            phase = mpmath.expj(-(e[lo] + e[hi]) / 2 * tau)
            flip = -i * s * d / rabi
            a, b = amp[lo], amp[hi]
            amp[lo] = phase * ((c + i * s * half_gap / rabi) * a + flip * b)
            amp[hi] = phase * (flip * a + (c - i * s * half_gap / rabi) * b)
            last[lo] = last[hi] = clock + tau
            clock += tau + mpmath.mpf(cyc.tau_free)
        for k in range(n):
            bring(k, clock)
        return np.array([complex(x) for x in amp])


E_MAX = 5e5
SEEDS = range(12)


def large_energy_schedule(kind, n, seed):
    """A schedule at rho = 100 on a spectrum scaled to E_max, jittered per seed."""
    rng = np.random.default_rng([n, seed])
    base = np.asarray(spec_for(kind, n).energies)
    spec = validate_spectrum(base * (E_MAX / base[-1]) + rng.uniform(-1, 1), kind)
    energies = np.asarray(spec.energies)
    params = []
    for m in range(1, n):
        lo, hi = spec.coupled_levels(m)
        gap = energies[hi] - energies[lo]
        d = 100.0 * gap
        tau = rng.uniform(0, np.pi / 2) / np.hypot(0.5 * gap, d)
        params.append((d, tau, rng.uniform(0, 1)))
    return make_schedule(spec, params)


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n", [7, 40, 200])
def test_precision_against_mpmath(kind, n):
    pytest.importorskip("mpmath")
    new_err = old_err = 0.0
    for seed in SEEDS:
        sched = large_energy_schedule(kind, n, seed)
        ref = mp_final_state(sched)
        final, _ = simulate(sched, samples_per_segment=2)
        old, _ = oracle_simulate(sched)
        new_err = max(new_err, float(np.max(np.abs(final - ref))))
        old_err = max(old_err, float(np.max(np.abs(old - ref))))
    print(f"PRECISION {kind.value} N={n}: new {new_err:.3g}, old {old_err:.3g}")
    assert new_err <= PRECISION_FACTOR * old_err
