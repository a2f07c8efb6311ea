import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squarepulse import (
    PulseCycle,
    PulseSchedule,
    SystemKind,
    coupling_operator,
    drift_hamiltonian,
    free_propagator,
    ground_state,
    matrix_exp_oracle,
    pulse_propagator,
    simulate,
    synthesize,
    validate_spectrum,
    validate_state,
)
from squarepulse import propagator
from squarepulse.errors import (
    ControlError,
    DimensionMismatch,
    NegativeDuration,
    NonPositiveField,
    NotNormalized,
)

from conftest import gap_to_ground_spec, nearest_neighbor_spec, spec_for

TWO_LEVEL = validate_spectrum([-0.5, 0.5], SystemKind.GAP_TO_GROUND)


def unitarity_residual(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


def test_state_validation():
    validate_state([1.0, 0.0])
    with pytest.raises(NotNormalized):
        validate_state([0.5, 0.5])
    with pytest.raises(NotNormalized):
        validate_state([1.0, np.nan])
    with pytest.raises(DimensionMismatch):
        validate_state([1.0, 0.0], 3)


def test_pulse_propagator_identity_at_zero_time():
    spec = gap_to_ground_spec(4)
    assert np.allclose(pulse_propagator(spec, 2, 5.0, 0.0), np.eye(4), atol=1e-15)


def test_pulse_propagator_matches_oracle():
    rng = np.random.default_rng(7)
    for kind in SystemKind:
        for n in (2, 4, 6):
            spec = spec_for(kind, n)
            h0 = drift_hamiltonian(spec)
            for _ in range(10):
                m = int(rng.integers(1, n))
                d = float(rng.uniform(0.1, 50.0))
                t = float(rng.uniform(0.0, 10.0))
                u = pulse_propagator(spec, m, d, t)
                v = matrix_exp_oracle(h0 + d * coupling_operator(spec, m), t)
                assert np.max(np.abs(u - v)) <= 1e-10
                assert unitarity_residual(u) <= 1e-12


def test_two_level_transition_probability():
    d = 40.0
    from squarepulse import block_params

    p = block_params(TWO_LEVEL, 1, d)
    t = (np.pi / 2) / p.rabi
    u = pulse_propagator(TWO_LEVEL, 1, d, t)
    assert np.isclose(abs(u[1, 0]) ** 2, (d / p.rabi) ** 2, atol=1e-12)
    v = matrix_exp_oracle(drift_hamiltonian(TWO_LEVEL) + d * coupling_operator(TWO_LEVEL, 1), t)
    assert np.max(np.abs(u - v)) <= 1e-12


def test_spectator_levels_untouched():
    spec = nearest_neighbor_spec(5)
    for m in range(1, 5):
        u = pulse_propagator(spec, m, 3.0, 1.3)
        lo, hi = spec.coupled_levels(m)
        for k in range(5):
            if k in (lo, hi):
                continue
            assert np.isclose(abs(u[k, k]), 1.0, atol=1e-14)
            row = np.delete(np.abs(u[k]), k)
            assert np.max(row) == 0


def test_matrix_exp_oracle_diagonal_and_sigma_x():
    h = np.diag([0.0, 1.5, -2.0]).astype(complex)
    u = matrix_exp_oracle(h, 0.7)
    assert np.allclose(u, np.diag(np.exp(-1j * np.diag(h) * 0.7)), atol=1e-14)

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = matrix_exp_oracle(sx, np.pi / 2)
    assert np.allclose(u, -1j * sx, atol=1e-12)


def test_matrix_exp_oracle_group_inverse():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = a + a.conj().T
    prod = matrix_exp_oracle(h, 1.3) @ matrix_exp_oracle(h, -1.3)
    assert np.max(np.abs(prod - np.eye(5))) <= 1e-12


def test_free_propagator():
    spec = gap_to_ground_spec(4)
    assert np.allclose(free_propagator(spec, 0.0), np.eye(4))
    t = 0.9
    u = free_propagator(spec, t)
    assert np.allclose(u, np.diag(np.exp(-1j * np.asarray(spec.energies) * t)))
    h0 = drift_hamiltonian(spec)
    assert np.allclose(u @ h0, h0 @ u)
    with pytest.raises(NegativeDuration):
        free_propagator(spec, -0.1)


def test_free_propagator_periodicity():
    u = free_propagator(TWO_LEVEL, 2 * np.pi)
    ratio = u[1, 1] / u[0, 0]
    assert np.isclose(ratio, 1.0, atol=1e-12)


def make_schedule(spec, params):
    return PulseSchedule(
        spec,
        tuple(
            PulseCycle(m, d, tau, tau_free)
            for m, (d, tau, tau_free) in enumerate(params, start=1)
        ),
    )


def test_simulate_zero_durations_is_identity():
    spec = nearest_neighbor_spec(4)
    sched = make_schedule(spec, [(1.0, 0.0, 0.0)] * 3)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    final, _ = simulate(sched, psi)
    assert np.allclose(final, psi, atol=1e-14)


def test_simulate_half_flip_two_level():
    from squarepulse import block_params

    d = 100.0
    p = block_params(TWO_LEVEL, 1, d)
    tau = (np.pi / 2) / p.rabi
    sched = make_schedule(TWO_LEVEL, [(d, tau, 0.0)])
    final, _ = simulate(sched)
    eps = 1.0 - abs(final[1]) ** 2
    assert eps <= (p.gap / (2 * d)) ** 2 + 1e-6
    # exact leftover population from the block formula
    assert np.isclose(abs(final[0]) ** 2, (p.gap / (2 * p.rabi)) ** 2, atol=1e-12)


def test_simulate_matches_segment_product():
    spec = gap_to_ground_spec(4)
    rng = np.random.default_rng(5)
    params = [(rng.uniform(1, 10), rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
    sched = make_schedule(spec, params)
    final, _ = simulate(sched)
    u = np.eye(4, dtype=complex)
    for cyc in sched.cycles:
        u = free_propagator(spec, cyc.tau_free) @ pulse_propagator(spec, cyc.m, cyc.d, cyc.tau) @ u
    assert np.max(np.abs(final - u @ ground_state(4))) <= 1e-12


def test_trajectory_sampling():
    spec = nearest_neighbor_spec(3)
    sched = make_schedule(spec, [(5.0, 0.3, 0.2), (5.0, 0.1, 0.4)])
    final, traj = simulate(sched, samples_per_segment=10)
    assert len(traj.times) == 2 * 11 + 1
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    for psi in traj.states:
        assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-12)
    assert np.allclose(traj.states[-1], final)


def test_schedule_validation():
    spec = gap_to_ground_spec(3)
    with pytest.raises(DimensionMismatch):
        PulseSchedule(spec, (PulseCycle(1, 1.0, 0.1, 0.1),))
    with pytest.raises(DimensionMismatch):
        PulseSchedule(spec, (PulseCycle(2, 1.0, 0.1, 0.1), PulseCycle(1, 1.0, 0.1, 0.1)))
    with pytest.raises(NegativeDuration):
        PulseCycle(1, 1.0, -0.1, 0.0)
    nan, inf = float("nan"), float("inf")
    for d in (nan, inf):
        with pytest.raises(NonPositiveField):
            PulseCycle(1, d, 0.1, 0.0)
    for tau, tau_free in ((nan, 0.0), (0.1, nan), (inf, 0.0), (0.1, inf)):
        with pytest.raises(NegativeDuration):
            PulseCycle(1, 1.0, tau, tau_free)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(list(SystemKind)),
    data=st.data(),
)
def test_norm_preserved_for_random_schedules(n, kind, data):
    spec = spec_for(kind, n)
    params = [
        (
            data.draw(st.floats(min_value=0.1, max_value=30.0)),
            data.draw(st.floats(min_value=0.0, max_value=3.0)),
            data.draw(st.floats(min_value=0.0, max_value=3.0)),
        )
        for _ in range(n - 1)
    ]
    sched = make_schedule(spec, params)
    final, _ = simulate(sched)
    assert abs(np.linalg.norm(final) - 1.0) <= 1e-12


def oracle_trajectory(sched, samples):
    """Last state at each sampled time, by eigh steps and diagonal free phases."""
    spec = sched.spec
    energies = np.asarray(spec.energies)
    h0 = drift_hamiltonian(spec)
    psi = ground_state(spec.n_levels)
    by_time = {0.0: psi}
    t0 = 0.0
    for cyc in sched.cycles:
        h = h0 + cyc.d * coupling_operator(spec, cyc.m)
        duration = cyc.tau + cyc.tau_free
        after_pulse = matrix_exp_oracle(h, cyc.tau) @ psi
        for k in range(1, samples + 1):
            offset = duration * k / (samples + 1)
            if offset <= cyc.tau:
                state = matrix_exp_oracle(h, offset) @ psi
            else:
                state = np.exp(-1j * energies * (offset - cyc.tau)) * after_pulse
            by_time[t0 + offset] = state
        psi = np.exp(-1j * energies * cyc.tau_free) * after_pulse
        t0 += duration
        by_time[t0] = psi
    return by_time


def assert_trajectory_matches_oracle(sched, samples):
    final, traj = simulate(sched, samples_per_segment=samples)
    want = oracle_trajectory(sched, samples)
    assert list(traj.times) == sorted(want)
    for t, psi in zip(traj.times, traj.states):
        assert np.max(np.abs(psi - want[t])) <= 1e-10
    assert np.max(np.abs(final - want[traj.times[-1]])) <= 1e-10


durations = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(list(SystemKind)),
    samples=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_trajectory_states_match_oracle_chain(n, kind, samples, data):
    fields = st.floats(min_value=0.1, max_value=30.0)
    params = [
        (data.draw(fields), data.draw(durations), data.draw(durations)) for _ in range(n - 1)
    ]
    assert_trajectory_matches_oracle(make_schedule(spec_for(kind, n), params), samples)


@pytest.mark.parametrize("kind", list(SystemKind))
def test_trajectory_states_match_oracle_chain_n40(kind):
    rng = np.random.default_rng(40)
    params = [(rng.uniform(1, 30), rng.uniform(0, 0.2), rng.uniform(0, 1)) for _ in range(39)]
    assert_trajectory_matches_oracle(make_schedule(spec_for(kind, 40), params), 3)


def test_trajectory_keeps_last_state_at_repeated_times():
    # cycle 1 has no free flight, cycle 2 no duration at all, cycle 3 no pulse,
    # as synthesis produces for empty levels
    spec = gap_to_ground_spec(4)
    sched = make_schedule(spec, [(5.0, 0.3, 0.0), (5.0, 0.0, 0.0), (5.0, 0.0, 0.4)])
    samples = 3
    final, traj = simulate(sched, samples_per_segment=samples)
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    # cycle 2's samples and endpoint all fall on cycle 1's endpoint
    assert len(traj.times) == 1 + 2 * (samples + 1)
    want = oracle_trajectory(sched, samples)
    for t, psi in zip(traj.times, traj.states):
        assert np.max(np.abs(psi - want[t])) <= 1e-12
    assert np.array_equal(traj.states[-1], final)


def test_trajectory_keeps_last_state_when_a_pulse_rounds_away():
    # cycle 2 is shorter than half an ulp of the running time, so its samples
    # and endpoint repeat t = 100 while its strong pulse still moves the state
    spec = gap_to_ground_spec(3)
    sched = make_schedule(spec, [(1.0, 100.0, 0.0), (1e7, 5e-15, 0.0)])
    final, traj = simulate(sched, samples_per_segment=2)
    assert traj.times[-1] == 100.0 and len(traj.times) == 1 + 3
    before = oracle_trajectory(make_schedule(spec, [(1.0, 100.0, 0.0), (1e7, 0.0, 0.0)]), 2)
    assert np.max(np.abs(final - before[100.0])) > 1e-9
    assert np.max(np.abs(traj.states[-1] - final)) == 0


@pytest.mark.parametrize(
    "d, tau, tau_free",
    [(1e300, 1e10, 0.0), (1.0, 1e308, 1e308), (1.0, 0.1, 1e308)],
)
def test_simulate_rejects_overflowing_phase_angles(d, tau, tau_free):
    # each field is finite, but Omega * tau, tau + tau_free or E * t is not
    sched = make_schedule(gap_to_ground_spec(3), [(d, tau, tau_free), (1.0, 0.1, 0.1)])
    with pytest.raises(ControlError, match="overflows"):
        simulate(sched, samples_per_segment=2)


def test_simulate_rejects_negative_samples():
    sched = make_schedule(gap_to_ground_spec(3), [(1.0, 0.1, 0.1)] * 2)
    with pytest.raises(ValueError, match="samples_per_segment"):
        simulate(sched, samples_per_segment=-3)


def test_simulate_and_synthesize_build_no_dense_propagator(monkeypatch, rng):
    def dense(*args):
        raise AssertionError("dense propagator built")

    monkeypatch.setattr(propagator, "pulse_propagator", dense)
    monkeypatch.setattr(propagator, "free_propagator", dense)
    for kind in SystemKind:
        spec = spec_for(kind, 6)
        target = rng.normal(size=6) + 1j * rng.normal(size=6)
        report = synthesize(spec, target / np.linalg.norm(target))
        final, traj = simulate(report.schedule, samples_per_segment=4)
        assert np.max(np.abs(final - report.simulated)) <= 1e-12
        assert len(traj.times) == 1 + 5 * 5


def test_simulate_peak_memory_is_the_trajectory():
    # the table is filled in place; an out-of-place phase build would double the peak
    n = 1000
    rng = np.random.default_rng(1000)
    params = [(rng.uniform(1, 30), rng.uniform(0, 0.2), rng.uniform(0, 1)) for _ in range(n - 1)]
    sched = make_schedule(nearest_neighbor_spec(n), params)
    tracemalloc.start()
    try:
        _, traj = simulate(sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (n, n)
    assert peak <= 1.1 * traj.states.nbytes
