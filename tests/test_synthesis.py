import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import squarepulse
from squarepulse import (
    LedgerMode,
    PulseCycle,
    PulseSchedule,
    SynthesisOptions,
    SystemKind,
    angles_to_widths,
    block_params,
    coupled_gap,
    evaluate_ledger,
    fidelity,
    forward_ledger,
    simulate,
    solve_angles,
    solve_free_times,
    synthesize,
    validate_spectrum,
)
from squarepulse.errors import (
    GapStructureViolation,
    InfeasibleMagnitudes,
    NotNormalized,
)

from conftest import random_target, spec_for


def forward_magnitudes(kind, theta):
    n = len(theta) + 1
    mags = np.zeros(n)
    cos, sin = np.cos(theta), np.sin(theta)
    if kind is SystemKind.GAP_TO_GROUND:
        mags[0] = np.prod(cos)
        for k in range(2, n + 1):
            mags[k - 1] = sin[k - 2] * np.prod(cos[: k - 2])
    else:
        for k in range(1, n):
            mags[k - 1] = cos[k - 1] * np.prod(sin[: k - 1])
        mags[n - 1] = np.prod(sin)
    return mags


def test_solve_angles_uniform_superposition():
    target = np.full(3, 1 / np.sqrt(3))
    th_ii = solve_angles(SystemKind.NEAREST_NEIGHBOR, target)
    assert np.allclose(th_ii, [np.arccos(1 / np.sqrt(3)), np.pi / 4], atol=1e-12)
    th_i = solve_angles(SystemKind.GAP_TO_GROUND, target)
    assert np.allclose(th_i, [np.arcsin(1 / np.sqrt(3)), np.pi / 4], atol=1e-12)
    for kind, th in ((SystemKind.NEAREST_NEIGHBOR, th_ii), (SystemKind.GAP_TO_GROUND, th_i)):
        assert np.allclose(forward_magnitudes(kind, np.array(th)), target, atol=1e-12)


def test_solve_angles_ground_state():
    for kind in SystemKind:
        th = solve_angles(kind, [1.0, 0.0, 0.0, 0.0])
        assert th == (0.0, 0.0, 0.0)


def test_solve_angles_top_state():
    th = solve_angles(SystemKind.NEAREST_NEIGHBOR, [0.0, 0.0, 1.0])
    assert np.allclose(th, [np.pi / 2, np.pi / 2], atol=1e-12)
    th = solve_angles(SystemKind.GAP_TO_GROUND, [0.0, 0.0, 1.0])
    assert np.allclose(th, [0.0, np.pi / 2], atol=1e-12)


def test_solve_angles_exact_inverse_random(rng):
    for kind in SystemKind:
        for n in (2, 3, 4, 5, 6):
            for _ in range(20):
                mags = np.sqrt(rng.dirichlet(np.ones(n)))
                th = solve_angles(kind, mags)
                assert all(0 <= t <= np.pi / 2 for t in th)
                assert np.max(np.abs(forward_magnitudes(kind, np.array(th)) - mags)) <= 1e-9


def test_solve_angles_rejects_bad_input():
    with pytest.raises(NotNormalized):
        solve_angles(SystemKind.NEAREST_NEIGHBOR, [0.5, 0.5])
    with pytest.raises(InfeasibleMagnitudes):
        solve_angles(SystemKind.NEAREST_NEIGHBOR, [-0.6, 0.8])
    # mass hidden behind a vanished prefix: level 1 saturates, level 3 nonzero
    with pytest.raises(InfeasibleMagnitudes):
        solve_angles(
            SystemKind.NEAREST_NEIGHBOR,
            [1.0, 0.0, 1e-5],
            zero_threshold=1e-8,
        )


def test_angles_to_widths():
    spec = validate_spectrum([0.0, 1.0], SystemKind.GAP_TO_GROUND)
    d, tau = angles_to_widths(spec, [np.pi / 2], 100.0)
    assert d == (100.0,)
    assert np.isclose(tau[0], (np.pi / 2) / np.sqrt(0.25 + 10000.0), atol=1e-12)
    d, tau = angles_to_widths(spec, [0.0], 100.0)
    assert tau == (0.0,)


def test_angles_to_widths_scaling(rng):
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 4)
    th = rng.uniform(0.1, 1.4, 3)
    _, tau1 = angles_to_widths(spec, th, 100.0)
    _, tau2 = angles_to_widths(spec, th, 200.0)
    ratio = np.array(tau1) / np.array(tau2)
    assert np.max(np.abs(ratio - 2.0)) <= 2.0 * (1.0 / 200.0) ** 2


def test_solve_free_times_zero_when_phases_already_match(rng):
    # target the ledger's own phases at tau_free = 0; read back through
    # np.angle they miss the residue 0 by rounding errors of either sign,
    # and none may cost a full extra period
    for kind in SystemKind:
        for n in range(2, 9):
            spec = spec_for(kind, n, centered=True)
            ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
            for _ in range(10):
                theta = rng.uniform(0.1, 1.4, n - 1)
                _, tau = angles_to_widths(spec, theta, 100.0)
                amps = evaluate_ledger(ledger, theta, tau, (0.0,) * (n - 1))
                phases = [float(np.angle(a / amps[0])) for a in amps[1:]]
                tf = solve_free_times(spec, ledger, tau, phases)
                assert np.allclose(tf, 0.0, atol=1e-9)


def test_solve_free_times_two_level_matches_brute_force():
    spec = validate_spectrum([-0.5, 0.5], SystemKind.GAP_TO_GROUND)
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    target = np.array([1.0, 1.0]) / np.sqrt(2)
    theta = solve_angles(spec.kind, np.abs(target))
    d, tau = angles_to_widths(spec, theta, 100.0)
    tf = solve_free_times(spec, ledger, tau, [0.0])
    assert len(tf) == 1 and 0 <= tf[0] < 2 * np.pi / (spec.energies[1] - spec.energies[0]) + 1e-9

    sched = PulseSchedule(spec, (PulseCycle(1, d[0], tau[0], tf[0]),))
    final, _ = simulate(sched)
    assert fidelity(target, final) >= 0.9999

    # brute-force scan confirms the returned root is the best in one period
    grid = np.linspace(0, 2 * np.pi, 20001)
    best = max(
        grid,
        key=lambda x: fidelity(
            target, simulate(PulseSchedule(spec, (PulseCycle(1, d[0], tau[0], x),)))[0]
        ),
    )
    # the analytic root targets the leading order in 1/rho, so the true
    # optimum sits within O(1/(2 rho)) of it
    assert abs(best - tf[0]) <= 1e-2


def test_solve_free_times_reproduces_relative_phases(rng):
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 4)
    for _ in range(5):
        target = random_target(rng, 4)
        rep = synthesize(spec, target, SynthesisOptions(field_ratio=1000.0))
        for k in range(1, 4):
            got = np.angle(rep.simulated[k] / rep.simulated[0])
            want = np.angle(target[k] / target[0])
            assert abs(np.angle(np.exp(1j * (got - want)))) <= 5e-3


def test_synthesize_ground_state_target():
    for kind in SystemKind:
        spec = spec_for(kind, 4)
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        rep = synthesize(spec, target)
        assert all(c.tau == 0 for c in rep.schedule.cycles)
        assert all(c.tau_free == 0 for c in rep.schedule.cycles)
        assert np.isclose(rep.fidelity, 1.0, atol=1e-12)


def test_synthesize_uniform_three_level():
    spec = validate_spectrum([0, 1, 3], SystemKind.NEAREST_NEIGHBOR)
    target = np.full(3, 1 / np.sqrt(3), dtype=complex)
    rep = synthesize(spec, target, SynthesisOptions(field_ratio=100.0))
    assert rep.fidelity >= 0.999
    rep2 = synthesize(spec, target, SynthesisOptions(field_ratio=1000.0))
    ratio = (1 - rep.fidelity) / (1 - rep2.fidelity)
    assert 30 <= ratio <= 300


def test_synthesize_parameter_count_and_round_trip(rng):
    for kind in SystemKind:
        for n in (2, 4, 6):
            spec = spec_for(kind, n)
            target = random_target(rng, n)
            rep = synthesize(spec, target)
            assert len(rep.schedule.cycles) == n - 1  # 2(N-1) durations
            assert rep.fidelity >= 1.0 - 10.0 / 200.0**2
            resim, _ = simulate(rep.schedule)
            assert np.max(np.abs(resim - rep.simulated)) == 0
            assert np.max(np.abs(rep.residual_phases)) <= 5e-2


def test_monotone_accuracy_in_field_ratio(rng):
    for kind in SystemKind:
        spec = spec_for(kind, 4)
        for _ in range(3):
            target = random_target(rng, 4)
            infids = []
            for rho in (1e2, 1e3, 1e4):
                rep = synthesize(spec, target, SynthesisOptions(field_ratio=rho))
                infids.append(1.0 - rep.fidelity)
            assert infids[0] + 1e-12 >= infids[1]
            assert infids[1] + 1e-12 >= infids[2]


def test_synthesize_centered_and_uncentered_agree(rng):
    from squarepulse import recenter

    energies = [0.0, 2.0, 3.0, 4.0]
    spec_raw = validate_spectrum(energies, SystemKind.GAP_TO_GROUND)
    spec_cen = validate_spectrum(recenter(energies), SystemKind.GAP_TO_GROUND)
    target = random_target(rng, 4)
    f_raw = synthesize(spec_raw, target).fidelity
    f_cen = synthesize(spec_cen, target).fidelity
    assert abs(f_raw - f_cen) <= 1e-9


def test_predicted_matches_target_up_to_global_phase(rng):
    spec = spec_for(SystemKind.GAP_TO_GROUND, 5)
    target = random_target(rng, 5)
    rep = synthesize(spec, target)
    assert fidelity(rep.predicted, target) >= 1.0 - 1e-9


def test_options_validation():
    # a NaN or infinite ratio used to yield a NaN schedule reported as success
    for ratio in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SynthesisOptions(field_ratio=ratio)
    with pytest.warns(DeprecationWarning), pytest.raises(ValueError):
        SynthesisOptions(winding_bound=-1)
    with pytest.raises(ValueError):
        SynthesisOptions(zero_threshold=1.5)


def test_winding_bound_is_deprecated_and_ignored(rng):
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 5)
    target = random_target(rng, 5)
    with pytest.warns(DeprecationWarning, match="winding_bound"):
        opts = SynthesisOptions(winding_bound=0)
    rep = synthesize(spec, target, opts)
    ref = synthesize(spec, target)
    assert rep.schedule == ref.schedule


@st.composite
def spectra(draw):
    kind = draw(st.sampled_from(list(SystemKind)))
    n = draw(st.integers(min_value=2, max_value=12))
    gap = st.floats(min_value=0.05, max_value=20.0)
    if kind is SystemKind.GAP_TO_GROUND:
        g = draw(gap)
        gaps = [draw(gap)] + [g] * (n - 2)
    else:
        gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    origin = draw(st.floats(min_value=-50.0, max_value=50.0))
    try:
        return validate_spectrum(origin + np.concatenate([[0.0], np.cumsum(gaps)]), kind)
    except GapStructureViolation:
        assume(False)


def nearest_populated_ancestors(spec, populated):
    ancestor = [0] * spec.n_levels
    if spec.kind is SystemKind.NEAREST_NEIGHBOR:
        for k in range(1, spec.n_levels):
            ancestor[k] = max(j for j in range(k) if j == 0 or populated[j])
    return ancestor


@settings(max_examples=150, deadline=None)
@given(spec=spectra(), data=st.data())
def test_free_times_suffix_steps_property(spec, data):
    n = spec.n_levels
    populated = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assume(any(populated))
    mags = np.array(
        [data.draw(st.floats(min_value=0.05, max_value=1.0)) if p else 0.0 for p in populated]
    )
    phases = np.array(data.draw(st.lists(
        st.floats(min_value=-np.pi, max_value=np.pi), min_size=n, max_size=n)))
    target = mags / np.linalg.norm(mags) * np.exp(1j * phases)
    rho = data.draw(st.sampled_from([3.0, 100.0, 1000.0]))

    theta = solve_angles(spec.kind, np.abs(target))
    _, tau = angles_to_widths(spec, theta, rho)
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    ref = phases[0] if populated[0] else 0.0
    wanted = [phases[k] - ref if populated[k] else None for k in range(1, n)]
    tau_free = solve_free_times(spec, ledger, tau, wanted)

    assert len(tau_free) == n - 1
    assert min(tau_free) >= 0.0
    ancestor = nearest_populated_ancestors(spec, populated)
    e = spec.energies
    for k in range(1, n):
        step = tau_free[k - 1]  # S_{k-1} - S_k
        if populated[k]:
            assert step < 2 * np.pi / (e[k] - e[ancestor[k]])
        else:
            assert step == 0.0

    got = [lv.phase.evaluate(tau, tau_free) for lv in ledger.levels]
    for k in range(1, n):
        if populated[k]:
            miss = got[k] - got[0] - wanted[k - 1]
            assert abs(np.angle(np.exp(1j * miss))) <= 1e-7


@pytest.mark.parametrize("n", [12, 40])
@pytest.mark.parametrize("kind", list(SystemKind))
def test_synthesize_large_n(kind, n, rng):
    # rho = 1000: at the default 100 the constant fidelity floor fails near N = 40
    spec = spec_for(kind, n)
    rep = synthesize(spec, random_target(rng, n), SynthesisOptions(field_ratio=1000.0))
    assert len(rep.schedule.cycles) == n - 1
    assert rep.fidelity >= 1.0 - 1e-5
    assert np.max(np.abs(rep.residual_phases)) <= 5e-2


def test_import_leaves_scipy_unloaded():
    src = Path(squarepulse.__file__).resolve().parents[1]
    code = "import sys, squarepulse; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_linprog_name_resolves_lazily():
    from scipy.optimize import linprog

    from squarepulse import synthesis

    assert synthesis.linprog is linprog
    with pytest.raises(AttributeError):
        synthesis.no_such_name
