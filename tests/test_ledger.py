import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squarepulse import (
    LedgerMode,
    PulseCycle,
    PulseSchedule,
    SystemKind,
    angles_to_widths,
    evaluate_ledger,
    fidelity,
    forward_ledger,
    paper_closed_form,
    simulate,
)
from squarepulse.errors import DimensionMismatch

from conftest import gap_to_ground_spec, nearest_neighbor_spec, spec_for


def factors_as_strings(ledger, level):
    return ledger.to_dict()["levels"][level]["magnitude_factors"]


def test_paper_mode_system_ii_n3_structure():
    spec = nearest_neighbor_spec(3)
    ledger = forward_ledger(spec, LedgerMode.PAPER)
    assert factors_as_strings(ledger, 2) == ["sin(1)", "sin(2)"]
    assert ledger.quarter_turns[2] == 2
    # amplitude carries exp(-i E_2 tau'_1) exp(-i E_3 tau'_2)
    e = spec.energies
    assert tuple(ledger.coeff_tau_free[2]) == (-e[1], -e[2])
    assert tuple(ledger.coeff_tau[2]) == (0.0, 0.0)


def test_physical_mode_system_i_n3_magnitudes():
    spec = gap_to_ground_spec(3)
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    assert factors_as_strings(ledger, 0) == ["cos(1)", "cos(2)"]
    assert factors_as_strings(ledger, 1) == ["sin(1)"]
    assert factors_as_strings(ledger, 2) == ["cos(1)", "sin(2)"]
    rng = np.random.default_rng(11)
    for _ in range(100):
        th = rng.uniform(0, np.pi / 2, 2)
        mags = ledger.magnitudes(th)
        assert np.isclose(sum(m**2 for m in mags), 1.0, atol=1e-14)


def test_physical_mode_closed_form_magnitudes():
    th = np.array([np.arccos(1 / np.sqrt(3)), np.pi / 4])
    spec = nearest_neighbor_spec(3)
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    mags = ledger.magnitudes(th)
    assert np.allclose(mags, 1 / np.sqrt(3), atol=1e-12)


def test_no_rotation_keeps_ground():
    for kind in SystemKind:
        spec = spec_for(kind, 4)
        ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
        amps = evaluate_ledger(ledger, [0, 0, 0], [0.4, 0.5, 0.6], [0.1, 0.2, 0.3])
        assert np.isclose(abs(amps[0]), 1.0, atol=1e-14)
        assert np.max(np.abs(amps[1:])) == 0


def test_physical_mode_normalized_random():
    rng = np.random.default_rng(13)
    for kind in SystemKind:
        for n in (2, 4, 6):
            spec = spec_for(kind, n)
            ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
            for _ in range(20):
                amps = evaluate_ledger(
                    ledger,
                    rng.uniform(0, np.pi / 2, n - 1),
                    rng.uniform(0, 2, n - 1),
                    rng.uniform(0, 2, n - 1),
                )
                assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12


def test_paper_mode_matches_printed_closed_forms():
    rng = np.random.default_rng(17)
    for kind in SystemKind:
        for n in (2, 3, 4, 5):
            spec = spec_for(kind, n)
            ledger = forward_ledger(spec, LedgerMode.PAPER)
            for _ in range(25):
                th = rng.uniform(0, np.pi / 2, n - 1)
                tau = rng.uniform(0, 2, n - 1)
                tf = rng.uniform(0, 2, n - 1)
                a = evaluate_ledger(ledger, th, tau, tf)
                b = paper_closed_form(spec, th, tau, tf)
                assert np.max(np.abs(a - b)) <= 1e-12


def test_paper_closed_form_two_level_initial_condition():
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 2)
    th, tau, tf = [0.6], [0.2], [0.9]
    amps = paper_closed_form(spec, th, tau, tf)
    e2 = spec.energies[1]
    assert np.isclose(amps[1], -1j * np.sin(0.6) * np.exp(-1j * e2 * 0.9), atol=1e-14)


def test_paper_closed_form_system_i_inert_second_cycle():
    spec = gap_to_ground_spec(3)
    th = [0.8, 0.0]
    tau = [0.3, 0.7]
    tf = [0.4, 0.0]
    amps = paper_closed_form(spec, th, tau, tf)
    e = spec.energies
    # reduces to the single-cycle state (second rotation inert)
    a1 = np.cos(0.8) * np.exp(-1j * e[0] * (tf[0] + tf[1]))
    a2 = -1j * np.sin(0.8) * np.exp(-1j * e[1] * (tau[1] + tf[1] + tf[0]))
    assert np.isclose(amps[0], a1, atol=1e-14)
    assert np.isclose(amps[1], a2, atol=1e-14)
    assert amps[2] == 0


def test_paper_mode_normalization_gap_witness():
    # three-level ground-coupled case: the printed forms lose norm
    spec = gap_to_ground_spec(3)
    ledger = forward_ledger(spec, LedgerMode.PAPER)
    amps = evaluate_ledger(ledger, [np.pi / 2, np.pi / 4], [0, 0], [0, 0])
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) > 0.1


def test_paper_mode_carries_notes():
    assert forward_ledger(gap_to_ground_spec(3), LedgerMode.PAPER).notes
    assert not forward_ledger(gap_to_ground_spec(3), LedgerMode.PHYSICAL).notes


def test_phase_linearity_finite_differences():
    rng = np.random.default_rng(19)
    for kind in SystemKind:
        spec = spec_for(kind, 4)
        ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
        th = rng.uniform(0.2, 1.2, 3)
        tau = rng.uniform(0, 1, 3)
        tf = rng.uniform(0, 1, 3)
        base = evaluate_ledger(ledger, th, tau, tf)
        h = 1.0
        for i in range(3):
            for which in ("tau", "tau_free"):
                t2, f2 = np.array(tau), np.array(tf)
                (t2 if which == "tau" else f2)[i] += h
                shifted = evaluate_ledger(ledger, th, t2, f2)
                coeffs = ledger.coeff_tau if which == "tau" else ledger.coeff_tau_free
                for k in range(spec.n_levels):
                    if abs(base[k]) < 1e-12:
                        continue
                    coeff = coeffs[k, i]
                    dphi = np.angle(shifted[k] / base[k])
                    expected = np.angle(np.exp(1j * coeff * h))
                    assert abs(np.angle(np.exp(1j * (dphi - expected)))) <= 1e-12


def test_large_field_limit_agreement():
    rng = np.random.default_rng(23)
    for kind in SystemKind:
        spec = spec_for(kind, 4)
        ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
        th = rng.uniform(0, np.pi / 2, 3)
        tf = rng.uniform(0, 2, 3)
        rho = 1e6
        d, tau = angles_to_widths(spec, th, rho)
        sched = PulseSchedule(
            spec,
            tuple(PulseCycle(m, d[m - 1], tau[m - 1], tf[m - 1]) for m in (1, 2, 3)),
        )
        final, _ = simulate(sched)
        predicted = evaluate_ledger(ledger, th, tau, tf)
        assert 1.0 - fidelity(predicted, final) <= 1e-9


def test_infidelity_scales_second_order():
    spec = nearest_neighbor_spec(4)
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    th = np.array([0.9, 0.7, 1.1])
    tf = np.array([0.5, 0.8, 0.2])
    max_gap = max(spec.nearest_gaps)
    for rho in (100.0, 1000.0, 10000.0):
        d, tau = angles_to_widths(spec, th, rho)
        d_min = min(d)
        sched = PulseSchedule(
            spec,
            tuple(PulseCycle(m, d[m - 1], tau[m - 1], tf[m - 1]) for m in (1, 2, 3)),
        )
        final, _ = simulate(sched)
        predicted = evaluate_ledger(ledger, th, tau, tf)
        infid = 1.0 - fidelity(predicted, final)
        assert infid <= 10.0 * (max_gap / (2.0 * d_min)) ** 2


def test_evaluate_dimension_checks():
    ledger = forward_ledger(gap_to_ground_spec(3), LedgerMode.PHYSICAL)
    with pytest.raises(DimensionMismatch):
        evaluate_ledger(ledger, [0.1], [0, 0], [0, 0])
    with pytest.raises(DimensionMismatch):
        evaluate_ledger(ledger, [0.1, 0.2], [0], [0, 0])
    with pytest.raises(DimensionMismatch):
        paper_closed_form(gap_to_ground_spec(3), [0.1], [0, 0], [0, 0])


def test_ledger_dump_shape():
    ledger = forward_ledger(nearest_neighbor_spec(3), LedgerMode.PAPER)
    doc = ledger.to_dict()
    assert doc["mode"] == "paper"
    assert len(doc["levels"]) == 3
    assert doc["levels"][2]["magnitude_factors"] == ["sin(1)", "sin(2)"]
    assert doc["notes"]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(SystemKind)),
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_physical_norm_property(kind, n, data):
    spec = spec_for(kind, n)
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    th = np.array(
        [
            data.draw(st.floats(min_value=0.0, max_value=np.pi / 2))
            for _ in range(n - 1)
        ]
    )
    mags = ledger.magnitudes(th)
    assert np.isclose(np.sum(mags**2), 1.0, atol=1e-12)


def test_ledger_arrays_are_read_only():
    ledger = forward_ledger(nearest_neighbor_spec(3), LedgerMode.PHYSICAL)
    for arr in (ledger.factors, ledger.coeff_tau, ledger.coeff_tau_free, ledger.quarter_turns):
        with pytest.raises(ValueError):
            arr[0] = 0
