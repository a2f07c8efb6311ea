import numpy as np
import pytest

from squarepulse import (
    SystemKind,
    block_params,
    coupling_operator,
    drift_hamiltonian,
    validate_spectrum,
)
from squarepulse.errors import IndexOutOfRange, NonPositiveField

from conftest import gap_to_ground_spec, nearest_neighbor_spec


def test_drift_is_diagonal():
    spec = validate_spectrum([-0.5, 0.5], SystemKind.GAP_TO_GROUND)
    assert np.array_equal(drift_hamiltonian(spec), np.diag([-0.5, 0.5]))
    spec = validate_spectrum([0, 2, 3, 4], SystemKind.GAP_TO_GROUND)
    h = drift_hamiltonian(spec)
    assert np.array_equal(h, np.diag([0, 2, 3, 4]).astype(complex))
    assert np.trace(h) == sum(spec.energies)


def test_coupling_entries_gap_to_ground():
    spec = validate_spectrum([0, 2, 3], SystemKind.GAP_TO_GROUND)
    h = coupling_operator(spec, 2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[2, 0] = expected[0, 2] = 1.0
    assert np.array_equal(h, expected)


def test_coupling_entries_nearest_neighbor():
    spec = validate_spectrum([0, 1, 3], SystemKind.NEAREST_NEIGHBOR)
    h = coupling_operator(spec, 2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[2, 1] = expected[1, 2] = 1.0
    assert np.array_equal(h, expected)


def test_first_cycle_coupling_agrees_between_kinds():
    spec_i = validate_spectrum([0, 2, 3], SystemKind.GAP_TO_GROUND)
    spec_ii = validate_spectrum([0, 1, 3], SystemKind.NEAREST_NEIGHBOR)
    assert np.array_equal(coupling_operator(spec_i, 1), coupling_operator(spec_ii, 1))


def test_coupling_is_hermitian_and_squares_to_projector():
    for spec in (gap_to_ground_spec(5), nearest_neighbor_spec(5)):
        for m in range(1, 5):
            h = coupling_operator(spec, m)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14
            p = h @ h
            assert np.allclose(p @ p, p, atol=1e-14)
            diag = np.real(np.diag(p))
            assert np.count_nonzero(np.isclose(diag, 1.0)) == 2
            assert np.isclose(np.trace(p), 2.0)


def test_coupling_index_range():
    spec = gap_to_ground_spec(4)
    with pytest.raises(IndexOutOfRange):
        coupling_operator(spec, 4)


def test_drift_coupling_commutator_support():
    for spec in (gap_to_ground_spec(5), nearest_neighbor_spec(5)):
        h0 = 1j * drift_hamiltonian(spec)
        for m in range(1, 5):
            hm = 1j * coupling_operator(spec, m)
            comm = h0 @ hm - hm @ h0
            assert np.max(np.abs(comm + comm.conj().T)) < 1e-12
            lo, hi = spec.coupled_levels(m)
            mask = np.ones((5, 5), dtype=bool)
            for a in (lo, hi):
                for b in (lo, hi):
                    mask[a, b] = False
            assert np.max(np.abs(comm[mask])) == 0


def test_block_params_values():
    spec = validate_spectrum([-1, 1], SystemKind.GAP_TO_GROUND)
    p = block_params(spec, 1, 200.0)
    assert p.gap == 2.0
    assert p.mean_energy == 0.0
    assert np.isclose(p.rabi, np.sqrt(40001.0), rtol=0, atol=1e-12)

    spec = validate_spectrum([0, 1], SystemKind.GAP_TO_GROUND)
    p = block_params(spec, 1, 10.0)
    assert np.isclose(p.rabi, np.sqrt(100.25))
    assert p.mean_energy == 0.5


def test_block_params_invariants():
    spec = nearest_neighbor_spec(4)
    for m in range(1, 4):
        for d in (0.5, 3.0, 50.0):
            p = block_params(spec, m, d)
            assert np.isclose(p.rabi, np.hypot(p.gap / 2, p.field))
            assert p.rabi >= p.field
            assert p.rabi >= p.gap / 2


def test_block_params_large_field_limit():
    spec = validate_spectrum([0, 2], SystemKind.GAP_TO_GROUND)
    for d in (50.0, 500.0):
        p = block_params(spec, 1, d)
        rel = (p.rabi - d) / d
        assert rel <= (p.gap / (2 * d)) ** 2 / 2 + 1e-15


def test_block_params_rejects_nonpositive_field():
    spec = gap_to_ground_spec(3)
    with pytest.raises(NonPositiveField):
        block_params(spec, 1, 0.0)
    with pytest.raises(NonPositiveField):
        block_params(spec, 1, -1.0)
