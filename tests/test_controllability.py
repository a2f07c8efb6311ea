import numpy as np
import pytest

from squarepulse import (
    SystemKind,
    chevalley_witness,
    coupling_operator,
    drift_hamiltonian,
    is_completely_controllable,
    lie_closure,
    system_generators,
    validate_spectrum,
)
from squarepulse.errors import NotSkewHermitian, WitnessMismatch

from conftest import spec_for

SU_DIMS = {2: 3, 3: 8, 4: 15, 5: 24, 6: 35}


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_diagonal_generator_alone():
    res = lie_closure([1j * np.diag([-0.5, 0.5])])
    assert res.dimension == 1
    assert not res.fully_controllable
    assert res.bracket_depth == 0


def test_two_level_closure_by_hand():
    gens = [1j * np.diag([-0.5, 0.5]), 1j * np.array([[0, 1], [1, 0]], dtype=complex)]
    res = lie_closure(gens)
    assert res.dimension == 3
    assert res.fully_controllable
    # the closure spans the three traceless directions
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    span = np.array(
        [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in res.basis]
    )
    for target in (1j * sx, 1j * sy, 1j * sz):
        v = np.concatenate([target.real.ravel(), target.imag.ravel()])
        proj = span.T @ (span @ v)
        assert np.linalg.norm(v - proj) <= 1e-9 * np.linalg.norm(v)


def test_closure_dimensions_all_sizes():
    for kind in SystemKind:
        for n in range(2, 7):
            spec = spec_for(kind, n, centered=True)
            res = lie_closure(system_generators(spec))
            assert res.dimension == SU_DIMS[n]
            assert res.fully_controllable


def test_closure_basis_skew_hermitian():
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 4, centered=True)
    res = lie_closure(system_generators(spec))
    for b in res.basis:
        assert np.max(np.abs(b + b.conj().T)) <= 1e-12


def test_closure_invariant_under_generator_recombination(rng):
    spec = spec_for(SystemKind.GAP_TO_GROUND, 4, centered=True)
    gens = system_generators(spec)
    dim0 = lie_closure(gens).dimension
    coeffs = rng.normal(size=(len(gens), len(gens)))
    while abs(np.linalg.det(coeffs)) < 1e-3:
        coeffs = rng.normal(size=(len(gens), len(gens)))
    mixed = [sum(c * g for c, g in zip(row, gens)) for row in coeffs]
    assert lie_closure(mixed).dimension == dim0


def test_closure_invariant_under_unitary_conjugation(rng):
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 3, centered=True)
    gens = system_generators(spec)
    dim0 = lie_closure(gens).dimension
    for _ in range(5):
        u = random_unitary(rng, 3)
        conj = [u @ g @ u.conj().T for g in gens]
        assert lie_closure(conj).dimension == dim0


def test_non_traceless_drift_flagged():
    spec = validate_spectrum([0, 2, 3], SystemKind.GAP_TO_GROUND)
    gens = [1j * drift_hamiltonian(spec)] + [
        1j * coupling_operator(spec, m) for m in (1, 2)
    ]
    res = lie_closure(gens)
    assert res.contains_identity
    assert res.dimension == 9
    assert res.fully_controllable


def test_rejects_non_skew_input():
    with pytest.raises(NotSkewHermitian):
        lie_closure([np.array([[0, 1], [1, 0]], dtype=complex)])


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_rejects_nonpositive_tolerance(tol):
    # with tol <= 0 zero vectors were normalized to NaN and counted as new
    # directions, so a starved generator set read as fully controllable
    gens = system_generators(spec_for(SystemKind.NEAREST_NEIGHBOR, 3))[:2]
    with pytest.raises(ValueError, match="tol"):
        lie_closure(gens, tol=tol)


def test_witness_nearest_neighbor_uses_generators_directly():
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 4)
    recipes = chevalley_witness(spec)
    for m, rec in enumerate(recipes, start=1):
        assert rec.x_recipe == f"iH_{m}"
        assert np.allclose(rec.ix, 1j * coupling_operator(spec, m), atol=1e-12)


def test_witness_gap_to_ground_bracket_ladder():
    spec = validate_spectrum([0, 2, 3], SystemKind.GAP_TO_GROUND)
    recipes = chevalley_witness(spec)
    iy2 = recipes[1].iy
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2] = 1.0
    expected[2, 1] = -1.0
    assert np.allclose(iy2, expected, atol=1e-12)
    assert recipes[1].y_recipe == "[iH_2, iH_1]"


def test_witness_targets_all_sizes():
    for kind in SystemKind:
        for n in range(2, 7):
            recipes = chevalley_witness(spec_for(kind, n))
            assert len(recipes) == n - 1
            for m, rec in enumerate(recipes, start=1):
                ih = np.zeros((n, n), dtype=complex)
                ih[m - 1, m - 1] = 1j
                ih[m, m] = -1j
                assert np.allclose(rec.ih, ih, atol=1e-9)


def test_witness_span_within_closure():
    spec = spec_for(SystemKind.GAP_TO_GROUND, 4, centered=True)
    res = lie_closure(system_generators(spec))
    span = np.array(
        [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in res.basis]
    )
    count = 0
    for rec in chevalley_witness(spec):
        for mat in (rec.ix, rec.iy, rec.ih):
            v = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
            proj = span.T @ (span @ v)
            assert np.linalg.norm(v - proj) <= 1e-9 * np.linalg.norm(v)
            count += 1
    assert count == 9


def test_witness_mismatch_on_degenerate_gap():
    from squarepulse import SystemSpec

    # constructed directly to bypass validation: a vanished nearest gap
    # makes the scaled bracket recipes blow up
    degenerate = SystemSpec((0.0, 1.0, 1.0, 2.0), SystemKind.GAP_TO_GROUND, 1e-9)
    with pytest.raises(WitnessMismatch):
        chevalley_witness(degenerate)


def test_is_completely_controllable():
    assert is_completely_controllable(
        validate_spectrum([0, 2, 3, 4], SystemKind.GAP_TO_GROUND)
    )
    assert is_completely_controllable(
        validate_spectrum([0, 1, 3, 6], SystemKind.NEAREST_NEIGHBOR)
    )
    assert is_completely_controllable(
        validate_spectrum([-0.5, 0.5], SystemKind.GAP_TO_GROUND)
    )
