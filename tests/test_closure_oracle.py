"""The array-based Lie closure against the per-vector loop it replaced.

``oracle_lie_closure`` is ``controllability.lie_closure`` as it was before
the basis moved into one array: it projects each candidate commutator with
a Python loop of ``np.dot`` calls (modified Gram-Schmidt, two passes) and
forms each commutator on its own.  It visits candidates in the same order
and applies the same ``tol`` tests, so both must return the same dimension,
depth and flags, and bases that agree to rounding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squarepulse import SystemKind, lie_closure, system_generators, validate_spectrum
from squarepulse.controllability import LieClosureResult
from squarepulse.errors import NotSkewHermitian

from conftest import random_unitary, spec_for

SKEW_ATOL = 1e-12


class MaxIterExceeded(Exception):
    """The oracle closure did not settle within its sweep budget."""


def _check_skew(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    dim = None
    for i, g in enumerate(mats):
        a = np.asarray(g, dtype=complex)
        if np.max(np.abs(a + a.conj().T)) > SKEW_ATOL:
            raise NotSkewHermitian(f"generator {i} is not skew-Hermitian to {SKEW_ATOL}")
        if dim is None:
            dim = a.shape[0]
        elif a.shape != (dim, dim):
            raise NotSkewHermitian("generators have mismatched dimensions")
        out.append(a)
    return out


def _flatten(mat: np.ndarray) -> np.ndarray:
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


def _unflatten(vec: np.ndarray, n: int) -> np.ndarray:
    half = n * n
    return vec[:half].reshape(n, n) + 1j * vec[half:].reshape(n, n)


def oracle_lie_closure(
    generators: Sequence[np.ndarray],
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> LieClosureResult:
    """Real Lie algebra generated by the given skew-Hermitian matrices.

    The basis is orthonormal under Re tr(A^dag B) and grown in a fixed
    insertion order, so the output is deterministic; the dimension itself
    is independent of generator order.  ``tol`` must be > 0.
    """
    if not tol > 0:  # NaN-safe; tol <= 0 would normalize zero vectors to NaN
        raise ValueError(f"tol must be > 0, got {tol}")
    gens = _check_skew(generators)
    n = gens[0].shape[0]
    traceless = all(abs(np.trace(g)) <= 1e-12 * max(1.0, np.max(np.abs(g))) for g in gens)
    max_dim = n * n - 1 if traceless else n * n

    basis_vecs: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []
    depths: list[int] = []

    def try_add(mat: np.ndarray, depth: int) -> bool:
        v = _flatten(mat)
        norm0 = np.linalg.norm(v)
        if norm0 <= tol:
            return False
        for _ in range(2):  # re-orthogonalization pass
            for b in basis_vecs:
                v = v - np.dot(b, v) * b
        if np.linalg.norm(v) <= tol * norm0:
            return False
        v = v / np.linalg.norm(v)
        basis_vecs.append(v)
        basis_mats.append(_unflatten(v, n))
        depths.append(depth)
        return True

    for g in gens:
        try_add(g, 0)

    k = 0
    while k < len(basis_mats) and len(basis_mats) < max_dim:
        if k >= max_iter:
            raise MaxIterExceeded(f"closure did not settle within {max_iter} sweeps")
        a = basis_mats[k]
        for j in range(len(basis_mats)):
            if len(basis_mats) >= max_dim:
                break
            comm = a @ basis_mats[j] - basis_mats[j] @ a
            try_add(comm, max(depths[k], depths[j]) + 1)
        k += 1

    identity_dir = _flatten(1j * np.eye(n) / np.sqrt(n))
    coeffs = np.array([np.dot(b, identity_dir) for b in basis_vecs])
    contains_identity = bool(np.linalg.norm(coeffs) > 0.5)

    dimension = len(basis_mats)
    effective = dimension - (1 if contains_identity else 0)
    return LieClosureResult(
        dimension=dimension,
        basis=tuple(basis_mats),
        fully_controllable=effective == n * n - 1,
        bracket_depth=max(depths, default=0),
        contains_identity=contains_identity,
    )


BASIS_ATOL = 1e-12


def assert_matches_oracle(gens, tol=1e-9):
    got, want = lie_closure(gens, tol=tol), oracle_lie_closure(gens, tol=tol)
    assert got.dimension == want.dimension
    assert got.bracket_depth == want.bracket_depth
    assert got.contains_identity == want.contains_identity
    assert got.fully_controllable == want.fully_controllable
    assert len(got.basis) == len(want.basis)
    for b_got, b_want in zip(got.basis, want.basis):
        assert np.max(np.abs(b_got - b_want)) <= BASIS_ATOL


@st.composite
def spectra(draw, kind, n):
    """Energies of ``kind`` with random offset, scale and gaps."""
    scale = draw(st.floats(min_value=0.25, max_value=4.0))
    if kind is SystemKind.GAP_TO_GROUND:
        first = draw(
            st.one_of(
                st.floats(min_value=0.2, max_value=0.8),
                st.floats(min_value=1.2, max_value=3.0),
            )
        )
        gaps = [first] + [1.0] * (n - 2)
    else:
        jitter = st.floats(min_value=-0.3, max_value=0.3)
        gaps = [i + draw(jitter) for i in range(1, n)]
    offset = draw(st.floats(min_value=-5.0, max_value=5.0))
    energies = offset + scale * np.concatenate([[0.0], np.cumsum(gaps)])
    return validate_spectrum(energies, kind)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(list(SystemKind)),
    n=st.integers(min_value=2, max_value=8),
    recentered=st.booleans(),
    data=st.data(),
)
def test_closure_matches_oracle(kind, n, recentered, data):
    # recentered=False leaves the drift's trace in: a non-traceless drift
    gens = system_generators(data.draw(spectra(kind, n)), recentered=recentered)
    layout = data.draw(st.sampled_from(["all", "subset", "paired"]))
    if layout == "subset":
        # a --generators subset: the drift plus some couplings, often uncontrollable
        keep = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
        gens = [gens[0]] + [gens[m] for m in sorted(keep)]
    elif layout == "paired" and n > 2:
        # each control drives two adjacent transitions; unlike single couplings,
        # brackets with elements found earlier in a sweep are new directions, so
        # the candidates a sweep tries decide the basis order
        gens = [gens[0]] + [gens[m] + gens[m + 1] for m in range(1, n - 1)]
    seed = data.draw(st.none() | st.integers(min_value=0, max_value=2**32 - 1))
    if seed is not None:
        u = random_unitary(np.random.default_rng(seed), n)
        gens = [u @ g @ u.conj().T for g in gens]
    assert_matches_oracle(gens)


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("recentered", [True, False])
def test_closure_matches_oracle_n10(kind, recentered):
    # the largest size the benchmark's closure workload runs
    rng = np.random.default_rng(10)
    if kind is SystemKind.GAP_TO_GROUND:
        gaps = [rng.uniform(1.5, 2.5)] + [1.0] * 8
    else:
        gaps = np.arange(1, 10) + rng.uniform(-0.25, 0.25, 9)
    spec = validate_spectrum(np.concatenate([[0.0], np.cumsum(gaps)]), kind)
    assert_matches_oracle(system_generators(spec, recentered=recentered))


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("delta", [1e-7, 3e-8, 1e-8])
def test_closure_matches_oracle_on_nearly_parallel_generators(kind, n, delta):
    # the second generator leaves the first's direction by only delta, just
    # above tol; one projection pass would leave its basis row about
    # eps/delta off orthogonal, and later brackets would slip past tol as
    # spurious directions
    drift, coupling = system_generators(spec_for(kind, n, centered=True))[:2]
    assert_matches_oracle([drift, drift + delta * coupling])


def test_closure_matches_oracle_past_n_squared_directions():
    # generators need be skew only to SKEW_ATOL; with a tiny tol their
    # Hermitian residue counts as new directions beyond the 4 of u(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    gens = [1j * sx, 1j * sy, 1j * sz, 1j * np.eye(2), 4e-13 * sx, 4e-13 * sz]
    assert lie_closure(gens, tol=1e-15).dimension == 6
    assert_matches_oracle(gens, tol=1e-15)
