import numpy as np
import pytest

from squarepulse import SystemKind, recenter, validate_spectrum


def gap_to_ground_spec(n, centered=False):
    gaps = [2.0] + [1.0] * (n - 2)
    e = np.concatenate([[0.0], np.cumsum(gaps)])
    if centered:
        e = recenter(e)
    return validate_spectrum(e, SystemKind.GAP_TO_GROUND)


def nearest_neighbor_spec(n, centered=False):
    gaps = [float(i) for i in range(1, n)]
    e = np.concatenate([[0.0], np.cumsum(gaps)])
    if centered:
        e = recenter(e)
    return validate_spectrum(e, SystemKind.NEAREST_NEIGHBOR)


def spec_for(kind, n, centered=False):
    if kind is SystemKind.GAP_TO_GROUND:
        return gap_to_ground_spec(n, centered)
    return nearest_neighbor_spec(n, centered)


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_target(rng, n):
    probs = rng.dirichlet(np.ones(n))
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.sqrt(probs) * np.exp(1j * phases)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
