"""Drift Hamiltonian, per-cycle coupling operators, and two-level block data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveField
from .spectrum import SystemSpec, coupled_gap


@dataclass(frozen=True)
class BlockParams:
    """Parameters of the two-level block driven during one cycle."""

    mean_energy: float  # midpoint of the coupled pair
    gap: float          # transition frequency of the pair
    rabi: float         # sqrt((gap/2)^2 + field^2)
    field: float


def drift_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Diagonal Hamiltonian with the spectrum's energies."""
    return np.diag(np.asarray(spec.energies, dtype=complex))


def coupling_operator(spec: SystemSpec, m: int) -> np.ndarray:
    """Real symmetric operator flipping the pair addressed by cycle ``m``."""
    lo, hi = spec.coupled_levels(m)
    h = np.zeros((spec.n_levels, spec.n_levels), dtype=complex)
    h[lo, hi] = 1.0
    h[hi, lo] = 1.0
    return h


def block_params(spec: SystemSpec, m: int, d: float) -> BlockParams:
    """Two-level block parameters for cycle ``m`` at field amplitude ``d``."""
    if d <= 0:
        raise NonPositiveField(f"field amplitude must be > 0, got {d}")
    lo, hi = spec.coupled_levels(m)
    gap = coupled_gap(spec, m)
    mean = 0.5 * (spec.energies[lo] + spec.energies[hi])
    rabi = float(np.hypot(0.5 * gap, d))
    return BlockParams(mean_energy=mean, gap=gap, rabi=rabi, field=float(d))
