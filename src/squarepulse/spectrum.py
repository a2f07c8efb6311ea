"""Energy spectra of the controlled system and their classification.

Two gap patterns are supported: all nearest gaps equal except the first
(each control couples the ground level to a higher level), and all nearest
gaps pairwise distinct (each control couples a nearest-neighbor pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import GapStructureViolation, IndexOutOfRange, NonMonotonicSpectrum

DEFAULT_TOLERANCE = 1e-9


class SystemKind(Enum):
    GAP_TO_GROUND = "gap_to_ground"
    NEAREST_NEIGHBOR = "nearest_neighbor"


class SpectrumClass(Enum):
    GAP_TO_GROUND = "gap_to_ground"
    NEAREST_NEIGHBOR = "nearest_neighbor"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class SystemSpec:
    """A validated energy spectrum together with its coupling pattern.

    Energies are in units with hbar = 1 and are kept verbatim (no
    recentering).  Use :func:`validate_spectrum` to construct.
    """

    energies: tuple[float, ...]
    kind: SystemKind
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def nearest_gaps(self) -> tuple[float, ...]:
        e = self.energies
        return tuple(e[i + 1] - e[i] for i in range(len(e) - 1))

    def coupled_levels(self, m: int) -> tuple[int, int]:
        """0-based (low, high) level indices addressed by cycle ``m``."""
        if not 1 <= m <= self.n_levels - 1:
            raise IndexOutOfRange(f"cycle index {m} outside 1..{self.n_levels - 1}")
        if self.kind is SystemKind.GAP_TO_GROUND:
            return 0, m
        return m - 1, m


def _nearest_gaps(energies: Sequence[float]) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise NonMonotonicSpectrum("need at least two energy levels")
    if not np.all(np.isfinite(e)):  # NaN gaps would pass every check below
        raise NonMonotonicSpectrum(f"energies must be finite: {e.tolist()}")
    gaps = np.diff(e)
    if np.any(gaps <= 0):
        raise NonMonotonicSpectrum(f"energies not strictly increasing: {list(e)}")
    return gaps


def _matches_kind(gaps: np.ndarray, kind: SystemKind, tol: float) -> bool:
    scale = float(np.max(gaps))
    if kind is SystemKind.GAP_TO_GROUND:
        # first gap distinct, all later gaps equal (vacuous below N = 3 / 4)
        if gaps.size >= 2 and abs(gaps[0] - gaps[1]) <= tol * scale:
            return False
        if gaps.size >= 3:
            rest = gaps[1:]
            if np.max(rest) - np.min(rest) > tol * scale:
                return False
        return True
    # nearest-neighbor kind: all gaps pairwise distinct
    srt = np.sort(gaps)
    return bool(np.all(np.diff(srt) > tol * scale)) if gaps.size >= 2 else True


def validate_spectrum(
    energies: Sequence[float],
    kind: SystemKind,
    tol: float = DEFAULT_TOLERANCE,
) -> SystemSpec:
    """Check the gap pattern of ``energies`` against ``kind`` and wrap it.

    Raises NonMonotonicSpectrum for non-increasing energies and
    GapStructureViolation when the gap pattern does not fit ``kind`` at the
    relative tolerance ``tol``.
    """
    gaps = _nearest_gaps(energies)
    if not _matches_kind(gaps, kind, tol):
        raise GapStructureViolation(
            f"gaps {list(gaps)} do not match pattern {kind.value!r} at tol={tol}"
        )
    return SystemSpec(tuple(float(e) for e in energies), kind, tol)


def classify_spectrum(
    energies: Sequence[float], tol: float = DEFAULT_TOLERANCE
) -> SpectrumClass:
    """Report which kind invariants the spectrum satisfies."""
    gaps = _nearest_gaps(energies)
    as_i = _matches_kind(gaps, SystemKind.GAP_TO_GROUND, tol)
    as_ii = _matches_kind(gaps, SystemKind.NEAREST_NEIGHBOR, tol)
    if as_i and as_ii:
        return SpectrumClass.BOTH
    if as_i:
        return SpectrumClass.GAP_TO_GROUND
    if as_ii:
        return SpectrumClass.NEAREST_NEIGHBOR
    return SpectrumClass.NEITHER


def coupled_gap(spec: SystemSpec, m: int) -> float:
    """Transition frequency addressed by cycle ``m`` (always > 0)."""
    lo, hi = spec.coupled_levels(m)
    return spec.energies[hi] - spec.energies[lo]


def recenter(energies: Sequence[float]) -> list[float]:
    """Shift energies so they sum to zero (a global-phase change only)."""
    e = np.asarray(energies, dtype=float)
    return list(e - e.mean())
