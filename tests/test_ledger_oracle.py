"""The array ledger against the per-level recursion it replaced.

``oracle_forward_ledger`` is ``ledger.forward_ledger`` as it was before the
ledger became coefficient arrays: a mutable ``_Symbolic`` expression per
level, branched for the upper level of each cycle, frozen at the end into
one ``LevelAmplitude`` (factor list plus ``PhaseLinearForm``) per level.
Both run the same recursion with the same arithmetic, so their dumps must
be byte-identical and their amplitudes must agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from squarepulse import (
    LedgerMode,
    SystemKind,
    evaluate_ledger,
    forward_ledger,
    serialize,
    validate_spectrum,
)
from squarepulse.errors import DimensionMismatch
from squarepulse.ledger import PAPER_INDEX_NOTE, PAPER_POWER_NOTE
from squarepulse.spectrum import SystemSpec

HALF_TURN = np.pi / 2


@dataclass(frozen=True)
class PhaseLinearForm:
    """phase(tau, tau_free) = sum(ct*tau) + sum(cf*tau_free) - q*pi/2."""

    coeff_tau: tuple[float, ...]
    coeff_tau_free: tuple[float, ...]
    quarter_turns: int

    def evaluate(self, tau: Sequence[float], tau_free: Sequence[float]) -> float:
        if len(tau) != len(self.coeff_tau) or len(tau_free) != len(self.coeff_tau_free):
            raise DimensionMismatch("duration lists do not match phase coefficients")
        return (
            float(np.dot(self.coeff_tau, tau))
            + float(np.dot(self.coeff_tau_free, tau_free))
            - self.quarter_turns * HALF_TURN
        )


@dataclass(frozen=True)
class LevelAmplitude:
    """Magnitude factor list (("cos"|"sin", 1-based angle index)) plus phase."""

    factors: tuple[tuple[str, int], ...]
    phase: PhaseLinearForm

    def magnitude(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate the factor product; ``theta`` may be batched (..., N-1)."""
        th = np.asarray(theta, dtype=float)
        out = np.ones(th.shape[:-1])
        for kind, idx in self.factors:
            col = th[..., idx - 1]
            out = out * (np.cos(col) if kind == "cos" else np.sin(col))
        return out


@dataclass(frozen=True)
class OracleLedger:
    spec: SystemSpec
    mode: LedgerMode
    levels: tuple[LevelAmplitude, ...]
    notes: tuple[str, ...] = ()

    @property
    def n_angles(self) -> int:
        return self.spec.n_levels - 1

    def to_dict(self) -> dict:
        """JSON-ready dump with factor lists as strings like "cos(1)"."""
        return {
            "mode": self.mode.value,
            "levels": [
                {
                    "magnitude_factors": [f"{k}({i})" for k, i in lv.factors],
                    "coeff_tau": list(lv.phase.coeff_tau),
                    "coeff_tau_free": list(lv.phase.coeff_tau_free),
                    "quarter_turns": lv.phase.quarter_turns,
                }
                for lv in self.levels
            ],
            "notes": list(self.notes),
        }


class _Symbolic:
    """Mutable amplitude expression used while running the recursion."""

    __slots__ = ("factors", "ct", "cf", "q", "populated")

    def __init__(self, n_cycles: int, populated: bool) -> None:
        self.factors: list[tuple[str, int]] = []
        self.ct = np.zeros(n_cycles)
        self.cf = np.zeros(n_cycles)
        self.q = 0
        self.populated = populated

    def branch(self, n_cycles: int) -> "_Symbolic":
        child = _Symbolic(n_cycles, populated=True)
        child.factors = list(self.factors)
        child.ct = self.ct.copy()
        child.cf = self.cf.copy()
        child.q = self.q
        return child


def oracle_forward_ledger(spec: SystemSpec, mode: LedgerMode) -> OracleLedger:
    """Propagate the ground state symbolically through all N-1 cycles."""
    n = spec.n_levels
    n_cycles = n - 1
    energies = spec.energies
    levels = [_Symbolic(n_cycles, populated=(k == 0)) for k in range(n)]

    for m in range(1, n_cycles + 1):
        lo, hi = spec.coupled_levels(m)
        i = m - 1
        source = levels[lo]
        child = source.branch(n_cycles)
        child.factors.append(("sin", m))
        child.q += 1
        source.factors.append(("cos", m))

        if mode is LedgerMode.PHYSICAL:
            mean = 0.5 * (energies[lo] + energies[hi])
            for k, lv in enumerate(levels):
                if not lv.populated or k == hi:
                    continue
                lv.ct[i] -= mean if k == lo else energies[k]
            child.ct[i] -= mean
        else:
            # published recursion: spectators gain both cosine factors and
            # pulse-time phases; the driven pair's pulse phase is dropped
            # by the per-cycle re-zeroing of the energy origin
            for k, lv in enumerate(levels):
                if not lv.populated or k in (lo, hi):
                    continue
                lv.factors.append(("cos", m))
                lv.ct[i] -= energies[k]

        levels[hi] = child
        for k, lv in enumerate(levels):
            if lv.populated:
                lv.cf[i] -= energies[k]

    notes: tuple[str, ...] = ()
    if mode is LedgerMode.PAPER:
        notes = (
            (PAPER_INDEX_NOTE, PAPER_POWER_NOTE)
            if spec.kind is SystemKind.GAP_TO_GROUND
            else (PAPER_POWER_NOTE,)
        )
    return OracleLedger(
        spec=spec,
        mode=mode,
        levels=tuple(
            LevelAmplitude(
                factors=tuple(lv.factors),
                phase=PhaseLinearForm(tuple(lv.ct), tuple(lv.cf), lv.q),
            )
            for lv in levels
        ),
        notes=notes,
    )


def oracle_evaluate_ledger(
    ledger: OracleLedger,
    theta: Sequence[float],
    tau: Sequence[float],
    tau_free: Sequence[float],
) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.size != ledger.n_angles:
        raise DimensionMismatch(f"expected {ledger.n_angles} angles, got {th.size}")
    return np.array(
        [
            lv.magnitude(th) * np.exp(1j * lv.phase.evaluate(tau, tau_free))
            for lv in ledger.levels
        ],
        dtype=complex,
    )


def random_spec(kind, gaps, offset):
    """A valid spectrum of ``kind`` built from positive gap draws."""
    gaps = np.asarray(gaps, dtype=float)
    if kind is SystemKind.GAP_TO_GROUND:
        # the later gaps share one value; the first is at least 1.4 times it
        common = gaps[-1]
        first = common * (1.3 + gaps[0])
        gaps = np.concatenate([[first], np.full(gaps.size - 1, common)])
    else:
        gaps = np.cumsum(gaps)  # strictly increasing, so pairwise distinct
    return validate_spectrum(offset + np.concatenate([[0.0], np.cumsum(gaps)]), kind)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(SystemKind)),
    mode=st.sampled_from(list(LedgerMode)),
    n=st.integers(min_value=2, max_value=12),
    data=st.data(),
)
def test_ledger_matches_oracle(kind, mode, n, data):
    gaps = data.draw(st.lists(st.floats(0.1, 3.0), min_size=n - 1, max_size=n - 1))
    spec = random_spec(kind, gaps, data.draw(st.floats(-5.0, 5.0)))
    ledger = forward_ledger(spec, mode)
    oracle = oracle_forward_ledger(spec, mode)
    assert serialize.dumps(ledger.to_dict()) == serialize.dumps(oracle.to_dict())

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(5):
        th = rng.uniform(0.0, np.pi / 2, n - 1)
        tau = rng.uniform(0.0, 3.0, n - 1)
        tf = rng.uniform(0.0, 3.0, n - 1)
        got = evaluate_ledger(ledger, th, tau, tf)
        want = oracle_evaluate_ledger(oracle, th, tau, tf)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_batched_magnitudes_match_oracle(rng):
    for kind in SystemKind:
        for mode in LedgerMode:
            for n in (2, 5, 9):
                spec = random_spec(kind, rng.uniform(0.1, 3.0, n - 1), 0.0)
                thetas = rng.uniform(0.0, np.pi / 2, size=(4, 3, n - 1))
                got = forward_ledger(spec, mode).magnitudes(thetas)
                oracle = oracle_forward_ledger(spec, mode)
                want = np.stack([lv.magnitude(thetas) for lv in oracle.levels], axis=-1)
                assert got.shape == (4, 3, n)
                assert np.max(np.abs(got - want)) <= 1e-12
