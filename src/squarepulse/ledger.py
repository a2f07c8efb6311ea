"""Symbolic per-level amplitudes after the full cycle sequence.

Each level's amplitude is a product of sin/cos factors of the per-cycle
rotation angles times a phase that is linear in the pulse widths and
free-evolution times.  The ledger stores one row per level k:

    a_k = prod_i f_ki(theta_i)
          * exp(i (coeff_tau[k] . tau + coeff_tau_free[k] . tau_free
                   - quarter_turns[k] * pi/2)),

with f_ki one of 1, cos, sin.  A cycle adds at most one factor to a level,
so one column per cycle holds every factor list.  Two bookkeeping modes
exist:

* physical mode: spectator levels keep unit magnitude and every segment's
  phase is accumulated in one fixed lab frame, so the ledger is exactly
  unitary and its phases are directly comparable across cycles;
* paper mode: reproduces the published recursions verbatim, in which
  spectators pick up cosine factors and each cycle re-zeroes the energy
  origin of the driven pair.  Paper mode is generally not normalized and
  is kept for reproduction only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .spectrum import SystemKind, SystemSpec

HALF_TURN = np.pi / 2
_COS, _SIN = 1, 2  # factor codes; 0 is no factor


class LedgerMode(Enum):
    PAPER = "paper"
    PHYSICAL = "physical"


@dataclass(frozen=True, eq=False)
class AmplitudeLedger:
    """Read-only coefficient rows, one per level, over N-1 cycle columns.

    Row k gives prod_i f_ki(theta_i) * exp(i(coeff_tau[k].tau +
    coeff_tau_free[k].tau_free - quarter_turns[k]*pi/2)), where
    ``factors[k, i]`` is 0 (f = 1), 1 (cos) or 2 (sin) of angle i.
    """

    spec: SystemSpec
    mode: LedgerMode
    factors: np.ndarray  # (N, N-1) int8 codes
    coeff_tau: np.ndarray  # (N, N-1)
    coeff_tau_free: np.ndarray  # (N, N-1)
    quarter_turns: np.ndarray  # (N,)
    notes: tuple[str, ...] = ()

    @property
    def n_angles(self) -> int:
        return self.spec.n_levels - 1

    def magnitudes(self, theta: np.ndarray) -> np.ndarray:
        """Factor products of every level; angles (..., N-1) -> (..., N)."""
        th = np.asarray(theta, dtype=float)
        if th.shape[-1:] != (self.n_angles,):
            raise DimensionMismatch(f"expected {self.n_angles} angles, got {th.shape}")
        table = np.stack([np.ones_like(th), np.cos(th), np.sin(th)], axis=-1)
        return table[..., np.arange(self.n_angles), self.factors].prod(axis=-1)

    def phases(self, tau: Sequence[float], tau_free: Sequence[float]) -> np.ndarray:
        """Phase of every level at per-cycle pulse and free-evolution widths."""
        t = np.asarray(tau, dtype=float)
        tf = np.asarray(tau_free, dtype=float)
        if t.shape != (self.n_angles,) or tf.shape != (self.n_angles,):
            raise DimensionMismatch("duration lists do not match phase coefficients")
        return (
            self.coeff_tau @ t + self.coeff_tau_free @ tf - self.quarter_turns * HALF_TURN
        )

    def to_dict(self) -> dict:
        """JSON-ready dump with factor lists as strings like "cos(1)"."""
        names = ("", "cos", "sin")
        return {
            "mode": self.mode.value,
            "levels": [
                {
                    "magnitude_factors": [
                        f"{names[c]}({i})" for i, c in enumerate(row, start=1) if c
                    ],
                    "coeff_tau": ct.tolist(),
                    "coeff_tau_free": cf.tolist(),
                    "quarter_turns": int(q),
                }
                for row, ct, cf, q in zip(
                    self.factors, self.coeff_tau, self.coeff_tau_free, self.quarter_turns
                )
            ],
            "notes": list(self.notes),
        }


PAPER_INDEX_NOTE = (
    "printed closed-form cosine product for the ground-coupled system skips "
    "index k+1; the recursion requires skipping k-1, which is used here"
)
PAPER_POWER_NOTE = (
    "printed relative-phase prefactor mixes level indices; the power (-i)^(m-1) "
    "implied by the closed-form amplitudes is used"
)


def forward_ledger(spec: SystemSpec, mode: LedgerMode) -> AmplitudeLedger:
    """Propagate the ground state symbolically through all N-1 cycles.

    Cycle m branches its upper level off its lower one: the upper row
    starts as a copy of the lower row, then the lower level gains cos(m)
    and the upper level sin(m) and a quarter turn.  Levels not yet reached
    carry no amplitude and stay zero rows until they are branched into.
    """
    n = spec.n_levels
    e = np.asarray(spec.energies)
    factors = np.zeros((n, n - 1), dtype=np.int8)
    ct = np.zeros((n, n - 1))
    cf = np.zeros((n, n - 1))
    q = np.zeros(n, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True

    for i in range(n - 1):
        lo, hi = spec.coupled_levels(i + 1)
        factors[hi], ct[hi], cf[hi], q[hi] = factors[lo], ct[lo], cf[lo], q[lo] + 1
        factors[lo, i], factors[hi, i] = _COS, _SIN
        spectators = reached.copy()
        spectators[lo] = False
        ct[spectators, i] -= e[spectators]
        if mode is LedgerMode.PHYSICAL:
            mean = 0.5 * (e[lo] + e[hi])
            ct[lo, i] -= mean
            ct[hi, i] -= mean
        else:
            # published recursion: spectators also gain cosine factors; the
            # driven pair's pulse phase is dropped by the per-cycle
            # re-zeroing of the energy origin
            factors[spectators, i] = _COS
        reached[hi] = True
        cf[reached, i] -= e[reached]

    for arr in (factors, ct, cf, q):
        arr.flags.writeable = False
    notes: tuple[str, ...] = ()
    if mode is LedgerMode.PAPER:
        notes = (
            (PAPER_INDEX_NOTE, PAPER_POWER_NOTE)
            if spec.kind is SystemKind.GAP_TO_GROUND
            else (PAPER_POWER_NOTE,)
        )
    return AmplitudeLedger(spec, mode, factors, ct, cf, q, notes)


def evaluate_ledger(
    ledger: AmplitudeLedger,
    theta: Sequence[float],
    tau: Sequence[float],
    tau_free: Sequence[float],
) -> np.ndarray:
    """Numeric amplitudes at the given angles and durations.

    Physical-mode output is normalized by construction; paper-mode output
    is returned as-is and may not be.
    """
    return ledger.magnitudes(theta) * np.exp(1j * ledger.phases(tau, tau_free))


def paper_closed_form(
    spec: SystemSpec,
    theta: Sequence[float],
    tau: Sequence[float],
    tau_free: Sequence[float],
) -> np.ndarray:
    """Direct evaluation of the published closed-form target amplitudes.

    The ground-coupled system's cosine product skips the angle consumed as
    a sine (index k-1), resolving the printed index-set typo in favor of
    the recursion it was derived from.
    """
    n = spec.n_levels
    th = np.asarray(theta, dtype=float)
    t = np.asarray(tau, dtype=float)
    tp = np.asarray(tau_free, dtype=float)
    if th.size != n - 1 or t.size != n - 1 or tp.size != n - 1:
        raise DimensionMismatch(f"expected {n - 1} entries per list")
    e = np.asarray(spec.energies)
    cos, sin = np.cos(th), np.sin(th)
    amps = np.zeros(n, dtype=complex)

    if spec.kind is SystemKind.GAP_TO_GROUND:
        amps[0] = np.prod(cos) * np.exp(-1j * e[0] * np.sum(tp))
        for k in range(2, n + 1):  # 1-based target level
            mag = sin[k - 2] * np.prod(np.delete(cos, k - 2))
            phase = e[0] * np.sum(tp[: k - 2]) + e[k - 1] * (
                np.sum(t[k - 1 :]) + np.sum(tp[k - 2 :])
            )
            amps[k - 1] = -1j * mag * np.exp(-1j * phase)
    else:
        amps[0] = np.prod(cos) * np.exp(
            -1j * e[0] * (np.sum(t[1:]) + np.sum(tp))
        )
        for k in range(2, n):
            mag = np.prod(cos[k - 1 :]) * np.prod(sin[: k - 1])
            phase = e[k - 1] * (
                np.sum(t[k:]) + np.sum(tp[k:]) + tp[k - 1]
            ) + np.dot(e[1:k], tp[: k - 1])
            amps[k - 1] = (-1j) ** (k - 1) * mag * np.exp(-1j * phase)
        amps[n - 1] = (-1j) ** (n - 1) * np.prod(sin) * np.exp(
            -1j * np.dot(e[1:], tp)
        )
    return amps
