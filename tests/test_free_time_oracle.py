"""The exact suffix-sum free-time solver against a brute-force oracle.

``enumerate_free_times`` solves the same congruences by brute force, for
small N: it scans a grid of 2*pi windings, with one ``linprog`` per winding
vector when some level is empty.  Its winding bound is set per case from
the suffix-sum solver's total T: any nonnegative solution of total <= T has
windings in 0..max|row| * T / 2*pi, so the grid covers every solution at
least as short as the one under test.
"""

import itertools

import numpy as np
from scipy.optimize import linprog

from squarepulse import (
    LedgerMode,
    SystemKind,
    angles_to_widths,
    forward_ledger,
    solve_angles,
    solve_free_times,
    validate_spectrum,
)
from squarepulse.errors import (
    DimensionMismatch,
    SingularPhaseSystem,
    WindingBoundExceeded,
)
from squarepulse.ledger import AmplitudeLedger

from conftest import random_target, spec_for

TWO_PI = 2.0 * np.pi
ZERO_THRESHOLD = 1e-10


def _wrap_nonpositive(x: float) -> float:
    """Reduce an angle into (-2*pi, 0]."""
    r = -(-x % TWO_PI)
    return r if r != -TWO_PI else 0.0


def enumerate_free_times(
    spec,
    ledger: AmplitudeLedger,
    theta,
    tau,
    d,
    target_phases,
    winding_bound: int = 8,
) -> tuple[float, ...]:
    """Nonnegative free-evolution times matching the target relative phases.

    ``target_phases[k-2]`` is the wanted phase of level k relative to level
    1 (``None`` for levels excluded by zero magnitude).  Each constraint is
    solved modulo 2*pi by scanning winding assignments up to the bound and
    keeping the feasible solution of least total duration (lexicographic
    winding order breaks ties).
    """
    n = spec.n_levels
    n_cycles = n - 1
    if len(target_phases) != n - 1:
        raise DimensionMismatch(f"expected {n - 1} relative phases")
    if ledger.mode is not LedgerMode.PHYSICAL:
        raise ValueError("free-time solving requires a physical-mode ledger")

    base = ledger.levels[0].phase
    base_const = float(np.dot(base.coeff_tau, tau)) - base.quarter_turns * np.pi / 2
    rows = []
    rhs0 = []
    for k, phi in zip(range(2, n + 1), target_phases):
        if phi is None:
            continue
        form = ledger.levels[k - 1].phase
        const = float(np.dot(form.coeff_tau, tau)) - form.quarter_turns * np.pi / 2
        rows.append(np.asarray(form.coeff_tau_free) - np.asarray(base.coeff_tau_free))
        rhs0.append(_wrap_nonpositive(float(phi) - (const - base_const)))
    n_c = len(rows)
    if n_c == 0:
        return (0.0,) * n_cycles

    delta = np.vstack(rows)
    psi = np.asarray(rhs0)
    scale = np.max(np.abs(delta))

    if n_c == n_cycles:
        if np.linalg.matrix_rank(delta, tol=1e-9 * scale) < n_cycles:
            raise SingularPhaseSystem("phase coefficient rows are rank deficient")
        inv = np.linalg.inv(delta)
        x0 = inv @ psi
        shift = -TWO_PI * inv  # per-unit-winding change of the solution
        grid = np.array(
            list(itertools.product(range(winding_bound + 1), repeat=n_c)), dtype=float
        )
        cand = x0[None, :] + grid @ shift.T
        feasible = np.all(cand >= -1e-12, axis=1)
        if not np.any(feasible):
            raise WindingBoundExceeded(
                f"no nonnegative solution within winding bound {winding_bound}"
            )
        sums = np.where(feasible, cand.sum(axis=1), np.inf)
        best = int(np.argmin(sums))  # first occurrence = lexicographic tie-break
        return tuple(np.clip(cand[best], 0.0, None))

    # under-determined: minimize total time subject to the congruences
    best_sol: np.ndarray | None = None
    best_sum = np.inf
    for winding in itertools.product(range(winding_bound + 1), repeat=n_c):
        rhs = psi - TWO_PI * np.asarray(winding, dtype=float)
        res = linprog(
            c=np.ones(n_cycles),
            A_eq=delta,
            b_eq=rhs,
            bounds=[(0.0, None)] * n_cycles,
            method="highs",
        )
        if res.status == 0 and res.fun < best_sum - 1e-12:
            best_sum = res.fun
            best_sol = res.x
    if best_sol is None:
        raise WindingBoundExceeded(
            f"no nonnegative solution within winding bound {winding_bound}"
        )
    return tuple(np.clip(best_sol, 0.0, None))


def relative_phases(target):
    """Target phases relative to level 0, as ``synthesize`` forms them."""
    mags = np.abs(target)
    ref = float(np.angle(target[0])) if mags[0] > ZERO_THRESHOLD else 0.0
    return [
        float(np.angle(target[k])) - ref if mags[k] > ZERO_THRESHOLD else None
        for k in range(1, target.size)
    ]


def ledger_phases(ledger, tau, tau_free):
    """Each level's ledger phase relative to level 0."""
    phases = [lv.phase.evaluate(tau, tau_free) for lv in ledger.levels]
    return np.array(phases[1:]) - phases[0]


def assert_matches_oracle(spec, target):
    ledger = forward_ledger(spec, LedgerMode.PHYSICAL)
    theta = solve_angles(spec.kind, np.abs(target), ZERO_THRESHOLD)
    d, tau = angles_to_widths(spec, theta, 100.0)
    phases = relative_phases(target)

    got = solve_free_times(spec, ledger, tau, phases)
    cf = np.array([lv.phase.coeff_tau_free for lv in ledger.levels])
    bound = int(np.max(np.abs(cf[1:] - cf[0])) * sum(got) / TWO_PI) + 1
    want = enumerate_free_times(spec, ledger, theta, tau, d, phases, bound)

    assert min(got) >= 0.0
    assert abs(sum(got) - sum(want)) <= 1e-9
    diff = ledger_phases(ledger, tau, got) - ledger_phases(ledger, tau, want)
    for k, phi in enumerate(phases):
        if phi is not None:
            assert abs(np.angle(np.exp(1j * diff[k]))) <= 1e-9


def test_dense_targets_match_oracle(rng):
    for kind in SystemKind:
        for n in (2, 3, 4, 5):
            spec = spec_for(kind, n)
            for _ in range(10):
                assert_matches_oracle(spec, random_target(rng, n))


def test_dense_targets_on_jittered_spectra_match_oracle(rng):
    for _ in range(10):
        gaps = np.arange(1.0, 5.0) + rng.uniform(-0.4, 0.4, 4)
        spec = validate_spectrum(np.concatenate([[0.0], np.cumsum(gaps)]),
                                 SystemKind.NEAREST_NEIGHBOR)
        assert_matches_oracle(spec, random_target(rng, 5))
        g = rng.uniform(0.5, 2.0)
        gaps = [g * rng.uniform(1.3, 3.0)] + [g] * 3
        spec = validate_spectrum(np.concatenate([[0.0], np.cumsum(gaps)]),
                                 SystemKind.GAP_TO_GROUND)
        assert_matches_oracle(spec, random_target(rng, 5))


def test_empty_level_patterns_match_oracle(rng):
    # every pattern with at least one empty level and one populated level,
    # so interior nearest_neighbor empties and an empty level 1 both occur
    for kind in SystemKind:
        for n in (3, 4):
            spec = spec_for(kind, n)
            for empty in itertools.product((False, True), repeat=n):
                if not any(empty) or all(empty):
                    continue
                for _ in range(3):
                    target = random_target(rng, n)
                    target[list(empty)] = 0.0
                    target /= np.linalg.norm(target)
                    assert_matches_oracle(spec, target)
