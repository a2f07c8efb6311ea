"""Lie-algebraic controllability: closure computation and basis witness.

The closure of {i*H_drift, i*H_couplings} is grown by iterated
commutators.  Its orthonormal basis lives as flattened real rows of one
preallocated array: each sweep forms all its commutators in one batched
product, and each candidate's independence test is a two-pass projection,
two matrix-vector products against the basis rows.  A constructive witness
builds the adjacent-pair su(N) generators from explicit nested brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotSkewHermitian, WitnessMismatch
from .operators import coupling_operator, drift_hamiltonian
from .spectrum import SystemKind, SystemSpec, recenter, validate_spectrum

SKEW_ATOL = 1e-12
WITNESS_ATOL = 1e-9


@dataclass(frozen=True)
class LieClosureResult:
    dimension: int
    basis: tuple[np.ndarray, ...]
    fully_controllable: bool
    bracket_depth: int
    contains_identity: bool = False


@dataclass(frozen=True)
class ChevalleyRecipe:
    """Bracket recipes for one adjacent pair (n, n+1), with evaluations."""

    n: int
    x_recipe: str
    y_recipe: str
    h_recipe: str
    ix: np.ndarray
    iy: np.ndarray
    ih: np.ndarray


def _check_skew(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    dim = None
    for i, g in enumerate(mats):
        a = np.asarray(g, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise NotSkewHermitian(f"generator {i} is not a non-empty square matrix")
        # a NaN residual fails `<=`; checking finiteness first also keeps
        # inf - inf from raising numpy's invalid-value warning
        if not (np.all(np.isfinite(a)) and np.max(np.abs(a + a.conj().T)) <= SKEW_ATOL):
            raise NotSkewHermitian(f"generator {i} is not skew-Hermitian to {SKEW_ATOL}")
        if dim is None:
            dim = a.shape[0]
        elif a.shape != (dim, dim):
            raise NotSkewHermitian("generators have mismatched dimensions")
        out.append(a)
    if not out:
        raise ValueError("no generators")
    return out


def _flatten(mats: np.ndarray) -> np.ndarray:
    """Real rows [Re | Im] of shape (..., 2n^2) for matrices of shape (..., n, n)."""
    lead = mats.shape[:-2]
    return np.concatenate(
        [mats.real.reshape(*lead, -1), mats.imag.reshape(*lead, -1)], axis=-1
    )


def _unflatten(vecs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``_flatten``: (..., 2n^2) real rows to (..., n, n) matrices."""
    half = n * n
    lead = vecs.shape[:-1]
    return vecs[..., :half].reshape(*lead, n, n) + 1j * vecs[..., half:].reshape(
        *lead, n, n
    )


def lie_closure(
    generators: Sequence[np.ndarray],
    tol: float = 1e-9,
) -> LieClosureResult:
    """Real Lie algebra generated by the given skew-Hermitian matrices.

    The basis is orthonormal under Re tr(A^dag B) and grown in a fixed
    insertion order, so the output is deterministic; the dimension itself
    is independent of generator order.  ``tol`` must be > 0.

    The generators are tried first, then sweep ``k`` tries the brackets
    [b_k, b_j] for every j below the basis size at the sweep's start, in
    order of j.  A candidate joins the basis when its norm exceeds ``tol``
    and its residual after projection onto the basis exceeds ``tol`` times
    that norm.  The projection is classical Gram-Schmidt run twice, two
    matrix-vector products against the basis rows each, which keeps the
    basis orthogonal to rounding ("twice is enough": Giraud, Langou,
    Rozloznik and van den Eshof, Numer. Math. 101, 87 (2005)).
    """
    if not tol > 0:  # NaN-safe; tol <= 0 would normalize zero vectors to NaN
        raise ValueError(f"tol must be > 0, got {tol}")
    gens = _check_skew(generators)
    n = gens[0].shape[0]
    traceless = all(abs(np.trace(g)) <= 1e-12 * max(1.0, np.max(np.abs(g))) for g in gens)
    max_dim = n * n - 1 if traceless else n * n

    # Orthonormal basis in rows [:len(depths)].  Skew-Hermitian matrices span
    # n^2 real dimensions, but generators are skew only to SKEW_ATOL, so with
    # a tiny tol their Hermitian residue can add rows up to the full 2n^2.
    q = np.empty((2 * n * n, 2 * n * n))
    depths: list[int] = []

    def try_add(v: np.ndarray, depth: int) -> None:
        norm0 = np.linalg.norm(v)
        if norm0 <= tol:
            return
        basis = q[: len(depths)]
        for _ in range(2):
            v = v - (basis @ v) @ basis
        norm = np.linalg.norm(v)
        if norm <= tol * norm0:
            return
        q[len(depths)] = v / norm
        depths.append(depth)

    for g in gens:
        try_add(_flatten(g), 0)

    k = 0
    while k < len(depths) and len(depths) < max_dim:
        mats = _unflatten(q[: len(depths)], n)  # this sweep's candidates, fixed now
        comms = _flatten(mats[k] @ mats - mats @ mats[k])
        for j, comm in enumerate(comms):
            if len(depths) >= max_dim:
                break
            try_add(comm, max(depths[k], depths[j]) + 1)
        k += 1

    dimension = len(depths)
    identity_dir = _flatten(1j * np.eye(n) / np.sqrt(n))
    contains_identity = bool(np.linalg.norm(q[:dimension] @ identity_dir) > 0.5)
    effective = dimension - (1 if contains_identity else 0)
    return LieClosureResult(
        dimension=dimension,
        basis=tuple(_unflatten(v, n) for v in q[:dimension]),
        fully_controllable=effective == n * n - 1,
        bracket_depth=max(depths, default=0),
        contains_identity=contains_identity,
    )


def _pair_targets(n_pair: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Target generators ix, iy, ih for the (n, n+1) pair (1-based)."""
    a, b = n_pair - 1, n_pair
    ix = np.zeros((dim, dim), dtype=complex)
    ix[a, b] = 1j
    ix[b, a] = 1j
    iy = np.zeros((dim, dim), dtype=complex)
    iy[a, b] = 1.0
    iy[b, a] = -1.0
    ih = np.zeros((dim, dim), dtype=complex)
    ih[a, a] = 1j
    ih[b, b] = -1j
    return ix, iy, ih


def chevalley_witness(spec: SystemSpec) -> list[ChevalleyRecipe]:
    """Concrete bracket recipes producing the adjacent-pair su(N) generators.

    For nearest-neighbor coupling each i*H_n is already the pair's x
    generator; for ground coupling the pair generators are reached through
    the commutator ladder [[iH_n, iH_{n-1}], iH_0] scaled by the nearest
    gap.
    """
    n = spec.n_levels
    ih0 = 1j * drift_hamiltonian(spec)
    ihm = [1j * coupling_operator(spec, m) for m in range(1, n)]
    gaps = spec.nearest_gaps

    recipes = []
    for m in range(1, n):
        mu = gaps[m - 1]
        if mu == 0:
            raise WitnessMismatch(f"nearest gap mu_{m} vanishes; recipes undefined")
        if spec.kind is SystemKind.NEAREST_NEIGHBOR:
            ix = ihm[m - 1]
            x_recipe = f"iH_{m}"
            iy = (ih0 @ ix - ix @ ih0) / mu
            y_recipe = f"[iH_0, iH_{m}] / mu_{m}"
        elif m == 1:
            ix = ihm[0]
            x_recipe = "iH_1"
            iy = (ih0 @ ix - ix @ ih0) / mu
            y_recipe = "[iH_0, iH_1] / mu_1"
        else:
            inner = ihm[m - 1] @ ihm[m - 2] - ihm[m - 2] @ ihm[m - 1]
            iy = inner
            y_recipe = f"[iH_{m}, iH_{m - 1}]"
            ix = (inner @ ih0 - ih0 @ inner) / mu
            x_recipe = f"[[iH_{m}, iH_{m - 1}], iH_0] / mu_{m}"
        ih = -(ix @ iy - iy @ ix) / 2.0
        h_recipe = f"-[ix_{m}, iy_{m}] / 2"

        tx, ty, th = _pair_targets(m, n)
        for got, want, label in ((ix, tx, "x"), (iy, ty, "y"), (ih, th, "h")):
            resid = np.max(np.abs(got - want))
            if not resid <= WITNESS_ATOL:  # NaN-safe: degenerate gaps divide to NaN
                raise WitnessMismatch(
                    f"recipe for i{label}_{m} missed its target beyond {WITNESS_ATOL}"
                )
        recipes.append(
            ChevalleyRecipe(
                n=m,
                x_recipe=x_recipe,
                y_recipe=y_recipe,
                h_recipe=h_recipe,
                ix=ix,
                iy=iy,
                ih=ih,
            )
        )
    return recipes


def system_generators(spec: SystemSpec, recentered: bool = True) -> list[np.ndarray]:
    """Skew-Hermitian generator set {i*H_drift, i*H_m} for the spec."""
    base = spec
    if recentered:
        base = validate_spectrum(recenter(spec.energies), spec.kind, spec.tolerance)
    gens = [1j * drift_hamiltonian(base)]
    gens.extend(1j * coupling_operator(spec, m) for m in range(1, spec.n_levels))
    return gens


def is_completely_controllable(spec: SystemSpec) -> bool:
    """True iff the generated algebra has the full traceless dimension."""
    result = lie_closure(system_generators(spec, recentered=True))
    return result.dimension == spec.n_levels**2 - 1
