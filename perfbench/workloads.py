"""The four benchmark workloads: seeded inputs, the timed op and its check.

Inputs are generated with numpy alone, before squarepulse is imported, so
set-up time excludes them.  A workload object is used in this order:

1. ``Workload(seed, n_ops, workdir)`` generates ``n_ops`` inputs plus a few
   warm-up inputs from their own seed stream;
2. ``setup(sp)`` validates the workload's spectra (counted in set-up time);
   items name a shared spectrum by its ``(kind, N)`` key;
3. per op: ``stage(item)`` prepares untimed, ``run(staged)`` is the timed
   op, ``check(i, staged, out)`` verifies the output untimed.

``run`` lets a ``ControlError`` escape and raises ``OpFailed`` for a nonzero
CLI exit code; the caller counts either as a failed op.

Spectra follow the test suite's reference families with seeded jitter:
gap_to_ground gaps are [g1, g, g, ...] with g1 != g, and nearest_neighbor
gaps are k + U[-0.25, 0.25] for k = 1..N-1, so they stay pairwise distinct.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np

G2G = "gap_to_ground"
NN = "nearest_neighbor"
KINDS = (G2G, NN)
RHO = 100.0  # field ratio d_m / gap_m, the synthesis default
FIDELITY_FLOOR = 1.0 - 10.0 / (2.0 * RHO) ** 2 - 1e-6
FIDELITY_MATCH = 1e-12
NORM_ATOL = 1e-10
ORACLE_ATOL = 1e-9


class OpFailed(Exception):
    """The op reported failure without raising a ControlError."""


def energies(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == G2G:
        g = rng.uniform(0.8, 1.2)
        gaps = np.array([g * rng.uniform(1.5, 2.5)] + [g] * (n - 2))
    else:
        gaps = np.arange(1, n) + rng.uniform(-0.25, 0.25, n - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def coupled_gaps(e: np.ndarray, kind: str) -> np.ndarray:
    """Transition frequency of each cycle m = 1..N-1."""
    return e[1:] - e[0] if kind == G2G else np.diff(e)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def synthesis_ok(target: np.ndarray, final: np.ndarray, reported: float) -> bool:
    """Simulated overlap matches the reported fidelity and clears the floor."""
    fid = abs(np.vdot(target, final)) ** 2
    return abs(fid - reported) <= FIDELITY_MATCH and fid >= FIDELITY_FLOOR


def oracle_final_state(e: np.ndarray, kind: str, d, tau, tau_free) -> np.ndarray:
    """Final state by dense eigendecomposition of each pulse Hamiltonian.

    Independent of the package's closed-form propagator: each pulse segment
    is exp(-i H t) of the full N x N Hamiltonian diag(E) + d_m (|lo><hi| + h.c.),
    and free flight multiplies by the exact diagonal phases exp(-i E t).
    """
    n = e.size
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    for m in range(1, n):
        lo, hi = (0, m) if kind == G2G else (m - 1, m)
        h = np.diag(e).astype(complex)
        h[lo, hi] = h[hi, lo] = d[m - 1]
        w, v = np.linalg.eigh(h)
        psi = v @ (np.exp(-1j * w * tau[m - 1]) * (v.conj().T @ psi))
        psi = np.exp(-1j * e * tau_free[m - 1]) * psi
    return psi


class Workload:
    """Seeded input pool; op ``i`` uses ``items[i % len(items)]``."""

    name = ""
    n_warmup = 0
    # A generous upper bound on ops per second, used only to size the pool
    # so that no input repeats within a run.
    pool_rate = 100

    def __init__(self, seed: int, n_ops: int, workdir: str) -> None:
        self.workdir = workdir
        rng = np.random.default_rng([seed, 0])
        self.spec_energies = self.make_specs(rng)
        self.items = self.make(rng, n_ops)
        self.warmup = self.make(np.random.default_rng([seed, 1]), self.n_warmup)

    def make_specs(self, rng: np.random.Generator) -> dict:
        """Energies of the spectra shared by all ops, keyed as items name them."""
        return {}

    def make(self, rng: np.random.Generator, count: int) -> list:
        raise NotImplementedError

    def validate_specs(self) -> dict:
        return {
            key: self.sp.validate_spectrum(e, self.sp.SystemKind(key[0]))
            for key, e in self.spec_energies.items()
        }

    def setup(self, sp) -> None:
        self.sp = sp

    def stage(self, item):
        return item

    def run(self, staged):
        raise NotImplementedError

    def check(self, i: int, staged, out) -> bool:
        raise NotImplementedError

    def corrupt(self, out):
        """Return a wrong version of ``out``; used to prove the check bites."""
        raise NotImplementedError


class CliRoundtrip(Workload):
    """``synth`` then ``simulate --samples 10 --trajectory`` through cli.main.

    N=4, kinds alternate.  One op in six leaves one of levels 2..N empty,
    rotating which, so that op takes the linprog free-time path.  (An empty
    level 1 only moves the reference phase and stays on the grid path.)
    """

    name = "cli_roundtrip"
    pool_rate = 300
    n_levels = 4
    n_warmup = 12  # covers both kinds on both paths

    def make_specs(self, rng):
        return {(k, self.n_levels): energies(rng, k, self.n_levels) for k in KINDS}

    def make(self, rng, count):
        items = []
        for i in range(count):
            psi = random_state(rng, self.n_levels)
            if i % 12 in (4, 11):
                psi[1 + (i // 6) % (self.n_levels - 1)] = 0.0
                psi /= np.linalg.norm(psi)
            items.append(((KINDS[i % 2], self.n_levels), psi))
        return items

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, sp) -> None:
        super().setup(sp)
        from squarepulse import cli

        self.cli = cli
        self.specs = self.validate_specs()
        for (kind, _), e in self.spec_energies.items():
            with open(self._path(f"spec_{kind}.json"), "w") as fh:
                json.dump({"energies": e.tolist(), "kind": kind}, fh)

    def stage(self, item):
        key, psi = item
        with open(self._path("target.json"), "w") as fh:
            json.dump({"amplitudes": [[a.real, a.imag] for a in psi]}, fh)
        spec = self._path(f"spec_{key[0]}.json")
        report = self._path("report.json")
        synth = ["synth", "--spec", spec, "--target", self._path("target.json"),
                 "--out", report]
        simulate = ["simulate", "--spec", spec, "--schedule", report,
                    "--samples", "10", "--trajectory", self._path("traj.csv")]
        return key, psi, synth, simulate

    def run(self, staged):
        _, _, synth, simulate = staged
        sim_out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(synth)
            if code == 0:
                with contextlib.redirect_stdout(sim_out):
                    code = self.cli.main(simulate)
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return sim_out.getvalue()

    def check(self, i, staged, out) -> bool:
        key, psi, _, _ = staged
        sp = self.sp
        with open(self._path("report.json")) as fh:
            report = json.load(fh)
        schedule = sp.PulseSchedule(
            self.specs[key],
            tuple(sp.PulseCycle(c["m"], c["d"], c["tau"], c["tau_free"])
                  for c in report["cycles"]),
        )
        final, _ = sp.simulate(schedule)
        printed = np.array([complex(*a) for a in json.loads(out)["amplitudes"]])
        with open(self._path("traj.csv")) as fh:
            rows = np.array([[float(x) for x in line.split(",")]
                             for line in fh.read().splitlines()[1:]])
        last = rows[-1, 1::2] + 1j * rows[-1, 2::2]
        return (
            synthesis_ok(psi, final, report["fidelity"])
            and np.max(np.abs(printed - final)) <= FIDELITY_MATCH
            and bool(np.all(np.diff(rows[:, 0]) > 0))
            and np.array_equal(last, printed)
        )

    def corrupt(self, out):
        doc = json.loads(out)
        doc["amplitudes"][0][0] += 1e-6
        return json.dumps(doc)


class SynthN7(Workload):
    """``synthesize`` at N=7, rho=100, dense random targets, kinds alternating."""

    name = "synth_n7"
    pool_rate = 20
    n_levels = 7
    n_warmup = 2

    def make_specs(self, rng):
        return {(k, self.n_levels): energies(rng, k, self.n_levels) for k in KINDS}

    def make(self, rng, count):
        return [
            ((KINDS[i % 2], self.n_levels), random_state(rng, self.n_levels))
            for i in range(count)
        ]

    def setup(self, sp) -> None:
        super().setup(sp)
        self.specs = self.validate_specs()
        self.options = sp.SynthesisOptions(field_ratio=RHO)

    def run(self, staged):
        key, psi = staged
        return self.sp.synthesize(self.specs[key], psi, self.options)

    def check(self, i, staged, out) -> bool:
        final, _ = self.sp.simulate(out.schedule)
        return synthesis_ok(staged[1], final, out.fidelity)

    def corrupt(self, out):
        return replace(out, fidelity=out.fidelity - 1e-6)


class SimulateTraj(Workload):
    """``simulate(schedule, samples_per_segment=4)`` on random schedules.

    Four ops in five at N=40, one in five at N=160, kinds alternating.
    d_m = rho * gap_m, tau_m = theta / Omega_m with theta ~ U[0, pi/2],
    tau_free ~ U[0, 1].  Every 16th op is also checked against the oracle.
    """

    name = "simulate_traj"
    n_warmup = 5
    samples = 4
    oracle_every = 16

    def make_specs(self, rng):
        return {(k, n): energies(rng, k, n) for n in (40, 160) for k in KINDS}

    def make(self, rng, count):
        items = []
        for i in range(count):
            key = (KINDS[i % 2], 160 if i % 5 == 4 else 40)
            gap = coupled_gaps(self.spec_energies[key], key[0])
            d = RHO * gap
            theta = rng.uniform(0.0, np.pi / 2, gap.size)
            tau = theta / np.hypot(0.5 * gap, d)
            items.append((key, d, tau, rng.uniform(0.0, 1.0, gap.size)))
        return items

    def setup(self, sp) -> None:
        super().setup(sp)
        self.specs = self.validate_specs()

    def stage(self, item):
        key, d, tau, tau_free = item
        cycles = tuple(
            self.sp.PulseCycle(m, float(d[m - 1]), float(tau[m - 1]), float(tau_free[m - 1]))
            for m in range(1, d.size + 1)
        )
        return item, self.sp.PulseSchedule(self.specs[key], cycles)

    def run(self, staged):
        return self.sp.simulate(staged[1], samples_per_segment=self.samples)

    def check(self, i, staged, out) -> bool:
        final, traj = out
        ok = abs(np.linalg.norm(final) - 1.0) <= NORM_ATOL and bool(
            np.all(np.diff(traj.times) > 0)
        )
        if ok and i % self.oracle_every == 0:
            key, d, tau, tau_free = staged[0]
            want = oracle_final_state(self.spec_energies[key], key[0], d, tau, tau_free)
            ok = np.max(np.abs(want - final)) <= ORACLE_ATOL
        return bool(ok)

    def corrupt(self, out):
        final, traj = out
        return final * (1.0 + 1e-6), traj


class Closure(Workload):
    """``system_generators`` (recentered), ``lie_closure``, ``chevalley_witness``.

    N in {6, 8, 10} in equal thirds and both kinds in equal halves; every op
    draws a fresh spectrum, so no two ops in a run share an input.  The
    gap_to_ground closure costs more at N=8 and N=10, so the kinds are split
    1:3 at N=8 and 3:1 at N=10.  Then p50 falls inside the N=8
    nearest_neighbor ops and p90 inside the N=10 gap_to_ground ops, not on a
    boundary between two cost modes.
    """

    name = "closure"
    n_warmup = 6
    mix = (
        (6, G2G), (8, NN), (10, G2G), (6, NN), (8, NN), (10, G2G),
        (6, G2G), (8, NN), (10, NN), (6, NN), (8, G2G), (10, G2G),
    )

    def make(self, rng, count):
        return [
            (kind, energies(rng, kind, n))
            for n, kind in (self.mix[i % len(self.mix)] for i in range(count))
        ]

    def setup(self, sp) -> None:
        super().setup(sp)
        # the spectra are this workload's inputs: validate them all in set-up
        self.items = [sp.validate_spectrum(e, sp.SystemKind(k)) for k, e in self.items]
        self.warmup = [sp.validate_spectrum(e, sp.SystemKind(k)) for k, e in self.warmup]

    def run(self, staged):
        spec = staged
        result = self.sp.lie_closure(self.sp.system_generators(spec, recentered=True))
        self.sp.chevalley_witness(spec)
        return result

    def check(self, i, staged, out) -> bool:
        return out.dimension == staged.n_levels**2 - 1

    def corrupt(self, out):
        return replace(out, dimension=out.dimension - 1)


WORKLOADS = {w.name: w for w in (CliRoundtrip, SynthN7, SimulateTraj, Closure)}
