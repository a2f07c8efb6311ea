"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margin when it completes."""

import json

import numpy as np

from squarepulse import (
    LedgerMode,
    SynthesisOptions,
    SystemKind,
    chevalley_witness,
    coupling_operator,
    drift_hamiltonian,
    evaluate_ledger,
    forward_ledger,
    lie_closure,
    matrix_exp_oracle,
    paper_closed_form,
    pulse_propagator,
    synthesize,
    system_generators,
)
from squarepulse.cli import main

from conftest import random_target, spec_for

SEED = 715


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_propagator_matches_oracle():
    rng = np.random.default_rng(SEED)
    worst_diff = 0.0
    worst_unitarity = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        kind = rng.choice(list(SystemKind))
        spec = spec_for(kind, n)
        m = int(rng.integers(1, n))
        d = float(rng.uniform(0.05, 100.0))
        t = float(rng.uniform(0.0, 10.0))
        u = pulse_propagator(spec, m, d, t)
        v = matrix_exp_oracle(drift_hamiltonian(spec) + d * coupling_operator(spec, m), t)
        worst_diff = max(worst_diff, float(np.max(np.abs(u - v))))
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
        )
    assert worst_diff <= 1e-10
    assert worst_unitarity <= 1e-12
    report("1 propagator", f"max oracle diff {worst_diff:.2e}, unitarity {worst_unitarity:.2e}")


def test_criterion_2_paper_recursion_equals_closed_forms():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for kind in SystemKind:
        for n in (2, 3, 4, 5):
            spec = spec_for(kind, n)
            ledger = forward_ledger(spec, LedgerMode.PAPER)
            for _ in range(100):
                th = rng.uniform(0.0, np.pi / 2, n - 1)
                tau = rng.uniform(0.0, 2.0, n - 1)
                tf = rng.uniform(0.0, 2.0, n - 1)
                a = evaluate_ledger(ledger, th, tau, tf)
                b = paper_closed_form(spec, th, tau, tf)
                worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-12
    report("2 paper reproduction", f"max recursion/closed-form diff {worst:.2e}")


def test_criterion_3_physical_normalization_and_paper_gap_witness():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for kind in SystemKind:
        for n in range(2, 7):
            ledger = forward_ledger(spec_for(kind, n), LedgerMode.PHYSICAL)
            thetas = rng.uniform(0.0, np.pi / 2, size=(10_000, n - 1))
            mags = ledger.magnitudes(thetas)
            worst = max(worst, float(np.max(np.abs(np.sum(mags**2, axis=-1) - 1.0))))
    assert worst <= 1e-12

    witness_theta = np.array([np.pi / 2, np.pi / 4])
    ledger = forward_ledger(spec_for(SystemKind.GAP_TO_GROUND, 3), LedgerMode.PAPER)
    amps = evaluate_ledger(ledger, witness_theta, [0, 0], [0, 0])
    violation = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    assert violation > 0.1
    report(
        "3 physical normalization",
        f"max norm error {worst:.2e}; paper-mode witness violation {violation:.2f}",
    )


def test_criterion_4_round_trip_synthesis():
    rng = np.random.default_rng(SEED + 3)
    worst_100 = 0.0
    worst_1000 = 0.0
    ratio_lo, ratio_hi = np.inf, 0.0
    for kind in SystemKind:
        for n in range(2, 7):
            spec = spec_for(kind, n)
            for _ in range(100):
                target = random_target(rng, n)
                inf_100 = 1.0 - synthesize(
                    spec, target, SynthesisOptions(field_ratio=100.0)
                ).fidelity
                inf_1000 = 1.0 - synthesize(
                    spec, target, SynthesisOptions(field_ratio=1000.0)
                ).fidelity
                worst_100 = max(worst_100, inf_100)
                worst_1000 = max(worst_1000, inf_1000)
                ratio = inf_100 / inf_1000
                ratio_lo = min(ratio_lo, ratio)
                ratio_hi = max(ratio_hi, ratio)
    assert worst_100 <= 1e-3
    assert worst_1000 <= 1e-5
    assert ratio_lo >= 30.0
    assert ratio_hi <= 300.0
    report(
        "4 round trip",
        f"max infidelity {worst_100:.2e} @100 / {worst_1000:.2e} @1000, "
        f"ratio range [{ratio_lo:.1f}, {ratio_hi:.1f}]",
    )


def test_criterion_5_parameter_counting_and_distinctness():
    rng = np.random.default_rng(SEED + 4)
    from squarepulse import fidelity

    for kind in SystemKind:
        for n in (3, 5):
            spec = spec_for(kind, n)
            targets = [random_target(rng, n) for _ in range(12)]
            schedules = []
            for t in targets:
                rep = synthesize(spec, t)
                assert len(rep.schedule.cycles) == n - 1
                schedules.append(
                    tuple((c.tau, c.tau_free) for c in rep.schedule.cycles)
                )
            for i in range(len(targets)):
                for j in range(i + 1, len(targets)):
                    if fidelity(targets[i], targets[j]) < 0.99:
                        assert schedules[i] != schedules[j]
    report("5 parameter counting", "2(N-1) durations; distinct targets -> distinct schedules")


def test_criterion_6_controllability():
    expected = {2: 3, 3: 8, 4: 15, 5: 24, 6: 35}
    for kind in SystemKind:
        for n in range(2, 7):
            spec = spec_for(kind, n, centered=True)
            res = lie_closure(system_generators(spec))
            assert res.dimension == expected[n]
            chevalley_witness(spec)  # raises on any recipe mismatch > 1e-9

    rng = np.random.default_rng(SEED + 5)
    spec = spec_for(SystemKind.NEAREST_NEIGHBOR, 4, centered=True)
    gens = system_generators(spec)
    dim0 = lie_closure(gens).dimension
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(a)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        assert lie_closure([u @ g @ u.conj().T for g in gens]).dimension == dim0
    report("6 controllability", f"dimensions {list(expected.values())}; 20 conjugation trials")


def test_criterion_7_cli_golden(tmp_path):
    spec_doc = {"energies": [0.0, 1.0, 3.0], "kind": "nearest_neighbor"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    target_doc = {
        "amplitudes": [[0.5, 0.2], [0.3, -0.6], [0.0, 0.5099019513592785]]
    }
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(target_doc))

    # synth -> simulate round trip reproduces the reported fidelity
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["synth", "--spec", str(spec_path), "--target", str(target_path), "--out", str(r1)]) == 0
    assert main(["synth", "--spec", str(spec_path), "--target", str(target_path), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    report_doc = json.loads(r1.read_text())
    final_path = tmp_path / "final.json"
    assert main(["simulate", "--spec", str(spec_path), "--schedule", str(r1), "--out", str(final_path)]) == 0
    sim = np.array(
        [complex(a, b) for a, b in json.loads(final_path.read_text())["amplitudes"]]
    )
    tgt = np.array([complex(a, b) for a, b in target_doc["amplitudes"]])
    assert abs(abs(np.vdot(tgt, sim)) ** 2 - report_doc["fidelity"]) <= 1e-12

    # crafted failures: bad norm -> 1, cycle mismatch -> 1, starved generators -> 3
    bad_target = tmp_path / "bad_target.json"
    bad_target.write_text(json.dumps({"amplitudes": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    assert main(["synth", "--spec", str(spec_path), "--target", str(bad_target)]) == 1

    bad_sched = tmp_path / "bad_sched.json"
    bad_sched.write_text(
        json.dumps({"cycles": [{"m": 1, "d": 1.0, "tau": 0.1, "tau_free": 0.1}]})
    )
    assert main(["simulate", "--spec", str(spec_path), "--schedule", str(bad_sched)]) == 1

    assert main(["check", "--spec", str(spec_path), "--generators", "1"]) == 3
    report("7 cli golden", "byte-identical reports, round-trip fidelity, exit codes 1/1/3")
