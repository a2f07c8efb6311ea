import json

import numpy as np
import pytest

from squarepulse import serialize
from squarepulse.cli import main

SPEC_II3 = {"energies": [0.0, 1.0, 3.0], "kind": "nearest_neighbor"}
SPEC_I4 = {"energies": [0.0, 2.0, 3.0, 4.0], "kind": "gap_to_ground"}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def uniform_target(n):
    return {"amplitudes": [[1 / np.sqrt(n), 0.0] for _ in range(n)]}


def test_synth_writes_report(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    target = write(tmp_path, "target.json", uniform_target(3))
    out = tmp_path / "report.json"
    code = main(["synth", "--spec", spec, "--target", target, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "fidelity" in captured
    report = json.loads(out.read_text())
    assert report["fidelity"] >= 0.999
    assert len(report["cycles"]) == 2


def test_synth_round_trip_reproduces_fidelity(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    target = write(tmp_path, "target.json", uniform_target(3))
    out = tmp_path / "report.json"
    assert main(["synth", "--spec", spec, "--target", target, "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    final_path = tmp_path / "final.json"
    code = main(
        ["simulate", "--spec", spec, "--schedule", str(out), "--out", str(final_path)]
    )
    assert code == 0
    final = json.loads(final_path.read_text())
    sim = np.array([complex(a, b) for a, b in final["amplitudes"]])
    reported = np.array([complex(a, b) for a, b in report["simulated"]])
    assert np.max(np.abs(sim - reported)) <= 1e-12

    target_vec = np.array([complex(a, b) for a, b in uniform_target(3)["amplitudes"]])
    fid = abs(np.vdot(target_vec, sim)) ** 2
    assert abs(fid - report["fidelity"]) <= 1e-12


def test_synth_deterministic_output(tmp_path):
    spec = write(tmp_path, "spec.json", SPEC_I4)
    target = write(
        tmp_path,
        "target.json",
        {
            "amplitudes": [
                [0.5, 0.0],
                [0.0, 0.5],
                [-0.5, 0.0],
                [0.3, 0.4],
            ]
        },
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["synth", "--spec", spec, "--target", target, "--out", str(out1)]) == 0
    assert main(["synth", "--spec", spec, "--target", target, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_ground_target_all_zero_durations(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    target = write(
        tmp_path, "target.json", {"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    )
    out = tmp_path / "report.json"
    assert main(["synth", "--spec", spec, "--target", target, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(c["tau"] == 0 and c["tau_free"] == 0 for c in report["cycles"])


def test_synth_rejects_unnormalized_target(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    target = write(
        tmp_path, "target.json", {"amplitudes": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    )
    code = main(["synth", "--spec", spec, "--target", target])
    assert code == 1
    assert "amplitudes" in capsys.readouterr().err


def test_simulate_zero_schedule_identity(tmp_path):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    sched = write(
        tmp_path,
        "sched.json",
        {
            "cycles": [
                {"m": 1, "d": 1.0, "tau": 0.0, "tau_free": 0.0},
                {"m": 2, "d": 1.0, "tau": 0.0, "tau_free": 0.0},
            ]
        },
    )
    out = tmp_path / "final.json"
    assert main(["simulate", "--spec", spec, "--schedule", sched, "--out", str(out)]) == 0
    final = json.loads(out.read_text())
    assert final["amplitudes"][0] == [1.0, 0.0]


def test_simulate_rejects_cycle_count_mismatch(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    sched = write(
        tmp_path,
        "sched.json",
        {"cycles": [{"m": 1, "d": 1.0, "tau": 0.1, "tau_free": 0.1}]},
    )
    code = main(["simulate", "--spec", spec, "--schedule", sched])
    assert code == 1
    assert "cycles" in capsys.readouterr().err


def test_simulate_trajectory_row_count(tmp_path):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    sched = write(
        tmp_path,
        "sched.json",
        {
            "cycles": [
                {"m": 1, "d": 5.0, "tau": 0.2, "tau_free": 0.3},
                {"m": 2, "d": 5.0, "tau": 0.1, "tau_free": 0.4},
            ]
        },
    )
    csv_path = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--spec",
            spec,
            "--schedule",
            sched,
            "--out",
            str(tmp_path / "f.json"),
            "--trajectory",
            str(csv_path),
            "--samples",
            "10",
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("t,re_1,im_1")
    assert len(lines) - 1 == 2 * (10 + 1) + 1


def test_check_controllable(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_I4)
    code = main(["check", "--spec", spec])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 15
    assert doc["required"] == 15
    assert doc["fully_controllable"] is True


def test_check_two_level(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"energies": [-0.5, 0.5], "kind": "gap_to_ground"})
    assert main(["check", "--spec", spec]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3


def test_check_restricted_generators_not_controllable(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_I4)
    code = main(["check", "--spec", spec, "--generators", "1"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["fully_controllable"] is False
    assert doc["dimension"] < 15


def test_check_bad_spec_exit_1(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"energies": [0.0, 1.0, 2.0, 3.0], "kind": "gap_to_ground"})
    assert main(["check", "--spec", spec]) == 1
    assert "energies" in capsys.readouterr().err


def test_classify(tmp_path, capsys):
    # every 3-level spectrum with distinct gaps fits both coupling schemes
    spec = write(tmp_path, "spec.json", SPEC_II3)
    assert main(["classify", "--spec", spec]) == 0
    assert capsys.readouterr().out.strip() == "both"

    spec4 = write(tmp_path, "spec4.json", {"energies": [0.0, 1.0, 3.0, 6.0], "kind": "nearest_neighbor"})
    assert main(["classify", "--spec", spec4]) == 0
    assert capsys.readouterr().out.strip() == "nearest_neighbor"


def test_classify_ledger_dump(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    out = tmp_path / "ledger.json"
    assert main(["classify", "--spec", spec, "--out", str(out), "--mode", "paper"]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "paper"
    assert doc["levels"][2]["magnitude_factors"] == ["sin(1)", "sin(2)"]


def test_float_serialization_round_trips():
    values = [0.1, 1 / 3, np.pi, 1e-300, 123456.789]
    for v in values:
        assert float(serialize.format_float(v)) == v
    assert serialize.dumps({"b": 1.5, "a": True}) == '{"a":true,"b":1.5}'


def test_synth_winding_bound_flag_is_ignored(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_I4)
    target = write(tmp_path, "target.json", uniform_target(4))
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    args = ["synth", "--spec", spec, "--target", target, "--out"]
    assert main(args + [str(plain)]) == 0
    assert "deprecated" not in capsys.readouterr().err
    assert main(args + [str(flagged), "--winding-bound", "0"]) == 0
    assert "--winding-bound is deprecated and ignored" in capsys.readouterr().err
    assert plain.read_bytes() == flagged.read_bytes()


@pytest.mark.parametrize(
    "flag, value",
    [("--ratio", "0.5"), ("--ratio", "nan"), ("--zero-threshold", "2")],
)
def test_synth_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    target = write(tmp_path, "target.json", uniform_target(3))
    assert main(["synth", "--spec", spec, "--target", target, flag, value]) == 1
    assert f"error: flag '{flag}'" in capsys.readouterr().err


def test_simulate_rejects_negative_samples(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    sched = write(
        tmp_path,
        "sched.json",
        {
            "cycles": [
                {"m": 1, "d": 5.0, "tau": 0.2, "tau_free": 0.3},
                {"m": 2, "d": 5.0, "tau": 0.1, "tau_free": 0.4},
            ]
        },
    )
    assert main(["simulate", "--spec", spec, "--schedule", sched, "--samples", "-3"]) == 1
    assert "error: flag '--samples'" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_check_rejects_nonpositive_tolerance(tmp_path, capsys, tol):
    # the starved 3-level set of acceptance criterion 7 must never read as controllable
    spec = write(tmp_path, "spec.json", SPEC_II3)
    assert main(["check", "--spec", spec, "--generators", "1", "--tolerance", tol]) == 1
    captured = capsys.readouterr()
    assert "error: flag '--tolerance'" in captured.err
    assert captured.out == ""
