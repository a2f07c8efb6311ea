import json

import numpy as np
import pytest

from squarepulse import SystemKind, serialize, system_generators
from squarepulse.cli import main

from conftest import spec_for
from test_closure_oracle import oracle_lie_closure

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


@pytest.mark.parametrize(
    "field, doc",
    [
        ("energies", {"energies": [False, True], "kind": "nearest_neighbor"}),
        ("energies", {"energies": [0.0, 1.0, True], "kind": "gap_to_ground"}),
        ("energies", {"energies": [0.0, float("nan")], "kind": "gap_to_ground"}),
        ("energies", {"energies": [0.0, float("inf")], "kind": "nearest_neighbor"}),
        ("energies", {"energies": [0.0, float("nan"), 3.0], "kind": "nearest_neighbor"}),
        ("energies", {"energies": [float("-inf"), 1.0, 3.0], "kind": "gap_to_ground"}),
        ("tolerance", {**SPEC_II3, "tolerance": True}),
        ("tolerance", {**SPEC_II3, "tolerance": float("nan")}),
        ("tolerance", {**SPEC_II3, "tolerance": float("inf")}),
        # JSON integers beyond the float range
        ("energies", {"energies": [0.0, 1.0, 10**400], "kind": "nearest_neighbor"}),
        ("tolerance", {**SPEC_II3, "tolerance": 10**400}),
    ],
)
def test_spec_rejects_booleans_and_non_finite_numbers(tmp_path, capsys, field, doc):
    spec = write(tmp_path, "spec.json", doc)
    target = write(tmp_path, "target.json", uniform_target(len(doc["energies"])))
    assert main(["synth", "--spec", spec, "--target", target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no schedule, no fidelity line
    assert f"error: field '{field}'" in captured.err
    out = str(tmp_path / "ledger.json")
    assert main(["classify", "--spec", spec, "--out", out]) == 1
    assert f"error: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pair", [[float("nan"), 0.0], [True, 0.0], ["1", 0.0], [10**400, 0.0]]
)
def test_synth_rejects_bad_target_amplitude(tmp_path, capsys, pair):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    target = write(
        tmp_path, "target.json", {"amplitudes": [pair, [0.0, 0.0], [0.0, 0.0]]}
    )
    assert main(["synth", "--spec", spec, "--target", target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: field 'amplitudes'" in captured.err


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


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("subset", [None, "odd", "tail"])
def test_check_stdout_matches_oracle_closure(tmp_path, capsys, kind, n, subset):
    doc = {"energies": list(spec_for(kind, n).energies), "kind": kind.value}
    argv = ["check", "--spec", write(tmp_path, "spec.json", doc)]
    gens = system_generators(serialize.spec_from_dict(doc), recentered=True)
    if subset is not None:
        keep = range(1, n, 2) if subset == "odd" else range(2, n)
        argv += ["--generators", ",".join(str(m) for m in keep)]
        gens = [gens[0]] + [gens[m] for m in keep]
    want = oracle_lie_closure(gens)
    expected = {
        "dimension": want.dimension,
        "required": n * n - 1,
        "fully_controllable": want.fully_controllable,
        "bracket_depth": want.bracket_depth,
    }
    code = main(argv)
    assert capsys.readouterr().out == serialize.dumps(expected) + "\n"
    assert code == (0 if want.fully_controllable else 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--spec", "spec.json"],
        ["synth", "--spec", "spec.json", "--target", "target.json", "--ratio", "abc"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_exit_input(capsys, argv):
    # argparse's own exit code 2 would read as a fidelity-floor failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: squarepulse")
    assert "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]])
def test_help_exits_ok(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: squarepulse")


@pytest.mark.parametrize(
    "cycle, field",
    [
        ({"tau": float("inf")}, "cycles[0]"),
        ({"tau_free": float("inf")}, "cycles[0]"),
        ({"d": float("inf")}, "cycles[0]"),
        ({"d": "x"}, "cycles[0].d"),
        ({"tau": None}, "cycles[0].tau"),
        ({"tau_free": True}, "cycles[0].tau_free"),
        ({"d": 10**400}, "cycles[0].d"),
        ({"m": 1.5}, "cycles[0].m"),
        ({"m": "1"}, "cycles[0].m"),
        ({"m": True}, "cycles[0].m"),
    ],
)
def test_simulate_rejects_bad_cycle_fields(tmp_path, capsys, cycle, field):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    good = {"m": 1, "d": 1.0, "tau": 0.1, "tau_free": 0.1}
    sched = write(tmp_path, "sched.json", {"cycles": [{**good, **cycle}, {**good, "m": 2}]})
    assert main(["simulate", "--spec", spec, "--schedule", sched]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: field '{field}'" in captured.err


def test_simulate_rejects_overflowing_schedule(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    good = {"m": 1, "d": 1.0, "tau": 0.1, "tau_free": 0.1}
    doc = {"cycles": [{**good, "d": 1e300, "tau": 1e10}, {**good, "m": 2}]}
    assert main(["simulate", "--spec", spec, "--schedule", write(tmp_path, "s.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: schedule overflows" in captured.err


def test_simulate_accepts_an_integral_float_index(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", SPEC_II3)
    good = {"m": 1, "d": 1.0, "tau": 0.1, "tau_free": 0.1}
    outputs = []
    for m in (1, 1.0):
        sched = write(tmp_path, "sched.json", {"cycles": [{**good, "m": m}, {**good, "m": 2}]})
        assert main(["simulate", "--spec", spec, "--schedule", sched]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_classify_uses_the_spec_tolerance(tmp_path, capsys):
    # at 0.01 the gaps 1.0 and 1.001 count as equal, which neither kind allows
    doc = {"energies": [0.0, 1.0, 2.001], "kind": "nearest_neighbor"}
    assert main(["classify", "--spec", write(tmp_path, "a.json", doc)]) == 0
    assert capsys.readouterr().out.strip() == "both"
    spec = write(tmp_path, "b.json", {**doc, "tolerance": 0.01})
    assert main(["classify", "--spec", spec]) == 0
    assert capsys.readouterr().out.strip() == "neither"
    for tol in (True, 0.0, float("nan")):
        spec = write(tmp_path, "c.json", {**doc, "tolerance": tol})
        assert main(["classify", "--spec", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: field 'tolerance'" in captured.err
