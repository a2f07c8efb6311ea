"""The public surface: removed options stay removed, kept names resolve.

The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by ``(module, name)``; a deletion under ``src/`` that drops one of those
names would break ``perfbench/run.py --trace 1`` without failing any other
test, so the guard here loads its ``TRACED`` table and resolves every row.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import squarepulse
from squarepulse import (
    SynthesisOptions,
    SystemKind,
    errors,
    lie_closure,
    system_generators,
)
from squarepulse.cli import main

from conftest import spec_for

ROOT = Path(__file__).resolve().parent.parent


def test_synth_winding_bound_flag_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"energies": [0.0, 1.0, 3.0], "kind": "nearest_neighbor"}')
    target = tmp_path / "target.json"
    target.write_text('{"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
    args = ["synth", "--spec", str(spec), "--target", str(target)]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--winding-bound", "0"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --winding-bound" in capsys.readouterr().err


def test_removed_parameters_raise_type_error():
    with pytest.raises(TypeError):
        SynthesisOptions(winding_bound=0)
    gens = system_generators(spec_for(SystemKind.NEAREST_NEIGHBOR, 3))
    with pytest.raises(TypeError):
        lie_closure(gens, max_iter=1)


def test_removed_error_classes_are_gone():
    for name in ("SingularPhaseSystem", "WindingBoundExceeded", "MaxIterExceeded"):
        assert not hasattr(errors, name)


def test_dense_views_importable_but_not_exported():
    for name in ("matrix_exp_oracle", "pulse_propagator", "free_propagator"):
        assert callable(getattr(squarepulse, name))
        assert name not in squarepulse.__all__
    assert all(hasattr(squarepulse, name) for name in squarepulse.__all__)


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert squarepulse.__version__ == match.group(1)


def _traced_rows():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, name", [row[:2] for row in _traced_rows()])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"squarepulse.{module}"), name))
