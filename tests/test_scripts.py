"""The command-line scripts under scripts/ still run and pass their own checks."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scale", ["power", "expdecay"])
def test_scale_equivalence_agrees_with_dominance(scale, capsys):
    # weight classification against growth.compare on the default corpus
    assert _load("scale_equivalence").main(["--scale", scale]) == 0
    assert "agrees with scale dominance on every expression" in capsys.readouterr().out
