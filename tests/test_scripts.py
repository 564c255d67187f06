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


def test_answers_prints_one_line_per_request_and_repeats(capsys):
    # the same workload and seed give the same text, one line per request
    answers = _load("answers")
    runs = []
    for _ in range(2):
        assert answers.main(["--workload", "exact_queries", "--seed", "1"]) == 0
        runs.append(capsys.readouterr().out)
    import workloads  # perfbench/workloads.py, on the path the script added

    assert runs[0] == runs[1]
    assert len(runs[0].splitlines()) == len(workloads.build("exact_queries", 1).requests)


def test_answers_runs_several_cycles_with_a_header_each(capsys):
    # --workload all and several seeds: each cycle is one run's text after a header
    answers = _load("answers")
    assert answers.main(["--workload", "numeric_queries", "--seed", "1", "2"]) == 0
    both = capsys.readouterr().out
    singles = []
    for seed in (1, 2):
        assert answers.main(["--workload", "numeric_queries", "--seed", str(seed)]) == 0
        singles.append(capsys.readouterr().out)
    assert both == "".join(f"# numeric_queries seed {s}\n{text}" for s, text in zip((1, 2), singles))
    with pytest.raises(SystemExit):
        answers.main(["--workload", "every", "--seed", "1"])
    capsys.readouterr()
