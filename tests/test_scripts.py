"""The command-line scripts under scripts/ still run and pass their own checks."""

import importlib.util
import os
import subprocess
import sys
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


def test_kinds_prints_each_kind_and_who_holds_each_percentile(capsys):
    # one warm-up and one timed cycle: every kind once, shares summing to the cycle
    assert _load("kinds").main(["--workload", "numeric_queries", "--seed", "1", "--cycles", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    import workloads  # perfbench/workloads.py, on the path the script added

    kinds = {r.kind for r in workloads.build("numeric_queries", 1).requests}
    assert lines[0].startswith("# numeric_queries seed 1: ")
    rows = [line.split("\t") for line in lines[2:-4]]
    assert {row[0] for row in rows} == kinds
    assert sum(float(row[3].rstrip("%")) for row in rows) == pytest.approx(100.0, abs=0.1 * len(rows))
    percentiles = [line.split("\t") for line in lines[-4:]]
    assert [p[0] for p in percentiles] == ["p50", "p75", "p90", "p95"]
    assert all(p[2] in kinds for p in percentiles)
    with pytest.raises(SystemExit):
        _load("kinds").main(["--workload", "numeric_queries", "--seed", "1", "--cycles", "0"])
    capsys.readouterr()


def test_kinds_split_rows_of_a_kind_sum_to_its_row(capsys, monkeypatch):
    # every request gets a fixed time, so the two runs time the same cycle
    kinds = _load("kinds")
    monkeypatch.setattr(kinds, "_times", lambda requests, cycles: [1e-4 * (1 + i % 7) for i in range(len(requests))])

    def rows(*split):
        assert kinds.main(["--workload", "numeric_queries", "--seed", "1", *split]) == 0
        lines = capsys.readouterr().out.splitlines()
        return lines[0], {row[0]: row[1:] for row in (line.split("\t") for line in lines[2:-4])}

    head, whole = rows()
    split_head, split = rows("--split", "classify")
    assert split_head == head
    parts = {name: row for name, row in split.items() if name.startswith("classify:")}
    assert sorted(parts) == [f"classify:{s}" for s in ("colombeau", "egorov", "infra", "scale-expdecay", "scale-power", "ultra")]
    assert sum(int(row[0]) for row in parts.values()) == int(whole["classify"][0])
    assert sum(float(row[1]) for row in parts.values()) == pytest.approx(float(whole["classify"][1]), abs=0.005 * len(parts))
    assert {name: row for name, row in split.items() if name not in parts} == {
        name: row for name, row in whole.items() if name != "classify"
    }


@pytest.mark.parametrize("script", ["kinds", "answers"])
def test_a_script_whose_output_is_cut_exits_quietly(script):
    # the reader closes the pipe before the script writes, as `| head` may
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, str(SCRIPTS / f"{script}.py"), "--workload", "function_algebra", "--seed", "1"]
    if script == "kinds":
        argv += ["--cycles", "1"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1 and err == ""
