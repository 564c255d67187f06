"""Command line behavior, driven in-process through cli.main."""

import math

import pytest

from ultraseq import cli
from ultraseq.gennum import AssocKind


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_norm_exact_power(capsys):
    rc, out, _ = run(capsys, "norm", "n^2")
    assert rc == 0
    assert "exact e^2 = 7.3890561" in out
    assert "witness: exact limit" in out


def test_norm_log_factor_collapses_to_one(capsys):
    rc, out, _ = run(capsys, "norm", "log(n)^-1")
    assert rc == 0
    assert "exact 1" in out


def test_norm_exp_below_every_power_leaves_the_power_dominant(capsys):
    # exp(log(n)^0.5) << n, so the norm is that of n
    rc, out, _ = run(capsys, "norm", "n + exp(log(n)^0.5)")
    assert rc == 0
    assert "exact e^1 = 2.71828183" in out


def test_norm_under_a_weight_decaying_slower_than_any_power(capsys):
    # exp(-log(n)^0.5) * n -> inf
    rc, out, _ = run(capsys, "norm", "exp(n)", "--space", "weight:exp(-log(n)^0.5)")
    assert rc == 0
    assert "exact divergent" in out


def test_norm_overflowing_literal_is_a_parse_error(capsys):
    rc, out, err = run(capsys, "norm", "1e300^2")
    assert rc == 1
    assert "error: cannot parse '1e300^2'" in err


def test_norm_beyond_float_range_prints_log_domain(capsys):
    # e^(1e300) overflows a float; the value is shown as exp(<log value>)
    rc, out, err = run(capsys, "norm", "n^1e300")
    assert rc == 0
    assert "exact e^1e+300 = exp(1e+300)" in out
    assert "Traceback" not in err


def test_classify_divergent(capsys):
    rc, out, _ = run(capsys, "classify", "exp(n)")
    assert rc == 0
    assert "verdict: divergent" in out


def test_classify_mode_override(capsys):
    rc, out, _ = run(capsys, "classify", "n^-1", "--space", "infra",
                     "--mode", "unit-ball")
    assert rc == 0
    assert "infra[unit-ball]" in out
    assert "norm=1" in out
    assert "verdict: boundary" in out


def test_assoc_dual_yes_with_multiplier(capsys):
    rc, out, _ = run(capsys, "assoc", "n^-2*log(n)^-1", "0", "--kind", "dual:2")
    assert rc == 0
    assert "s-dual(s=2): yes" in out
    assert "multiplier=n^2" in out


def test_assoc_dual_multiplier_below_every_power(capsys):
    # exp(log(n)^0.5) / n -> 0
    rc, out, _ = run(capsys, "assoc", "n^-1", "0", "--kind", "dual:1",
                     "--space", "weight:log(n)^-0.5")
    assert rc == 0
    assert "s-dual(s=1): yes" in out
    assert "multiplier=exp(log(n)^0.5)" in out


def test_assoc_weak_s_boundary_no(capsys):
    rc, out, _ = run(capsys, "assoc", "n^-2*log(n)^-1", "0",
                     "--kind", "weak-s:2")
    assert rc == 0
    assert "weak-s(s=2): no" in out
    assert "boundary" in out
    assert "ultranorm=0.135335283" in out


def test_assoc_rejects_non_moderate_input(capsys):
    rc, out, err = run(capsys, "assoc", "exp(n)", "0", "--kind", "weak")
    assert rc == 1
    assert "not moderate" in err


def test_convert_scale_power(capsys):
    rc, out, _ = run(capsys, "convert-scale", "power")
    assert rc == 0
    assert "scale n^-m -> weight family" in out
    assert "(decreasing)" in out
    assert "axioms hold: True" in out


def test_check_map_power_certified(capsys):
    rc, out, _ = run(capsys, "check-map", "power:2")
    assert rc == 0
    assert "certified [exact]" in out
    assert "level pairs: (1,1)" in out


def test_check_map_exp_refuted_with_witness(capsys):
    rc, out, _ = run(capsys, "check-map", "exp")
    assert rc == 0
    assert "refuted [exact]" in out
    assert "witness: m=1, M=1" in out


def test_check_map_egorov_inconclusive(capsys):
    rc, out, _ = run(capsys, "check-map", "square", "--space", "egorov")
    assert rc == 2
    assert "inconclusive" in out


_CERTIFIED_SPOT = [
    "  corpus spot checks: 48 growth, 192 difference",
    "  numeric checks passed on 4 corpus functions",
]

# the first line of `check-map MAP --space SPACE` and its lines from the
# corpus spot checks on, as the command printed them before the spot
# checks were memoised per map
_PINNED_CHECK_MAP = {
    ("square", "colombeau"): ["map square over colombeau: certified", *_CERTIFIED_SPOT],
    ("square", "ultra"): ["map square over ultra: certified", *_CERTIFIED_SPOT],
    ("square", "egorov"): ["map square over egorov: inconclusive", *_CERTIFIED_SPOT],
    ("derivative", "colombeau"): ["map derivative over colombeau: certified", *_CERTIFIED_SPOT],
    ("derivative", "ultra"): ["map derivative over ultra: certified", *_CERTIFIED_SPOT],
    ("derivative", "egorov"): ["map derivative over egorov: inconclusive", *_CERTIFIED_SPOT],
    ("exp-seq", "colombeau"): [
        "map exp over colombeau: refuted",
        "  corpus spot checks: 0 growth, 0 difference",
        "  witness: m=1, M=1, x=7.3890561, n=64, log_value_exceeds=230",
        "  scalar certificate refuted for 'exp(x)' (moderate)",
    ],
    ("exp-seq", "ultra"): [
        "map exp over ultra: refuted",
        "  corpus spot checks: 0 growth, 0 difference",
        "  witness: m=2, M=2, x=7.3890561, n=16, log_value_exceeds=230",
        "  scalar certificate refuted for 'exp(x)' (moderate)",
    ],
    ("exp-seq", "egorov"): [
        "map exp over egorov: refuted",
        "  corpus spot checks: 48 growth, 69 difference",
        "  witness: inequality=beta, f=0.5 * sin(1x), k=0.5 * sin(1x), nu=2, n=16, "
        "lhs=1.89392016, rhs=1.06956056",
        "  difference inequality fails on the corpus",
    ],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, space", list(_PINNED_CHECK_MAP), ids=[f"{m}-{s}" for m, s in _PINNED_CHECK_MAP])
def test_check_map_of_sequence_maps_is_pinned_and_quiet(capsys, cold_spot_checks, name, space):
    # the first run fills the spot-check memo, the second reads it; an
    # overflowed spot-check bound (exp over egorov) passes without a warning
    rc, out, err = run(capsys, "check-map", name, "--space", space)
    assert err == ""
    lines = out.splitlines()
    spot = next(i for i, line in enumerate(lines) if line.startswith("  corpus spot checks"))
    assert [lines[0], *lines[spot:]] == _PINNED_CHECK_MAP[name, space]
    assert rc == (2 if space == "egorov" and name != "exp-seq" else 0)
    assert run(capsys, "check-map", name, "--space", space) == (rc, out, "")


def test_batch_checks_a_sequence_map_once(capsys, tmp_path, lattice_walks):
    path = tmp_path / "twice.batch"
    path.write_text("[queries]\ncheck square\ncheck square\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 0 and err == ""
    first, second = out.split("-- line 2\n")[1].split("-- line 3\n")
    assert first == second and "corpus spot checks: 48 growth, 192 difference" in first
    keys = [(f.label, n, radius) for f, n, radius in lattice_walks]
    assert keys and len(keys) == len(set(keys))


def test_extend_square_of_delta(capsys):
    rc, out, _ = run(capsys, "extend", "square", "delta")
    assert rc == 0
    assert "output: (delta" in out
    assert "verdict: moderate" in out


def test_extend_refused_for_exp(capsys):
    rc, out, err = run(capsys, "extend", "exp-seq", "delta")
    assert rc == 1
    assert "outside the moderate class" in err


def test_batch_runs_queries_with_line_markers(capsys, tmp_path):
    path = tmp_path / "run.batch"
    path.write_text(
        "[space]\n"
        "family = colombeau\n"
        "\n"
        "[sequences]\n"
        "f = n^2\n"
        "g = exp(-n)\n"
        "\n"
        "[queries]\n"
        "norm f\n"
        "classify g\n"
    )
    rc, out, _ = run(capsys, "batch", str(path))
    assert rc == 0
    assert "space: colombeau[standard]" in out
    assert "-- line 9" in out
    assert "exact e^2 = 7.3890561" in out
    assert "-- line 10" in out
    assert "verdict: negligible" in out


def test_batch_reports_parse_error_with_position(capsys, tmp_path):
    path = tmp_path / "bad.batch"
    path.write_text(
        "[space]\n"
        "family = colombeau\n"
        "\n"
        "[sequences]\n"
        "f = n^^2\n"
        "\n"
        "[queries]\n"
        "norm f\n"
    )
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1
    assert f"{path}:5: cannot parse f" in err
    assert "(at position 2)" in err


def test_batch_reports_overflowing_literal_with_position(capsys, tmp_path):
    path = tmp_path / "big.batch"
    path.write_text(
        "[sequences]\n"
        "f = 1e300^2\n"
        "\n"
        "[queries]\n"
        "norm f\n"
    )
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1
    assert f"error: {path}:2: cannot parse f" in err


def test_batch_rejects_unknown_query(capsys, tmp_path):
    path = tmp_path / "unk.batch"
    path.write_text(
        "[sequences]\n"
        "f = n^2\n"
        "\n"
        "[queries]\n"
        "frobnicate f\n"
    )
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1
    assert "cannot understand query 'frobnicate f'" in err


def test_batch_exit_code_is_worst_of_queries(capsys, tmp_path):
    path = tmp_path / "mix.batch"
    path.write_text(
        "[space]\n"
        "family = egorov\n"
        "\n"
        "[sequences]\n"
        "f = n^2\n"
        "\n"
        "[queries]\n"
        "classify f\n"
        "check square\n"
    )
    rc, out, _ = run(capsys, "batch", str(path))
    assert rc == 2
    assert "verdict: moderate" in out
    assert "inconclusive" in out


@pytest.mark.parametrize(
    "kind", ["dual:nan", "dual:inf", "dual:1e400", "strong:nan", "weak-s:-inf", "strong:x"]
)
def test_assoc_rejects_a_non_finite_threshold(capsys, kind):
    rc, out, err = run(capsys, "assoc", "n", "0", "--kind", kind)
    assert rc == 1 and out == ""
    assert err == f"error: bad threshold in kind {kind!r}\n"


@pytest.mark.parametrize("kind", ["dual:nan", "strong:inf"])
def test_batch_rejects_a_non_finite_threshold_with_position(capsys, tmp_path, kind):
    path = tmp_path / "nan.batch"
    path.write_text(f"[sequences]\na = n\nb = 0\n\n[queries]\nassoc a b kind={kind}\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1 and out == ""
    assert err == f"error: {path}:6: bad threshold in kind {kind!r}\n"


def test_assoc_kind_thresholds_must_be_finite():
    for make in (AssocKind.strong, AssocKind.weak_s, AssocKind.s_dual):
        assert make(2).s == 2.0
        for s in (math.nan, math.inf, -math.inf, "1e400"):
            with pytest.raises(ValueError, match="must be finite"):
                make(s)


def test_batch_rejects_a_repeated_sequence_name(capsys, tmp_path):
    path = tmp_path / "dup.batch"
    path.write_text("[sequences]\na = n\nb = 0\n# again\na = n^2\n\n[queries]\nnorm a\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1 and out == ""
    assert err == f"error: {path}:5: sequence 'a' is already defined on line 2\n"


def test_batch_reports_an_unknown_space_with_position(capsys, tmp_path):
    path = tmp_path / "fam.batch"
    path.write_text("[space]\nmode = standard\nfamily = nope\n\n[sequences]\na = n\n\n[queries]\nnorm a\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {path}:3: unknown space 'nope'")
    path.write_text("[space]\nfamily = egorov\nmode = sideways\n\n[queries]\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert rc == 1 and err.startswith(f"error: {path}:3: unknown mode 'sideways'")


def test_demo_delta_walks_each_lattice_once(lattice_walks):
    # the slope table and the classification of delta share their radius-2 walks
    lines, code = cli.cmd_demo_delta()
    assert code == 0 and lines[-1].endswith("True")
    keys = [(id(f), n, radius) for f, n, radius in lattice_walks]
    assert len(keys) == len(set(keys))
    assert {radius for _, _, radius in keys} == {2, 3}
