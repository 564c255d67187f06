"""Command line behavior, driven in-process through cli.main."""

import math
import re
from pathlib import Path

import pytest

from ultraseq import cli
from ultraseq.cli import format_value
from ultraseq.gennum import AssocKind
from ultraseq.spaces import SeqRep, UltranormValue, colombeau_space, ultranorm


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_format_value():
    n2 = ultranorm(SeqRep.symbolic("n^2"), colombeau_space().single_weight())
    assert format_value(n2) == format_value(n2, with_band=True) == "7.3890561"
    assert format_value(UltranormValue(math.inf, exact=True)) == "divergent"
    assert format_value(UltranormValue(-math.inf, exact=True)) == "0"
    # beyond float range either way: the magnitude is shown in the log domain
    assert format_value(UltranormValue(1000.0, exact=True)) == "exp(1000)"
    assert format_value(UltranormValue(-1000.0, exact=True)) == "exp(-1000)"
    banded = UltranormValue(0.0, exact=False, band_log=(-0.5, 800.0))
    assert format_value(banded) == "1"
    assert format_value(banded, with_band=True) == "1 in [0.60653066, exp(800)]"
    unstable = UltranormValue(math.nan, exact=False, band_log=(-math.inf, math.inf), stable=False)
    assert format_value(unstable, with_band=True) == "nan in [0, divergent] (unstable)"
    # an exact value shows no band, whatever it carries
    assert format_value(UltranormValue(0.0, exact=True, band_log=(-1.0, 1.0)), with_band=True) == "1"


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


@pytest.mark.parametrize("text, at", [("1e999", 0), ("n^1e999", 2), ("exp(1e999*n)", 4), ("1e-200*1e-200*n", 6)])
def test_norm_of_a_number_beyond_float_range_is_a_parse_error(capsys, text, at):
    rc, out, err = run(capsys, "norm", text)
    assert (rc, out) == (1, "")
    assert err == f"error: cannot parse '{text}': a number is out of floating-point range (at position {at})\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("alt(0,n)^2", "power of the zero sequence (at position 9)"),
        ("1/alt(0,n)", "power of the zero sequence (at position 1)"),
        ("exp(n*)", "expected n, log(n) or a number after '*', found ')' (at position 6)"),
    ],
)
def test_norm_of_a_malformed_text_is_a_positioned_parse_error(capsys, text, message):
    rc, out, err = run(capsys, "norm", text)
    assert (rc, out, err) == (1, "", f"error: cannot parse '{text}': {message}\n")


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


@pytest.mark.parametrize(
    "a, kind, s, witness",
    [
        ("0", "strong:-1", "-1", "ultranorm=0, log_ultranorm=-inf, threshold=e^1, log_threshold=1"),
        ("n^-1", "strong:0", "0", "ultranorm=0.367879441, log_ultranorm=-1, threshold=e^0, log_threshold=0"),
        ("n^-1", "strong:-0", "0", "ultranorm=0.367879441, log_ultranorm=-1, threshold=e^0, log_threshold=0"),
    ],
    ids=["s=-1", "s=0", "s=-0"],
)
def test_assoc_threshold_at_a_nonpositive_s_is_e_to_minus_s(capsys, a, kind, s, witness):
    rc, out, err = run(capsys, "assoc", a, "0", "--kind", kind)
    assert (rc, err) == (0, "")
    assert out == f"assoc({a}, 0) strong-s(s={s}): yes\n  witness: {witness}\n"


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


def test_check_map_egorov_decides_from_the_step_weights(capsys):
    rc, out, _ = run(capsys, "check-map", "square", "--space", "egorov")
    assert rc == 0
    assert "map square over egorov: certified" in out
    assert "step weights decide" in out


_CERTIFIED_SPOT = [
    "  corpus spot checks: 48 growth, 192 difference",
    "  numeric checks passed on 4 corpus functions",
]
# a step-weight family decides every map without spot checks
_STEP_WEIGHTS = [
    "  corpus spot checks: 0 growth, 0 difference",
    "  step weights decide: every sequence is moderate and every negligible k is eventually 0, "
    "so phi(f+k) - phi(f) is eventually 0",
]

# the first line of `check-map MAP --space SPACE` and its lines from the
# corpus spot checks on, as the command printed them before the spot
# checks were memoised per map
_PINNED_CHECK_MAP = {
    ("square", "colombeau"): ["map square over colombeau: certified", *_CERTIFIED_SPOT],
    ("square", "ultra"): ["map square over ultra: certified", *_CERTIFIED_SPOT],
    ("square", "egorov"): ["map square over egorov: certified", *_STEP_WEIGHTS],
    ("derivative", "colombeau"): ["map derivative over colombeau: certified", *_CERTIFIED_SPOT],
    ("derivative", "ultra"): ["map derivative over ultra: certified", *_CERTIFIED_SPOT],
    ("derivative", "egorov"): ["map derivative over egorov: certified", *_STEP_WEIGHTS],
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
    ("exp-seq", "egorov"): ["map exp over egorov: certified", *_STEP_WEIGHTS],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, space", list(_PINNED_CHECK_MAP), ids=[f"{m}-{s}" for m, s in _PINNED_CHECK_MAP])
def test_check_map_of_sequence_maps_is_pinned_and_quiet(capsys, cold_spot_checks, name, space):
    # the first run fills the spot-check memo, the second reads it
    rc, out, err = run(capsys, "check-map", name, "--space", space)
    assert err == ""
    lines = out.splitlines()
    spot = next(i for i, line in enumerate(lines) if line.startswith("  corpus spot checks"))
    assert [lines[0], *lines[spot:]] == _PINNED_CHECK_MAP[name, space]
    assert rc == 0
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


def test_extend_unknown_function_lists_the_names_without_quotes(capsys):
    rc, out, err = run(capsys, "extend", "square", "nonexistent")
    assert (rc, out) == (1, "")
    assert err == (
        "error: unknown function 'nonexistent'; available: bump, bump-wide, decaying-sin, delta, "
        "delta-corrected, delta-narrow, delta-sq, nsinv-delta-sq, poly, sin\n"
    )


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
        "check exp\n"
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


def test_batch_rejects_an_unknown_space_key_with_position(capsys, tmp_path):
    path = tmp_path / "typo.batch"
    path.write_text("[space]\nfamliy = egorov\n\n[sequences]\na = n\n\n[queries]\nnorm a\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert (rc, out, err) == (1, "", f"error: {path}:2: unknown [space] key 'famliy' (it takes family, mode)\n")


def test_batch_rejects_a_repeated_space_key_with_position(capsys, tmp_path):
    path = tmp_path / "twice.batch"
    path.write_text("[space]\nfamily = egorov\nmode = standard\nfamily = colombeau\n\n[queries]\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert (rc, out, err) == (1, "", f"error: {path}:4: [space] key 'family' is given twice\n")


def test_demo_delta_walks_each_lattice_once(lattice_walks):
    # the slope table walks delta once per lattice; the classification of
    # delta and delta^2 reads their growth laws and walks nothing
    lines, decided = cli.cmd_demo_delta()
    assert decided is True and lines[-1].endswith("True")
    keys = [(id(f), n, radius) for f, n, radius in lattice_walks]
    assert len(keys) == len(set(keys))
    assert {radius for _, _, radius in keys} == {2, 3}


@pytest.mark.parametrize("text, holds", [("exp(-n)", "yes"), ("n^-1", "no")])
def test_assoc_power_x_decides_exactly(capsys, tmp_path, text, holds):
    want = (
        f"assoc({text}, 0) custom-JX(null limit; n^s family): {holds}\n"
        "  witness: multipliers=all n^s, decided exactly\n"
    )
    rc, out, err = run(capsys, "assoc", text, "0", "--kind", "power-x")
    assert (rc, out, err) == (0, want, "")
    path = tmp_path / "powx.batch"
    path.write_text(f"[sequences]\n{text} = {text}\n0 = 0\n\n[queries]\nassoc {text} 0 kind=power-x\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert (rc, out, err) == (0, f"space: colombeau[standard]\n-- line 6\n{want}", "")


@pytest.mark.parametrize(
    "query, message",
    [
        ("norm f kind=weak", "unknown option 'kind' for norm (it takes none)"),
        ("classify f role=moderate", "unknown option 'role' for classify (it takes none)"),
        ("extend square delta kind=weak", "unknown option 'kind' for extend (it takes none)"),
        ("check square kind=weak", "unknown option 'kind' for check (it takes role)"),
        ("assoc f g kind=weak diference=gap", "unknown option 'diference' for assoc (it takes kind, difference)"),
        ("assoc f g kind=weak kind=strong:0.5", "option 'kind' is given twice"),
        ("check square role=moderate role=temperate", "option 'role' is given twice"),
        ("assoc f g kind=weak difference=", "unknown sequence ''"),
        ("check square role=", "sequence maps take role temperate"),
    ],
)
def test_batch_rejects_unknown_and_repeated_options(capsys, tmp_path, query, message):
    path = tmp_path / "opts.batch"
    path.write_text(f"[sequences]\nf = n^2\ng = exp(-n)\ngap = n^2\n\n[queries]\nnorm f\n{query}\n")
    rc, out, err = run(capsys, "batch", str(path))
    assert (rc, out, err) == (1, "", f"error: {path}:8: {message}\n")


def _outcome(capsys, argv):
    try:
        rc = cli.main(list(argv))
    except SystemExit as e:  # argparse's usage errors
        rc = ("exit", e.code)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_the_shared_parser_answers_like_a_fresh_one(capsys):
    runs = [
        ("norm", "n^2"),
        ("classify", "n^-1", "--space", "infra"),
        ("norm",),
        ("convert-scale", "power"),
        ("bogus", "x"),
        ("check-map", "square", "--role", "nonsense"),
        ("norm", "log(n)^-1"),
    ]
    assert cli._build_parser() is cli._build_parser()
    consecutive = [_outcome(capsys, argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert consecutive == fresh
    assert consecutive[2][0] == ("exit", 2) and "usage: ultraseq norm" in consecutive[2][2]


@pytest.mark.parametrize(
    "name, message",
    [
        ("power:nan", "bad power map 'power:nan': power maps need a finite exponent"),
        ("power:1e400", "bad power map 'power:1e400': power maps need a finite exponent"),
        ("affine:inf:1", "bad affine map 'affine:inf:1': affine maps need finite a and b"),
        ("affine:1:nan", "bad affine map 'affine:1:nan': affine maps need finite a and b"),
        (
            "affine:1e308:1e308",
            "bad affine map 'affine:1e308:1e308': the growth bound of 1e+308x + 1e+308 is not finite: (inf, 1.0)",
        ),
    ],
)
def test_check_map_rejects_a_non_finite_parameter(capsys, name, message):
    assert run(capsys, "check-map", name) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("role", ["moderate", "compatible"])
def test_check_map_with_an_overflowing_bound_factor_is_inconclusive(capsys, role):
    # the bound factor 1e300^(1/log 2) is beyond floating-point range: no exact certificate
    out = (
        f"map 1e+300x as {role} over colombeau (case single): inconclusive\n"
        "  the structural bound factor 1e+300^1.4427 overflows a float; no decision\n"
    )
    assert run(capsys, "check-map", "affine:1e300:0", "--role", role) == (2, out, "")


@pytest.mark.parametrize("line, name", [(" = n", ""), ("my f = n", "my f")])
def test_batch_rejects_a_sequence_name_no_query_can_use(capsys, tmp_path, line, name):
    path = tmp_path / "names.batch"
    path.write_text(f"[sequences]\nf = n\n{line}\n\n[queries]\nnorm f\n")
    assert run(capsys, "batch", str(path)) == (1, "", f"error: {path}:3: a sequence name is one word, got {name!r}\n")


# (command line, the same query in a batch file, the sequences it names, the
# space); a batch file names each sequence by its own text, so both label it alike
_PARITY = [
    (["norm", "n^2"], "norm n^2", ["n^2"], "colombeau"),
    (["norm", "n^2"], "norm n^2", ["n^2"], "egorov"),  # no single weight
    (["classify", "n^-1"], "classify n^-1", ["n^-1"], "infra"),
    (["classify", "n^-1"], "classify n^-1", ["n^-1"], "nope"),  # unknown space
    (
        ["assoc", "n^-1", "n^-1+n^-2", "--kind", "weak-s:1", "--difference", "n^-2"],
        "assoc n^-1 n^-1+n^-2 kind=weak-s:1 difference=n^-2",
        ["n^-1", "n^-1+n^-2", "n^-2"],
        "colombeau",
    ),
    (["assoc", "n^-1", "n^-1+n^-2", "--kind", "weak"], "assoc n^-1 n^-1+n^-2 kind=weak", ["n^-1", "n^-1+n^-2"],
     "colombeau"),  # needs a difference
    (["assoc", "n", "0", "--kind", "dual:nan"], "assoc n 0 kind=dual:nan", ["n", "0"], "colombeau"),
    (["check-map", "power:2", "--role", "compatible"], "check power:2 role=compatible", [], "ultra"),
    (["check-map", "derivative", "--role", "temperate"], "check derivative role=temperate", [], "colombeau"),
    (["check-map", "square", "--role", "moderate"], "check square role=moderate", [], "colombeau"),
    (["extend", "square", "delta"], "extend square delta", [], "colombeau"),
    (["extend", "exp-seq", "delta"], "extend exp-seq delta", [], "colombeau"),  # not temperate
]


@pytest.mark.parametrize("argv, query, names, space", _PARITY, ids=[" ".join(case[0]) for case in _PARITY])
def test_the_command_line_and_a_batch_file_answer_alike(capsys, tmp_path, argv, query, names, space):
    cli_outcome = run(capsys, *argv, "--space", space)
    path = tmp_path / "same.batch"
    sequences = "".join(f"{name} = {name}\n" for name in names)
    path.write_text(f"[space]\nfamily = {space}\n\n[sequences]\n{sequences}\n[queries]\n{query}\n")
    rc, out, err = run(capsys, "batch", str(path))
    out = "".join(line for line in out.splitlines(keepends=True) if not line.startswith(("space: ", "-- line ")))
    assert (rc, out, re.sub(rf"{re.escape(str(path))}:\d+: ", "", err)) == cli_outcome


def test_the_readme_batch_example_runs_as_documented(capsys, tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "readme.batch"
    path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    assert run(capsys, "batch", str(path)) == (
        0,
        "space: colombeau[standard]\n"
        "-- line 10\n"
        "norm(f) under 1/log(n): exact e^2 = 7.3890561\n"
        "  witness: exact limit of weighted log values\n"
        "-- line 11\n"
        "classify(g) in colombeau[standard]:\n"
        "  m=1 channel=value: norm=0\n"
        "  verdict: negligible\n"
        "-- line 12\n"
        "assoc(f, g) weak: no\n"
        "  witness: limit=inf\n",
        "",
    )


# (exit code or argparse's exit, stdout, stderr) of whole commands: every
# verdict of classify, on every named space, a weight space and a mode
# override; extend with growth-law norms; the threshold witness of assoc
_PINNED_OUTPUT = {
    ("classify", "n^2"): (
        0,
        (
            "classify(n^2) in colombeau[standard]:\n"
            "  m=1 channel=value: norm=7.3890561\n"
            "  verdict: moderate\n"
        ),
        "",
    ),
    ("classify", "exp(-n)"): (
        0,
        (
            "classify(exp(-n)) in colombeau[standard]:\n"
            "  m=1 channel=value: norm=0\n"
            "  verdict: negligible\n"
        ),
        "",
    ),
    ("classify", "exp(n)"): (
        0,
        (
            "classify(exp(n)) in colombeau[standard]:\n"
            "  m=1 channel=value: norm=divergent\n"
            "  verdict: divergent\n"
        ),
        "",
    ),
    ("classify", "n^-1", "--space", "infra"): (
        0,
        (
            "classify(n^-1) in infra[unit-ball]:\n"
            "  m=1 channel=value: norm=1\n"
            "  verdict: boundary\n"
        ),
        "",
    ),
    ("classify", "0", "--space", "egorov"): (
        0,
        (
            "classify(0) in egorov[standard]:\n"
            "  m=1 channel=value: norm=0\n"
            "  m=2 channel=value: norm=0\n"
            "  m=3 channel=value: norm=0\n"
            "  m=4 channel=value: norm=0\n"
            "  m=5 channel=value: norm=0\n"
            "  m=6 channel=value: norm=0\n"
            "  m=7 channel=value: norm=0\n"
            "  m=8 channel=value: norm=0\n"
            "  m=9 channel=value: norm=0\n"
            "  m=10 channel=value: norm=0\n"
            "  m=11 channel=value: norm=0\n"
            "  m=12 channel=value: norm=0\n"
            "  m=13 channel=value: norm=0\n"
            "  m=14 channel=value: norm=0\n"
            "  m=15 channel=value: norm=0\n"
            "  m=16 channel=value: norm=0\n"
            "  levels probed: m=1..16 (membership verified up to m_max)\n"
            "  verdict: negligible\n"
        ),
        "",
    ),
    ("classify", "exp(n^2)", "--space", "ultra"): (
        0,
        (
            "classify(exp(n^2)) in ultra[standard]:\n"
            "  m=2 channel=value: norm=2.71828183\n"
            "  m=3 channel=value: norm=divergent\n"
            "  m=4 channel=value: norm=divergent\n"
            "  m=5 channel=value: norm=divergent\n"
            "  m=6 channel=value: norm=divergent\n"
            "  m=7 channel=value: norm=divergent\n"
            "  m=8 channel=value: norm=divergent\n"
            "  m=9 channel=value: norm=divergent\n"
            "  m=10 channel=value: norm=divergent\n"
            "  m=11 channel=value: norm=divergent\n"
            "  m=12 channel=value: norm=divergent\n"
            "  m=13 channel=value: norm=divergent\n"
            "  m=14 channel=value: norm=divergent\n"
            "  m=15 channel=value: norm=divergent\n"
            "  m=16 channel=value: norm=divergent\n"
            "  m=17 channel=value: norm=divergent\n"
            "  levels probed: m=2..17 (membership verified up to m_max)\n"
            "  verdict: divergent\n"
        ),
        "",
    ),
    ("classify", "n^2", "--space", "scale-power"): (
        0,
        (
            "classify(n^2) in scale:n^-m[standard]:\n"
            "  m=1 channel=value: norm=7.3890561\n"
            "  m=2 channel=value: norm=2.71828183\n"
            "  m=3 channel=value: norm=1.94773404\n"
            "  m=4 channel=value: norm=1.64872127\n"
            "  m=5 channel=value: norm=1.4918247\n"
            "  m=6 channel=value: norm=1.39561243\n"
            "  m=7 channel=value: norm=1.3307122\n"
            "  m=8 channel=value: norm=1.28402542\n"
            "  m=9 channel=value: norm=1.24884887\n"
            "  m=10 channel=value: norm=1.22140276\n"
            "  m=11 channel=value: norm=1.1993961\n"
            "  m=12 channel=value: norm=1.18136041\n"
            "  m=13 channel=value: norm=1.16631144\n"
            "  m=14 channel=value: norm=1.15356499\n"
            "  m=15 channel=value: norm=1.14263081\n"
            "  m=16 channel=value: norm=1.13314845\n"
            "  levels probed: m=1..16 (membership verified up to m_max)\n"
            "  verdict: moderate\n"
        ),
        "",
    ),
    ("classify", "exp(-n^2)", "--space", "scale-expdecay"): (
        0,
        (
            "classify(exp(-n^2)) in scale:exp(-m*n)[standard]:\n"
            "  m=1 channel=value: norm=0\n"
            "  m=2 channel=value: norm=0\n"
            "  m=3 channel=value: norm=0\n"
            "  m=4 channel=value: norm=0\n"
            "  m=5 channel=value: norm=0\n"
            "  m=6 channel=value: norm=0\n"
            "  m=7 channel=value: norm=0\n"
            "  m=8 channel=value: norm=0\n"
            "  m=9 channel=value: norm=0\n"
            "  m=10 channel=value: norm=0\n"
            "  m=11 channel=value: norm=0\n"
            "  m=12 channel=value: norm=0\n"
            "  m=13 channel=value: norm=0\n"
            "  m=14 channel=value: norm=0\n"
            "  m=15 channel=value: norm=0\n"
            "  m=16 channel=value: norm=0\n"
            "  levels probed: m=1..16 (membership verified up to m_max)\n"
            "  verdict: negligible\n"
        ),
        "",
    ),
    ("classify", "log(n)", "--space", "weight:log(n)^-0.5"): (
        0,
        (
            "classify(log(n)) in weight(log(n)^-0.5)[standard]:\n"
            "  m=1 channel=value: norm=1\n"
            "  verdict: moderate\n"
        ),
        "",
    ),
    ("classify", "n^-1", "--space", "colombeau", "--mode", "unit-ball"): (
        0,
        (
            "classify(n^-1) in colombeau[unit-ball]:\n"
            "  m=1 channel=value: norm=0.367879441\n"
            "  verdict: negligible\n"
        ),
        "",
    ),
    ("extend", "square", "delta"): (
        0,
        (
            "extend(square, delta) in functions/colombeau[standard]/nu<=2:\n"
            "  output: (delta[bump(0,1)])^2\n"
            "  m=1 channel=p_0: norm=7.3890561 (growth law)\n"
            "  m=1 channel=p_1: norm=20.0855369 (growth law)\n"
            "  m=1 channel=p_2: norm=54.59815 (growth law)\n"
            "  verdict: moderate\n"
        ),
        "",
    ),
    ("extend", "derivative", "bump", "--space", "ultra"): (
        0,
        (
            "extend(derivative, bump) in functions/ultra[standard]/nu<=2:\n"
            "  output: D^1 bump(0,1)\n"
            "  m=2 channel=p_0: norm=1 (growth law)\n"
            "  m=2 channel=p_1: norm=1 (growth law)\n"
            "  m=2 channel=p_2: norm=1 (growth law)\n"
            "  m=3 channel=p_0: norm=1 (growth law)\n"
            "  m=3 channel=p_1: norm=1 (growth law)\n"
            "  m=3 channel=p_2: norm=1 (growth law)\n"
            "  m=4 channel=p_0: norm=1 (growth law)\n"
            "  m=4 channel=p_1: norm=1 (growth law)\n"
            "  m=4 channel=p_2: norm=1 (growth law)\n"
            "  m=5 channel=p_0: norm=1 (growth law)\n"
            "  m=5 channel=p_1: norm=1 (growth law)\n"
            "  m=5 channel=p_2: norm=1 (growth law)\n"
            "  m=6 channel=p_0: norm=1 (growth law)\n"
            "  m=6 channel=p_1: norm=1 (growth law)\n"
            "  m=6 channel=p_2: norm=1 (growth law)\n"
            "  m=7 channel=p_0: norm=1 (growth law)\n"
            "  m=7 channel=p_1: norm=1 (growth law)\n"
            "  m=7 channel=p_2: norm=1 (growth law)\n"
            "  m=8 channel=p_0: norm=1 (growth law)\n"
            "  m=8 channel=p_1: norm=1 (growth law)\n"
            "  m=8 channel=p_2: norm=1 (growth law)\n"
            "  m=9 channel=p_0: norm=1 (growth law)\n"
            "  m=9 channel=p_1: norm=1 (growth law)\n"
            "  m=9 channel=p_2: norm=1 (growth law)\n"
            "  m=10 channel=p_0: norm=1 (growth law)\n"
            "  m=10 channel=p_1: norm=1 (growth law)\n"
            "  m=10 channel=p_2: norm=1 (growth law)\n"
            "  m=11 channel=p_0: norm=1 (growth law)\n"
            "  m=11 channel=p_1: norm=1 (growth law)\n"
            "  m=11 channel=p_2: norm=1 (growth law)\n"
            "  m=12 channel=p_0: norm=1 (growth law)\n"
            "  m=12 channel=p_1: norm=1 (growth law)\n"
            "  m=12 channel=p_2: norm=1 (growth law)\n"
            "  m=13 channel=p_0: norm=1 (growth law)\n"
            "  m=13 channel=p_1: norm=1 (growth law)\n"
            "  m=13 channel=p_2: norm=1 (growth law)\n"
            "  m=14 channel=p_0: norm=1 (growth law)\n"
            "  m=14 channel=p_1: norm=1 (growth law)\n"
            "  m=14 channel=p_2: norm=1 (growth law)\n"
            "  m=15 channel=p_0: norm=1 (growth law)\n"
            "  m=15 channel=p_1: norm=1 (growth law)\n"
            "  m=15 channel=p_2: norm=1 (growth law)\n"
            "  m=16 channel=p_0: norm=1 (growth law)\n"
            "  m=16 channel=p_1: norm=1 (growth law)\n"
            "  m=16 channel=p_2: norm=1 (growth law)\n"
            "  m=17 channel=p_0: norm=1 (growth law)\n"
            "  m=17 channel=p_1: norm=1 (growth law)\n"
            "  m=17 channel=p_2: norm=1 (growth law)\n"
            "  levels probed: m=2..17 (membership verified up to m_max)\n"
            "  verdict: moderate\n"
        ),
        "",
    ),
    ("extend", "square", "poly"): (
        0,
        (
            "extend(square, poly) in functions/colombeau[standard]/nu<=2:\n"
            "  output: (0.2 + 0.1x)^2\n"
            "  m=1 channel=p_0: norm=1 (growth law)\n"
            "  m=1 channel=p_1: norm=1 (growth law)\n"
            "  m=1 channel=p_2: norm=1 (growth law)\n"
            "  verdict: moderate\n"
        ),
        "",
    ),
    ("assoc", "n^-2", "0", "--kind", "strong:1"): (
        0,
        (
            "assoc(n^-2, 0) strong-s(s=1): yes\n"
            "  witness: ultranorm=0.135335283, log_ultranorm=-2, threshold=e^-1, log_threshold=-1\n"
        ),
        "",
    ),
    ("assoc", "n^-2*log(n)^-1", "0", "--kind", "weak-s:2"): (
        0,
        (
            "assoc(n^-2*log(n)^-1, 0) weak-s(s=2): no\n"
            "  boundary: ultranorm sits exactly on the threshold\n"
            "  witness: ultranorm=0.135335283, log_ultranorm=-2, threshold=e^-2, log_threshold=-2\n"
            "  notes: ultranorm sits exactly on the threshold; the strict inequality fails; "
            "on scalar sequences this coincides with the strong form\n"
        ),
        "",
    ),
    ("assoc", "n", "0", "--kind", "frobnicate"): (
        1,
        "",
        "error: unknown association kind 'frobnicate'; use weak, strong:S, weak-s:S, dual:S, or power-x\n",
    ),
    ("assoc", "--help"): (
        ("exit", 0),
        (
            "usage: ultraseq assoc [-h] --kind KIND [--difference DIFFERENCE]\n"
            "                      [--space SPACE] [--mode MODE]\n"
            "                      a b\n"
            "\n"
            "positional arguments:\n"
            "  a\n"
            "  b\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --kind KIND           weak, strong:S, weak-s:S, dual:S, power-x\n"
            "  --difference DIFFERENCE\n"
            "                        explicit |a - b| expression\n"
            "  --space SPACE         space name (default colombeau)\n"
            "  --mode MODE           standard or unit-ball (default per space)\n"
        ),
        "",
    ),
}


@pytest.mark.parametrize("argv", list(_PINNED_OUTPUT), ids=" ".join)
def test_command_output_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert _outcome(capsys, argv) == _PINNED_OUTPUT[argv]


_NORM_ON_ULTRA = (
    "norm needs a single-weight space, and ultra is an indexed family; classify gives its norm at every level"
)


def test_norm_on_an_indexed_space_points_to_classify(capsys):
    assert run(capsys, "norm", "n^2", "--space", "ultra") == (1, "", f"error: {_NORM_ON_ULTRA}\n")


def test_batch_norm_on_an_indexed_space_points_to_classify_with_position(capsys, tmp_path):
    path = tmp_path / "norm.batch"
    path.write_text("[space]\nfamily = ultra\n\n[sequences]\nf = n^2\n\n[queries]\nnorm f\n")
    assert run(capsys, "batch", str(path)) == (1, "", f"error: {path}:8: {_NORM_ON_ULTRA}\n")


# the words a sweep draws each command's arguments from: (good, bad)
_SWEEP_EXPRS = (
    ("n^2", "n^-1", "log(n)^-1", "exp(-n)", "exp(-log(n)^2)", "n*log(n)", "exp(n)", "0", "1", "alt(0, n)"),
    ("n^", "exp(n*)", "foo(n)", "1/alt(0, n)"),
)
_SWEEP_KINDS = (("weak", "strong:1", "weak-s:0.5", "dual:2", "s-dual:1", "power-x"), ("strong", "weak:1", "strong:x", "nope"))
_SWEEP_MAPS = (
    ("identity", "exp", "expm1", "log1p", "power:2", "power:0.5", "affine:1:0.5", "affine:1e308:1e308",
     "square", "derivative", "exp-seq"),
    ("power", "power:x", "power:-1", "affine:1", "nomap"),
)
_SWEEP_FUNCS = (("delta", "delta-sq", "bump", "sin", "poly", "decaying-sin"), ("nofunc",))
_SWEEP_SPACES = (
    (None, "colombeau", "infra", "egorov", "ultra", "scale-power", "scale-expdecay", "weight:n^-1", "weight:log(n)^-1"),
    ("nowhere", "weight:n^"),
)
_SWEEP_MODES = ((None, None, None, "standard", "unit-ball"), ("sideways",))


def _sweep_argv(rng) -> list[str]:
    """One drawn command line: every word argparse checks is valid, and
    each word the library reads is a bad one one time in ten."""

    def draw(words):
        good, bad = words
        return rng.choice(bad if rng.random() < 0.1 else good)

    command = rng.choice(["norm", "classify", "assoc", "check-map", "extend", "convert-scale"])
    if command == "convert-scale":
        return [command, rng.choice(["power", "expdecay"])]
    if command in ("norm", "classify"):
        argv = [command, draw(_SWEEP_EXPRS)]
    elif command == "assoc":
        argv = [command, draw(_SWEEP_EXPRS), draw(_SWEEP_EXPRS), "--kind", draw(_SWEEP_KINDS)]
        if rng.random() < 0.25:
            argv += ["--difference", draw(_SWEEP_EXPRS)]
    elif command == "check-map":
        argv = [command, draw(_SWEEP_MAPS)]
        role = rng.choice([None, None, "moderate", "compatible", "temperate"])
        argv += ["--role", role] if role else []
    else:  # exp-seq extends take 50-180 ms each; check-map covers that map
        argv = [command, draw((("square", "derivative"), ("nomap",))), draw(_SWEEP_FUNCS)]
    space, mode = draw(_SWEEP_SPACES), draw(_SWEEP_MODES)
    return argv + (["--space", space] if space else []) + (["--mode", mode] if mode else [])


def _undecided(out: str) -> bool:
    """Whether printed output shows an undecided answer."""
    lines = out.splitlines()
    return "(estimated, unstable)" in out or "  verdict: inconclusive" in lines or lines[0].endswith(": inconclusive")


def test_exit_codes_follow_the_printed_decision(capsys):
    import random

    rng = random.Random(29)
    codes = []
    for _ in range(100):
        argv = _sweep_argv(rng)
        rc, out, err = run(capsys, *argv)
        assert rc in (0, 1, 2), argv
        assert (rc == 1) == (out == "" and err.startswith("error: ")), argv
        assert rc == 1 or (rc == 2) == _undecided(out), argv
        codes.append(rc)
    assert set(codes) == {0, 1, 2}
