"""Certificates for maps on the quotient algebras and the induced extensions."""

import gc
import math
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from ultraseq import growth, temperate
from ultraseq.genfun import FunctionSpace, make_element, seq_scale, sin_fn
from ultraseq.spaces import SeqRep
from ultraseq.temperate import (
    ExtensionError,
    ScalarMap,
    affine_map,
    apply_scalar_map,
    check_compatible,
    check_moderate,
    check_temperate,
    compose_maps,
    derivative_map,
    exp_map,
    exp_seq_map,
    expm1_map,
    extend,
    identity_map,
    log1p_map,
    power_map,
    scaled_map,
    square_map,
    sum_maps,
    verify_F2,
)
from ultraseq.weights import (
    Direction,
    WeightFamily,
    WeightSeq,
    catalog,
    expdecay_scale,
    power_scale,
    scale_to_weights,
)

COL = catalog("colombeau")
SCALE_II = scale_to_weights(power_scale())  # decreasing levels
ULTRA_I = catalog("ultra")  # increasing levels
NARROW_PEAK = 1.6571376797382134  # height of the width-1/2 unit-mass bump


# ---------------------------------------------------------------------------
# scalar map algebra


def test_scalar_map_call_is_vectorized():
    g = power_map(2)
    np.testing.assert_allclose(g(np.array([1.0, 3.0])), [1.0, 9.0])
    assert g(4.0) == 16.0


def test_power_map_bounds():
    g = power_map(3)
    assert g.poly_bound == (1.0, 3.0)
    assert g.vanish_bound == (1.0, 3.0, 1.0)
    assert g.zero_limit == 0.0


def test_compose_propagates_bounds():
    g = compose_maps(power_map(2), power_map(3))
    assert g.poly_bound == (1.0, 6.0)
    a, k, u0 = g.vanish_bound
    assert (a, k) == (1.0, 6.0) and u0 <= 1.0
    assert g(2.0) == 64.0


def test_sum_keeps_weaker_vanishing_rate():
    g = sum_maps(power_map(1), power_map(2))  # x + x^2
    a, k, u0 = g.vanish_bound
    assert k == 1.0 and a == 2.0
    assert g(3.0) == 12.0


def test_scaled_map_label_and_value():
    g = scaled_map(8.0, power_map(2))
    assert g(2.0) == 32.0
    assert "8x" in g.label


def test_affine_map_validation():
    with pytest.raises(ValueError):
        affine_map(0.0, 1.0)
    with pytest.raises(ValueError):
        affine_map(1.0, -2.0)
    g = affine_map(2.0, 0.0)
    assert g.label == "2x"
    assert g.symbolic_transform is not None
    assert affine_map(1.0, 1.0).symbolic_transform is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_map_parameters_must_be_finite(bad):
    # nan <= 0 is False, so a sign test alone lets these through
    for make in (lambda: power_map(bad), lambda: affine_map(bad, 1.0), lambda: affine_map(1.0, bad),
                 lambda: scaled_map(bad, power_map(2.0))):
        with pytest.raises(ValueError, match="finite"):
            make()


@pytest.mark.parametrize(
    "make",
    [lambda: affine_map(1e308, 1e308), lambda: compose_maps(power_map(2.0), affine_map(1e200, 0.0))],
    ids=["affine-sum", "compose"],
)
def test_scalar_map_bound_factors_must_be_finite(make):
    # finite parameters whose structural bound overflows: an inf factor certifies nothing
    with pytest.raises(ValueError, match="finite"):
        make()


# ---------------------------------------------------------------------------
# growth certificates (r-moderate)


def test_power_certified_single_weight():
    cert = check_moderate(power_map(2), COL)
    assert cert.status == "certified" and cert.exact
    assert cert.pairs == ((1, 1),)
    assert cert.value_bound == 1.0


def test_power_certified_on_indexed_family():
    cert = check_moderate(power_map(3), SCALE_II)
    assert cert.status == "certified" and cert.exact
    assert all(m == mm for m, mm in cert.pairs)


def test_scaled_power_value_bound():
    cert = check_moderate(scaled_map(5.0, power_map(2)), COL)
    assert cert.status == "certified"
    # the constant A enters as A^(r_n), worst at the largest weight value
    assert cert.value_bound == pytest.approx(5.0 ** (1.0 / math.log(2.0)))


def test_exp_refuted_with_replayable_witness():
    cert = check_moderate(exp_map(), SCALE_II)
    assert cert.status == "refuted" and cert.exact
    w = cert.witness
    # replay: at the witness index, r^M * x^(1/r^m) blows past the log cap
    r_m = SCALE_II.member(w["m"])
    r_M = SCALE_II.member(w["M"])
    n = w["n"]
    lhs = math.log(r_M.value(n)) + math.log(w["x"]) / r_m.value(n)
    assert lhs > math.log(w["log_value_exceeds"])


def test_exp_refuted_single_weight():
    cert = check_moderate(exp_map(), COL)
    assert cert.status == "refuted"


def test_black_box_square_certified_numerically():
    g = ScalarMap(label="u^2 black box", fn=lambda u: np.asarray(u) ** 2)
    cert = check_moderate(g, COL)
    assert cert.status == "certified" and not cert.exact


def test_black_box_exp_refuted_numerically():
    g = ScalarMap(label="e^u black box", fn=np.exp)
    cert = check_moderate(g, COL)
    assert cert.status == "refuted" and not cert.exact
    assert cert.witness["x"] > 0


def test_step_weights_stay_inconclusive():
    cert = check_moderate(power_map(2), catalog("egorov"))
    assert cert.status == "inconclusive"


def test_identity_certified_everywhere():
    for fam in (COL, SCALE_II, ULTRA_I):
        assert check_moderate(identity_map(), fam).status == "certified"


# ---------------------------------------------------------------------------
# vanishing certificates (r-compatible)


def test_power_compatible_certified():
    for k in (0.5, 1.0, 2.0):
        cert = check_compatible(power_map(k), COL)
        assert cert.status == "certified" and cert.exact


def test_affine_offset_refuted():
    cert = check_compatible(affine_map(1.0, 1.0), COL)
    assert cert.status == "refuted" and cert.exact
    assert cert.witness["zero_limit"] == 1.0


def test_expm1_compatible_certified():
    cert = check_compatible(expm1_map(), COL)
    assert cert.status == "certified" and cert.exact


def test_log1p_both_certificates():
    assert check_moderate(log1p_map(), COL).status == "certified"
    assert check_compatible(log1p_map(), COL).status == "certified"


def test_black_box_sqrt_compatible():
    g = ScalarMap(label="sqrt black box", fn=np.sqrt)
    cert = check_compatible(g, COL)
    assert cert.status == "certified" and not cert.exact


def test_structural_checks_read_first_weight_values_once(monkeypatch):
    # the exponent r_top reads each level's weight at its first index; the
    # family keeps those values, so a second structural check reads no weight
    fam = catalog("ultra")
    checks = lambda: (
        check_moderate(scaled_map(3.0, power_map(2.0)), fam),
        check_compatible(scaled_map(3.0, power_map(1.0)), fam),
    )
    first = checks()
    assert [c.value_bound for c in first] == [1.6921795387417262] * 2  # 3^(2^-(17/16))
    calls = []
    value = WeightSeq.value
    monkeypatch.setattr(WeightSeq, "value", lambda self, n: calls.append(n) or value(self, n))
    assert checks() == first and calls == []


def test_black_box_log_reciprocal_refuted():
    g = ScalarMap(
        label="1/|log| black box",
        fn=lambda u: 1.0 / np.abs(np.log(np.clip(u, 1e-300, 0.5))),
    )
    cert = check_compatible(g, COL)
    assert cert.status == "refuted"
    # the witness records a small input whose image refuses to fall
    assert cert.witness["x"] <= 1e-4


# ---------------------------------------------------------------------------
# numeric level-pair search on black-box maps (results pinned)

BLACK_BOX = {
    "sqrt": np.sqrt,
    "square": lambda u: u * u,
    "x*log1p(x)": lambda u: u * np.log1p(u),
    "exp": np.exp,
    "exp(sqrt(x))": lambda u: np.exp(np.sqrt(u)),
}
SEARCH_FAMILIES = {
    "colombeau": COL,
    "ultra": ULTRA_I,
    "scale-power": SCALE_II,
    "scale-expdecay": scale_to_weights(expdecay_scale()),
}
# (map, family, role, status, witness (m, M, x) or None, certified pairs "m:M ...")
PINNED_SEARCHES = [
    ("sqrt", "colombeau", "moderate", "certified", None, "1:1"),
    ("sqrt", "colombeau", "compatible", "certified", None, "1:1"),
    ("sqrt", "ultra", "moderate", "certified", None,
     "2:2 3:3 4:4 5:5 6:6 6:7 7:8 7:9 8:10 8:11 9:12 9:13 10:14 10:15 11:16 11:17"),
    ("sqrt", "ultra", "compatible", "certified", None,
     "2:2 3:2 4:2 5:2 6:2 7:2 8:2 9:2 10:2 11:2 12:2 13:2 14:2 15:2 16:3 17:3"),
    ("sqrt", "scale-power", "moderate", "certified", None,
     "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 10:10 11:11 12:12 13:13 14:14 15:15 16:16"),
    ("sqrt", "scale-power", "compatible", "certified", None,
     "1:1 1:2 1:3 1:4 1:5 1:6 1:7 1:8 1:9 1:10 1:11 1:12 1:13 2:14 2:15 2:16"),
    ("sqrt", "scale-expdecay", "moderate", "certified", None,
     "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 10:10 11:11 12:12 13:13 14:14 15:15 16:16"),
    ("sqrt", "scale-expdecay", "compatible", "certified", None,
     "1:1 1:2 1:3 1:4 1:5 1:6 1:7 1:8 1:9 1:10 1:11 1:12 1:13 2:14 2:15 2:16"),
    ("square", "colombeau", "moderate", "certified", None, "1:1"),
    ("square", "colombeau", "compatible", "certified", None, "1:1"),
    ("square", "ultra", "moderate", "certified", None,
     "2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 9:10 10:11 11:12 12:13 12:14 13:15 14:16 14:17"),
    ("square", "ultra", "compatible", "certified", None,
     "2:2 3:2 4:2 5:2 6:2 7:2 8:2 9:2 10:2 11:2 12:2 13:2 14:2 15:2 16:2 17:2"),
    ("square", "scale-power", "moderate", "certified", None,
     "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 10:10 11:11 12:12 13:13 14:14 15:15 16:16"),
    ("square", "scale-power", "compatible", "certified", None,
     "1:1 1:2 1:3 1:4 1:5 1:6 1:7 1:8 1:9 1:10 1:11 1:12 1:13 1:14 1:15 1:16"),
    ("square", "scale-expdecay", "moderate", "certified", None,
     "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 10:10 11:11 12:12 13:13 14:14 15:15 16:16"),
    ("square", "scale-expdecay", "compatible", "certified", None,
     "1:1 1:2 1:3 1:4 1:5 1:6 1:7 1:8 1:9 1:10 1:11 1:12 1:13 1:14 1:15 1:16"),
    ("x*log1p(x)", "colombeau", "moderate", "certified", None, "1:1"),
    ("x*log1p(x)", "colombeau", "compatible", "certified", None, "1:1"),
    ("x*log1p(x)", "ultra", "moderate", "certified", None,
     "2:2 3:3 4:4 5:5 6:6 7:7 7:8 8:9 9:10 9:11 10:12 11:13 11:14 12:15 12:16 13:17"),
    ("x*log1p(x)", "ultra", "compatible", "certified", None,
     "2:2 3:2 4:2 5:2 6:2 7:2 8:2 9:2 10:2 11:2 12:2 13:2 14:2 15:2 16:2 17:2"),
    ("x*log1p(x)", "scale-power", "moderate", "certified", None,
     "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 10:10 11:11 12:12 13:13 14:14 15:15 16:16"),
    ("x*log1p(x)", "scale-power", "compatible", "certified", None,
     "1:1 1:2 1:3 1:4 1:5 1:6 1:7 1:8 1:9 1:10 1:11 1:12 1:13 1:14 1:15 1:16"),
    ("x*log1p(x)", "scale-expdecay", "moderate", "certified", None,
     "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8 9:9 10:10 11:11 12:12 13:13 14:14 15:15 16:16"),
    ("x*log1p(x)", "scale-expdecay", "compatible", "certified", None,
     "1:1 1:2 1:3 1:4 1:5 1:6 1:7 1:8 1:9 1:10 1:11 1:12 1:13 1:14 1:15 1:16"),
    ("exp", "colombeau", "moderate", "refuted", (1, 1, 100000000.0), ""),
    ("exp", "colombeau", "compatible", "refuted", (1, 1, 1e-08), ""),
    ("exp", "ultra", "moderate", "refuted", (17, 2, 100000000.0), ""),
    ("exp", "ultra", "compatible", "refuted", (2, 17, 1e-08), ""),
    ("exp", "scale-power", "moderate", "refuted", (1, 16, 100000000.0), ""),
    ("exp", "scale-power", "compatible", "refuted", (16, 1, 1e-08), ""),
    ("exp", "scale-expdecay", "moderate", "refuted", (1, 16, 100000000.0), ""),
    ("exp", "scale-expdecay", "compatible", "refuted", (16, 1, 1e-08), ""),
    ("exp(sqrt(x))", "colombeau", "moderate", "refuted", (1, 1, 100000000.0), ""),
    ("exp(sqrt(x))", "colombeau", "compatible", "refuted", (1, 1, 1e-08), ""),
    ("exp(sqrt(x))", "ultra", "moderate", "refuted", (17, 2, 100000000.0), ""),
    ("exp(sqrt(x))", "ultra", "compatible", "refuted", (2, 17, 1e-08), ""),
    ("exp(sqrt(x))", "scale-power", "moderate", "refuted", (1, 16, 100000000.0), ""),
    ("exp(sqrt(x))", "scale-power", "compatible", "refuted", (16, 1, 1e-08), ""),
    ("exp(sqrt(x))", "scale-expdecay", "moderate", "refuted", (1, 16, 100000000.0), ""),
    ("exp(sqrt(x))", "scale-expdecay", "compatible", "refuted", (16, 1, 1e-08), ""),
]


@pytest.mark.parametrize("label,family,role,status,witness,pairs", PINNED_SEARCHES)
def test_black_box_search_results_are_pinned(label, family, role, status, witness, pairs):
    check = check_moderate if role == "moderate" else check_compatible
    cert = check(ScalarMap(label=label, fn=BLACK_BOX[label]), SEARCH_FAMILIES[family])
    assert cert.status == status and not cert.exact
    assert cert.pairs == tuple(tuple(int(v) for v in p.split(":")) for p in pairs.split())
    if witness is None:
        assert cert.witness == {}
    else:
        assert (cert.witness["m"], cert.witness["M"], cert.witness["x"]) == witness


def _late_family(log2_n_min=lambda m: m + 3) -> WeightFamily:
    """Levels whose first index 2^log2_n_min(m) grows with m; by default
    level pairs span from all nine n-windows down to one."""

    def member(m: int) -> WeightSeq:
        return WeightSeq(
            label=f"late {m}",
            evaluator=lambda ns: 1.0 / np.log(ns) ** (1.0 + 1.0 / m),
            n_min=2 ** log2_n_min(m),
        )

    return WeightFamily(name="late", member_fn=member, direction=Direction.DECREASING)


def _reference_log_grid(log_g, W, m, M, xs):
    """log (g(x^(1/r^m_n)))^(r^M_n) on the n-windows of both levels by xs,
    with the weights of the pair read for it alone."""
    wa, wb = W.member(m), W.member(M)
    ns = [n for n in temperate._N_WINDOWS if n >= max(wa.n_min, wb.n_min)]
    r_m, r_M = wa.values(ns)[:, None], wb.values(ns)[:, None]
    return r_M * log_g(np.log(xs) / r_m)


@pytest.mark.parametrize("family", [ULTRA_I, SCALE_II, _late_family()], ids=lambda W: W.name)
@pytest.mark.parametrize("label", ["sqrt", "exp", "x*log1p(x)"])
def test_level_table_gives_each_pair_its_own_grid_bitwise(family, label):
    log_g = temperate._log_g_factory(ScalarMap(label=label, fn=BLACK_BOX[label]))
    levels = temperate._levels(family, temperate._M_MAX)
    table = temperate._LevelTable.build(log_g, family, levels, temperate._X_GRID_FULL)
    pairs = [(m, M) for m in levels for M in levels]
    values, windows = table.reweighted(pairs)
    for (m, M), got, k in zip(pairs, values, windows):
        with np.errstate(invalid="ignore"):
            want = _reference_log_grid(log_g, family, m, M, temperate._X_GRID_FULL)
        assert k == len(want) and got[len(got) - k :].tobytes() == want.tobytes(), (m, M)
        assert np.isnan(got[: len(got) - k]).all()


@pytest.mark.parametrize("check", [check_moderate, check_compatible], ids=lambda c: c.__name__)
@pytest.mark.parametrize("label", ["sqrt", "square", "exp"])
def test_a_level_past_the_last_n_window_gives_no_decision(check, label):
    # level m starts at 4^(m+2), past the last window 2^20 from level 9 on:
    # its pairs have no data, so neither a refutation nor a certificate holds
    fam = _late_family(lambda m: 2 * (m + 2))
    cert = check(ScalarMap(label=label, fn=BLACK_BOX[label]), fam)
    assert cert.status == "inconclusive"
    assert cert.notes == "level 9 starts past the last n-window 2^20, so its pairs have no data; no decision"
    assert cert.pairs == () and cert.witness == {}


def test_a_search_reads_each_level_weights_once(monkeypatch):
    fam = catalog("ultra")
    levels = temperate._levels(fam, temperate._M_MAX)
    labels = sorted(fam.member(m).label for m in levels)
    reads = []
    values = WeightSeq.values
    monkeypatch.setattr(WeightSeq, "values", lambda self, ns: reads.append(self.label) or values(self, ns))
    square = ScalarMap(label="square", fn=BLACK_BOX["square"])
    for check in (check_moderate, check_compatible):
        reads.clear()
        assert check(square, fam).status == "certified"
        assert sorted(reads) == labels


# ---------------------------------------------------------------------------
# sequence maps


def test_square_map_temperate():
    report = check_temperate(square_map(), COL)
    assert report.status == "certified"
    assert report.alpha_checked > 0 and report.beta_checked > 0


def test_derivative_map_temperate():
    report = check_temperate(derivative_map(), COL)
    assert report.status == "certified"


def test_exp_seq_map_refuted():
    report = check_temperate(exp_seq_map(), COL)
    assert report.status == "refuted"
    assert report.witness


@pytest.mark.filterwarnings("error")
def test_exp_seq_spot_checks_find_its_false_difference_bound(cold_spot_checks):
    # exp's declared difference bound fails on the corpus (ROADMAP 16); an
    # overflowed bound on the way passes without a warning
    spot = temperate._spot_checks(exp_seq_map())
    assert (spot.alpha_checked, spot.beta_checked) == (48, 69)
    assert spot.witness == {
        "inequality": "beta", "f": "0.5 * sin(1x)", "k": "0.5 * sin(1x)", "nu": 2, "n": 16,
        "lhs": pytest.approx(1.89392016, rel=1e-8), "rhs": pytest.approx(1.06956056, rel=1e-8),
    }


def test_check_temperate_decides_every_map_on_step_weights(cold_spot_checks):
    egorov = catalog("egorov")
    for make_map in (square_map, derivative_map, exp_seq_map):
        report = check_temperate(make_map(), egorov)
        assert (report.status, report.alpha_checked, report.beta_checked, report.witness) == ("certified", 0, 0, {})
        assert report.notes.startswith("step weights decide")
    # the family decides alone: no spot check ran
    assert not temperate._SPOT_CHECKS


def _square_with_small_g_alpha():
    # x^2 drops the 2^nu factor: p_2((0.5 sin)^2) = 0.5 > p_2(0.5 sin)^2 = 0.25
    return replace(square_map(), name="square, g_alpha = x^2", g_alpha=power_map(2.0))


def _square_with_small_h_beta():
    small = scaled_map(1e-3, sum_maps(power_map(1.0), power_map(2.0)))
    return replace(square_map(), name="square, h_beta / 1000", h_beta=small)


# (status, alpha_checked, beta_checked, witness, notes) on colombeau,
# recorded before the growth and difference loops were merged into one
_PINNED_TEMPERATE = [
    (square_map, ("certified", 48, 192, {}, "numeric checks passed on 4 corpus functions")),
    (derivative_map, ("certified", 48, 192, {}, "numeric checks passed on 4 corpus functions")),
    (
        exp_seq_map,
        (
            "refuted", 0, 0,
            {"m": 1, "M": 1, "x": 7.38905609893065, "n": 64, "log_value_exceeds": 230.0},
            "scalar certificate refuted for 'exp(x)' (moderate)",
        ),
    ),
    (
        _square_with_small_g_alpha,
        (
            "inconclusive", 21, 0,
            {"inequality": "alpha", "f": "0.5 * sin(1x)", "nu": 2, "n": 16, "lhs": 0.5, "rhs": 0.25},
            "declared growth bound fails on the corpus",
        ),
    ),
    (
        _square_with_small_h_beta,
        (
            "inconclusive", 48, 25,
            {
                "inequality": "beta", "f": "delta[bump(0,1)]", "k": "0.2 + 0.1x", "nu": 0, "n": 16,
                "lhs": 5.344173495731246, "rhs": 1.8212538750368341,
            },
            "declared difference bound fails on the corpus",
        ),
    ),
]


@pytest.mark.parametrize(
    "make_map, expected",
    _PINNED_TEMPERATE,
    ids=["square", "derivative", "exp", "small-g_alpha", "small-h_beta"],
)
def test_check_temperate_reports_are_pinned(make_map, expected):
    r = check_temperate(make_map(), COL)
    got = (r.status, r.alpha_checked, r.beta_checked, list(r.witness.items()), r.notes)
    status, alpha, beta, witness, notes = expected
    assert got == (status, alpha, beta, list(witness.items()), notes)


@pytest.mark.parametrize("make_map, radii", [(square_map, {2}), (derivative_map, {2, 3})])
def test_check_temperate_walks_each_lattice_once(lattice_walks, make_map, radii):
    # the derivative map bounds p_nu(f') by p_(nu+1)(f): orders 1..3, so radii 2 and 3
    assert check_temperate(make_map(), COL).status == "certified"
    keys = [(id(f), n, radius) for f, n, radius in lattice_walks]
    assert len(keys) == len(set(keys))
    assert {radius for _, _, radius in keys} == radii


def test_check_temperate_walks_each_derivative_lattice_once(lattice_walks):
    # D k is the left-hand sequence of the growth case at k and of every
    # difference case (f, k): each of its lattices is walked once
    assert check_temperate(derivative_map(), COL).status == "certified"
    keys = [(f.label, n, radius) for f, n, radius in lattice_walks]
    assert len(keys) == len(set(keys)) == 48  # 4 inputs x 4 n x radii 2, 3; 4 images x 4 n x radius 2


@pytest.mark.parametrize("make_map", [square_map, derivative_map])
def test_check_temperate_walks_each_lattice_once_over_families(lattice_walks, cold_spot_checks, make_map):
    # the corpus spot checks do not read the family: checking one map over
    # three families walks each lattice once in all, and each report is the
    # one a cold run over that family alone gives
    families = [catalog(name) for name in ("colombeau", "ultra", "egorov")]
    reports = [check_temperate(make_map(), W) for W in families]
    keys = [(f.label, n, radius) for f, n, radius in lattice_walks]
    assert keys and len(keys) == len(set(keys))
    for W, report in zip(families, reports):
        cold_spot_checks()
        assert check_temperate(make_map(), W) == report


def test_named_maps_are_shared():
    assert square_map() is square_map()
    assert derivative_map() is derivative_map()
    assert exp_seq_map() is exp_seq_map()


def _held_objects(root) -> int:
    """The number of objects reachable from root without entering modules,
    classes or module globals: everything root holds on to."""
    module_dicts = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in module_dicts or isinstance(obj, (types.ModuleType, type)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


@pytest.mark.parametrize("make_map", [square_map, derivative_map])
def test_shared_maps_hold_no_growing_cache(make_map):
    from ultraseq.corpus import named_function
    from ultraseq.spaces import colombeau_space

    fspace = FunctionSpace(colombeau_space(), nu_max=2)
    phi = make_map()
    fresh = lambda c: make_element(seq_scale(c, named_function("delta")), fspace)
    extend(phi, fresh(1.0))
    held = _held_objects(phi)
    for c in (2.0, 3.0, 4.0):
        extend(phi, fresh(c))
    assert make_map() is phi and _held_objects(phi) == held


def test_square_difference_expansion():
    # (f+k)^2 - f^2 through the dedicated difference path
    phi = square_map()
    f = sin_fn()
    k = seq_scale(0.5, sin_fn())
    xs = np.linspace(-1.0, 1.0, 7)
    lhs = phi.difference(f, k).at(5, xs)
    rhs = phi.apply(seq_scale(1.5, sin_fn())).at(5, xs) - phi.apply(f).at(5, xs)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# extension on elements


@pytest.fixture(scope="module")
def delta_element(request):
    from ultraseq.corpus import named_function
    from ultraseq.spaces import colombeau_space

    fspace = FunctionSpace(colombeau_space(), nu_max=2)
    return make_element(named_function("delta"), fspace)


def test_extend_square_of_delta(delta_element):
    out = extend(square_map(), delta_element)
    assert out.report.verdict == "moderate"
    assert out.seq.label.startswith("(delta")


def test_extend_exp_rejected(delta_element):
    with pytest.raises(ExtensionError):
        extend(exp_seq_map(), delta_element)


def test_verify_f2_square(colombeau):
    from ultraseq.corpus import named_function

    f = named_function("delta")
    j = named_function("decaying-sin")
    rep = verify_F2(square_map(), f, j, colombeau)
    assert rep.passed is True and rep.diff_verdict == "negligible"


def test_verify_f2_requires_negligible_perturbation(colombeau):
    f = sin_fn()
    with pytest.raises(ValueError):
        verify_F2(square_map(), f, sin_fn(), colombeau)


def test_verify_f2_exp_fails_on_tall_mollifier(colombeau):
    # the narrow kernel peaks at ~1.657 n, so exp of it is not moderate and
    # the difference after perturbation cannot classify negligible
    from ultraseq.corpus import named_function

    f = named_function("delta-narrow")
    assert f.at(4, np.array([0.0]))[0] == pytest.approx(4 * NARROW_PEAK, rel=1e-9)
    j = named_function("decaying-sin")
    rep = verify_F2(exp_seq_map(), f, j, colombeau)
    assert rep.passed is not True


# ---------------------------------------------------------------------------
# scalar maps on number representatives


def test_apply_scalar_map_symbolic_power():
    rep = SeqRep.symbolic("n^2")
    out = apply_scalar_map(power_map(2), rep)
    assert out.is_symbolic
    assert growth.format_expr(out.expr) == "n^4"


def test_apply_scalar_map_symbolic_scaling():
    rep = SeqRep.symbolic("n^2")
    out = apply_scalar_map(affine_map(3.0, 0.0), rep)
    assert growth.format_expr(out.expr) == "3*n^2"


def test_apply_scalar_map_sampled_fallback(colombeau):
    rep = SeqRep.symbolic("log(n)^-1")
    out = apply_scalar_map(log1p_map(), rep)
    assert not out.is_symbolic
    assert colombeau.classify(out).verdict in ("moderate", "negligible")
