"""Arithmetic on generalized numbers and the association hierarchy."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraseq import gennum, growth, spaces
from ultraseq.gennum import (
    AssocKind,
    NotModerate,
    PowerXFamily,
    associate,
    bounded_predicate,
    is_zero,
    jx_well_defined,
    make,
    null_predicate,
)
from ultraseq.spaces import NumberSpace, SeqRep, UltranormValue, colombeau_space, ultranorm
from ultraseq.weights import Mode, WeightSeq, single_family

SPACE = colombeau_space()


def gn(text: str):
    return make(SeqRep.symbolic(text), SPACE)


ZERO_N = gn("0")


# ---------------------------------------------------------------------------
# construction and ring operations


def test_make_rejects_divergent_representative():
    with pytest.raises(NotModerate):
        gn("exp(n)")


@pytest.mark.parametrize(
    "rep", ["exp(n)", SeqRep.symbolic("exp(n)"), SeqRep.sampled_from_expr("exp(n)")]
)
def test_make_names_the_label_of_every_representative(rep):
    with pytest.raises(NotModerate, match="representative 'blow-up' is not moderate"):
        make(rep, SPACE, label="blow-up")


def test_a_literal_beyond_float_range_is_a_parse_error_before_any_verdict():
    with pytest.raises(growth.ParseError, match=r"out of floating-point range \(at position 0\)"):
        SeqRep.symbolic("1e999")
    with pytest.raises(growth.ParseError, match=r"out of floating-point range \(at position 0\)"):
        make("1e999*n", SPACE)


def test_make_accepts_negligible_and_flags_zero():
    a = gn("exp(-log(n)^2)")
    assert is_zero(a).verdict == "negligible"
    assert is_zero(gn("n^2")).verdict == "moderate"


def test_add_ultrametric_on_norms():
    a, b = gn("n^2"), gn("n^-1")
    s = gennum.add(a, b)
    w = SPACE.single_weight()
    na = ultranorm(a.magnitude, w).log_value
    nb = ultranorm(b.magnitude, w).log_value
    ns = ultranorm(s.magnitude, w).log_value
    assert ns <= max(na, nb) + 1e-12
    # distinct norms force equality (isosceles sharpening)
    assert ns == pytest.approx(max(na, nb), abs=1e-12)


def test_mul_norms_multiply():
    a, b = gn("n^2"), gn("n^3*log(n)")
    p = gennum.mul(a, b)
    w = SPACE.single_weight()
    assert ultranorm(p.magnitude, w).value == pytest.approx(math.exp(5), rel=1e-12)


def test_sub_same_representative_is_zero():
    a = gn("n^2 + log(n)")
    d = gennum.sub(a, a)
    assert is_zero(d).verdict == "negligible"


def test_spaces_must_match():
    from ultraseq.spaces import infra_space

    with pytest.raises(ValueError):
        gennum.add(gn("n^2"), make(SeqRep.symbolic("n^-1"), infra_space()))


# ---------------------------------------------------------------------------
# association kinds: exact frozen examples


def test_strong_threshold_strict():
    # ||n^-3|| = e^-3: strictly below e^-2, not below e^-3 (boundary), not e^-4
    d = SeqRep.symbolic("n^-3")
    a = gn("n^-3")
    v = associate(a, ZERO_N, AssocKind.strong(2.0), difference=d)
    assert v.holds == "yes" and not v.boundary
    v = associate(a, ZERO_N, AssocKind.strong(3.0), difference=d)
    assert v.holds == "no" and v.boundary
    v = associate(a, ZERO_N, AssocKind.strong(4.0), difference=d)
    assert v.holds == "no" and not v.boundary


def test_weak_limits():
    assert associate(gn("log(n)^-1"), ZERO_N, AssocKind.weak()).holds == "yes"
    assert associate(gn("2"), ZERO_N, AssocKind.weak()).holds == "no"
    v = associate(gn("n^-1"), ZERO_N, AssocKind.weak())
    assert v.holds == "yes" and v.witness["limit"] == 0.0


def test_s_dual_weighs_by_reciprocal_weight():
    # e^(s/r_n) = n^s under the 1/log n weight
    d = SeqRep.symbolic("n^-2*log(n)^-1")
    a = make(d, SPACE)
    v = associate(a, ZERO_N, AssocKind.s_dual(2.0), difference=d)
    assert v.holds == "yes"
    assert v.witness["multiplier"] == "n^2"
    assert associate(a, ZERO_N, AssocKind.s_dual(3.0), difference=d).holds == "no"


def test_dual_holds_where_threshold_fails():
    # norm exactly e^-s: the threshold relation fails on the boundary while
    # the polynomially-weighted limit still vanishes
    for s in (1.0, 2.0, 3.0):
        d = SeqRep.symbolic(f"n^-{s:g}*log(n)^-1")
        a = make(d, SPACE)
        thr = associate(a, ZERO_N, AssocKind.weak_s(s), difference=d)
        assert thr.holds == "no" and thr.boundary
        assert thr.witness["log_ultranorm"] == pytest.approx(-s, abs=1e-12)
        dual = associate(a, ZERO_N, AssocKind.s_dual(s), difference=d)
        assert dual.holds == "yes"


_S_GRID = [0.5, 1.0, 2.0, 3.0]
_DECAYS = ["n^-1", "n^-2", "n^-4", "exp(-n)", "n^-2*log(n)", "exp(-log(n)^2)", "0"]


@pytest.mark.parametrize("s", _S_GRID)
@pytest.mark.parametrize("text", _DECAYS)
def test_implication_chain(s, text):
    # strong-s implies weak-s implies s-dual, for every tested pair
    d = SeqRep.symbolic(text)
    a = make(d, SPACE)
    strong = associate(a, ZERO_N, AssocKind.strong(s), difference=d).holds
    weak_s = associate(a, ZERO_N, AssocKind.weak_s(s), difference=d).holds
    dual = associate(a, ZERO_N, AssocKind.s_dual(s), difference=d).holds
    if strong == "yes":
        assert weak_s == "yes"
    if weak_s == "yes":
        assert dual == "yes"


def test_sampled_weak_association():
    d = SeqRep.sampled_from_expr("n^-1")
    a = make(d, SPACE)
    v = associate(a, ZERO_N, AssocKind.weak(), difference=d)
    assert v.holds == "yes"
    d = SeqRep.sampled_from_expr("2")
    v = associate(make(d, SPACE), ZERO_N, AssocKind.weak(), difference=d)
    assert v.holds == "no"


def test_sampled_pair_needs_explicit_difference():
    from ultraseq.growth import NotRepresentable

    a = make(SeqRep.sampled_from_expr("n^-1"), SPACE)
    z = make(SeqRep.sampled_from_expr("log(n)^-1"), SPACE)
    with pytest.raises(NotRepresentable):
        associate(a, z, AssocKind.weak())


def test_sampled_magnitude_times_a_symbolic_one():
    a = make(SeqRep.sampled_from_expr("n^-1"), SPACE, phase=-1)
    p = gennum.mul(a, make("n^2", SPACE, phase=1j))
    assert p.phase == -1j
    assert ultranorm(p.magnitude, SPACE.single_weight()).log_value == pytest.approx(1.0, abs=1e-6)


def test_sampled_magnitudes_with_equal_phases_add():
    a = make(SeqRep.sampled_from_expr("n^-1"), SPACE)
    s = gennum.add(a, a)
    assert s.phase == a.phase
    assert ultranorm(s.magnitude, SPACE.single_weight()).log_value == pytest.approx(-1.0, abs=1e-6)


def test_make_rejects_a_callable_representative():
    with pytest.raises(TypeError, match="expression or a SeqRep"):
        make(lambda ns: 1.0 / ns, SPACE)


def test_strong_threshold_on_an_estimated_difference():
    # the estimate of ||n^-3|| is e^-3 with a band around it: below e^-2,
    # straddling e^-3, above e^-4
    d = SeqRep.sampled_from_expr("n^-3")
    a = make(d, SPACE)
    holds = [associate(a, ZERO_N, AssocKind.strong(s), difference=d).holds for s in (2, 3, 4)]
    assert holds == ["yes", "inconclusive", "no"]


# ---------------------------------------------------------------------------
# every kind's full verdict, pinned


INF = math.inf
_TOL_LOG = -6.907755278982137  # log 1e-3, the null trend's tolerance
_ON_THRESHOLD = "ultranorm sits exactly on the threshold; the strict inequality fails"
_STRONG_FORM = "on scalar sequences this coincides with the strong form"
_PROBED = "probed exponents up to 32"
_FIT = "tail fit over 10 dyadic windows; last window sup -1, extrapolated -1"
_FALLING = "weighted log values fall below -50 and still falling"


def _exact(log_value, witness="exact limit of weighted log values"):
    return UltranormValue(log_value, True, None, True, witness)


def _norm(value):
    """A threshold kind's witness at s = 2."""
    return {"ultranorm": value, "log_ultranorm": value.log_value, "log_threshold": -2.0}


def _trend(last):
    """The null trend's witness."""
    return {"last_window_sup_log": last, "tol_log": _TOL_LOG}


_PINNED_DESCRIPTIONS = {
    "weak": "weak",
    "strong:2": "strong-s(s=2)",
    "weak-s:2": "weak-s(s=2)",
    "s-dual:2": "s-dual(s=2)",
    "power-x": "custom-JX(null limit; n^s family)",
    "finite X": "custom-JX(null limit; 2 multipliers)",
}

_SAMPLED_N_INV = UltranormValue(
    -0.9999999999999917, False, (-1.0000100009999917, -0.9999899989999916), True, _FIT
)
_SAMPLED_FAST = UltranormValue(-INF, False, (-INF, -50.0), True, _FALLING)
_THRESHOLD_WITNESSES = {
    "0": (True, False, _norm(_exact(-INF))),
    "n^-1": (False, False, _norm(_exact(-1.0))),
    "n^-2": (False, True, _norm(_exact(-2.0))),
    "exp(-n)": (True, False, _norm(_exact(-INF))),
    "alt(n^-3, 1)": (False, False, _norm(_exact(0.0, "upper limit over parity branches: even -3, odd 0"))),
    "truncated": (True, False, _norm(_exact(-INF, "sequence vanishes beyond n=40"))),
    "sampled n^-1": (False, False, _norm(_SAMPLED_N_INV)),
    "sampled exp(-sqrt n)": (True, False, _norm(_SAMPLED_FAST)),
}

# (kind, difference) -> (answer, boundary, witness, notes)
_PINNED_VERDICTS = {
    **{("strong:2", d): (*v, _ON_THRESHOLD if v[1] else "") for d, v in _THRESHOLD_WITNESSES.items()},
    **{
        ("weak-s:2", d): (*v, f"{_ON_THRESHOLD}; {_STRONG_FORM}" if v[1] else _STRONG_FORM)
        for d, v in _THRESHOLD_WITNESSES.items()
    },
    ("weak", "0"): (True, False, {"limit": 0.0}, ""),
    ("weak", "n^-1"): (True, False, {"limit": 0.0}, ""),
    ("weak", "n^-2"): (True, False, {"limit": 0.0}, ""),
    ("weak", "exp(-n)"): (True, False, {"limit": 0.0}, ""),
    ("weak", "alt(n^-3, 1)"): (False, False, {"limit": 1.0}, ""),
    ("weak", "truncated"): (True, False, {"limit": 0.0}, ""),
    ("weak", "sampled n^-1"): (True, False, _trend(-13.16979643063896), ""),
    ("weak", "sampled exp(-sqrt n)"): (True, False, _trend(-690.7755278982137), ""),
    ("s-dual:2", "0"): (True, False, {"limit": 0.0, "multiplier": "n^2"}, ""),
    ("s-dual:2", "n^-1"): (False, False, {"limit": INF, "multiplier": "n^2"}, ""),
    ("s-dual:2", "n^-2"): (False, False, {"limit": 1.0, "multiplier": "n^2"}, ""),
    ("s-dual:2", "exp(-n)"): (True, False, {"limit": 0.0, "multiplier": "n^2"}, ""),
    ("s-dual:2", "alt(n^-3, 1)"): (False, False, {"limit": INF, "multiplier": "n^2"}, ""),
    ("s-dual:2", "truncated"): (True, False, {"limit": 0.0}, ""),
    ("s-dual:2", "sampled n^-1"): (False, False, _trend(13.815510557964277), ""),
    ("s-dual:2", "sampled exp(-sqrt n)"): (True, False, _trend(-664.4359350369358), ""),
    ("power-x", "0"): (True, False, {"multipliers": "all n^s"}, ""),
    ("power-x", "n^-1"): (False, False, {"multipliers": "all n^s, decided exactly"}, ""),
    ("power-x", "n^-2"): (False, False, {"multipliers": "all n^s, decided exactly"}, ""),
    ("power-x", "exp(-n)"): (True, False, {"multipliers": "all n^s, decided exactly"}, ""),
    ("power-x", "alt(n^-3, 1)"): (False, False, {"multipliers": "all n^s, decided exactly"}, ""),
    ("power-x", "truncated"): (True, False, {"multipliers": "all n^s"}, ""),
    ("power-x", "sampled n^-1"): (False, False, {"failing_exponent": 1, **_trend(0.0)}, _PROBED),
    ("power-x", "sampled exp(-sqrt n)"): (
        True, False, {"probed_exponents": [0, 1, 2, 4, 8, 16, 32]},
        f"{_PROBED}; exhaustive only on the symbolic tier",
    ),
    ("finite X", "0"): (True, False, {"tested": 2}, ""),
    ("finite X", "n^-1"): (False, False, {"failing_multiplier": "n^2"}, ""),
    ("finite X", "n^-2"): (False, False, {"failing_multiplier": "n^2"}, ""),
    ("finite X", "exp(-n)"): (True, False, {"tested": 2}, ""),
    ("finite X", "alt(n^-3, 1)"): (False, False, {"failing_multiplier": "1"}, ""),
    ("finite X", "truncated"): (True, False, {"tested": 2}, ""),
    ("finite X", "sampled n^-1"): (False, False, {"failing_multiplier": "n^2"}, ""),
    ("finite X", "sampled exp(-sqrt n)"): (True, False, {"tested": 2}, ""),
    # s-dual under a weight given by an evaluator: the sampled judge reads
    # a symbolic difference
    ("s-dual:2 evaluated", "0"): (True, False, _trend(-INF), ""),
    ("s-dual:2 evaluated", "n^-1"): (False, False, _trend(13.815510557964274), ""),
    ("s-dual:2 evaluated", "exp(-n)"): (True, False, _trend(-524261.6604071387), ""),
    ("s-dual:2 evaluated", "alt(n^-3, 1)"): (False, False, _trend(27.11445092472656), ""),
}


def _pinned_difference(text):
    if text == "truncated":
        return SeqRep.truncated(40)
    if text == "sampled n^-1":
        return SeqRep.sampled_from_expr("n^-1")
    if text == "sampled exp(-sqrt n)":
        return SeqRep.sampled(lambda ns: np.exp(-np.sqrt(ns)), "exp(-sqrt n)")
    return SeqRep.symbolic(text)


def test_every_kind_gives_its_pinned_verdict():
    kinds = {
        "weak": AssocKind.weak(),
        "strong:2": AssocKind.strong(2.0),
        "weak-s:2": AssocKind.weak_s(2.0),
        "s-dual:2": AssocKind.s_dual(2.0),
        "power-x": AssocKind.custom(null_predicate, PowerXFamily(), "null limit"),
        "finite X": AssocKind.custom(null_predicate, [gn("1"), gn("n^2")], "null limit"),
    }
    assert {name: kind.describe() for name, kind in kinds.items()} == _PINNED_DESCRIPTIONS
    evaluated = WeightSeq("1/log(n), evaluated", evaluator=lambda ns: 1.0 / np.log(np.asarray(ns, dtype=float)))
    spaces_ = {"s-dual:2 evaluated": NumberSpace(single_family(evaluated, "evaluated"), Mode.STANDARD)}
    kinds["s-dual:2 evaluated"] = kinds["s-dual:2"]
    got = {}
    for name, diff in _PINNED_VERDICTS:
        zero = make("0", spaces_.get(name, SPACE))
        v = associate(zero, zero, kinds[name], difference=_pinned_difference(diff))
        got[name, diff] = (v.answer, v.boundary, v.witness, v.notes)
    # repr tells 0 from 0.0 and -0.0, and a numpy float from a float
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in _PINNED_VERDICTS.items()}


# ---------------------------------------------------------------------------
# custom J,X association


def test_custom_jx_with_power_probes():
    # difference n^-2/log n: every fixed power x = n^j with j <= 2 sends it
    # into the null class, so the generic scheme with bounded probes holds
    d = SeqRep.symbolic("exp(-log(n)^2)")
    a = make(d, SPACE)
    kind = AssocKind.custom(null_predicate, PowerXFamily(), "null limit")
    v = associate(a, ZERO_N, kind, difference=d)
    assert v.holds == "yes"

    d2 = SeqRep.symbolic("n^-1")
    a2 = make(d2, SPACE)
    v2 = associate(a2, ZERO_N, kind, difference=d2)
    assert v2.holds == "no"  # x = n^2 sends it to n, not null


def test_the_power_family_is_decided_for_the_null_limit_alone():
    # J = eventually zero: n^s e^-n is never eventually zero, yet a test
    # that decides the null limit for every J would answer yes
    def eventually_zero(rep):
        return rep.is_truncated or (rep.is_symbolic and rep.expr.is_zero)

    with pytest.raises(ValueError, match="null-limit J"):
        AssocKind.custom(eventually_zero, PowerXFamily(), "eventually zero")
    kind = AssocKind.custom(eventually_zero, [gn("1"), gn("n")], "eventually zero")
    assert associate(gn("exp(-n)"), ZERO_N, kind).holds == "no"


def test_power_probes_on_a_sampled_difference():
    kind = AssocKind.custom(null_predicate, PowerXFamily(), "null limit")
    d = SeqRep.sampled_from_expr("n^-1")
    v = associate(make(d, SPACE), ZERO_N, kind, difference=d)
    assert v.holds == "no" and v.witness["failing_exponent"] == 1
    d = SeqRep.sampled_from_expr("exp(-n)")
    v = associate(make(d, SPACE), ZERO_N, kind, difference=d)
    assert v.holds == "yes" and v.witness == {"probed_exponents": [0, 1, 2, 4, 8, 16, 32]}


def test_power_probes_read_a_sampled_difference_once():
    calls = []

    def values(ns):
        calls.append(len(ns))
        return np.exp(-np.sqrt(ns))

    kind = AssocKind.custom(null_predicate, PowerXFamily(), "null limit")
    v = associate(ZERO_N, ZERO_N, kind, difference=SeqRep.sampled(values, "exp(-sqrt n)"))
    assert v.holds == "yes" and v.witness == {"probed_exponents": [0, 1, 2, 4, 8, 16, 32]}
    assert len(calls) == 1


def test_custom_jx_keeps_a_truncated_multiplier_product_truncated():
    seen = []

    def recording(rep):
        seen.append(rep)
        return null_predicate(rep)

    kind = AssocKind.custom(recording, [make(SeqRep.truncated(40), SPACE)], "null limit")
    v = associate(ZERO_N, ZERO_N, kind, difference=SeqRep.sampled_from_expr("n^-1"))
    assert v.holds == "yes"
    assert [rep.cutoff for rep in seen] == [40]


def test_jx_well_definedness_audit():
    rep = jx_well_defined(null_predicate, SPACE)
    assert rep.passed and rep.checked_members >= 5
    rep = jx_well_defined(bounded_predicate, SPACE, j_label="bounded")
    assert rep.passed


def _counting(values_fn, seen: list):
    def fn(ns):
        seen.extend(int(n) for n in ns)
        return values_fn(np.asarray(ns, dtype=float))

    return fn


def test_sampled_bounded_predicate():
    assert bounded_predicate(SeqRep.sampled_from_expr("2 + n^-1")) is True
    assert bounded_predicate(SeqRep.sampled_from_expr("n^5")) is False
    # a grid with a single dyadic window cannot show a trend
    one_window = SeqRep.sampled(lambda ns: 1.0 / ns, "1/n", n_min=600_000)
    assert bounded_predicate(one_window) is None


def test_sampled_bounded_predicate_uses_sample_ns():
    sample_ns = [2 ** k for k in range(4, 21)]
    seen: list[int] = []
    rep = SeqRep.sampled(_counting(lambda ns: 1.0 / ns, seen), "1/n", sample_ns=sample_ns)
    assert bounded_predicate(rep) is True
    # the predicate tests the last 2 dyadic windows, and reads them alone
    assert sorted(seen) == sample_ns[-2:]


def test_sampled_null_predicate_respects_n_min():
    seen: list[int] = []
    sample_ns = [2, 50, *(2 ** k for k in range(7, 21))]
    rep = SeqRep.sampled(_counting(lambda ns: 1.0 / ns, seen), "1/n", n_min=100, sample_ns=sample_ns)
    assert null_predicate(rep) is True
    assert seen and min(seen) >= 100


def _full_read_maxima(f, windows=None, shift_log=None):
    """The window maxima of a read of every dyadic window of f's tail, as
    the judges read before they read only the windows they test."""
    s = spaces._tail_samples(f, f.n_min)
    logs = s.logs if shift_log is None else s.logs + shift_log(s.ns)
    return spaces._window_sups(s, logs)[0]


def _judgements(rep):
    """Every sampled judge's verdict on rep, with its witness."""
    kinds = [
        AssocKind.weak(),
        AssocKind.s_dual(1.0),
        AssocKind.custom(null_predicate, PowerXFamily(), "null limit"),
        AssocKind.custom(null_predicate, [gn("1"), gn("n^2")], "null limit"),
        AssocKind.custom(bounded_predicate, [gn("log(n)")], "bounded"),
    ]
    verdicts = [associate(ZERO_N, ZERO_N, kind, difference=rep) for kind in kinds]
    return null_predicate(rep), bounded_predicate(rep), [(v.holds, v.witness, v.notes) for v in verdicts]


_tails = st.fixed_dictionaries(
    {
        "power": st.floats(-3.0, 2.0),
        "wobble": st.sampled_from([0.0, 0.4, 0.9]),
        "zero_from": st.sampled_from([None, 300, 70_000]),
        "scale": st.sampled_from([1.0, 1e-3, 5.0]),
    }
)


def _tail_values(tail):
    def values(ns):
        ns = np.asarray(ns, dtype=float)
        out = tail["scale"] * ns ** tail["power"] * (1.0 + tail["wobble"] * np.sin(ns))
        return out if tail["zero_from"] is None else np.where(ns >= tail["zero_from"], 0.0, out)

    return values


@given(
    _tails,
    st.one_of(
        # explicit sample_ns, from one to many dyadic windows
        st.tuples(st.just("sample_ns"), st.lists(st.integers(2, 2**20), min_size=1, max_size=40, unique=True)),
        # the dyadic grid, its cut-off near n_max for a read of few windows
        st.tuples(st.just("grid"), st.sampled_from([2, 16, 1000, 300_000, 600_000, 999_000])),
    ),
)
@settings(max_examples=60, deadline=None)
def test_a_trailing_read_is_the_tail_of_a_full_read(tail, read):
    how, arg = read
    if how == "sample_ns":
        # the sequence spans every index the strategy draws, up to 2^20
        rep = SeqRep.sampled(_tail_values(tail), "tail", n_min=2, n_max=2**20, sample_ns=arg)
    else:
        rep = SeqRep.sampled(_tail_values(tail), "tail", n_min=arg)
    shifts = [None, lambda ns: 1.0 / SPACE.single_weight().values(ns),
              lambda ns: np.multiply.outer(gennum._PROBE_EXPONENTS, np.log(ns))]
    for shift in shifts:
        full = _full_read_maxima(rep, shift_log=shift)
        for windows in (1, gennum._BOUNDED_WINDOWS, gennum._TREND_WINDOWS, 7, 40):
            got = spaces._dyadic_log_maxima(rep, windows, shift)
            want = full[..., -windows:]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    trailing = _judgements(rep)
    with mock.patch.object(gennum, "_dyadic_log_maxima", _full_read_maxima):
        assert _judgements(rep) == trailing


def test_a_symbolic_multiplier_does_not_cut_a_table_known_beyond_its_horizon():
    # a symbolic sequence is defined at every index: its product with a
    # table known only above 10^6 (the symbolic sampling horizon) is read there
    sample_ns = [2**20 - 1, 2**20]
    d = SeqRep.sampled(lambda ns: 1.0 / ns, "table 1/n", n_max=2**20, sample_ns=sample_ns)
    prod = spaces._product(gn("n").magnitude, d)
    assert prod.n_max == 2**20 and prod.sample_ns == tuple(sample_ns)
    kind = AssocKind.custom(bounded_predicate, [gn("n")], "bounded")
    assert associate(ZERO_N, ZERO_N, kind, difference=d).holds == "yes"


def test_custom_jx_samples_a_table_difference_only_where_it_is_known():
    # a lookup-table difference is defined on its sample_ns alone; each
    # multiplier's product must be judged on those indices, not the dyadic grid
    sample_ns = [2 ** k for k in range(4, 21)]
    table = {n: 1.0 / n for n in sample_ns}
    seen: list[int] = []
    d = SeqRep.sampled(
        _counting(lambda ns: np.array([table[int(n)] for n in ns]), seen), "table 1/n",
        sample_ns=sample_ns,
    )
    kind = AssocKind.custom(null_predicate, [gn("1"), gn("log(n)^2")], "null limit")
    v = associate(ZERO_N, ZERO_N, kind, difference=d)
    assert v.holds == "yes" and v.witness == {"tested": 2}
    # null_predicate tests the last 4 dyadic windows, and reads them alone
    assert set(seen) == set(sample_ns[-4:])

    kind = AssocKind.custom(null_predicate, [gn("n^2")], "null limit")
    v = associate(ZERO_N, ZERO_N, kind, difference=d)
    assert v.holds == "no" and v.witness == {"failing_multiplier": "n^2"}


# ---------------------------------------------------------------------------
# representative change


_KINDS = [AssocKind.weak(), AssocKind.strong(1.0), AssocKind.weak_s(2.0), AssocKind.s_dual(1.0)]


@given(
    st.sampled_from(["n^2", "n^-1", "2", "n^-3*log(n)", "log(n)"]),
    st.sampled_from(["exp(-n)", "exp(-log(n)^2)", "exp(-0.5*n)"]),
)
@settings(max_examples=30, deadline=None)
def test_verdicts_survive_ideal_perturbation(text, ktext):
    base = SeqRep.symbolic(text)
    pert = SeqRep.symbolic(growth.add(growth.parse(text), growth.parse(ktext)))
    a, ap = make(base, SPACE), make(pert, SPACE)
    assert is_zero(a).verdict == is_zero(ap).verdict
    for kind in _KINDS:
        v1 = associate(a, ZERO_N, kind, difference=base)
        v2 = associate(ap, ZERO_N, kind, difference=pert)
        assert v1.holds == v2.holds
