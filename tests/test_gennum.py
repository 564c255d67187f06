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
from ultraseq.spaces import SeqRep, colombeau_space, ultranorm

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
