"""Exact growth-expression calculus: parsing, normal form, comparison, limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraseq import growth
from ultraseq.growth import (
    GREATER,
    LESS,
    NotRepresentable,
    ONE,
    ParityLimits,
    ParseError,
    SAME,
    ZERO,
    add,
    alt_expr,
    compare,
    constant,
    eval_log,
    eval_value,
    exp_of_reciprocal,
    format_expr,
    limit_of_product,
    limit_value,
    log_expr,
    mul,
    parse,
    pow_expr,
    term_expr,
)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_basic_forms():
    assert format_expr(parse("n^2")) == "n^2"
    assert format_expr(parse("3*n^2*log(n)")) == "3*n^2*log(n)"
    assert format_expr(parse("exp(-n)")) == "exp(-n)"
    assert format_expr(parse("exp(2*n^0.5 - log(n)^2)")) == "exp(2*n^0.5 - log(n)^2)"
    assert format_expr(parse("loglog(n)^2")) == "loglog(n)^2"
    assert parse("0").is_zero


def test_parse_sum_orders_by_dominance():
    e = parse("n + n^2 + 1")
    assert format_expr(e) == "n^2 + n + 1"
    assert format_expr(parse("exp(log(n)^0.5) + n")) == "n + exp(log(n)^0.5)"


def test_parse_merges_like_terms():
    assert format_expr(parse("n^2 + n^2")) == "2*n^2"
    assert format_expr(parse("n*n")) == "n^2"
    assert format_expr(parse("2*exp(n)*exp(-n)")) == "2"


def test_parse_division_folds_into_power():
    assert format_expr(parse("1/log(n)")) == "log(n)^-1"
    assert format_expr(parse("n^2/(2*n)")) == "0.5*n"
    assert format_expr(parse("n^-2/log(n)")) == "n^-2*log(n)^-1"


def test_parse_division_rejects_multi_term_divisor():
    with pytest.raises(ParseError):
        parse("1/(n+1)")
    with pytest.raises(ParseError):
        parse("n/0")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse("n^^2")
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        parse("exp(n")
    with pytest.raises(ParseError):
        parse("n^2 +")
    with pytest.raises(ParseError):
        parse("-n")  # sequences here are magnitudes, no negative terms


def test_parse_overflowing_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="a number is out of floating-point range"):
        parse("1e300^2")


def test_format_parse_round_trip_on_handwritten_cases():
    cases = [
        "n^2 + n*log(n) + 5",
        "0.5*n^-3*log(n)^2",
        "exp(n^0.5)*n^-2",
        "exp(-2*n + n^0.5)",
        "log(n)^-1",
        "loglog(n)*log(n)",
        "2",
        "0",
    ]
    for text in cases:
        e = parse(text)
        assert parse(format_expr(e)) == e


# ---------------------------------------------------------------------------
# constructors and arithmetic

# expression strategy: built from constructors, not the parser, so the two
# routes into the normal form cross-check each other
_coeff = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])
_pow = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_logpow = st.sampled_from([-1.0, 0.0, 1.0, 2.0])
_expd = st.sampled_from([0.5, 1.0, 2.0])
# exp(c*log(n)^b): b = 0.5 grows slower than any power of n, b > 1 faster
_explogd = st.sampled_from([0.5, 1.5, 2.0])
_expc = st.sampled_from([-2.0, -1.0, 1.0])


@st.composite
def terms(draw):
    c = draw(_coeff)
    pn = draw(_pow)
    pl = draw(_logpow)
    kind = draw(st.sampled_from(["none", "n", "log"]))
    if kind == "n":
        items = (((draw(_expd), 0.0, 0.0, 0.0), draw(_expc)),)
    elif kind == "log":
        items = (((0.0, draw(_explogd), 0.0, 0.0), draw(_expc)),)
    else:
        items = ()
    return term_expr(c, pow_n=pn, pow_log=pl, exp_items=items)


@st.composite
def exprs(draw):
    parts = draw(st.lists(terms(), min_size=1, max_size=3))
    e = parts[0]
    for p in parts[1:]:
        e = add(e, p)
    return e


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_round_trip_constructed(e):
    assert parse(format_expr(e)) == e


@given(exprs(), exprs())
@settings(max_examples=100, deadline=None)
def test_mul_commutes_and_formats_stably(a, b):
    ab = mul(a, b)
    assert ab == mul(b, a)
    assert parse(format_expr(ab)) == ab


@given(exprs(), exprs(), exprs())
@settings(max_examples=80, deadline=None)
def test_add_associates(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


def test_zero_and_one_identities():
    e = parse("n^2*log(n)")
    assert add(e, ZERO) == e
    assert mul(e, ONE) == e
    assert mul(e, ZERO).is_zero
    with pytest.raises(ValueError):
        pow_expr(ZERO, 3.0)


def test_pow_distributes_over_single_term():
    e = pow_expr(parse("4*n^2*exp(-n)"), 0.5)
    assert format_expr(e) == "2*n*exp(-0.5*n)"


def test_pow_integer_expands_sums():
    e = pow_expr(parse("n + 1"), 2.0)
    assert format_expr(e) == "n^2 + 2*n + 1"


def test_pow_fractional_on_sum_not_representable():
    with pytest.raises(NotRepresentable):
        pow_expr(parse("n + 1"), 0.5)
    with pytest.raises(NotRepresentable):
        pow_expr(parse("n + 1"), -1.0)


# ---------------------------------------------------------------------------
# comparison


def test_compare_basic_ladder():
    # each entry strictly dominates the previous one
    ladder = [
        "exp(-n)",
        "n^-2",
        "exp(-log(n)^0.5)",
        "log(n)^-1",
        "1",
        "loglog(n)",
        "log(n)",
        "exp(log(n)^0.5)",
        "n^0.5",
        "n",
        "n*log(n)",
        "n^2",
        "exp(n^0.5)",
        "exp(n)",
        "exp(n)*n",
        "exp(2*n)",
    ]
    for lo, hi in zip(ladder, ladder[1:]):
        assert compare(parse(lo), parse(hi)).relation == LESS
        assert compare(parse(hi), parse(lo)).relation == GREATER


def test_compare_same_up_to_constants():
    c = compare(parse("2*n^2"), parse("5*n^2"))
    assert c.relation == SAME and c.ratio == pytest.approx(0.4)
    assert compare(ZERO, ZERO).relation == SAME
    assert compare(parse("3"), parse("7")).relation == SAME


def test_compare_zero_below_everything_positive():
    assert compare(ZERO, parse("exp(-n^2)")).relation == LESS


@given(exprs(), exprs())
@settings(max_examples=120, deadline=None)
def test_compare_antisymmetric(a, b):
    c1, c2 = compare(a, b).relation, compare(b, a).relation
    if c1 == SAME:
        assert c2 == SAME
    elif c1 == LESS:
        assert c2 == GREATER
    else:
        assert c2 == LESS


@given(exprs(), exprs(), exprs())
@settings(max_examples=80, deadline=None)
def test_compare_transitive_on_less(a, b, c):
    if compare(a, b).relation == LESS and compare(b, c).relation == LESS:
        assert compare(a, c).relation == LESS


@given(exprs(), exprs(), exprs())
@settings(max_examples=80, deadline=None)
def test_compare_respects_multiplication(a, b, c):
    assert compare(mul(a, c), mul(b, c)).relation == compare(a, b).relation


# ---------------------------------------------------------------------------
# limits


def test_limit_value_plain_cases():
    assert limit_value(parse("n^-1")) == 0.0
    assert limit_value(parse("3")) == 3.0
    assert limit_value(parse("exp(n)")) == math.inf
    assert limit_value(parse("2 + n^-1")) == 2.0
    assert limit_value(ZERO) == 0.0
    # exp(log(n)^0.5) grows, but slower than any power of n
    assert limit_value(parse("exp(log(n)^0.5)*n^-1")) == 0.0
    assert limit_value(parse("exp(-log(n)^0.5)*n^0.01")) == math.inf


def test_limit_value_parity_branches():
    e = alt_expr(parse("n^-1"), parse("2"))
    lv = limit_value(e)
    assert isinstance(lv, ParityLimits)
    assert lv.inf == 0.0 and lv.sup == 2.0


def test_limit_of_product_colombeau_weight():
    r = parse("log(n)^-1")
    # lim (log n)^-1 * log(n^3) = 3
    assert limit_of_product(r, log_expr(parse("n^3"))) == 3.0
    # lim (log n)^-1 * log(exp(n)) = +inf
    assert limit_of_product(r, log_expr(parse("exp(n)"))) == math.inf
    # lim (log n)^-1 * log(c) = 0
    assert limit_of_product(r, log_expr(parse("5"))) == 0.0
    # the dominant term of n + exp(log(n)^0.5) is n
    assert limit_of_product(r, log_expr(parse("n + exp(log(n)^0.5)"))) == 1.0
    # lim (log n)^-1 * log(loglog(n)^2) = 0, but a constant weight gives +inf
    assert limit_of_product(r, log_expr(parse("loglog(n)^2"))) == 0.0
    assert limit_of_product(parse("2"), log_expr(parse("loglog(n)^2"))) == math.inf


def test_limit_of_product_power_weight():
    r = parse("n^-1")
    assert limit_of_product(r, log_expr(parse("exp(2*n)"))) == 2.0
    assert limit_of_product(r, log_expr(parse("n^7"))) == 0.0
    assert limit_of_product(r, log_expr(parse("exp(n^2)"))) == math.inf


def test_exp_of_reciprocal():
    # exp(s / r_n) for r = 1/log n is n^s
    e = exp_of_reciprocal(parse("log(n)^-1"), 3.0)
    assert format_expr(e) == "n^3"
    # for r = 1/n it is exp(s*n)
    e = exp_of_reciprocal(parse("n^-1"), 2.0)
    assert format_expr(e) == "exp(2*n)"


def test_log_expr_single_term():
    comb = log_expr(parse("5*n^2*log(n)"))
    monos = dict(comb.monos)
    # log(5 n^2 log n) = 2*log(n) + loglog(n) + log 5
    assert monos[(0.0, 1.0, 0.0, 0.0)] == 2.0
    assert monos[(0.0, 0.0, 1.0, 0.0)] == 1.0
    assert monos[(0.0, 0.0, 0.0, 0.0)] == pytest.approx(math.log(5))


# ---------------------------------------------------------------------------
# numeric evaluation agrees with the symbolic view


def test_eval_log_matches_eval_value():
    ns = np.array([10.0, 100.0, 1e4, 1e6])
    for text in ["n^2", "3*n^-1*log(n)", "exp(-n^0.5)", "n + log(n)"]:
        e = parse(text)
        np.testing.assert_allclose(
            np.exp(eval_log(e, ns)), eval_value(e, ns), rtol=1e-12
        )


def test_eval_log_zero_is_neg_inf():
    assert eval_log(ZERO, np.array([5.0]))[0] == -math.inf


def test_eval_log_overflow_safe():
    # value overflows float range, log stays finite
    e = parse("exp(n)")
    out = eval_log(e, np.array([1e6]))
    assert out[0] == pytest.approx(1e6)
    assert eval_value(e, np.array([1e6]))[0] == math.inf


@given(exprs())
@settings(max_examples=100, deadline=None)
def test_eval_consistent_with_dominance(e):
    # sampled values of a ≪ b must eventually sit below b; spot check far out
    b = mul(e, parse("n"))
    n = 1e8
    assert eval_log(e, np.array([n]))[0] < eval_log(b, np.array([n]))[0]


def test_eval_n_min_is_derived_once_per_expression(monkeypatch):
    calls = []
    split = growth._split
    monkeypatch.setattr(growth, "_split", lambda exponent: calls.append(exponent) or split(exponent))
    e = parse("n^2 + loglog(n) * log(n)")
    assert e.eval_n_min == 16
    derived = len(calls)
    assert derived == len(e.terms)
    eval_log(e, [16, 32])
    eval_value(e, 64)
    assert e.eval_n_min == 16
    assert len(calls) == derived + 2 * len(e.terms)  # the two evaluations, not their n_min check


def test_triple_log_factor_raises_at_each_read_not_at_construction():
    # exp(logloglog(n)^2): a monomial in the fourth basis slot, outside the power factors
    e = growth.GrowthExpr(terms=(growth.GrowthTerm(1.0, (((0.0, 0.0, 0.0, 2.0), 1.0),)),))
    for _ in range(2):
        with pytest.raises(NotRepresentable, match="triple-log"):
            e.eval_n_min
        with pytest.raises(NotRepresentable, match="triple-log"):
            eval_log(e, [16])
