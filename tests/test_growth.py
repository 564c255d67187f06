"""Exact growth-expression calculus: parsing, normal form, comparison, limits."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    limits_of_product,
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


def test_zero_literals_and_numbers_at_the_edge_of_float_range_parse():
    for text in ("0e5", "0.0*n", "0.000e-999*n"):
        assert parse(text).is_zero
    assert parse("1e308*n").terms[0].coeff == 1e308
    assert parse("5e-324").terms[0].coeff == 5e-324
    assert parse("n^1e300") == term_expr(1.0, pow_n=1e300)


def test_unexpected_character_is_reported_where_it_stands():
    with pytest.raises(ParseError) as e:
        parse("n $ 2")
    assert e.value.pos == 2
    with pytest.raises(ParseError) as e:
        parse("n\t #")
    assert e.value.pos == 3


def test_text_check_stays_linear_and_runs_on_python_3_10():
    # a run of digits splits into tokens in 2^(k-1) ways; a check that
    # backtracked over them would not finish on this text
    with pytest.raises(ParseError, match=r"unexpected character '\$' \(at position 60\)"):
        parse("1" * 60 + "$")
    # atomic groups and possessive quantifiers need Python 3.11
    pattern = growth._TEXT_RE.pattern
    assert "(?>" not in pattern and not re.search(r"[^\\][*+?}]\+", pattern)


_MUST_GROW = "exponent terms must grow: need n or log(n) with positive leading power"

# every error the parser raises: (text, exception type, exact message)
_PARSE_ERRORS = [
    # the tokenizer
    ("n $ 2", ParseError, "unexpected character '$' (at position 2)"),
    ("n#2", ParseError, "unexpected character '#' (at position 1)"),
    ("2.", ParseError, "unexpected character '.' (at position 1)"),
    # a token other than the one the grammar needs
    ("exp(n", ParseError, "expected ')', found None (at position 5)"),
    ("log n", ParseError, "expected '(', found 'n' (at position 4)"),
    ("log(2)", ParseError, "expected 'n', found '2' (at position 4)"),
    ("loglog(n", ParseError, "expected ')', found None (at position 8)"),
    ("alt(n)", ParseError, "expected ',', found ')' (at position 5)"),
    ("alt(n, 1", ParseError, "expected ')', found None (at position 8)"),
    ("exp(n*loglog(n))", ParseError, "expected ')', found 'loglog' (at position 6)"),
    ("exp(log(n)^0.5 n)", ParseError, "expected ')', found 'n' (at position 15)"),
    ("n)", ParseError, "trailing input ')' (at position 1)"),
    ("n n", ParseError, "trailing input 'n' (at position 2)"),
    ("2 3", ParseError, "trailing input '3' (at position 2)"),
    ("-n", ParseError, "unexpected token '-' (at position 0)"),
    (")", ParseError, "unexpected token ')' (at position 0)"),
    ("", ParseError, "unexpected token None (at position 0)"),
    ("n^2 +", ParseError, "unexpected token None (at position 5)"),
    ("n^^2", ParseError, "expected a number, found '^' (at position 2)"),
    ("n^", ParseError, "expected a number, found None (at position 2)"),
    ("n^n", ParseError, "expected a number, found 'n' (at position 2)"),
    # exp(...) arguments
    ("exp()", ParseError, "empty exponent term (at position 4)"),
    ("exp(-)", ParseError, "empty exponent term (at position 5)"),
    ("exp(n+)", ParseError, "empty exponent term (at position 6)"),
    ("exp(log(n)^-1)", ParseError, f"{_MUST_GROW} (at position 4)"),
    ("exp(2)", ParseError, f"{_MUST_GROW} (at position 4)"),
    ("exp(n^0)", ParseError, f"{_MUST_GROW} (at position 4)"),
    ("exp(n*)", ParseError, "expected n, log(n) or a number after '*', found ')' (at position 6)"),
    ("exp(n* - n)", ParseError, "expected n, log(n) or a number after '*', found '-' (at position 7)"),
    ("exp(log(n)*n^-1)", ParseError, f"{_MUST_GROW} (at position 4)"),
    # powers and quotients
    ("n/0", ParseError, "division by the zero sequence (at position 1)"),
    ("n/0^2", ParseError, "division by the zero sequence (at position 1)"),
    ("1/(n+1)", ParseError, "fractional or negative power of a multi-term sum (at position 1)"),
    ("(n+1)^0.5", ParseError, "fractional or negative power of a multi-term sum (at position 6)"),
    ("0^-1", ParseError, "nonpositive power of 0 (at position 3)"),
    ("0^0", ParseError, "nonpositive power of 0 (at position 2)"),
    ("alt(0, n)^2", ParseError, "power of the zero sequence (at position 10)"),
    ("1/alt(0, n)", ParseError, "power of the zero sequence (at position 1)"),
    # numbers out of float range: a literal, a power's exponent, a product,
    # a quotient, a power or a sum of numbers in range
    ("1e999", ParseError, "a number is out of floating-point range (at position 0)"),
    ("1e-400*n", ParseError, "a number is out of floating-point range (at position 0)"),
    ("n^1e999", ParseError, "a number is out of floating-point range (at position 2)"),
    ("n^-1e999", ParseError, "a number is out of floating-point range (at position 3)"),
    ("exp(1e999*n)", ParseError, "a number is out of floating-point range (at position 4)"),
    ("exp(1e-200*1e-200*n)", ParseError, "a number is out of floating-point range (at position 11)"),
    ("exp(1e308*n + 1e308*n)", ParseError, "a number is out of floating-point range (at position 0)"),
    ("1e300^2", ParseError, "a number is out of floating-point range (at position 6)"),
    ("1/1e-320", ParseError, "a number is out of floating-point range (at position 1)"),
    ("1e-200*1e-200*n", ParseError, "a number is out of floating-point range (at position 6)"),
    ("n^1e308*n^1e308", ParseError, "a number is out of floating-point range (at position 7)"),
    ("(1e200*n+1)^2", ParseError, "a number is out of floating-point range (at position 12)"),
    ("1e308+1e308", ParseError, "a number is out of floating-point range (at position 0)"),
]


def test_a_product_of_monomials_in_an_exponent_parses():
    assert parse("exp(n*n^2)") == parse("exp(n^3)")


@pytest.mark.parametrize("text, kind, message", _PARSE_ERRORS)
def test_parse_error_messages_and_positions(text, kind, message):
    with pytest.raises(Exception) as e:
        parse(text)
    assert (type(e.value), str(e.value)) == (kind, message)


# ---------------------------------------------------------------------------
# the parser against a token-by-token reference

_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>loglog|log|exp|alt|n)"
    r"|(?P<punct>[()+*/^,-]))"
)
_REF_ATOMS = {"n": (0.0, 1.0, 0.0, 0.0), "log": (0.0, 0.0, 1.0, 0.0), "loglog": (0.0, 0.0, 0.0, 1.0)}


class _ReferenceParser:
    """One token per regex match, one normal form per factor and partial
    product or sum, built with the public arithmetic (add, mul, pow_expr)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _REF_TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                # the position of the character, after the blanks before it
                raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while self.peek()[1] == "+":
            self.next()
            e = add(e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            f = self.factor()
            if op[1] == "/":
                if f.is_zero:
                    raise ParseError("division by the zero sequence", op[2])
                try:
                    f = pow_expr(f, -1.0)
                except ValueError as exc:
                    raise ParseError(str(exc), op[2]) from None
            e = mul(e, f)
        return e

    def factor(self):
        e = self.primary()
        while self.peek()[1] == "^":
            self.next()
            s, pos = self.signed_number()
            if e.is_zero:
                if s <= 0:
                    raise ParseError("nonpositive power of 0", pos)
                continue
            try:
                e = pow_expr(e, s)
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        return e

    def signed_number(self):
        sign = 1.0
        if self.peek()[1] in ("-", "+"):
            sign = -1.0 if self.next()[1] == "-" else 1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, found {val!r}", pos)
        return sign * float(val), pos

    def primary(self):
        kind, val, pos = self.next()
        if kind == "num":
            return constant(float(val))
        if val in _REF_ATOMS:
            if val != "n":
                self.expect("(")
                self.expect("n")
                self.expect(")")
            return growth.GrowthExpr(terms=(growth.GrowthTerm(1.0, ((_REF_ATOMS[val], 1.0),)),))
        if val == "exp":
            self.expect("(")
            items = self.exp_poly()
            self.expect(")")
            return growth.GrowthExpr(terms=(growth._term(1.0, items),))
        if val == "alt":
            self.expect("(")
            even = self.expr()
            self.expect(",")
            odd = self.expr()
            self.expect(")")
            return alt_expr(even, odd)
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)

    def exp_poly(self):
        items = [self.exp_mono(lead=True)]
        while self.peek()[1] in ("+", "-"):
            items.append(self.exp_mono(lead=False))
        return items

    def exp_mono(self, lead: bool):
        sign = 1.0
        if self.peek()[1] in ("-", "+"):
            sign = -1.0 if self.next()[1] == "-" else 1.0
        elif not lead:
            raise ParseError("expected + or - between exponent terms", self.peek()[2])
        coeff = 1.0
        dn = dl = 0.0
        saw_factor = after_star = False
        start = self.peek()[2]
        while True:
            kind, val, pos = self.peek()
            if kind == "num":
                self.next()
                coeff *= float(val)
                saw_factor = True
            elif val == "n":
                self.next()
                d = 1.0
                if self.peek()[1] == "^":
                    self.next()
                    d, _ = self.signed_number()
                dn += d
                saw_factor = True
            elif val == "log":
                self.next()
                self.expect("(")
                self.expect("n")
                self.expect(")")
                d = 1.0
                if self.peek()[1] == "^":
                    self.next()
                    d, _ = self.signed_number()
                dl += d
                saw_factor = True
            elif after_star and val in (")", "+", "-"):
                raise ParseError(f"expected n, log(n) or a number after '*', found {val!r}", pos)
            else:
                break
            if self.peek()[1] == "*":
                self.next()
                after_star = True
                continue
            break
        if not saw_factor:
            raise ParseError("empty exponent term", start)
        mono = (dn, dl, 0.0, 0.0)
        if growth._mono_sign(mono) <= 0:
            raise ParseError(_MUST_GROW, start)
        return (mono, sign * coeff)


def _reference_parse(text: str):
    try:
        return _ReferenceParser(text).parse()
    except OverflowError:
        raise ParseError("a number is out of floating-point range") from None


def _outcome(parser, text):
    """What a parser makes of text: the expression and its repr (which tells
    -0.0 from 0.0), or the type and message of the error it raises."""
    try:
        e = parser(text)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return e, repr(e)


# texts of the grammar; literals and powers stay small enough that no
# coefficient or exponent leaves the float range
_literals = st.sampled_from(["0", "1", "2", "0.5", "3", "0.1", "0.2", "0.3", "3.14", "1.5e2", "2.5e-3", "007"])
_powers = st.sampled_from(["2", "-1", "0.5", "-0.5", "0", "3", "+1", "-2"])
_exp_monos = st.tuples(
    st.sampled_from(["", "-", "+", " - "]),
    st.sampled_from(["", "2*", "0.1*", "3 * "]),
    st.sampled_from(["n", "n^2", "n^0.5", "log(n)", "log(n)^2", "n*log(n)^-1", "log(n)^0.5", "n*", "n^-1"]),
).map("".join)
_leaves = st.one_of(
    _literals,
    st.sampled_from(["n", "log(n)", "loglog(n)", "log (n)"]),
    st.lists(_exp_monos, min_size=1, max_size=3).map(lambda monos: f"exp({''.join(monos)})"),
)


def _joined(children, ops):
    return st.tuples(children, st.lists(st.tuples(ops, children), min_size=1, max_size=3)).map(
        lambda t: t[0] + "".join(op + c for op, c in t[1])
    )


def _grammar_texts(children):
    return st.one_of(
        st.tuples(children, _powers).map(lambda t: f"{t[0]}^{t[1]}"),
        _joined(children, st.sampled_from(["*", "/", " * ", " /"])),
        _joined(children, st.sampled_from(["+", " + "])),
        children.map(lambda c: f"({c})"),
        st.tuples(children, children).map(lambda t: f"alt({t[0]}, {t[1]})"),
    )


_texts = st.recursive(_leaves, _grammar_texts, max_leaves=10)


@given(_texts, st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=400, deadline=None)
@example("n*(n+1)*2*n^-1", None)
@example("2*(n+1)^2/n", None)
@example("alt(n, 2*n)*n/log(n)", None)
@example("exp(n - n)*n^0*n/n", None)
@example("0.1*n + 0.2*n + 0.3*n", None)  # like terms summed left to right
@example("exp(n*)", None)
@example("exp(n* - n)", None)
@example("alt(0, n)^2", None)
def test_parse_matches_the_reference_parser(text, cut):
    if cut is not None:
        text = text[:cut]
    assert _outcome(parse, text) == _outcome(_reference_parse, text)


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


def test_limits_of_product_are_each_weights_limit():
    # the ultra ladder n^(-m/(m-1)) against exp(n^1.5): divergent from m = 4 on
    rs = [term_expr(1.0, pow_n=-m / (m - 1)) for m in range(2, 18)]
    for text in ("exp(n^1.5)", "exp(-2*n)", "n^3", "5"):
        comb = log_expr(parse(text))
        assert limits_of_product(rs, comb) == [limit_of_product(r, comb) for r in rs]
    assert limits_of_product(rs, log_expr(parse("exp(n^1.5)")))[:3] == [0.0, 1.0, math.inf]
    # a coefficient that underflows gives the limit 0, not -0
    (lim,) = limits_of_product([parse("1e-200*n^-1")], log_expr(parse("exp(-1e-200*n)")))
    assert math.copysign(1.0, lim) == 1.0 and lim == 0.0


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
