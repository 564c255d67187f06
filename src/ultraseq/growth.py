"""Exact calculus on a closed fragment of asymptotic growth expressions.

A growth expression denotes an eventually positive sequence built from
powers of n, log n, loglog n and exponentials of quasi-polynomials in n
and log n.  The fragment is closed under multiplication, addition and
(single-term) powers, and every expression has a unique normal form:
a sum of terms in strictly decreasing dominance order, where each term is

    coeff * exp(c_1 * mu_1 + ... + c_k * mu_k)

with coeff > 0, nonzero c_i, and distinct monomials
mu = n^a * log(n)^b * loglog(n)^c * logloglog(n)^d that grow without bound,
listed from the fastest-growing down (the lexicographic order of their
exponent vectors).  Powers are exponentials too: n^a is exp(a*log n),
log(n)^b is exp(b*loglog n) and loglog(n)^c is exp(c*logloglog n).  So one
rule decides every question: exp(A) dominates exp(B) exactly when the
leading coefficient of A - B is positive, and a term tends to inf, 0 or its
coeff as its own leading coefficient is positive, negative or absent.
Because all coefficients are positive, the dominant term controls the
asymptotics of the whole sum, so dominance comparison, limits of
r_n * log f_n products and numeric tail evaluation can all be decided
exactly from the leading term.

Oscillating sequences enter only through the two-branch modulation
``alt(even, odd)``, which carries one expression per parity class.
Dominance queries refuse modulated input; limit queries return one value
per branch.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "GrowthTerm",
    "GrowthExpr",
    "LogCombination",
    "ParityLimits",
    "Comparison",
    "ParseError",
    "NotRepresentable",
    "ZERO",
    "ONE",
    "LESS",
    "GREATER",
    "SAME",
    "parse",
    "format_expr",
    "constant",
    "term_expr",
    "alt_expr",
    "add",
    "mul",
    "pow_expr",
    "log_expr",
    "compare",
    "limit_of_product",
    "limit_value",
    "is_bounded",
    "exp_of_reciprocal",
    "eval_log",
    "eval_value",
]


class ParseError(ValueError):
    """Syntax or semantic error in a growth-expression string."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class NotRepresentable(ValueError):
    """The requested result falls outside the closed expression fragment."""


# A monomial exponent vector over the basis (n, log n, loglog n, logloglog n).
# The fourth slot is only ever produced by a loglog power, loglog(n)^c being
# exp(c * logloglog n); the parser never writes it inside exp(...).
Mono = tuple[float, float, float, float]

_ZMONO: Mono = (0.0, 0.0, 0.0, 0.0)
_MONO_LOG: Mono = (0.0, 1.0, 0.0, 0.0)
_MONO_LOGLOG: Mono = (0.0, 0.0, 1.0, 0.0)
_MONO_L3: Mono = (0.0, 0.0, 0.0, 1.0)

# The power factors n, log(n), loglog(n) are the exponentials of these monomials.
_POWER_MONOS = (_MONO_LOG, _MONO_LOGLOG, _MONO_L3)
_POWER_NAMES = ("n", "log(n)", "loglog(n)")
_POWER_INDEX = {m: i for i, m in enumerate(_POWER_MONOS)}


def _mono_sign(m: Mono) -> int:
    for e in m:
        if e > 0:
            return 1
        if e < 0:
            return -1
    return 0


# A combination of monomials: (mono, coeff) pairs with distinct monos and
# nonzero coefficients, sorted by mono descending.  It is both the exponent
# of a term and, with the constant monomial, the log of one.  Syntactic
# equality of these tuples is the merge criterion everywhere.
Comb = tuple[tuple[Mono, float], ...]


def _cmp(a: Comb, b: Comb) -> int:
    """The dominance rule: the sign of the leading coefficient of a - b.

    +1 when exp(a)/exp(b) -> inf, -1 when it tends to 0, 0 when a == b.
    """
    for (ma, ca), (mb, cb) in zip(a, b):
        if ma != mb:
            lead = ca if ma > mb else -cb
            break
        if ca != cb:
            lead = ca - cb
            break
    else:
        if len(a) == len(b):
            return 0
        lead = a[len(b)][1] if len(a) > len(b) else -b[len(a)][1]
    return 1 if lead > 0 else -1


@dataclass(frozen=True)
class GrowthTerm:
    """coeff * exp(exponent)."""

    coeff: float
    exponent: Comb


def _term(coeff: float, items: Iterable[tuple[Mono, float]]) -> GrowthTerm:
    """The term coeff * exp(sum c * mono); a constant monomial folds into coeff."""
    if coeff <= 0:
        raise NotRepresentable("term coefficients must be positive")
    acc: dict[Mono, float] = {}
    for mono, c in items:
        if c == 0.0:
            continue
        if mono == _ZMONO:
            coeff *= math.exp(c)
        elif _mono_sign(mono) <= 0:
            raise NotRepresentable(
                "exponential of a decaying monomial is outside the fragment"
            )
        else:
            acc[mono] = acc.get(mono, 0.0) + c
    exponent = tuple(sorted(((m, c) for m, c in acc.items() if c != 0.0), reverse=True))
    return GrowthTerm(float(coeff), exponent)


def _split(exponent: Comb) -> tuple[list[float], list[tuple[Mono, float]]]:
    """The powers of n, log n and loglog n in a term, and the exponential
    monomials left over, still in descending order."""
    powers, rest = [0.0, 0.0, 0.0], []
    for m, c in exponent:
        i = _POWER_INDEX.get(m)
        if i is None:
            rest.append((m, c))
        else:
            powers[i] = c
    return powers, rest


@dataclass(frozen=True)
class GrowthExpr:
    """Normal form: dominance-sorted terms, or a two-branch parity modulation."""

    terms: tuple[GrowthTerm, ...] = ()
    branches: tuple["GrowthExpr", "GrowthExpr"] | None = None
    # eval_n_min once derived: a field, not an instance __dict__ entry, which
    # would slow every attribute read of the expression
    _eval_n_min: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_zero(self) -> bool:
        return self.branches is None and not self.terms

    @property
    def modulated(self) -> bool:
        return self.branches is not None

    @property
    def dominant(self) -> GrowthTerm:
        if self.modulated or not self.terms:
            raise ValueError("no dominant term")
        return self.terms[0]

    # -- numeric evaluation needs loglog n > 0 once a loglog power appears;
    # derived once per expression (an error is not kept, so a triple-log
    # factor raises at every read, as at the first)
    @property
    def eval_n_min(self) -> int:
        if self._eval_n_min is None:
            object.__setattr__(self, "_eval_n_min", self._derive_eval_n_min())
        return self._eval_n_min

    def _derive_eval_n_min(self) -> int:
        if self.modulated:
            return max(b.eval_n_min for b in self.branches)
        n_min = 2
        for t in self.terms:
            (_, _, p_loglog), rest = _split(t.exponent)
            if p_loglog != 0.0 or any(m[2] != 0.0 for m, _ in rest):
                n_min = max(n_min, 16)
            if any(m[3] != 0.0 for m, _ in rest):
                raise NotRepresentable("triple-log factors are not numerically evaluable")
        return n_min

    def __str__(self) -> str:
        return format_expr(self)

    def __add__(self, other: "GrowthExpr") -> "GrowthExpr":
        return add(self, other)

    def __mul__(self, other: "GrowthExpr") -> "GrowthExpr":
        return mul(self, other)

    def __pow__(self, s: float) -> "GrowthExpr":
        return pow_expr(self, s)


def _mk(terms: Iterable[GrowthTerm]) -> GrowthExpr:
    merged: dict[Comb, float] = {}
    for t in terms:
        merged[t.exponent] = merged.get(t.exponent, 0.0) + t.coeff
    out = [GrowthTerm(c, e) for e, c in merged.items() if c != 0.0]
    out.sort(key=functools.cmp_to_key(lambda s, t: _cmp(s.exponent, t.exponent)), reverse=True)
    return GrowthExpr(terms=tuple(out))


ZERO = GrowthExpr()
ONE = GrowthExpr(terms=(GrowthTerm(1.0, ()),))


def constant(c: float) -> GrowthExpr:
    if c == 0:
        return ZERO
    return GrowthExpr(terms=(_term(c, ()),))


def term_expr(
    coeff: float,
    pow_n: float = 0.0,
    pow_log: float = 0.0,
    pow_loglog: float = 0.0,
    exp_items: Iterable[tuple[Mono, float]] = (),
) -> GrowthExpr:
    """coeff * n^pow_n * log(n)^pow_log * loglog(n)^pow_loglog * exp(sum c * mono)."""
    powers = zip(_POWER_MONOS, (pow_n, pow_log, pow_loglog))
    return GrowthExpr(terms=(_term(coeff, (*powers, *exp_items)),))


def alt_expr(even: GrowthExpr, odd: GrowthExpr) -> GrowthExpr:
    """Parity modulation: value follows `even` at even n, `odd` at odd n."""
    if even.modulated:
        even = even.branches[0]
    if odd.modulated:
        odd = odd.branches[1]
    if even == odd:
        return even
    return GrowthExpr(branches=(even, odd))


def _branches(e: GrowthExpr) -> tuple[GrowthExpr, GrowthExpr]:
    return e.branches if e.modulated else (e, e)


def _lift2(op, a: GrowthExpr, b: GrowthExpr) -> GrowthExpr:
    if a.modulated or b.modulated:
        ae, ao = _branches(a)
        be, bo = _branches(b)
        return alt_expr(op(ae, be), op(ao, bo))
    return op(a, b)


def add(a: GrowthExpr, b: GrowthExpr) -> GrowthExpr:
    def plain(x: GrowthExpr, y: GrowthExpr) -> GrowthExpr:
        return _mk(x.terms + y.terms)

    return _lift2(plain, a, b)


def mul(a: GrowthExpr, b: GrowthExpr) -> GrowthExpr:
    def plain(x: GrowthExpr, y: GrowthExpr) -> GrowthExpr:
        if x.is_zero or y.is_zero:
            return ZERO
        return _mk(
            _term(s.coeff * t.coeff, s.exponent + t.exponent) for s in x.terms for t in y.terms
        )

    return _lift2(plain, a, b)


def pow_expr(a: GrowthExpr, s: float) -> GrowthExpr:
    """a^s, exact.  Multi-term sums only support nonnegative integer s."""
    if a.modulated:
        ae, ao = a.branches
        return alt_expr(pow_expr(ae, s), pow_expr(ao, s))
    if a.is_zero:
        raise ValueError("power of the zero sequence")
    if s == 0:
        return ONE
    if len(a.terms) == 1:
        t = a.terms[0]
        return GrowthExpr(terms=(_term(t.coeff ** s, [(m, c * s) for m, c in t.exponent]),))
    if s == int(s) and s > 0:
        out = a
        for _ in range(int(s) - 1):
            out = mul(out, a)
        return out
    raise NotRepresentable("fractional or negative power of a multi-term sum")


@dataclass(frozen=True)
class LogCombination:
    """A signed combination of log-scale monomials; the zero monomial is the constant."""

    monos: Comb

    @property
    def is_zero(self) -> bool:
        return not self.monos


def log_expr(a: GrowthExpr) -> LogCombination | tuple[LogCombination, LogCombination]:
    """Exact log of the dominant term; lower-order terms contribute o(1).

    The log of coeff * exp(L) is L plus the constant log(coeff).  The
    discarded part log(1 + lower/dominant) tends to 0, so it can never move
    a limit of the form r_n * log f_n with a vanishing weight r.  Modulated
    input yields one combination per parity branch.
    """
    if a.modulated:
        ae, ao = a.branches
        return (log_expr(ae), log_expr(ao))  # type: ignore[return-value]
    if a.is_zero:
        raise ValueError("log of the zero sequence")
    t = a.dominant
    log_c = math.log(t.coeff)
    return LogCombination(t.exponent + ((_ZMONO, log_c),) if log_c != 0.0 else t.exponent)


@dataclass(frozen=True)
class ParityLimits:
    """Limits along the even and odd subsequences when they disagree."""

    even: float
    odd: float

    @property
    def sup(self) -> float:
        return max(self.even, self.odd)

    @property
    def inf(self) -> float:
        return min(self.even, self.odd)


def _limit(coeff: float, growth_sign: int) -> float:
    """Limit of coeff * g for a g that tends to inf, 1 or 0 as growth_sign
    is +1, 0 or -1; coeff may have either sign."""
    if growth_sign > 0:
        return math.copysign(math.inf, coeff)
    return coeff if growth_sign == 0 else 0.0


def _limit_plain(r: GrowthExpr, comb: LogCombination) -> float:
    if comb.is_zero:
        return 0.0
    # r * L is led by k * r * mu for L's dominant monomial
    # mu = n^a * log(n)^b * loglog(n)^c * logloglog(n)^d, and r * mu grows
    # as exp(R) dominates 1/mu = exp(-a*log n - b*loglog n - c*logloglog n)
    # * logloglog(n)^-d.  The last factor lies below every basis monomial, so
    # d decides only a tie.
    rt = r.dominant
    (a, b, c, d), k = comb.monos[0]
    inv_mu = tuple((m, -p) for m, p in zip(_POWER_MONOS, (a, b, c)) if p != 0.0)
    return _limit(rt.coeff * k, _cmp(rt.exponent, inv_mu) or (d > 0) - (d < 0))


def limit_of_product(
    r: GrowthExpr,
    comb: LogCombination | tuple[LogCombination, LogCombination],
) -> float | ParityLimits:
    """Exact limit of r_n * L(n) for a weight expression r and log combination L.

    The weight must be unmodulated; with a parity pair of combinations the
    result is one limit per branch (take the larger for a limsup).
    """
    if r.modulated:
        raise ValueError("weights cannot be parity-modulated")
    if r.is_zero:
        raise ValueError("weights must be positive")
    if isinstance(comb, tuple):
        even, odd = (_limit_plain(r, c) for c in comb)
        if even == odd:
            return even
        return ParityLimits(even, odd)
    return _limit_plain(r, comb)


def limit_value(a: GrowthExpr) -> float | ParityLimits:
    """Exact limit of the sequence itself: 0, a positive constant, or inf."""

    def plain(e: GrowthExpr) -> float:
        if e.is_zero:
            return 0.0
        return _limit(e.dominant.coeff, _cmp(e.dominant.exponent, ()))

    if a.modulated:
        even, odd = (plain(b) for b in a.branches)
        if even == odd:
            return even
        return ParityLimits(even, odd)
    return plain(a)


def is_bounded(a: GrowthExpr) -> bool:
    lv = limit_value(a)
    top = lv.sup if isinstance(lv, ParityLimits) else lv
    return top != math.inf


LESS, GREATER, SAME = "<<", ">>", "~"


@dataclass(frozen=True)
class Comparison:
    relation: str
    ratio: float | None = None


def compare(a: GrowthExpr, b: GrowthExpr) -> Comparison:
    """Total dominance preorder on unmodulated normal forms.

    "<<" means a/b -> 0, ">>" means a/b -> inf, "~" carries the finite
    positive limit of a/b (decided by the dominant terms).
    """
    if a.modulated or b.modulated:
        raise ValueError("compare requires unmodulated expressions")
    if a.is_zero and b.is_zero:
        return Comparison(SAME, 1.0)
    if a.is_zero:
        return Comparison(LESS)
    if b.is_zero:
        return Comparison(GREATER)
    c = _cmp(a.dominant.exponent, b.dominant.exponent)
    if c < 0:
        return Comparison(LESS)
    if c > 0:
        return Comparison(GREATER)
    return Comparison(SAME, a.dominant.coeff / b.dominant.coeff)


def exp_of_reciprocal(r: GrowthExpr, s: float) -> GrowthExpr:
    """The sequence exp(s / r_n) as a growth expression, when representable.

    Requires every term of 1/r to be either a growing monomial (which becomes
    an exponential factor, with pure log powers folding into plain powers) or
    a constant.  A decaying component of 1/r has no finite representation
    here and raises NotRepresentable.
    """
    if s == 0:
        return ONE
    w = pow_expr(r, -1.0)
    if w.modulated:
        raise ValueError("weights cannot be parity-modulated")
    items: list[tuple[Mono, float]] = []
    for t in w.terms:
        (p_n, p_log, p_loglog), rest = _split(t.exponent)
        if rest:
            raise NotRepresentable("exp of an exponential reciprocal weight")
        items.append(((p_n, p_log, p_loglog, 0.0), s * t.coeff))
    return GrowthExpr(terms=(_term(1.0, items),))


# ---------------------------------------------------------------------------
# numeric evaluation (log domain, vectorized)


def _term_eval_log(t: GrowthTerm, ns: np.ndarray) -> np.ndarray:
    ln = np.log(ns)
    (p_n, p_log, p_loglog), rest = _split(t.exponent)
    out = math.log(t.coeff) + p_n * ln
    if p_log != 0.0:
        out = out + p_log * np.log(ln)
    if p_loglog != 0.0:
        out = out + p_loglog * np.log(np.log(ln))
    for (dn, dl, dll, dlll), c in rest:
        if dlll != 0.0:
            raise NotRepresentable("triple-log factors are not numerically evaluable")
        factor = np.ones_like(ln)
        if dn != 0.0:
            factor = factor * ns ** dn
        if dl != 0.0:
            factor = factor * ln ** dl
        if dll != 0.0:
            factor = factor * np.log(ln) ** dll
        out = out + c * factor
    return out


def eval_log(a: GrowthExpr, ns) -> np.ndarray | float:
    """log of the sequence value at the given indices (-inf for the zero expression)."""
    scalar = np.isscalar(ns)
    arr = np.atleast_1d(np.asarray(ns, dtype=float))
    if np.any(arr < a.eval_n_min):
        raise ValueError(f"expression requires n >= {a.eval_n_min}")
    if a.modulated:
        even_mask = (np.asarray(ns, dtype=np.int64) % 2 == 0)
        even_mask = np.atleast_1d(even_mask)
        out = np.empty_like(arr)
        ev, od = a.branches
        out[even_mask] = np.atleast_1d(eval_log(ev, arr[even_mask])) if even_mask.any() else 0.0
        out[~even_mask] = (
            np.atleast_1d(eval_log(od, arr[~even_mask])) if (~even_mask).any() else 0.0
        )
        return float(out[0]) if scalar else out
    if not a.terms:
        out = np.full_like(arr, -math.inf)
        return float(out[0]) if scalar else out
    acc = _term_eval_log(a.terms[0], arr)
    for t in a.terms[1:]:
        acc = np.logaddexp(acc, _term_eval_log(t, arr))
    return float(acc[0]) if scalar else acc


def eval_value(a: GrowthExpr, ns) -> np.ndarray | float:
    with np.errstate(over="ignore"):
        return np.exp(eval_log(a, ns))


# ---------------------------------------------------------------------------
# parsing and formatting

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>loglog|log|exp|alt|n)"
    r"|(?P<punct>[()+*/^,-]))"
)


# n, log(n) and loglog(n): exp of one monomial each
_ATOMS = dict(zip(("n", "log", "loglog"), _POWER_MONOS))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}", pos)
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

    def parse(self) -> GrowthExpr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> GrowthExpr:
        e = self.term()
        while self.peek()[1] == "+":
            self.next()
            e = add(e, self.term())
        return e

    def term(self) -> GrowthExpr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            f = self.factor()
            if op[1] == "/":
                if f.is_zero:
                    raise ParseError("division by the zero sequence", op[2])
                try:
                    f = pow_expr(f, -1.0)
                except NotRepresentable as exc:
                    raise ParseError(str(exc), op[2]) from None
            e = mul(e, f)
        return e

    def factor(self) -> GrowthExpr:
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
            except NotRepresentable as exc:
                raise ParseError(str(exc), pos) from None
        return e

    def signed_number(self) -> tuple[float, int]:
        sign = 1.0
        if self.peek()[1] in ("-", "+"):
            sign = -1.0 if self.next()[1] == "-" else 1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, found {val!r}", pos)
        return sign * float(val), pos

    def primary(self) -> GrowthExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return constant(float(val))
        if val in _ATOMS:
            if val != "n":
                self.expect("(")
                self.expect("n")
                self.expect(")")
            return GrowthExpr(terms=(GrowthTerm(1.0, ((_ATOMS[val], 1.0),)),))
        if val == "exp":
            self.expect("(")
            items = self.exp_poly()
            self.expect(")")
            return GrowthExpr(terms=(_term(1.0, items),))
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

    def exp_poly(self) -> list[tuple[Mono, float]]:
        items = [self.exp_mono(lead=True)]
        while self.peek()[1] in ("+", "-"):
            items.append(self.exp_mono(lead=False))
        return items

    def exp_mono(self, lead: bool) -> tuple[Mono, float]:
        sign = 1.0
        if self.peek()[1] in ("-", "+"):
            sign = -1.0 if self.next()[1] == "-" else 1.0
        elif not lead:
            raise ParseError("expected + or - between exponent terms", self.peek()[2])
        coeff = 1.0
        dn = dl = 0.0
        saw_factor = False
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
            else:
                break
            if self.peek()[1] == "*":
                self.next()
                continue
            break
        if not saw_factor:
            raise ParseError("empty exponent term", start)
        mono: Mono = (dn, dl, 0.0, 0.0)
        if _mono_sign(mono) <= 0:
            raise ParseError(
                "exponent terms must grow: need n or log(n) with positive leading power", start
            )
        return (mono, sign * coeff)


def parse(text: str) -> GrowthExpr:
    """Parse a growth expression.

    Grammar: sums of products and quotients of factors, where a factor is
    a positive number, n, log(n), loglog(n), exp(poly), a parenthesized
    expression or alt(even, odd), optionally raised to a signed numeric
    power.  Division folds into a -1 power, so the divisor must be a
    single term.  The exp argument is a signed sum of monomials
    c*n^d*log(n)^l that grow without bound.
    """
    try:
        return _Parser(text).parse()
    except OverflowError:
        raise ParseError("a number is out of floating-point range") from None


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _fmt_powers(names: tuple[str, ...], powers: Iterable[float]) -> list[str]:
    return [
        name if p == 1.0 else f"{name}^{_fmt_num(p)}"
        for name, p in zip(names, powers)
        if p != 0.0
    ]


def _fmt_exp_poly(items: list[tuple[Mono, float]]) -> str:
    parts = []
    for i, ((dn, dl, dll, dlll), c) in enumerate(items):
        factors = _fmt_powers(("n", "log(n)"), (dn, dl))
        if dll != 0.0 or dlll != 0.0:
            raise NotRepresentable("deep log factors have no surface syntax")
        mag = abs(c)
        if mag != 1.0 or not factors:
            factors.insert(0, _fmt_num(mag))
        body = "*".join(factors)
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _fmt_term(t: GrowthTerm) -> str:
    powers, rest = _split(t.exponent)
    factors = _fmt_powers(_POWER_NAMES, powers)
    if rest:
        factors.append(f"exp({_fmt_exp_poly(rest)})")
    if t.coeff != 1.0 or not factors:
        factors.insert(0, _fmt_num(t.coeff))
    return "*".join(factors)


def format_expr(a: GrowthExpr) -> str:
    """Canonical text form; parse(format_expr(a)) reproduces a."""
    if a.modulated:
        ev, od = a.branches
        return f"alt({format_expr(ev)}, {format_expr(od)})"
    if a.is_zero:
        return "0"
    return " + ".join(_fmt_term(t) for t in a.terms)
