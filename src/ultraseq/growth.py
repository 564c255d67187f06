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
from typing import Iterable, Sequence

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
    "limits_of_product",
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


_NONPOSITIVE = "term coefficients must be positive"
_INF = math.inf


def _term(coeff: float, items: Iterable[tuple[Mono, float]]) -> GrowthTerm:
    """The term coeff * exp(sum c * mono); a constant monomial folds into coeff."""
    if coeff <= 0:
        raise NotRepresentable(_NONPOSITIVE)
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
    is +1, 0 or -1; coeff may have either sign.  No limit is -0: a
    coefficient that underflowed to -0 gives 0."""
    if growth_sign > 0:
        return math.copysign(math.inf, coeff)
    return coeff + 0.0 if growth_sign == 0 else 0.0


def limits_of_product(rs: Sequence[GrowthExpr], comb: LogCombination) -> list[float]:
    """Exact limit of r_n * L(n) for each weight expression r in rs and one
    unmodulated log combination L, whose dominance key is built once.
    Each r must be nonzero and unmodulated, as a weight's expression is.

    r * L is led by k * r * mu for L's dominant monomial
    mu = n^a * log(n)^b * loglog(n)^c * logloglog(n)^d, and r * mu grows as
    exp(R) dominates 1/mu = exp(-a*log n - b*loglog n - c*logloglog n) *
    logloglog(n)^-d.  The last factor lies below every basis monomial, so d
    decides only a tie.
    """
    if comb.is_zero:
        return [0.0] * len(rs)
    (a, b, c, d), k = comb.monos[0]
    inv_mu = tuple((m, -p) for m, p in zip(_POWER_MONOS, (a, b, c)) if p != 0.0)
    tie = (d > 0) - (d < 0)
    out = []
    for r in rs:
        rt = r.dominant
        out.append(_limit(rt.coeff * k, _cmp(rt.exponent, inv_mu) or tie))
    return out


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
        (even,), (odd,) = (limits_of_product((r,), c) for c in comb)
        if even == odd:
            return even
        return ParityLimits(even, odd)
    return limits_of_product((r,), comb)[0]


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

_TOKEN = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|loglog|log|exp|alt|n|[()+*/^,-]"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
# a text is a run of tokens, each taken whole as a left-to-right scan takes
# it, then blanks; a lookahead is atomic, so the captured token and its
# backreference never backtrack (an atomic group needs Python 3.11)
_TEXT_RE = re.compile(rf"(?:(?=(\s*(?:{_TOKEN})))\1)*\s*")
# every token that is not a number, and None, the end of the text
_SYMBOLS = frozenset(("loglog", "log", "exp", "alt", "n", *"()+*/^,-", None))

# n, log(n) and loglog(n) as (coeff, exponent): exp of one monomial each
_ATOMS = {name: (1.0, ((mono, 1.0),)) for name, mono in zip(("n", "log", "loglog"), _POWER_MONOS)}

_OUT_OF_RANGE = "a number is out of floating-point range"


def _single(e: GrowthExpr) -> GrowthExpr | tuple[float, Comb]:
    """The one term of e as (coeff, exponent); e itself when it is zero, a sum or modulated."""
    if e.branches is None and len(e.terms) == 1:
        t = e.terms[0]
        return t.coeff, t.exponent
    return e


def _finite(e: GrowthExpr) -> bool:
    """Every coefficient and exponent of e is a finite float."""
    if e.branches is not None:
        return _finite(e.branches[0]) and _finite(e.branches[1])
    return all(t.coeff < _INF and all(-_INF < c < _INF for _, c in t.exponent) for t in e.terms)


class _Parser:
    """Recursive descent over the tokens of one text, with None at the end.

    A factor stays a bare (coeff, exponent) pair while it is one term, and
    a run of such factors folds into one coefficient and one exponent sum
    that _term normalizes once: the products and sums a chain of `mul`
    would form, in the same order, so the result is the same to the bit.
    Zero, sums and parity modulations go through the GrowthExpr arithmetic.
    A number that leaves the float range is an error, and character
    offsets are worked out only for an error.
    """

    def __init__(self, text: str):
        if _TEXT_RE.fullmatch(text) is None:
            at = _TEXT_RE.match(text).end()
            raise ParseError(f"unexpected character {text[at]!r}", at)
        self.text = text
        self.toks: list[str | None] = _TOKEN_RE.findall(text)
        self.toks.append(None)
        self.i = 0

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at the start of token i."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, starts[i] if i < len(starts) else len(self.text))

    def expect(self, value: str) -> None:
        tok = self.toks[self.i]
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok!r}", self.i)
        self.i += 1

    def argument(self) -> None:
        """The "(n)" after log and loglog."""
        for value in "(n)":
            self.expect(value)

    def number(self, i: int) -> float:
        """Number token i as a float; inf, or 0 from a nonzero mantissa, is out of range."""
        tok = self.toks[i]
        x = float(tok)
        if x == _INF or (x == 0.0 and tok.strip("0.")[:1].isdigit()):
            raise self.error(_OUT_OF_RANGE, i)
        return x

    def signed_number(self) -> tuple[float, int]:
        """A number with an optional sign, and the index of its number token."""
        tok = self.toks[self.i]
        sign = 1.0
        if tok == "-" or tok == "+":
            sign = -1.0 if tok == "-" else 1.0
            self.i += 1
            tok = self.toks[self.i]
        if tok in _SYMBOLS:
            raise self.error(f"expected a number, found {tok!r}", self.i)
        i = self.i
        self.i += 1
        return sign * self.number(i), i

    def arith(self, op, a, b, i: int) -> GrowthExpr:
        """op(a, b) through the GrowthExpr arithmetic, its errors at token i."""
        try:
            e = op(a, b)
        except OverflowError:
            raise self.error(_OUT_OF_RANGE, i) from None
        except ValueError as exc:
            # a parsed coefficient is positive until it underflows; a power
            # of a zero parity branch is an error too
            raise self.error(_OUT_OF_RANGE if exc.args[0] == _NONPOSITIVE else str(exc), i) from None
        if not _finite(e):
            raise self.error(_OUT_OF_RANGE, i)
        return e

    def power(self, f: tuple[float, Comb], s: float, i: int) -> tuple[float, Comb]:
        """f^s as pow_expr forms it for one term; errors at token i."""
        if s == 0:
            return 1.0, ()
        coeff, exponent = f
        try:
            coeff = coeff ** s
        except OverflowError:
            raise self.error(_OUT_OF_RANGE, i) from None
        items = []
        for m, c in exponent:
            c *= s
            if not 0.0 < abs(c) < _INF:
                raise self.error(_OUT_OF_RANGE, i)
            items.append((m, c))
        if coeff == 0.0:
            raise self.error(_OUT_OF_RANGE, i)
        return coeff, tuple(items)

    def parse(self) -> GrowthExpr:
        e = self.expr()
        tok = self.toks[self.i]
        if tok is not None:
            raise self.error(f"trailing input {tok!r}", self.i)
        return e

    def expr(self) -> GrowthExpr:
        start = self.i
        e = self.term()
        if self.toks[self.i] != "+":
            return e
        summands = [e]
        while self.toks[self.i] == "+":
            self.i += 1
            summands.append(self.term())
        if any(s.branches is not None for s in summands):
            e = functools.reduce(add, summands)
        else:
            # one merge, summing like terms in the order pairwise adds would
            e = _mk([t for s in summands for t in s.terms])
        if not _finite(e):
            raise self.error(_OUT_OF_RANGE, start)
        return e

    def term(self) -> GrowthExpr:
        f = self.factor()
        if type(f) is tuple:
            e = None  # the product is still the one term coeff * exp(acc)
            coeff, acc = f[0], dict(f[1])
        else:
            e = f
        while (op := self.toks[self.i]) == "*" or op == "/":
            at = self.i
            self.i += 1
            f = self.factor()
            if op == "/":
                f = self.inverse(f, at)
            if e is None and type(f) is tuple:
                coeff *= f[0]
                if not 0.0 < coeff < _INF:
                    raise self.error(_OUT_OF_RANGE, at)
                for m, c in f[1]:
                    c += acc.get(m, 0.0)
                    if not -_INF < c < _INF:
                        raise self.error(_OUT_OF_RANGE, at)
                    acc[m] = c
                continue
            if e is None:
                e = GrowthExpr(terms=(_term(coeff, acc.items()),))
            if type(f) is tuple:
                f = GrowthExpr(terms=(GrowthTerm(*f),))
            e = self.arith(mul, e, f, at)
        if e is None:
            return GrowthExpr(terms=(_term(coeff, acc.items()),))
        return e

    def inverse(self, f, at: int):
        """1/f for the divisor f after the "/" at token at."""
        if type(f) is tuple:
            return self.power(f, -1.0, at)
        if f.is_zero:
            raise self.error("division by the zero sequence", at)
        return _single(self.arith(pow_expr, f, -1.0, at))

    def factor(self) -> GrowthExpr | tuple[float, Comb]:
        f = self.primary()
        while self.toks[self.i] == "^":
            self.i += 1
            s, i = self.signed_number()
            if type(f) is tuple:
                f = self.power(f, s, i)
            elif f.is_zero:
                if s <= 0:
                    raise self.error("nonpositive power of 0", i)
            else:
                f = _single(self.arith(pow_expr, f, s, i))
        return f

    def primary(self) -> GrowthExpr | tuple[float, Comb]:
        at = self.i
        tok = self.toks[at]
        self.i += 1
        atom = _ATOMS.get(tok)
        if atom is not None:
            if tok != "n":
                self.argument()
            return atom
        if tok == "exp":
            self.expect("(")
            items = self.exp_poly()
            self.expect(")")
            t = _term(1.0, items)
            # like monomials merged, and their sum may overflow
            if not all(-_INF < c < _INF for _, c in t.exponent):
                raise self.error(_OUT_OF_RANGE, at)
            return t.coeff, t.exponent
        if tok == "alt":
            self.expect("(")
            even = self.expr()
            self.expect(",")
            odd = self.expr()
            self.expect(")")
            return _single(alt_expr(even, odd))
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return _single(e)
        if tok in _SYMBOLS:
            raise self.error(f"unexpected token {tok!r}", at)
        x = self.number(at)
        return (x, ()) if x else ZERO

    def exp_poly(self) -> list[tuple[Mono, float]]:
        items = [self.exp_mono()]
        while self.toks[self.i] in ("+", "-"):
            items.append(self.exp_mono())
        return items

    def exp_mono(self) -> tuple[Mono, float]:
        toks = self.toks
        sign = 1.0
        if toks[self.i] in ("-", "+"):
            sign = -1.0 if toks[self.i] == "-" else 1.0
            self.i += 1
        start = self.i
        coeff = 1.0
        dn = dl = 0.0
        while True:
            tok = toks[self.i]
            if tok == "n" or tok == "log":
                self.i += 1
                if tok == "log":
                    self.argument()
                d = 1.0
                if toks[self.i] == "^":
                    self.i += 1
                    d, _ = self.signed_number()
                if tok == "n":
                    dn += d
                else:
                    dl += d
            elif tok not in _SYMBOLS:
                x = self.number(self.i)
                product = coeff * x
                if x and coeff and not 0.0 < product < _INF:
                    raise self.error(_OUT_OF_RANGE, self.i)
                coeff = product
                self.i += 1
            elif self.i > start and tok in (")", "+", "-"):  # a '*' that ends the term
                raise self.error(f"expected n, log(n) or a number after '*', found {tok!r}", self.i)
            else:
                break
            if toks[self.i] != "*":
                break
            self.i += 1
        if self.i == start:
            raise self.error("empty exponent term", start)
        if not (-_INF < dn < _INF and -_INF < dl < _INF):
            raise self.error(_OUT_OF_RANGE, start)
        mono: Mono = (dn, dl, 0.0, 0.0)
        if _mono_sign(mono) <= 0:
            raise self.error(
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
    c*n^d*log(n)^l that grow without bound.  A number, or a coefficient or
    exponent formed from numbers, that leaves the float range is a
    ParseError.
    """
    return _Parser(text).parse()


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
