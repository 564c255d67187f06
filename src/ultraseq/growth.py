"""Exact calculus on a closed fragment of asymptotic growth expressions.

A growth expression denotes an eventually positive sequence built from
powers of n, log n, loglog n and exponentials of quasi-polynomials in n
and log n.  The fragment is closed under multiplication, addition and
(single-term) powers, and every expression has a unique normal form:
a sum of terms in strictly decreasing dominance order, where each term is

    coeff * n^a * log(n)^b * loglog(n)^c * exp(sum_i c_i * n^{d_i} * log(n)^{l_i})

with coeff > 0 and each exponential monomial growing without bound.
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
from dataclasses import dataclass
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
    "make_term",
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
# The fourth slot is only ever produced internally, by taking the log of a
# loglog factor; the parser and the numeric evaluator never emit it.
Mono = tuple[float, float, float, float]

_ZMONO: Mono = (0.0, 0.0, 0.0, 0.0)
_MONO_N: Mono = (1.0, 0.0, 0.0, 0.0)
_MONO_LOG: Mono = (0.0, 1.0, 0.0, 0.0)
_MONO_LOGLOG: Mono = (0.0, 0.0, 1.0, 0.0)
_MONO_L3: Mono = (0.0, 0.0, 0.0, 1.0)


def _mono_sign(m: Mono) -> int:
    for e in m:
        if e > 0:
            return 1
        if e < 0:
            return -1
    return 0


# Exponential parts are stored as tuples of (mono, coeff), sorted by mono
# descending, with nonzero coefficients.  Syntactic equality of these tuples
# is the merge criterion everywhere.
ExpPart = tuple[tuple[Mono, float], ...]


def _ep_norm(items: dict[Mono, float]) -> ExpPart:
    kept = [(m, c) for m, c in items.items() if c != 0.0]
    kept.sort(key=lambda mc: mc[0], reverse=True)
    return tuple(kept)


def _ep_add(a: ExpPart, b: ExpPart, scale: float = 1.0) -> ExpPart:
    acc = dict(a)
    for m, c in b:
        acc[m] = acc.get(m, 0.0) + scale * c
    return _ep_norm(acc)


def _ep_scale(a: ExpPart, s: float) -> ExpPart:
    return _ep_norm({m: s * c for m, c in a})


def _ep_diff_lead(a: ExpPart, b: ExpPart) -> float:
    """Sign-carrying coefficient of the dominant monomial of a - b (0 if equal)."""
    d = _ep_add(a, b, scale=-1.0)
    return d[0][1] if d else 0.0


@dataclass(frozen=True)
class GrowthTerm:
    coeff: float
    pow_n: float
    pow_log: float
    pow_loglog: float
    exp_part: ExpPart

    @property
    def signature(self):
        return (self.exp_part, self.pow_n, self.pow_log, self.pow_loglog)

    def log_items(self) -> dict[Mono, float]:
        """The exact log of this term as a signed monomial combination."""
        items: dict[Mono, float] = {}
        for m, c in self.exp_part:
            items[m] = items.get(m, 0.0) + c
        for m, c in (
            (_MONO_LOG, self.pow_n),
            (_MONO_LOGLOG, self.pow_log),
            (_MONO_L3, self.pow_loglog),
            (_ZMONO, math.log(self.coeff)),
        ):
            if c != 0.0:
                items[m] = items.get(m, 0.0) + c
        return {m: c for m, c in items.items() if c != 0.0}


def make_term(
    coeff: float,
    pow_n: float = 0.0,
    pow_log: float = 0.0,
    pow_loglog: float = 0.0,
    exp_items: Iterable[tuple[Mono, float]] = (),
) -> GrowthTerm:
    """Build a normalized term, folding redundant exponential monomials.

    exp(c*log n) is the same function as n^c, and similarly one level down,
    so pure single-log monomials with unit exponent are folded into the
    power fields; constant arguments fold into the coefficient.  This keeps
    the normal form unique.
    """
    if coeff <= 0:
        raise NotRepresentable("term coefficients must be positive")
    acc: dict[Mono, float] = {}
    for mono, c in exp_items:
        if c == 0.0:
            continue
        if mono == _ZMONO:
            coeff *= math.exp(c)
        elif mono == _MONO_LOG:
            pow_n += c
        elif mono == _MONO_LOGLOG:
            pow_log += c
        elif mono == _MONO_L3:
            pow_loglog += c
        elif _mono_sign(mono) <= 0:
            raise NotRepresentable(
                "exponential of a decaying monomial is outside the fragment"
            )
        else:
            acc[mono] = acc.get(mono, 0.0) + c
    return GrowthTerm(float(coeff), float(pow_n), float(pow_log), float(pow_loglog), _ep_norm(acc))


def _term_cmp(a: GrowthTerm, b: GrowthTerm) -> int:
    """Dominance order: +1 when a grows strictly faster than b."""
    lead = _ep_diff_lead(a.exp_part, b.exp_part)
    if lead > 0:
        return 1
    if lead < 0:
        return -1
    ka = (a.pow_n, a.pow_log, a.pow_loglog)
    kb = (b.pow_n, b.pow_log, b.pow_loglog)
    return (ka > kb) - (ka < kb)


@dataclass(frozen=True)
class GrowthExpr:
    """Normal form: dominance-sorted terms, or a two-branch parity modulation."""

    terms: tuple[GrowthTerm, ...] = ()
    branches: tuple["GrowthExpr", "GrowthExpr"] | None = None

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

    # -- numeric evaluation needs loglog n > 0 once a loglog power appears
    @property
    def eval_n_min(self) -> int:
        if self.modulated:
            return max(b.eval_n_min for b in self.branches)
        n_min = 2
        for t in self.terms:
            if t.pow_loglog != 0.0 or any(m[2] != 0.0 for m, _ in t.exp_part):
                n_min = max(n_min, 16)
            if any(m[3] != 0.0 for m, _ in t.exp_part):
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
    merged: dict[tuple, float] = {}
    rep: dict[tuple, GrowthTerm] = {}
    for t in terms:
        sig = t.signature
        merged[sig] = merged.get(sig, 0.0) + t.coeff
        rep[sig] = t
    out = [
        GrowthTerm(c, rep[s].pow_n, rep[s].pow_log, rep[s].pow_loglog, rep[s].exp_part)
        for s, c in merged.items()
        if c != 0.0
    ]
    out.sort(key=functools.cmp_to_key(_term_cmp), reverse=True)
    return GrowthExpr(terms=tuple(out))


ZERO = GrowthExpr()
ONE = GrowthExpr(terms=(make_term(1.0),))


def constant(c: float) -> GrowthExpr:
    if c == 0:
        return ZERO
    return GrowthExpr(terms=(make_term(c),))


def term_expr(
    coeff: float,
    pow_n: float = 0.0,
    pow_log: float = 0.0,
    pow_loglog: float = 0.0,
    exp_items: Iterable[tuple[Mono, float]] = (),
) -> GrowthExpr:
    return GrowthExpr(terms=(make_term(coeff, pow_n, pow_log, pow_loglog, exp_items),))


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
        out = []
        for s in x.terms:
            for t in y.terms:
                out.append(
                    make_term(
                        s.coeff * t.coeff,
                        s.pow_n + t.pow_n,
                        s.pow_log + t.pow_log,
                        s.pow_loglog + t.pow_loglog,
                        _ep_add(s.exp_part, t.exp_part),
                    )
                )
        return _mk(out)

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
        return GrowthExpr(
            terms=(
                make_term(
                    t.coeff ** s,
                    t.pow_n * s,
                    t.pow_log * s,
                    t.pow_loglog * s,
                    _ep_scale(t.exp_part, s),
                ),
            )
        )
    if s == int(s) and s > 0:
        out = a
        for _ in range(int(s) - 1):
            out = mul(out, a)
        return out
    raise NotRepresentable("fractional or negative power of a multi-term sum")


@dataclass(frozen=True)
class LogCombination:
    """A signed combination of log-scale monomials; the zero monomial is the constant."""

    monos: tuple[tuple[Mono, float], ...]

    @property
    def is_zero(self) -> bool:
        return not self.monos


def _logcomb(items: dict[Mono, float]) -> LogCombination:
    kept = [(m, c) for m, c in items.items() if c != 0.0]
    kept.sort(key=lambda mc: mc[0], reverse=True)
    return LogCombination(tuple(kept))


def log_expr(a: GrowthExpr) -> LogCombination | tuple[LogCombination, LogCombination]:
    """Exact log of the dominant term; lower-order terms contribute o(1).

    The discarded part log(1 + lower/dominant) tends to 0, so it can never
    move a limit of the form r_n * log f_n with a vanishing weight r.
    Modulated input yields one combination per parity branch.
    """
    if a.modulated:
        ae, ao = a.branches
        return (log_expr(ae), log_expr(ao))  # type: ignore[return-value]
    if a.is_zero:
        raise ValueError("log of the zero sequence")
    return _logcomb(a.dominant.log_items())


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


def _limit_plain(r: GrowthExpr, comb: LogCombination) -> float:
    if comb.is_zero:
        return 0.0
    rt = r.dominant
    # Every product monomial shares the weight's exponential part.
    if rt.exp_part:
        lead = rt.exp_part[0][1]
        if lead < 0:
            return 0.0
        best = max(
            (
                (
                    (rt.pow_n + m[0], rt.pow_log + m[1], rt.pow_loglog + m[2], m[3]),
                    rt.coeff * c,
                )
                for m, c in comb.monos
            ),
            key=lambda kc: kc[0],
        )
        return math.copysign(math.inf, best[1])
    acc: dict[Mono, float] = {}
    for m, c in comb.monos:
        key = (rt.pow_n + m[0], rt.pow_log + m[1], rt.pow_loglog + m[2], m[3])
        acc[key] = acc.get(key, 0.0) + rt.coeff * c
    prods = sorted(((k, c) for k, c in acc.items() if c != 0.0), reverse=True)
    for key, c in prods:
        sign = _mono_sign(key)
        if sign > 0:
            return math.copysign(math.inf, c)
        if sign == 0:
            return c
        return 0.0
    return 0.0


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
        t = e.dominant
        if t.exp_part:
            return math.inf if t.exp_part[0][1] > 0 else 0.0
        key = (t.pow_n, t.pow_log, t.pow_loglog)
        sign = (key > (0.0, 0.0, 0.0)) - (key < (0.0, 0.0, 0.0))
        if sign > 0:
            return math.inf
        if sign == 0:
            return t.coeff
        return 0.0

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
    c = _term_cmp(a.dominant, b.dominant)
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
        if t.exp_part:
            raise NotRepresentable("exp of an exponential reciprocal weight")
        mono: Mono = (t.pow_n, t.pow_log, t.pow_loglog, 0.0)
        items.append((mono, s * t.coeff))
    return GrowthExpr(terms=(make_term(1.0, exp_items=items),))


# ---------------------------------------------------------------------------
# numeric evaluation (log domain, vectorized)


def _term_eval_log(t: GrowthTerm, ns: np.ndarray) -> np.ndarray:
    ln = np.log(ns)
    out = math.log(t.coeff) + t.pow_n * ln
    if t.pow_log != 0.0:
        out = out + t.pow_log * np.log(ln)
    if t.pow_loglog != 0.0:
        out = out + t.pow_loglog * np.log(np.log(ln))
    for (dn, dl, dll, dlll), c in t.exp_part:
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
        if val == "n":
            return term_expr(1.0, pow_n=1.0)
        if val == "log":
            self.expect("(")
            self.expect("n")
            self.expect(")")
            return term_expr(1.0, pow_log=1.0)
        if val == "loglog":
            self.expect("(")
            self.expect("n")
            self.expect(")")
            return term_expr(1.0, pow_loglog=1.0)
        if val == "exp":
            self.expect("(")
            items = self.exp_poly()
            self.expect(")")
            try:
                return GrowthExpr(terms=(make_term(1.0, exp_items=items),))
            except NotRepresentable as exc:
                raise ParseError(str(exc), pos) from None
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


def _fmt_exp_poly(ep: ExpPart) -> str:
    parts = []
    for i, ((dn, dl, dll, dlll), c) in enumerate(ep):
        factors = []
        if dn != 0.0:
            factors.append("n" if dn == 1.0 else f"n^{_fmt_num(dn)}")
        if dl != 0.0:
            factors.append("log(n)" if dl == 1.0 else f"log(n)^{_fmt_num(dl)}")
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
    factors = []
    if t.pow_n != 0.0:
        factors.append("n" if t.pow_n == 1.0 else f"n^{_fmt_num(t.pow_n)}")
    if t.pow_log != 0.0:
        factors.append("log(n)" if t.pow_log == 1.0 else f"log(n)^{_fmt_num(t.pow_log)}")
    if t.pow_loglog != 0.0:
        factors.append(
            "loglog(n)" if t.pow_loglog == 1.0 else f"loglog(n)^{_fmt_num(t.pow_loglog)}"
        )
    if t.exp_part:
        factors.append(f"exp({_fmt_exp_poly(t.exp_part)})")
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
