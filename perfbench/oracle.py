"""Independent asymptotics for the corpus expression texts.

The exact-tier oracle must not go through `ultraseq.growth`, so this module
reads the small text grammar that `ultraseq.corpus` emits on its own:
sums of terms, each a product of a positive constant, `n^p`, `log(n)^q`,
`loglog(n)` and at most one `exp(+-c*n^b)` or `exp(+-c*log(n)^k)` factor,
plus the product `(A)*(B)` of two such sums.  Exponents stay rational.

From the dominant term it derives the exact limits the package promises:
ultranorms under 1/log n, 1/n and the indexed families, classification
verdicts, and the association predicates on the colombeau weight.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf

_NUM = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_EXP_RE = re.compile(rf"exp\((-?)({_NUM})\*(n|log\(n\))\^(-?{_NUM})\)")
_N_RE = re.compile(rf"n\^(-?{_NUM})")
_LOG_RE = re.compile(rf"log\(n\)\^(-?{_NUM})")


@dataclass(frozen=True)
class Term:
    """One product term: exp part (sign, rank, power, coeff) and poly powers.

    rank is 1 for an exponent in powers of n and 0 for one in powers of
    log n; every n^b with b > 0 outgrows every power of log n.
    """

    exp: tuple[int, int, Fraction, Fraction] | None
    poly: tuple[Fraction, Fraction, Fraction]

    def key(self) -> tuple:
        """Dominance order: larger key means eventually larger term."""
        if self.exp is None:
            ek = (0, 0, Fraction(0), Fraction(0))
        else:
            s, rank, power, coeff = self.exp
            ek = (s, s * rank, s * power, s * coeff)
        return (ek, self.poly)


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
            i = start
            continue
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def terms(text: str) -> list[str]:
    """The top-level summands of a text."""
    return _split_top(text, "+")


def _term(text: str) -> Term:
    pn = pl = pll = Fraction(0)
    exp = None
    for factor in _split_top(text, "*"):
        m = _EXP_RE.fullmatch(factor)
        if m:
            sign = -1 if m.group(1) else 1
            rank = 1 if m.group(3) == "n" else 0
            exp = (sign, rank, Fraction(m.group(4)), Fraction(m.group(2)))
        elif _N_RE.fullmatch(factor):
            pn += Fraction(_N_RE.fullmatch(factor).group(1))
        elif factor == "n":
            pn += 1
        elif _LOG_RE.fullmatch(factor):
            pl += Fraction(_LOG_RE.fullmatch(factor).group(1))
        elif factor == "loglog(n)":
            pll += 1
        elif re.fullmatch(_NUM, factor) and Fraction(factor) > 0:
            pass  # a positive constant never changes a limit below
        else:
            raise ValueError(f"oracle cannot read factor {factor!r}")
    return Term(exp, (pn, pl, pll))


def dominant(text: str) -> Term:
    """The eventually largest term of a corpus expression text."""
    if text.startswith("("):
        left, right = _split_top(text, "*")
        a, b = dominant(left[1:-1]), dominant(right[1:-1])
        if a.exp is not None or b.exp is not None:
            raise ValueError("oracle multiplies polynomial-log sums only")
        return Term(None, tuple(x + y for x, y in zip(a.poly, b.poly)))
    return max((_term(t) for t in terms(text)), key=Term.key)


def relation(a: str, b: str) -> str:
    """Dominance between two corpus texts: <<, >> or ~."""
    ka, kb = dominant(a).key(), dominant(b).key()
    return "<<" if ka < kb else ">>" if ka > kb else "~"


# ---------------------------------------------------------------------------
# limits of weighted logs; +-INF or an exact Fraction


def log_over_log(d: Term):
    """lim log f_n / log n: the log-ultranorm under the weight 1/log n."""
    if d.exp is not None:
        return d.exp[0] * INF
    return d.poly[0]


def log_over_power(d: Term, e: Fraction):
    """lim n^-e log f_n for e >= 1."""
    if d.exp is None or d.exp[1] == 0:
        return Fraction(0)
    s, _, b, c = d.exp
    if b > e:
        return s * INF
    if b == e:
        return s * c
    return Fraction(0)


def _div(x, m: int):
    return x if x in (INF, -INF) else x / m


FAMILY_LEVELS = {
    # family: (direction, mode, one limit function of the dominant term per level)
    "colombeau": ("single", "standard", [lambda d: log_over_log(d)]),
    "infra": ("single", "unit-ball", [lambda d: log_over_power(d, Fraction(1))]),
    "ultra": (
        "increasing",
        "standard",
        [lambda d, e=Fraction(m, m - 1): log_over_power(d, e) for m in range(2, 18)],
    ),
    "scale-power": (
        "decreasing",
        "standard",
        [lambda d, m=m: _div(log_over_log(d), m) for m in range(1, 17)],
    ),
    "scale-expdecay": (
        "decreasing",
        "standard",
        [lambda d, m=m: _div(log_over_power(d, Fraction(1)), m) for m in range(1, 17)],
    ),
}


def verdict(text: str, family: str) -> str:
    """The exact classification verdict of a nonzero corpus text."""
    if family == "egorov":
        # every step weight gives norm 1 to an eventually positive sequence
        return "moderate"
    direction, mode, levels = FAMILY_LEVELS[family]
    d = dominant(text)
    lims = [f(d) for f in levels]
    if mode == "unit-ball":
        in_f = [x <= 0 for x in lims]
        in_k = [x < 0 for x in lims]
    else:
        in_f = [x < INF for x in lims]
        in_k = [x == -INF for x in lims]
    if direction == "single":
        f_ok, k_ok = in_f[0], in_k[0]
    elif direction == "decreasing":
        f_ok, k_ok = any(in_f), all(in_k)
    else:
        f_ok, k_ok = all(in_f), any(in_k)
    if not f_ok:
        return "divergent"
    if k_ok:
        return "negligible"
    if mode == "unit-ball" and any(x == 0 for x in lims):
        return "boundary"
    return "moderate"


def assoc_zero(text: str, kind: str, s: Fraction) -> str:
    """Association of the sequence with 0 on the colombeau weight: yes | no."""
    d = dominant(text)
    if kind == "strong":
        # ultranorm < e^-s, strictly
        return "yes" if log_over_log(d) < -s else "no"
    shift = Fraction(0) if kind == "weak" else s  # s-dual multiplies by n^s
    if d.exp is not None:
        return "yes" if d.exp[0] < 0 else "no"
    lead = (d.poly[0] + shift, d.poly[1], d.poly[2])
    return "yes" if lead < (0, 0, 0) else "no"


def same_log(answer: float, expected) -> bool:
    """Equality of a float log value with the double nearest to the exact one.

    Decimal inputs such as 3.14 have no exact double, so the nearest double
    is the best a float result can be; anything else is a wrong answer.
    """
    if expected in (INF, -INF):
        return answer == expected
    return answer == float(expected)
