"""Seeded corpora: random growth expressions and a named stock of smooth
sequences.

Everything here is deterministic in the seed, so property suites and the
command-line tools can replay identical runs.  Expression generators keep
polynomial degrees small (|degree| <= 6 after one product) so that bounded
quantifier searches in oracles stay far from their cutoffs.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Sequence

from ultraseq import growth
from ultraseq.genfun import (
    SmoothSeq,
    bump,
    corrected_mollifier,
    make_mollifier,
    poly_fn,
    seq_scale,
    sin_fn,
    square_seq,
    standard_mollifier,
    _bump_mass,
)
from ultraseq.spaces import SeqRep

DEFAULT_SEED = 20210

_COEFFS = [0.25, 0.5, 0.8, 1.0, 1.5, 2.0, 3.14, 5.0]
_N_POWS = [-3, -2, -1, -0.5, 0.5, 1, 2, 3]
_LOG_POWS = [-2, -1, 1, 2]
_EXP_N_POWS = [0.25, 0.5, 1, 2]


def _poly_factor(rng: random.Random) -> str:
    parts = [f"{rng.choice(_COEFFS):g}"]
    if rng.random() < 0.8:
        parts.append(f"n^{rng.choice(_N_POWS):g}")
    if rng.random() < 0.4:
        parts.append(f"log(n)^{rng.choice(_LOG_POWS):g}")
    if rng.random() < 0.15:
        parts.append("loglog(n)")
    return "*".join(parts)


def _exp_factor(rng: random.Random, sign: int) -> str:
    c = rng.choice(_COEFFS)
    if rng.random() < 0.7:
        arg = f"{c:g}*n^{rng.choice(_EXP_N_POWS):g}"
    else:
        arg = f"{c:g}*log(n)^{rng.choice([2, 3])}"
    return f"exp({'-' if sign < 0 else ''}{arg})"


def _sum_text(rng: random.Random, factors: Callable[[], str], max_terms: int = 3) -> str:
    k = rng.randint(1, max_terms)
    return " + ".join(factors() for _ in range(k))


def moderate_text(rng: random.Random) -> str:
    """Polynomial-log growth: finite nonzero ultranorm under 1/log n."""
    return _sum_text(rng, lambda: _poly_factor(rng))


def negligible_text(rng: random.Random) -> str:
    """A negative exponential lead beats every power of n."""

    def term() -> str:
        return f"{_poly_factor(rng)}*{_exp_factor(rng, -1)}"

    return _sum_text(rng, term, max_terms=2)


def divergent_text(rng: random.Random) -> str:
    def term() -> str:
        return f"{_poly_factor(rng)}*{_exp_factor(rng, +1)}"

    return _sum_text(rng, term, max_terms=2)


def random_expr(rng: random.Random, kind: str = "any") -> growth.GrowthExpr:
    """One random unmodulated expression of the requested growth class."""
    if kind == "any":
        kind = rng.choice(["moderate", "moderate", "negligible", "divergent"])
    text = {
        "moderate": moderate_text,
        "negligible": negligible_text,
        "divergent": divergent_text,
    }[kind](rng)
    e = growth.parse(text)
    if kind == "moderate" and rng.random() < 0.3:
        e = growth.mul(e, growth.parse(moderate_text(rng)))
    return e


def random_exprs(count: int, seed: int = DEFAULT_SEED, kind: str = "any") -> list[growth.GrowthExpr]:
    rng = random.Random(seed)
    return [random_expr(rng, kind) for _ in range(count)]


def random_modulated(rng: random.Random) -> growth.GrowthExpr:
    return growth.alt_expr(random_expr(rng), random_expr(rng))


def random_truncated(rng: random.Random) -> SeqRep:
    return SeqRep.truncated(rng.randint(5, 200))


# ---------------------------------------------------------------------------
# named smooth sequences for the command line and walkthroughs


def _narrow_mollifier():
    return make_mollifier(bump(0.0, 0.5, 1.0 / (0.5 * _bump_mass())))


@functools.lru_cache(maxsize=None)
def _named() -> dict[str, SmoothSeq]:
    delta = standard_mollifier().sequence()
    return {
        "delta": delta,
        "delta-sq": square_seq(delta, label="delta^2"),
        "delta-corrected": corrected_mollifier().sequence(),
        "delta-narrow": _narrow_mollifier().sequence(),
        "nsinv-delta-sq": seq_scale(
            growth.parse("n^-1"), square_seq(delta), label="n^-1 delta^2"
        ),
        "sin": sin_fn(),
        "poly": poly_fn([0.2, 0.1], label="0.2 + 0.1x"),
        "bump": bump(0.0, 1.0),
        "bump-wide": bump(0.0, 1.6),
        "decaying-sin": seq_scale(
            growth.parse("exp(-n)"), sin_fn(), label="e^-n sin"
        ),
    }


def function_names() -> list[str]:
    return sorted(_named())


def named_function(name: str) -> SmoothSeq:
    try:
        return _named()[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; available: {', '.join(function_names())}"
        ) from None


# ---------------------------------------------------------------------------
# random smooth pairs for stability suites

_BASE_BUILDERS: Sequence[Callable[[], SmoothSeq]] = (
    sin_fn,
    lambda: bump(0.0, 1.0),
    lambda: poly_fn([0.3, 0.2, 0.1], label="0.3 + 0.2x + 0.1x^2"),
    # the stock delta: a fresh mollifier would integrate its moment class
    lambda: _named()["delta"],
)

_MODERATE_SCALES = ["1", "log(n)", "n^0.5", "n", "2*n^-1"]
_NEGLIGIBLE_SCALES = ["exp(-n)", "exp(-0.5*n)", "exp(-log(n)^2)", "n^-2*exp(-n)"]


def random_smooth(rng: random.Random) -> SmoothSeq:
    base = rng.choice(_BASE_BUILDERS)()
    scale = rng.choice(_MODERATE_SCALES)
    if scale == "1":
        return base
    return seq_scale(growth.parse(scale), base)


def random_negligible_smooth(rng: random.Random) -> SmoothSeq:
    base = rng.choice(_BASE_BUILDERS)()
    return seq_scale(growth.parse(rng.choice(_NEGLIGIBLE_SCALES)), base)


def random_smooth_pair(rng: random.Random) -> tuple[SmoothSeq, SmoothSeq]:
    """(moderate f, negligible j) for representative-stability checks."""
    return random_smooth(rng), random_negligible_smooth(rng)
