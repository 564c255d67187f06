"""Weight sequences, indexed weight families, and asymptotic decay scales.

A weight is a positive sequence tending to zero; it sets the exponential
scale against which sequence growth is measured.  Families carry one
weight per integer level m together with the direction in which the
levels are ordered, which decides whether membership quantifies
existentially or universally over m.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ultraseq import growth
from ultraseq.growth import GrowthExpr, NotRepresentable

__all__ = [
    "Direction",
    "Mode",
    "WeightSeq",
    "WeightFamily",
    "AsymptoticScale",
    "ScaleAxiomReport",
    "catalog",
    "colombeau_weight",
    "power_scale",
    "expdecay_scale",
    "single_family",
    "scale_to_weights",
    "verify_scale_axioms",
]

_PROBE_NS = (2, 10, 100, 10_000, 1_000_000)


class Direction(enum.Enum):
    """How weight levels are nested as m grows."""

    SINGLE = "single"
    DECREASING = "decreasing"  # r^{m+1} <= r^m pointwise: union/intersection reading
    INCREASING = "increasing"  # r^{m+1} >= r^m pointwise: quantifiers swap


class Mode(enum.Enum):
    """Membership convention for a weight level."""

    STANDARD = "standard"  # finite ultranorm vs. zero ultranorm
    UNIT_BALL = "unit-ball"  # ultranorm <= 1 vs. ultranorm < 1


@dataclass(frozen=True)
class WeightSeq:
    """One weight sequence.

    Exactly one of `expr` and `evaluator` is set, except for the step
    weights, which are fully described by `step_m`: value 1 up to index
    step_m and 0 beyond, with the convention that a zero weight flattens
    any positive base to zero (0 as an exponent acts as annihilator here).
    An `evaluator` maps an array of indices to an array of weight values.
    """

    label: str
    expr: GrowthExpr | None = None
    step_m: int | None = None
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    n_min: int = 2

    def __post_init__(self):
        if self.step_m is not None:
            return
        if (self.expr is None) == (self.evaluator is None):
            raise ValueError("need exactly one of expr, evaluator, or step_m")
        if self.expr is not None:
            if self.expr.modulated:
                raise ValueError("weights cannot be parity-modulated")
            lv = growth.limit_value(self.expr)
            if lv != 0.0:
                raise ValueError(f"weight {self.label} does not tend to zero (limit {lv})")
            object.__setattr__(self, "n_min", max(self.n_min, self.expr.eval_n_min))
        self._check_probes()

    def _check_probes(self):
        prev = None
        for n in _PROBE_NS:
            if n < self.n_min:
                continue
            v = self.value(n)
            if not v > 0:
                raise ValueError(f"weight {self.label} is not positive at n={n}")
            if prev is not None and v > prev:
                raise ValueError(f"weight {self.label} increases between probes at n={n}")
            prev = v

    @property
    def is_step(self) -> bool:
        return self.step_m is not None

    @property
    def is_symbolic(self) -> bool:
        return self.expr is not None

    def value(self, n: float) -> float:
        return float(self.values([n])[0])

    def values(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        if self.step_m is not None:
            return np.where(ns <= self.step_m, 1.0, 0.0)
        if (ns < self.n_min).any():
            raise ValueError(f"weight {self.label} needs n >= {self.n_min}")
        if self.expr is not None:
            return growth.eval_value(self.expr, ns)
        return np.asarray(self.evaluator(ns), dtype=float)


def colombeau_weight() -> WeightSeq:
    return WeightSeq(label="1/log(n)", expr=growth.parse("log(n)^-1"))


@dataclass
class WeightFamily:
    """An integer-indexed family of weights with a nesting direction."""

    name: str
    member_fn: Callable[[int], WeightSeq]
    direction: Direction
    default_mode: Mode = Mode.STANDARD
    m_start: int = 1
    _cache: dict[int, WeightSeq] = field(default_factory=dict, repr=False)
    _first_values: dict[int, float] = field(default_factory=dict, repr=False)

    def member(self, m: int) -> WeightSeq:
        if m < self.m_start:
            raise ValueError(f"family {self.name} starts at m={self.m_start}")
        if m not in self._cache:
            self._cache[m] = self.member_fn(m)
        return self._cache[m]

    def first_value(self, m: int) -> float:
        """The level-m weight at its first index n_min, computed once per level."""
        if m not in self._first_values:
            w = self.member(m)
            self._first_values[m] = w.value(w.n_min)
        return self._first_values[m]

    @property
    def single(self) -> bool:
        return self.direction is Direction.SINGLE

    def verify_direction(self, m_max: int = 6) -> bool:
        """Spot-check the declared pointwise ordering between consecutive levels."""
        if self.single:
            return True
        for m in range(self.m_start, self.m_start + m_max):
            a, b = self.member(m), self.member(m + 1)
            for n in _PROBE_NS:
                if n < max(a.n_min, b.n_min):
                    continue
                va, vb = a.value(n), b.value(n)
                ok = vb <= va * (1 + 1e-12) if self.direction is Direction.DECREASING else vb >= va * (1 - 1e-12)
                if not ok:
                    return False
        return True


def single_family(w: WeightSeq, name: str, mode: Mode = Mode.STANDARD) -> WeightFamily:
    return WeightFamily(
        name=name, member_fn=lambda m: w, direction=Direction.SINGLE, default_mode=mode
    )


def catalog(name: str) -> WeightFamily:
    """Built-in weight families by name.

    - "colombeau": the single weight 1/log n.
    - "infra": the single weight 1/n, read in unit-ball mode.
    - "egorov": step weights, 1 up to level m then 0; decreasing in m.
    - "ultra": r^m = n^(-m/(m-1)) for m >= 2; increasing in m.
    """
    if name == "colombeau":
        return single_family(colombeau_weight(), "colombeau")
    if name == "infra":
        return single_family(
            WeightSeq(label="1/n", expr=growth.parse("n^-1")), "infra", mode=Mode.UNIT_BALL
        )
    if name == "egorov":
        # step(m+1) has one more unit entry than step(m), so levels grow with m
        return WeightFamily(
            name="egorov",
            member_fn=lambda m: WeightSeq(label=f"step({m})", step_m=m),
            direction=Direction.INCREASING,
        )
    if name == "ultra":
        def mk(m: int) -> WeightSeq:
            e = m / (m - 1)
            return WeightSeq(label=f"n^-{e:g}", expr=growth.term_expr(1.0, pow_n=-e))

        return WeightFamily(name="ultra", member_fn=mk, direction=Direction.INCREASING, m_start=2)
    raise ValueError(f"unknown weight family {name!r}")


# ---------------------------------------------------------------------------
# asymptotic decay scales and their induced weights


@dataclass(frozen=True)
class AsymptoticScale:
    """A two-sided scale of positive sequences a_m, m in Z, with a_0 = 1.

    Negative levels are reciprocals of the positive ones.  The defining
    requirements (each level strictly dominated by the previous, and some
    level eventually below the square of each given one) are checked by
    `verify_scale_axioms`, not assumed here.
    """

    name: str
    member_fn: Callable[[int], GrowthExpr]

    def member(self, m: int) -> GrowthExpr:
        if m == 0:
            return growth.ONE
        e = self.member_fn(abs(m))
        if m < 0:
            e = growth.pow_expr(e, -1.0)
        return e


def power_scale() -> AsymptoticScale:
    return AsymptoticScale("n^-m", lambda m: growth.term_expr(1.0, pow_n=-float(m)))


def expdecay_scale() -> AsymptoticScale:
    return AsymptoticScale(
        "exp(-m*n)", lambda m: growth.term_expr(1.0, exp_items=(((1.0, 0.0, 0.0, 0.0), -float(m)),))
    )


def _abs_log_weight(a_m: GrowthExpr, label: str) -> WeightSeq:
    """1 / |log a_m| as a weight, symbolic when the log has a single monomial."""
    comb = growth.log_expr(a_m)
    if isinstance(comb, tuple):
        raise ValueError("scale members cannot be parity-modulated")
    if len(comb.monos) == 1:
        (dn, dl, dll, dlll), c = comb.monos[0]
        if dlll == 0.0:
            expr = growth.term_expr(1.0 / abs(c), pow_n=-dn, pow_log=-dl, pow_loglog=-dll)
            return WeightSeq(label=label, expr=expr)
    n_min = a_m.eval_n_min

    def ev(ns: np.ndarray) -> np.ndarray:
        return 1.0 / np.abs(growth.eval_log(a_m, np.maximum(ns, n_min)))

    return WeightSeq(label=label, evaluator=ev, n_min=max(n_min, 3))


def scale_to_weights(scale: AsymptoticScale) -> WeightFamily:
    """The weight family 1/|log a_m| induced by a decay scale.

    Faster decay gives larger |log|, hence smaller weights: the family is
    decreasing in m whenever the scale members shrink with m.
    """

    def mk(m: int) -> WeightSeq:
        return _abs_log_weight(scale.member(m), label=f"1/|log {scale.name}|, m={m}")

    return WeightFamily(name=f"scale:{scale.name}", member_fn=mk, direction=Direction.DECREASING)


@dataclass(frozen=True)
class ScaleAxiomReport:
    ordered: bool  # a_{m+1} = o(a_m) on the probed range of m
    reciprocal_ok: bool  # a_{-m} * a_m == 1 exactly
    square_witness: dict[int, int | None]  # m -> M with a_M = o(a_m^2), None if not found
    holds: bool
    notes: tuple[str, ...] = ()


def verify_scale_axioms(scale: AsymptoticScale, m_max: int = 8, witness_max: int = 64) -> ScaleAxiomReport:
    """Check the scale axioms exactly on levels |m| <= m_max.

    The square-domination witness M is searched up to witness_max; absence
    of a witness within that bound refutes nothing by itself, so it is
    reported as None and excluded from `holds` only when the search space
    was exhausted.
    """
    notes: list[str] = []
    ordered = True
    for m in range(-m_max, m_max):
        c = growth.compare(scale.member(m + 1), scale.member(m))
        if c.relation != growth.LESS:
            ordered = False
            notes.append(f"a_{m + 1} is not o(a_{m}): {c.relation}")
            break
    reciprocal_ok = all(
        growth.mul(scale.member(-m), scale.member(m)) == growth.ONE for m in range(1, m_max + 1)
    )
    witness: dict[int, int | None] = {}
    for m in range(-m_max, m_max + 1):
        sq = growth.pow_expr(scale.member(m), 2.0)
        found = None
        for big in range(m, witness_max + 1):
            if growth.compare(scale.member(big), sq).relation == growth.LESS:
                found = big
                break
        witness[m] = found
        if found is None:
            notes.append(f"no M <= {witness_max} with a_M = o(a_{m}^2)")
    holds = ordered and reciprocal_ok and all(v is not None for v in witness.values())
    return ScaleAxiomReport(ordered, reciprocal_ok, witness, holds, tuple(notes))
