"""Generalized numbers: quotient-ring arithmetic and association relations.

A generalized number is a moderate sequence taken modulo the negligible
ideal.  Elements carry a nonnegative magnitude representation (symbolic,
truncated or sampled) plus a unimodular phase.  Sums and products of
magnitudes are the pointwise rules of `spaces`.  Every association
criterion factors through the magnitude of a difference or a scalar
limit, so phases only matter when building that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ultraseq import growth
from ultraseq.growth import GrowthExpr, NotRepresentable, ParityLimits
from ultraseq.spaces import (
    ClassificationReport,
    NumberSpace,
    SeqRep,
    UltranormValue,
    _dyadic_log_maxima,
    _product,
    _sum,
    ultranorm,
)

__all__ = [
    "GenNumber",
    "AssocKind",
    "AssocVerdict",
    "NotModerate",
    "PowerXFamily",
    "make",
    "add",
    "mul",
    "neg",
    "sub",
    "is_zero",
    "associate",
    "jx_well_defined",
    "null_predicate",
    "bounded_predicate",
    "JXReport",
]


class NotModerate(ValueError):
    """Rejected representative: not moderate in the requested space."""


def _same_space(a: NumberSpace, b: NumberSpace) -> bool:
    return a.family.name == b.family.name and a.mode == b.mode


@dataclass(frozen=True)
class GenNumber:
    """One element of a generalized-number ring, by representative."""

    space: NumberSpace
    magnitude: SeqRep
    phase: complex = 1 + 0j

    @property
    def zero_rep(self) -> bool:
        return (
            self.magnitude.is_truncated
            or (self.magnitude.is_symbolic and self.magnitude.expr.is_zero)
        )


def make(rep, space: NumberSpace, phase: complex = 1 + 0j, label: str | None = None) -> GenNumber:
    """Wrap a representative, rejecting magnitudes that are not moderate.

    `rep` may be an expression string, a growth expression or a SeqRep;
    `label` names the representative in either case.
    """
    if not isinstance(rep, (str, GrowthExpr, SeqRep)):
        raise TypeError(f"a representative is an expression or a SeqRep, got {type(rep).__name__}")
    if isinstance(rep, SeqRep):
        mag = rep if label is None else replace(rep, label=label)
    else:
        mag = SeqRep.symbolic(rep, label=label)
    if abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError("phase must be unimodular")
    g = GenNumber(space=space, magnitude=mag, phase=phase)
    report = space.classify(g.magnitude)
    if report.in_moderate is False:
        raise NotModerate(
            f"representative {g.magnitude.label!r} is not moderate in {space.name}"
        )
    return g


def _check_spaces(a: GenNumber, b: GenNumber):
    if not _same_space(a.space, b.space):
        raise ValueError(f"space mismatch: {a.space.name} vs {b.space.name}")


def add(a: GenNumber, b: GenNumber) -> GenNumber:
    _check_spaces(a, b)
    if a.zero_rep:
        return b
    if b.zero_rep:
        return a
    if a.magnitude.is_symbolic and b.magnitude.is_symbolic and a.magnitude.expr == b.magnitude.expr:
        s = a.phase + b.phase
        mag = abs(s)
        if mag == 0.0:
            return GenNumber(space=a.space, magnitude=SeqRep.symbolic(growth.ZERO))
        scaled = growth.mul(growth.constant(mag), a.magnitude.expr)
        return GenNumber(space=a.space, magnitude=SeqRep.symbolic(scaled), phase=s / mag)
    if a.phase == b.phase:
        return GenNumber(space=a.space, magnitude=_sum(a.magnitude, b.magnitude), phase=a.phase)
    raise NotRepresentable(
        "sum of representatives with different phases and magnitudes; "
        "supply an explicit difference"
    )


def mul(a: GenNumber, b: GenNumber) -> GenNumber:
    _check_spaces(a, b)
    return GenNumber(
        space=a.space, magnitude=_product(a.magnitude, b.magnitude), phase=a.phase * b.phase
    )


def neg(a: GenNumber) -> GenNumber:
    return GenNumber(space=a.space, magnitude=a.magnitude, phase=-a.phase)


def sub(a: GenNumber, b: GenNumber) -> GenNumber:
    return add(a, neg(b))


def is_zero(a: GenNumber) -> ClassificationReport:
    """Negligibility of the representative (equality in the quotient)."""
    return a.space.classify(a.magnitude)


# ---------------------------------------------------------------------------
# association


@dataclass(frozen=True)
class PowerXFamily:
    """The countable multiplier family n^s, s = 0, 1, 2, ...

    Symbolic differences admit an exact all-s decision; sampled ones are
    probed on the exponents 0 and the powers of two up to `_S_MAX`.
    """


def _threshold(s: float) -> float:
    """The threshold s of a strong, weak-s or s-dual kind, which must be finite."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"association threshold s must be finite, got {s!r}")
    return s


@dataclass(frozen=True)
class AssocKind:
    """Which association relation to test.

    name is one of strong-s, weak, s-dual, weak-s, custom-JX; the threshold
    kinds carry s, the custom kind carries a predicate J on magnitude
    sequences and a multiplier set X.
    """

    name: str
    s: float | None = None
    j_predicate: Callable[[SeqRep], bool | None] | None = None
    x_set: tuple[GenNumber, ...] | PowerXFamily | None = None
    j_label: str = ""

    @staticmethod
    def strong(s: float) -> "AssocKind":
        return AssocKind(name="strong-s", s=_threshold(s))

    @staticmethod
    def weak() -> "AssocKind":
        return AssocKind(name="weak")

    @staticmethod
    def s_dual(s: float) -> "AssocKind":
        return AssocKind(name="s-dual", s=_threshold(s))

    @staticmethod
    def weak_s(s: float) -> "AssocKind":
        return AssocKind(name="weak-s", s=_threshold(s))

    @staticmethod
    def custom(j_predicate, x_set, j_label: str = "custom J") -> "AssocKind":
        xs = x_set if isinstance(x_set, PowerXFamily) else tuple(x_set)
        return AssocKind(name="custom-JX", j_predicate=j_predicate, x_set=xs, j_label=j_label)

    def describe(self) -> str:
        if self.name in ("strong-s", "weak-s", "s-dual"):
            return f"{self.name}(s={self.s:g})"
        if self.name == "custom-JX":
            n = "n^s family" if isinstance(self.x_set, PowerXFamily) else f"{len(self.x_set)} multipliers"
            return f"custom-JX({self.j_label}; {n})"
        return self.name


@dataclass(frozen=True)
class AssocVerdict:
    holds: str  # yes | no | inconclusive
    kind: AssocKind
    boundary: bool = False
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def __bool__(self) -> bool:
        return self.holds == "yes"


def _difference_magnitude(
    a: GenNumber, b: GenNumber, difference: SeqRep | GenNumber | None
) -> SeqRep:
    if difference is not None:
        return difference.magnitude if isinstance(difference, GenNumber) else difference
    try:
        return sub(a, b).magnitude
    except NotRepresentable:
        raise NotRepresentable(
            "cannot form |a - b| from these representatives; pass difference="
        ) from None


def _limit_is_zero(lv) -> bool:
    if isinstance(lv, ParityLimits):
        return lv.even == 0.0 and lv.odd == 0.0
    return lv == 0.0


_TREND_TOL = 1e-3
_PROBE_EXPONENTS = (0, 1, 2, 4, 8, 16, 32)  # the n^s probed on a sampled difference
_S_MAX = _PROBE_EXPONENTS[-1]


def _null_trend(maxima: np.ndarray) -> tuple[str, dict]:
    """Does a (possibly reweighted) sampled sequence tend to zero, judged
    from the dyadic window maxima of its log values?"""
    tail = [float(v) for v in maxima[-4:]]
    tol_log = math.log(_TREND_TOL)
    witness = {"last_window_sup_log": tail[-1], "tol_log": tol_log}
    nonincreasing = all(tail[i + 1] <= tail[i] + 1e-9 for i in range(len(tail) - 1))
    if tail[-1] <= tol_log and nonincreasing:
        return "yes", witness
    # stabilized or rising above tolerance: not tending to zero
    if tail[-1] > tol_log and tail[-1] >= tail[0] - 0.05:
        return "no", witness
    return "inconclusive", witness


def _threshold_verdict(v: UltranormValue, s: float, kind: AssocKind) -> AssocVerdict:
    ans = v.below(-s)
    witness = {
        "ultranorm": v,
        "log_ultranorm": v.log_value,
        "log_threshold": -s,
    }
    if ans == "boundary":
        return AssocVerdict(
            "no",
            kind,
            boundary=True,
            witness=witness,
            notes="ultranorm sits exactly on the threshold; the strict inequality fails",
        )
    return AssocVerdict(ans, kind, witness=witness)  # yes, no or inconclusive


def associate(
    a: GenNumber,
    b: GenNumber,
    kind: AssocKind,
    difference: SeqRep | GenNumber | None = None,
) -> AssocVerdict:
    """Test one association relation between two generalized numbers.

    Symbolic magnitudes lose sign information, so when neither automatic
    subtraction nor a supplied difference is available the call raises.
    """
    _check_spaces(a, b)
    diff = _difference_magnitude(a, b, difference)
    space = a.space

    if kind.name in ("strong-s", "weak-s"):
        w = space.single_weight()
        v = ultranorm(diff, w)
        out = _threshold_verdict(v, kind.s, kind)
        if kind.name == "weak-s":
            out = AssocVerdict(
                out.holds,
                kind,
                boundary=out.boundary,
                witness=out.witness,
                notes=(out.notes + "; " if out.notes else "")
                + "on scalar sequences this coincides with the strong form",
            )
        return out

    if kind.name == "weak":
        if diff.is_truncated:
            return AssocVerdict("yes", kind, witness={"limit": 0.0})
        if diff.is_symbolic:
            lv = growth.limit_value(diff.expr)
            holds = _limit_is_zero(lv)
            top = lv.sup if isinstance(lv, ParityLimits) else lv
            return AssocVerdict("yes" if holds else "no", kind, witness={"limit": top})
        ans, witness = _null_trend(_dyadic_log_maxima(diff))
        return AssocVerdict(ans, kind, witness=witness)

    if kind.name == "s-dual":
        w = space.single_weight()
        if diff.is_truncated:
            return AssocVerdict("yes", kind, witness={"limit": 0.0})
        if diff.is_symbolic and w.is_symbolic:
            try:
                mult = growth.exp_of_reciprocal(w.expr, kind.s)
                prod = growth.mul(mult, diff.expr) if not diff.expr.is_zero else growth.ZERO
                lv = growth.limit_value(prod)
                holds = _limit_is_zero(lv)
                top = lv.sup if isinstance(lv, ParityLimits) else lv
                return AssocVerdict(
                    "yes" if holds else "no",
                    kind,
                    witness={"limit": top, "multiplier": growth.format_expr(mult)},
                )
            except NotRepresentable:
                pass
        sval = kind.s
        ans, witness = _null_trend(_dyadic_log_maxima(diff, lambda ns: sval / w.values(ns)))
        return AssocVerdict(ans, kind, witness=witness)

    if kind.name == "custom-JX":
        return _custom_jx(a, b, kind, diff)

    raise ValueError(f"unknown association kind {kind.name!r}")


def _custom_jx(a: GenNumber, b: GenNumber, kind: AssocKind, diff: SeqRep) -> AssocVerdict:
    xs = kind.x_set
    if isinstance(xs, PowerXFamily):
        if diff.is_truncated or (diff.is_symbolic and diff.expr.is_zero):
            return AssocVerdict("yes", kind, witness={"multipliers": "all n^s"})
        if diff.is_symbolic:
            # n^s * diff -> 0 for every s at once: the weighted log limit
            # against 1/log n must be -inf (faster-than-any-power decay)
            branches = diff.expr.branches if diff.expr.modulated else (diff.expr,)
            ok = True
            for e in branches:
                if e.is_zero:
                    continue
                lim = growth.limit_of_product(
                    growth.parse("log(n)^-1"), growth.log_expr(e)
                )
                if lim != -math.inf:
                    ok = False
            return AssocVerdict(
                "yes" if ok else "no",
                kind,
                witness={"multipliers": "all n^s, decided exactly"},
            )
        # one read of diff: the shifts s log n of every probe are its rows
        maxima = _dyadic_log_maxima(diff, lambda ns: np.multiply.outer(_PROBE_EXPONENTS, np.log(ns)))
        for s, row in zip(_PROBE_EXPONENTS, maxima):
            ans, wit = _null_trend(row)
            if ans != "yes":
                return AssocVerdict(
                    ans,
                    kind,
                    witness={"failing_exponent": s, **wit},
                    notes=f"probed exponents up to {_S_MAX}",
                )
        return AssocVerdict(
            "yes",
            kind,
            witness={"probed_exponents": list(_PROBE_EXPONENTS)},
            notes=f"probed exponents up to {_S_MAX}; exhaustive only on the symbolic tier",
        )

    answers = []
    for x in xs:
        prod = _product(x.magnitude, diff)
        res = kind.j_predicate(prod)
        answers.append(res)
        if res is False:
            return AssocVerdict(
                "no", kind, witness={"failing_multiplier": x.magnitude.label}
            )
    if any(r is None for r in answers):
        return AssocVerdict("inconclusive", kind, witness={"tested": len(answers)})
    return AssocVerdict("yes", kind, witness={"tested": len(answers)})


# ---------------------------------------------------------------------------
# canned J predicates and the well-definedness audit


def null_predicate(rep: SeqRep) -> bool | None:
    """J = sequences tending to zero."""
    if rep.is_truncated:
        return True
    if rep.is_symbolic:
        return _limit_is_zero(growth.limit_value(rep.expr))
    ans, _ = _null_trend(_dyadic_log_maxima(rep))
    return {"yes": True, "no": False, "inconclusive": None}[ans]


def bounded_predicate(rep: SeqRep) -> bool | None:
    """J = bounded sequences."""
    if rep.is_truncated:
        return True
    if rep.is_symbolic:
        return growth.is_bounded(rep.expr)
    sups = _dyadic_log_maxima(rep)
    if len(sups) < 2:
        return None
    if sups[-1] <= sups[-2] + 1e-9 and sups[-1] < 50.0:
        return True
    if sups[-1] > 50.0 and sups[-1] > sups[-2]:
        return False
    return None


@dataclass(frozen=True)
class JXReport:
    passed: bool
    containment_failures: tuple[str, ...]
    additivity_failures: tuple[str, ...]
    checked_members: int
    checked_pairs: int
    notes: str = ""


def _negligible_corpus(space: NumberSpace) -> list[SeqRep]:
    candidates = [
        SeqRep.symbolic(growth.ZERO, label="0"),
        SeqRep.truncated(40),
        SeqRep.symbolic("exp(-log(n)^2)"),
        SeqRep.symbolic("exp(-2*log(n)^2)"),
        SeqRep.symbolic("exp(-log(n)^3)"),
        SeqRep.symbolic("exp(-n)"),
        SeqRep.symbolic("exp(-0.5*n)"),
        SeqRep.symbolic("exp(-n^2)"),
    ]
    out = []
    for c in candidates:
        if space.classify(c).verdict == "negligible":
            out.append(c)
    return out


def jx_well_defined(
    j_predicate: Callable[[SeqRep], bool | None],
    space: NumberSpace,
    j_label: str = "J",
) -> JXReport:
    """Audit that J can serve in JX-association over this space.

    Checks that J contains a corpus of ideal (negligible) elements and that
    J is closed under addition on sampled member pairs.  Sampling cannot
    prove the group property, only refute it; a pass means no
    counterexample was found.
    """
    ideal = _negligible_corpus(space)
    containment = []
    for j in ideal:
        if j_predicate(j) is False:
            containment.append(f"ideal element {j.label!r} is outside {j_label}")
    members = [m for m in ideal if j_predicate(m) is True]
    additivity = []
    pairs = 0
    for i, u in enumerate(members):
        for v in members[i:]:
            pairs += 1
            s = _sum(u, v)
            if j_predicate(s) is False:
                additivity.append(
                    f"{j_label} contains {u.label!r} and {v.label!r} but not their sum"
                )
    return JXReport(
        passed=not containment and not additivity,
        containment_failures=tuple(containment),
        additivity_failures=tuple(additivity),
        checked_members=len(members),
        checked_pairs=pairs,
        notes=f"ideal corpus of {len(ideal)} elements",
    )
