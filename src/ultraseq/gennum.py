"""Generalized numbers: quotient-ring arithmetic and association relations.

A generalized number is a moderate sequence taken modulo the negligible
ideal.  Elements carry a nonnegative magnitude representation (symbolic,
truncated or sampled) plus a unimodular phase.  Sums and products of
magnitudes are the pointwise rules of `spaces`.  Every association
criterion factors through the magnitude of a difference or a scalar
limit, so phases only matter when building that difference.  Each
`AssocKind` carries its test on that magnitude; the weak and s-dual
kinds, the n^s family and `null_predicate` share one rule, whether a
multiple of it tends to zero (`_tends_to_zero`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

import numpy as np

from ultraseq import growth
from ultraseq.growth import GrowthExpr, NotRepresentable, ParityLimits
from ultraseq.spaces import (
    ClassificationReport,
    NumberSpace,
    SeqRep,
    _dyadic_log_maxima,
    _product,
    _sum,
    _tri_and,
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
    """The countable multiplier family n^s, s = 0, 1, 2, ..., under the
    null-limit J.  Symbolic differences admit an exact all-s decision;
    sampled ones are probed on the exponents 0 and the powers of two up
    to `_S_MAX`.
    """


def _threshold(s: float) -> float:
    """The threshold s of a strong, weak-s or s-dual kind, which must be finite."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"association threshold s must be finite, got {s!r}")
    return s + 0.0  # -0 reads as 0


@dataclass(frozen=True)
class AssocKind:
    """Which association relation to test, and its test.

    Each constructor builds the relation's test on the magnitude diff of
    the difference, `test(diff, space)`, which gives the verdict's fields
    but its kind, and the text `describe()` returns; a threshold kind
    keeps its s.
    """

    text: str
    test: Callable[[SeqRep, NumberSpace], dict] = field(repr=False, compare=False)
    s: float | None = None

    @staticmethod
    def strong(s: float) -> "AssocKind":
        return _below_threshold("strong-s", s)

    @staticmethod
    def weak() -> "AssocKind":
        return AssocKind("weak", lambda diff, space: _tends_to_zero(diff))

    @staticmethod
    def s_dual(s: float) -> "AssocKind":
        s = _threshold(s)

        def test(diff: SeqRep, space: NumberSpace) -> dict:
            # the multiplier e^(s/r_n); exact where the weight is symbolic
            # and the multiplier representable
            w, mult = space.single_weight(), None
            if diff.is_symbolic and w.is_symbolic:
                try:
                    mult = growth.exp_of_reciprocal(w.expr, s)
                except NotRepresentable:
                    pass
            return _tends_to_zero(diff, mult, lambda ns: s / w.values(ns))

        return AssocKind(f"s-dual(s={s:g})", test, s)

    @staticmethod
    def weak_s(s: float) -> "AssocKind":
        return _below_threshold("weak-s", s, "on scalar sequences this coincides with the strong form")

    @staticmethod
    def custom(j_predicate, x_set, j_label: str = "custom J") -> "AssocKind":
        """J holds for x·diff at every x of X.  The n^s family is decided
        for the null-limit J (`null_predicate`) alone."""
        if isinstance(x_set, PowerXFamily):
            if j_predicate is not null_predicate:
                raise ValueError("the n^s family is decided for the null-limit J (null_predicate) alone")
            return AssocKind(f"custom-JX({j_label}; n^s family)", _every_power_tends_to_zero)
        xs = tuple(x_set)

        def test(diff: SeqRep, space: NumberSpace) -> dict:
            answers = []
            for x in xs:
                answers.append(j_predicate(_product(x.magnitude, diff)))
                if answers[-1] is False:
                    return {"answer": False, "witness": {"failing_multiplier": x.magnitude.label}}
            return {"answer": _tri_and(answers), "witness": {"tested": len(answers)}}

        return AssocKind(f"custom-JX({j_label}; {len(xs)} multipliers)", test)

    def describe(self) -> str:
        return self.text

    def judge(self, diff: SeqRep, space: NumberSpace) -> "AssocVerdict":
        """The verdict of this relation on the magnitude diff of a difference."""
        return AssocVerdict(kind=self, **self.test(diff, space))


def _below_threshold(name: str, s: float, note: str = "") -> AssocKind:
    """A threshold kind: is the ultranorm of diff under the space's single
    weight strictly below e^-s?  `note` ends every verdict's notes."""
    s = _threshold(s)
    on = "ultranorm sits exactly on the threshold; the strict inequality fails"
    on = f"{on}; {note}" if note else on

    log_t = 0.0 - s  # -s, but 0 for s = 0, not -0

    def test(diff: SeqRep, space: NumberSpace) -> dict:
        v = ultranorm(diff, space.single_weight())
        witness = {"ultranorm": v, "log_ultranorm": v.log_value, "log_threshold": log_t}
        if v.on(log_t):
            return {"answer": False, "boundary": True, "witness": witness, "notes": on}
        return {"answer": v.below(log_t), "witness": witness, "notes": note}

    return AssocKind(f"{name}(s={s:g})", test, s)


# the word an association's answer is printed as
_HOLDS = {True: "yes", False: "no", None: "inconclusive"}


@dataclass(frozen=True)
class AssocVerdict:
    """Whether a relation holds: `answer` is True or False when decided,
    None when inconclusive."""

    answer: bool | None
    kind: AssocKind
    boundary: bool = False
    witness: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def holds(self) -> str:
        """The answer as a word: yes, no or inconclusive."""
        return _HOLDS[self.answer]


_TREND_TOL = 1e-3
# the trailing dyadic windows each sampled judge reads: the null trend
# tests the last 4 window maxima, the bounded predicate the last 2
_TREND_WINDOWS = 4
_BOUNDED_WINDOWS = 2
_PROBE_EXPONENTS = (0, 1, 2, 4, 8, 16, 32)  # the n^s probed on a sampled difference
_S_MAX = _PROBE_EXPONENTS[-1]


def _null_trend(maxima: np.ndarray) -> dict:
    """Does a (possibly reweighted) sampled sequence tend to zero, judged
    from the dyadic window maxima of its log values?  Only the last
    `_TREND_WINDOWS` (4) maxima are read."""
    tail = [float(v) for v in maxima[-_TREND_WINDOWS:]]
    tol_log = math.log(_TREND_TOL)
    witness = {"last_window_sup_log": tail[-1], "tol_log": tol_log}
    nonincreasing = all(tail[i + 1] <= tail[i] + 1e-9 for i in range(len(tail) - 1))
    if tail[-1] <= tol_log and nonincreasing:
        return {"answer": True, "witness": witness}
    # stabilized or rising above tolerance: not tending to zero
    if tail[-1] > tol_log and tail[-1] >= tail[0] - 0.05:
        return {"answer": False, "witness": witness}
    return {"answer": None, "witness": witness}


def _tends_to_zero(diff: SeqRep, multiplier: GrowthExpr | None = None, log_multiplier=None):
    """Does m_n·diff_n tend to 0?  The answer and witness of the weak and
    s-dual kinds, the n^s family and `null_predicate`.

    m is 1 unless given, as a growth expression for the exact tier and as
    ns -> log m_n for the sampled one.  A truncated diff tends to 0; a
    symbolic one, where m has an expression (or is 1) and m·diff is
    representable, by the exact limit of m·diff; any other by `_null_trend`
    of log diff + log m.  A log_multiplier with one row per multiplier of a
    set gives a list of results, one per row, from one read of diff."""
    if diff.is_truncated:
        return {"answer": True, "witness": {"limit": 0.0}}
    if diff.is_symbolic and (multiplier is not None or log_multiplier is None):
        try:
            lv = growth.limit_value(
                diff.expr if multiplier is None or diff.expr.is_zero else growth.mul(multiplier, diff.expr)
            )
        except NotRepresentable:
            if log_multiplier is None:
                raise
        else:
            witness = {"limit": lv.sup if isinstance(lv, ParityLimits) else lv}
            if multiplier is not None:
                witness["multiplier"] = growth.format_expr(multiplier)
            return {"answer": witness["limit"] == 0.0, "witness": witness}
    maxima = _dyadic_log_maxima(diff, _TREND_WINDOWS, log_multiplier)
    return _null_trend(maxima) if maxima.ndim == 1 else [_null_trend(row) for row in maxima]


@cache
def _inverse_log() -> GrowthExpr:
    return growth.parse("log(n)^-1")


def _every_power_tends_to_zero(diff: SeqRep, space: NumberSpace) -> dict:
    """The n^s family's test under the null-limit J: does n^s·diff tend to
    0 for every s?"""
    if diff.is_truncated or (diff.is_symbolic and diff.expr.is_zero):
        return {"answer": True, "witness": {"multipliers": "all n^s"}}
    if diff.is_symbolic:
        # every s at once: the log limit against 1/log n must be -inf
        branches = diff.expr.branches if diff.expr.modulated else (diff.expr,)
        ok = all(e.is_zero or growth.limit_of_product(_inverse_log(), growth.log_expr(e)) == -math.inf
                 for e in branches)
        return {"answer": ok, "witness": {"multipliers": "all n^s, decided exactly"}}
    notes = f"probed exponents up to {_S_MAX}"
    rows = _tends_to_zero(diff, log_multiplier=lambda ns: np.multiply.outer(_PROBE_EXPONENTS, np.log(ns)))
    for s, row in zip(_PROBE_EXPONENTS, rows):
        if row["answer"] is not True:
            return {"answer": row["answer"], "witness": {"failing_exponent": s, **row["witness"]}, "notes": notes}
    witness = {"probed_exponents": list(_PROBE_EXPONENTS)}
    return {"answer": True, "witness": witness, "notes": f"{notes}; exhaustive only on the symbolic tier"}


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
    if difference is None:
        try:
            difference = sub(a, b)
        except NotRepresentable:
            raise NotRepresentable("cannot form |a - b| from these representatives; pass difference=") from None
    return kind.judge(difference.magnitude if isinstance(difference, GenNumber) else difference, a.space)


# ---------------------------------------------------------------------------
# canned J predicates and the well-definedness audit


def null_predicate(rep: SeqRep) -> bool | None:
    """J = sequences tending to zero (`_tends_to_zero`)."""
    return _tends_to_zero(rep)["answer"]


def bounded_predicate(rep: SeqRep) -> bool | None:
    """J = bounded sequences.  A sampled sequence is judged from the
    maxima of its last `_BOUNDED_WINDOWS` (2) dyadic windows, and read
    in those alone."""
    if rep.is_truncated:
        return True
    if rep.is_symbolic:
        return growth.is_bounded(rep.expr)
    sups = _dyadic_log_maxima(rep, _BOUNDED_WINDOWS)
    if len(sups) < _BOUNDED_WINDOWS:
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
