"""Temperate-map certificates and the canonical extension to function algebras.

A scalar map g is moderate for a weight family when the reweighted values
(g(x^(1/r^m_n)))^(r^M_n) stay bounded in n, with the (m, M) quantifier
order set by the family direction; h is compatible when the same quantity
tends to zero with x uniformly in n.  Catalog maps carry structural bounds
that decide these questions exactly; black-box maps get a bounded numeric
search, and every certificate records the bounds it was established under.

Certified scalar bounds plus two seminorm inequalities (a growth bound for
the map itself and a difference bound with a compatible factor) let a map
on function sequences extend to the quotient algebra: outputs of moderate
inputs stay moderate, and negligible perturbations stay negligible.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ultraseq import genfun, growth
from ultraseq.genfun import (
    DEFAULT_SAMPLE_NS,
    FunctionElement,
    FunctionSpace,
    SmoothSeq,
    add_seq,
    bump,
    derivative_seq,
    exp_seq,
    poly_fn,
    product_seq,
    seq_scale,
    sin_fn,
    square_seq,
    standard_mollifier,
    sub_seq,
)
from ultraseq.spaces import NumberSpace, SeqRep, colombeau_space, ultranorm
from ultraseq.weights import Direction, WeightFamily

__all__ = [
    "ScalarMap",
    "TemperateCertificate",
    "SeqMap",
    "TemperateMapReport",
    "ExtensionError",
    "identity_map",
    "power_map",
    "exp_map",
    "expm1_map",
    "log1p_map",
    "affine_map",
    "compose_maps",
    "sum_maps",
    "scaled_map",
    "check_moderate",
    "check_compatible",
    "check_temperate",
    "square_map",
    "derivative_map",
    "exp_seq_map",
    "extend",
    "verify_F2",
    "continuity_trend",
    "apply_scalar_map",
]


# ---------------------------------------------------------------------------
# scalar maps with structural facts


@dataclass(frozen=True)
class ScalarMap:
    """A nonnegative increasing map with optional structural bounds.

    poly_bound (A, K) certifies g(u) <= A * max(u, 1)^K everywhere.
    vanish_bound (A, kappa, u0) certifies h(u) <= A * u^kappa for u <= u0.
    Their A, K and kappa must be finite: a bound that overflowed
    certifies nothing.  zero_limit is the exact right limit at 0 when
    known.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    poly_bound: tuple[float, float] | None = None
    vanish_bound: tuple[float, float, float] | None = None
    zero_limit: float | None = None
    contains_exp: bool = False
    symbolic_transform: Callable[[growth.GrowthExpr], growth.GrowthExpr] | None = None

    def __post_init__(self):
        for name, bound in (("growth", self.poly_bound), ("vanishing", self.vanish_bound)):
            if bound is not None and not all(map(math.isfinite, bound[:2])):
                raise ValueError(f"the {name} bound of {self.label} is not finite: {bound}")

    def __call__(self, u):
        return self.fn(np.asarray(u, dtype=float))


def _pow(x: float, p: float) -> float:
    """x ** p for floats, inf where it overflows."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def identity_map() -> ScalarMap:
    return power_map(1.0)


def power_map(k: float) -> ScalarMap:
    if not math.isfinite(k):
        raise ValueError("power maps need a finite exponent")
    if k <= 0:
        raise ValueError("power maps need a positive exponent")
    return ScalarMap(
        label=f"x^{k:g}",
        fn=lambda u: u ** k,
        poly_bound=(1.0, k),
        vanish_bound=(1.0, k, 1.0),
        zero_limit=0.0,
        symbolic_transform=lambda e: growth.pow_expr(e, k),
    )


def exp_map() -> ScalarMap:
    return ScalarMap(
        label="exp(x)",
        fn=np.exp,
        zero_limit=1.0,
        contains_exp=True,
    )


def expm1_map() -> ScalarMap:
    # e^u - 1 <= e*u on [0, 1]
    return ScalarMap(
        label="exp(x)-1",
        fn=np.expm1,
        vanish_bound=(math.e, 1.0, 1.0),
        zero_limit=0.0,
        contains_exp=True,
    )


def log1p_map() -> ScalarMap:
    return ScalarMap(
        label="log(1+x)",
        fn=np.log1p,
        poly_bound=(1.0, 1.0),
        vanish_bound=(1.0, 1.0, 1.0),
        zero_limit=0.0,
    )


def affine_map(a: float, b: float) -> ScalarMap:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("affine maps need finite a and b")
    if a <= 0 or b < 0:
        raise ValueError("affine maps need a > 0, b >= 0")
    sym = None
    if b == 0:
        sym = lambda e: growth.mul(growth.constant(a), e)
    return ScalarMap(
        label=f"{a:g}x" if b == 0 else f"{a:g}x + {b:g}",
        fn=lambda u: a * u + b,
        poly_bound=(a + b, 1.0),
        vanish_bound=(a, 1.0, math.inf) if b == 0 else None,
        zero_limit=b,
        symbolic_transform=sym,
    )


def compose_maps(outer: ScalarMap, inner: ScalarMap) -> ScalarMap:
    poly = None
    if outer.poly_bound and inner.poly_bound:
        ao, ko = outer.poly_bound
        ai, ki = inner.poly_bound
        poly = (ao * _pow(max(ai, 1.0), ko), ko * ki)
    vanish = None
    if outer.vanish_bound and inner.vanish_bound:
        ao, ko, uo = outer.vanish_bound
        ai, ki, ui = inner.vanish_bound
        # need inner(u) <= uo: suffices u <= (uo/ai)^(1/ki) within inner's range
        cap = min(ui, _pow(uo / ai, 1.0 / ki) if math.isfinite(uo) else math.inf, 1.0)
        vanish = (ao * _pow(ai, ko), ko * ki, cap)
    zl = None
    if inner.zero_limit is not None and outer.zero_limit is not None:
        if inner.zero_limit == 0.0:
            zl = outer.zero_limit
        else:
            zl = float(outer.fn(np.asarray(inner.zero_limit)))
    sym = None
    if outer.symbolic_transform and inner.symbolic_transform:
        o, i = outer.symbolic_transform, inner.symbolic_transform
        sym = lambda e: o(i(e))
    return ScalarMap(
        label=f"{outer.label} o {inner.label}",
        fn=lambda u: outer.fn(inner.fn(np.asarray(u, dtype=float))),
        poly_bound=poly,
        vanish_bound=vanish,
        zero_limit=zl,
        contains_exp=outer.contains_exp or inner.contains_exp,
        symbolic_transform=sym,
    )


def sum_maps(a: ScalarMap, b: ScalarMap) -> ScalarMap:
    poly = None
    if a.poly_bound and b.poly_bound:
        poly = (a.poly_bound[0] + b.poly_bound[0], max(a.poly_bound[1], b.poly_bound[1]))
    vanish = None
    if a.vanish_bound and b.vanish_bound:
        # on u <= 1 the smaller exponent dominates both terms
        vanish = (
            a.vanish_bound[0] + b.vanish_bound[0],
            min(a.vanish_bound[1], b.vanish_bound[1]),
            min(a.vanish_bound[2], b.vanish_bound[2], 1.0),
        )
    zl = None
    if a.zero_limit is not None and b.zero_limit is not None:
        zl = a.zero_limit + b.zero_limit
    sym = None
    if a.symbolic_transform and b.symbolic_transform:
        sa, sb = a.symbolic_transform, b.symbolic_transform
        sym = lambda e: growth.add(sa(e), sb(e))
    return ScalarMap(
        label=f"{a.label} + {b.label}",
        fn=lambda u: a.fn(np.asarray(u, dtype=float)) + b.fn(np.asarray(u, dtype=float)),
        poly_bound=poly,
        vanish_bound=vanish,
        zero_limit=zl,
        contains_exp=a.contains_exp or b.contains_exp,
        symbolic_transform=sym,
    )


def scaled_map(c: float, m: ScalarMap) -> ScalarMap:
    return compose_maps(affine_map(c, 0.0), m)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class TemperateCertificate:
    status: str  # certified | refuted | inconclusive
    role: str  # moderate | compatible
    case: str  # II | I | single
    map_label: str
    family: str
    pairs: tuple[tuple[int, int], ...] = ()
    witness: dict = field(default_factory=dict)
    value_bound: float | None = None
    exact: bool = False
    notes: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _family_case(W: WeightFamily) -> str:
    if W.single:
        return "single"
    return "II" if W.direction is Direction.DECREASING else "I"


_Certificate = Callable[..., TemperateCertificate]


def _step_guard(
    cert: _Certificate, W: WeightFamily, levels: list[int]
) -> TemperateCertificate | None:
    """The no-decision certificate when a probed level is a step weight."""
    if not any(W.member(m).is_step for m in levels):
        return None
    return cert(
        status="inconclusive",
        notes="step weights vanish on tails, so x^(1/r_n) is undefined; no decision",
    )


_N_WINDOWS = tuple(2 ** k for k in range(4, 21, 2))
_X_GRID_FULL = tuple(float(x) for x in np.geomspace(1e-8, 1e8, 33))
_X_GRID_SMALL = tuple(float(x) for x in np.geomspace(1e-8, 1.0, 17))
_LOG_CAP = 230.0
_EPS_UNIFORM = 0.5
_M_MAX = 16  # levels probed from the family's first level


def _levels(W: WeightFamily) -> list[int]:
    if W.single:
        return [W.m_start]
    return list(range(W.m_start, W.m_start + _M_MAX))


def _log_g_factory(g: ScalarMap) -> Callable[[np.ndarray], np.ndarray]:
    """log g(e^L) elementwise over an array of L, usable past double-precision range.

    Doubles cannot hold x^(1/r_n) once the weights are small, so the probe
    argument is kept in log scale.  Direct evaluation is used while g's value
    is representable; beyond that the log-log slope measured just below the
    overflow point extrapolates polynomial-like maps, while maps whose slope
    is itself growing (exp-like) read as divergent.
    """
    # largest L with g(e^L) finite, found by bisection on [0, 709]
    def finite_at(L: float) -> bool:
        return math.isfinite(float(g.fn(np.asarray(math.exp(L)))))

    lo, hi = 0.0, 709.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if finite_at(hi):
            l_star = hi
        elif not finite_at(lo):
            l_star = None
        else:
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if finite_at(mid):
                    lo = mid
                else:
                    hi = mid
            l_star = lo

    slope = None
    exp_like = False
    if l_star is not None and l_star > 1e-6:
        ladder = np.linspace(0.6 * l_star, 0.9 * l_star, 6)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.asarray(g.fn(np.exp(ladder)), dtype=float)
        if np.all(np.isfinite(vals)) and np.all(vals > 0):
            logs = np.log(vals)
            slopes = np.diff(logs) / np.diff(ladder)
            slope = float(slopes[-1])
            drift = float(slopes[-1] - slopes[0])
            if drift > max(0.5, 0.1 * abs(slope)):
                exp_like = True
            anchor, anchor_log = float(ladder[-1]), float(logs[-1])

    def log_g(arg_log: np.ndarray) -> np.ndarray:
        direct = arg_log <= 709.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = np.asarray(g.fn(np.exp(np.where(direct, arg_log, 0.0))), dtype=float)
            out = np.where(v > 0, np.log(v), -math.inf)
        if exp_like or slope is None:
            beyond = math.inf
        else:
            beyond = anchor_log + slope * (arg_log - anchor)
        return np.where(direct & np.isfinite(v), out, beyond)

    return log_g


@dataclass(frozen=True)
class _LevelTable:
    """Each probed level's weights on the n-windows and log g on its probe
    grid, read once per check.

    Row j is level first + j (the probed levels are consecutive): r[j] holds
    its weights on `_N_WINDOWS` and L[j] = log g(x^(1/r[j])) by xs, both NaN
    on the windows below the level's n_min; k[j] counts the windows it has.
    """

    first: int
    r: np.ndarray
    L: np.ndarray
    k: np.ndarray

    @classmethod
    def build(
        cls, log_g: Callable[[np.ndarray], np.ndarray], W: WeightFamily, levels: list[int], xs: Sequence[float]
    ) -> "_LevelTable":
        rows = len(_N_WINDOWS)
        r = np.full((len(levels), rows), math.nan)
        k = np.zeros(len(levels), dtype=int)
        for j, m in enumerate(levels):
            w = W.member(m)
            ns = [n for n in _N_WINDOWS if n >= w.n_min]
            k[j] = len(ns)
            r[j, rows - k[j]:] = w.values(ns)
        L = log_g(np.log(xs) / r[:, :, None])
        L[np.arange(rows) < rows - k[:, None]] = math.nan
        return cls(levels[0], r, L, k)

    def reweighted(self, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        """log (g(x^(1/r^m_n)))^(r^M_n) for each pair (m, M) on the n-windows
        by xs, NaN on a window below either level's n_min; and the number of
        windows each pair has."""
        m, M = np.array(pairs).T - self.first
        return self.r[M, :, None] * self.L[m], np.minimum(self.k[m], self.k[M])


def _windowless(cert: _Certificate, table: _LevelTable) -> TemperateCertificate | None:
    """The no-decision certificate when a probed level starts past the last
    n-window, so that no window holds data for its pairs."""
    if table.k.all():
        return None
    m = table.first + int(table.k.argmin())
    return cert(
        status="inconclusive",
        notes=f"level {m} starts past the last n-window 2^20, so its pairs have no data; no decision",
    )


def _level_search(
    cert: _Certificate,
    levels: list[int],
    candidates: Callable[[int], list[tuple[int, int]]],
    passing: Callable[[list[tuple[int, int]]], np.ndarray],
    refutation: Callable[[int, int], dict],
    notes: tuple[str, str],
) -> TemperateCertificate:
    """Certify with, for each lead level, the first candidate pair (m, M)
    that passes; refute at the first lead level where none does, with the
    witness of its last candidate.  `passing` judges a lead level's
    candidates at once; `notes` reads (certified, refuted)."""
    pairs = []
    for lead in levels:
        cands = candidates(lead)
        ok = passing(cands)
        if not ok.any():
            return cert(status="refuted", witness=refutation(*cands[-1]), notes=notes[1])
        pairs.append(cands[int(ok.argmax())])
    return cert(status="certified", pairs=tuple(pairs), notes=notes[0])


def _r_top(W: WeightFamily, levels: list[int]) -> float:
    """The largest weight value at its first index over the levels: the
    exponent that turns a structural bound on g into one on g^(r_n)."""
    return max(W.first_value(m) for m in levels)


def _overflowed(cert: _Certificate, a: float, r_top: float) -> TemperateCertificate:
    """The no-decision certificate when a structural bound's factor max(a, 1)^r_top overflows."""
    note = f"the structural bound factor {a:g}^{r_top:g} overflows a float; no decision"
    return cert(status="inconclusive", notes=note)


def check_moderate(g: ScalarMap, W: WeightFamily) -> TemperateCertificate:
    """Decide whether g preserves the moderate cone over the family W."""
    case = _family_case(W)
    levels = _levels(W)
    cert = partial(
        TemperateCertificate, role="moderate", case=case, map_label=g.label, family=W.name
    )
    guard = _step_guard(cert, W, levels)
    if guard is not None:
        return guard

    if g.poly_bound is not None:
        a, k = g.poly_bound
        r_top = _r_top(W, levels)
        bound = _pow(max(a, 1.0), r_top)
        if bound == math.inf:
            return _overflowed(cert, a, r_top)
        return cert(
            status="certified",
            pairs=tuple((m, m) for m in levels),
            value_bound=bound,
            exact=True,
            notes=(
                f"structural bound g(u) <= {a:g}*max(u,1)^{k:g} gives "
                f"(g(x^(1/r_n)))^(r_n) <= {bound:g}*max(x,1)^{k:g} at equal levels"
            ),
        )

    symbolic = all(W.member(m).is_symbolic for m in levels)
    if g.contains_exp and symbolic:
        refuted = _refute_exp_moderate(cert, W, levels, case)
        if refuted is not None:
            return refuted

    return _numeric_moderate(cert, g, W, levels, case)


def _refute_exp_moderate(
    cert: _Certificate, W: WeightFamily, levels: list[int], case: str
) -> TemperateCertificate | None:
    """Exact divergence of exp-type maps: at x = e^2 the reweighted value is
    exp(e^(2/r^m_n) * r^M_n), which diverges whenever e^(2/r^m) * r^M does."""
    x = math.exp(2.0)

    def diverges(m: int, M: int) -> bool:
        try:
            mult = growth.exp_of_reciprocal(W.member(m).expr, 2.0)
        except growth.NotRepresentable:
            return False
        lv = growth.limit_value(growth.mul(mult, W.member(M).expr))
        return lv == math.inf

    if case in ("II", "single"):
        m = levels[0]
        if not all(diverges(m, M) for M in levels):
            return None
        fixed, note = m, f"at level m={m} every probed M diverges"
    else:
        fixed = None
        for M in levels:
            if all(diverges(m, M) for m in levels):
                fixed = M
                break
        if fixed is None:
            return None
        note = f"at level M={fixed} every probed m diverges"

    m_w = fixed if case in ("II", "single") else levels[0]
    M_w = levels[-1] if case in ("II", "single") else fixed
    n_star = None
    wa, wb = W.member(m_w), W.member(M_w)
    for n in _N_WINDOWS:
        if n < max(wa.n_min, wb.n_min):
            continue
        # r^M * exp(log(x)/r^m) > cap, tested in the log domain so the
        # witness replays with plain float arithmetic
        if math.log(wb.value(n)) + math.log(x) / wa.value(n) > math.log(_LOG_CAP):
            n_star = n
            break
    return cert(
        status="refuted",
        witness={"m": m_w, "M": M_w, "x": x, "n": n_star, "log_value_exceeds": _LOG_CAP},
        exact=True,
        notes=note + f"; witness replay: reweighted log value at n={n_star} exceeds {_LOG_CAP:g}",
    )


def _numeric_moderate(
    cert: _Certificate, g: ScalarMap, W: WeightFamily, levels: list[int], case: str
) -> TemperateCertificate:
    table = _LevelTable.build(_log_g_factory(g), W, levels, _X_GRID_FULL)
    windowless = _windowless(cert, table)
    if windowless is not None:
        return windowless

    def bounded(pairs: list[tuple[int, int]]) -> np.ndarray:
        values, windows = table.reweighted(pairs)
        # the sups over x of the last two n-windows
        prev, last = values[:, -2:].max(axis=2).T
        return (last < _LOG_CAP) & ((windows < 2) | (last <= prev + 1.0))

    def refutation(m: int, M: int) -> dict:
        last = float(table.reweighted([(m, M)])[0][0, -1].max())
        return {"m": m, "M": M, "x": max(_X_GRID_FULL), "last_window_log": last}

    if case == "I":
        candidates = lambda lead: [(m, lead) for m in levels]
    else:
        candidates = lambda lead: [(lead, M) for M in levels if M >= lead]
    return _level_search(
        cert, levels, candidates, bounded, refutation,
        notes=(
            f"numeric search over x in [1e-8, 1e8], n-windows to 2^20, levels to {_M_MAX}",
            f"no partner level up to {_M_MAX} bounds the reweighted values on the probe grid",
        ),
    )


def check_compatible(h: ScalarMap, W: WeightFamily) -> TemperateCertificate:
    """Decide whether h collapses the negligible cone over the family W."""
    case = _family_case(W)
    levels = _levels(W)
    cert = partial(
        TemperateCertificate, role="compatible", case=case, map_label=h.label, family=W.name
    )
    guard = _step_guard(cert, W, levels)
    if guard is not None:
        return guard

    if h.zero_limit is not None and h.zero_limit > 0.0:
        m = levels[0]
        val = float(_LevelTable.build(_log_g_factory(h), W, [m], [1e-12]).reweighted([(m, m)])[0][0, -1, 0])
        return cert(
            status="refuted",
            witness={
                "m": m,
                "M": m,
                "x": 1e-12,
                "n": _N_WINDOWS[-1],
                "log_value": val,
                "zero_limit": h.zero_limit,
            },
            exact=True,
            notes=(
                f"h(0+) = {h.zero_limit:g} > 0, and L^(r_n) tends to 1, so the values "
                "cannot vanish uniformly as x shrinks"
            ),
        )

    if h.vanish_bound is not None:
        a, kappa, u0 = h.vanish_bound
        r_top = _r_top(W, levels)
        bound = _pow(max(a, 1.0), r_top)
        if bound == math.inf:
            return _overflowed(cert, a, r_top)
        x_cap = 1.0 if u0 >= 1.0 else u0 ** (1.0 / r_top)
        return cert(
            status="certified",
            pairs=tuple((m, m) for m in levels),
            value_bound=bound,
            exact=True,
            notes=(
                f"structural bound h(u) <= {a:g}*u^{kappa:g} near 0 gives "
                f"(h(x^(1/r_n)))^(r_n) <= {bound:g}*x^{kappa:g} for x <= {x_cap:g}, "
                "vanishing uniformly in n at equal levels"
            ),
        )

    return _numeric_compatible(cert, h, W, levels, case)


def _numeric_compatible(
    cert: _Certificate, h: ScalarMap, W: WeightFamily, levels: list[int], case: str
) -> TemperateCertificate:
    table = _LevelTable.build(_log_g_factory(h), W, levels, _X_GRID_SMALL)
    windowless = _windowless(cert, table)
    if windowless is not None:
        return windowless

    def vanishes(pairs: list[tuple[int, int]]) -> np.ndarray:
        # some probe x keeps the value below eps in every n-window (a NaN
        # window, below a level's n_min, is not one of the pair's)
        high = table.reweighted(pairs)[0] >= math.log(_EPS_UNIFORM)
        return np.any(~np.any(high, axis=1), axis=1)

    def refutation(m: int, M: int) -> dict:
        x = _X_GRID_SMALL[0]  # the smallest probe
        last = float(table.reweighted([(m, M)])[0][0, -1, 0])
        return {"m": m, "M": M, "x": x, "n": _N_WINDOWS[-1], "log_value": last, "eps": _EPS_UNIFORM}

    if case == "II":
        candidates = lambda lead: [(m, lead) for m in levels]
    else:
        candidates = lambda lead: [(lead, M) for M in levels]
    return _level_search(
        cert, levels, candidates, vanishes, refutation,
        notes=(
            f"numeric uniformity scan: x in [1e-8, 1], n-windows to 2^20, levels to {_M_MAX}",
            "no probe x pushes the reweighted values below eps across all "
            "n-windows: uniform vanishing fails on the grid",
        ),
    )


# ---------------------------------------------------------------------------
# maps on function sequences


@dataclass(frozen=True)
class SeqMap:
    """A map on smooth sequences with declared seminorm bookkeeping.

    order_pairing sends the output seminorm order to the input order the
    bounds are stated against; g_alpha bounds the map's own seminorms,
    g_beta and h_beta bound difference seminorms in product form.  The
    difference phi(f + k) - phi(f) is apply_diff(f, k) when given.  `apply`
    must compute each index n of its output from index n of its input
    alone, as the named maps do: `check_temperate` relies on it.
    """

    name: str
    apply: Callable[[SmoothSeq], SmoothSeq]
    order_pairing: Callable[[int], int]
    g_alpha: ScalarMap
    g_beta: ScalarMap
    h_beta: ScalarMap
    apply_diff: Callable[[SmoothSeq, SmoothSeq], SmoothSeq] | None = None

    def difference(self, f: SmoothSeq, k: SmoothSeq) -> SmoothSeq:
        if self.apply_diff is not None:
            return self.apply_diff(f, k)
        return sub_seq(self.apply(add_seq(f, k)), self.apply(f))


# The named maps are built once per argument, so every caller shares one
# instance and with it the memo of its corpus spot checks.


@lru_cache(maxsize=None)
def _square_map(nu_max: int) -> SeqMap:
    # p_nu(2fk + k^2) <= 2^nu (2 p(f) p(k) + p(k)^2) <= 2^(nu+1) (p(f)+1)^2 (p(k) + p(k)^2)
    c = 2.0 ** (nu_max + 1)
    g_beta = scaled_map(c, compose_maps(power_map(2.0), affine_map(1.0, 1.0)))
    return SeqMap(
        name="square",
        apply=square_seq,
        order_pairing=lambda nu: nu,
        g_alpha=scaled_map(2.0 ** nu_max, power_map(2.0)),
        g_beta=g_beta,
        h_beta=sum_maps(power_map(1.0), power_map(2.0)),
        apply_diff=lambda f, k: add_seq(seq_scale(2.0, product_seq(f, k)), square_seq(k)),
    )


def square_map(nu_max: int = 3) -> SeqMap:
    return _square_map(nu_max)


@lru_cache(maxsize=None)
def derivative_map() -> SeqMap:
    # p_nu(k') <= p_(nu+1)(k) exactly; the beta growth factor still needs the
    # +1 floor because the product form must dominate even at tiny p(f).
    return SeqMap(
        name="derivative",
        apply=derivative_seq,
        order_pairing=lambda nu: nu + 1,
        g_alpha=identity_map(),
        g_beta=affine_map(1.0, 1.0),
        h_beta=identity_map(),
        apply_diff=lambda f, k: derivative_seq(k),  # linear: the image of k
    )


@lru_cache(maxsize=None)
def exp_seq_map() -> SeqMap:
    return SeqMap(
        name="exp",
        apply=exp_seq,
        order_pairing=lambda nu: nu,
        g_alpha=exp_map(),
        g_beta=exp_map(),
        h_beta=expm1_map(),
    )


@dataclass(frozen=True)
class TemperateMapReport:
    status: str  # certified | refuted | inconclusive
    map_name: str
    g_alpha_cert: TemperateCertificate
    g_beta_cert: TemperateCertificate
    h_beta_cert: TemperateCertificate
    alpha_checked: int
    beta_checked: int
    witness: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


@lru_cache(maxsize=None)
def _corpus() -> dict[SmoothSeq, Callable[[Sequence[int], int], list[float]]]:
    """The fixed spot-check corpus, each sequence with its seminorm table;
    built once per process and shared by every map (read only)."""
    fs = (
        standard_mollifier().sequence(),
        seq_scale(0.5, sin_fn()),
        poly_fn([0.2, 0.1], label="0.2 + 0.1x"),
        seq_scale(growth.parse("log(n)"), bump(0.0, 1.5)),
    )
    return {f: genfun._seminorm_table(f) for f in fs}


_CORPUS_NU_MAX = 2
_CORPUS_NS = (16, 64, 256, 1024)
_RTOL, _ATOL = 1e-3, 1e-12
_INEQUALITY_NAMES = {"alpha": "growth", "beta": "difference"}


@dataclass(frozen=True)
class _SpotChecks:
    """The corpus spot checks of one map: the counts checked, and the
    witness of the first failing case (empty when every case passed)."""

    alpha_checked: int
    beta_checked: int
    witness: dict


# one entry per live map; a map's spot checks never read the weight family
_SPOT_CHECKS: weakref.WeakKeyDictionary[SeqMap, _SpotChecks] = weakref.WeakKeyDictionary()


def _spot_checks(phi: SeqMap) -> _SpotChecks:
    """The corpus spot checks of phi, run on its first call only."""
    if phi not in _SPOT_CHECKS:
        _SPOT_CHECKS[phi] = _run_spot_checks(phi)
    return _SPOT_CHECKS[phi]


def _run_spot_checks(phi: SeqMap) -> _SpotChecks:
    """Numeric spot checks of phi's two seminorm inequalities on the corpus.

    Each case bounds the seminorms of a left-hand sequence through the
    seminorms of its inputs at the paired order: the growth inequality
    ("alpha") p_nu(phi(f)) <= g_alpha(p(f)), and the difference inequality
    ("beta") p_nu(phi(f+k) - phi(f)) <= g_beta(p(f)) h_beta(p(k)).  Each
    sequence reads its seminorms from one table, kept by its structural
    key, so every (sequence, n, radius) lattice is walked once: a linear
    map's difference at (f, k) reads the table of its image of k.  A bound
    that overflows is +inf and passes.
    """
    tables = {f.key: table for f, table in _corpus().items()}
    images = {f: phi.apply(f) for f in _corpus()}
    # (inequality, left-hand sequence, inputs, bound on the inputs' seminorms)
    cases = [("alpha", images[f], (f,), lambda pf: float(phi.g_alpha(pf))) for f in images]
    cases += [
        ("beta", phi.difference(f, k), (f, k),
         lambda pf, pk: float(phi.g_beta(pf)) * float(phi.h_beta(pk)))
        for f in images
        for k in images
    ]
    checked = {"alpha": 0, "beta": 0}
    for inequality, lhs, inputs, bound in cases:
        p_lhs = tables.setdefault(lhs.key, genfun._seminorm_table(lhs))
        for nu in range(_CORPUS_NU_MAX + 1):
            if nu > lhs.max_order or phi.order_pairing(nu) > min(x.max_order for x in inputs):
                continue
            # one walk per table and radius reads every n
            p_ins = (tables[x.key](_CORPUS_NS, phi.order_pairing(nu)) for x in inputs)
            for n, p_out, *p_in in zip(_CORPUS_NS, p_lhs(_CORPUS_NS, nu), *p_ins):
                with np.errstate(over="ignore"):
                    rhs = bound(*p_in)
                checked[inequality] += 1
                if p_out > rhs * (1 + _RTOL) + _ATOL:
                    labels = dict(zip(("f", "k"), (x.label for x in inputs)))
                    witness = {"inequality": inequality, **labels, "nu": nu, "n": n,
                               "lhs": p_out, "rhs": rhs}
                    return _SpotChecks(checked["alpha"], checked["beta"], witness)
    return _SpotChecks(checked["alpha"], checked["beta"], {})


def check_temperate(phi: SeqMap, W: WeightFamily) -> TemperateMapReport:
    """Certify a function-sequence map: scalar certificates over W plus
    numeric spot checks of the two seminorm inequalities on a fixed corpus.

    The spot checks do not depend on W: they run once per map and are
    memoised with it (see `_spot_checks`), and only when no scalar
    certificate is refuted.  A family of step weights certifies every map
    unrun: there every sequence is moderate and every negligible k is
    eventually 0, so is phi(f + k) - phi(f), as phi works index by index.
    """
    certs = {
        "g_alpha_cert": check_moderate(phi.g_alpha, W),
        "g_beta_cert": check_moderate(phi.g_beta, W),
        "h_beta_cert": check_compatible(phi.h_beta, W),
    }
    report = partial(TemperateMapReport, map_name=phi.name, **certs)
    if all(W.member(m).is_step for m in _levels(W)):
        note = "every sequence is moderate and every negligible k is eventually 0, so phi(f+k) - phi(f) is eventually 0"
        return report(status="certified", alpha_checked=0, beta_checked=0, notes=f"step weights decide: {note}")
    bad = next((c for c in certs.values() if c.status == "refuted"), None)
    if bad is not None:
        return report(
            status="refuted",
            alpha_checked=0,
            beta_checked=0,
            witness=dict(bad.witness),
            notes=f"scalar certificate refuted for {bad.map_label!r} ({bad.role})",
        )

    spot = _spot_checks(phi)
    checked = partial(report, alpha_checked=spot.alpha_checked, beta_checked=spot.beta_checked)
    if spot.witness:
        return checked(
            status="refuted",
            witness=dict(spot.witness),
            notes=f"{_INEQUALITY_NAMES[spot.witness['inequality']]} inequality fails on the corpus",
        )
    certified = all(c.status == "certified" for c in certs.values())
    return checked(
        status="certified" if certified else "inconclusive",
        notes=f"numeric checks passed on {len(_corpus())} corpus functions",
    )


# ---------------------------------------------------------------------------
# extension, well-definedness, continuity


class ExtensionError(RuntimeError):
    """The extended map produced a non-moderate output."""


def extend(phi: SeqMap, element: FunctionElement) -> FunctionElement:
    """Apply the map to a representative and re-validate moderateness."""
    out = phi.apply(element.seq)
    fspace = element.fspace
    nu_max = min(fspace.nu_max, out.max_order)
    report = genfun.classify_fun(out, nu_max, fspace.space)
    if report.in_moderate is False:
        raise ExtensionError(
            f"map {phi.name!r} sent {element.seq.label!r} outside the moderate "
            "class: the temperateness certificate does not cover this input"
        )
    return FunctionElement(seq=out, fspace=FunctionSpace(fspace.space, nu_max), report=report)


@dataclass(frozen=True)
class F2Report:
    """The verdicts behind one ideal-stability check.

    `passed` follows the difference's verdict: True when it is negligible,
    None when it is inconclusive, False otherwise.
    """

    diff_verdict: str
    j_verdict: str

    @property
    def passed(self) -> bool | None:
        return {"negligible": True, "inconclusive": None}.get(self.diff_verdict, False)


def verify_F2(
    phi: SeqMap,
    f: SmoothSeq,
    j: SmoothSeq,
    space: NumberSpace | None = None,
    nu_max: int = 2,
) -> F2Report:
    """Ideal stability of the extension: the difference after a negligible
    perturbation must classify negligible."""
    space = space or colombeau_space()
    j_report = genfun.classify_fun(j, min(nu_max, j.max_order), space)
    if j_report.verdict != "negligible":
        raise ValueError(f"perturbation {j.label!r} is not negligible: {j_report.verdict}")
    dseq = phi.difference(f, j)
    d_report = genfun.classify_fun(dseq, min(nu_max, dseq.max_order), space)
    return F2Report(diff_verdict=d_report.verdict, j_verdict=j_report.verdict)


def continuity_trend(
    phi: SeqMap,
    f: SmoothSeq,
    k: SmoothSeq,
    space: NumberSpace | None = None,
    steps: int = 4,
    nu: int = 0,
) -> list[tuple[float, float]]:
    """Norms (input perturbation, output difference) along a shrinking ladder.

    Constant rescaling cannot move an ultranorm, so the ladder scales k by
    n^(-i log 10), which divides the perturbation norm by 10 per step.
    """
    space = space or colombeau_space()
    w = space.single_weight()

    def norm(seq: SmoothSeq) -> float:
        p = partial(genfun._seminorm_table(seq), nu=nu)
        return ultranorm(genfun._log_abs_channel(p, f"p_{nu}({seq.label})", DEFAULT_SAMPLE_NS), w).value

    out = []
    for i in range(steps):
        scale = growth.term_expr(1.0, pow_n=-i * math.log(10.0))
        ki = seq_scale(scale, k) if i > 0 else k
        out.append((norm(ki), norm(phi.difference(f, ki))))
    return out


# ---------------------------------------------------------------------------
# pushing scalar sequences through certified maps


def apply_scalar_map(g: ScalarMap, rep: SeqRep) -> SeqRep:
    """g applied valuewise to a scalar sequence, exact when g carries a
    symbolic transform."""
    if rep.is_symbolic and g.symbolic_transform is not None and not rep.expr.modulated:
        if rep.expr.is_zero:
            zl = g.zero_limit if g.zero_limit is not None else float(g.fn(np.asarray(0.0)))
            e = growth.constant(zl) if zl > 0 else growth.ZERO
        else:
            e = g.symbolic_transform(rep.expr)
        return SeqRep.symbolic(e, label=f"{g.label}({rep.label})")
    if rep.is_truncated:
        zl = g.zero_limit if g.zero_limit is not None else float(g.fn(np.asarray(0.0)))
        if zl == 0.0:
            return rep
    def vals(ns: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            v = np.exp(np.minimum(rep.log_values(ns), 700.0))
        return np.asarray(g.fn(v), dtype=float)

    return SeqRep.sampled(
        vals,
        label=f"{g.label}({rep.label})",
        n_min=rep.n_min,
        n_max=rep.n_max,
        sample_ns=rep.sample_ns,
    )
