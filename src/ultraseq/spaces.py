"""Ultranorms, sequence classification, and the induced pseudometric.

The central quantity is the ultranorm of a positive sequence f against a
weight r: exp of the upper limit of r_n * log f_n.  All computation stays
in the log domain so that values like e^-1000 keep their full meaning.

Sequences come in three representations.  Symbolic ones carry a growth
expression and admit exact answers.  Truncated ones are zero beyond a
cutoff, which forces the ultranorm to zero under every weight.  Sampled
ones expose only a log-evaluator; their ultranorms are estimated from
dyadic tail windows and returned with an uncertainty band.  One pass
gives a sequence's ultranorm at every level of a weight family
(`_level_norms`): `ultranorm` is its one-level case, and `classify`
reads every level from it.  Sums, products and distances of
representatives are pointwise rules that stay exact when both operands
are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ultraseq import growth
from ultraseq.growth import GrowthExpr
from ultraseq.weights import Direction, Mode, WeightFamily, WeightSeq, catalog

__all__ = [
    "SampleError",
    "SeqRep",
    "UltranormValue",
    "ClassificationReport",
    "NumberSpace",
    "ultranorm",
    "classify",
    "pseudometric",
    "ideal_check",
    "colombeau_space",
    "infra_space",
]


# ---------------------------------------------------------------------------
# sequence representations


class SampleError(ValueError):
    """A sampled sequence gave a value that is nan or negative."""

    def __init__(self, label: str, n: int, value: float):
        self.n, self.value = n, value
        super().__init__(f"{label}: the sample at n = {n} is {value!r}, not a nonnegative number")


@dataclass(frozen=True)
class SeqRep:
    """A nonnegative sequence under one of three representations.

    `expr` gives exact symbolic asymptotics.  `cutoff` marks a sequence
    that vanishes beyond the given index (the values before it are
    irrelevant to every tail quantity).  `log_evaluator` supports sampled
    access: it maps an integer array to log-values, -inf encoding zeros.
    """

    label: str
    expr: GrowthExpr | None = None
    cutoff: int | None = None
    log_evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    n_min: int = 2
    n_max: int = 1_000_000
    sample_ns: tuple[int, ...] | None = None

    def __post_init__(self):
        reps = sum(x is not None for x in (self.expr, self.cutoff, self.log_evaluator))
        if reps != 1:
            raise ValueError("need exactly one of expr, cutoff, log_evaluator")
        if self.expr is not None:
            object.__setattr__(self, "n_min", max(self.n_min, self.expr.eval_n_min))
        if self.n_max > 2**53:
            raise ValueError(
                f"n_max must be at most 2^53, where every index is an exact float, got {self.n_max}"
            )
        if self.n_max < 10_000:
            raise ValueError("n_max must leave room for tail estimation (>= 10^4)")
        if self.n_min >= self.n_max:
            raise ValueError(f"need n_min < n_max, got {self.n_min} >= {self.n_max}")
        if self.sample_ns is not None and not any(
            self.n_min <= n <= self.n_max for n in self.sample_ns
        ):
            raise ValueError(f"sample_ns has no index in [{self.n_min}, {self.n_max}]")

    # -- constructors

    @staticmethod
    def symbolic(text_or_expr: str | GrowthExpr, label: str | None = None) -> "SeqRep":
        e = growth.parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
        return SeqRep(label=label or growth.format_expr(e), expr=e)

    @staticmethod
    def truncated(cutoff: int, label: str | None = None) -> "SeqRep":
        return SeqRep(label=label or f"zero beyond {cutoff}", cutoff=cutoff)

    @staticmethod
    def sampled(
        values_fn: Callable[[np.ndarray], np.ndarray],
        label: str,
        *,
        n_min: int = 2,
        n_max: int = 1_000_000,
        sample_ns: Iterable[int] | None = None,
    ) -> "SeqRep":
        def log_fn(ns: np.ndarray) -> np.ndarray:
            vals = np.asarray(values_fn(ns), dtype=float)
            bad = np.isnan(vals) | (vals < 0)  # -0.0 is a zero
            if bad.any():
                i = int(bad.argmax())
                raise SampleError(label, int(np.ravel(ns)[i]), float(vals.flat[i]))
            with np.errstate(divide="ignore"):
                return np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -math.inf)

        return SeqRep(
            label=label,
            log_evaluator=log_fn,
            n_min=n_min,
            n_max=n_max,
            sample_ns=tuple(sample_ns) if sample_ns is not None else None,
        )

    @staticmethod
    def sampled_from_expr(text_or_expr: str | GrowthExpr, label: str | None = None) -> "SeqRep":
        """Sampled view of a symbolic sequence, for exercising the estimator."""
        e = growth.parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
        return SeqRep(
            label=label or ("sampled " + growth.format_expr(e)),
            log_evaluator=lambda ns: np.atleast_1d(growth.eval_log(e, ns)),
            n_min=e.eval_n_min,
        )

    @property
    def is_symbolic(self) -> bool:
        return self.expr is not None

    @property
    def is_truncated(self) -> bool:
        return self.cutoff is not None

    def log_values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns)
        if self.cutoff is not None:
            return np.where(ns <= self.cutoff, 0.0, -math.inf)
        if self.expr is not None:
            return np.atleast_1d(growth.eval_log(self.expr, ns))
        return np.asarray(self.log_evaluator(ns), dtype=float)


# ---------------------------------------------------------------------------
# pointwise algebra of representatives: every quantity computed from a
# SeqRep is tail-determined, so a truncated operand drops out of a sum or a
# distance and makes a product truncated; two exact operands stay exact


def _pointwise(label: str, rule: Callable[..., np.ndarray], *reps: SeqRep) -> SeqRep:
    """The sampled sequence whose log values are rule(*operand log values),
    read where every operand is defined, on the first operand grid given.
    A symbolic operand is defined at every index, so its n_max (a sampling
    horizon, not a domain) does not cut the range of a sampled one."""
    return SeqRep(
        label=label,
        log_evaluator=lambda ns: rule(*[r.log_values(ns) for r in reps]),
        n_min=max(r.n_min for r in reps),
        n_max=min(r.n_max for r in reps if not r.is_symbolic),
        sample_ns=next((r.sample_ns for r in reps if r.sample_ns is not None), None),
    )


def _sum(u: SeqRep, v: SeqRep) -> SeqRep:
    """u + v, pointwise."""
    if u.is_truncated and v.is_truncated:
        return SeqRep.truncated(max(u.cutoff, v.cutoff))
    if u.is_truncated or v.is_truncated:
        return v if u.is_truncated else u
    if u.is_symbolic and v.is_symbolic:
        return SeqRep.symbolic(growth.add(u.expr, v.expr))
    return _pointwise(f"{u.label} + {v.label}", np.logaddexp, u, v)


def _product(u: SeqRep, v: SeqRep) -> SeqRep:
    """u * v, pointwise; a symbolic zero factor gives the symbolic zero."""
    if u.is_truncated or v.is_truncated:
        return SeqRep.truncated(min(r.cutoff for r in (u, v) if r.is_truncated))
    if (u.is_symbolic and u.expr.is_zero) or (v.is_symbolic and v.expr.is_zero):
        return SeqRep.symbolic(growth.ZERO)
    if u.is_symbolic and v.is_symbolic:
        return SeqRep.symbolic(growth.mul(u.expr, v.expr))
    return _pointwise(f"({u.label})*({v.label})", np.add, u, v)


def _log_abs_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log|e^a - e^b|, scale-shifted as m + log|e^(a-m) - e^(b-m)|, m = max(a, b)."""
    m = np.maximum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(np.exp(a - m) - np.exp(b - m))
        out = np.where(rel > 0, m + np.log(rel), -math.inf)
    return np.where(np.isneginf(m), -math.inf, out)


def _distance(u: SeqRep, v: SeqRep) -> SeqRep:
    """|u - v|, pointwise.  Symbolic expressions carry no sign, so a
    symbolic pair is exact only when the two are equal or one is zero."""
    if u.is_truncated and v.is_truncated:
        return SeqRep.truncated(max(u.cutoff, v.cutoff))
    if u.is_truncated or v.is_truncated:
        return v if u.is_truncated else u
    if u.is_symbolic and v.is_symbolic:
        if u.expr == v.expr:
            return SeqRep.symbolic(growth.ZERO)
        if u.expr.is_zero or v.expr.is_zero:
            return v if u.expr.is_zero else u
        raise ValueError("symbolic pair needs an explicit |f - g| representation")
    return _pointwise(f"|{u.label} - {v.label}|", _log_abs_difference, u, v)


# ---------------------------------------------------------------------------
# ultranorm values


@dataclass(frozen=True)
class UltranormValue:
    """An ultranorm, kept in the log domain alongside the plain value.

    `log_value` is the authoritative field: +inf marks divergence, -inf a
    zero ultranorm, NaN an estimate with no sample to rest on.  Estimated
    results carry a log-scale uncertainty band and a stability flag; exact
    ones have `exact=True` and no band.
    """

    log_value: float
    exact: bool
    band_log: tuple[float, float] | None = None
    stable: bool = True
    witness: str = ""

    @property
    def value(self) -> float:
        return _exp(self.log_value)

    def _band(self) -> tuple[float, float]:
        if self.band_log is not None:
            return self.band_log
        return (self.log_value, self.log_value)

    def is_finite(self) -> bool | None:
        """True/False when decided, None when the evidence straddles divergence.

        Estimated values key on the committed log_value: the estimator only
        commits to +inf under a strong divergence signal, recorded in the
        witness, and the band keeps the residual uncertainty for threshold
        queries.
        """
        if self.exact:
            return self.log_value < math.inf
        if self.log_value == math.inf:
            return False
        lo, hi = self._band()
        return True if hi < math.inf else None

    def is_zero(self) -> bool | None:
        if self.exact:
            return self.log_value == -math.inf
        if self.log_value == -math.inf:
            return True
        lo, hi = self._band()
        return False if lo > -math.inf else None

    def below(self, threshold_log: float) -> bool | None:
        """Whether the value lies strictly below a log threshold: None when
        the band straddles it.  An exact value on the threshold is not
        below it (`on` tells that case apart)."""
        if self.exact:
            return bool(self.log_value < threshold_log)  # a numpy bool is not `is False`
        lo, hi = self._band()
        if hi < threshold_log:
            return True
        if lo > threshold_log:
            return False
        return None

    def on(self, threshold_log: float) -> bool:
        """Whether the value is exactly the log threshold, which only the
        exact tier can say."""
        return self.exact and bool(self.log_value == threshold_log)


def _exp(log_value: float) -> float:
    """exp that reads an overflow (log_value above about 709.78) as inf."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# exact ultranorms for symbolic input


def _exact_norms(e: GrowthExpr, weights: Sequence[WeightSeq]) -> list[UltranormValue]:
    """The exact ultranorm of the symbolic sequence e against each weight,
    symbolic or a step (any weight when e is zero).

    Each parity branch takes one log, and every symbolic weight's limit is
    taken against its one dominance key.  A step weight is 0 beyond its
    step, where a nonzero symbolic branch is eventually positive: log 1 = 0
    (norm 1).  Levels with equal limits share one value.
    """
    branches = e.branches if e.modulated else (e,)
    exprs = [r.expr for r in weights if r.expr is not None]
    per_branch = []
    for b in branches:
        if b.is_zero:
            lims = [-math.inf] * len(weights)
        elif len(exprs) == len(weights):
            lims = growth.limits_of_product(exprs, growth.log_expr(b))
        else:
            symbolic = iter(growth.limits_of_product(exprs, growth.log_expr(b)) if exprs else ())
            lims = [next(symbolic) if r.expr is not None else 0.0 for r in weights]
        per_branch.append(lims)
    values: dict[tuple, UltranormValue] = {}
    out = []
    for parts in zip(*per_branch):  # no limit is -0, so equal parts have equal bits
        v = values.get(parts)
        if v is None:
            witness = "exact limit of weighted log values"
            if e.modulated:
                witness = f"upper limit over parity branches: even {parts[0]:g}, odd {parts[1]:g}"
            v = values[parts] = UltranormValue(log_value=max(parts), exact=True, witness=witness)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# sampled tail estimation

_WINDOW_FIT = 10
_DIVERGE_LOG = 50.0
_STABLE_WIDTH = 0.5
_PER_WINDOW = 6


def _window_keys(ns) -> np.ndarray:
    """The dyadic window of each index: floor(log2 n), exact up to 2^53.

    log2 rounds 2^k - 1 up to k for k >= 49; the shift test corrects it.
    """
    ns = np.asarray(ns, dtype=np.int64)
    k = np.floor(np.log2(ns)).astype(np.int64)
    return k - ((1 << k) > ns)


@lru_cache(maxsize=8)
def _sample_grid(n_min: int, n_max: int) -> np.ndarray:
    """The sorted int64 indices at which a sampled tail is read.

    Every dyadic window [2^k, 2^(k+1) - 1] that meets [max(n_min, 2), n_max]
    gets _PER_WINDOW geometrically spaced points from the first to the last
    index it shares with that range; they are rounded, deduplicated and
    clipped to that shared part, so the grid lies in [n_min, n_max].  An
    empty range gives an empty grid.

    Standalone sampled norms ask for the same few ranges over and over, so
    each grid is built once and shared: the array is read-only.
    """
    n_lo = max(n_min, 2)
    if n_max < n_lo:
        grid = np.empty(0, dtype=np.int64)
    else:
        k_lo, k_hi = _window_keys([n_lo, n_max])
        ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
        lo = np.maximum(1 << ks, n_lo)
        hi = np.minimum((1 << (ks + 1)) - 1, n_max)
        pts = np.round(np.geomspace(lo, hi, _PER_WINDOW, axis=-1)).astype(np.int64)
        grid = np.unique(np.clip(pts, lo[:, None], hi[:, None]))
    grid.flags.writeable = False
    return grid


def _window_layout(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted indices ns, the position in ns of each dyadic window's
    first point, and the window number (0, 1, ...) of each point."""
    opens = np.diff(_window_keys(ns), prepend=-1) != 0
    return ns, np.flatnonzero(opens), np.cumsum(opens) - 1


@lru_cache(maxsize=16)
def _layout(
    n_min: int, n_max: int, sample_ns: tuple[int, ...] | None = None, windows: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window layout of a tail read from n_min on: of the indices
    sample_ns when given, else of the dyadic sample grid up to n_max; of
    their last `windows` dyadic windows alone when given (all of them
    when there are no more), numbered from 0.  Reads ask for the same few
    layouts over and over, so each is built once and shared beside its
    grid: every array is read-only."""
    if sample_ns is None:
        ns = _sample_grid(n_min, n_max)
    else:
        ns = np.asarray(sorted(set(sample_ns)), dtype=np.int64)
        ns = ns[ns >= n_min]
    ns, starts, window = _window_layout(ns)
    if windows is not None and len(starts) > windows:
        cut = starts[-windows]
        ns, starts, window = ns[cut:], starts[-windows:] - cut, window[cut:] - (len(starts) - windows)
    for a in (ns, starts, window):
        a.flags.writeable = False
    return ns, starts, window


class _TailSamples(NamedTuple):
    """A sequence's tail read once from the cut-off n_min on: the sorted
    grid, the log values on it, the position in ns of each dyadic
    window's first point, and the window number (0, 1, ...) of each point."""

    n_min: int
    ns: np.ndarray
    logs: np.ndarray
    starts: np.ndarray
    window: np.ndarray


def _tail_samples(f: SeqRep, n_min: int, windows: int | None = None) -> _TailSamples:
    """f's tail samples from n_min on, at f's own sample_ns when it has
    them, else on the dyadic sample grid, in only the last `windows`
    dyadic windows when given; an empty grid evaluates nothing."""
    ns, starts, window = _layout(n_min, f.n_max, f.sample_ns, windows)
    logs = f.log_values(ns) if len(ns) else np.empty(0)
    return _TailSamples(n_min, ns, logs, starts, window)


def _weighted(logs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """t_n = r_n log f_n on the grid; a 2-D rs gives one row per weight."""
    with np.errstate(invalid="ignore"):
        t = rs * logs
    # conventions: 0 * (-inf) = -inf here (a zero weight flattens zeros to
    # zero, and every positive f_n, +inf included, to one, as a step weight
    # does on the exact tier), and r * log stays -inf whenever f_n = 0
    t = np.where(np.isneginf(logs), -math.inf, t)
    return np.where((rs == 0.0) & (logs > -math.inf), 0.0, t)


def _window_sups(s: _TailSamples, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max of t (given on the grid s.ns) over each dyadic window, and
    the first n in each window where it is reached; a 2-D t gives them
    row by row.  Max and min are exact, so each row is the same floats as
    when taken alone.

    A NaN in a window makes its max NaN; the n reported for it is then
    the last grid point, and callers drop such windows before using it.
    """
    size = t.shape[-1]
    sups = np.maximum.reduceat(t, s.starts, axis=-1)
    at_sup = t == sups[..., s.window]
    first = np.minimum.reduceat(np.where(at_sup, np.arange(size), size - 1), s.starts, axis=-1)
    return sups, s.ns[first]


def _dyadic_log_maxima(
    f: SeqRep, windows: int, shift_log: Callable[[np.ndarray], np.ndarray] | None = None
) -> np.ndarray:
    """The max of log f_n, plus shift_log(n) when given, over each of the
    last `windows` dyadic windows of f's tail samples from f.n_min on (all
    of them when there are fewer): a judge reads f only in the windows it
    tests.  Max is exact, so these are the last maxima of a full read.  A
    shift_log that gives one row per shift gives the maxima row by row,
    from one read of f."""
    s = _tail_samples(f, f.n_min, windows)
    logs = s.logs if shift_log is None else s.logs + shift_log(s.ns)
    return _window_sups(s, logs)[0]


def _no_estimate(witness: str) -> UltranormValue:
    """An estimate with nothing to rest on: nan, in an unbounded band."""
    return UltranormValue(
        log_value=math.nan, exact=False, band_log=(-math.inf, math.inf), stable=False, witness=witness
    )


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solutions of the stacked systems a[i] x = b[i],
    a of shape (k, m, n) and b (k, m), in one LAPACK gelsd call: the
    gufunc that np.linalg.lstsq(a[i], b[i], rcond=None) wraps, with its
    rcond and errstate, so each row is the same floats."""
    m, n = a.shape[-2:]
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x, _, _, _ = _umath_linalg.lstsq(a, b[..., None], np.finfo(float).eps * max(m, n), signature="ddd->ddid")
    return x[..., 0]


def _tail_fits(tails: np.ndarray, tail_ns: np.ndarray) -> list[UltranormValue]:
    """The limit of each row of `tails`, the last window maxima of one t
    on a read of tail samples, reached first at the indices in the same
    row of `tail_ns`.  Rows whose bytes are equal are fitted once.

    Each row is extrapolated against the basis {1, 1/L, log L / L} in
    L = log n, which reproduces the exact tail law for constants, powers
    of n, our weight catalogs, and exponentials; the rows with the same
    finite windows (all of them, nearly always) are solved together, in
    one least-squares call.  The band is driven by fit residuals; when
    the basis cannot explain the tail, a steady drift in L commits to a
    +-inf limit, and anything else comes back wide and unstable.
    """
    keys = [(t.tobytes(), n.tobytes()) for t, n in zip(tails, tail_ns)]
    rows = dict.fromkeys(keys)
    pick = [keys.index(key) for key in rows]
    tails, tail_ns = tails[pick], tail_ns[pick]
    # fitting at the location of each window sup instead of the window
    # midpoint keeps the asymptote unbiased
    tail_ls = np.log(tail_ns)
    finite = np.isfinite(tails)
    rows_in = zip(tails.tolist(), tail_ns[:, 0].tolist(), finite.sum(axis=-1).tolist())
    fits = [_unfitted(tail, n0, k) for tail, n0, k in rows_in]
    # the rows left to fit, by their finite windows: one call per mask
    by_mask: dict[bytes, list[int]] = {}
    for i, v in enumerate(fits):
        if v is None:
            by_mask.setdefault(finite[i].tobytes(), []).append(i)
    for rows_left in by_mask.values():
        mask = finite[rows_left[0]]
        ys, Ls = tails[rows_left][:, mask], tail_ls[rows_left][:, mask]
        basis = np.stack([np.ones_like(Ls), 1.0 / Ls, np.log(Ls) / Ls], axis=-1)
        coef = _lstsq(basis, ys)
        resid = np.max(np.abs((basis @ coef[..., None])[..., 0] - ys), axis=-1)
        for i, y, L, c, e in zip(rows_left, ys, Ls, coef.tolist(), resid.tolist()):
            fits[i] = _fitted(y, L, c[0], e)
    fitted = dict(zip(rows, fits))
    return [fitted[key] for key in keys]


def _unfitted(tail: list[float], n0: int, n_finite: int) -> UltranormValue | None:
    """The limit of the tail row `tail`, with n_finite finite windows,
    when it needs no fit: every value vanishes, a clear divergence signal,
    or too few finite windows.  n0 is where the row's first window reaches
    its max: the first index judged when every value vanishes."""
    if all(t == -math.inf for t in tail):
        return UltranormValue(
            log_value=-math.inf,
            exact=False,
            band_log=(-math.inf, -math.inf),
            stable=True,
            witness=f"all sampled tail values vanish beyond n={n0}",
        )
    if tail[-1] > _DIVERGE_LOG and (len(tail) < 2 or tail[-1] >= tail[-2]):
        return UltranormValue(
            log_value=math.inf,
            exact=False,
            band_log=(_DIVERGE_LOG, math.inf),
            stable=True,
            witness=f"weighted log values exceed {_DIVERGE_LOG:g} and still rising",
        )
    if tail[-1] < -_DIVERGE_LOG and (len(tail) < 2 or tail[-1] <= tail[-2]):
        return UltranormValue(
            log_value=-math.inf,
            exact=False,
            band_log=(-math.inf, -_DIVERGE_LOG),
            stable=True,
            witness=f"weighted log values fall below -{_DIVERGE_LOG:g} and still falling",
        )
    if n_finite == 0:
        return _no_estimate("no finite tail window to fit")
    if n_finite < 3:
        alpha = [t for t in tail if math.isfinite(t)][-1]
        width = max(1.0, abs(alpha))
        return UltranormValue(
            log_value=alpha,
            exact=False,
            band_log=(alpha - width, alpha + width),
            stable=False,
            witness="too few finite tail windows for a fit",
        )
    return None


def _fitted(ys: np.ndarray, Ls: np.ndarray, alpha: float, resid: float) -> UltranormValue:
    """The limit of the finite tail windows ys at L = Ls, whose convergent
    fit extrapolated alpha with largest residual resid."""
    last_sup = float(ys[-1])
    if resid <= 0.02:
        width = max(6.0 * resid, 1e-9 + 1e-5 * abs(alpha))
        return UltranormValue(
            log_value=alpha,
            exact=False,
            band_log=(alpha - width, alpha + width),
            stable=width <= _STABLE_WIDTH,
            witness=(
                f"tail fit over {len(ys)} dyadic windows; last window sup {last_sup:.6g}, "
                f"extrapolated {alpha:.6g}"
            ),
        )
    # the convergent basis cannot explain the tail; a steady drift in L
    # means t_n tracks a growing multiple of log n and the limsup is +-inf
    lin = np.column_stack([np.ones_like(Ls), Ls])
    lcoef, *_ = np.linalg.lstsq(lin, ys, rcond=None)
    lresid = float(np.max(np.abs(lin @ lcoef - ys)))
    slope = float(lcoef[1])
    if abs(slope) >= 0.05 and abs(slope) * Ls[-1] >= max(1.0, 8.0 * lresid):
        if slope > 0:
            return UltranormValue(
                log_value=math.inf,
                exact=False,
                band_log=(float(np.min(ys)), math.inf),
                stable=True,
                witness=f"weighted log values drift upward at slope {slope:.3g} per unit log n",
            )
        return UltranormValue(
            log_value=-math.inf,
            exact=False,
            band_log=(-math.inf, float(np.max(ys))),
            stable=True,
            witness=f"weighted log values drift downward at slope {slope:.3g} per unit log n",
        )
    spread = abs(last_sup - float(ys[0]))
    return UltranormValue(
        log_value=last_sup,
        exact=False,
        band_log=(float(np.min(ys)) - spread, float(np.max(ys)) + spread),
        stable=False,
        witness=(
            f"tail fit residual {resid:.3g} too large to extrapolate; "
            f"last window sup {last_sup:.6g}"
        ),
    )


def _estimate_norms(f: SeqRep, weights: Sequence[WeightSeq]) -> list[UltranormValue]:
    """The estimate of f's ultranorm against each weight, from f's tail
    samples: at each cut-off, where both f and the weight are defined (a
    step weight everywhere from 2 on), f is read once, the window maxima of
    every weight cut off there are taken in one pass, one row per weight,
    and their tails are fitted together (`_tail_fits`)."""
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(weights):
        groups.setdefault(max(f.n_min, r.n_min if not r.is_step else 2), []).append(i)
    out: dict[int, UltranormValue] = {}
    for n_min, group in groups.items():
        s = _tail_samples(f, n_min)
        if len(s.ns):
            sups, sup_ns = _window_sups(s, _weighted(s.logs, np.array([weights[i].values(s.ns) for i in group])))
            fits = _tail_fits(sups[:, -_WINDOW_FIT:], sup_ns[:, -_WINDOW_FIT:])
        else:
            fits = [_no_estimate(f"no sample index at or above the weight's cut-off n={n_min}")] * len(group)
        out.update(zip(group, fits))
    return [out[i] for i in range(len(weights))]


def _level_norms(f: SeqRep, weights: Sequence[WeightSeq]) -> list[UltranormValue]:
    """f's ultranorm against each weight in `weights`, in one pass: exact
    when both sides allow it (`_exact_norms`), and for a vanishing f under
    every weight; estimated from f's tail samples otherwise
    (`_estimate_norms`)."""
    if f.is_truncated:
        v = UltranormValue(log_value=-math.inf, exact=True, witness=f"sequence vanishes beyond n={f.cutoff}")
        return [v] * len(weights)
    if not f.is_symbolic:
        return _estimate_norms(f, weights)
    # a weight given by an evaluator is estimated, unless f is zero
    numeric = [r.evaluator is not None and not f.expr.is_zero for r in weights]
    if not any(numeric):
        return _exact_norms(f.expr, weights)
    exact_norms = iter(_exact_norms(f.expr, [r for r, x in zip(weights, numeric) if not x]))
    estimates = iter(_estimate_norms(f, [r for r, x in zip(weights, numeric) if x]))
    return [next(estimates) if x else next(exact_norms) for x in numeric]


def ultranorm(f: SeqRep, r: WeightSeq, *, _value: UltranormValue | None = None) -> UltranormValue:
    """The ultranorm of f against weight r (`_level_norms` at one level),
    or `_value`: `classify` hands in each level's value from its one pass."""
    return _value if _value is not None else _level_norms(f, (r,))[0]


# ---------------------------------------------------------------------------
# classification


def _tri_and(vals: Iterable[bool | None]) -> bool | None:
    out: bool | None = True
    for v in vals:
        if v is False:
            return False
        if v is None:
            out = None
    return out


def _tri_or(vals: Iterable[bool | None]) -> bool | None:
    out: bool | None = False
    for v in vals:
        if v is True:
            return True
        if v is None:
            out = None
    return out


@dataclass(frozen=True)
class ClassificationReport:
    """The F/K verdict of a bundle and the norms it rests on, as data.

    `channel_norms` maps (level, channel key) to that channel's ultranorm
    at that level, for every level in `m_probed`.  `conclusive` is
    `verdict != "inconclusive"`: a divergent verdict decides that the
    bundle lies outside F, and so outside K; every other verdict but
    inconclusive decides both memberships.
    """

    verdict: str  # negligible | moderate | boundary | divergent | inconclusive
    in_moderate: bool | None
    in_negligible: bool | None
    mode: Mode
    family: str
    m_probed: tuple[int, ...]
    channel_norms: Mapping[tuple, UltranormValue] = field(default_factory=dict)

    @property
    def conclusive(self) -> bool:
        return self.verdict != "inconclusive"


def _channel_in_F(v: UltranormValue, mode: Mode) -> bool | None:
    if mode is Mode.STANDARD:
        return v.is_finite()
    return _tri_or((v.on(0.0), v.below(0.0)))  # the closed unit ball


def _channel_in_K(v: UltranormValue, mode: Mode) -> bool | None:
    if mode is Mode.STANDARD:
        return v.is_zero()
    return v.below(0.0)


def _levels(family: WeightFamily, m_max: int) -> list[int]:
    """The levels `classify` probes: the one weight, or m_max levels."""
    return [family.m_start] if family.single else list(range(family.m_start, family.m_start + m_max))


def classify(
    bundle: Mapping | SeqRep,
    family: WeightFamily,
    mode: Mode | None = None,
    m_max: int = 16,
) -> ClassificationReport:
    """Classify a sequence bundle against a weight family.

    `bundle` maps channel keys (seminorm identifiers) to SeqRep values; a
    bare SeqRep is treated as a one-channel bundle.  Membership in the
    moderate class requires every channel to pass; for indexed families
    the level quantifier follows the family direction (exists-m for
    decreasing levels, for-all-m for increasing ones), probed up to m_max.

    Each channel's norms at every level come from one pass
    (`_level_norms`): a symbolic channel takes one log per parity branch
    and every level's limit against one dominance key; a sampled channel
    is read once per cut-off and its tails are fitted together.  Levels
    with equal norms share one value, judged once.  Each level's finished
    value is still handed through `ultranorm`, and nothing read outlives
    the call.  The report holds the verdict and every level's norm; it
    builds no text.
    """
    if isinstance(bundle, SeqRep):
        bundle = {"value": bundle}
    mode = mode or family.default_mode
    levels = _levels(family, m_max)
    weights = [family.member(m) for m in levels]
    norms = {key: _level_norms(f, weights) for key, f in bundle.items()}
    # each level's value still goes through `ultranorm`, where tracers see it
    channel_norms = {
        (m, key): ultranorm(f, r, _value=norms[key][i])
        for i, (m, r) in enumerate(zip(levels, weights))
        for key, f in bundle.items()
    }
    # levels with equal norms share one value, which is judged once; the
    # quantifiers read each distinct level once
    distinct = {id(v): v for v in channel_norms.values()}
    judged = {i: (_channel_in_F(v, mode), _channel_in_K(v, mode)) for i, v in distinct.items()}
    level_reads = set(zip(*([judged[id(v)] for v in vs] for vs in norms.values())))
    level_in_F = [_tri_and(F for F, _ in level) for level in level_reads]
    level_in_K = [_tri_and(K for _, K in level) for level in level_reads]
    # a single level reads the same under either quantifier
    if family.direction is Direction.DECREASING:
        in_F, in_K = _tri_or(level_in_F), _tri_and(level_in_K)
    else:
        in_F, in_K = _tri_and(level_in_F), _tri_or(level_in_K)

    if in_F is True and in_K is True:
        verdict = "negligible"
    elif in_F is True and in_K is False:
        on_ball = mode is Mode.UNIT_BALL and any(v.on(0.0) for v in distinct.values())
        verdict = "boundary" if on_ball else "moderate"
    elif in_F is False:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return ClassificationReport(
        verdict=verdict,
        in_moderate=in_F,
        in_negligible=_tri_and([in_F, in_K]),
        mode=mode,
        family=family.name,
        m_probed=tuple(levels),
        channel_norms=channel_norms,
    )


# ---------------------------------------------------------------------------
# pseudometric and ideal absorption


def pseudometric(
    f: SeqRep,
    g: SeqRep,
    r: WeightSeq,
    difference: SeqRep | None = None,
) -> UltranormValue:
    """Ultranorm distance between two sequences.

    Symbolic representations carry no sign information, so the caller must
    supply |f - g| explicitly unless one side is zero or truncated or both
    are equal.  Other pairs are differenced pointwise.
    """
    return ultranorm(_distance(f, g) if difference is None else difference, r)


@dataclass(frozen=True)
class IdealCheckResult:
    holds: bool | None
    vacuous: bool
    notes: str


def ideal_check(
    k: SeqRep,
    f: SeqRep,
    product: SeqRep,
    family: WeightFamily,
    mode: Mode | None = None,
) -> IdealCheckResult:
    """Verify the absorption law: negligible k times moderate f stays negligible.

    The product representation is supplied by the caller (symbolic inputs
    multiply exactly; sampled ones multiply pointwise).  If the premise
    fails, the check passes vacuously and says so.
    """
    ck = classify(k, family, mode)
    cf = classify(f, family, mode)
    if ck.verdict != "negligible" or cf.in_moderate is not True:
        return IdealCheckResult(
            holds=True,
            vacuous=True,
            notes=f"premise not met (k: {ck.verdict}, f moderate: {cf.in_moderate})",
        )
    cp = classify(product, family, mode)
    if cp.verdict == "negligible":
        return IdealCheckResult(holds=True, vacuous=False, notes="product is negligible")
    if cp.conclusive:
        return IdealCheckResult(
            holds=False, vacuous=False, notes=f"product verdict: {cp.verdict}"
        )
    return IdealCheckResult(holds=None, vacuous=False, notes="product classification inconclusive")


# ---------------------------------------------------------------------------
# number spaces


@dataclass(frozen=True)
class NumberSpace:
    """A quotient-space description: weight family plus membership mode."""

    family: WeightFamily
    mode: Mode
    m_max: int = 16

    @property
    def name(self) -> str:
        return f"{self.family.name}[{self.mode.value}]"

    def classify(self, bundle) -> ClassificationReport:
        return classify(bundle, self.family, self.mode, self.m_max)

    def weights(self) -> list[WeightSeq]:
        """The weight of each level `classify` probes."""
        return [self.family.member(m) for m in _levels(self.family, self.m_max)]

    def single_weight(self) -> WeightSeq:
        if not self.family.single:
            raise ValueError(
                "threshold comparisons need a single-weight space; indexed families "
                "have no distinguished scale"
            )
        return self.family.member(self.family.m_start)


# one shared instance each: a NumberSpace is frozen, and its family's
# caches only memoise pure values


@cache
def colombeau_space() -> NumberSpace:
    return NumberSpace(family=catalog("colombeau"), mode=Mode.STANDARD)


@cache
def infra_space() -> NumberSpace:
    return NumberSpace(family=catalog("infra"), mode=Mode.UNIT_BALL)
