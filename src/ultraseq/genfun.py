"""Smooth-function sequences: seminorms, mollifiers, pairings, association.

There is one type, `SmoothSeq`.  A single smooth function f is the
sequence f_n = f that does not depend on n; point masses enter as the
mollifier sequences n * phi(n x).  Everything is 1-D.

A sequence is evaluated through its jet: jet(n, xs, k) is the
(k+1,) + xs.shape array of the analytic derivatives of orders 0..k of f_n
at xs.  Combinators compose jets (Leibniz sums for products, a recurrence
for exp), so every order comes from one evaluation of each operand; grid
differentiation would lose too much precision, and central differences
serve only as a cross-check in the tests.

Seminorm values are grid suprema over the lattice spacing
min(2^-10, 1/(8n)), clipped to the function's support, so the peak of an
n-scaled mollifier stays resolved at every index.  A grid supremum is a
lower bound for the true supremum; the scaling laws the classification
relies on are preserved because the peak region is always sampled.  The
lattice depends on nu only through its radius max(nu, 2), and one walk
yields the suprema of every order 0..nu at every index it is given: its
jet and majorant calls take an index array, one index per point or cell,
and at most a fixed number of points or cells each, so the lattices of
all the sample indices cost a few calls, not a few per index.  Callers
read the seminorms through a table that walks each (sequence, n, radius)
lattice once, all the indices of one read in one walk.

A sequence may also carry a majorant: upper bounds on |f_n^(j)| over
whole cells of the lattice, an interval enclosure of the jet.  The leaves
bound their own formulas; each combinator has one rule, monotone in the
magnitudes of its operands, that makes its jet from the operand jets and
its majorant from the operand majorants.  Every lattice is then walked by
branch and bound, coarse to fine: each pass probes the jet at one point
of each cell, bounds the cells, drops those whose bound cannot reach the
running supremum of any order, and cuts the others finer; the points of
the cells left after the finest pass are walked.  The suprema are the
same floats as a full walk's.

Pairings, mollifier masses and moments are adaptive composite
Gauss-Legendre integrals over the clipped support, from four panels,
each with a 16- and a 32-node rule; their gap is the panel's error
estimate, and a panel whose gap exceeds its share of the tolerance is
halved.  The integrand is vectorized and called once per refinement
level.  The pairings of several indices, and a profile's moments, run in
lockstep: a jet takes an array of indices, one per point, so each level
evaluates every index at once, and each integral is the same float as alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss

from ultraseq import gennum, growth
from ultraseq.gennum import AssocKind, AssocVerdict, NotModerate
from ultraseq.spaces import (
    ClassificationReport,
    NumberSpace,
    SeqRep,
    colombeau_space,
)

__all__ = [
    "SmoothSeq",
    "SeminormSpec",
    "Mollifier",
    "TestFunction",
    "QuadratureError",
    "bump",
    "poly_fn",
    "sin_fn",
    "const_fn",
    "constant_seq",
    "mollified",
    "reindex",
    "seq_scale",
    "add_seq",
    "sub_seq",
    "product_seq",
    "square_seq",
    "exp_seq",
    "derivative_seq",
    "seminorm",
    "classify_fun",
    "standard_mollifier",
    "corrected_mollifier",
    "make_mollifier",
    "moment_class",
    "pairing",
    "weak_assoc_fun",
    "default_test_set",
    "FunctionSpace",
    "FunctionElement",
    "make_element",
    "DEFAULT_SAMPLE_NS",
]

DEFAULT_SAMPLE_NS = tuple(2 ** k for k in range(4, 15))
_PAIRING_NS = tuple(2 ** k for k in range(4, 11))


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# smooth sequences with analytic derivative jets


def _n_dependent(seq: SmoothSeq) -> ValueError:
    return ValueError(f"{seq.label} depends on n: evaluate it with .at(n, xs) and support_fn(n)")


@dataclass(frozen=True)
class SmoothSeq:
    """A sequence of smooth functions f_n given by a vectorized jet
    jet(n, xs, k): the derivatives of orders 0..k of f_n at the points xs,
    with per-index support information.

    The jet contract: xs is a float array of any shape (0-d included), and
    the result is a freshly allocated array of shape (k+1,) + xs.shape that
    the caller owns and may overwrite; combinators and the lattice walk
    work in place on it.  The sign of a zero in the result is not
    significant.  The index n is an int, or an integer array shaped like
    xs that gives each point its own index, so that one call can serve
    several members of the sequence (a lockstep pairing does this); each
    point's value is the same float as at its index alone.  A sequence
    built here from leaves and combinators takes index arrays
    (`index_arrays`); a jet written for one int index at a time is only
    ever called with one, and `at` then calls it once per distinct index.

    The optional majorant(n, a, b, k) bounds the jet on cells: for 1-D
    float arrays a <= b of cell endpoints it returns a freshly allocated
    (k+1, len(a)) array whose entry [j, i] is at least |jet(n, xs, k)[j]| at
    every x in [a[i], b[i]], up to a relative rounding error far below
    1e-6.  As for the jet, n is an int, or, when the jet takes index
    arrays, an integer array like a that gives each cell its own index
    (a lattice walk bounds the cells of all its indices in one call); a
    sequence whose jet takes one int index gets one call per index.  An
    entry of 0 is exact: the jet is zero on that cell.  A nan or inf entry
    claims nothing.  The leaf constructors here bound their own
    formulas; a combinator applies its one rule to its operands'
    majorants, as to their jets, and has a majorant exactly when every
    operand has one.  A sequence without one is walked in full.

    A single smooth function is a sequence that does not depend on n
    (`n_free`).  Constructors record that fact and combinators propagate
    it; only such sequences can be called without an index or asked for
    their `support`.

    `const_rows` holds the orders j whose jet row is, at every int index,
    one float at every point (a constant, or a polynomial's derivative of
    its degree and above).  Constructors record it and combinators derive
    it; it is never more than that, so a user jet has none.

    Every sequence has a structural `key`: the constructor and its
    parameters, and the keys of the operands; equal keys give equal jets.
    A sequence built directly from a user jet is keyed by the identity of
    that jet, and so is a callable scale.  One root jet call (a call from
    outside the tree, such as `at` or a lattice walk) evaluates each
    subtree that occurs more than once at the same index, order and
    points only once: it keeps the jet in a table that lives for that call
    and hands every consumer its own copy.  The same call derives the runs
    of an index array once for every node that reads the index.
    """

    label: str
    jet: Callable[[int, np.ndarray, int], np.ndarray]
    max_order: int
    support_fn: Callable[[int], tuple[float, float] | None] = field(default=lambda n: None)
    majorant: Callable[[int, np.ndarray, np.ndarray, int], np.ndarray] | None = None
    n_free: bool = field(default=False, init=False)
    index_arrays: bool = field(default=False, init=False)
    const_rows: frozenset[int] = field(default=frozenset(), init=False, repr=False, compare=False)
    key: Hashable = field(default=None, init=False, repr=False, compare=False)
    _tree: _Tree | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a user jet, until a constructor here says what it computes
        object.__setattr__(self, "key", ("jet", id(self.jet)))

    def at(self, n: int | np.ndarray | _Indices, xs, order: int = 0) -> np.ndarray:
        if order > self.max_order:
            raise ValueError(f"{self.label}: derivative order {order} > {self.max_order}")
        xs = np.asarray(xs, dtype=float)
        if isinstance(n, _Indices) and not self.index_arrays:
            n = n.points  # the runs a lockstep pairing hands over serve index arrays only
        if self.index_arrays or not isinstance(n, np.ndarray):
            return self.jet(n, xs, order)[order]
        return _per_index(self.jet, n, order, xs)[order]

    def __call__(self, xs, order: int = 0) -> np.ndarray:
        # calls the jet directly: this is the innermost call of every
        # quadrature integrand, so it must not add a frame through `at`
        if not self.n_free:
            raise _n_dependent(self)
        if order > self.max_order:
            raise ValueError(f"{self.label}: derivative order {order} > {self.max_order}")
        return self.jet(1, np.asarray(xs, dtype=float), order)[order]

    @property
    def support(self) -> tuple[float, float] | None:
        if not self.n_free:
            raise _n_dependent(self)
        return self.support_fn(1)


def _per_index(fn: Callable[..., np.ndarray], n: np.ndarray, k: int, *arrays: np.ndarray) -> np.ndarray:
    """fn(n, *arrays, k) for the jet or the majorant of a sequence whose
    jet takes one int index: one call per distinct index of the index
    array n, on the entries of the arrays at that index."""
    out = np.empty((k + 1,) + n.shape)
    for m in np.unique(n):
        sel = n == m
        out[:, sel] = fn(int(m), *(a[sel] for a in arrays), k)
    return out


def _derived(
    seq: SmoothSeq,
    n_free: bool,
    index_arrays: bool,
    key: Hashable = None,
    tree: _Tree | None = None,
    const_rows: frozenset[int] = frozenset(),
) -> SmoothSeq:
    """Record whether `seq` does not depend on n, whether its jet takes
    index arrays, its constant rows and, for a constructor here, its key
    and its tree."""
    # frozen, and deliberately not init fields
    object.__setattr__(seq, "n_free", n_free)
    object.__setattr__(seq, "index_arrays", index_arrays)
    object.__setattr__(seq, "const_rows", const_rows)
    if key is not None:
        object.__setattr__(seq, "key", key)
    object.__setattr__(seq, "_tree", tree)
    return seq


def _function(
    label: str, jet, max_order: int, support=None, majorant=None, key: Hashable = None, const_rows=frozenset()
) -> SmoothSeq:
    """A single smooth function: its jet(n, xs, k) and majorant ignore n.
    Without a key it is keyed by the identity of its jet."""
    return _derived(
        SmoothSeq(label=label, jet=jet, max_order=max_order, support_fn=lambda n: support, majorant=majorant),
        n_free=True,
        index_arrays=True,
        key=key,
        const_rows=const_rows,
    )


_BUMP_MAX_ORDER = 8
_BUMP_GUARD = 0.005  # below this 1-u^2 the value is under e^-87 and flushed to 0


def _horner(rows: Sequence[np.ndarray], x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[j] = the polynomial with coefficients rows[j] (lowest first,
    trailing zeros trimmed) at x, by Horner from the row's own leading
    coefficient.  Each step is the multiply and the add that `polyval` makes
    on the zero-padded matrix, whose leading zeros only add exact zeros."""
    for j, c in enumerate(rows):
        acc = out[j, ...]
        acc[...] = c[-1] if len(c) else 0.0
        for a in c[-2::-1]:
            acc *= x
            acc += a
    return out


def _horner_bound(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """out[j] >= |p_j(u)| for u in [lo, hi], p_j the polynomial with
    coefficients coeffs[j] (lowest first): |p_j| at the middle of the cell
    plus its half-width times sum_i i |c_i| max|u|^(i-1), widened by the
    rounding error bound of Horner's rule in floats.

    Each row starts at its own leading coefficient: the rows, by falling
    degree, that a step reaches are a leading block.  On a row's leading
    zeros the full-width loop adds only exact zeros, so each bound is the
    same float."""
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    top = np.maximum(np.abs(lo), np.abs(hi))
    degree = np.array([len(_trim(c)) for c in coeffs]) - 1  # -1: a zero row
    order = np.argsort(-degree, kind="stable")
    rows, degrees = coeffs[order], degree[order].tolist()
    sizes = np.abs(rows)
    val, mag, slope = (np.zeros((len(coeffs),) + lo.shape) for _ in range(3))
    reached = 0
    for i in range(max(degrees, default=-1), -1, -1):
        while reached < len(degrees) and degrees[reached] >= i:
            reached += 1
        s, v, m = slope[:reached], val[:reached], mag[:reached]
        s *= top
        s += m
        v *= mid
        v += rows[:reached, i, None]
        m *= top
        m += sizes[:reached, i, None]
    out = np.empty_like(val)
    # an all-zero row stays an exact 0
    out[order] = np.abs(val) + rad * slope + 6 * coeffs.shape[1] * np.finfo(float).eps * mag
    return out


def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing (leading-power) zero coefficients."""
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:0]


@lru_cache(maxsize=1)
def _bump_coeffs() -> np.ndarray:
    # exp(-1/(1-u^2)) has k-th derivative E(u) * P_k(u) / (1-u^2)^(2k) with
    # P_{k+1} = P_k' Q^2 + u (4k Q - 2) P_k, Q = 1 - u^2; row k holds the
    # coefficients of P_k, whose degree is at most 3k
    q = Polynomial([1.0, 0.0, -1.0])
    u = Polynomial([0.0, 1.0])
    p = Polynomial([1.0])
    rows = np.zeros((_BUMP_MAX_ORDER + 1, 3 * _BUMP_MAX_ORDER + 1))
    for k in range(_BUMP_MAX_ORDER + 1):
        rows[k, : len(p.coef)] = p.coef
        p = p.deriv() * q * q + u * (4.0 * k * q - 2.0) * p
    return rows


@lru_cache(maxsize=1)
def _bump_rows() -> tuple[np.ndarray, ...]:
    return tuple(_trim(row) for row in _bump_coeffs())


def bump(center: float = 0.0, width: float = 1.0, amplitude: float = 1.0) -> SmoothSeq:
    """The compactly supported bump amplitude * exp(-1/(1 - u^2)), u = (x-c)/w."""
    if width <= 0:
        raise ValueError("width must be positive")
    center, width, amplitude = float(center), float(width), float(amplitude)

    def jet(n: int, xs: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros((k + 1,) + xs.shape)
        flat = out.reshape(k + 1, -1)
        us = ((xs - center) / width).ravel()
        q = 1.0 - us * us
        safe = q > _BUMP_GUARD
        count = np.count_nonzero(safe)
        if not count:
            return out
        # {q > guard} is an interval in u: one slice of a sorted lattice,
        # written in place; other point sets go through integer indices
        first = int(safe.argmax())
        contiguous = bool(safe[first : first + count].all())
        sel = slice(first, first + count) if contiguous else np.flatnonzero(safe)
        block = flat[:, sel] if contiguous else np.empty((k + 1, count))
        qs = q[sel]
        e = np.exp(-1.0 / qs)
        _horner(_bump_rows()[: k + 1], us[sel], block)
        for j, row in enumerate(block):
            row *= e
            if j:
                row /= qs ** (2 * j)
            scale = amplitude * width ** (-j)
            if scale != 1.0:
                row *= scale
        if not contiguous:
            flat[:, sel] = block
        return out

    def majorant(n: int, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        # the jet's own float steps give the extreme q it computes on the
        # cell; exp(-1/q) grows with q, 1/q^(2j) shrinks with q, and the jet
        # flushes q <= guard to an exact 0
        ua, ub = (a - center) / width, (b - center) / width
        qa, qb = 1.0 - ua * ua, 1.0 - ub * ub
        q_hi = np.where((ua <= 0.0) & (ub >= 0.0), 1.0, np.maximum(qa, qb))
        q_lo = np.maximum(np.minimum(qa, qb), _BUMP_GUARD)
        safe = q_hi > _BUMP_GUARD
        out = _horner_bound(_bump_coeffs()[: k + 1, : 3 * k + 1], ua, ub)
        e = np.exp(-1.0 / np.where(safe, q_hi, 1.0))
        for j, row in enumerate(out):
            row *= e
            if j:
                row /= q_lo ** (2 * j)
            row *= abs(amplitude * width ** (-j))
        out[:, ~safe] = 0.0
        return out

    return _function(
        f"bump({center:g},{width:g})",
        jet,
        _BUMP_MAX_ORDER,
        (center - width, center + width),
        majorant,
        ("bump", center, width, amplitude),
    )


def poly_fn(coeffs: Sequence[float], label: str | None = None) -> SmoothSeq:
    # row j: the coefficients of the j-th derivative, each the derivative of
    # the row before by the step `polyder` takes, i * c[i]
    d = np.asarray(coeffs, dtype=float)
    matrix = np.zeros((65, len(d)))
    for row in matrix:
        row[: len(d)] = d
        d = d[1:] * np.arange(1.0, len(d))
    derivs = [_trim(row) for row in matrix]

    def jet(n: int, xs: np.ndarray, k: int) -> np.ndarray:
        return _horner(derivs[: k + 1], xs, np.empty((k + 1,) + xs.shape))

    return _function(
        label or f"poly{tuple(round(c, 6) for c in coeffs)}",
        jet,
        64,
        majorant=lambda n, a, b, k: _horner_bound(matrix[: k + 1], a, b),
        key=("poly", tuple(matrix[0].tolist())),
        const_rows=frozenset(j for j, row in enumerate(derivs) if len(row) <= 1),
    )


def sin_fn(freq: float = 1.0) -> SmoothSeq:
    freq = float(freq)

    def jet(n: int, xs: np.ndarray, k: int) -> np.ndarray:
        # the derivatives cycle through freq^j * (sin, cos, -sin, -cos): rows
        # 0 and 1 hold sin and cos, and are scaled last
        out = np.empty((k + 1,) + xs.shape)
        fx = freq * xs
        np.sin(fx, out=out[0, ...])
        if k:
            np.cos(fx, out=out[1, ...])
        for j in range(k, 0, -1):
            np.multiply(out[j % 2, ...], (-1) ** (j // 2) * freq ** j, out=out[j, ...])
        return out

    def majorant(n: int, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        # the exact range of |sin| and |cos| on the cell: 1 where a peak
        # (m + 1/2) pi, resp. m pi, lies in it, else the larger end value
        fa, fb = freq * a, freq * b
        lo, hi = np.minimum(fa, fb), np.maximum(fa, fb)
        out = np.empty((k + 1,) + a.shape)
        for j, wave, shift in ((0, np.sin, 0.5), (1, np.cos, 0.0))[: k + 1]:
            peak = np.floor(hi / np.pi - shift) >= lo / np.pi - shift
            out[j] = np.where(peak, 1.0, np.maximum(np.abs(wave(lo)), np.abs(wave(hi))))
        for j in range(k, 0, -1):
            np.multiply(out[j % 2], abs((-1) ** (j // 2) * freq ** j), out=out[j])
        return out

    return _function(f"sin({freq:g}x)", jet, 64, majorant=majorant, key=("sin", freq))


def const_fn(c: float) -> SmoothSeq:
    c = float(c)

    def jet(n: int, xs: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros((k + 1,) + xs.shape)
        out[0] = c
        return out

    # the zero function carries an empty support so that sums with it keep
    # their support interval (adaptive quadrature needs the clipping)
    return _function(
        f"const({c:g})",
        jet,
        64,
        (0.0, 0.0) if c == 0 else None,
        lambda n, a, b, k: np.abs(jet(n, a, k)),
        ("const", c),
        frozenset(range(65)),
    )


def _hull(a, b):
    if a is None or b is None:
        return None
    return (min(a[0], b[0]), max(a[1], b[1]))


def _meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (max(a[0], b[0]), min(a[1], b[1]))


@dataclass(frozen=True)
class TestFunction:
    """A compactly supported smooth probe for duality pairings."""

    fn: SmoothSeq

    def __post_init__(self):
        if self.fn.support is None:
            raise ValueError("test functions must have compact support")

    @property
    def support(self) -> tuple[float, float]:
        return self.fn.support

    def __call__(self, xs, order: int = 0) -> np.ndarray:
        return self.fn(xs, order)

    @property
    def label(self) -> str:
        return self.fn.label


def default_test_set() -> tuple[TestFunction, ...]:
    """Five translated and scaled bumps, all containing the origin."""
    params = [(0.0, 1.0), (0.3, 0.7), (-0.4, 0.8), (0.15, 0.5), (0.0, 1.6)]
    return tuple(TestFunction(bump(c, w)) for c, w in params)


# ---------------------------------------------------------------------------
# sequence algebra on jets


def _same(n: int, k: int) -> tuple[int, int, None]:
    return n, k, None


class _Tree(NamedTuple):
    """What `_node` derives once for a combinator's sequence."""

    # evaluate(n, xs, k, shared): the jet inside a root call whose table of
    # repeated subtrees is `shared` (None: the tree repeats none)
    evaluate: Callable[..., np.ndarray]
    # (context, key, size) of the tree and of each subtree in evaluation
    # order, size counting the subtree's own entries; the context lists the
    # ancestors that move the index, the order or the points, so equal
    # entries are equal work in one root call
    occurrences: tuple[tuple[tuple, Hashable, int], ...]
    # the operands, as the combinator was given them
    operands: tuple[SmoothSeq, ...]


def _occurrences(f: SmoothSeq) -> tuple[tuple[tuple, Hashable, int], ...]:
    return f._tree.occurrences if f._tree is not None else (((), f.key, 1),)


def _shared_steps(occurrences: tuple[tuple[tuple, Hashable, int], ...]) -> tuple[int | None, ...] | None:
    """For each subtree a root jet call visits, in order, its slot in the
    call's table (None: evaluated in place); None when no subtree occurs
    twice.  A visit to a subtree seen before reads the table and skips
    the subtree's own subtrees."""
    visits, i = [], 1  # the root is visited by the call itself
    while i < len(occurrences):
        context, key, size = occurrences[i]
        i += size if (context, key) in visits else 1
        visits.append((context, key))
    counts = Counter(visits)
    if len(counts) == len(visits):
        return None
    slots: dict[tuple, int] = {}
    return tuple(slots.setdefault(v, len(slots)) if counts[v] > 1 else None for v in visits)


class _Shared:
    """The table of one root jet call: the jet of each repeated subtree,
    from its first visit; every visit gets its own copy, since
    combinators work in place."""

    __slots__ = ("steps", "visit", "table")

    def __init__(self, steps: tuple[int | None, ...]):
        self.steps, self.visit, self.table = steps, 0, {}

    def jet(self, f: SmoothSeq, n, xs: np.ndarray, k: int) -> np.ndarray:
        slot = self.steps[self.visit]
        self.visit += 1
        if slot is None:
            return self._evaluate(f, n, xs, k)
        if slot not in self.table:
            self.table[slot] = self._evaluate(f, n, xs, k)
        return self.table[slot].copy()

    def _evaluate(self, f: SmoothSeq, n, xs: np.ndarray, k: int) -> np.ndarray:
        return f.jet(n, xs, k) if f._tree is None else f._tree.evaluate(n, xs, k, self)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the 1-D array a starts."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))[: a.size]


class _Indices:
    """An index array inside one root jet or majorant call, one index per
    point (or cell), with its runs of equal indices: the sorted distinct
    indices, the position among them of each run's index, and the run
    lengths, in the order of the flattened points.

    A lockstep pairing and a lattice walk hand over the runs they lay out:
    the pairing one run per interval, and the walk one per index with
    every index of the walk as the distinct ones, so they are the same in
    each call of one walk.  Other runs are derived once, when a node first
    reads them, and the distinct indices are found among the runs' first
    entries, without sorting every point."""

    __slots__ = ("points", "_runs")

    def __init__(self, points: np.ndarray, runs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        self.points, self._runs = points, runs

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._runs is None:
            flat = self.points.ravel()
            starts = _run_starts(flat)
            distinct = np.unique(flat[starts])
            lengths = np.append(starts[1:], flat.size) - starts
            self._runs = distinct, np.searchsorted(distinct, flat[starts]), lengths
        return self._runs

    def scaled(self, factor: int) -> _Indices:
        """The indices times factor, with the same runs."""
        runs = None if self._runs is None else (factor * self._runs[0],) + self._runs[1:]
        return _Indices(factor * self.points, runs)

    def spread(self, values_of: Callable[[np.ndarray], Sequence]) -> np.ndarray:
        """The entry of values_of(distinct indices) at each point's index:
        values_of is called once, on the sorted distinct indices, and its
        first axis runs over them."""
        distinct, where, lengths = self.runs()
        values = np.asarray(values_of(distinct))
        return np.repeat(values[where], lengths, axis=0).reshape(self.points.shape + values.shape[1:])


def _node(
    label: str,
    op: Hashable,
    rule,
    operands: tuple[SmoothSeq, ...],
    at=_same,
    *,
    n_free=None,
    max_order=None,
    support_fn=None,
    const_rows: frozenset[int] = frozenset(),
) -> SmoothSeq:
    """A combinator's sequence.  With (index, order, stretch) = at(n, k),
    rule(n, k, bound, *arrays) makes the orders 0..k from the operands'
    orders 0..order at index `index`, read at the points times `stretch`
    (None: at the points themselves).  The jet applies the rule to the
    operand jets, and the majorant, with bound=True, to the operand
    majorants on the stretched cells.  Unless the arguments say otherwise,
    the node has a majorant when every operand has one, is n-free when
    every operand is, reaches the smallest operand order and has the first
    operand's support.  Its jet and majorant take index arrays when every
    operand's jet does; `at` and a rule that reads n take an int or an
    `_Indices`.  It has the constant rows the combinator derives, none
    unless given.

    `op` names the rule and its parameters: with the operands' keys it
    makes the node's key."""
    key = (op,) + tuple(f.key for f in operands)
    context = () if at is _same else (op,)
    inner = tuple((context + c, k, size) for f in operands for c, k, size in _occurrences(f))
    occurrences = (((), key, len(inner) + 1),) + inner
    steps = _shared_steps(occurrences)

    def evaluate(n, xs: np.ndarray, k: int, shared: _Shared | None) -> np.ndarray:
        index, order, stretch = at(n, k)
        if stretch is not None:
            xs = stretch * xs
        arrays = []  # a loop, not a comprehension: no function object per call
        for f in operands:
            arrays.append(f.jet(index, xs, order) if shared is None else shared.jet(f, index, xs, order))
        return rule(n, k, False, *arrays)

    def jet(n, xs: np.ndarray, k: int) -> np.ndarray:
        # a root call, or an inner one of a tree that repeats no subtree;
        # a lattice walk gives a root call its `_Indices`
        if isinstance(n, np.ndarray):
            n = _Indices(n)
        return evaluate(n, xs, k, None if steps is None else _Shared(steps))

    def majorant(n, lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
        if isinstance(n, np.ndarray):
            n = _Indices(n)
        index, order, stretch = at(n, k)
        if stretch is not None:
            lo, hi = stretch * lo, stretch * hi
        arrays = []
        for f in operands:
            arrays.append(f.majorant(index, lo, hi, order))
        return rule(n, k, True, *arrays)

    return _derived(
        SmoothSeq(
            label,
            jet,
            min(f.max_order for f in operands) if max_order is None else max_order,
            support_fn or operands[0].support_fn,
            None if any(f.majorant is None for f in operands) else majorant,
        ),
        n_free=all(f.n_free for f in operands) if n_free is None else n_free,
        index_arrays=all(f.index_arrays for f in operands),
        key=key,
        tree=_Tree(evaluate, occurrences, operands),
        const_rows=const_rows,
    )


def constant_seq(fn: SmoothSeq, label: str | None = None) -> SmoothSeq:
    """A function is already the constant sequence f_n = f: this only relabels."""
    if label is None:
        return fn
    return _node(label, ("relabel",), lambda n, k, bound, f: f, (fn,), const_rows=fn.const_rows)


def mollified(profile: SmoothSeq, power: int = 1, label: str | None = None) -> SmoothSeq:
    """The sequence n^power * profile(n x), with exact derivative scaling."""
    if profile.support is None:
        raise ValueError("mollified sequences need a compactly supported profile")
    a, b = profile.support

    def scaled(n, k: int, bound: bool, values: np.ndarray) -> np.ndarray:
        # row j of index m times m^(power+j), a float power as Python takes
        # it (numpy's power may round otherwise), once per run of equal
        # indices of an index array
        def powers(ms) -> np.ndarray:
            return np.array([[float(m) ** (power + j) for m in ms] for j in range(k + 1)])

        if not isinstance(n, _Indices):
            values *= powers([n]).reshape((-1,) + (1,) * (values.ndim - 1))
            return values
        distinct, where, lengths = n.runs()
        flat = values.reshape(k + 1, -1)
        flat *= np.repeat(powers(distinct.tolist())[:, where], lengths, axis=1)
        return flat.reshape(values.shape)

    return _node(
        label or f"n^{power}*{profile.label}(n x)",
        ("mollified", power),
        scaled,
        (profile,),
        lambda n, k: (1, k, n.points if isinstance(n, _Indices) else n),
        n_free=False,
        support_fn=lambda n: (a / n, b / n),
    )


def reindex(seq: SmoothSeq, factor: int, label: str | None = None) -> SmoothSeq:
    if factor < 1:
        raise ValueError(f"reindex factor must be a positive integer, not {factor}")
    return _node(
        label or f"{seq.label} at {factor}n",
        ("reindex", factor),
        lambda n, k, bound, f: f,
        (seq,),
        lambda n, k: (n.scaled(factor) if isinstance(n, _Indices) else factor * n, k, None),
        support_fn=lambda n: seq.support_fn(factor * n),
        const_rows=seq.const_rows,
    )


def _spread_memo(values_of: Callable[[np.ndarray], Sequence]) -> Callable[[_Indices], np.ndarray]:
    """n.spread(values_of) with a one-entry memo on the distinct indices:
    every call of one lattice walk has the walk's indices as its distinct
    ones, so values_of runs once per walk."""
    memo = lru_cache(maxsize=1)(lambda ms: values_of(np.array(ms, dtype=np.int64)))
    return lambda n: n.spread(lambda ms: memo(tuple(ms.tolist())))


def seq_scale(scale, seq: SmoothSeq, label: str | None = None) -> SmoothSeq:
    """Multiply by an index-dependent scalar (a callable or growth expression)
    or by a constant; only a constant keeps an n-free input n-free."""
    n_free = False
    if isinstance(scale, growth.GrowthExpr):
        expr = scale
        # a lattice walk asks for the same n once per chunk
        at_index = lru_cache(maxsize=1)(lambda n: float(growth.eval_value(expr, max(n, expr.eval_n_min))))
        at_indices = _spread_memo(lambda ms: growth.eval_value(expr, np.maximum(ms, expr.eval_n_min)))

        def scale_fn(n):
            return at_indices(n) if isinstance(n, _Indices) else at_index(n)

        scale_label = growth.format_expr(expr)
        op = ("scale", expr)
    elif callable(scale):
        at_indices = _spread_memo(lambda ms: [scale(m) for m in ms.tolist()])

        def scale_fn(n):
            return at_indices(n) if isinstance(n, _Indices) else scale(n)

        scale_label = "c_n"
        op = ("scale", "callable", id(scale))  # the node holds the scale, so the id stays its own
    else:
        c = float(scale)
        scale_fn = lambda n: c
        scale_label = f"{c:g}"
        op = ("scale", c)
        n_free = None  # that of seq

    def scaled(n, k: int, bound: bool, base: np.ndarray) -> np.ndarray:
        # one scalar, or one per point of an index array
        c = abs(scale_fn(n)) if bound else scale_fn(n)
        if not np.isfinite(c).all():
            # an overflowed scalar must still annihilate zeros of the base
            with np.errstate(invalid="ignore"):
                return np.where(base == 0.0, 0.0, c * base)
        base *= c
        return base

    # one scalar at an int index keeps a constant row constant
    return _node(
        label or f"{scale_label} * {seq.label}", op, scaled, (seq,), n_free=n_free, const_rows=seq.const_rows
    )


def _sum(n: int, k: int, bound: bool, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    fa += fb
    return fa


def add_seq(a: SmoothSeq, b: SmoothSeq, label: str | None = None) -> SmoothSeq:
    return _node(
        label or f"{a.label} + {b.label}",
        ("add",),
        _sum,
        (a, b),
        support_fn=lambda n: _hull(a.support_fn(n), b.support_fn(n)),
        const_rows=a.const_rows & b.const_rows,
    )


def sub_seq(a: SmoothSeq, b: SmoothSeq, label: str | None = None) -> SmoothSeq:
    return add_seq(a, seq_scale(-1.0, b, label=f"-({b.label})"), label=label or f"{a.label} - {b.label}")


def _leibniz(n: int, k: int, bound: bool, fa: np.ndarray, fb: np.ndarray | None = None) -> np.ndarray:
    """Rows 0..k of the product's jet from the factors' jets (fb omitted:
    the square of fa)."""
    fb = fa if fb is None else fb
    out = np.empty_like(fa)
    term = np.empty_like(fa[0, ...])
    for j in range(k + 1):
        row = out[j, ...]
        np.multiply(fa[0, ...], fb[j, ...], out=row)
        for i in range(1, j + 1):
            # (C(j, i) * fa[i]) * fb[j-i], the factor skipped where it is 1
            c = math.comb(j, i)
            if c == 1:
                np.multiply(fa[i, ...], fb[j - i, ...], out=term)
            else:
                np.multiply(fa[i, ...], c, out=term)
                term *= fb[j - i, ...]
            row += term
    return out


def product_seq(a: SmoothSeq, b: SmoothSeq, label: str | None = None) -> SmoothSeq:
    """f_n * g_n, each jet order the Leibniz sum over the factors' jets; a
    square evaluates its factor once."""
    # row j is constant when every term C(j, i) a^(i) b^(j-i) multiplies
    # two constant rows: when rows 0..j of both factors are
    both = a.const_rows & b.const_rows
    prefix = next(j for j in range(len(both) + 1) if j not in both)
    return _node(
        label or f"({a.label})*({b.label})",
        ("product",),
        _leibniz,
        (a,) if b is a else (a, b),
        support_fn=lambda n: _meet(a.support_fn(n), b.support_fn(n)),
        const_rows=frozenset(range(prefix)),
    )


def square_seq(a: SmoothSeq, label: str | None = None) -> SmoothSeq:
    return product_seq(a, a, label=label or f"({a.label})^2")


def _exp_recurrence(n: int, k: int, bound: bool, fa: np.ndarray) -> np.ndarray:
    out = np.empty_like(fa)
    out[0] = np.exp(fa[0])
    for j in range(1, k + 1):
        out[j] = sum(math.comb(j - 1, i) * fa[i + 1] * out[j - 1 - i] for i in range(j))
    return out


def exp_seq(a: SmoothSeq, label: str | None = None) -> SmoothSeq:
    """exp(f_n), its jet by e^(j) = sum_{i<j} C(j-1, i) f^(i+1) e^(j-1-i).

    The result is 1 wherever f vanishes, so it never has compact support.
    The same recurrence on a majorant of f gives one of exp(f), since
    exp(f) <= exp(|f|).
    """
    return _node(label or f"exp({a.label})", ("exp",), _exp_recurrence, (a,), support_fn=lambda n: None)


def derivative_seq(a: SmoothSeq, shift: int = 1, label: str | None = None) -> SmoothSeq:
    if shift < 0:
        raise ValueError(f"derivative shift must be non-negative, not {shift}")
    if shift > a.max_order:
        raise ValueError("derivative shift exceeds the supported order")
    return _node(
        label or f"D^{shift} {a.label}",
        ("derivative", shift),
        lambda n, k, bound, values: values[shift:],
        (a,),
        lambda n, k: (n, k + shift, None),
        max_order=a.max_order - shift,
        const_rows=frozenset(j - shift for j in a.const_rows if j >= shift),
    )


# ---------------------------------------------------------------------------
# seminorms


@dataclass(frozen=True)
class SeminormSpec:
    """Derivative order bound plus the evaluation lattice.

    The sup domain has radius max(nu, 2): the nominal radius nu would make
    the order-zero seminorm degenerate (an empty interval), so the extent
    is widened to always cover a unit neighborhood of the origin while
    still covering [-nu, nu].
    """

    nu: int

    def lattice(self, n: int, support_width: float | None = None) -> tuple[float, float]:
        h = min(2.0 ** -10, 1.0 / (8.0 * n))
        # a compact support always gets >= 256 lattice points, so the scaled
        # grid of an n-dilated profile is the same at every index and grid
        # suprema of high derivatives track the true scaling exactly
        if support_width is not None and support_width > 0:
            h = min(h, support_width / 256.0)
        return h, float(max(self.nu, 2))


_MAX_GRID = 4_000_000
_CHUNK = 2 ** 14  # lattice points, or cells, per jet or majorant call of a lattice walk
_CELLS = (1024, 64)  # lattice points per cell in the pruning passes of a walk, coarse to fine
_PAD = 1.0 + 1e-6  # relative slack on a cell bound for the rounding of the jet
_TINY = np.finfo(float).tiny  # absolute slack, for rounding among subnormals
_SLACK = 1e-9  # slack of a centered bound, relative to the majorant


def _grid_count(lo: float, hi: float, h: float) -> int:
    """The number of points of `_grid(lo, hi, h)` when hi >= lo."""
    return max(min(int((hi - lo) / h) + 1, _MAX_GRID), 2)


def _grid(lo: float, hi: float, h: float) -> np.ndarray:
    if hi < lo:
        return np.asarray([])
    return np.linspace(lo, hi, _grid_count(lo, hi, h))


def _grid_at(lo, step, hi, last, idx: np.ndarray) -> np.ndarray:
    """The points idx of the grid of last + 1 points on [lo, hi], whose
    step is (hi - lo) / last: the same floats as np.linspace(lo, hi,
    last + 1)[idx], since linspace takes i * step + lo and puts hi last.
    The grid's parameters may be arrays like idx, a grid for each point."""
    xs = idx * step
    xs += lo
    end = np.flatnonzero(idx == last)
    xs[end] = hi[end] if np.ndim(hi) else hi
    return xs


def _cut(start: np.ndarray, stop: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks [start, stop) cut, in order, into cells of `size` points
    from each block's start, the last one shorter: (the block of each
    cell, its start, its stop)."""
    counts = -(-(stop - start) // size)
    block = np.repeat(np.arange(len(start)), counts)
    first = start[block] + (np.arange(len(block)) - np.repeat(np.cumsum(counts) - counts, counts)) * size
    return block, first, np.minimum(first + size, stop[block])


def _lattices(f: SmoothSeq, ns: Iterable[int], nu: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ends lo and hi and the point count of the lattice of
    SeminormSpec(nu) at each index of ns, clipped to f's support; a count
    of 0 is an empty lattice."""
    spec, lattices = SeminormSpec(nu), []
    for n in ns:
        sup = f.support_fn(n)
        h, radius = spec.lattice(n, None if sup is None else sup[1] - sup[0])
        lo, hi = -radius, radius
        if sup is not None:
            lo, hi = max(lo, sup[0]), min(hi, sup[1])
        lattices.append((lo, hi, _grid_count(lo, hi, h)) if hi > lo else (0.0, 0.0, 0))
    lo, hi, count = np.array(lattices, dtype=float).reshape(-1, 3).T
    return lo, hi, count.astype(np.int64)


class _Walk:
    """One lattice walk: the lattices of a sequence f at the sorted
    distinct indices ns for the orders 0..nu, and rows[p, j], the largest
    |f_n^(j)| read so far on the lattice of n = ns[p].

    A `pos` array gives the position in ns of the index of each point or
    cell.  It is sorted, so each index is one run; `_runs` gives where
    each run starts, its position in ns and its length."""

    def __init__(self, f: SmoothSeq, ns: np.ndarray, nu: int):
        self.f, self.ns, self.nu = f, ns, nu
        self.lo, self.hi, self.count = _lattices(f, ns.tolist(), nu)
        self.step = (self.hi - self.lo) / (self.count - 1)
        self.rows = np.zeros((len(ns), nu + 1))

    @staticmethod
    def _runs(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = _run_starts(pos)
        return starts, pos[starts], np.append(starts[1:], len(pos)) - starts

    def points(self, runs, idx: np.ndarray) -> np.ndarray:
        _, where, lengths = runs
        grid = (np.repeat(a[where], lengths) for a in (self.lo, self.step, self.hi, self.count - 1))
        return _grid_at(*grid, idx)

    def call(self, fn: Callable[..., np.ndarray], runs, k: int, *arrays: np.ndarray) -> np.ndarray:
        """fn(n, *arrays, k), the jet or the majorant of f, with each entry
        of the arrays at its own index: one call, or one per distinct index
        when f's jet takes one int index.  The index array knows its runs,
        and its distinct indices are all of ns, the same in every call."""
        _, where, lengths = runs
        n = np.repeat(self.ns[where], lengths)
        if not self.f.index_arrays:
            return _per_index(fn, n, k, *arrays)
        return fn(_Indices(n, (self.ns, where, lengths)), *arrays, k)

    def fold(self, runs, vals: np.ndarray) -> None:
        """Fold |vals| into the rows, vals being the jet at entries with
        the runs; it is overwritten."""
        starts, where, _ = runs
        top = np.maximum.reduceat(np.abs(vals, out=vals), starts, axis=1)
        # nan can only come from inf arithmetic in a jet chain
        # (inf - inf, inf * 0); read it as overflow of the true value.
        # np.maximum propagates nan, so folding the run maxima is enough
        top[np.isnan(top)] = np.inf
        self.rows[where] = np.maximum(self.rows[where], top.T)

    def prune(self, pos: np.ndarray, start: np.ndarray, stop: np.ndarray, mid: np.ndarray) -> np.ndarray:
        """Which cells [start, stop) of the lattices pos may still hold a
        row maximum, from one jet call at their middle points mid, whose
        values are folded in first, and one majorant call, per `_CHUNK`
        cells."""
        f, nu = self.f, self.nu
        k = min(nu + 1, f.max_order)
        # a constant row is one float, which the middle points read
        const = [j for j in f.const_rows if j <= nu]
        keep = np.empty(len(pos), dtype=bool)
        for i in range(0, len(pos), _CHUNK):
            cells = slice(i, i + _CHUNK)
            runs = self._runs(pos[cells])
            a, b, x = (self.points(runs, idx[cells]) for idx in (start, stop - 1, mid))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                probe = np.abs(self.call(f.jet, runs, nu, x))
                bound = self.call(f.majorant, runs, k, a, b)
                zero = bound[: nu + 1] == 0.0
                if len(bound) > nu + 1:
                    # the slack term keeps a nan or inf majorant nan or inf
                    reach = np.maximum(x - a, b - x)
                    centered = probe + reach * bound[1:] + _SLACK * bound[:-1]
                    bound = np.minimum(bound[:-1], centered, out=centered)
                self.fold(runs, probe)
                _, where, lengths = runs
                skip = (bound * _PAD + _TINY < np.repeat(self.rows[where].T, lengths, axis=1)) | zero
                skip[const] = True
            keep[cells] = ~skip.all(axis=0)
        return keep

    def walk(self, pos: np.ndarray, start: np.ndarray, stop: np.ndarray, mid: np.ndarray) -> None:
        """Fold the jet over the blocks [start, stop) of the lattices pos,
        of at most `_CHUNK` points each, but the points mid the rows
        already hold (-1: none).  A full block is one jet call, and the
        shorter ones share calls in order, as many as fit in `_CHUNK`
        points, so a block is never split between two calls."""
        # a block of one probed point holds nothing more
        sizes = np.where(stop - start > (mid >= 0), stop - start, 0)
        calls = [[i] for i in np.flatnonzero(sizes == _CHUNK).tolist()]
        short = np.flatnonzero((sizes > 0) & (sizes < _CHUNK))
        ends, first = np.cumsum(sizes[short]), 0
        while first < len(short):
            last = int(np.searchsorted(ends, (ends[first - 1] if first else 0) + _CHUNK, side="right"))
            calls.append(short[first:last])
            first = last
        for blocks in calls:
            size = sizes[blocks]
            p = np.repeat(pos[blocks], size)
            idx = np.arange(len(p)) + np.repeat(start[blocks] - (np.cumsum(size) - size), size)
            new = idx != np.repeat(mid[blocks], size)
            runs = self._runs(p[new])
            with np.errstate(over="ignore", invalid="ignore"):
                self.fold(runs, self.call(self.f.jet, runs, self.nu, self.points(runs, idx[new])))


def _order_sups(f: SmoothSeq, ns: Sequence[int], nu: int) -> np.ndarray:
    """The lattice walk: row i holds sup |f_n^(j)| for j = 0..nu over the
    lattice of SeminormSpec(nu) at n = ns[i], for all the indices at once.

    Every jet or majorant call of the walk serves all the indices, with an
    index array that gives each point or cell its own n, and takes at most
    `_CHUNK` points or cells.  A sequence without a majorant has every
    lattice point walked.  With one, every lattice is pruned by branch and
    bound, coarse to fine: each pass cuts the cells left by the one before
    into cells of the next size of `_CELLS`, and one jet call at the cells'
    middle points gives a lower bound on every row.  A cell's bound on
    order j is its majorant, or the centered form |f^(j)(mid)| + reach *
    majorant_(j+1) (plus `_SLACK` of the majorant for rounding) where that
    is smaller.  The cell is dropped when, in every order, its bound padded
    by `_PAD` and `_TINY` is below the row's lower bound or its majorant is
    exactly 0; a cell with a nan or inf majorant is always kept.  A cell
    no larger than a pass's size is kept as it is, with its probe.  The
    points of the cells left after the finest pass are walked, but for
    those the probes read.  No dropped
    point can hold a row maximum, and the jet gives the same value at a
    point in any array, so each row is the same float as a full walk of
    its lattice alone.
    """
    if nu > f.max_order:
        raise ValueError(f"seminorm order {nu} exceeds max_order {f.max_order}")
    distinct, where = np.unique(np.asarray(ns, dtype=np.int64), return_inverse=True)
    walk = _Walk(f, distinct, nu)
    # the cells left, in order: [start, stop) of lattice pos, and the point
    # mid that its probe read (-1: none)
    pos = np.flatnonzero(walk.count)
    start, stop = np.zeros(len(pos), dtype=np.int64), walk.count[pos]
    mid = np.full(len(pos), -1)
    if f.majorant is None:
        # blocks of at most `_CHUNK` points for the walk
        block, start, stop = _cut(start, stop, _CHUNK)
        pos, mid = pos[block], mid[block]
    else:
        for size in _CELLS:
            # a cell no larger than the size is kept as it is, and not probed again
            fresh = stop - start > size
            block, start, stop = _cut(start, stop, size)
            pos, mid, fresh = pos[block], mid[block], fresh[block]
            mid[fresh] = (start[fresh] + stop[fresh] - 1) // 2
            keep = np.ones(len(pos), dtype=bool)
            keep[fresh] = walk.prune(pos[fresh], start[fresh], stop[fresh], mid[fresh])
            pos, start, stop, mid = pos[keep], start[keep], stop[keep], mid[keep]
    walk.walk(pos, start, stop, mid)
    return walk.rows[where]


def seminorm(f: SmoothSeq, n: int, spec: SeminormSpec) -> float:
    """Grid supremum of |f_n^(order)| over orders <= nu and |x| <= radius.

    A lattice supremum bounds the true one from below; spacing shrinks
    like 1/(8n) so n-scaled peaks remain resolved.  It is the same float
    whether or not `f` has a majorant: the majorant only lets the walk
    skip cells that cannot hold the supremum (see `_order_sups`, of which
    this is the one-index call).  Callers that read several indices or
    orders of one sequence use `_seminorm_table` instead.
    """
    return float(_order_sups(f, [n], spec.nu).max())


def _seminorm_table(f: SmoothSeq) -> Callable[[Sequence[int], int], list[float]]:
    """p(ns, nu) = [seminorm(f, n, SeminormSpec(nu)) for n in ns] for
    nu <= f.max_order.  A read walks every index it has not read before in
    one walk, and each (n, radius) lattice is walked once: orders up to 2
    share the radius-2 walk, and a higher order nu walks the radius-nu
    lattice alone."""
    walked: dict[int, dict[int, np.ndarray]] = {}

    def p(ns: Sequence[int], nu: int) -> list[float]:
        if nu > f.max_order:
            raise ValueError(f"seminorm order {nu} exceeds max_order {f.max_order}")
        top = nu if nu > 2 else min(2, f.max_order)
        sups = walked.setdefault(top, {})
        ns = [int(n) for n in ns]
        missing = [n for n in dict.fromkeys(ns) if n not in sups]
        if missing:
            sups.update(zip(missing, np.maximum.accumulate(_order_sups(f, missing, top), axis=1)))
        return [float(sups[n][nu]) for n in ns]

    return p


def _log_abs_channel(values: Callable[[list[int]], Sequence[float]], label: str, sample_ns: Sequence[int]) -> SeqRep:
    """The sampled sequence |v_n| on sample_ns, kept as logs, where
    values(ns) gives v_n at a list of indices.  Each read calls `values`
    once, on the indices not read before."""
    cache: dict[int, float] = {}

    def log_abs(ns: np.ndarray) -> np.ndarray:
        ns = [int(n) for n in np.asarray(ns, dtype=np.int64)]
        missing = [n for n in dict.fromkeys(ns) if n not in cache]
        if missing:
            for n, v in zip(missing, values(missing)):
                v = abs(v)
                cache[n] = math.log(v) if v > 0 else -math.inf
        return np.asarray([cache[n] for n in ns])

    return SeqRep(
        label=label,
        log_evaluator=log_abs,
        n_min=min(sample_ns),
        n_max=max(max(sample_ns), 10_000),
        sample_ns=tuple(sample_ns),
    )


def classify_fun(f: SmoothSeq, nu_max: int, space: NumberSpace | None = None) -> ClassificationReport:
    """Classify a smooth sequence through its seminorm channels p_0..p_nu_max.

    The channels of a sequence built by rules with growth laws are
    classified on the exact tier (`_law_report`).  Any other sequence, or
    one whose laws leave a norm open, is walked: its channels are read
    from one seminorm table, one walk per radius, each lattice walked once."""
    if nu_max > f.max_order:
        raise ValueError("nu_max exceeds the sequence's derivative support")
    space = space or colombeau_space()
    report = _law_report(f, nu_max, space)
    return report if report is not None else _classify_table(_seminorm_table(f), f.label, nu_max, space)


# ---------------------------------------------------------------------------
# growth laws: the channels of a sequence from the rules it was built with

_LAW = "growth law"  # the witness of a norm a growth law decided starts so
_PROBES = 64  # probe points, and cells, of one bound on a profile's orders


class _Law(NamedTuple):
    """lo * expr(n) <= p_nu(f_n) <= hi * expr(n) at every sample index;
    lo = 0 claims no lower law."""

    expr: growth.GrowthExpr
    lo: float
    hi: float

    @property
    def vanishes(self) -> bool:
        return not self.hi or self.expr.is_zero


class _Form(NamedTuple):
    """|f_n(x)| = scale * expr(n) * n^power * |h(x)|, or |h(n x)| when
    `stretched`, for an n-free profile h."""

    stretched: bool
    expr: growth.GrowthExpr
    scale: float
    power: int
    h: SmoothSeq


def _form(f: SmoothSeq) -> _Form | None:
    """f as a `_Form`: an n-free or a mollified sequence, and their scales,
    derivatives and products of two of one kind; the profile of a
    derivative or a product is built anew on each call."""
    if f.n_free:
        return _Form(False, growth.ONE, 1.0, 0, f)
    op = f.key[0] if f._tree is not None else ("jet",)
    if op[0] == "mollified":
        return _Form(True, growth.ONE, 1.0, op[1], f._tree.operands[0])
    if op[0] not in ("relabel", "scale", "derivative", "product") or op[1:2] == ("callable",):
        return None
    forms = [_form(g) for g in f._tree.operands]
    a, b = forms[0], forms[-1]
    if a is None or b is None or a.stretched != b.stretched:
        return None
    if op[0] == "scale" and isinstance(op[1], growth.GrowthExpr):
        return a._replace(expr=growth.mul(op[1], a.expr))
    if op[0] == "scale":
        return a._replace(scale=abs(op[1]) * a.scale)
    if op[0] == "derivative":
        return a._replace(power=a.power + op[1] * a.stretched, h=derivative_seq(a.h, op[1]))
    if op[0] == "product":
        return _Form(a.stretched, growth.mul(a.expr, b.expr), a.scale * b.scale, a.power + b.power,
                     product_seq(a.h, b.h))
    return a


def _order_bounds(h: SmoothSeq, probe: tuple[float, float], cover: tuple[float, float], half: float, k: int):
    """(lower, upper) for the orders j = 0..k of the n-free h, or None
    without a majorant.  upper[j] bounds |h^(j)| on `cover`.  A lattice
    spanning `probe` with steps of at most 2 * half has a point within
    half of each probe point x, where |h^(j)| is at least |h^(j)(x)| less
    half times the majorant of order j + 1 on [x - half, x + half]; the
    largest such bound is lower[j]."""
    if h.majorant is None:
        return None
    top = min(k + 1, h.max_order)
    edges, xs = np.linspace(*sorted(cover), _PROBES + 1), np.linspace(*sorted(probe), _PROBES)
    with np.errstate(all="ignore"):
        # one majorant call: the cells of `cover`, then those of the probes
        bound = h.majorant(1, np.concatenate([edges[:-1], xs - half]), np.concatenate([edges[1:], xs + half]), top)
        vals = np.abs(h.jet(1, xs, k))
        vals[:top] -= half * bound[1:, _PROBES:]
        vals[top:] = 0.0  # an order whose next one the majorant cannot reach
        out = np.array([np.fmax(vals.max(axis=1), 0.0) / _PAD, bound[: k + 1, :_PROBES].max(axis=1) * _PAD])
    out[[probe[1] < probe[0], cover[1] < cover[0]]] = 0.0  # an empty span
    return out


def _form_laws(form: _Form, k: int, lattices) -> list[_Law] | None:
    """The laws of p_0..p_k of a `_Form` on the lattices (lo, hi, count)
    at the sample indices, from its profile's bounds where every lattice
    holds its probes.  p_nu of a stretched form lies between n^(power+nu)
    times the lower bound of order nu and times the upper bounds up to nu."""
    lo, hi, count = lattices
    t = np.asarray(DEFAULT_SAMPLE_NS, dtype=float) if form.stretched else 1.0
    a, b, live = t * lo, t * hi, count > 0
    probe = (a.max(), b.min()) if live.all() else (1.0, 0.0)
    cover = (a[live].min(), b[live].max()) if live.any() else (1.0, 0.0)
    if form.h.support is not None:
        probe, cover = ((max(x, form.h.support[0]), min(y, form.h.support[1])) for x, y in (probe, cover))
    half = 0.5 * _PAD * float(np.max(t * (hi - lo) / np.maximum(count - 1, 1)))
    bounds = _order_bounds(form.h, probe, cover, half, k)
    if bounds is None:
        return None
    lower, upper = form.scale * bounds
    if not form.stretched:
        return [_Law(form.expr, lower[: nu + 1].max(), upper[: nu + 1].max()) for nu in range(k + 1)]
    return [
        _Law(growth.mul(form.expr, growth.term_expr(1.0, pow_n=form.power + nu)), lower[nu], upper[: nu + 1].max())
        for nu in range(k + 1)
    ]


def _sum_law(a: _Law, b: _Law) -> _Law:
    """p_nu(f + g) <= max(hi) (e_f + e_g).  When one summand's growth
    strictly dominates, its lower law less the other's upper law is one
    of the sum where it stays positive at every sample index."""
    if b.vanishes or a.vanishes:
        return a if b.vanishes else b
    lo = 0.0
    if not (a.expr.modulated or b.expr.modulated):
        order = growth.compare(a.expr, b.expr).relation
        if order != growth.SAME:
            top, low = (a, b) if order == growth.GREATER else (b, a)
            with np.errstate(all="ignore"):
                low_log, top_log = (growth.eval_log(e.expr, DEFAULT_SAMPLE_NS) for e in (low, top))
                ratio = np.exp(low_log - top_log)
                lo = float(np.min((top.lo - low.hi * ratio) / (1.0 + ratio)))
    return _Law(growth.add(a.expr, b.expr), lo if lo > 0 else 0.0, max(a.hi, b.hi))  # nan: no lower law


def _laws(f: SmoothSeq, k: int, lattices) -> list[_Law] | None:
    """The laws of p_0..p_k of f on the lattices at the sample indices, by
    the rules f was built with; None when a rule has none.  Other than a
    form, a derivative is bounded by its operand's higher channels, and a
    product by Leibniz, p_nu(f g) <= 2^nu p_nu(f) p_nu(g); neither has a
    lower law."""
    form = _form(f)
    if form is not None:
        return _form_laws(form, k, lattices)
    op = f.key[0] if f._tree is not None else ("jet",)
    if op[0] not in ("relabel", "scale", "derivative", "add", "product") or op[1:2] == ("callable",):
        return None
    shift = op[1] if op[0] == "derivative" else 0
    parts = [_laws(g, k + shift, lattices) for g in f._tree.operands]
    a, b = parts[0], parts[-1]
    if a is None or b is None:
        return None
    if op[0] == "scale" and isinstance(op[1], growth.GrowthExpr):
        return [law._replace(expr=growth.mul(op[1], law.expr)) for law in a]
    if op[0] == "scale":
        return [_Law(law.expr, abs(op[1]) * law.lo, abs(op[1]) * law.hi) for law in a]
    if op[0] == "derivative":
        return [law._replace(lo=0.0) for law in a[shift:]]
    if op[0] == "add":
        return [_sum_law(x, y) for x, y in zip(a, b)]
    if op[0] == "product":
        return [_Law(growth.mul(x.expr, y.expr), 0.0, 2.0**nu * x.hi * y.hi) for nu, (x, y) in enumerate(zip(a, b))]
    return a


def _law_report(f: SmoothSeq, nu_max: int, space: NumberSpace) -> ClassificationReport | None:
    """f's classification from its channels' growth laws, derived anew, on
    the exact tier; None when f has no law or a norm is left open.  Every
    weight read is symbolic or a step, so tends to 0, and a positive
    constant drops out of every norm: a channel's norm is its expression's
    when the law has a lower bound or the channel vanishes, and 0 when the
    expression's norm is 0."""
    laws = _laws(f, min(nu_max, 2), _lattices(f, DEFAULT_SAMPLE_NS, 2))
    for nu in range(3, nu_max + 1):  # orders up to 2 share the radius-2 lattices
        more = None if laws is None else _laws(f, nu, _lattices(f, DEFAULT_SAMPLE_NS, nu))
        laws = None if more is None else laws + more[nu:]
    if laws is None or not all(math.isfinite(law.hi) for law in laws):
        return None
    if not all(w.is_symbolic or w.is_step for w in space.weights()):
        return None
    bundle = {
        f"p_{nu}": SeqRep(f"p_{nu}({f.label})", expr=growth.ZERO if law.vanishes else law.expr)
        for nu, law in enumerate(laws)
    }
    rates = [
        "0" if law.vanishes else f"{'Theta' if law.lo > 0 else 'O'}({growth.format_expr(law.expr)})" for law in laws
    ]
    report, norms = space.classify(bundle), {}
    for (m, key), v in report.channel_norms.items():
        law = laws[int(key[2:])]
        if not (law.lo > 0 or law.vanishes or v.log_value == -math.inf):
            return None
        norms[m, key] = replace(v, witness=f"{_LAW}: {key} = {rates[int(key[2:])]}")
    return replace(report, channel_norms=norms)


def _classify_table(
    p: Callable[[Sequence[int], int], list[float]], label: str, nu_max: int, space: NumberSpace | None = None
) -> ClassificationReport:
    """`classify_fun` on the channels read from the seminorm table p, at
    the indices `DEFAULT_SAMPLE_NS`."""
    space = space or colombeau_space()
    bundle = {
        f"p_{nu}": _log_abs_channel(partial(p, nu=nu), f"p_{nu}({label})", DEFAULT_SAMPLE_NS)
        for nu in range(nu_max + 1)
    }
    return space.classify(bundle)


# ---------------------------------------------------------------------------
# mollifiers and moment classes

_GL_LOW, _GL_HIGH = 16, 32
_QUAD_MAX_PANELS = 1024
_QUAD_TOL = 1e-9
_MOMENT_Q_MAX = 8  # the highest moment order checked
_MASS_TOL = 1e-6  # |integral - 1| allowed of a mollifier profile
_MOMENT_TOL = 1e-7  # |moment| below which a moment vanishes


@lru_cache(maxsize=1)
def _gl_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive nodes of the low and the high Gauss-Legendre rule on [-1, 1],
    side by side, and the matching weights of each.

    Both rules are symmetric, so a panel sums node pairs f(c - h t) + f(c + h t):
    an odd integrand over a symmetric interval then integrates to exactly 0.
    """
    x_low, w_low = leggauss(_GL_LOW)
    x_high, w_high = leggauss(_GL_HIGH)
    k_low, k_high = _GL_LOW // 2, _GL_HIGH // 2
    return np.concatenate([x_low[k_low:], x_high[k_high:]]), w_low[k_low:], w_high[k_high:]


@lru_cache(maxsize=1)
def _gl_nodes() -> np.ndarray:
    """The nodes of `_gl_rules` on one panel: x = mid + half * node for the
    negated positive nodes, then the positive ones.  mid + half * (-t) is
    the same float as mid - half * t."""
    nodes = _gl_rules()[0]
    return np.concatenate([-nodes, nodes])


def _nonfinite_integral(ys: np.ndarray) -> float:
    """The integral when some samples are not finite: +-inf when every
    infinite sample has one sign, an error for nan or mixed signs."""
    if np.isnan(ys).any():
        raise QuadratureError("integrand is nan at a quadrature node")
    with np.errstate(invalid="ignore"):
        total = float(ys[np.isinf(ys)].sum())
    if math.isnan(total):
        raise QuadratureError("integrand takes both +inf and -inf")
    return total


def _quad_lockstep(
    fn: Callable[..., np.ndarray], lo: Sequence[float], hi: Sequence[float], runs: bool = False
) -> np.ndarray:
    """Adaptive composite Gauss-Legendre integrals over the intervals
    [lo[i], hi[i]] in lockstep, of an integrand fn(xs, which) that is
    vectorized over points and intervals: which[p] is the interval of the
    point xs[p].  With `runs` it is fn(xs, which, (intervals, lengths)):
    the points of each interval are one run of which, and the runs, in
    order, are those of the intervals with those lengths.

    Every interval starts at the four panels of two halvings, as level 2 (a
    16/32-node pair on one or two panels of a bump never settles); on one
    symmetric about 0, samples that cancel with their mirror images there
    are an odd integrand, and its integral is exactly 0.  Each
    refinement level calls `fn` once, on the nodes of every open panel
    of every interval.  Each interval is refined as it would be alone: its
    panels keep their order (left halves, then right halves), and its
    accept test and its sums are taken on its own panels, so its integral
    is the same float.  A panel is scored by the gap between its 16- and
    32-node sums; it is accepted with the 32-node sum when the gap is
    within its width's share of max(tol, tol*|I|), tol = `_QUAD_TOL`, and
    halved otherwise, up to `_QUAD_MAX_PANELS` panels per interval.
    Non-finite samples end their interval's refinement at once.  When some
    interval fails, the error of the first one is raised.

    The bookkeeping of a level is done once per group of intervals with
    the same number m of open panels, on (intervals, m) arrays: a stacked
    matrix product and a sum along each row give every interval the floats
    of its own product and sum (one product over all panels would not),
    and the sums over accepted panels are taken per group of equal
    accepted count.
    """
    _, w_low, w_high = _gl_rules()
    signed = _gl_nodes()
    k, half_nodes = len(w_low), len(signed) // 2
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    val = np.zeros(len(lo))
    failures: list[QuadratureError | None] = [None] * len(lo)
    # 0-d arrays: numpy applies them faster than Python floats, same floats
    tol_, half_ = np.array(_QUAD_TOL), np.array(0.5)
    # the intervals still refining, in groups of equal open panel count m:
    # (ids, cuts, integral, error, accepted, span), where cuts[0, r] and
    # cuts[2, r] hold the ends a and b of the m open panels of interval
    # ids[r], in that interval's order, and cuts[1, r] their middles; then,
    # per interval, the integral and the error estimate so far, the number
    # of panels accepted (it has accepted + m panels) and its length
    ids = np.flatnonzero(hi != lo)
    a, b = lo[ids], hi[ids]
    mid = (a + b) * half_  # then [a, q1], [mid, q3], [q1, mid], [q3, b], as two halvings lay them out
    q1, q3 = (a + mid) * half_, (mid + b) * half_
    cuts = np.stack([np.stack([a, mid, q1, q3], 1), np.empty((len(ids), 4)), np.stack([q1, q3, mid, b], 1)])
    groups = [(ids, cuts, np.zeros(len(ids)), np.zeros(len(ids)), np.zeros(len(ids)), b - a)] if len(ids) else []
    level = 2
    while groups:
        xs, owner, widths = [], [], []
        for ids, cuts, *_ in groups:
            mid = np.add(cuts[0], cuts[2], out=cuts[1])
            mid *= half_
            width = cuts[2] - cuts[0]
            half = half_ * width
            xs.append((mid[..., None] + half[..., None] * signed).reshape(-1, len(signed)))
            owner.append(ids.repeat(cuts.shape[2] * len(signed)))
            widths.append((width, half))
        xs, owner = (np.concatenate(xs), np.concatenate(owner)) if len(groups) > 1 else (xs[0], owner[0])
        if runs:
            layout = [(ids, np.full(len(ids), cuts.shape[2] * len(signed))) for ids, cuts, *_ in groups]
            ys = fn(xs.ravel(), owner, tuple(np.concatenate(x) for x in zip(*layout)))
        else:
            ys = fn(xs.ravel(), owner)
        ys = np.asarray(ys, dtype=float).reshape(xs.shape)
        finite = np.logical_and.reduce(np.isfinite(ys), None)
        grown: dict[int, list[tuple[np.ndarray, ...]]] = {}
        stop = 0
        for group, (width, half) in zip(groups, widths):
            ids, cuts, integral, error, accepted, span = group
            g, m = width.shape
            start, stop = stop, stop + g * m
            y = ys[start:stop].reshape(g, m, -1)
            done = cuts[0, :, 0] == -cuts[2, :, -1] if level == 2 else np.zeros(g, dtype=bool)
            if done.any():
                # on [-b, b] node i of panel j mirrors node -i of panel 3 - j
                z = y[done].reshape(-1, m, 2, half_nodes)
                done[done] = (z[:, ::-1, ::-1] + z == 0).all(axis=(1, 2, 3))
                val[ids[done]] = 0.0
            if not finite:
                bad = ~np.isfinite(y).all(axis=(1, 2))
                for i, yi in zip(ids[bad].tolist(), y[bad]):
                    try:
                        val[i] = _nonfinite_integral(yi)
                    except QuadratureError as exc:
                        failures[i] = exc
                done |= bad
            if done.any():
                ids, integral, error, accepted, span, y, width, half = (
                    x[~done] for x in (ids, integral, error, accepted, span, y, width, half)
                )
                cuts, g = cuts[:, ~done], len(ids)
                if not g:
                    continue
            pairs = y[..., :half_nodes] + y[..., half_nodes:]
            # per panel: the 32-node sum, and its gap to the 16-node sum
            high = half * (pairs[..., k:] @ w_high)
            gap = high - half * (pairs[..., :k] @ w_low)
            np.abs(gap, out=gap)
            limit = np.fmax(tol_, tol_ * np.abs(integral + np.add.reduce(high, 1)))
            open_ = gap > limit[:, None] * width / span[:, None]
            n_open = np.add.reduce(open_, 1)
            if 2 << level > _QUAD_MAX_PANELS:
                # at the cap every panel is kept; the error test decides
                # (an interval has at most 2^level panels before this level
                # and opens at most 2^level more)
                capped = accepted + m + n_open > _QUAD_MAX_PANELS
                open_[capped] = False
                n_open[capped] = 0
            counts = set(n_open.tolist())
            for c in counts:
                part = (ids, cuts, integral, error, accepted, span, open_, high, gap)
                if len(counts) > 1:
                    rows = n_open == c
                    # cuts has its rows on axis 1
                    part = tuple(x[:, rows] if x is cuts else x[rows] for x in part)
                rid, rcuts, rint, rerr, racc, rspan, ropen, rhigh, rgap = part
                r = len(rid)
                if c < m:
                    if c:
                        kept = ~ropen
                        rhigh, rgap = rhigh[kept].reshape(r, m - c), rgap[kept].reshape(r, m - c)
                        racc = racc + (m - c)
                    rint += np.add.reduce(rhigh, 1)
                    rerr += np.add.reduce(rgap, 1)
                if not c:
                    val[rid] = rint
                    for i, v, e in zip(rid.tolist(), rint.tolist(), rerr.tolist()):
                        if e > max(100 * _QUAD_TOL, 1e-6 * abs(v)):
                            failures[i] = QuadratureError(f"quadrature error {e:g} too large for value {v:g}")
                    continue
                if c < m:
                    rcuts = rcuts[:, ropen].reshape(3, r, c)
                # left halves [a, mid], then right halves [mid, b]; the
                # middles are filled in at the next level
                halves = np.empty((3, r, 2 * c))
                halves[::2, :, :c] = rcuts[:2]
                halves[::2, :, c:] = rcuts[1:]
                grown.setdefault(2 * c, []).append((rid, halves, rint, rerr, racc, rspan))
        groups = []
        for pieces in grown.values():
            if len(pieces) > 1:
                pieces = [tuple(np.concatenate(x, axis=1 if x[0].ndim == 3 else 0) for x in zip(*pieces))]
            groups += pieces
        level += 1
    for exc in failures:
        if exc is not None:
            raise exc
    return val


def _quad(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """The adaptive integral of a vectorized integrand fn(xs) over [lo, hi]:
    `_quad_lockstep` on one interval."""
    return float(_quad_lockstep(lambda xs, which: fn(xs), [lo], [hi])[0])


@dataclass(frozen=True)
class Mollifier:
    """A unit-integral profile with a verified vanishing-moment order."""

    profile: SmoothSeq
    moment_class: int
    integral: float
    power: int = 1

    @property
    def label(self) -> str:
        return self.profile.label

    def sequence(self) -> SmoothSeq:
        return mollified(self.profile, power=self.power, label=f"delta[{self.label}]")


def moment_class(profile: SmoothSeq) -> tuple[int, float]:
    """Largest q <= `_MOMENT_Q_MAX` with vanishing moments 1..q; also
    returns the integral.

    Raises when the profile does not integrate to one within `_MASS_TOL`.
    """
    if profile.support is None:
        raise ValueError("moment analysis needs compact support")
    total, *moments = _moments(profile, range(_MOMENT_Q_MAX + 1))
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"profile integrates to {total:.9g}, not 1: not a mollifier")
    q = next((k for k, mk in enumerate(moments) if abs(mk) > _MOMENT_TOL), len(moments))
    return q, total


def _moments(profile: SmoothSeq, ks: Sequence[int]) -> list[float]:
    """The moments ks of a compact profile in one lockstep call, each the float `_quad` gives."""
    lo, hi = profile.support

    def integrand(xs: np.ndarray, which: np.ndarray, runs) -> np.ndarray:
        parts = np.split(xs, np.cumsum(runs[1])[:-1])  # x ** k per run: numpy squares x ** 2
        return np.concatenate([x ** ks[i] for i, x in zip(runs[0].tolist(), parts)]) * profile(xs)

    return _quad_lockstep(integrand, [lo] * len(ks), [hi] * len(ks), runs=True).tolist()


def make_mollifier(profile: SmoothSeq) -> Mollifier:
    q, total = moment_class(profile)
    return Mollifier(profile=profile, moment_class=q, integral=total)


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    return _quad(bump(), -1.0, 1.0)


def standard_mollifier() -> Mollifier:
    """The even bump normalized to unit integral (moment class 1)."""
    return make_mollifier(bump(amplitude=1.0 / _bump_mass()))


def corrected_mollifier() -> Mollifier:
    """An even profile with its second moment removed: a*phi + b*x^2*phi.

    Solving for unit integral and vanishing second moment kills moments
    1..3 (odd ones vanish by symmetry), so the class comes out >= 3.
    """
    phi = bump(amplitude=1.0 / _bump_mass())
    mu2, mu4 = _moments(phi, (2, 4))
    det = mu4 - mu2 * mu2
    a, b = mu4 / det, -mu2 / det
    x2phi = product_seq(poly_fn([0.0, 0.0, 1.0], label="x^2"), phi)
    return make_mollifier(add_seq(seq_scale(a, phi), seq_scale(b, x2phi), label="corrected-bump"))


# ---------------------------------------------------------------------------
# pairings and weak association


def pairing(f: SmoothSeq, n: int | Sequence[int], psi: TestFunction) -> float | np.ndarray:
    """The duality pairing <f_n, psi> by adaptive Gauss-Legendre quadrature
    on the support of psi clipped to that of f_n.

    For a sequence of indices the result is the array of their pairings,
    from one lockstep quadrature: each refinement level evaluates f at
    every index in one `SmoothSeq.at` call, and each pairing is the same
    float as for its index alone."""
    scalar = np.ndim(n) == 0
    ns = [n] if scalar else [int(m) for m in n]
    lo, hi = np.full(len(ns), psi.support[0]), np.full(len(ns), psi.support[1])
    for i, m in enumerate(ns):
        sup = f.support_fn(m)
        if sup is not None:
            lo[i], hi[i] = max(lo[i], sup[0]), min(hi[i], sup[1])
            hi[i] = max(hi[i], lo[i])  # an empty meet integrates to 0
    index = np.array(ns)
    distinct, position = np.unique(index, return_inverse=True)

    def integrand(xs: np.ndarray, which: np.ndarray, runs=None) -> np.ndarray:
        if scalar:
            return f.at(n, xs, 0) * psi(xs)
        # the quadrature's runs of equal indices, handed to the root call
        intervals, lengths = runs
        return f.at(_Indices(index[which], (distinct, position[intervals], lengths)), xs, 0) * psi(xs)

    values = _quad_lockstep(integrand, lo, hi, runs=not scalar)
    return float(values[0]) if scalar else values


def weak_assoc_fun(
    f: SmoothSeq,
    g: SmoothSeq,
    kind: AssocKind,
    test_set: Iterable[TestFunction] | None = None,
    space: NumberSpace | None = None,
) -> AssocVerdict:
    """Association of two function sequences through duality pairings.

    Each test function yields the scalar sequence <f_n - g_n, psi>, judged
    by the matching scalar relation; the verdict is the conjunction over
    the finite probe set and says so.
    """
    space = space or colombeau_space()
    probes = tuple(test_set) if test_set is not None else default_test_set()
    if not probes:
        raise ValueError("need at least one test function")
    diff = sub_seq(f, g)
    zero = gennum.GenNumber(space=space, magnitude=SeqRep.symbolic(growth.ZERO))
    per_psi = {}
    worst = "yes"
    rank = {"yes": 0, "inconclusive": 1, "no": 2}
    for psi in probes:
        rep = _log_abs_channel(partial(pairing, diff, psi=psi), f"|<{diff.label}, {psi.label}>|", _PAIRING_NS)
        a = gennum.GenNumber(space=space, magnitude=rep)
        v = gennum.associate(a, zero, kind, difference=rep)
        per_psi[psi.label] = v.holds
        if rank[v.holds] > rank[worst]:
            worst = v.holds
    return AssocVerdict(
        holds=worst,
        kind=kind,
        witness={"per_test_function": per_psi},
        notes=f"with respect to the given test set ({len(probes)} test functions)",
    )


# ---------------------------------------------------------------------------
# elements of the function algebra


@dataclass(frozen=True)
class FunctionSpace:
    space: NumberSpace
    nu_max: int = 3

    @property
    def name(self) -> str:
        return f"functions/{self.space.name}/nu<={self.nu_max}"


@dataclass(frozen=True)
class FunctionElement:
    seq: SmoothSeq
    fspace: FunctionSpace
    report: ClassificationReport


def make_element(seq: SmoothSeq, fspace: FunctionSpace) -> FunctionElement:
    report = classify_fun(seq, fspace.nu_max, fspace.space)
    if report.in_moderate is False:
        raise NotModerate(f"{seq.label!r} is not moderate in {fspace.name}")
    return FunctionElement(seq=seq, fspace=fspace, report=report)
