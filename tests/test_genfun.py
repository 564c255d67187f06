"""Smooth-function sequences: seminorms, mollifiers, pairings, weak association."""

import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyval

from ultraseq.gennum import AssocKind, NotModerate
from ultraseq import genfun
from ultraseq.genfun import (
    FunctionSpace,
    QuadratureError,
    SeminormSpec,
    SmoothSeq,
    add_seq,
    bump,
    classify_fun,
    const_fn,
    constant_seq,
    corrected_mollifier,
    derivative_seq,
    exp_seq,
    make_element,
    make_mollifier,
    moment_class,
    mollified,
    pairing,
    poly_fn,
    product_seq,
    reindex,
    seminorm,
    seq_scale,
    sin_fn,
    square_seq,
    standard_mollifier,
    sub_seq,
)
from ultraseq.genfun import TestFunction as TF
from ultraseq import growth
from ultraseq.spaces import SeqRep

# reference values computed with scipy.integrate.quad on the bump profile
# exp(-1/(1-x^2)); quad reports error below 1e-9 on each
BUMP_MASS = 0.44399381616807865
PEAK = 0.8285688398691067  # e^-1 / BUMP_MASS
SQUARED_INTEGRAL = 0.6751168130096943  # integral of the normalized profile squared
PROFILE_MOMENT2 = 0.15811363626379665


# ---------------------------------------------------------------------------
# smooth functions: sequences that do not depend on n


def test_bump_support_and_values():
    f = bump(0.0, 1.0, 1.0)
    assert f.support == (-1.0, 1.0)
    assert f(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert f(np.array([1.0, -1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
    # odd derivative vanishes at the symmetric center
    assert f(np.array([0.0]), order=1)[0] == pytest.approx(0.0, abs=1e-15)


def test_bump_derivative_matches_finite_difference():
    f = bump(0.3, 1.5, 2.0)
    xs = np.linspace(-1.0, 1.4, 9)
    h = 1e-6
    fd = (f(xs + h) - f(xs - h)) / (2 * h)
    np.testing.assert_allclose(f(xs, order=1), fd, rtol=1e-6, atol=1e-8)


def test_poly_and_product_derivatives():
    p = poly_fn([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
    xs = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p(xs, order=1), 2.0 + 6.0 * xs)
    np.testing.assert_allclose(p(xs, order=2), [6.0, 6.0, 6.0])
    q = product_seq(p, sin_fn())
    h = 1e-6
    fd = (q(xs + h) - q(xs - h)) / (2 * h)
    np.testing.assert_allclose(q(xs, order=1), fd, rtol=1e-6, atol=1e-8)


def _poly_rows_all_65(coeffs):
    """The derivative rows of a polynomial as poly_fn once built them:
    every one of the 65 rows filled from the one before, then trimmed."""
    d = np.asarray(coeffs, dtype=float)
    matrix = np.zeros((65, len(d)))
    for row in matrix:
        row[: len(d)] = d
        d = d[1:] * np.arange(1.0, len(d))
    return matrix, [genfun._trim(row) for row in matrix]


@given(st.lists(st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, 1.0, -2.5])), min_size=1, max_size=70))
@settings(max_examples=40, deadline=None)
@example([0.3, 0.0, 0.0])  # trailing zeros, trimmed
@example([1.0] * 70)  # a degree past the 64 derivative orders kept
def test_poly_fn_rows_past_the_degree_are_the_65_row_construction(coeffs):
    matrix, derivs = _poly_rows_all_65(coeffs)
    f = poly_fn(coeffs)
    assert f.key == ("poly", tuple(matrix[0].tolist()))
    assert f.const_rows == frozenset(j for j, row in enumerate(derivs) if len(row) <= 1)
    xs = np.linspace(-1.5, 1.5, 7)
    a, b = xs[:-1], xs[1:]
    for k in sorted({0, 1, 2, min(len(coeffs), 64), 64}):
        jet = genfun._horner(derivs[: k + 1], xs, np.empty((k + 1,) + xs.shape))
        assert f.jet(0, xs, k).tobytes() == jet.tobytes()
        assert f.majorant(0, a, b, k).tobytes() == genfun._horner_bound(matrix[: k + 1], a, b).tobytes()


def test_linear_combination():
    f = add_seq(seq_scale(2.0, const_fn(1.0)), seq_scale(-1.0, poly_fn([0.0, 1.0])))
    xs = np.array([0.0, 3.0])
    np.testing.assert_allclose(f(xs), [2.0, -1.0])


def test_n_free_propagates_through_the_algebra():
    f, g = sin_fn(), bump(0.0, 1.0)
    for h in (add_seq(f, g), product_seq(f, g), seq_scale(2.0, g), sub_seq(f, g),
              exp_seq(f), derivative_seq(g), reindex(g, 2), constant_seq(g, label="g")):
        assert h.n_free, h.label
        np.testing.assert_allclose(h(np.array([0.2])), h.at(7, np.array([0.2])))
    d = standard_mollifier().sequence()
    for h in (d, seq_scale(growth.parse("log(n)"), g), seq_scale(lambda n: 1.0, g),
              add_seq(f, d), product_seq(d, g), reindex(d, 2)):
        assert not h.n_free, h.label


def _algebra_cases():
    """(sequence, index, points inside its support): every constructor and
    the combinators of the n-free propagation test."""
    f, g = sin_fn(), bump(0.0, 1.0)
    d = standard_mollifier().sequence()
    near = np.linspace(-0.6, 0.6, 7)
    cases = [(h, 1, near) for h in (
        f, g, poly_fn([1.0, -2.0, 0.5, 3.0]), const_fn(2.5), add_seq(f, g), product_seq(f, g),
        seq_scale(2.0, g), sub_seq(f, g), exp_seq(f), derivative_seq(g), reindex(g, 2),
        constant_seq(g, label="g"), seq_scale(growth.parse("log(n)"), g), seq_scale(lambda n: 3.0, g),
    )]
    # n-dependent ones at n = 2, where the mollifier lives on (-1/2, 1/2)
    cases += [(h, 2, near / 2) for h in (
        d, mollified(bump(0.1, 0.8), power=2), add_seq(f, d), product_seq(d, g), square_seq(d),
        reindex(d, 2),
    )]
    return cases


def test_jet_rows_are_successive_derivatives():
    step = 1e-5
    for h, n, xs in _algebra_cases():
        jet = h.jet(n, xs, 3)
        assert jet.shape == (4, len(xs)), h.label
        for j in range(3):
            fd = (h.jet(n, xs + step, 3)[j] - h.jet(n, xs - step, 3)[j]) / (2 * step)
            scale = np.max(np.abs(jet[j + 1]))
            np.testing.assert_allclose(
                fd, jet[j + 1], rtol=1e-6, atol=1e-6 * scale, err_msg=f"{h.label} order {j + 1}"
            )
            np.testing.assert_array_equal(jet[j], h.at(n, xs, j), err_msg=h.label)


# the fields every case derives from its operands, recorded before the
# combinators shared one node builder: (label, max_order, support_fn(n),
# majorant is None)
_DERIVED_FIELDS = [
    ('sin(1x)', 64, None, False),
    ('bump(0,1)', 8, (-1.0, 1.0), False),
    ('poly(1.0, -2.0, 0.5, 3.0)', 64, None, False),
    ('const(2.5)', 64, None, False),
    ('sin(1x) + bump(0,1)', 8, None, False),
    ('(sin(1x))*(bump(0,1))', 8, (-1.0, 1.0), False),
    ('2 * bump(0,1)', 8, (-1.0, 1.0), False),
    ('sin(1x) - bump(0,1)', 8, None, False),
    ('exp(sin(1x))', 64, None, False),
    ('D^1 bump(0,1)', 7, (-1.0, 1.0), False),
    ('bump(0,1) at 2n', 8, (-1.0, 1.0), False),
    ('g', 8, (-1.0, 1.0), False),
    ('log(n) * bump(0,1)', 8, (-1.0, 1.0), False),
    ('c_n * bump(0,1)', 8, (-1.0, 1.0), False),
    ('delta[bump(0,1)]', 8, (-0.5, 0.5), False),
    ('n^2*bump(0.1,0.8)(n x)', 8, (-0.35000000000000003, 0.45), False),
    ('sin(1x) + delta[bump(0,1)]', 8, None, False),
    ('(delta[bump(0,1)])*(bump(0,1))', 8, (-0.5, 0.5), False),
    ('(delta[bump(0,1)])^2', 8, (-0.5, 0.5), False),
    ('delta[bump(0,1)] at 2n', 8, (-0.25, 0.25), False),
]


def test_algebra_cases_derive_their_pinned_fields():
    got = [(h.label, h.max_order, h.support_fn(n), h.majorant is None) for h, n, _ in _algebra_cases()]
    assert got == _DERIVED_FIELDS


def test_exp_seq_has_no_order_cap():
    e = exp_seq(poly_fn([0.0, 2.0]))  # exp(2x)
    xs = np.array([-0.5, 0.0, 0.7])
    assert e.max_order == 64
    for k in (4, 5, 6):
        np.testing.assert_allclose(e.at(1, xs, k), 2.0 ** k * np.exp(2 * xs), rtol=1e-12)


def test_n_dependent_sequence_needs_an_index():
    d = standard_mollifier().sequence()
    with pytest.raises(ValueError, match="depends on n"):
        d(np.array([0.0]))
    with pytest.raises(ValueError, match="depends on n"):
        d.support
    assert d.support_fn(8) == (-0.125, 0.125)


def test_constant_seq_only_relabels():
    f = sin_fn()
    assert constant_seq(f) is f
    g = constant_seq(f, label="s")
    assert g.label == "s" and g.n_free
    np.testing.assert_array_equal(g(np.array([0.3])), f(np.array([0.3])))


# ---------------------------------------------------------------------------
# mollifiers


def test_standard_mollifier_is_normalized():
    m = standard_mollifier()
    assert m.profile(np.array([0.0]))[0] == pytest.approx(PEAK, rel=1e-9)
    q, err = moment_class(m.profile)
    assert q >= 1  # unit mass, first moment zero by symmetry
    # the second moment does not vanish
    assert q == 1


def test_corrected_mollifier_kills_low_moments():
    m = corrected_mollifier()
    q, err = moment_class(m.profile)
    assert q >= 3


def test_moment_class_rejects_non_unit_mass():
    with pytest.raises(ValueError):
        make_mollifier(bump(0.0, 1.0, 1.0))  # mass is BUMP_MASS, not 1


def test_mollified_scaling():
    m = standard_mollifier()
    d = m.sequence()  # delta_n = n * phi(n x)
    xs = np.array([0.0])
    assert d.at(16, xs)[0] == pytest.approx(16 * PEAK, rel=1e-9)
    assert d.at(16, np.array([1.0 / 8.0]))[0] == pytest.approx(
        16 * float(m.profile(np.array([2.0]))[0]), rel=1e-9
    )


def test_mollified_sequence_scales_kernel():
    m = standard_mollifier()
    k = m.sequence()
    assert k.support_fn(8) == (-0.125, 0.125)
    assert k.at(8, np.array([0.0]))[0] == pytest.approx(8 * PEAK, rel=1e-9)
    # each derivative brings another factor n from the chain rule
    inner = float(m.profile(np.array([0.4]), order=2)[0])
    assert k.at(8, np.array([0.05]), order=2)[0] == pytest.approx(8**3 * inner, rel=1e-9)


def test_profiles_must_be_compact_functions():
    d = standard_mollifier().sequence()
    with pytest.raises(ValueError):
        TF(d)
    with pytest.raises(ValueError):
        mollified(d)
    with pytest.raises(ValueError):
        moment_class(d)
    with pytest.raises(ValueError):
        mollified(sin_fn())
    with pytest.raises(ValueError):
        TF(sin_fn())


# ---------------------------------------------------------------------------
# quadrature


def _counted(fn):
    calls = []

    def integrand(xs):
        calls.append(len(xs))
        return fn(xs)

    return integrand, calls


@pytest.mark.parametrize("k", range(9))
def test_quad_integrates_monomials_exactly(k):
    exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
    assert genfun._quad(lambda x: x ** k, -1.0, 1.0) == pytest.approx(exact, rel=1e-14, abs=1e-15)


def test_quad_sine_over_half_period():
    assert genfun._quad(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_quad_bump_mass_matches_reference():
    assert genfun._bump_mass() == pytest.approx(BUMP_MASS, rel=1e-10)


def test_quad_odd_moments_of_even_bump_vanish():
    phi = standard_mollifier().profile
    for k in (1, 3, 5, 7):
        assert abs(genfun._quad(lambda x: x ** k * phi(x), -1.0, 1.0)) < 1e-12
    # an exactly odd integrand cancels to 0: a zero pairing must stay an
    # exact zero for the sampled tier
    assert genfun._quad(lambda x: x / (1e-3 + x * x), -1.0, 1.0) == 0.0


def test_quad_matches_scipy_reference():
    integrate = pytest.importorskip("scipy.integrate")
    d = standard_mollifier().sequence()
    phi = corrected_mollifier().profile
    psi = bump(0.3, 0.7)
    cases = [
        (lambda x: square_seq(d).at(64, x) * psi(x), -1 / 64, 1 / 64),
        (lambda x: d.at(512, x) * psi(x), -1 / 512, 1 / 512),
        (phi, -1.0, 1.0),
        (lambda x: x ** 4 * phi(x), -1.0, 1.0),
        (lambda x: np.exp(x) * np.cos(3 * x), 0.0, 2.0),
    ]
    for fn, lo, hi in cases:
        ref, _ = integrate.quad(lambda t: float(fn(np.asarray([t]))[0]), lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert genfun._quad(fn, lo, hi) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_quad_high_frequency_hits_panel_cap():
    integrand, calls = _counted(lambda x: np.sin(1e7 * x))
    with pytest.raises(QuadratureError):
        genfun._quad(integrand, 0.0, 1.0)
    # one call per refinement level, each level at most doubling the panels
    assert len(calls) <= genfun._QUAD_MAX_PANELS.bit_length()


def test_quad_nan_integrand_raises_without_refining():
    integrand, calls = _counted(lambda x: np.where(x > 0.5, np.nan, 1.0))
    with pytest.raises(QuadratureError, match="nan"):
        genfun._quad(integrand, 0.0, 1.0)
    assert len(calls) == 1
    with pytest.raises(QuadratureError):
        pairing(seq_scale(lambda n: math.nan, bump(0, 1)), 8, TF(bump(0, 1)))


def test_quad_infinite_integrand_is_infinite():
    integrand, calls = _counted(lambda x: np.full_like(x, -math.inf))
    assert genfun._quad(integrand, 0.0, 1.0) == -math.inf
    assert len(calls) == 1
    assert pairing(seq_scale(lambda n: math.inf, bump(0, 1)), 8, TF(bump(0, 1))) == math.inf
    with pytest.raises(QuadratureError):
        genfun._quad(lambda x: np.where(x < 0.5, math.inf, -math.inf), 0.0, 1.0)


def _reference_quad(fn, lo, hi, *, start, tol=1e-9):
    """The one-interval adaptive loop the lockstep routine must reproduce,
    from the 2^start panels of `start` halvings: start 0 is one panel, and
    start 2 the four panels the lockstep routine starts from, where an
    interval symmetric about 0 whose mirrored samples cancel is exactly 0."""
    if hi == lo:
        return 0.0
    nodes, w_low, w_high = genfun._gl_rules()
    k = len(w_low)
    a, b = np.array([lo]), np.array([hi])
    for _ in range(start):
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    val = err = 0.0
    panels = len(a)
    while True:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs = np.concatenate([mid[:, None] - half[:, None] * nodes, mid[:, None] + half[:, None] * nodes], axis=1)
        ys = np.asarray(fn(xs.ravel()), dtype=float).reshape(xs.shape)
        mirrored = ys[::-1].reshape(len(a), 2, -1)[:, ::-1].reshape(ys.shape)
        if start == 2 and panels == 4 and lo == -hi and (mirrored + ys == 0).all():
            return 0.0
        if not np.isfinite(ys).all():
            return genfun._nonfinite_integral(ys)
        pairs = ys[:, : len(nodes)] + ys[:, len(nodes) :]
        low = half * (pairs[:, :k] @ w_low)
        high = half * (pairs[:, k:] @ w_high)
        gap = np.abs(high - low)
        open_ = gap > max(tol, tol * abs(val + high.sum())) * (b - a) / (hi - lo)
        n_open = int(open_.sum())
        if panels + n_open > genfun._QUAD_MAX_PANELS:
            open_[:] = False
        val += float(high[~open_].sum())
        err += float(gap[~open_].sum())
        if not open_.any():
            break
        panels += n_open
        a, mid, b = a[open_], mid[open_], b[open_]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    if err > max(100 * tol, 1e-6 * abs(val)):
        raise QuadratureError(f"quadrature error {err:g} too large for value {val:g}")
    return val


# elementwise integrands: each point's value does not depend on the others
_INTEGRANDS = {
    "smooth": lambda x: np.exp(0.7 * x) * np.cos(3.0 * x),
    "peak": lambda x: 1.0 / (1e-4 + x * x),
    "bump": bump(0.1, 0.4),
    "odd": lambda x: x / (1e-3 + x * x),
    # odd, and its four starting panels' sums leave a residue on [-0.5, 0.5]
    "odd sine": lambda x: np.sin(3.0 * x),
    "panel cap": lambda x: np.sin(1e7 * x),
    "nan": lambda x: np.where(x > 0.25, np.nan, 1.0),
    "+inf": lambda x: np.where(x < 0.0, math.inf, x),
    "-inf": lambda x: np.full_like(x, -math.inf),
    "+-inf": lambda x: np.where(x < 0.1, math.inf, -math.inf),
    "odd inf": lambda x: np.where(x < 0.0, math.inf, -math.inf),
    # the panel-cap integrand, nan in one spot that only the finest level's
    # nodes reach
    "late nan": lambda x: np.where(np.abs(x - 0.3) < 1e-5, np.nan, np.sin(1e7 * x)),
}


def _outcomes(thunk):
    """The integrals as float hex strings, bitwise; or the error raised."""
    try:
        values = thunk()
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"
    return [float(v).hex() for v in np.atleast_1d(values)]


@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(_INTEGRANDS)), st.floats(-1.0, 0.5), st.floats(0.0, 1.5)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=80, deadline=None)
@example([("panel cap", 0.0, 1.0)])
@example([("smooth", -1.0, 0.5), ("nan", 0.0, 1.0), ("+-inf", -0.5, 0.5)])
@example([("peak", -1.0, 1.0), ("-inf", 0.0, 1.0), ("odd", -0.5, 0.5), ("bump", 0.3, 0.3)])
# levels whose intervals have 2 and 4 open panels
@example([("peak", -1.0, 1.0), ("smooth", -1.0, 0.5), ("bump", -0.5, 1.0)])
# intervals symmetric about 0: an odd integrand, one that is not, an
# infinite one whose samples mirror with the opposite sign
@example([("odd sine", -0.5, 1.0), ("smooth", -1.0, 2.0), ("odd inf", -0.1, 0.2)])
# equal open panel counts, with 1 and 0 panels accepted
@example([("peak", -1.0, 1.0), ("peak", -0.5, 1.0), ("odd", -0.5, 0.9)])
# at the last level, one group holds an interval at the panel cap and one
# whose samples turn nan
@example([("panel cap", 0.0, 1.0), ("late nan", 0.0, 1.0)])
def test_lockstep_quadrature_is_each_interval_alone_bitwise(cases):
    names = [name for name, _, _ in cases]
    lo = [lo for _, lo, _ in cases]
    hi = [lo + width for _, lo, width in cases]
    fns = [_INTEGRANDS[name] for name in names]
    calls = []

    def integrand(xs, which, runs):
        calls.append(np.unique(which).tolist())
        out = np.empty_like(xs)
        for i, fn in enumerate(fns):
            out[which == i] = fn(xs[which == i])
        return out

    with np.errstate(invalid="ignore", over="ignore"):
        want = [_outcomes(lambda i=i: _reference_quad(fns[i], lo[i], hi[i], start=2)) for i in range(len(cases))]
        got = _outcomes(lambda: genfun._quad_lockstep(integrand, lo, hi))
        single = [_outcomes(lambda i=i: genfun._quad(fns[i], lo[i], hi[i])) for i in range(len(cases))]
    assert single == want
    failed = [w for w in want if isinstance(w, str)]
    # one interval's error is the first failing one's, as a loop over the
    # intervals raises it
    assert got == (failed[0] if failed else [v for (v,) in want])
    # every call serves every interval still refining, the first level all
    assert not calls or calls[0] == [i for i in range(len(cases)) if hi[i] != lo[i]]


def test_odd_integrand_on_a_symmetric_interval_is_exactly_zero():
    # the mirrored panels of the four-panel start cancel exactly, as one
    # symmetric panel does: an odd pairing stays an exact zero, so the
    # sampled weak judge sees no trend in it
    from ultraseq import corpus

    psi = TF(bump(0.0, 1.6))
    odd = derivative_seq(corpus.named_function("delta"))
    assert pairing(odd, _NS, psi).tolist() == [0.0] * len(_NS)
    assert pairing(corpus.named_function("sin"), _NS, psi).tolist() == [0.0] * len(_NS)
    verdict = genfun.weak_assoc_fun(odd, const_fn(0.0), AssocKind.weak(), test_set=[psi])
    assert verdict.holds == "yes"
    assert verdict.witness["per_test_function"] == {psi.label: "yes"}


def _mollifier_profiles():
    from ultraseq import corpus

    return {
        "standard": standard_mollifier().profile,
        "corrected": corrected_mollifier().profile,
        "narrow": corpus._narrow_mollifier().profile,
    }


def test_four_panel_start_keeps_every_mollified_pairing_and_even_moment_bitwise():
    # a 16/32-node pair on one or two panels of a bump never settles, so
    # starting at four panels skips only levels that halve every panel
    from ultraseq import corpus

    phi = standard_mollifier().profile
    c = genfun._quad(lambda x: phi(x) ** 2, -1.0, 1.0)
    delta = corpus.named_function("delta")
    mixed = sub_seq(corpus.named_function("nsinv-delta-sq"), seq_scale(c, delta))
    for f in (delta, corpus.named_function("delta-sq"), mixed):
        for psi in genfun.default_test_set():
            want = []
            for n in _NS:
                lo, hi = f.support_fn(n)
                lo, hi = max(lo, psi.support[0]), min(hi, psi.support[1])
                want.append(_reference_quad(lambda x, n=n: f.at(n, x, 0) * psi(x), lo, max(lo, hi), start=0))
            assert pairing(f, _NS, psi).tobytes() == np.array(want).tobytes(), (f.label, psi.label)
    for name, profile in _mollifier_profiles().items():
        lo, hi = profile.support
        for k in range(0, genfun._MOMENT_Q_MAX + 1, 2):
            fn = lambda x, k=k: x ** k * profile(x)
            old, new = (_reference_quad(fn, lo, hi, start=s) for s in (0, 2))
            assert old.hex() == new.hex() == genfun._quad(fn, lo, hi).hex(), (name, k)


@pytest.mark.parametrize("name", ["standard", "corrected", "narrow", "off-centre"])
def test_lockstep_moments_are_each_moment_alone_bitwise(name):
    profiles = _mollifier_profiles()
    profiles["off-centre"] = bump(0.1, 0.4, 1.0 / (0.4 * BUMP_MASS))
    profile = profiles[name]
    lo, hi = profile.support
    ks = range(genfun._MOMENT_Q_MAX + 1)
    want = [genfun._quad(lambda x, k=k: x ** k * profile(x), lo, hi) for k in ks]
    assert [v.hex() for v in genfun._moments(profile, ks)] == [v.hex() for v in want]
    # the old loop: the mass, then moments 1, 2, ... up to the first that does not vanish
    q = next((k - 1 for k in ks[1:] if abs(want[k]) > genfun._MOMENT_TOL), genfun._MOMENT_Q_MAX)
    if abs(want[0] - 1.0) <= genfun._MASS_TOL:
        assert moment_class(profile) == (q, want[0])


# ---------------------------------------------------------------------------
# seminorms


def test_seminorm_sup_of_constant_function():
    f = poly_fn([0.0, 1.0])  # x on the probe box
    spec = SeminormSpec(nu=0)
    v = seminorm(f, 4, spec)
    # sup domain has radius max(nu, 2) = 2
    assert v == pytest.approx(2.0, rel=1e-6)


def test_seminorm_delta_growth():
    d = standard_mollifier().sequence()
    for n in (8, 64, 256):
        v0 = seminorm(d, n, SeminormSpec(nu=0))
        assert v0 == pytest.approx(n * PEAK, rel=1e-3)
    # one derivative adds one factor of n
    v1 = seminorm(d, 64, SeminormSpec(nu=1))
    v1_small = seminorm(d, 8, SeminormSpec(nu=1))
    slope = math.log(v1 / v1_small) / math.log(64 / 8)
    assert slope == pytest.approx(2.0, rel=0.05)


def test_chunked_seminorm_covers_the_whole_lattice():
    n, spec = 2 ** 14, SeminormSpec(nu=2)
    xs = _grid(-2.0, 2.0, spec.lattice(n)[0])
    assert len(xs) > 4 * genfun._CHUNK  # 524289 points: 32 full chunks and one point
    f = sin_fn()
    direct = max(float(np.max(np.abs(f.at(n, xs, j)))) for j in range(spec.nu + 1))
    assert seminorm(f, n, spec) == direct
    # |1 + x| peaks at the last lattice point, alone in the last chunk
    assert seminorm(poly_fn([1.0, 1.0]), n, SeminormSpec(nu=0)) == 3.0


@given(st.floats(-4.0, 0.0), st.floats(1e-6, 4.0), st.floats(1e-7, 0.5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
@example(-2.0, 4.0, 1.0 / 131072, 0)  # the radius-2 lattice at n = 2^14
def test_grid_points_by_index_are_the_grid(lo, width, h, seed):
    hi = lo + width
    xs = _grid(lo, hi, h)
    count = genfun._grid_count(lo, hi, h)
    assert len(xs) == count
    idx = np.concatenate([[0, count - 1], np.random.default_rng(seed).integers(0, count, 200)])
    assert genfun._grid_at(lo, (hi - lo) / (count - 1), hi, count - 1, idx).tobytes() == xs[idx].tobytes()


def test_derivative_seq_shifts_order():
    d = standard_mollifier().sequence()
    dd = derivative_seq(d)
    xs = np.array([0.01])
    np.testing.assert_allclose(dd.at(32, xs, order=0), d.at(32, xs, order=1))
    np.testing.assert_allclose(dd.at(32, xs, order=1), d.at(32, xs, order=2))


def test_negative_shifts_and_non_positive_factors_are_rejected():
    for shift in (-1, -3):
        with pytest.raises(ValueError, match="non-negative"):
            derivative_seq(sin_fn(), shift)
    for factor in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            reindex(sin_fn(), factor)


# ---------------------------------------------------------------------------
# pinned seminorm values, recorded before seminorms moved to derivative jets

_PINNED_SEMINORMS = [
    ('delta', 16, 0, 13.25710143789266),
    ('delta', 16, 2, 71268.70541257209),
    ('delta', 1024, 0, 848.4544920251302),
    ('delta', 1024, 2, 18682663511.673298),
    ('delta', 16384, 0, 13575.271872402083),
    ('delta', 16384, 2, 76524189743813.83),
    ('delta-sq', 16, 0, 175.75073853457562),
    ('delta-sq', 16, 2, 462471.1305077356),
    ('delta-sq', 1024, 0, 719875.0250376217),
    ('delta-sq', 1024, 2, 7758978050292.47),
    ('delta-sq', 16384, 0, 184288006.40963116),
    ('delta-sq', 16384, 2, 5.084923855039673e+17),
    ('nsinv-delta-sq', 16, 0, 10.984421158410976),
    ('nsinv-delta-sq', 16, 2, 28904.445656733475),
    ('nsinv-delta-sq', 1024, 0, 703.0029541383025),
    ('nsinv-delta-sq', 1024, 2, 7577127002.23874),
    ('nsinv-delta-sq', 16384, 0, 11248.047266212845),
    ('nsinv-delta-sq', 16384, 2, 31035912201169.895),
    ('sin', 16, 0, 0.9999998829558185),
    ('sin', 16, 2, 1.0),
    ('sin', 1024, 0, 0.9999999999900789),
    ('sin', 1024, 2, 1.0),
    ('sin', 16384, 0, 0.9999999999949599),
    ('sin', 16384, 2, 1.0),
    ('bump', 16, 0, 0.36787944117144233),
    ('bump', 16, 2, 7.749398724674113),
    ('bump', 1024, 0, 0.36787944117144233),
    ('bump', 1024, 2, 7.749704745762358),
    ('bump', 16384, 0, 0.36787944117144233),
    ('bump', 16384, 2, 7.749704933954609),
    ('corrected', 16, 0, 25.10142038406156),
    ('corrected', 16, 2, 149476.0367490657),
    ('corrected', 1024, 0, 1606.4909045799398),
    ('corrected', 1024, 2, 39184246177.54708),
    ('corrected', 16384, 0, 25703.854473279036),
    ('corrected', 16384, 2, 160498672343232.84),
    ('exp-sin', 16, 0, 2.718281510299992),
    ('exp-sin', 16, 2, 2.718281510299992),
    ('exp-sin', 1024, 0, 2.718281828432077),
    ('exp-sin', 1024, 2, 2.718281828432077),
    ('exp-sin', 16384, 0, 2.718281828445345),
    ('exp-sin', 16384, 2, 2.718281828445345),
]


def _pinned_sequence(name):
    from ultraseq import corpus

    if name == "corrected":
        return corrected_mollifier().sequence()
    if name == "exp-sin":
        return exp_seq(sin_fn())
    return corpus.named_function(name)


def test_seminorm_values_are_pinned():
    seqs = {}
    for name, n, nu, expected in _PINNED_SEMINORMS:
        f = seqs.setdefault(name, _pinned_sequence(name))
        assert seminorm(f, n, SeminormSpec(nu=nu)) == pytest.approx(expected, rel=1e-12), (name, n, nu)


# ---------------------------------------------------------------------------
# one lattice walk per (sequence, n, radius)


def _lattice_size(n, nu):
    """Points of the SeminormSpec(nu) lattice at index n, for a sequence
    without compact support."""
    h, radius = SeminormSpec(nu).lattice(n)
    return len(_grid(-radius, radius, h))


def _chunks(n, nu):
    """Jet calls of one walk of the SeminormSpec(nu) lattice at index n,
    for a sequence without compact support or majorant whose jet takes one
    int index."""
    return math.ceil(_lattice_size(n, nu) / genfun._CHUNK)


@pytest.mark.parametrize("nu_max", [1, 2, 3])
def test_classify_fun_walks_each_lattice_once(colombeau, counting_seq, nu_max):
    # unbounded support, so the radius-3 lattice is not the radius-2 one
    f, calls = counting_seq(add_seq(standard_mollifier().sequence(), sin_fn()))
    classify_fun(f, nu_max, colombeau)
    walks, points = {}, {}
    for n, k, _, size in calls:
        walks[n, k] = walks.get((n, k), 0) + 1
        points[n, k] = points.get((n, k), 0) + size
    # per index: orders 0..2 on radius 2, and order 3 on radius 3.  Without
    # a majorant every point is walked once; a jet that takes one int index
    # is called once per index in each call of the walk, and no piece of a
    # lattice is split between two calls
    orders = {2} | ({3} if nu_max == 3 else set())
    assert set(walks) == {(n, k) for n in genfun.DEFAULT_SAMPLE_NS for k in orders}
    for (n, k), chunks in walks.items():
        assert chunks == _chunks(n, k), (n, k)
        assert points[n, k] == _lattice_size(n, k), (n, k)


class _RecordingSpace:
    """A number space that keeps the channel bundle it was asked to classify."""

    def __init__(self, space):
        self.space, self.bundle = space, None

    def classify(self, bundle):
        self.bundle = bundle
        return self.space.classify(bundle)


@pytest.mark.parametrize("nu_max", [2, 3])
def test_classify_fun_channels_are_the_seminorms(colombeau, counting_seq, nu_max):
    # a user jet has no growth law, so its channels are walked
    f, _ = counting_seq(add_seq(standard_mollifier().sequence(), sin_fn()))
    space = _RecordingSpace(colombeau)
    classify_fun(f, nu_max, space)
    ns = genfun.DEFAULT_SAMPLE_NS
    for nu in range(nu_max + 1):
        logs = space.bundle[f"p_{nu}"].log_values(np.asarray(ns)).tolist()
        assert logs == [math.log(seminorm(f, n, SeminormSpec(nu=nu))) for n in ns], nu


@pytest.mark.parametrize("nu_max", [2, 3])
def test_classify_fun_law_channels_are_exact(colombeau, lattice_walks, nu_max):
    # the mollified summand strictly dominates sin, so every channel has a
    # lower law: p_nu grows as n^(1+nu), with no walk
    f = add_seq(standard_mollifier().sequence(), sin_fn())
    report = classify_fun(f, nu_max, colombeau)
    assert not lattice_walks
    assert report.verdict == "moderate"
    _assert_laws_bound_the_walk(f)
    for nu in range(nu_max + 1):
        v = report.channel_norms[1, f"p_{nu}"]
        assert v.exact and v.log_value == 1 + nu, nu
        assert v.witness == f"growth law: p_{nu} = Theta({growth.format_expr(growth.parse(f'n^{1 + nu} + 1'))})"


def test_seminorm_table_walks_each_radius_once(lattice_walks):
    f = sin_fn()
    p = genfun._seminorm_table(f)
    reads = [([64], 0), ([64], 3), ([16, 64], 1), ([64, 256, 16], 2), ([64], 3), ([256, 64], 0)]
    values = [p(ns, nu) for ns, nu in reads]
    # a read walks the indices it has not read before at its radius
    assert [(n, r) for _, n, r in lattice_walks] == [(64, 2), (64, 3), (16, 2), (256, 2)]
    assert values == [[seminorm(f, n, SeminormSpec(nu=nu)) for n in ns] for ns, nu in reads]


def _counting_with_majorant(f):
    """f with a jet and a majorant that record each call as (n, k, number
    of points, resp. cells); returns (wrapped sequence, jet calls, majorant
    calls).  Unlike the `counting_seq` fixture it keeps the majorant, the
    constant rows and index arrays, so the lattice walk skips cells and
    serves its indices as it does for f."""
    jets, bounds = [], []

    def jet(n, xs, k):
        jets.append((n, k, xs.size))
        return f.jet(n, xs, k)

    def majorant(n, a, b, k):
        bounds.append((n, k, a.size))
        return f.majorant(n, a, b, k)

    g = SmoothSeq(f.label, jet, f.max_order, f.support_fn, None if f.majorant is None else majorant)
    return genfun._derived(g, f.n_free, f.index_arrays, const_rows=f.const_rows), jets, bounds


def test_growth_scale_is_evaluated_once_per_walk(monkeypatch):
    calls = []
    value = growth.eval_value

    def counting(expr, n):
        calls.append(np.asarray(n).tolist())
        return value(expr, n)

    monkeypatch.setattr(growth, "eval_value", counting)
    f, jets, bounds = _counting_with_majorant(seq_scale(growth.parse("log(n)"), sin_fn()))
    ns = list(genfun.DEFAULT_SAMPLE_NS)
    for walk in (ns, ns, [64], ns):
        genfun._order_sups(f, walk, 2)
    # a walk asks for its indices in each jet and majorant call; a
    # one-entry memo on them evaluates the scale once per walk, and once
    # for the same walk twice in a row
    assert len(jets) + len(bounds) > 4 * 3
    assert calls == [ns, [64], ns]


def test_callable_scale_is_called_once_per_walk():
    # the walk makes three jet calls and two majorant calls, which ask the
    # scale for the same indices
    calls = []
    f, jets, bounds = _counting_with_majorant(seq_scale(lambda n: calls.append(n) or 2.0, sin_fn()))
    seminorm(f, 2 ** 14, SeminormSpec(nu=2))
    assert len(jets) == 3 and len(bounds) == 2
    assert calls == [2 ** 14]
    calls.clear()
    genfun._order_sups(f, genfun.DEFAULT_SAMPLE_NS, 2)
    assert calls == list(genfun.DEFAULT_SAMPLE_NS)


# ---------------------------------------------------------------------------
# the jet kernels against their reference formulas: 2-D polyval, the
# boolean-mask bump, stacked sin rows, the zeros-plus-binomial Leibniz sum
# and the full-block nan fold of the lattice walk


def _reference_bump_coeffs():
    q = Polynomial([1.0, 0.0, -1.0])
    u = Polynomial([0.0, 1.0])
    p = Polynomial([1.0])
    rows = np.zeros((9, 25))
    for k in range(9):
        rows[k, : len(p.coef)] = p.coef
        p = p.deriv() * q * q + u * (4.0 * k * q - 2.0) * p
    return rows


_REFERENCE_BUMP_COEFFS = _reference_bump_coeffs()


def _reference_bump(center, width, amplitude):
    def jet(n, xs, k):
        us = (xs - center) / width
        q = 1.0 - us * us
        safe = q > 0.005
        out = np.zeros((k + 1,) + us.shape)
        if np.any(safe):
            qs = q[safe]
            e = np.exp(-1.0 / qs)
            ps = polyval(us[safe], _REFERENCE_BUMP_COEFFS[: k + 1, : 3 * k + 1].T)
            for j in range(k + 1):
                out[j, safe] = amplitude * width ** (-j) * (e * ps[j] / qs ** (2 * j))
        return out

    return genfun._function("ref-bump", jet, 8, (center - width, center + width))


def _reference_poly(coeffs):
    derivs = np.zeros((65, len(coeffs)))
    for j in range(65):
        d = polyder(np.asarray(coeffs, dtype=float), j)
        derivs[j, : len(d)] = d
    return genfun._function("ref-poly", lambda n, xs, k: polyval(xs, derivs[: k + 1].T), 64)


def _reference_sin(freq):
    def jet(n, xs, k):
        waves = (np.sin(freq * xs), np.cos(freq * xs) if k else None)
        return np.stack([(-1) ** (j // 2) * freq ** j * waves[j % 2] for j in range(k + 1)])

    return genfun._function("ref-sin", jet, 64)


def _reference_leibniz(fa, fb, k):
    out = np.zeros_like(fa)
    for j in range(k + 1):
        for i in range(j + 1):
            out[j] += math.comb(j, i) * fa[i] * fb[j - i]
    return out


def _reference_product(a, b):
    def jet(n, xs, k):
        fa = a.jet(n, xs, k)
        return _reference_leibniz(fa, fa if b is a else b.jet(n, xs, k), k)

    p = product_seq(a, b)
    return genfun._derived(SmoothSeq("ref-product", jet, p.max_order, p.support_fn), p.n_free, p.index_arrays)


def _grid(lo, hi, h):
    """The lattice of step about h on [lo, hi] that a walk reads."""
    if hi < lo:
        return np.asarray([])
    return np.linspace(lo, hi, genfun._grid_count(lo, hi, h))


def _reference_order_sups(f, n, nu):
    sup = f.support_fn(n)
    h, radius = SeminormSpec(nu).lattice(n, None if sup is None else sup[1] - sup[0])
    lo, hi = -radius, radius
    rows = np.zeros(nu + 1)
    if sup is not None:
        lo, hi = max(lo, sup[0]), min(hi, sup[1])
        if hi <= lo:
            return rows
    xs = _grid(lo, hi, h)
    for start in range(0, len(xs), genfun._CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.abs(f.jet(n, xs[start : start + genfun._CHUNK], nu))
        rows = np.maximum(rows, np.where(np.isnan(vals), np.inf, vals).max(axis=1))
    return rows


_bump_params = st.tuples(
    st.floats(-0.5, 0.5), st.floats(0.05, 1.5), st.sampled_from([1.0, 0.5, 2.25, 1.0 / 0.44399381616807865])
)
_kernels = st.one_of(
    st.tuples(st.just("bump"), _bump_params),
    st.tuples(st.just("poly"), st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.3, 1.7]), min_size=1, max_size=6)),
    st.tuples(st.just("sin"), st.sampled_from([1.0, 0.5, 3.0, 7.25])),
)


def _kernel_pair(kernel):
    """(kernel under test, its reference) for one drawn constructor."""
    name, params = kernel
    if name == "bump":
        return bump(*params), _reference_bump(*params)
    if name == "poly":
        return poly_fn(params), _reference_poly(params)
    return sin_fn(params), _reference_sin(params)


def _point_sets():
    """Sorted lattice chunks, unsorted 2-D quadrature node arrays, 0-d
    points and point sets whose bump-safe part is not one run."""
    lattice = st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 2.0), st.integers(1, 3000)).map(
        lambda t: np.linspace(t[0], t[0] + t[1], t[2])
    )
    nodes = genfun._gl_rules()[0]

    def quadrature(t):
        edges = np.linspace(t[0], t[0] + t[1], t[2] + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        return np.concatenate([mid[:, None] - half[:, None] * nodes, mid[:, None] + half[:, None] * nodes], axis=1)

    quad = st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 3.0), st.integers(1, 6)).map(quadrature)
    point = st.floats(-2.0, 2.0).map(np.asarray)
    scattered = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40).map(np.asarray)
    gaps = st.sampled_from([np.array([-0.5, 1.9, 0.3, -1.2, 0.0]), np.array([0.9, 0.0, -0.9, 0.1])])
    return st.one_of(lattice, quad, point, scattered, gaps)


@given(_kernels, _kernels, _point_sets(), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_jet_kernels_match_their_reference_formulas(kernel_a, kernel_b, xs, k):
    a, ref_a = _kernel_pair(kernel_a)
    b, ref_b = _kernel_pair(kernel_b)
    for f, ref in ((a, ref_a), (b, ref_b)):
        got, want = f.jet(1, xs, k), ref.jet(1, xs, k)
        assert got.shape == want.shape == (k + 1,) + xs.shape
        assert np.array_equal(got, want), f.label  # a zero's sign may differ
    fa, fb = a.jet(1, xs, k), b.jet(1, xs, k)
    for left, right in ((a, b), (a, a)):
        got = product_seq(left, right).jet(1, xs, k)
        want = _reference_leibniz(fa, fa if right is a else fb, k)
        assert np.array_equal(got, want), (left.label, right.label)


_SCALES = ("-1", "2.5", "log(n)", "n^0.5", "n", "exp(-n)", "exp(n)")


def _trees():
    leaves = st.one_of(_kernels, st.tuples(st.just("mollified"), _bump_params, st.integers(1, 2)))
    return st.recursive(
        leaves,
        lambda t: st.one_of(
            st.tuples(st.just("add"), t, t),
            st.tuples(st.just("product"), t, t),
            st.tuples(st.just("square"), t),
            st.tuples(st.just("scale"), st.sampled_from(_SCALES), t),
            st.tuples(st.just("exp"), t),
            st.tuples(st.just("derivative"), t),
        ),
        max_leaves=4,
    )


def _build(tree):
    """(sequence under test, reference sequence) for one drawn tree."""
    name = tree[0]
    if name in ("bump", "poly", "sin"):
        return _kernel_pair(tree)
    if name == "const":
        return const_fn(tree[1]), const_fn(tree[1])
    if name == "bare":
        # the kernel without its majorant, as the `counting_seq` fixture wraps it
        return tuple(SmoothSeq(f.label, f.jet, f.max_order, f.support_fn) for f in _kernel_pair(tree[1]))
    if name == "mollified":
        return tuple(mollified(f, power=tree[2]) for f in (bump(*tree[1]), _reference_bump(*tree[1])))
    if name == "scale":
        f, ref = _build(tree[2])
        if tree[1] in ("-1", "2.5"):
            return seq_scale(float(tree[1]), f), seq_scale(float(tree[1]), ref)
        expr = growth.parse(tree[1])
        # the reference evaluates the scale at every call
        return seq_scale(expr, f), seq_scale(lambda n: float(growth.eval_value(expr, max(n, expr.eval_n_min))), ref)
    pairs = [_build(t) for t in tree[1:]]
    if name == "add":
        return add_seq(pairs[0][0], pairs[1][0]), add_seq(pairs[0][1], pairs[1][1])
    if name == "product":
        return product_seq(pairs[0][0], pairs[1][0]), _reference_product(pairs[0][1], pairs[1][1])
    (f, ref), = pairs
    if name == "reindex":
        return reindex(f, 3), reindex(ref, 3)
    if name == "relabel":
        return constant_seq(f, "relabelled"), constant_seq(ref, "relabelled")
    if name == "square":
        return square_seq(f), _reference_product(ref, ref)
    if name == "exp":
        return exp_seq(f), exp_seq(ref)
    if f.max_order == 0:
        return f, ref
    return derivative_seq(f), derivative_seq(ref)


@given(_trees(), st.sampled_from([4, 64, 1024]), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
# exp(e^n) overflows, and inf times the bump's flushed edge is nan
@example(("product", ("exp", ("scale", "exp(n)", ("poly", [1.0]))), ("bump", (0.0, 1.0, 1.0))), 64, 2)
def test_lattice_walk_rows_match_the_reference_bitwise(tree, n, nu):
    f, ref = _build(tree)
    nu = min(nu, f.max_order)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = genfun._order_sups(f, [n], nu)[0], _reference_order_sups(ref, n, nu)
    assert got.tobytes() == want.tobytes(), (f.label, n, nu)


def _all_trees():
    """`_trees` plus the leaves and combinators it does not draw: constants,
    kernels without a majorant, reindexing and relabelling."""
    leaves = st.one_of(
        _kernels,
        st.tuples(st.just("mollified"), _bump_params, st.integers(1, 2)),
        st.tuples(st.just("const"), st.sampled_from([0.0, 1.0, -2.5])),
        st.tuples(st.just("bare"), _kernels),
    )
    return st.recursive(
        leaves,
        lambda t: st.one_of(
            st.tuples(st.just("add"), t, t),
            st.tuples(st.just("product"), t, t),
            st.tuples(st.just("square"), t),
            st.tuples(st.just("scale"), st.sampled_from(_SCALES), t),
            st.tuples(st.just("exp"), t),
            st.tuples(st.just("derivative"), t),
            st.tuples(st.just("reindex"), t),
            st.tuples(st.just("relabel"), t),
        ),
        max_leaves=4,
    )


def _bare(tree):
    """Whether a drawn tree has a leaf without a majorant."""
    return tree[0] == "bare" or any(isinstance(t, tuple) and _bare(t) for t in tree[1:])


def _lattice(f, n, nu):
    """The lattice a walk of f at index n and order nu visits."""
    sup = f.support_fn(n)
    h, radius = SeminormSpec(nu).lattice(n, None if sup is None else sup[1] - sup[0])
    lo, hi = -radius, radius
    if sup is not None:
        lo, hi = max(lo, sup[0]), min(hi, sup[1])
    return _grid(lo, hi, h)


@given(_all_trees(), st.sampled_from([4096, 16384]), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
# the maximum of |1 + x| is the last lattice point, alone in the last cell
@example(("poly", [1.0, 1.0]), 16384, 0)
# exp(-n) underflows at 2^14: every point of every row is an exact 0
@example(("scale", "exp(-n)", ("sin", 1.0)), 16384, 2)
# exp(e^n) overflows, and inf times the bump's flushed edge is nan
@example(("product", ("exp", ("scale", "exp(n)", ("poly", [1.0]))), ("bump", (0.0, 1.0, 1.0))), 4096, 2)
# bump rows up to order 5, whose bounds grow like q^(-2j) at the guard edge
@example(("derivative", ("derivative", ("bump", (0.3, 0.1, 2.25)))), 16384, 3)
# a negative scale on a product whose factors change sign
@example(("scale", "-1", ("product", ("sin", 3.0), ("poly", [0.3, -1.7, 1.0]))), 16384, 2)
def test_pruned_lattice_walk_rows_match_the_reference_bitwise(tree, n, nu):
    # lattices this large have many cells in every pass of the walk
    f, ref = _build(tree)
    nu = min(nu, f.max_order)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = genfun._order_sups(f, [n], nu)[0], _reference_order_sups(ref, n, nu)
    assert got.tobytes() == want.tobytes(), (f.label, n, nu, len(_lattice(f, n, nu)))


@given(
    _all_trees(),
    st.sampled_from([1, 4, 64, 1024, 16384]),
    st.integers(0, 4),
    st.floats(0.0, 1.0),
    st.tuples(st.floats(-2.5, 2.5), st.sampled_from([0.0, 1e-5, 1e-3, 0.05, 0.5])),
    st.integers(0, 2 ** 32 - 1),
)
# about 3 in 10 drawn trees have a leaf without a majorant and end early
@settings(max_examples=200, deadline=None)
# cells of a bump across the guard edge q = 0.005, u = 0.99749...
@example(("derivative", ("bump", (0.0, 1.0, 1.0))), 1024, 4, 0.99, (0.9974, 1e-3), 0)
@example(("bump", (0.0, 1.0, 1.0)), 1024, 4, 0.0, (-0.9976, 1e-5), 1)
def test_majorants_bound_the_jet_on_their_cells(tree, n, k, where, cell, seed):
    f = _build(tree)[0]
    # a sequence has a majorant exactly when each of its leaves has one
    assert (f.majorant is None) == _bare(tree), f.label
    if f.majorant is None:
        return
    k = min(k, f.max_order)
    # a cell of the walk's lattice of each size the walk cuts, and one anywhere
    xs = _lattice(f, n, k)
    if not len(xs):
        xs = np.zeros(1)  # the supports of a product do not meet
    start = min(int(where * len(xs)), len(xs) - 1)
    cells = [xs[start : start + size] for size in genfun._CELLS]
    cells.append(np.linspace(cell[0], cell[0] + cell[1], 129))
    a, b = np.array([c[0] for c in cells]), np.array([c[-1] for c in cells])
    # one call for all the cells, each at its own index, as a walk makes it:
    # the lattice cells at n, the other one at a smaller index
    index = np.array([n] * (len(cells) - 1) + [max(n // 4, 1)])
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        bound = f.majorant(index, a, b, k)
        assert bound.shape == (k + 1, len(cells))
        for i, points in enumerate(cells):
            points = np.concatenate([points, rng.uniform(a[i], b[i], 64)])
            vals = np.abs(f.jet(int(index[i]), points, k))
            for j in range(k + 1):
                if np.isfinite(bound[j, i]):  # nan or inf claims nothing
                    # an exact 0 bounds exact zeros; a nan jet value fails
                    assert np.all(vals[j] <= bound[j, i] * genfun._PAD), (f.label, j, i, bound[j, i])


def test_constant_rows_of_each_constructor():
    quad, line = poly_fn([0.3, 0.2, 0.1]), poly_fn([1.0, 2.0])
    assert quad.const_rows == frozenset(range(2, 65))
    assert const_fn(2.0).const_rows == frozenset(range(65))
    scaled = seq_scale(growth.parse("log(n)"), quad)
    for f in (scaled, seq_scale(-1.5, quad), seq_scale(lambda n: n, quad), reindex(quad, 2), constant_seq(quad, "q")):
        assert f.const_rows == quad.const_rows, f.label
    assert derivative_seq(scaled, 2).const_rows == frozenset(range(63))
    assert add_seq(quad, line).const_rows == frozenset(range(2, 65))
    assert add_seq(quad, sin_fn()).const_rows == frozenset()
    # a Leibniz row is constant only when each of its terms multiplies two
    assert product_seq(const_fn(2.0), const_fn(3.0)).const_rows == frozenset(range(65))
    assert product_seq(const_fn(2.0), line).const_rows == square_seq(line).const_rows == frozenset()
    for f in (bump(), sin_fn(), exp_seq(const_fn(1.0)), mollified(bump()), standard_mollifier().sequence()):
        assert f.const_rows == frozenset(), f.label


@given(_all_trees(), st.sampled_from([1, 64, 16384]), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
@example(("scale", "log(n)", ("product", ("poly", [0.3, 0.2, 0.1]), ("const", -2.5))), 64, 4)
@example(("derivative", ("add", ("poly", [1.0, -2.0, 0.3]), ("const", 1.0))), 16384, 3)
def test_constant_rows_are_one_float_at_every_point(tree, n, k):
    f = _build(tree)[0]
    k = min(k, f.max_order)
    xs = np.concatenate([np.linspace(-2.0, 2.0, 257), [-1e-3, 0.7, 1.9]])
    with np.errstate(all="ignore"):
        rows = f.jet(n, xs, k)
    for j in f.const_rows:
        if j <= k:
            bits = rows[j].view(np.int64)
            assert (bits == bits[0]).all(), (f.label, j)


def _pruned_sequences():
    from ultraseq import corpus, temperate

    poly = poly_fn([0.3, 0.2, 0.1], label="0.3 + 0.2x + 0.1x^2")
    f = seq_scale(growth.parse("log(n)"), sin_fn())
    k = seq_scale(growth.parse("exp(-log(n)^2)"), bump(0.0, 1.0))
    return {
        "sin": sin_fn(),
        "log(n) poly": seq_scale(growth.parse("log(n)"), poly),
        "delta^2": corpus.named_function("delta-sq"),
        "2fk + k^2": temperate.square_map().difference(f, k),
        "e^-n sin": corpus.named_function("decaying-sin"),
    }


# jet points of one walk of orders 0..2 at n = 2^14, the probes at the
# cells' middle points included.  The scaled quadratic's order-2 row is
# constant, so the probes of the 513 coarse cells read it, and the last
# one, where orders 0 and 1 peak, is one point, its own probe; the square
# of delta has a 257-point lattice, one cell of the coarse pass, whose five
# fine cells are probed and four walked but for their probes; e^-n
# underflows, so every cell's majorant is an exact 0
_PRUNED_POINTS = {"sin": 1743, "log(n) poly": 513, "delta^2": 257, "2fk + k^2": 10569, "e^-n sin": 513}


def test_pruned_walk_evaluates_pinned_point_counts():
    n = 2 ** 14
    counts, lattices = {}, {}
    for name, f in _pruned_sequences().items():
        g, jets, bounds = _counting_with_majorant(f)
        assert genfun._order_sups(g, [n], 2)[0].tobytes() == _reference_order_sups(f, n, 2).tobytes()
        counts[name] = sum(size for _, _, size in jets)
        lattices[name] = len(_lattice(f, n, 2))
    assert lattices == {
        "sin": 524289, "log(n) poly": 524289, "delta^2": 257, "2fk + k^2": 262145, "e^-n sin": 524289
    }
    assert counts == _PRUNED_POINTS


def _int_only(f):
    """f behind a user jet and majorant, which take one int index each."""

    def jet(n, xs, k):
        assert type(n) is int
        return f.jet(n, xs, k)

    def majorant(n, a, b, k):
        assert type(n) is int
        return f.majorant(n, a, b, k)

    return SmoothSeq(f.label, jet, f.max_order, f.support_fn, None if f.majorant is None else majorant)


@given(
    _all_trees(),
    st.lists(st.sampled_from(genfun.DEFAULT_SAMPLE_NS), max_size=4),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
# the supports of the factors do not meet: every lattice is empty
@example(("product", ("bump", (-0.5, 0.05, 1.0)), ("bump", (0.5, 0.05, 1.0))), [16, 16384], 2, False)
# a mollifier's lattice shrinks with n, and one index is read twice
@example(("mollified", (0.1, 0.8, 1.0), 2), [1024, 16, 1024, 4096], 3, False)
@example(("scale", "log(n)", ("bare", ("sin", 3.0))), [16384, 64], 1, True)
@example(("exp", ("scale", "n^0.5", ("bump", (0.0, 1.0, 1.0)))), [16, 32, 2048], 0, True)
def test_multi_index_walk_rows_are_each_index_alone_bitwise(tree, ns, nu, int_only):
    f, ref = _build(tree)
    if int_only:
        f = _int_only(f)
    nu = min(nu, f.max_order)
    with np.errstate(over="ignore", invalid="ignore"):
        got = genfun._order_sups(f, ns, nu)
        want = [_reference_order_sups(ref, n, nu) for n in ns]
    assert got.shape == (len(ns), nu + 1)
    for n, row, ref_row in zip(ns, got, want):
        assert row.tobytes() == ref_row.tobytes(), (f.label, n, nu)


def _claims_nothing(f):
    """f with a majorant that bounds nothing (inf on every cell): a walk
    cuts every cell in every pass and keeps it."""
    g = SmoothSeq(f.label, f.jet, f.max_order, f.support_fn, lambda n, a, b, k: np.full((k + 1, len(a)), np.inf))
    return genfun._derived(g, f.n_free, f.index_arrays)


@pytest.mark.parametrize(
    "make, cells",
    [
        (sin_fn, [1559, 880]),
        (lambda: _claims_nothing(sin_fn()), [1559, genfun._CHUNK, 8384]),
        (lambda: SmoothSeq("bare", sin_fn().jet, 64), []),
    ],
    ids=["pruned", "claims nothing", "no majorant"],
)
def test_no_call_of_a_walk_takes_more_than_a_chunk(make, cells):
    # all eleven radius-3 lattices at once: 1.6 million points in 1559
    # coarse cells, so no lattice-sized array is built.  When nothing is
    # pruned, the fine pass cuts 24768 cells (the eleven one-point coarse
    # cells are not cut again) and bounds them in two calls
    f = make()
    g, jets, bounds = _counting_with_majorant(f)
    ns = genfun.DEFAULT_SAMPLE_NS
    rows = genfun._order_sups(g, ns, 3)
    assert max(size for _, _, size in jets) <= genfun._CHUNK
    assert [size for _, _, size in bounds] == cells
    assert rows.tobytes() == np.array([_reference_order_sups(f, n, 3) for n in ns]).tobytes()


# ---------------------------------------------------------------------------
# classification


def test_classify_fun_delta_moderate(colombeau):
    d = standard_mollifier().sequence()
    r = classify_fun(d, 2, colombeau)
    assert r.verdict == "moderate" and r.conclusive


def test_classify_fun_negligible(colombeau):
    j = seq_scale(growth.parse("exp(-n)"), sin_fn())
    r = classify_fun(j, 2, colombeau)
    assert r.verdict == "negligible"


def test_classify_fun_divergent(colombeau):
    f = seq_scale(growth.parse("exp(n)"), sin_fn())
    r = classify_fun(f, 1, colombeau)
    assert r.verdict == "divergent"


def test_make_element_rejects_divergent(colombeau):
    f = seq_scale(growth.parse("exp(n)"), sin_fn())
    with pytest.raises(NotModerate):
        make_element(f, FunctionSpace(colombeau, nu_max=1))


def test_square_seq_is_pointwise_square():
    d = standard_mollifier().sequence()
    sq = square_seq(d)
    xs = np.linspace(-0.1, 0.1, 5)
    np.testing.assert_allclose(sq.at(16, xs), d.at(16, xs) ** 2)


def test_exp_seq_chain_rule():
    f = poly_fn([0.0, 1.0])  # x
    e = exp_seq(f)
    xs = np.array([0.0, 0.5])
    np.testing.assert_allclose(e.at(4, xs), np.exp(xs))
    np.testing.assert_allclose(e.at(4, xs, order=1), np.exp(xs))
    np.testing.assert_allclose(e.at(4, xs, order=2), np.exp(xs))


# ---------------------------------------------------------------------------
# pairings and weak association


def test_pairing_recovers_point_value():
    d = standard_mollifier().sequence()
    psi = TF(bump(0.0, 1.0, 1.0))
    val = pairing(d, 256, psi)
    assert abs(val - math.exp(-1.0)) <= 1e-3


def test_pairing_of_squared_delta_grows_linearly():
    d = standard_mollifier().sequence()
    sq = square_seq(d)
    psi = TF(bump(0.0, 1.0, 1.0))
    v1, v2 = pairing(sq, 128, psi), pairing(sq, 512, psi)
    slope = math.log(v2 / v1) / math.log(4.0)
    assert slope == pytest.approx(1.0, abs=0.1)
    # the coefficient is psi(0) * integral of phi^2
    assert v2 / 512 == pytest.approx(math.exp(-1.0) * SQUARED_INTEGRAL, rel=1e-2)


def test_weak_assoc_delta_not_zero(colombeau):
    from ultraseq.genfun import weak_assoc_fun

    d = standard_mollifier().sequence()
    z = const_fn(0.0)
    v = weak_assoc_fun(d, z, AssocKind.weak(), space=colombeau)
    assert v.holds == "no"


def test_weak_assoc_mollification_converges(colombeau):
    # delta_n paired against psi tends to psi(0): delta_n - delta_2n ~ 0
    from ultraseq.genfun import weak_assoc_fun

    d = standard_mollifier().sequence()
    v = weak_assoc_fun(d, reindex(d, 2), AssocKind.weak(), space=colombeau)
    assert v.holds == "yes"


def test_weak_assoc_pairs_only_the_windows_its_judge_reads(colombeau, monkeypatch):
    # the weak judge tests the last 4 dyadic window maxima, one index each
    from ultraseq.genfun import weak_assoc_fun

    paired = []

    def recording(f, n, psi):
        paired.append(list(n))
        return pairing(f, n, psi)

    monkeypatch.setattr(genfun, "pairing", recording)
    d = standard_mollifier().sequence()
    psi = genfun.default_test_set()[0]
    v = weak_assoc_fun(square_seq(d), const_fn(0.0), AssocKind.weak(), test_set=[psi], space=colombeau)
    assert v.holds == "no"
    assert paired == [list(genfun._PAIRING_NS[-4:])] == [[128, 256, 512, 1024]]


# ---------------------------------------------------------------------------
# lockstep pairings: one quadrature over many indices, the same floats


_NS = list(genfun._PAIRING_NS)


def _pairing_cases():
    import random

    from ultraseq import corpus

    named = [corpus.named_function(name) for name in ("delta", "delta-sq", "nsinv-delta-sq", "delta-corrected")]
    rng = random.Random(15)
    drawn = [corpus.random_smooth(rng) for _ in range(6)] + [sub_seq(*corpus.random_smooth_pair(rng)) for _ in range(3)]
    return named + drawn


@pytest.mark.parametrize("f", _pairing_cases(), ids=lambda f: f.label)
def test_pairing_over_indices_is_each_index_alone_bitwise(f):
    for psi in genfun.default_test_set():
        got = pairing(f, _NS, psi)
        want = [pairing(f, n, psi) for n in _NS]
        assert isinstance(want[0], float)
        assert got.tobytes() == np.array(want).tobytes(), (f.label, psi.label)


def _index_array_cases():
    d = standard_mollifier().sequence()
    p = poly_fn([0.3, -0.2, 0.1])
    return {
        "mollified": d,
        "mollified^2": mollified(bump(0.1, 0.6), power=2),
        "reindex": reindex(d, 3),
        "scale constant": seq_scale(-2.5, d),
        "scale growth": seq_scale(growth.parse("n^-1 + log(n)"), d),
        "scale loglog": seq_scale(growth.parse("loglog(n)^2"), sin_fn()),
        "scale callable": seq_scale(lambda n: math.sqrt(n), p),
        "derivative": derivative_seq(d, 2),
        "exp": exp_seq(seq_scale(growth.parse("n^-1"), p)),
        "product": product_seq(d, seq_scale(growth.parse("n^0.5"), sin_fn(2.0))),
        "square": square_seq(d),
        "add": add_seq(d, reindex(d, 2)),
        "sub": sub_seq(square_seq(d), seq_scale(0.675, d)),
    }


@pytest.mark.parametrize("name", sorted(_index_array_cases()))
@given(st.lists(st.sampled_from([1, 2, 3, 16, 64, 1000, 1024]), min_size=1, max_size=40), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_index_array_jet_is_each_index_alone_bitwise(name, ns, k):
    f = _index_array_cases()[name]
    assert f.index_arrays
    n = np.array(ns)
    # points near the origin, where the n-scaled sequences live
    xs = np.linspace(-0.9, 0.7, len(ns)) / np.sqrt(n)
    k = min(k, f.max_order)
    with np.errstate(over="ignore", invalid="ignore"):
        got = f.jet(n, xs, k)
        assert got.shape == (k + 1, len(ns))
        for m in set(ns):
            sel = n == m
            assert got[:, sel].tobytes() == f.jet(m, xs[sel], k).tobytes(), (name, m)
    # and shaped like the points
    square = f.jet(n[: len(ns) // 2 * 2].reshape(2, -1), xs[: len(ns) // 2 * 2].reshape(2, -1), k)
    assert square.tobytes() == got[:, : len(ns) // 2 * 2].tobytes()


def _delta_differences(d, other):
    """delta^2 - delta, delta^2 - c*delta and n^-1 delta^2 - c*delta, with
    delta^2 built on d and the subtracted delta on other."""
    sq, c_other = square_seq(d), seq_scale(0.675, other)
    return {
        "d2-d": sub_seq(sq, other),
        "d2-cd": sub_seq(sq, c_other),
        "nd2-cd": sub_seq(seq_scale(growth.parse("n^-1"), sq), c_other),
    }


def test_shared_subtrees_give_the_unshared_rows_bitwise():
    one, twin = standard_mollifier().sequence(), standard_mollifier().sequence()
    assert twin is not one and twin.key == one.key
    # reindexing by 1 keeps the values and makes a distinct subtree
    unshared = _delta_differences(one, reindex(one, 1))
    n = np.repeat(_NS, 3)
    xs = np.linspace(-0.9, 0.7, len(n)) / n
    for name, f in _delta_differences(one, one).items():
        g, ref = _delta_differences(one, twin)[name], unshared[name]
        assert genfun._shared_steps(f._tree.occurrences) is not None
        assert genfun._shared_steps(ref._tree.occurrences) is None
        for index, points in ((n, xs), (64, xs), (1024, xs[:5])):
            want = ref.jet(index, points, 2).tobytes()
            assert f.jet(index, points, 2).tobytes() == want, (name, index)
            assert g.jet(index, points, 2).tobytes() == want, (name, index)


def test_a_shared_leaf_is_evaluated_once_per_root_call(counting_seq):
    d = standard_mollifier().sequence()
    raw, calls = counting_seq(d)
    xs = np.linspace(-0.01, 0.01, 9)
    for (name, f), ref in zip(_delta_differences(raw, raw).items(), _delta_differences(d, d).values()):
        calls.clear()
        got = f.jet(64, xs, 1)
        assert len(calls) == 1, name
        assert got.tobytes() == ref.jet(64, xs, 1).tobytes()
        # `at` splits an index array into one root call per distinct index
        calls.clear()
        f.at(np.array([16, 64, 16, 16]), xs[:4])
        assert sorted(n for n, _, _, _ in calls) == [16, 64], name
    # unshared, the leaf is evaluated once per occurrence
    calls.clear()
    sub_seq(square_seq(raw), reindex(raw, 1)).jet(64, xs, 1)
    assert len(calls) == 2


def test_each_consumer_of_a_shared_subtree_owns_its_copy():
    # a constant scale multiplies its operand's jet in place, so a scale by
    # 0 overwrites the copy it is given
    d = standard_mollifier().sequence()
    n = np.repeat(_NS, 2)
    xs = np.linspace(-0.5, 0.5, len(n)) / n
    for first, second in ((0.0, 3.0), (2.0, 3.0), (3.0, 0.0)):
        f = add_seq(seq_scale(first, d), seq_scale(second, d))
        ref = add_seq(seq_scale(first, d), seq_scale(second, reindex(d, 1)))
        assert genfun._shared_steps(f._tree.occurrences) is not None
        for index in (n, 256):
            got = f.jet(index, xs, 3)
            assert got.tobytes() == ref.jet(index, xs, 3).tobytes()
            np.testing.assert_allclose(got, (first + second) * d.jet(index, xs, 3), rtol=1e-15)


def test_callable_scale_is_called_once_per_distinct_index():
    calls = []
    f = seq_scale(lambda n: calls.append(n) or float(n), bump())
    n = np.array([4, 8, 4, 4, 16, 8])
    f.at(n, np.zeros(6))
    assert calls == [4, 8, 16] and all(type(m) is int for m in calls)


def test_a_user_jet_is_only_called_with_an_int_index(counting_seq):
    d = standard_mollifier().sequence()
    raw, calls = counting_seq(d)
    assert d.index_arrays and not raw.index_arrays
    # a combinator over a user jet passes its index on, so it is int-only too
    for f, ref in ((raw, d), (square_seq(raw), square_seq(d)), (seq_scale(growth.parse("n^-1"), raw), None)):
        assert not f.index_arrays
        psi = genfun.default_test_set()[1]
        got = pairing(f, _NS, psi)
        assert got.tobytes() == np.array([pairing(f, n, psi) for n in _NS]).tobytes()
        if ref is not None:
            assert got.tobytes() == pairing(ref, _NS, psi).tobytes()
    assert calls and all(type(n) is int for n, _, _, _ in calls)
    # one jet call per distinct index and refinement level of the lockstep quadrature
    calls.clear()
    pairing(raw, [64, 64, 128], genfun.default_test_set()[0])
    assert sorted({n for n, _, _, _ in calls}) == [64, 128]


def test_a_lockstep_pairing_hands_its_runs_to_the_root_call(monkeypatch):
    calls = []
    run_starts = genfun._run_starts
    monkeypatch.setattr(genfun, "_run_starts", lambda a: calls.append(a.size) or run_starts(a))
    f, psi = square_seq(standard_mollifier().sequence()), genfun.default_test_set()[2]
    got = pairing(f, _NS + [64], psi)
    assert calls == []
    assert got.tobytes() == np.array([pairing(f, n, psi) for n in _NS + [64]]).tobytes()


def _full_width_horner_bound(coeffs, lo, hi):
    """`_horner_bound` with every row run over every coefficient column."""
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    top = np.maximum(np.abs(lo), np.abs(hi))
    val, mag, slope = (np.zeros((len(coeffs),) + lo.shape) for _ in range(3))
    for c in coeffs.T[::-1, :, None]:
        slope *= top
        slope += mag
        val *= mid
        val += c
        mag *= top
        mag += np.abs(c)
    return np.abs(val) + rad * slope + 6 * coeffs.shape[1] * np.finfo(float).eps * mag


@given(
    st.one_of(
        st.integers(0, genfun._BUMP_MAX_ORDER).map(lambda k: genfun._bump_coeffs()[: k + 1, : 3 * k + 1]),
        # rows of any degree, zero rows and inner zeros among them
        st.lists(
            st.lists(st.sampled_from([0.0, 0.0, 1.0, -2.5, 0.3, 1e-8]), min_size=6, max_size=6), min_size=1, max_size=5
        ).map(np.array),
    ),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0)), min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_horner_bound_rows_from_their_leading_coefficient_are_the_full_width_loop_bytewise(coeffs, cells):
    lo = np.array([a for a, _ in cells])
    hi = lo + np.array([w for _, w in cells])
    assert genfun._horner_bound(coeffs, lo, hi).tobytes() == _full_width_horner_bound(coeffs, lo, hi).tobytes()


# ---------------------------------------------------------------------------
# growth laws: the channels of a structured sequence without a walk


def _law_spaces():
    from ultraseq import spaces, weights

    return {
        "colombeau": spaces.colombeau_space(),
        "ultra": spaces.NumberSpace(weights.catalog("ultra"), weights.Mode.STANDARD),
        "scale-power": spaces.NumberSpace(
            weights.scale_to_weights(weights.power_scale()), weights.Mode.STANDARD
        ),
    }


def _law_case(kind, seed):
    """A corpus sequence: a moderate or negligible draw, a named function,
    or the square map's difference at a drawn pair."""
    import random

    from ultraseq import corpus, temperate

    rng = random.Random(seed)
    if kind == "moderate":
        return corpus.random_smooth(rng)
    if kind == "negligible":
        return corpus.random_negligible_smooth(rng)
    if kind == "named":
        return corpus.named_function(rng.choice(corpus.function_names()))
    return temperate.square_map().difference(*corpus.random_smooth_pair(rng))


_LAW_CASES = st.tuples(st.sampled_from(["moderate", "negligible", "named", "difference"]), st.integers(0, 2**32 - 1))


def _walked(f, space):
    """`classify_fun(f, 2, space)` as the walk alone decides it."""
    with mock.patch.object(genfun, "_law_report", return_value=None):
        return classify_fun(f, 2, space)


@given(_LAW_CASES, st.sampled_from(sorted(_law_spaces())))
@settings(max_examples=40, deadline=None)
@example(("named", 0), "ultra")
def test_growth_laws_decide_the_corpus_as_the_walk_does(case, space_name):
    f, space = _law_case(*case), _law_spaces()[space_name]
    report = genfun._law_report(f, 2, space)
    # every corpus input has a law that decides it on colombeau; elsewhere
    # an upper law alone may leave a norm open, and the input is walked
    assert report is not None or space_name != "colombeau", f.label
    if report is None:
        return
    assert all(v.exact and v.witness.startswith("growth law") for v in report.channel_norms.values())
    walked = _walked(f, space).verdict
    if report.verdict == walked:
        return
    p, ns = genfun._seminorm_table(f), genfun.DEFAULT_SAMPLE_NS
    # where they differ, the walk's evidence misleads it: it reads 0 where
    # the law's lower bound is positive (float underflow), or the sampled
    # tier misreads the law's own expressions, read at the same indices
    laws = genfun._laws(f, 2, genfun._lattices(f, ns, 2))
    underflow = any(law.lo > 0 and 0.0 in p(ns, nu) for nu, law in enumerate(laws))
    sampled = {
        f"p_{nu}": SeqRep(f"p_{nu}", log_evaluator=partial(growth.eval_log, law.expr), n_min=16, sample_ns=ns)
        for nu, law in enumerate(laws)
    }
    assert underflow or space.classify(sampled).verdict == walked, f.label


def test_growth_law_verdicts_are_the_exact_tier_where_the_walk_underflows():
    # e^-n underflows from n = 2^10 on, so the walked channels read 0 there
    # and the walk calls e^-n sin negligible in ultra; its law is e^-n,
    # which the exact tier calls moderate in ultra
    ultra = _law_spaces()["ultra"]
    f = seq_scale(growth.parse("exp(-n)"), sin_fn())
    assert classify_fun(f, 2, ultra).verdict == ultra.classify(SeqRep.symbolic("exp(-n)")).verdict == "moderate"
    assert _walked(f, ultra).verdict == "negligible"


@given(_LAW_CASES)
@settings(max_examples=60, deadline=None)
def test_growth_laws_bound_the_walked_seminorms(case):
    _assert_laws_bound_the_walk(_law_case(*case))


def _assert_laws_bound_the_walk(f, slopes=True):
    """The walked seminorms lie within f's laws and, with `slopes`, the
    walk's log-log slope over n = 1024..16384 is the law's wherever the law
    has a lower bound.  The slope holds where the walk resolves the peaks,
    as on the corpus; a stretched summand next to a wide one gets a coarse
    lattice whose offset from the peak moves with n."""
    ns = genfun.DEFAULT_SAMPLE_NS
    laws = genfun._laws(f, 2, genfun._lattices(f, ns, 2))
    p = genfun._seminorm_table(f)
    for nu, law in enumerate(laws):
        walked, e = np.array(p(ns, nu)), growth.eval_value(law.expr, ns)
        # a factor of 0 claims 0, also where the expression overflows
        upper, lower = (c * e if c else 0.0 for c in (law.hi, law.lo))
        assert np.all(walked <= upper * (1 + 1e-9) + 1e-300), (f.label, nu)
        assert np.all(walked >= lower * (1 - 1e-9) - 1e-300), (f.label, nu)
        with np.errstate(divide="ignore"):
            logs = np.log(walked[-5::4])
        if slopes and law.lo > 0 and np.isfinite(logs).all():
            slope = (logs[1] - logs[0]) / math.log(16.0)
            want = np.diff(growth.eval_log(law.expr, [1024, 16384]))[0] / math.log(16.0)
            assert abs(slope - want) <= 0.05 * max(1.0, abs(want)), (f.label, nu, slope, want)


@given(_all_trees())
# the zero polynomial times a sequence whose scale overflows from n = 1024 on
@example(("product", ("poly", [0.0]), ("scale", "exp(n)", ("bump", (0.0, 1.0, 1.0)))))
@settings(max_examples=30, deadline=None)
def test_growth_laws_of_every_tree_bound_the_walk(tree):
    # every combinator and nesting, not only the corpus's: where a tree
    # has laws, the walk bears them out
    f, _ = _build(tree)
    ns = genfun.DEFAULT_SAMPLE_NS
    if f.max_order >= 2 and genfun._laws(f, 2, genfun._lattices(f, ns, 2)) is not None:
        _assert_laws_bound_the_walk(f, slopes=False)


def test_corpus_requests_make_no_walk(lattice_walks, colombeau, counting_seq):
    import random

    from ultraseq import corpus, temperate

    f, j = corpus.random_smooth_pair(random.Random(8))
    fspace = FunctionSpace(colombeau, nu_max=2)
    assert classify_fun(f, 2, colombeau).verdict == "moderate"
    assert classify_fun(j, 2, colombeau).verdict == "negligible"
    assert temperate.verify_F2(temperate.square_map(), f, j).passed
    for name in corpus.function_names():
        element = make_element(corpus.named_function(name), fspace)
        for phi in (temperate.square_map(), temperate.derivative_map()):
            temperate.extend(phi, element)
    assert lattice_walks == []
    # a user jet has no law: each lattice is walked once
    user, _ = counting_seq(f)
    classify_fun(user, 2, colombeau)
    assert sorted((n, r) for _, n, r in lattice_walks) == [(n, 2) for n in genfun.DEFAULT_SAMPLE_NS]


def _pinned_law_cases():
    """One sequence per combinator that has a law, a few nestings, and the
    four that have none (a user jet, a callable scale, exp of an
    n-dependent operand, reindexing)."""
    delta, sin, b = standard_mollifier().sequence(), sin_fn(), bump(0.0, 1.0)
    n_half, log_n, n_inv = (growth.parse(t) for t in ("n^0.5", "log(n)", "n^-1"))
    n_inv_delta_sq = seq_scale(n_inv, square_seq(delta))
    cases = [
        b, sin, delta, mollified(bump(0.1, 0.8), power=2), exp_seq(sin),
        constant_seq(delta, "d"), seq_scale(log_n, delta), seq_scale(-1.5, delta),
        derivative_seq(delta, 2), derivative_seq(seq_scale(growth.parse("n"), sin)),
        add_seq(delta, sin), sub_seq(n_inv_delta_sq, seq_scale(0.675, delta)),
        product_seq(delta, derivative_seq(delta)), square_seq(delta),
        product_seq(seq_scale(log_n, sin), seq_scale(n_half, b)),
        product_seq(delta, b), seq_scale(n_half, product_seq(sin, delta)), n_inv_delta_sq,
        derivative_seq(add_seq(delta, seq_scale(n_half, sin))), seq_scale(growth.parse("exp(-n)"), sin),
        seq_scale(-2.0, add_seq(delta, sin)),
    ]
    no_law = [
        SmoothSeq("user jet", delta.jet, delta.max_order, delta.support_fn, delta.majorant),
        seq_scale(lambda n: 2.0, delta), exp_seq(delta), reindex(delta, 2),
    ]
    return cases, no_law


def _law_bits(f, k):
    laws = genfun._laws(f, k, genfun._lattices(f, genfun.DEFAULT_SAMPLE_NS, k))
    return None if laws is None else [(growth.format_expr(x.expr), float(x.lo).hex(), float(x.hi).hex()) for x in laws]


# each law as (format_expr(expr), lo.hex(), hi.hex()), at orders 0..2 on the
# radius-2 lattices and 0..3 on the radius-3 ones, as derived before each
# combinator carried its own law
_PINNED_LAWS = {
    'bump(0,1)': (
        [
            ('1', '0x1.789b7324a4d49p-2', '0x1.78b57c12eddd8p-2'),
            ('1', '0x1.974a2a6e20c02p-1', '0x1.14aa5857f6dbbp+0'),
            ('1', '0x1.dff07979b3695p+2', '0x1.17f3f38850996p+9'),
        ],
        [
            ('1', '0x1.789b7324a4d49p-2', '0x1.78b57c12eddf3p-2'),
            ('1', '0x1.974a2a6e20c02p-1', '0x1.14aa5857f6dcep+0'),
            ('1', '0x1.dff07979b3685p+2', '0x1.17f3f388509bdp+9'),
            ('1', '0x1.65e119319da14p+7', '0x1.f9f02fd76434fp+25'),
        ],
    ),
    'sin(1x)': (
        [
            ('1', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
            ('1', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
            ('1', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
        ],
        [
            ('1', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('1', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('1', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('1', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
        ],
    ),
    'delta[bump(0,1)]': (
        [
            ('n', '0x1.a80de86638ca1p-1', '0x1.a83a4898ca490p-1'),
            ('n^2', '0x1.c9942651ed7edp+0', '0x1.3790822cb5d63p+1'),
            ('n^3', '0x1.d9fe46884b535p+3', '0x1.3b4446c43d642p+10'),
        ],
        [
            ('n', '0x1.a80de86638ca1p-1', '0x1.a83a4898ca4aep-1'),
            ('n^2', '0x1.c9942651ed7ebp+0', '0x1.3790822cb5d78p+1'),
            ('n^3', '0x1.d9fe46884b461p+3', '0x1.3b4446c43d66ep+10'),
            ('n^4', '0x1.a41c513f8b38fp+6', '0x1.1ce10c8326ce4p+27'),
        ],
    ),
    'n^2*bump(0.1,0.8)(n x)': (
        [
            ('n^2', '0x1.788e145be988ap-2', '0x1.78b57c12eddd8p-2'),
            ('n^3', '0x1.fbe7c155d422fp-1', '0x1.59d4ee6df4933p+0'),
            ('n^4', '0x1.48d407fcdf0f4p+3', '0x1.b56d2c84fdef9p+9'),
        ],
        [
            ('n^2', '0x1.788e145be988ap-2', '0x1.78b57c12eddf3p-2'),
            ('n^3', '0x1.fbe7c155d422dp-1', '0x1.59d4ee6df494bp+0'),
            ('n^4', '0x1.48d407fcdf061p+3', '0x1.b56d2c84fdf36p+9'),
            ('n^5', '0x1.6c4f41ed56abap+6', '0x1.ee148eb857dbap+26'),
        ],
    ),
    'exp(sin(1x))': (
        [
            ('1', '0x1.5be58ab04841ep+1', '0x1.5bf0bf7ebcb3bp+1'),
            ('1', '0x1.5be58ab04841ep+1', '0x1.5bf0bf7ebcb3bp+1'),
            ('1', '0x1.5be58ab04841ep+1', '0x1.684b5af967a6cp+1'),
        ],
        [
            ('1', '0x1.5bf080db3bfd6p+1', '0x1.5bf0bf7ebcb3bp+1'),
            ('1', '0x1.5bf080db3bfd6p+1', '0x1.5bf0bf7ebcb3bp+1'),
            ('1', '0x1.5bf080db3bfd6p+1', '0x1.705e48b1af2dap+1'),
            ('1', '0x1.02f5d7727fff7p+2', '0x1.755805a4ca59bp+2'),
        ],
    ),
    'd': (
        [
            ('n', '0x1.a80de86638ca1p-1', '0x1.a83a4898ca490p-1'),
            ('n^2', '0x1.c9942651ed7edp+0', '0x1.3790822cb5d63p+1'),
            ('n^3', '0x1.d9fe46884b535p+3', '0x1.3b4446c43d642p+10'),
        ],
        [
            ('n', '0x1.a80de86638ca1p-1', '0x1.a83a4898ca4aep-1'),
            ('n^2', '0x1.c9942651ed7ebp+0', '0x1.3790822cb5d78p+1'),
            ('n^3', '0x1.d9fe46884b461p+3', '0x1.3b4446c43d66ep+10'),
            ('n^4', '0x1.a41c513f8b38fp+6', '0x1.1ce10c8326ce4p+27'),
        ],
    ),
    'log(n) * delta[bump(0,1)]': (
        [
            ('n*log(n)', '0x1.a80de86638ca1p-1', '0x1.a83a4898ca490p-1'),
            ('n^2*log(n)', '0x1.c9942651ed7edp+0', '0x1.3790822cb5d63p+1'),
            ('n^3*log(n)', '0x1.d9fe46884b535p+3', '0x1.3b4446c43d642p+10'),
        ],
        [
            ('n*log(n)', '0x1.a80de86638ca1p-1', '0x1.a83a4898ca4aep-1'),
            ('n^2*log(n)', '0x1.c9942651ed7ebp+0', '0x1.3790822cb5d78p+1'),
            ('n^3*log(n)', '0x1.d9fe46884b461p+3', '0x1.3b4446c43d66ep+10'),
            ('n^4*log(n)', '0x1.a41c513f8b38fp+6', '0x1.1ce10c8326ce4p+27'),
        ],
    ),
    '-1.5 * delta[bump(0,1)]': (
        [
            ('n', '0x1.3e0a6e4caa979p+0', '0x1.3e2bb67297b6cp+0'),
            ('n^2', '0x1.572f1cbd721f2p+1', '0x1.d358c34310c14p+1'),
            ('n^3', '0x1.637eb4e6387e8p+4', '0x1.d8e66a265c163p+10'),
        ],
        [
            ('n', '0x1.3e0a6e4caa979p+0', '0x1.3e2bb67297b82p+0'),
            ('n^2', '0x1.572f1cbd721f0p+1', '0x1.d358c34310c34p+1'),
            ('n^3', '0x1.637eb4e638749p+4', '0x1.d8e66a265c1a5p+10'),
            ('n^4', '0x1.3b153cefa86abp+7', '0x1.ab5192c4ba356p+27'),
        ],
    ),
    'D^2 delta[bump(0,1)]': (
        [
            ('n^3', '0x1.d9fe46884b38dp+3', '0x1.3b4446c43d69ap+10'),
            ('n^4', '0x1.a41c513f8b27ap+6', '0x1.1ce10c8326d79p+27'),
            ('n^5', '0x1.42c0e2be830a6p+9', '0x1.a879554c45a1fp+45'),
        ],
        [
            ('n^3', '0x1.d9fe46884b2b9p+3', '0x1.3b4446c43d6c6p+10'),
            ('n^4', '0x1.a41c513f8b165p+6', '0x1.1ce10c8326e0dp+27'),
            ('n^5', '0x1.42c0e2be82f9ap+9', '0x1.a879554c45b3ap+45'),
            ('n^6', '0x1.f0689ecc20ee2p+11', '0x1.076c281b70e17p+65'),
        ],
    ),
    'D^1 n * sin(1x)': (
        [
            ('n', '0x1.ffbbc3978b853p-1', '0x1.000010c6f7a0bp+0'),
            ('n', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
            ('n', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
        ],
        [
            ('n', '0x1.ff683636376bap-1', '0x1.000010c6f7a0bp+0'),
            ('n', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('n', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('n', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
        ],
    ),
    'delta[bump(0,1)] + sin(1x)': (
        [
            ('n + 1', '0x1.6d180f9c435fbp-1', '0x1.000010c6f7a0bp+0'),
            ('n^2 + 1', '0x1.9a0d4822f4b77p-1', '0x1.3790822cb5d63p+1'),
            ('n^3 + 1', '0x1.a36e68a135c4fp+0', '0x1.3b4446c43d642p+10'),
        ],
        [
            ('n + 1', '0x1.6d180f9c435fbp-1', '0x1.000010c6f7a0bp+0'),
            ('n^2 + 1', '0x1.9a0d4822f4b48p-1', '0x1.3790822cb5d78p+1'),
            ('n^3 + 1', '0x1.a36e68a135c3dp+0', '0x1.3b4446c43d66ep+10'),
            ('n^4 + 1', '0x1.57415eb81a197p+0', '0x1.1ce10c8326ce4p+27'),
        ],
    ),
    'n^-1 * (delta[bump(0,1)])^2 - 0.675 * delta[bump(0,1)]': (
        [
            ('2*n', '0x0.0p+0', '0x1.5f8077d653164p-1'),
            ('2*n^2', '0x0.0p+0', '0x1.a49cafbc5be13p+0'),
            ('2*n^3', '0x0.0p+0', '0x1.a99c2c55b9473p+9'),
        ],
        [
            ('2*n', '0x0.0p+0', '0x1.5f8077d653196p-1'),
            ('2*n^2', '0x0.0p+0', '0x1.a49cafbc5be2fp+0'),
            ('2*n^3', '0x0.0p+0', '0x1.a99c2c55b94afp+9'),
            ('2*n^4', '0x0.0p+0', '0x1.8096374aa7967p+26'),
        ],
    ),
    '(delta[bump(0,1)])*(D^1 delta[bump(0,1)])': (
        [
            ('n^3', '0x1.484325d346273p-1', '0x1.8e390fef79062p-1'),
            ('n^4', '0x1.a7175561d6b7ep+1', '0x1.fe78c66b76749p+2'),
            ('n^5', '0x1.574764cce9510p+4', '0x1.d0a6299668d5ap+8'),
        ],
        [
            ('n^3', '0x1.484325d346271p-1', '0x1.8e390fef7909ap-1'),
            ('n^4', '0x1.a7175561d6b69p+1', '0x1.fe78c66b767b8p+2'),
            ('n^5', '0x1.574764cce922cp+4', '0x1.d0a6299668e42p+8'),
            ('n^6', '0x1.947faf5f1a525p+6', '0x1.8735999c400a9p+24'),
        ],
    ),
    '(delta[bump(0,1)])^2': (
        [
            ('n^2', '0x1.5f371efb113e7p-1', '0x1.5f8077d653164p-1'),
            ('n^3', '0x1.484325d346274p+0', '0x1.8e390fef79046p+0'),
            ('n^4', '0x1.a7175561d6b90p+2', '0x1.fe78c66b76700p+3'),
        ],
        [
            ('n^2', '0x1.5f371efb113e7p-1', '0x1.5f8077d653196p-1'),
            ('n^3', '0x1.484325d346272p+0', '0x1.8e390fef7907fp+0'),
            ('n^4', '0x1.a7175561d6b7bp+2', '0x1.fe78c66b7676ep+3'),
            ('n^5', '0x1.574764cce94a0p+5', '0x1.d0a6299668d8bp+9'),
        ],
    ),
    '(log(n) * sin(1x))*(n^0.5 * bump(0,1))': (
        [
            ('n^0.5*log(n)', '0x1.0227098bc6f66p-3', '0x1.117e2fc7b2d29p-3'),
            ('n^0.5*log(n)', '0x1.017ea259d8517p-1', '0x1.ada57bc4388d9p-1'),
            ('n^0.5*log(n)', '0x1.672254f83544ep+2', '0x1.d7270732cbd70p+8'),
        ],
        [
            ('n^0.5*log(n)', '0x1.0227098bc6f66p-3', '0x1.117e2fc7b2d3cp-3'),
            ('n^0.5*log(n)', '0x1.017ea259d8517p-1', '0x1.ada57bc4388f6p-1'),
            ('n^0.5*log(n)', '0x1.672254f835442p+2', '0x1.d7270732cbdb2p+8'),
            ('n^0.5*log(n)', '0x1.139dbb03b94efp+7', '0x1.a9bd5652b91c6p+25'),
        ],
    ),
    '(delta[bump(0,1)])*(bump(0,1))': (
        [
            ('n', '0x0.0p+0', '0x1.38212cb8ab493p-2'),
            ('n^2', '0x0.0p+0', '0x1.ca791f5ebd645p+0'),
            ('n^3', '0x0.0p+0', '0x1.d57dd8e06f688p+11'),
        ],
        [
            ('n', '0x0.0p+0', '0x1.38212cb8ab4bfp-2'),
            ('n^2', '0x0.0p+0', '0x1.ca791f5ebd685p+0'),
            ('n^3', '0x0.0p+0', '0x1.d57dd8e06f6ebp+11'),
            ('n^4', '0x0.0p+0', '0x1.a83d1c28550dcp+29'),
        ],
    ),
    'n^0.5 * (sin(1x))*(delta[bump(0,1)])': (
        [
            ('n^1.5', '0x0.0p+0', '0x1.a7f3b38904c95p-5'),
            ('n^2.5', '0x0.0p+0', '0x1.37909697e51dbp+2'),
            ('n^3.5', '0x0.0p+0', '0x1.3b445b6d8993ep+12'),
        ],
        [
            ('n^1.5', '0x0.0p+0', '0x1.a7f3b38904cb2p-5'),
            ('n^2.5', '0x0.0p+0', '0x1.37909697e51f0p+2'),
            ('n^3.5', '0x0.0p+0', '0x1.3b445b6d8996ap+12'),
            ('n^4.5', '0x0.0p+0', '0x1.1ce11f2ea1361p+30'),
        ],
    ),
    'n^-1 * (delta[bump(0,1)])^2': (
        [
            ('n', '0x1.5f371efb113e7p-1', '0x1.5f8077d653164p-1'),
            ('n^2', '0x1.484325d346274p+0', '0x1.8e390fef79046p+0'),
            ('n^3', '0x1.a7175561d6b90p+2', '0x1.fe78c66b76700p+3'),
        ],
        [
            ('n', '0x1.5f371efb113e7p-1', '0x1.5f8077d653196p-1'),
            ('n^2', '0x1.484325d346272p+0', '0x1.8e390fef7907fp+0'),
            ('n^3', '0x1.a7175561d6b7bp+2', '0x1.fe78c66b7676ep+3'),
            ('n^4', '0x1.574764cce94a0p+5', '0x1.d0a6299668d8bp+9'),
        ],
    ),
    'D^1 delta[bump(0,1)] + n^0.5 * sin(1x)': (
        [
            ('n^2 + n^0.5', '0x0.0p+0', '0x1.3790822cb5d78p+1'),
            ('n^3 + n^0.5', '0x0.0p+0', '0x1.3b4446c43d66ep+10'),
            ('n^4 + n^0.5', '0x0.0p+0', '0x1.1ce10c8326ce4p+27'),
        ],
        [
            ('n^2 + n^0.5', '0x0.0p+0', '0x1.3790822cb5d8fp+1'),
            ('n^3 + n^0.5', '0x0.0p+0', '0x1.3b4446c43d69ap+10'),
            ('n^4 + n^0.5', '0x0.0p+0', '0x1.1ce10c8326d79p+27'),
            ('n^5 + n^0.5', '0x0.0p+0', '0x1.a879554c45a1fp+45'),
        ],
    ),
    'exp(-n) * sin(1x)': (
        [
            ('exp(-n)', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
            ('exp(-n)', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
            ('exp(-n)', '0x1.ffefa3cce9289p-1', '0x1.000010c6f7a0bp+0'),
        ],
        [
            ('exp(-n)', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('exp(-n)', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('exp(-n)', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
            ('exp(-n)', '0x1.ffffc561683bbp-1', '0x1.000010c6f7a0bp+0'),
        ],
    ),
    '-2 * delta[bump(0,1)] + sin(1x)': (
        [
            ('n + 1', '0x1.6d180f9c435fbp+0', '0x1.000010c6f7a0bp+1'),
            ('n^2 + 1', '0x1.9a0d4822f4b77p+0', '0x1.3790822cb5d63p+2'),
            ('n^3 + 1', '0x1.a36e68a135c4fp+1', '0x1.3b4446c43d642p+11'),
        ],
        [
            ('n + 1', '0x1.6d180f9c435fbp+0', '0x1.000010c6f7a0bp+1'),
            ('n^2 + 1', '0x1.9a0d4822f4b48p+0', '0x1.3790822cb5d78p+2'),
            ('n^3 + 1', '0x1.a36e68a135c3dp+1', '0x1.3b4446c43d66ep+11'),
            ('n^4 + 1', '0x1.57415eb81a197p+1', '0x1.1ce10c8326ce4p+28'),
        ],
    ),
}


def test_growth_laws_are_pinned_bitwise():
    cases, no_law = _pinned_law_cases()
    assert [(f.label, (_law_bits(f, 2), _law_bits(f, 3))) for f in cases] == list(_PINNED_LAWS.items())
    for f in no_law:
        assert _law_bits(f, 2) is None and _law_bits(f, 3) is None, f.label
