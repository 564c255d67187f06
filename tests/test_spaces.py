"""Ultranorms, classification and the quotient pseudometric."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultraseq import corpus, growth, spaces
from ultraseq.spaces import (
    _PER_WINDOW,
    NumberSpace,
    SampleError,
    SeqRep,
    _sample_grid,
    _window_keys,
    classify,
    colombeau_space,
    ideal_check,
    infra_space,
    pseudometric,
    ultranorm,
)
from ultraseq.weights import (
    AsymptoticScale,
    Direction,
    Mode,
    WeightFamily,
    WeightSeq,
    catalog,
    colombeau_weight,
    expdecay_scale,
    power_scale,
    scale_to_weights,
    single_family,
)

COL = colombeau_weight()


def norm_of(text: str) -> float:
    v = ultranorm(SeqRep.symbolic(text), COL)
    assert v.exact
    return v.value


# ---------------------------------------------------------------------------
# exact tier


def test_exact_power_norms():
    # under r = 1/log n the norm of n^g is e^g
    assert norm_of("n^-3") == pytest.approx(math.exp(-3), rel=1e-12)
    assert norm_of("n^0.5") == pytest.approx(math.exp(0.5), rel=1e-12)
    assert norm_of("n^7") == pytest.approx(math.exp(7), rel=1e-12)


def test_exact_norms_ignore_constants_and_log_factors():
    assert norm_of("42") == 1.0
    assert norm_of("0.001") == 1.0
    assert norm_of("log(n)^-1") == 1.0
    assert norm_of("log(n)^3") == 1.0
    assert norm_of("5*n^2*log(n)") == pytest.approx(math.exp(2), rel=1e-12)


def test_exact_norm_edge_values():
    assert norm_of("exp(n)") == math.inf
    assert norm_of("exp(-log(n)^2)") == 0.0
    v = ultranorm(SeqRep.symbolic(growth.ZERO), COL)
    assert v.exact and v.value == 0.0
    # a finite log value beyond the float range reads as inf, not an overflow
    assert norm_of("n^1e300") == math.inf


def test_exact_norm_power_weight():
    w = catalog("infra").member(1)  # 1/n
    v = ultranorm(SeqRep.symbolic("exp(2*n)"), w)
    assert v.exact and v.value == pytest.approx(math.exp(2), rel=1e-12)
    v = ultranorm(SeqRep.symbolic("n^7"), w)
    assert v.exact and v.value == 1.0


def test_parity_modulated_norm_takes_limsup():
    e = growth.alt_expr(growth.parse("n^2"), growth.parse("n^-1"))
    v = ultranorm(SeqRep.symbolic(e), COL)
    assert v.exact and v.value == pytest.approx(math.exp(2), rel=1e-12)


def test_truncated_norm_is_zero():
    v = ultranorm(SeqRep.truncated(50), COL)
    assert v.exact and v.value == 0.0


# ---------------------------------------------------------------------------
# sampled tier


def test_sampled_band_contains_exact_value():
    for text, exact in [("n^2", 2.0), ("n^-3", -3.0), ("7*log(n)", 0.0)]:
        v = ultranorm(SeqRep.sampled_from_expr(text), COL)
        assert not v.exact
        lo, hi = v.band_log
        assert lo <= exact <= hi
        assert hi - lo <= 0.25


def test_sampled_divergence_signal():
    v = ultranorm(SeqRep.sampled_from_expr("exp(n)"), COL)
    assert v.log_value == math.inf


def test_sampled_zero_signal():
    v = ultranorm(SeqRep.sampled_from_expr("exp(-log(n)^2)"), COL)
    assert v.is_zero() is True


def test_index_range_must_be_nonempty():
    def ones(ns):
        return np.ones(len(ns))

    with pytest.raises(ValueError, match="n_min < n_max"):
        SeqRep.sampled(ones, "one", n_min=2_000_000, n_max=1_000_000)
    with pytest.raises(ValueError, match="n_min < n_max"):
        SeqRep.sampled(ones, "one", n_min=20_000, n_max=20_000)
    with pytest.raises(ValueError, match="sample_ns has no index"):
        SeqRep.sampled(ones, "one", n_min=100, sample_ns=[2, 50])
    assert SeqRep.sampled(ones, "one", n_min=9_999, n_max=10_000).n_min == 9_999


def test_index_range_must_hold_exact_floats():
    def ones(ns):
        return np.ones(len(ns))

    for n_max in (2**53 + 1, 2**63, 2**64):
        with pytest.raises(ValueError, match="at most 2\\^53"):
            SeqRep.sampled(ones, "one", n_max=n_max)
    v = ultranorm(SeqRep.sampled(ones, "one", n_max=2**53), COL)
    assert v.stable and v.log_value == 0.0


# ---------------------------------------------------------------------------
# the dyadic sample grid


def _reference_sample_grid(n_min: int, n_max: int) -> np.ndarray:
    """The grid built with one np.geomspace call per window.

    Its window keys are floor(log2 n) in floats, which puts 2^k - 1 in
    window k for k >= 49, so it is the reference only for n_max < 2^49 - 1.
    """
    k_lo, k_hi = np.floor(np.log2([max(n_min, 2), n_max])).astype(np.int64)
    pts: list[int] = []
    for k in range(k_lo, k_hi + 1):
        lo, hi = 2**k, min(2 ** (k + 1) - 1, n_max)
        if hi < n_min:
            continue
        lo = max(lo, n_min)
        qs = np.unique(np.round(np.geomspace(lo, hi, _PER_WINDOW)).astype(np.int64))
        pts.extend(int(q) for q in qs)
    return np.unique(np.asarray(pts, dtype=np.int64))


def _near_powers_of_two(top: int):
    return st.builds(lambda k, d: max(1, 2**k + d), st.integers(1, top), st.integers(-2, 2))


@given(
    st.one_of(st.integers(1, 10**6), _near_powers_of_two(19)),
    st.one_of(st.integers(1, 2 * 10**6), st.integers(1, 2**49 - 2), _near_powers_of_two(48)),
)
@settings(max_examples=300, deadline=None)
def test_sample_grid_matches_the_window_loop(n_min, n_max):
    grid = _sample_grid(n_min, n_max)
    assert grid.dtype == np.int64
    assert np.array_equal(grid, _reference_sample_grid(n_min, n_max))


@given(
    st.one_of(st.integers(1, 10**6), st.integers(1, 2**53), _near_powers_of_two(52)),
    st.one_of(st.integers(1, 2**53), _near_powers_of_two(52)),
)
@settings(max_examples=300, deadline=None)
def test_sample_grid_covers_each_window_of_the_range(n_min, n_max):
    lo = max(n_min, 2)
    grid = _sample_grid(n_min, n_max).tolist()
    assert grid == sorted(set(grid))
    assert all(lo <= n <= n_max for n in grid)
    keys = [n.bit_length() - 1 for n in grid]
    assert all(keys.count(k) <= _PER_WINDOW for k in set(keys))
    met = range(lo.bit_length() - 1, n_max.bit_length()) if lo <= n_max else range(0)
    assert sorted(set(keys)) == list(met)


def test_sample_grid_edge_ranges():
    for n_min, n_max in [(6, 5), (10**6, 10**4), (2, 1), (1, 1)]:
        grid = _sample_grid(n_min, n_max)
        assert grid.dtype == np.int64 and grid.size == 0
    assert _sample_grid(1, 10**6).tolist() == _sample_grid(2, 10**6).tolist()
    assert _sample_grid(1, 10**6)[0] == 2
    for n in (2, 5, 2**20, 2**53):
        assert _sample_grid(n, n).tolist() == [n]
    assert _sample_grid(2, 2**50 - 1).max() == 2**50 - 1


@pytest.mark.parametrize("n_min, n_max", [(2, 10**6), (16, 10**6), (6, 5)])
def test_sample_grid_is_shared_read_only(n_min, n_max):
    grid = _sample_grid(n_min, n_max)
    assert _sample_grid(n_min, n_max) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[...] = 0
    fresh = _sample_grid.__wrapped__(n_min, n_max)
    assert fresh is not grid and fresh.tobytes() == grid.tobytes() and fresh.dtype == grid.dtype


@pytest.mark.parametrize("n_min, n_max", [(2, 10**6), (16, 10**6), (6, 5)])
def test_window_layout_is_kept_with_the_grid(n_min, n_max):
    layout = spaces._layout(n_min, n_max)
    assert spaces._layout(n_min, n_max) is layout
    assert not any(a.flags.writeable for a in layout)
    fresh = spaces._window_layout(_sample_grid.__wrapped__(n_min, n_max))
    assert [a.tobytes() for a in layout] == [a.tobytes() for a in fresh]
    assert [a.dtype for a in layout] == [a.dtype for a in fresh]


def test_window_keys_are_exact_at_powers_of_two():
    ks = range(2, 54)
    assert _window_keys([2**k - 1 for k in ks]).tolist() == [k - 1 for k in ks]
    assert _window_keys([2**k for k in ks]).tolist() == list(ks)


@pytest.mark.parametrize("bad", [math.nan, -1e-300, -2.0, -math.inf])
def test_sampled_rejects_nan_and_negative_values(bad):
    f = SeqRep.sampled(lambda ns: np.where(ns == 7, bad, np.where(ns == 9, math.nan, 1.0)), "bad")
    with pytest.raises(SampleError, match="n = 7") as info:
        f.log_values(np.arange(2, 12))
    assert info.value.n == 7 and (info.value.value == bad or math.isnan(bad))
    with pytest.raises(SampleError):
        ultranorm(f, COL)
    assert issubclass(SampleError, ValueError)


def test_sampled_negative_zero_is_a_zero():
    f = SeqRep.sampled(lambda ns: np.where(ns % 2 == 0, -0.0, 0.5), "signed zeros")
    assert f.log_values(np.arange(2, 6)).tolist() == [-math.inf, math.log(0.5), -math.inf, math.log(0.5)]


def test_no_sample_above_the_weight_cut_off_is_inconclusive():
    # log(n^-m * exp(-n)) has two monomials: the weights use an evaluator,
    # defined from n = 3 on, above the only sample index
    scale = AsymptoticScale("n^-m*exp(-n)", lambda m: growth.parse(f"n^-{m}*exp(-n)"))
    fam = scale_to_weights(scale)
    f = SeqRep.sampled(lambda ns: 1.0 / ns, "1/n", sample_ns=[2])
    v = ultranorm(f, fam.member(1))
    assert not v.exact and not v.stable
    assert v.band_log == (-math.inf, math.inf)
    assert "n=3" in v.witness
    assert v.is_finite() is None and v.is_zero() is None
    assert classify(f, fam).verdict == "inconclusive"


# ---------------------------------------------------------------------------
# classification


def test_classify_colombeau_verdicts(colombeau):
    assert colombeau.classify(SeqRep.symbolic("n^3*log(n)")).verdict == "moderate"
    assert colombeau.classify(SeqRep.symbolic("exp(-log(n)^2)")).verdict == "negligible"
    assert colombeau.classify(SeqRep.symbolic("exp(n^0.5)")).verdict == "divergent"
    r = colombeau.classify(SeqRep.symbolic("exp(-n)"))
    assert r.verdict == "negligible" and r.in_moderate and r.conclusive


def test_classify_egorov(egorov):
    # every sequence is moderate; only eventually-zero ones are negligible
    assert egorov.classify(SeqRep.symbolic("exp(n^2)")).verdict == "moderate"
    assert egorov.classify(SeqRep.symbolic("exp(-n^2)")).verdict == "moderate"
    assert egorov.classify(SeqRep.truncated(100)).verdict == "negligible"


def test_classify_infra_unit_ball(infra):
    # membership reads the norm against 1: inside, boundary, outside
    assert infra.classify(SeqRep.symbolic("exp(-2*n)")).verdict == "negligible"
    r = infra.classify(SeqRep.symbolic("n^-1"))
    assert r.verdict == "boundary"
    assert r.in_moderate is True and r.in_negligible is False
    assert infra.classify(SeqRep.symbolic("exp(2*n)")).verdict == "divergent"


def test_classify_ultra_family_quantifier():
    space = NumberSpace(family=catalog("ultra"), mode=Mode.STANDARD)
    # norm at level m is exp(lim n^(-m/(m-1)) log f); f = exp(n^0.5) has
    # finite norm at every probed level, so it is moderate there
    assert space.classify(SeqRep.symbolic("exp(n^0.5)")).verdict == "moderate"
    assert space.classify(SeqRep.symbolic("exp(-n^0.5)")).verdict == "moderate"
    assert space.classify(SeqRep.symbolic("exp(-n^2)")).verdict == "negligible"


def test_classify_multi_channel(colombeau):
    bundle = {"p0": SeqRep.symbolic("n^2"), "p1": SeqRep.symbolic("n^3")}
    r = colombeau.classify(bundle)
    assert r.verdict == "moderate"
    bundle["p1"] = SeqRep.symbolic("exp(n)")
    assert colombeau.classify(bundle).verdict == "divergent"


def _late_family() -> WeightFamily:
    """1/n, defined from n = 2 + m // 8 on: three cut-offs over 16 levels."""
    return WeightFamily(
        name="late",
        member_fn=lambda m: WeightSeq(label=f"1/n from {2 + m // 8}", expr=growth.parse("n^-1"), n_min=2 + m // 8),
        direction=Direction.INCREASING,
    )


_FAMILIES = {
    "ultra": lambda: catalog("ultra"),
    "scale:n^-m": lambda: scale_to_weights(power_scale()),
    "scale:exp(-m*n)": lambda: scale_to_weights(expdecay_scale()),
    "egorov": lambda: catalog("egorov"),
    "late": _late_family,
}

_SAMPLED_BUNDLES = {
    "one channel": lambda: {"value": SeqRep.sampled_from_expr("n^2 * log(n)")},
    "two channels": lambda: {
        "p0": SeqRep.sampled_from_expr("exp(-log(n)^2)"),
        "p1": SeqRep.sampled(lambda ns: 3.0 + np.sin(ns), "3 + sin n", sample_ns=range(5, 400_000, 7)),
    },
}


@pytest.mark.parametrize("bundle", sorted(_SAMPLED_BUNDLES))
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_classify_shares_samples_without_changing_a_norm(family, bundle):
    fam, channels = _FAMILIES[family](), _SAMPLED_BUNDLES[bundle]()
    report = classify(channels, fam)
    assert len(report.m_probed) == 16
    for m in report.m_probed:
        for key, f in channels.items():
            # dataclass equality: the shared samples give bitwise the same floats
            assert report.channel_norms[(m, key)] == ultranorm(f, fam.member(m))


def test_classify_reads_each_channel_once_per_cut_off():
    calls = []

    def counted(label):
        def values(ns):
            calls.append(label)
            return ns**-1.0

        return SeqRep.sampled(values, label)

    bundle = {"p0": counted("p0"), "p1": counted("p1")}
    classify(bundle, catalog("ultra"))
    assert sorted(calls) == ["p0", "p1"]
    calls.clear()
    classify(bundle["p0"], _late_family())
    assert calls == ["p0"] * 3


def _reference_classify(bundle, family, mode=None, m_max=16):
    """`classify` as a loop over the levels, each channel's norm at each
    level estimated alone, from its own read of the tail."""
    if isinstance(bundle, SeqRep):
        bundle = {"value": bundle}
    mode = mode or family.default_mode
    levels = [family.m_start] if family.single else list(range(family.m_start, family.m_start + m_max))
    per_level = {}
    for m in levels:
        r = family.member(m)
        per_level[m] = {key: ultranorm(f, r) for key, f in bundle.items()}

    def level_in_F(m):
        return spaces._tri_and(spaces._channel_in_F(v, mode) for v in per_level[m].values())

    def level_in_K(m):
        return spaces._tri_and(spaces._channel_in_K(v, mode) for v in per_level[m].values())

    if family.single:
        in_F, in_K = level_in_F(levels[0]), level_in_K(levels[0])
    elif family.direction is Direction.DECREASING:
        in_F = spaces._tri_or(level_in_F(m) for m in levels)
        in_K = spaces._tri_and(level_in_K(m) for m in levels)
    else:
        in_F = spaces._tri_and(level_in_F(m) for m in levels)
        in_K = spaces._tri_or(level_in_K(m) for m in levels)
    boundary = False
    if mode is Mode.UNIT_BALL and in_F is True and in_K is False:
        boundary = any(v.exact and v.log_value == 0.0 for norms in per_level.values() for v in norms.values())
    if in_F is True and in_K is True:
        verdict = "negligible"
    elif in_F is True and in_K is False:
        verdict = "boundary" if (mode is Mode.UNIT_BALL and boundary) else "moderate"
    elif in_F is False:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return spaces.ClassificationReport(
        verdict=verdict,
        in_moderate=in_F,
        in_negligible=spaces._tri_and([in_F, in_K]),
        mode=mode,
        family=family.name,
        m_probed=tuple(levels),
        channel_norms={(m, key): v for m, norms in per_level.items() for key, v in norms.items()},
    )


def _gap_family() -> WeightFamily:
    """1/(m log n), but 0 on 1000 < n < 9000: positive and decreasing at
    every probe, and 0 on part of the sample grid."""
    def member(m):
        return WeightSeq(
            label=f"1/({m} log n) with a gap",
            evaluator=lambda ns: np.where((ns > 1000) & (ns < 9000), 0.0, 1.0 / (m * np.log(ns))),
        )

    return WeightFamily(name="gap", member_fn=member, direction=Direction.DECREASING)


def _beyond_family() -> WeightFamily:
    """1/n, defined from n = 20000 on at odd levels: above the n_max of a
    short channel, whose norm there has an empty grid."""
    return WeightFamily(
        name="beyond",
        member_fn=lambda m: WeightSeq(label=f"1/n, level {m}", expr=growth.parse("n^-1"), n_min=20_000 if m % 2 else 2),
        direction=Direction.INCREASING,
    )


_MIXED = AsymptoticScale("n^-m*exp(-n)", lambda m: growth.parse(f"n^-{m}*exp(-n)"))
_EQUIVALENCE_FAMILIES = {
    **_FAMILIES,
    "colombeau": lambda: catalog("colombeau"),
    "infra": lambda: catalog("infra"),
    "gap": _gap_family,
    "beyond": _beyond_family,
    # weights with an evaluator, defined from n = 3 on
    "scale:n^-m*exp(-n)": lambda: scale_to_weights(_MIXED),
}


@st.composite
def _channels(draw):
    """A channel: a sampled view of a corpus expression or the expression
    itself, a sequence with zeros (every third index, or all beyond 5000),
    one defined from a drawn n_min on, one on given sample indices, or a
    short one (n_max 10^4)."""
    kind = draw(st.sampled_from(["corpus", "symbolic", "zeros", "vanishing", "late", "sparse", "short"]))
    if kind in ("corpus", "symbolic"):
        e = corpus.random_expr(random.Random(draw(st.integers(0, 10_000))))
        return SeqRep.sampled_from_expr(e) if kind == "corpus" else SeqRep.symbolic(e)
    if kind == "zeros":
        return SeqRep.sampled(lambda ns: np.where(ns % 3 == 0, 0.0, ns**1.5), "n^1.5, 0 at 3n")
    if kind == "vanishing":
        return SeqRep.sampled(lambda ns: np.where(ns > 5000, 0.0, 1.0 / ns), "1/n up to 5000")
    if kind == "late":
        n_min = draw(st.integers(2, 50_000))
        return SeqRep.sampled(lambda ns: 2.0 + np.cos(ns), f"2 + cos n from {n_min}", n_min=n_min)
    if kind == "sparse":
        return SeqRep.sampled(lambda ns: np.log(ns), "log n", sample_ns=range(3, 300_000, 97))
    return SeqRep.sampled(lambda ns: np.sqrt(ns), "sqrt n", n_max=10_000)


@given(
    st.sampled_from(sorted(_EQUIVALENCE_FAMILIES)),
    st.lists(_channels(), min_size=1, max_size=2),
    st.sampled_from([1, 3, 16]),
)
@settings(max_examples=150, deadline=None)
# two channels whose cut-offs differ, under one cut-off for every level
@example("ultra", [SeqRep.sampled_from_expr("n^2"), SeqRep.sampled(lambda ns: 1.0 + 1.0 / ns, "1 + 1/n", n_min=4096)], 16)
# the levels at odd m read no sample: the empty-grid witness
@example("beyond", [SeqRep.sampled(lambda ns: np.sqrt(ns), "sqrt n", n_max=10_000)], 16)
def test_classify_is_the_level_loop_bitwise(family, channels, m_max):
    fam = _EQUIVALENCE_FAMILIES[family]()
    bundle = {f"p{i}": f for i, f in enumerate(channels)}
    report = classify(bundle, fam, m_max=m_max)
    # repr compares every float bitwise, nan included
    assert repr(report) == repr(_reference_classify(bundle, fam, m_max=m_max))
    # the rule `conclusive` once stored: F decided, and K decided unless outside F
    in_F, in_K = report.in_moderate, report.in_negligible
    assert report.conclusive == (in_F is not None and (in_K is not None or in_F is False))


def test_an_egorov_classify_fits_one_tail(monkeypatch):
    fits = []
    lstsq = spaces._lstsq

    def counting(a, b):
        fits.extend(b)
        return lstsq(a, b)

    monkeypatch.setattr(spaces, "_lstsq", counting)
    f = SeqRep.sampled_from_expr("n^2 * log(n)")
    report = classify(f, catalog("egorov"))
    # beyond n = 16 every step weight is 0, so all 16 levels end in the same windows
    assert len(fits) == 1
    fits.clear()
    assert repr(report) == repr(_reference_classify(f, catalog("egorov")))
    assert len(fits) == 16


def _evaluator_space() -> NumberSpace:
    """The single weight 1/(2 log n), given by an evaluator."""
    w = WeightSeq(label="1/(2 log n)", evaluator=lambda ns: 0.5 / np.log(ns))
    return NumberSpace(family=single_family(w, "evaluator"), mode=Mode.STANDARD)


_CATALOG_SPACES = {
    "colombeau": colombeau_space,
    "infra": infra_space,
    "egorov": lambda: NumberSpace(family=catalog("egorov"), mode=Mode.STANDARD),
    "ultra": lambda: NumberSpace(family=catalog("ultra"), mode=Mode.STANDARD),
    "scale-power": lambda: NumberSpace(family=scale_to_weights(power_scale()), mode=Mode.STANDARD),
    "scale-expdecay": lambda: NumberSpace(family=scale_to_weights(expdecay_scale()), mode=Mode.STANDARD),
    "evaluator": _evaluator_space,
}


@st.composite
def _corpus_channels(draw):
    """A corpus channel: symbolic, parity-modulated, zero, truncated, or a
    sampled view of a corpus expression."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["symbolic", "modulated", "zero", "truncated", "sampled"]))
    if kind == "symbolic":
        return SeqRep.symbolic(corpus.random_expr(rng))
    if kind == "modulated":
        return SeqRep.symbolic(corpus.random_modulated(rng))
    if kind == "zero":
        return SeqRep.symbolic(growth.ZERO)
    if kind == "truncated":
        return corpus.random_truncated(rng)
    return SeqRep.sampled_from_expr(corpus.random_expr(rng))


@given(
    st.sampled_from(sorted(_CATALOG_SPACES)),
    st.lists(_corpus_channels(), min_size=1, max_size=2),
)
@settings(max_examples=120, deadline=None)
@example("ultra", [SeqRep.symbolic("alt(n^2, exp(n^0.5))"), SeqRep.symbolic("exp(-n^2)")])
@example("evaluator", [SeqRep.symbolic("n^3"), SeqRep.symbolic(growth.ZERO)])
def test_every_level_of_a_classify_is_its_ultranorm(space, channels):
    sp = _CATALOG_SPACES[space]()
    bundle = {f"p{i}": f for i, f in enumerate(channels)}
    report = sp.classify(bundle)
    for m in report.m_probed:
        for key, f in bundle.items():
            # repr compares every field, and every float bitwise
            assert repr(report.channel_norms[(m, key)]) == repr(ultranorm(f, sp.family.member(m)))
    ref = _reference_classify(bundle, sp.family, sp.mode, sp.m_max)
    assert (report.verdict, report.in_moderate, report.in_negligible) == (ref.verdict, ref.in_moderate, ref.in_negligible)


@pytest.mark.parametrize("text, calls", [("n^2 * log(n)", 1), ("alt(n^2, exp(-n))", 2)])
def test_a_symbolic_classify_takes_one_log_per_branch(monkeypatch, text, calls):
    seen = []
    log_expr = growth.log_expr

    def counting(e):
        seen.append(e)
        return log_expr(e)

    monkeypatch.setattr(growth, "log_expr", counting)
    report = classify(SeqRep.symbolic(text), catalog("ultra"))
    assert len(report.m_probed) == 16
    assert len(seen) == calls


def _reference_tail_fit(tail, tail_ns):
    """One row of `spaces._tail_fits`, fitted alone with np.linalg.lstsq."""
    tail_ls = np.log(tail_ns)
    if np.isneginf(tail).all():
        return spaces.UltranormValue(
            log_value=-math.inf,
            exact=False,
            band_log=(-math.inf, -math.inf),
            stable=True,
            witness=f"all sampled tail values vanish beyond n={tail_ns[0]}",
        )
    if tail[-1] > 50.0 and (len(tail) < 2 or tail[-1] >= tail[-2]):
        return spaces.UltranormValue(
            log_value=math.inf,
            exact=False,
            band_log=(50.0, math.inf),
            stable=True,
            witness="weighted log values exceed 50 and still rising",
        )
    if tail[-1] < -50.0 and (len(tail) < 2 or tail[-1] <= tail[-2]):
        return spaces.UltranormValue(
            log_value=-math.inf,
            exact=False,
            band_log=(-math.inf, -50.0),
            stable=True,
            witness="weighted log values fall below -50 and still falling",
        )
    finite = np.isfinite(tail)
    ys = tail[finite]
    Ls = tail_ls[finite]
    if len(ys) == 0:
        return spaces.UltranormValue(
            log_value=math.nan,
            exact=False,
            band_log=(-math.inf, math.inf),
            stable=False,
            witness="no finite tail window to fit",
        )
    if len(ys) < 3:
        alpha = float(ys[-1])
        width = max(1.0, abs(alpha))
        return spaces.UltranormValue(
            log_value=alpha,
            exact=False,
            band_log=(alpha - width, alpha + width),
            stable=False,
            witness="too few finite tail windows for a fit",
        )
    basis = np.column_stack([np.ones_like(Ls), 1.0 / Ls, np.log(Ls) / Ls])
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    resid = float(np.max(np.abs(basis @ coef - ys)))
    alpha = float(coef[0])
    last_sup = float(ys[-1])
    if resid <= 0.02:
        width = max(6.0 * resid, 1e-9 + 1e-5 * abs(alpha))
        return spaces.UltranormValue(
            log_value=alpha,
            exact=False,
            band_log=(alpha - width, alpha + width),
            stable=width <= 0.5,
            witness=(
                f"tail fit over {len(ys)} dyadic windows; last window sup {last_sup:.6g}, "
                f"extrapolated {alpha:.6g}"
            ),
        )
    lin = np.column_stack([np.ones_like(Ls), Ls])
    lcoef, *_ = np.linalg.lstsq(lin, ys, rcond=None)
    lresid = float(np.max(np.abs(lin @ lcoef - ys)))
    slope = float(lcoef[1])
    if abs(slope) >= 0.05 and abs(slope) * Ls[-1] >= max(1.0, 8.0 * lresid):
        if slope > 0:
            return spaces.UltranormValue(
                log_value=math.inf,
                exact=False,
                band_log=(float(np.min(ys)), math.inf),
                stable=True,
                witness=f"weighted log values drift upward at slope {slope:.3g} per unit log n",
            )
        return spaces.UltranormValue(
            log_value=-math.inf,
            exact=False,
            band_log=(-math.inf, float(np.max(ys))),
            stable=True,
            witness=f"weighted log values drift downward at slope {slope:.3g} per unit log n",
        )
    spread = abs(last_sup - float(ys[0]))
    return spaces.UltranormValue(
        log_value=last_sup,
        exact=False,
        band_log=(float(np.min(ys)) - spread, float(np.max(ys)) + spread),
        stable=False,
        witness=f"tail fit residual {resid:.3g} too large to extrapolate; last window sup {last_sup:.6g}",
    )


_SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _tail_rows(draw):
    """Tail rows of one read, as `_estimate_norms` passes them to
    `_tail_fits`: one row per level, each of the read's last windows (at
    most `_WINDOW_FIT`, fewer on a short grid) with its first index.

    A row follows the convergent basis up to a drawn noise (near the
    residual test's 0.02), drifts linearly in L = log n, lies beyond +-50
    (monotone or not), is arbitrary, or repeats an earlier row, bitwise
    or at other positions; any window may then become nan or +-inf."""
    width = draw(st.one_of(st.just(spaces._WINDOW_FIT), st.integers(1, spaces._WINDOW_FIT)))
    k0 = draw(st.integers(1, 52 - width))

    def positions():
        return [draw(st.integers(2**k, 2 ** (k + 1) - 1)) for k in range(k0, k0 + width)]

    def noise(scale):
        return np.array(draw(st.lists(st.floats(-scale, scale), min_size=width, max_size=width)))

    tails, tail_ns = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["model", "drift", "beyond", "any", "same", "moved"]))
        ns = np.array(positions(), dtype=np.int64)
        if kind in ("same", "moved") and tails:
            i = draw(st.integers(0, len(tails) - 1))
            tails.append(tails[i].copy())
            tail_ns.append(tail_ns[i].copy() if kind == "same" else ns)
            continue
        Ls = np.log(ns)
        if kind == "model":
            a, b, c = (draw(st.floats(-60, 60)) for _ in range(3))
            t = a + b / Ls + c * np.log(Ls) / Ls + noise(draw(st.sampled_from([0.0, 1e-6, 0.01, 0.03, 1.0])))
        elif kind == "drift":
            t = draw(st.floats(-60, 60)) + draw(st.floats(-3, 3)) * Ls + noise(draw(st.sampled_from([0.0, 0.1, 2.0])))
        elif kind == "beyond":
            sign = draw(st.sampled_from([1.0, -1.0]))
            t = sign * (50.0 + np.abs(noise(100.0)))
            if draw(st.booleans()):
                t = np.sort(t) if sign > 0 else -np.sort(-t)
        else:
            t = noise(1e3)
        for j in draw(st.lists(st.integers(0, width - 1), max_size=width)):
            t[j] = draw(_SPECIALS)
        tails.append(t)
        tail_ns.append(ns)
    return np.array(tails), np.array(tail_ns)


@given(_tail_rows())
@settings(max_examples=400, deadline=None)
def test_stacked_tail_fits_are_the_row_fits(rows):
    tails, tail_ns = rows
    fits = spaces._tail_fits(tails, tail_ns)
    # repr compares every float bitwise, nan included
    assert [repr(v) for v in fits] == [repr(_reference_tail_fit(t, n)) for t, n in zip(tails, tail_ns)]


def test_the_stacked_solve_is_numpy_lstsq_row_by_row():
    rng = np.random.default_rng(20)
    for m, n in [(3, 3), (6, 3), (10, 3), (10, 2), (5, 1)]:
        a = rng.normal(size=(16, m, n)) * rng.uniform(1e-3, 1e3, size=(16, 1, 1))
        a[3] = a[3, :1]  # a repeated row: rank 1
        b = rng.normal(size=(16, m)) * 100.0
        x = spaces._lstsq(a, b)
        for i in range(16):
            assert x[i].tobytes() == np.linalg.lstsq(a[i], b[i], rcond=None)[0].tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        spaces._lstsq(np.full((1, 4, 3), math.nan), np.ones((1, 4)))


def test_an_overflowing_sample_under_a_step_weight_is_flattened():
    # a zero weight flattens +inf samples to t = 0 as the exact tier's step
    # weights do: exp(n) has log-norm 0 under every egorov level
    f = SeqRep.sampled(lambda ns: np.full(np.shape(ns), np.inf), "inf")
    v = ultranorm(f, catalog("egorov").member(2))
    assert v.log_value == ultranorm(SeqRep.symbolic("exp(n)"), catalog("egorov").member(2)).log_value == 0.0
    assert v.stable
    assert classify(f, catalog("egorov")).verdict == classify(SeqRep.symbolic("exp(n)"), catalog("egorov")).verdict == "moderate"
    # a tail with no finite window is an unstable nan estimate
    (v,) = spaces._tail_fits(np.full((1, 4), math.nan), np.array([[4, 8, 16, 32]]))
    assert math.isnan(v.log_value) and not v.stable and v.band_log == (-math.inf, math.inf)


def test_a_vanishing_tail_names_the_first_index_judged():
    # only the last _WINDOW_FIT = 10 dyadic windows are judged: on the
    # default grid (n = 2..10^6, windows 2^1..2^19) they start at 2^10
    f = SeqRep.sampled(lambda ns: np.where(ns < 600, 1.0, 0.0), "one below 600")
    v = ultranorm(f, WeightSeq(label="1/log n", expr=growth.parse("log(n)^-1")))
    assert (v.log_value, v.stable) == (-math.inf, True)
    assert v.witness == "all sampled tail values vanish beyond n=1024"


def test_no_level_table_outlives_its_classify_call():
    import gc

    report = classify(SeqRep.sampled_from_expr("n^2"), catalog("ultra"))
    assert len(report.m_probed) == 16
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, spaces._TailSamples)]


# ---------------------------------------------------------------------------
# pseudometric and ideal law


def test_pseudometric_identical_reps_at_zero_distance():
    f = SeqRep.symbolic("n^2 + log(n)")
    v = pseudometric(f, f, COL)
    assert v.exact and v.value == 0.0


def test_pseudometric_against_zero():
    f = SeqRep.symbolic("n^2")
    z = SeqRep.symbolic(growth.ZERO)
    assert pseudometric(f, z, COL).value == pytest.approx(math.exp(2), rel=1e-12)
    assert pseudometric(z, f, COL).value == pytest.approx(math.exp(2), rel=1e-12)


def test_pseudometric_needs_difference_for_distinct_symbols():
    f = SeqRep.symbolic("n^2")
    g = SeqRep.symbolic("n")
    with pytest.raises(ValueError):
        pseudometric(f, g, COL)
    # |n^2 - n| is representable: n^2 - n stays within [0.5*n^2, n^2] eventually
    v = pseudometric(f, g, COL, difference=SeqRep.symbolic("n^2"))
    assert v.value == pytest.approx(math.exp(2), rel=1e-12)


def test_pseudometric_drops_a_truncated_side_and_stays_exact():
    v = pseudometric(SeqRep.truncated(40), SeqRep.symbolic("n^2"), COL)
    assert v.exact and v.log_value == 2.0
    v = pseudometric(SeqRep.symbolic("n^2"), SeqRep.truncated(40), COL)
    assert v.exact and v.log_value == 2.0
    assert pseudometric(SeqRep.truncated(40), SeqRep.truncated(60), COL).is_zero()


def test_a_symbolic_zero_has_an_exact_zero_norm_under_a_numeric_weight():
    from ultraseq.weights import WeightSeq

    w = WeightSeq(label="1/log(n), sampled", evaluator=lambda ns: 1.0 / np.log(ns))
    assert ultranorm(SeqRep.symbolic(growth.ZERO), w).exact
    f = SeqRep.symbolic("n^2")
    v = pseudometric(f, f, w)
    assert v.exact and v.log_value == -math.inf


# ---------------------------------------------------------------------------
# the pointwise rules for sums, products and distances of representatives


@st.composite
def _operands(draw):
    """A representative drawn as a corpus symbolic expression, a truncated
    sequence (cutoff below 500), a sampled view of a corpus expression, or
    the symbolic zero."""
    tier = draw(st.sampled_from(["symbolic", "truncated", "sampled", "zero"]))
    if tier == "truncated":
        return SeqRep.truncated(draw(st.integers(2, 500)))
    if tier == "zero":
        return SeqRep.symbolic(growth.ZERO)
    e = corpus.random_expr(random.Random(draw(st.integers(0, 10_000))))
    return SeqRep.symbolic(e) if tier == "symbolic" else SeqRep.sampled_from_expr(e)


def _log_abs_difference(a, b):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = np.maximum(a, b)
        return np.where(np.isneginf(m), -math.inf, m + np.log(np.abs(np.exp(a - m) - np.exp(b - m))))


_RULES = {
    "sum": (spaces._sum, np.logaddexp),
    "product": (spaces._product, np.add),
    "distance": (spaces._distance, _log_abs_difference),
}


@given(st.sampled_from(sorted(_RULES)), _operands(), _operands(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pointwise_rules_match_their_log_formulas(name, u, v, same):
    v = u if same else v
    rule, formula = _RULES[name]
    if name == "distance" and u.is_symbolic and v.is_symbolic and u.expr != v.expr:
        if not (u.expr.is_zero or v.expr.is_zero):
            with pytest.raises(ValueError, match="explicit"):
                rule(u, v)
            return
    out = rule(u, v)
    if not (u.log_evaluator or v.log_evaluator):
        assert out.is_symbolic or out.is_truncated
    ns = np.array([1_000, 4_096, 50_000, 300_000])  # past every cutoff and n_min
    np.testing.assert_allclose(
        out.log_values(ns), formula(u.log_values(ns), v.log_values(ns)), rtol=1e-9, atol=1e-9
    )


_GAMMAS = st.sampled_from([-4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0])


@given(_GAMMAS, _GAMMAS)
@settings(max_examples=60, deadline=None)
def test_strong_triangle_symbolic(g1, g2):
    # |u+v| has ultranorm <= max of the pair, exactly
    u = growth.term_expr(1.0, pow_n=g1)
    v = growth.term_expr(1.5, pow_n=g2)
    lhs = ultranorm(SeqRep.symbolic(growth.add(u, v)), COL).log_value
    rhs = max(
        ultranorm(SeqRep.symbolic(u), COL).log_value,
        ultranorm(SeqRep.symbolic(v), COL).log_value,
    )
    assert lhs <= rhs + 1e-12


def test_ideal_check_absorbs(colombeau):
    k = SeqRep.symbolic("exp(-log(n)^2)")
    f = SeqRep.symbolic("n^3")
    product = SeqRep.symbolic(growth.mul(k.expr, f.expr))
    res = ideal_check(k, f, product, colombeau.family, colombeau.mode)
    assert res.holds is True and not res.vacuous


def test_ideal_check_vacuous_when_premise_fails(colombeau):
    k = SeqRep.symbolic("n")  # not negligible
    f = SeqRep.symbolic("n^3")
    product = SeqRep.symbolic("n^4")
    res = ideal_check(k, f, product, colombeau.family, colombeau.mode)
    assert res.holds is True and res.vacuous


def test_single_weight_requires_single_family(egorov):
    with pytest.raises(ValueError):
        egorov.single_weight()
    assert colombeau_space().single_weight().label == "1/log(n)"


def test_space_names():
    assert colombeau_space().name == "colombeau[standard]"
    assert infra_space().name == "infra[unit-ball]"


def test_default_spaces_are_shared_and_decide_as_fresh_ones():
    assert colombeau_space() is colombeau_space()
    assert infra_space() is infra_space()
    fresh = {
        "colombeau": NumberSpace(family=catalog("colombeau"), mode=Mode.STANDARD),
        "infra": NumberSpace(family=catalog("infra"), mode=Mode.UNIT_BALL),
    }
    for name, shared in (("colombeau", colombeau_space()), ("infra", infra_space())):
        for text in ("n^2", "n^-1", "log(n)^-1", "exp(-n)", "exp(n)", "n^0.5 * log(n)"):
            for f in (SeqRep.symbolic(text), SeqRep.sampled_from_expr(text)):
                assert shared.classify({"f": f}).verdict == fresh[name].classify({"f": f}).verdict, (name, text)
                assert ultranorm(f, shared.single_weight()) == ultranorm(f, fresh[name].single_weight())
