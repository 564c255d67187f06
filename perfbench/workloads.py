"""The benchmark workloads: seeded inputs, requests and their oracles.

Each workload is one cycle of requests that a closed loop with one client
repeats.  The order of request kinds inside a cycle is fixed, so every run
of a given length executes the same mix; the seed only chooses the inputs
(expression texts, thresholds, smooth sequences, pairing indices).

A request's `call` is the timed part and returns a compact answer; its
`check` compares that answer with an oracle that does not go through the
code path under test and returns "right", "wrong" or "inconclusive".
`must_match` marks answers the package claims to be exact or certified:
a wrong one makes the run incorrect.  Sampled-tier estimates may be wrong
(ROADMAP item 2); they count towards the wrong ratio only.  Probes of the
known defects carry the ROADMAP item they show in `defect`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from ultraseq import cli, corpus, genfun, gennum, growth, spaces, temperate, weights

import oracle


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], str]
    must_match: bool = True
    defect: str = ""  # the known defect a probe shows; probes never must match
    fresh: bool = False  # inputs used by no other request (no shared work)

    def __post_init__(self):
        if self.defect:
            self.kind, self.must_match = "probe", False


@dataclass
class Workload:
    requests: list[Request]
    trace_requests: int  # fixed prefix traced, so counts repeat exactly
    tail_percentile: float
    map_evals: list[int] = field(default_factory=lambda: [0])  # black-box map calls

    def fingerprint(self) -> str:
        return hashlib.sha256("\n".join(r.label for r in self.requests).encode()).hexdigest()

    def mix(self) -> dict:
        kinds = Counter(r.kind for r in self.requests)
        total = len(self.requests)
        return {
            "kinds": {k: round(v / total, 4) for k, v in sorted(kinds.items())},
            "fresh": round(sum(r.fresh for r in self.requests) / total, 4),
            "known_defect_probes": round(sum(bool(r.defect) for r in self.requests) / total, 4),
        }


def build(name: str, seed: int) -> Workload:
    return {
        "exact_queries": _exact_queries,
        "numeric_queries": _numeric_queries,
        "function_algebra": _function_algebra,
    }[name](seed)


# ---------------------------------------------------------------------------
# shared inputs


def _spaces() -> dict[str, spaces.NumberSpace]:
    """The six spaces of the README, built as the CLI builds them."""

    def indexed(fam: weights.WeightFamily) -> spaces.NumberSpace:
        return spaces.NumberSpace(family=fam, mode=fam.default_mode)

    return {
        "colombeau": spaces.colombeau_space(),
        "infra": spaces.infra_space(),
        "egorov": indexed(weights.catalog("egorov")),
        "ultra": indexed(weights.catalog("ultra")),
        "scale-power": indexed(weights.scale_to_weights(weights.power_scale())),
        "scale-expdecay": indexed(weights.scale_to_weights(weights.expdecay_scale())),
    }


_TEXT = {
    "moderate": corpus.moderate_text,
    "negligible": corpus.negligible_text,
    "divergent": corpus.divergent_text,
}
# The structure of each text follows a fixed schedule in corpus proportion:
# random_expr's class shares (2 moderate : 1 negligible : 1 divergent), the
# term counts the text generators draw (1-3 for moderate sums, 1-2 for the
# others), and a product of two moderate sums for three moderate texts in
# ten.  The seed picks coefficients, exponents and factors, so every run
# prefix has the same shares and about the same cost.
_KIND_CYCLE = ("moderate", "negligible", "moderate", "divergent")
_TERM_CYCLE = {"moderate": (1, 2, 3), "negligible": (1, 2), "divergent": (1, 2)}
_PRODUCT_SLOTS = (1, 4, 7)  # of every ten moderate texts
_THRESHOLDS = (0.5, 1.0, 2.0, 3.0)


def _draw(rng: random.Random, kind: str, terms: int) -> str:
    while True:
        text = _TEXT[kind](rng)
        if len(oracle.terms(text)) == terms:
            return text


def _texts(rng: random.Random, count: int) -> list[tuple[str, str]]:
    out = []
    seen = {kind: 0 for kind in _TEXT}
    for i in range(count):
        kind = _KIND_CYCLE[i % len(_KIND_CYCLE)]
        j = seen[kind]
        seen[kind] += 1
        cycle = _TERM_CYCLE[kind]
        text = _draw(rng, kind, cycle[j % len(cycle)])
        if kind == "moderate" and j % 10 in _PRODUCT_SLOTS:
            text = f"({text})*({_draw(rng, kind, cycle[(j // 3) % len(cycle)])})"
        out.append((kind, text))
    return out


def _norm_answer(v) -> tuple:
    return (v.log_value, v.exact, v.band_log, v.stable)


def _exact_norm_check(expected) -> Callable[[object], str]:
    def check(ans) -> str:
        log_value, exact, _, _ = ans
        return "right" if exact and oracle.same_log(log_value, expected) else "wrong"

    return check


def _equal_check(expected, undecided=("inconclusive",)) -> Callable[[object], str]:
    def check(ans) -> str:
        if ans == expected:
            return "right"
        return "inconclusive" if ans in undecided else "wrong"

    return check


def _make_moderate(text_or_rep, space) -> str:
    try:
        gennum.make(text_or_rep, space)
    except gennum.NotModerate:
        return "not-moderate"
    return "moderate"


# map name -> (constructor, known status as moderate map, as compatible map)
_NAMED_MAPS = {
    "identity": (temperate.identity_map, "certified", "certified"),
    "power:2": (lambda: temperate.power_map(2.0), "certified", "certified"),
    "power:0.5": (lambda: temperate.power_map(0.5), "certified", "certified"),
    "log1p": (temperate.log1p_map, "certified", "certified"),
    "affine:2:1": (lambda: temperate.affine_map(2.0, 1.0), "certified", "refuted"),
    "exp": (temperate.exp_map, "refuted", "refuted"),
    "expm1": (temperate.expm1_map, "refuted", "certified"),
}
# black-box callables with no structural facts: (function, moderate, compatible)
_BLACK_BOX = {
    "sqrt": (np.sqrt, "certified", "certified"),
    "square": (lambda u: u * u, "certified", "certified"),
    "x*log1p(x)": (lambda u: u * np.log1p(u), "certified", "certified"),
    "exp": (np.exp, "refuted", "refuted"),
    "exp(sqrt(x))": (lambda u: np.exp(np.sqrt(u)), "refuted", "refuted"),
}


def _map_request(label: str, g, fam, role: str, known: str) -> Request:
    check_fn = temperate.check_moderate if role == "moderate" else temperate.check_compatible
    name = check_fn.__name__

    def call():
        return getattr(temperate, name)(g, fam).status

    return Request(
        kind="map_check",
        label=f"{name}({label}, {fam.name})",
        call=call,
        check=_equal_check(known),
    )


# ---------------------------------------------------------------------------
# exact_queries


_EXACT_PROBES = (
    # text, exact log-ultranorm under 1/log n, defect shown
    ("n^0.1*n^0.2/n^0.3", Fraction(0), "ROADMAP 3: float exponents give e^5.6e-17, not 1"),
    ("1e300^2", Fraction(0), "ROADMAP 3: float coefficients overflow in parse"),
)
_COMPARE_PROBE = ("n^0.1*n^0.2", "n^0.3", "ROADMAP 3: float exponents give >>, not ~")


def _compare(a: str, b: str, relation: str, ratio: float | None, defect: str = "") -> Request:
    def check(ans) -> str:
        got, got_ratio = ans
        return "right" if got == relation and (ratio is None or got_ratio == ratio) else "wrong"

    def call():
        c = growth.compare(growth.parse(a), growth.parse(b))
        return (c.relation, c.ratio)

    return Request(kind="compare", label=f"compare({a}, {b})", call=call, check=check, defect=defect)


def _exact_queries(seed: int) -> Workload:
    rng = random.Random(seed)
    sp = _spaces()
    col = sp["colombeau"]
    w_col, w_infra = col.single_weight(), sp["infra"].single_weight()
    zero = gennum.make("0", col)
    families = [sp[k].family for k in ("colombeau", "ultra", "egorov", "scale-power", "scale-expdecay")]
    map_checks = []
    for label, (make_map, known_mod, known_comp) in _NAMED_MAPS.items():
        g = make_map()
        for fam in families:
            for role, known in (("moderate", known_mod), ("compatible", known_comp)):
                map_checks.append(_map_request(label, g, fam, role, known))

    def norm(text: str, w, expected, defect: str = "") -> Request:
        return Request(
            kind="norm",
            label=f"norm({text}; {w.label})",
            call=lambda: _norm_answer(spaces.ultranorm(spaces.SeqRep.symbolic(text), w)),
            check=_exact_norm_check(expected),
            defect=defect,
        )

    def classify(text: str, name: str) -> Request:
        space = sp[name]
        return Request(
            kind="classify",
            label=f"classify({text}; {name})",
            call=lambda: space.classify(spaces.SeqRep.symbolic(text)).verdict,
            check=_equal_check(oracle.verdict(text, name)),
        )

    def assoc(text: str, kind: str, s: float) -> Request:
        ak = {"weak": gennum.AssocKind.weak, "strong": gennum.AssocKind.strong,
              "dual": gennum.AssocKind.s_dual}[kind]
        assoc_kind = ak() if kind == "weak" else ak(s)
        return Request(
            kind="associate",
            label=f"associate({text}, 0; {assoc_kind.describe()})",
            call=lambda: gennum.associate(gennum.make(text, col), zero, assoc_kind).holds,
            check=_equal_check(oracle.assoc_zero(text, kind, Fraction(s))),
        )

    requests: list[Request] = []
    texts = _texts(rng, 128)
    for i, (kind, text) in enumerate(texts):
        d = oracle.dominant(text)
        if i % 2:
            requests.append(_compare(text, f"2*({text})", "~", 0.5))
        else:
            other = texts[i + 1][1]
            requests.append(_compare(text, other, oracle.relation(text, other), None))
        requests.append(norm(text, w_col, oracle.log_over_log(d)))
        requests.append(norm(text, w_infra, oracle.log_over_power(d, Fraction(1))))
        requests.extend(classify(text, name) for name in sp)
        if kind == "divergent":
            requests.append(
                Request(
                    kind="make",
                    label=f"make({text}; colombeau)",
                    call=lambda text=text: _make_moderate(text, col),
                    check=_equal_check("not-moderate"),
                )
            )
        else:
            requests.append(assoc(text, "weak", 0.0))
            requests.append(assoc(text, "strong", rng.choice(_THRESHOLDS)))
            requests.append(assoc(text, "dual", rng.choice(_THRESHOLDS)))
        requests.append(map_checks[i % len(map_checks)])
        if i % 4 == 3:
            for probe_text, expected, defect in _EXACT_PROBES:
                requests.append(norm(probe_text, w_col, expected, defect))
            a, b, defect = _COMPARE_PROBE
            requests.append(_compare(a, b, "~", 1.0, defect))
    # p95 sits inside the band of 16-level classifications; above it the
    # structural map refutations and collector pauses make the rank jumpy
    return Workload(requests, trace_requests=len(requests), tail_percentile=95.0)


# ---------------------------------------------------------------------------
# numeric_queries


_SAMPLED_PROBES = (
    # text, exact log-ultranorm under 1/log n (the exact tier's answer too)
    ("exp(log(n)^1.5)", oracle.INF),
    ("exp(log(n)^1.05)", oracle.INF),
    ("exp(n^0.05)", oracle.INF),
    ("exp(-n^0.05)", -oracle.INF),
    ("exp(-log(n)^1.2)", -oracle.INF),
    ("n^2*loglog(n)^30", Fraction(2)),
)
_SAMPLED_DEFECT = "ROADMAP 2: stable sampled band excludes the exact value"


class _ExactTier:
    """The exact tier on the symbolic twin of a sampled request, memoised.

    Oracle answers are computed after the timed phase, so they cost the
    measured requests nothing.
    """

    def __init__(self, sp, zero):
        self.sp, self.zero, self.memo = sp, zero, {}

    def get(self, key, fn):
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]

    def norm(self, text, w):
        return self.get(("norm", text, w.label), lambda: spaces.ultranorm(spaces.SeqRep.symbolic(text), w).log_value)

    def verdict(self, text, name):
        return self.get(("classify", text, name), lambda: self.sp[name].classify(spaces.SeqRep.symbolic(text)).verdict)

    def assoc(self, text, kind):
        col = self.sp["colombeau"]
        return self.get(
            ("assoc", text, kind),
            lambda: gennum.associate(gennum.make(text, col), self.zero, kind).holds,
        )


def _band_check(exact_log: Callable[[], float]) -> Callable[[object], str]:
    """A stable band must contain the exact value; an unstable one decides nothing."""

    def check(ans) -> str:
        log_value, _, band, stable = ans
        if not stable:
            return "inconclusive"
        lo, hi = band if band is not None else (log_value, log_value)
        return "right" if lo <= exact_log() <= hi else "wrong"

    return check


def _lazy_equal(expected: Callable[[], object]) -> Callable[[object], str]:
    def check(ans) -> str:
        return _equal_check(expected())(ans)

    return check


def _numeric_queries(seed: int) -> Workload:
    rng = random.Random(seed)
    sp = _spaces()
    col = sp["colombeau"]
    w_col, w_infra = col.single_weight(), sp["infra"].single_weight()
    zero = gennum.make("0", col)
    exact = _ExactTier(sp, zero)
    map_evals = [0]

    def counted(fn):
        def g(u):
            map_evals[0] += 1
            return fn(u)

        return g

    map_checks = []
    for label, (fn, known_mod, known_comp) in _BLACK_BOX.items():
        g = temperate.ScalarMap(label, counted(fn))
        for name in ("colombeau", "ultra", "scale-power", "scale-expdecay"):
            for role, known in (("moderate", known_mod), ("compatible", known_comp)):
                map_checks.append(_map_request(label, g, sp[name].family, role, known))

    def norm(text: str, w, defect: str = "") -> Request:
        return Request(
            kind="norm",
            label=f"sampled norm({text}; {w.label})",
            call=lambda: _norm_answer(spaces.ultranorm(spaces.SeqRep.sampled_from_expr(text), w)),
            check=_band_check(lambda: exact.norm(text, w)),
            must_match=False,
            defect=defect,
        )

    def classify(text: str, name: str) -> Request:
        space = sp[name]
        return Request(
            kind="classify",
            label=f"sampled classify({text}; {name})",
            call=lambda: space.classify(spaces.SeqRep.sampled_from_expr(text)).verdict,
            check=_lazy_equal(lambda: exact.verdict(text, name)),
            must_match=False,
        )

    def assoc(text: str, assoc_kind) -> Request:
        def call():
            try:
                a = gennum.make(spaces.SeqRep.sampled_from_expr(text), col)
            except gennum.NotModerate:
                return "not-moderate"
            return gennum.associate(a, zero, assoc_kind).holds

        return Request(
            kind="associate",
            label=f"sampled associate({text}, 0; {assoc_kind.describe()})",
            call=call,
            check=_lazy_equal(lambda: exact.assoc(text, assoc_kind)),
            must_match=False,
        )

    # single weights from every family: the tail estimator's cost is mostly
    # weight evaluation, so these requests form the steady middle of the
    # latency distribution
    weights_ = [w_col, w_infra] + [
        sp[name].family.member(m)
        for name, m in (("ultra", 2), ("ultra", 3), ("ultra", 17), ("scale-power", 2),
                        ("scale-power", 16), ("scale-expdecay", 2))
    ]
    assoc_kinds = (gennum.AssocKind.weak, gennum.AssocKind.strong, gennum.AssocKind.s_dual)
    requests: list[Request] = []
    for i, (kind, text) in enumerate(_texts(rng, 40)):
        requests.extend(norm(text, w) for w in weights_)
        requests.extend(classify(text, name) for name in sp)
        if kind == "divergent":
            requests.append(
                Request(
                    kind="make",
                    label=f"sampled make({text}; colombeau)",
                    call=lambda text=text: _make_moderate(spaces.SeqRep.sampled_from_expr(text), col),
                    check=_equal_check("not-moderate"),
                    must_match=False,
                )
            )
        else:
            ak = assoc_kinds[i % 3]
            requests.append(assoc(text, ak() if ak is gennum.AssocKind.weak else ak(rng.choice(_THRESHOLDS))))
        requests.append(map_checks[i % len(map_checks)])
        probe_text, _ = _SAMPLED_PROBES[i % len(_SAMPLED_PROBES)]
        requests.append(norm(probe_text, w_col, _SAMPLED_DEFECT))
    # p90 sits inside the band of 16-level sampled classifications; the
    # black-box map searches above it come in steps of up to 1.6 s
    return Workload(requests, trace_requests=len(requests) // 2,
                    tail_percentile=90.0, map_evals=map_evals)


def sampled_probe_oracle_consistent() -> list[str]:
    """The exact tier must still answer every sampled probe correctly."""
    w = spaces.colombeau_space().single_weight()
    bad = []
    for text, expected in _SAMPLED_PROBES:
        v = spaces.ultranorm(spaces.SeqRep.symbolic(text), w)
        if not (v.exact and oracle.same_log(v.log_value, expected)):
            bad.append(f"{text}: exact tier gives {v.log_value!r}, expected {expected}")
    return bad


# ---------------------------------------------------------------------------
# function_algebra


def _lattice_class(seq: genfun.SmoothSeq) -> str:
    """What sizes the seminorm lattice: a support shrinking with n (mollified
    bases), a fixed compact support, or none at all."""
    sup = seq.support_fn(1024)
    if sup is None:
        return "unbounded"
    return "narrow" if sup[1] - sup[0] < 0.05 else "compact"


# lattice classes of fresh inputs in corpus proportion (of the four bases,
# sin and the polynomial have no support, the bump a fixed one, the
# mollifier a shrinking one), in a fixed order so every run prefix costs
# the same; the seed picks the scales and the partner sequence
_CLASS_CYCLE = ("unbounded", "compact", "unbounded", "narrow")


def _stratified(draw: Callable[[], object], class_of: Callable[[object], str], count: int) -> list:
    out = []
    while len(out) < count:
        item = draw()
        if class_of(item) == _CLASS_CYCLE[len(out) % len(_CLASS_CYCLE)]:
            out.append(item)
    return out


def _trapezoid_mass(fn, lo: float, hi: float, points: int = 200_001) -> float:
    xs = np.linspace(lo, hi, points)
    return float(np.trapezoid(fn(xs), xs))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _function_algebra(seed: int) -> Workload:
    rng = random.Random(seed)
    col = spaces.colombeau_space()
    fspace = genfun.FunctionSpace(col, nu_max=2)
    named = {name: corpus.named_function(name) for name in ("delta", "delta-sq", "nsinv-delta-sq", "sin", "bump")}
    delta = named["delta"]
    moll = genfun.standard_mollifier()
    lo, hi = moll.profile.support
    sq_mass = _trapezoid_mass(lambda xs: moll.profile(xs) ** 2, lo, hi)
    bump_mass = _trapezoid_mass(lambda xs: genfun.bump(0.0, 1.0)(xs), -1.0, 1.0)
    c_delta = genfun.seq_scale(sq_mass, delta)
    zero_seq = genfun.constant_seq(genfun.const_fn(0.0))
    tests = genfun.default_test_set()
    square = temperate.square_map()
    weak = gennum.AssocKind.weak()

    fresh_f = _stratified(lambda: corpus.random_smooth(rng), _lattice_class, 16)
    fresh_j = _stratified(lambda: corpus.random_negligible_smooth(rng), _lattice_class, 16)
    fresh_pairs = _stratified(lambda: corpus.random_smooth_pair(rng), lambda p: _lattice_class(p[1]), 16)

    def classify_fresh(f, expected) -> Request:
        return Request(
            kind="classify_fun",
            label=f"classify_fun({f.label})",
            call=lambda: genfun.classify_fun(f, 2, col).verdict,
            check=_equal_check(expected),
            fresh=True,
        )

    def f2(pair) -> Request:
        f, j = pair
        return Request(
            kind="verify_F2",
            label=f"verify_F2(square, {f.label}, {j.label})",
            call=lambda: temperate.verify_F2(square, f, j).passed,
            check=_equal_check(True, undecided=(None,)),
            fresh=True,
        )

    def pair_delta() -> Request:
        n, psi = rng.choice((128, 256, 512, 1024)), rng.choice(tests)
        target = float(psi(np.asarray([0.0]))[0])
        return Request(
            kind="pairing",
            label=f"pairing(delta, {n}, {psi.label})",
            call=lambda: genfun.pairing(delta, n, psi),
            check=lambda v: "right" if abs(v - target) <= 1e-3 else "wrong",
        )

    weak_cases = (
        ("delta^2", named["delta-sq"], "0", zero_seq, "no"),
        ("delta^2", named["delta-sq"], "delta", delta, "no"),
        ("delta^2", named["delta-sq"], "c*delta", c_delta, "no"),
        ("n^-1 delta^2", named["nsinv-delta-sq"], "c*delta", c_delta, "yes"),
    )

    # one request tests one function of the default set; the full-set verdict
    # of `demo delta` is the conjunction of five such requests
    weak_requests = []
    for psi in tests:
        for fl, f, gl, g, expected in weak_cases:
            weak_requests.append(
                Request(
                    kind="weak_assoc_fun",
                    label=f"weak_assoc_fun({fl}, {gl}; {psi.label})",
                    call=lambda f=f, g=g, psi=psi: genfun.weak_assoc_fun(f, g, weak, test_set=[psi]).holds,
                    check=_equal_check(expected),
                )
            )

    def element(name: str) -> Request:
        return Request(
            kind="make_element",
            label=f"make_element({name})",
            call=lambda: genfun.make_element(named[name], fspace).report.verdict,
            check=_equal_check("moderate"),
        )

    mollifiers = (
        ("standard", genfun.standard_mollifier, 1),
        ("corrected", genfun.corrected_mollifier, 3),
        ("narrow", lambda: genfun.make_mollifier(genfun.bump(0.0, 0.5, 1.0 / (0.5 * bump_mass))), 1),
    )

    def mollifier(case) -> Request:
        label, build_fn, min_class = case

        def call():
            m = build_fn()
            return (m.moment_class, m.integral)

        return Request(
            kind="mollifier",
            label=f"mollifier({label})",
            call=call,
            check=lambda ans: "right" if ans[0] >= min_class and abs(ans[1] - 1.0) <= 1e-6 else "wrong",
        )

    extend_cases = (("square", "delta", "moderate"), ("derivative", "delta", "moderate"),
                    ("square", "decaying-sin", "negligible"))

    def extend(case) -> Request:
        map_name, func, expected = case
        return Request(
            kind="cli_extend",
            label=f"ultraseq extend {map_name} {func}",
            call=lambda: _cli(["extend", map_name, func]),
            check=lambda ans: "right" if ans[0] == 0 and f"verdict: {expected}" in ans[1] else "wrong",
        )

    def check_map(name: str) -> Request:
        return Request(
            kind="cli_check_map",
            label=f"ultraseq check-map {name}",
            call=lambda: _cli(["check-map", name]),
            check=lambda ans: "right" if ans[0] == 0 and ans[1].splitlines()[0].endswith(": certified") else "wrong",
        )

    requests: list[Request] = []
    weak_iter = iter(weak_requests * 4)
    for i in range(16):
        requests.append(classify_fresh(fresh_f[i], "moderate"))
        requests.append(next(weak_iter))
        requests.append(pair_delta())
        requests.append(next(weak_iter))
        requests.append(f2(fresh_pairs[i]))
        requests.append(element(("delta", "delta-sq", "sin", "bump")[i % 4]))
        requests.append(next(weak_iter))
        requests.append(classify_fresh(fresh_j[i], "negligible"))
        requests.append(check_map(("square", "derivative")[i % 2]))
        requests.append(next(weak_iter))
        requests.append(mollifier(mollifiers[i % 3]))
        requests.append(extend(extend_cases[i % 3]))
        requests.append(next(weak_iter))
    # p50 and p75 sit inside the band of single weak associations and
    # classifications (0.2-0.5 s), clear of the verify_F2 and CLI steps
    return Workload(requests, trace_requests=13, tail_percentile=75.0)
