"""Spans and counts around the public functions of each ultraseq layer.

The tracer wraps functions from outside the package: a wrapper replaces
the function in its defining module and in every module that imported it
by name, and methods are replaced on their class.  Each call records a
span (layer, start, end, parent span, request id) in flat in-memory arrays
that are written out once, as one .npz file, when the traced run ends.  A layer's self time
is its span minus the time its child spans cover.

Counts are machine independent (calls, lattice points, evaluator points,
quadrature integrand evaluations), so two runs on one seed must agree on
them exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # "name" or "Class.method"
    name: str
    before: Callable | None = None  # (args, kwargs) -> {count suffix: amount}
    after: Callable | None = None  # (result) -> (span name, {count suffix: amount})


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _size_of(pos: int, name: str):
    def before(args, kwargs):
        return {"points": int(np.size(_arg(args, kwargs, pos, name)))}

    return before


def _ultranorm_after(result):
    if result.exact:
        return "spaces.ultranorm_exact", {}
    # the estimator reports the last window sup as its value when it cannot
    # extrapolate: a residual too large for the fit, or too few windows
    fallback = result.witness.startswith(("tail fit residual", "too few finite tail windows"))
    return "spaces.ultranorm_sampled", {"stable": int(result.stable), "fallback": int(fallback)}


def _classify_after(result):
    return None, {"levels": len(result.m_probed), "inconclusive": int(result.verdict == "inconclusive")}


def _seminorm_before(args, kwargs):
    """Lattice size as `seminorm` builds it, from the public spec and support."""
    from ultraseq import genfun

    f, n, spec = (_arg(args, kwargs, i, name) for i, name in enumerate(("f", "n", "spec")))
    sup = f.support_fn(n)
    h, radius = spec.lattice(n, None if sup is None else sup[1] - sup[0])
    lo, hi = -radius, radius
    if sup is not None:
        lo, hi = max(lo, sup[0]), min(hi, sup[1])
        if hi <= lo:
            return {"points": 0, "grid_capped": 0}
    count = int((hi - lo) / h) + 1
    cap = genfun._MAX_GRID  # the coarsening threshold has no public name yet
    return {"points": max(min(count, cap), 2), "grid_capped": int(count > cap)}


LAYERS = (
    Layer("ultraseq.growth", "parse", "growth.parse"),
    Layer("ultraseq.growth", "compare", "growth.compare"),
    Layer("ultraseq.growth", "limit_of_product", "growth.limit_of_product"),
    Layer("ultraseq.growth", "eval_log", "growth.eval_log", before=_size_of(1, "ns")),
    Layer("ultraseq.weights", "WeightSeq.values", "weights.values", before=_size_of(1, "ns")),
    Layer("ultraseq.weights", "WeightSeq.value", "weights.value"),
    Layer("ultraseq.spaces", "ultranorm", "spaces.ultranorm_exact", after=_ultranorm_after),
    Layer("ultraseq.spaces", "SeqRep.log_values", "spaces.log_values", before=_size_of(1, "ns")),
    Layer("ultraseq.spaces", "classify", "spaces.classify", after=_classify_after),
    Layer("ultraseq.gennum", "make", "gennum.make"),
    Layer("ultraseq.gennum", "associate", "gennum.associate"),
    Layer("ultraseq.genfun", "seminorm", "genfun.seminorm", before=_seminorm_before),
    Layer("ultraseq.genfun", "SmoothSeq.at", "genfun.eval", before=_size_of(2, "xs")),
    Layer("ultraseq.genfun", "pairing", "genfun.pairing"),
    Layer("ultraseq.genfun", "weak_assoc_fun", "genfun.weak_assoc_fun"),
    Layer("ultraseq.genfun", "make_mollifier", "genfun.mollifier"),
    Layer("ultraseq.genfun", "classify_fun", "genfun.classify_fun"),
    Layer("ultraseq.temperate", "check_moderate", "temperate.check_moderate"),
    Layer("ultraseq.temperate", "check_compatible", "temperate.check_compatible"),
    Layer("ultraseq.temperate", "verify_F2", "temperate.verify_F2"),
    Layer("ultraseq.temperate", "check_temperate", "temperate.check_temperate"),
    Layer("ultraseq.temperate", "extend", "temperate.extend"),
    Layer("ultraseq.cli", "main", "cli.main"),
)


class Tracer:
    """Owns the spans and counts of one traced run."""

    def __init__(self):
        self.active = False
        self.request_id = -1
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- spans

    def _open(self) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.requests.append(self.request_id)
        self.name_ids.append(-1)
        self.ends.append(0.0)
        self._stack.append([idx, 0.0])
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, name: str):
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        dur = end - self.starts[idx]
        self.ends[idx] = end
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_ids[idx] = self._name_ids[name]
        self.self_s[name] += dur - covered
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def _add(self, name: str, amounts: dict):
        for key, amount in amounts.items():
            self.counts[f"{name}.{key}"] += amount

    # -- wrapping

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pre = layer.before(args, kwargs) if layer.before else None
            tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(layer.name)
                raise
            name, post = layer.after(result) if layer.after else (None, None)
            name = name or layer.name
            tracer._close(name)
            if pre:
                tracer._add(name, pre)
            if post:
                tracer._add(name, post)
            return result

        return wrapper

    def _wrap_quad(self, quad: Callable) -> Callable:
        """scipy's quad and the integrand it receives: calls, evaluations and
        results whose error estimate misses the requested tolerance."""
        tracer = self

        @functools.wraps(quad)
        def wrapper(func, a, b, *args, **kwargs):
            if not tracer.active:
                return quad(func, a, b, *args, **kwargs)

            def integrand(*xs):
                tracer.counts["genfun.quad.evals"] += 1
                return func(*xs)

            tracer._open()
            try:
                result = quad(integrand, a, b, *args, **kwargs)
            finally:
                tracer._close("genfun.quad")
            value, err = result[0], result[1]
            tol = max(kwargs.get("epsabs", 1.49e-8), kwargs.get("epsrel", 1.49e-8) * abs(value))
            tracer.counts["genfun.quad.failed"] += int(err > tol)
            return result

        return wrapper

    def install(self):
        """Replace every traced function wherever ultraseq modules refer to it."""
        import scipy.integrate

        replaced: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), layer))
                continue
            original = getattr(module, layer.attr)
            replaced[id(original)] = self._wrap(original, layer)
        original_quad = scipy.integrate.quad
        replaced[id(original_quad)] = self._wrap_quad(original_quad)
        scipy.integrate.quad = replaced[id(original_quad)]
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("ultraseq"):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    # -- output

    def layer_self_ms(self) -> dict[str, float]:
        return {name: 1000.0 * s for name, s in self.self_s.items()}

    def write_spans(self, path) -> int:
        """One .npz of parallel arrays: span i is (names[name[i]], start[i],
        end[i], parent[i], request[i]); times in seconds from tracer start,
        parent -1 for a root span, request -1 for set-up."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64) - self.origin,
            end=np.frombuffer(self.ends, dtype=np.float64) - self.origin,
            parent=np.frombuffer(self.parents, dtype=np.int32),
            request=np.frombuffer(self.requests, dtype=np.int32),
        )
        return len(self.starts)
