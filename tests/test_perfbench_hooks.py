"""The benchmark tracer's hooks still find what they wrap.

perfbench/tracer.py wraps package functions by name from outside the
package, so a refactor that renames or bypasses one makes its per-layer
counters read 0 instead of failing.  These tests load the tracer by path,
with scipy blocked (only `Tracer.install` imports it), and check each hook
against the package as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ultraseq import genfun, spaces
from ultraseq.genfun import SeminormSpec, seminorm, sin_fn, square_seq, standard_mollifier, sub_seq
from ultraseq.gennum import AssocKind
from ultraseq.weights import catalog

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "scipy", None)  # any scipy import now raises
        mp.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracer):
    assert tracer.LAYERS
    for layer in tracer.LAYERS:
        target = importlib.import_module(layer.module)
        for part in layer.attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{layer.name}: {layer.module}.{layer.attr} is gone"
        assert callable(target), layer.name


@pytest.mark.parametrize("make, n", [(lambda: standard_mollifier().sequence(), 64), (sin_fn, 2 ** 14)])
def test_seminorm_hook_counts_the_walked_lattice(tracer, counting_seq, make, n):
    f, calls = counting_seq(make())
    spec = SeminormSpec(nu=2)
    seminorm(f, n, spec)
    walked = sum(size for _, _, _, size in calls)
    assert tracer._seminorm_before((f, n, spec), {}) == {"points": walked, "grid_capped": 0}
    assert tracer._seminorm_before((), {"f": f, "n": n, "spec": spec})["points"] == walked
    assert walked <= genfun._MAX_GRID


def _levels(f, n, psi):
    """The refinement levels of the one-index pairing <f_n, psi>."""
    calls = []
    lo, hi = psi.support
    sup = f.support_fn(n)
    if sup is not None:
        lo, hi = max(lo, sup[0]), min(hi, sup[1])
    genfun._quad(lambda xs: calls.append(xs.size) or f.at(n, xs) * psi(xs), lo, hi)
    return len(calls)


def _install(tracer, monkeypatch, names):
    """A tracer with its own wrappers of the named layers, where `install` puts them."""
    t = tracer.Tracer()
    for layer in tracer.LAYERS:
        if layer.name in names:
            owner = importlib.import_module(layer.module)
            *path, name = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, name, t._wrap(getattr(owner, name), layer))
    return t


def test_weak_association_pairs_in_lockstep_through_the_traced_layers(tracer, monkeypatch):
    t = _install(tracer, monkeypatch, ("genfun.pairing", "genfun.eval"))
    delta = standard_mollifier().sequence()
    f, tests = square_seq(delta), genfun.default_test_set()[:3]
    t.active = True
    genfun.weak_assoc_fun(f, delta, AssocKind.weak(), test_set=tests)
    t.active = False
    diff = sub_seq(f, delta)
    # one pairing per test function, one evaluation per refinement level:
    # the deepest index of a channel sets its number of levels
    levels = [max(_levels(diff, n, psi) for n in genfun._PAIRING_NS) for psi in tests]
    assert t.counts["genfun.pairing.calls"] == len(tests)
    assert t.counts["genfun.eval.calls"] == sum(levels)


def test_every_level_of_a_sampled_classify_is_a_traced_ultranorm(tracer, monkeypatch):
    # one pass takes every level's window maxima, but each level's norm
    # still goes through `ultranorm`, where the tracer counts it
    t = _install(tracer, monkeypatch, ("spaces.ultranorm_exact",))
    t.active = True
    report = spaces.classify(spaces.SeqRep.sampled_from_expr("n^2 * log(n)"), catalog("ultra"))
    t.active = False
    assert len(report.m_probed) == 16
    assert t.counts["spaces.ultranorm_sampled.calls"] == 16
    assert "spaces.ultranorm_exact.calls" not in t.counts
