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

from ultraseq import genfun
from ultraseq.genfun import SeminormSpec, seminorm, sin_fn, standard_mollifier

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
