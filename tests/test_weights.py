"""Weight sequences, indexed families and asymptotic decay scales."""

import math

import numpy as np
import pytest

from ultraseq import growth
from ultraseq.weights import (
    AsymptoticScale,
    Direction,
    Mode,
    WeightSeq,
    catalog,
    colombeau_weight,
    expdecay_scale,
    power_scale,
    scale_to_weights,
    single_family,
    verify_scale_axioms,
)


def test_colombeau_weight_values():
    w = colombeau_weight()
    assert w.value(math.e) == pytest.approx(1.0)
    assert w.value(100.0) == pytest.approx(1.0 / math.log(100.0))
    assert w.is_symbolic


def test_weight_must_decrease_to_zero():
    with pytest.raises(ValueError):
        WeightSeq(label="n", expr=growth.parse("n"))
    with pytest.raises(ValueError):
        WeightSeq(label="1", expr=growth.parse("1"))


def test_step_weight_values():
    w = catalog("egorov").member(3)
    assert w.is_step
    assert w.values([2, 3, 4, 10]).tolist() == [1.0, 1.0, 0.0, 0.0]


def test_catalog_directions_hold_pointwise():
    for name in ("egorov", "ultra"):
        fam = catalog(name)
        assert fam.direction is Direction.INCREASING
        assert fam.verify_direction()
    assert catalog("colombeau").single
    assert catalog("infra").single
    assert catalog("infra").default_mode is Mode.UNIT_BALL


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog("lebesgue")


def test_ultra_family_exponents():
    fam = catalog("ultra")
    assert fam.m_start == 2
    assert growth.format_expr(fam.member(2).expr) == "n^-2"
    assert growth.format_expr(fam.member(3).expr) == "n^-1.5"
    with pytest.raises(ValueError):
        fam.member(1)


def test_single_family_wraps_one_weight():
    fam = single_family(colombeau_weight(), "solo")
    assert fam.single
    assert fam.member(1) is fam.member(5)


def test_scale_members_and_reciprocals():
    sc = power_scale()
    assert sc.member(0) == growth.ONE
    assert growth.format_expr(sc.member(3)) == "n^-3"
    assert growth.format_expr(sc.member(-3)) == "n^3"
    sd = expdecay_scale()
    assert growth.format_expr(sd.member(2)) == "exp(-2*n)"
    assert growth.format_expr(sd.member(-2)) == "exp(2*n)"


@pytest.mark.parametrize("scale", [power_scale(), expdecay_scale()])
def test_scale_axioms(scale):
    report = verify_scale_axioms(scale)
    assert report.holds
    # each witness level really does sit below the square
    for m, M in report.square_witness.items():
        sq = growth.mul(scale.member(m), scale.member(m))
        assert growth.compare(scale.member(M), sq).relation == growth.LESS


def test_scale_to_weights_symbolic_members():
    W = scale_to_weights(power_scale())
    assert W.direction is Direction.DECREASING
    # 1/|log n^-m| = 1/(m log n)
    w3 = W.member(3)
    assert w3.is_symbolic
    assert w3.value(math.e) == pytest.approx(1.0 / 3.0)

    W = scale_to_weights(expdecay_scale())
    w2 = W.member(2)
    assert w2.value(10.0) == pytest.approx(1.0 / 20.0)
    assert W.verify_direction()


def test_scale_to_weights_level_one_matches_named_families():
    # the power scale at m=1 reproduces the 1/log n weight
    w = scale_to_weights(power_scale()).member(1)
    assert w.value(1000.0) == pytest.approx(colombeau_weight().value(1000.0))
    # the exponential scale at m=1 reproduces 1/n
    w = scale_to_weights(expdecay_scale()).member(1)
    assert w.value(17.0) == pytest.approx(1.0 / 17.0)


def _every_weight() -> list[WeightSeq]:
    ws = [catalog("colombeau").member(1), catalog("infra").member(1)]
    ws += [catalog("egorov").member(m) for m in (1, 3, 8)]
    ws += [catalog("ultra").member(m) for m in range(2, 18)]
    # log(n^-m * exp(-n)) has two monomials, so these weights use an evaluator
    mixed = AsymptoticScale("n^-m*exp(-n)", lambda m: growth.parse(f"n^-{m}*exp(-n)"))
    for scale in (power_scale(), expdecay_scale(), mixed):
        ws += [scale_to_weights(scale).member(m) for m in range(1, 17)]
    return ws


def test_values_equal_pointwise_values():
    ns = np.unique(np.geomspace(3, 2 ** 20, 300).astype(np.int64))
    weights = _every_weight()
    assert any(w.evaluator is not None for w in weights)
    for w in weights:
        vals = w.values(ns)
        assert vals.dtype == np.float64 and vals.shape == ns.shape
        pointwise = np.array([w.value(int(n)) for n in ns])
        assert vals.tobytes() == pointwise.tobytes(), w.label


def test_values_reject_indices_below_n_min():
    for w in _every_weight():
        if w.is_step:
            continue
        with pytest.raises(ValueError, match="needs n >="):
            w.values([w.n_min - 1, w.n_min])
        with pytest.raises(ValueError, match="needs n >="):
            w.value(w.n_min - 1)


def _read_only(ns) -> np.ndarray:
    grid = np.array(ns, dtype=np.int64)
    grid.flags.writeable = False
    return grid


def test_values_on_a_read_only_grid_are_kept_read_only_and_exact():
    grid = _read_only(np.unique(np.geomspace(3, 2 ** 20, 300).astype(np.int64)))
    for w in _every_weight():
        vals = w.values(grid)
        assert not vals.flags.writeable
        assert vals.tobytes() == w.values(grid.copy()).tobytes(), w.label
        assert w.values(grid) is vals


def test_values_on_a_writeable_grid_or_a_view_are_not_kept():
    w = WeightSeq(label="1/n", expr=growth.parse("n^-1"))
    ns = np.arange(2, 200, dtype=np.int64)
    assert w.values(ns).flags.writeable
    view = ns[1:]
    view.flags.writeable = False  # read-only, but its base can still change
    w.values(view)
    assert w._memo == {}


def test_the_memo_never_holds_more_grids_than_its_bound():
    from ultraseq.weights import _MEMO_GRIDS

    w = WeightSeq(label="1/n", expr=growth.parse("n^-1"))
    grids = [_read_only(np.arange(2, 100 + i)) for i in range(_MEMO_GRIDS + 3)]
    for grid in grids:
        w.values(grid)
        assert len(w._memo) <= _MEMO_GRIDS
    # the newest grids are the ones kept
    assert [entry[0] for entry in w._memo.values()] == grids[-_MEMO_GRIDS:]
    assert w == WeightSeq(label="1/n", expr=growth.parse("n^-1"))  # the memo is no part of the value
