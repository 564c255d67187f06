"""Reproducible random inputs and the named function menagerie."""

import random

import pytest

from ultraseq import corpus
from ultraseq.genfun import classify_fun
from ultraseq.spaces import SeqRep


def test_random_exprs_are_deterministic():
    a = corpus.random_exprs(25, seed=7)
    b = corpus.random_exprs(25, seed=7)
    assert a == b
    c = corpus.random_exprs(25, seed=8)
    assert a != c


@pytest.mark.parametrize("kind,verdict", [
    ("moderate", "moderate"),
    ("negligible", "negligible"),
    ("divergent", "divergent"),
])
def test_generated_kinds_classify_as_labeled(kind, verdict, colombeau):
    for e in corpus.random_exprs(20, seed=11, kind=kind):
        assert colombeau.classify(SeqRep.symbolic(e)).verdict == verdict


def test_random_truncated_is_negligible(rng, colombeau):
    for _ in range(5):
        rep = corpus.random_truncated(rng)
        assert rep.is_truncated
        assert colombeau.classify(rep).verdict == "negligible"


def test_modulated_exprs_have_branches(rng):
    e = corpus.random_modulated(rng)
    assert e.modulated


def test_named_functions_resolve():
    for name in corpus.function_names():
        seq = corpus.named_function(name)
        assert seq.label


def test_named_function_unknown_lists_choices():
    with pytest.raises(KeyError) as err:
        corpus.named_function("nonexistent")
    assert "delta" in str(err.value)


def test_random_smooth_pair_split(rng, colombeau):
    for _ in range(4):
        f, j = corpus.random_smooth_pair(rng)
        assert classify_fun(f, 1, colombeau).in_moderate is True
        assert classify_fun(j, 1, colombeau).verdict == "negligible"


def test_random_smooth_draws_reuse_the_stock_delta(monkeypatch):
    # a fresh delta would integrate its moment class on every draw of it
    from ultraseq import genfun

    corpus.named_function("delta")
    calls = []
    monkeypatch.setattr(genfun, "moment_class", lambda profile: calls.append(profile) or (1, 1.0))
    rng = random.Random(3)
    draws = [corpus.random_smooth(rng) for _ in range(40)]
    assert calls == []
    assert sum("delta" in f.label for f in draws) > 5
