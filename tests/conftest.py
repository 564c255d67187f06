import random

import pytest

from ultraseq import spaces, weights


@pytest.fixture
def rng():
    return random.Random(905)


@pytest.fixture(scope="session")
def colombeau():
    return spaces.colombeau_space()


@pytest.fixture(scope="session")
def infra():
    return spaces.infra_space()


@pytest.fixture(scope="session")
def egorov():
    return spaces.NumberSpace(family=weights.catalog("egorov"), mode=weights.Mode.STANDARD)


@pytest.fixture
def counting_seq():
    """Wrap a SmoothSeq in a jet that records each call as (n, k, first
    point, number of points); returns (wrapped sequence, calls)."""
    from ultraseq.genfun import SmoothSeq

    def wrap(f):
        calls = []

        def jet(n, xs, k):
            calls.append((n, k, float(xs.flat[0]), xs.size))
            return f.jet(n, xs, k)

        return SmoothSeq(label=f.label, jet=jet, max_order=f.max_order, support_fn=f.support_fn), calls

    return wrap


@pytest.fixture
def lattice_walks(monkeypatch):
    """Every seminorm lattice walk made during the test, as (sequence, n,
    radius); holding the sequence keeps its id unique."""
    from ultraseq import genfun

    walks = []
    walk = genfun._order_sups

    def recording(f, n, nu):
        walks.append((f, n, max(nu, 2)))
        return walk(f, n, nu)

    monkeypatch.setattr(genfun, "_order_sups", recording)
    return walks
