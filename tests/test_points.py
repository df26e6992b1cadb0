import random

import pytest

from graphck.paths import Path, parse_path
from graphck.points import AperiodicDescriptor, Lasso, PointError, act

from helpers import random_lasso, random_point, random_walk_path


def sgn(g, text):
    return parse_path(g, text).word


def test_finite_point_basics(graphs):
    g = graphs["chain"]
    x = parse_path(g, "a.b")
    assert x.origin == "u" and x.terminus == "w"
    assert x.is_directed
    assert x.word_prefix(1) == parse_path(g, "a").word
    assert x.drop(1) == parse_path(g, "b")
    y = parse_path(g, "~a")
    assert not y.is_directed


def test_lasso_absorbs_stem(graphs):
    g = graphs["loop"]
    a = sgn(g, "a")
    base = Lasso.of(Path.unit("u"), a)
    assert base.stem == Path.unit("u") and base.cycle == a
    assert Lasso.of(Path("u", a), a) == base
    assert Lasso.of(Path("u", a * 3), a) == base


def test_lasso_junction_cancellation(graphs):
    g = graphs["loop"]
    a = sgn(g, "a")
    back = Path("u", sgn(g, "~a"))
    assert Lasso.of(back, a) == Lasso.of(Path.unit("u"), a)


def test_lasso_primitive_root(graphs):
    g = graphs["loop"]
    a = sgn(g, "a")
    assert Lasso.of(Path.unit("u"), a * 4) == Lasso.of(Path.unit("u"), a)


def test_lasso_rotation_identities(graphs):
    g = graphs["o2"]
    ab = sgn(g, "a.b")
    ba = sgn(g, "b.a")
    # a followed by (ba)^inf is (ab)^inf
    assert Lasso.of(Path("u", sgn(g, "a")), ba) == Lasso.of(Path.unit("u"), ab)
    assert Lasso.of(Path.unit("u"), ba) != Lasso.of(Path.unit("u"), ab)


def test_lasso_rejects_raw_noncanonical(graphs):
    g = graphs["loop"]
    a = sgn(g, "a")
    with pytest.raises(PointError):
        Lasso(Path("u", a), a)  # absorbable stem
    with pytest.raises(PointError):
        Lasso(Path.unit("u"), a * 2)  # imprimitive
    with pytest.raises(PointError):
        Lasso(Path.unit("u"), sgn(g, "~a"))  # reversed letter
    with pytest.raises(PointError):
        Lasso(Path.unit("u"), ())


def test_lasso_word_prefix_and_drop(graphs):
    g = graphs["o2"]
    x = Lasso.of(Path.unit("u"), sgn(g, "a.b"))
    assert x.word_prefix(5) == tuple(sgn(g, "a.b.a.b.a"))
    assert x.drop(2) == x
    assert x.drop(3) == Lasso.of(Path.unit("u"), sgn(g, "b.a"))
    t = graphs["trans"]
    y = Lasso.of(Path.unit("u"), sgn(t, "a"))
    assert y.drop(7) == y


def test_act_is_isotropy_on_matching_circuit(graphs):
    g = graphs["loop"]
    x = Lasso.of(Path.unit("u"), sgn(g, "a"))
    assert act(Path("u", sgn(g, "a")), x) == x
    assert act(Path("u", sgn(g, "~a")), x) == x


def test_act_composes(graphs):
    rng = random.Random(3101)
    for name in ("chain", "o2", "trans", "oinf", "mix"):
        g = graphs[name]
        for _ in range(120):
            x = random_point(rng, g)
            beta = random_walk_path(rng, g, start=x.origin).inverse()
            alpha = random_walk_path(rng, g, start=beta.origin).inverse()
            lhs = act(alpha * beta, x)
            rhs = act(alpha, act(beta, x))
            assert lhs == rhs


def test_act_requires_composability(graphs):
    g = graphs["chain"]
    x = Path.unit("w")
    with pytest.raises(Exception):
        act(parse_path(g, "a"), x)  # a ends at v, not w


def test_lasso_prefix_path_is_reduced(graphs):
    rng = random.Random(3102)
    for name in ("o2", "trans", "oinf", "loop"):
        g = graphs[name]
        for _ in range(60):
            x = random_lasso(rng, g)
            if x is None:
                continue
            p = x.prefix_path(len(x.stem) + 2 * len(x.cycle) + 1)
            assert p.origin == x.origin  # construction validates reducedness


def test_aperiodic_descriptor_has_no_period(graphs):
    g = graphs["o2"]
    d = AperiodicDescriptor(Path.unit("u"), sgn(g, "a"), sgn(g, "b"))
    w = d.word_prefix(60)
    assert len(w) == 60
    assert w[:5] == tuple(sgn(g, "a.b.a.a.b"))
    # growing runs of a defeat every candidate period
    for period in range(1, 12):
        tail = w[20:]
        assert any(tail[i] != tail[i + period] for i in range(len(tail) - period))
