import random

import pytest

from graphck.paths import Path, PathError, directed_upto, parse_path
from helpers import random_graph, random_walk_path


def test_unit_and_str(graphs):
    g = graphs["chain"]
    u = Path.unit("u")
    assert len(u) == 0 and u.origin == u.terminus == "u"
    assert str(u) == "u"
    p = parse_path(g, "a.b")
    assert str(p) == "a.b"
    assert p.origin == "u" and p.terminus == "w"
    assert p.is_directed


def test_parse_reversals(graphs):
    g = graphs["chain"]
    p = parse_path(g, "~a")
    assert p.origin == "v" and p.terminus == "u"
    assert not p.is_directed
    q = parse_path(g, "~b.~a")
    assert q.origin == "w" and q.terminus == "u"


def test_parse_rejects_unknown(graphs):
    g = graphs["chain"]
    with pytest.raises(Exception):
        parse_path(g, "a.q")
    with pytest.raises(PathError):
        parse_path(g, "")


def test_validation_rejects_noncomposable(graphs):
    g = graphs["chain"]
    a = parse_path(g, "a")
    b = parse_path(g, "b")
    with pytest.raises(PathError):
        Path("u", b.word)
    with pytest.raises(PathError):
        b.concat(a)
    assert str(a.concat(b)) == "a.b"


def test_validation_rejects_unreduced(graphs):
    g = graphs["chain"]
    a = parse_path(g, "a").word[0]
    with pytest.raises(PathError):
        Path("u", (a, a.reverse()))


def test_concat_cancels(graphs):
    g = graphs["chain"]
    a = parse_path(g, "a")
    assert a.concat(a.inverse()) == Path.unit("u")
    ab = parse_path(g, "a.b")
    bbar = parse_path(g, "~b")
    assert ab.concat(bbar) == a
    # cancellation can run through the whole word
    assert ab.concat(ab.inverse()) == Path.unit("u")


def test_append(graphs):
    g = graphs["chain"]
    a = g.instance("a")
    b = g.instance("b")
    p = Path.unit("u").append(a).append(b)
    assert str(p) == "a.b"
    back = parse_path(g, "~a")
    assert back.append(a) == Path.unit("v")


def test_prefix_drop(graphs):
    g = graphs["chain"]
    p = parse_path(g, "a.b")
    assert p.prefix(1) == parse_path(g, "a")
    assert p.drop(1) == parse_path(g, "b")
    assert p.drop(0) == p
    assert p.drop(2) == Path.unit("w")


def test_groupoid_laws_random():
    rng = random.Random(407)
    for _ in range(300):
        g = random_graph(rng)
        p = random_walk_path(rng, g)
        q = random_walk_path(rng, g, start=p.terminus)
        r = random_walk_path(rng, g, start=q.terminus)
        assert (p * q) * r == p * (q * r)
        assert Path.unit(p.origin) * p == p
        assert p * Path.unit(p.terminus) == p
        assert p * p.inverse() == Path.unit(p.origin)
        assert p.inverse() * p == Path.unit(p.terminus)
        assert p.inverse().inverse() == p


def test_str_parse_roundtrip():
    rng = random.Random(408)
    for _ in range(200):
        g = random_graph(rng)
        p = random_walk_path(rng, g)
        if len(p) == 0:
            continue
        assert parse_path(g, str(p)) == p


def _validated(p):
    assert isinstance(p, Path)
    assert p == Path(p.origin, p.word)  # raises PathError on a bad word
    return p


def test_trusted_paths_pass_validation():
    # every path built without the checks is one the checks accept
    rng = random.Random(409)
    built = 0
    for _ in range(400):
        g = random_graph(rng)
        p = random_walk_path(rng, g)
        q = random_walk_path(rng, g, start=p.terminus)
        made = [p.concat(q), p.inverse(), q.inverse().concat(p.inverse())]
        made += [p.prefix(n) for n in range(len(p) + 1)]
        made += [p.drop(n) for n in range(len(p) + 1)]
        made += [p.append(e) for e in g.out_instances(p.terminus, 3)]
        for m in made:
            _validated(m)
        built += len(made)
    assert built > 4000
    # and the trusted constructor itself is an ordinary path
    p = Path.trusted("u", ())
    assert p == Path.unit("u") and hash(p) == hash(Path("u", ())) and str(p) == "u"


def test_directed_upto_stops_at_an_empty_level(graphs):
    # an acyclic graph runs out of extensions long before a huge depth
    g = graphs["chain"]
    units = [Path.unit(v) for v in g.vertices]
    out = directed_upto(units, g.out_instances, 10**9)
    assert sorted(map(str, out)) == ["a", "a.b", "b", "u", "v", "w"]
