import random

import pytest

from graphck import corpus
from graphck.graphs import GraphError
from graphck.paths import Path, PathError, directed_upto, parse_path
from graphck.trees import FiberTree
from helpers import fiber_vertices, random_graph, random_walk_path
from test_fuzz import mangle


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


def test_parse_rejects_unknown():
    g = corpus.load("chain")
    with pytest.raises(Exception):
        parse_path(g, "a.q")
    with pytest.raises(PathError):
        parse_path(g, "")
    # the error names what was looked for: only a bare name can be a vertex
    for text, what in (
        ("zz", "unknown vertex or edge 'zz'"),
        (" zz ", "unknown vertex or edge 'zz'"),
        ("zz#1", "unknown edge 'zz'"),
        ("a.zz", "unknown edge 'zz'"),
        ("~zz", "unknown edge 'zz'"),
    ):
        with pytest.raises(PathError) as exc:
            parse_path(g, text)
        assert str(exc.value) == "in path %r: %s" % (text.strip(), what)
    assert g._walks == {}


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


def test_drop_out_of_range_raises(graphs):
    g = graphs["chain"]
    p = parse_path(g, "a.b")
    for n in (-1, -2, 3, 4):
        with pytest.raises(PathError, match="cannot drop %d letters from a.b" % n):
            p.drop(n)
    with pytest.raises(PathError):
        Path.unit("u").drop(1)


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


def _corpus_walks(g):
    return [p for v in g.vertices for p in fiber_vertices(FiberTree(g, v), 3, 2)]


def _outcome(g, text):
    try:
        return parse_path(g, text)
    except GraphError as exc:
        return type(exc), str(exc)


def test_walks_are_interned_per_graph(graphs):
    rng = random.Random(1801)
    parsed = failed = 0
    for g in graphs.values():
        for p in _corpus_walks(g):
            texts = [str(p), " %s " % p, mangle(rng, str(p))]
            q = parse_path(g, texts[0])
            assert q == p and q is parse_path(g, texts[0]) is parse_path(g, texts[1])
            for t in texts[1:]:
                before = dict(g._walks)
                first = _outcome(g, t)
                if isinstance(first, Path):
                    assert parse_path(g, t) is first
                    parsed += 1
                else:
                    # a bad text raises the same message on every call and is never stored
                    assert _outcome(g, t) == first and g._walks == before, t
                    failed += 1
    assert parsed > 300 and failed > 250


def test_a_second_parse_looks_nothing_up(monkeypatch):
    g = corpus.load("mix")
    walks = {str(p): parse_path(g, str(p)) for p in _corpus_walks(g)}
    monkeypatch.setattr(g, "instance", None)
    monkeypatch.setattr(g, "has_vertex", None)
    monkeypatch.setattr(Path, "__post_init__", None)
    assert all(parse_path(g, t) is p for t, p in walks.items())


def test_a_first_parse_validates_the_word(graphs):
    g = graphs["chain"]
    for text, msg in (("a.a", "letter a does not start at v"), ("a.~a", "word is not reduced at ~a")):
        for _ in range(2):
            with pytest.raises(PathError, match=msg):
                parse_path(g, text)
        assert text not in g._walks


def test_interned_walks_are_the_validated_ones(graphs):
    for g in graphs.values():
        for p in _corpus_walks(g):
            q = parse_path(g, str(p))
            fresh = Path(q.origin, q.word)  # the validating constructor
            assert q == fresh and hash(q) == hash(fresh) and q.letter_keys == fresh.letter_keys
            assert q.sort_key() == fresh.sort_key() and repr(q) == repr(fresh) == str(p)


def test_two_graphs_never_share_a_walk():
    g, h = corpus.load("mix"), corpus.load("mix")
    for p in _corpus_walks(g):
        a, b = parse_path(g, str(p)), parse_path(h, str(p))
        assert a == b and a is not b
    assert g._walks.keys() == h._walks.keys()
    assert not set(map(id, g._walks.values())) & set(map(id, h._walks.values()))


def test_paths_are_slotted_and_fill_their_letter_keys_lazily(graphs):
    g = graphs["mix"]
    for p in _corpus_walks(g):
        t = Path.trusted(p.origin, p.word)
        assert not hasattr(t, "__dict__") and t._keys is None
        keys = t.letter_keys
        assert keys == tuple(s.sort_key() for s in p.word) and t._keys is keys
        assert t == p and hash(t) == hash((p.origin, p.word))

