import dataclasses
import json
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from graphck import corpus
from graphck.graphs import (
    MAX_INSTANCES,
    OMEGA,
    CapError,
    EdgeBundle,
    EdgeInstance,
    Graph,
    GraphError,
    GraphSyntaxError,
    SignedEdge,
    is_omega,
    parse_graph,
    subgraph_le,
)
from graphck.invariants import enumerate_invariants, open_set_of, quotient_data, tree_invariant_of
from graphck.paths import Path, parse_path
from graphck.structure import find_cycles
from graphck.trees import FiberTree
from helpers import oracle_parse_graph, random_graph, random_walk_path, reachable


def test_parse_basic(graphs):
    g = graphs["edge"]
    assert g.vertices == ("u", "v")
    assert [b.name for b in g.bundles] == ["e"]
    assert g.bundle("e").origin == "u"
    assert g.bundle("e").terminus == "v"


def test_parse_semicolons_and_comments():
    g = parse_graph("vertex u; vertex v # trailing\nedge e : u -> v  # loop\n")
    assert g.vertices == ("u", "v")
    assert len(g.bundles) == 1


def test_parse_multiplicities():
    g = parse_graph("vertex u\nvertex v\nedge e : u -> v * 3\nedge f : u -> u * omega\n")
    assert g.bundle("e").multiplicity == 3
    assert is_omega(g.bundle("f").multiplicity)


def test_multiplicity_is_ascii_digits_or_omega():
    # int() would read all of these, as 10, 2, 3, 2 and 40
    for mult in ("1_0", "+2", "\u0663", "\uff12", "\u0664\u0660"):
        text = "vertex u\nvertex v\nedge a : u -> v * %s\n" % mult
        for read in (parse_graph, oracle_parse_graph):
            with pytest.raises(GraphSyntaxError) as err:
                read(text)
            assert str(err.value) == "line 3: bad multiplicity %r" % mult
    assert parse_graph("vertex u\nedge a : u -> u * 010").bundle("a").multiplicity == 10
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph("vertex u\nedge a : u -> u * 0")
    assert str(err.value) == "line 2: multiplicity of 'a' must be a positive int or omega"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vertx u", "cannot parse"),
        ("vertex u\nedge e : u -> v", "undeclared"),
        ("vertex u\nedge e : u -> u * -1", "multiplicity"),
        ("vertex u\nedge e : u -> u * many", "bad multiplicity"),
        ("vertex u\nvertex u", "duplicate"),
        ("vertex u\nedge u : u -> u", "duplicate"),
        ("vertex u\nedge e : u -> u\nedge e : u -> u", "duplicate"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_error_line_number():
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph("vertex u\n???\n")
    assert "line 2" in str(err.value)


def test_vertex_classes(graphs):
    assert graphs["edge"].sinks == {"v"}
    assert graphs["edge"].regular_vertices == {"u"}
    assert graphs["oinf"].infinite_emitters == {"u"}
    assert graphs["oinf"].regular_vertices == frozenset()
    assert graphs["o2"].regular_vertices == {"u"}
    assert graphs["two"].sinks == {"v", "w"}


def test_out_bundles(graphs):
    g = graphs["o2"]
    assert sum(b.multiplicity for b in g.out_bundles("u")) == 2
    assert "u" not in g.infinite_emitters
    assert [str(e) for e in g.out_instances("u")] == ["a", "b"]
    g = graphs["oinf"]
    bundles = g.out_bundles("u")
    assert "u" in g.infinite_emitters
    assert [is_omega(b.multiplicity) for b in bundles] == [True]
    with pytest.raises(CapError):
        g.out_instances("u")
    assert [str(e) for e in g.out_instances("u", omega_cap=2)] == ["a#0", "a#1"]
    assert g.out_bundles("u") is bundles
    # one tuple per vertex and cap, handed to every caller; a refusal is not kept
    assert g.out_instances("u", omega_cap=2) is g.out_instances("u", 2)
    assert g.out_instances("u", 3) is not g.out_instances("u", 2)
    with pytest.raises(CapError):
        g.out_instances("u")
    for ask in (g.out_bundles, g.out_instances):
        with pytest.raises(GraphError, match="unknown vertex 'nowhere'"):
            ask("nowhere")


def test_names_are_ascii_identifiers():
    # a name is what [A-Za-z_][A-Za-z0-9_]*\Z matches; Graph agrees on keywords,
    # non-ASCII letters and digits, and a trailing newline
    pattern = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    cases = ["a", "_", "A_9", "1a", "", "if", "\u00e9", "\uff58", "\u0660", "a-b", "a b", "a\n"]
    for name in cases:
        ok = pattern.match(name) is not None
        assert ok == (name in ("a", "_", "A_9", "if")), name
        if ok:
            assert Graph([name], []).vertices == (name,)
            assert Graph(["u"], [EdgeBundle(name, "u", "u")]).bundle(name).name == name
        else:
            with pytest.raises(GraphError, match="bad vertex name"):
                Graph([name], [])
            with pytest.raises(GraphError, match="bad edge name"):
                Graph(["u"], [EdgeBundle(name, "u", "u")])


def test_instance_parsing(graphs):
    g = graphs["oinf"]
    assert str(g.instance("a#4")) == "a#4"
    assert g.instance("a").index == 0
    g2 = parse_graph("vertex u\nedge e : u -> u * 2")
    for _ in range(2):  # a bad name is never remembered
        with pytest.raises(GraphError):
            g.instance("zz")
        with pytest.raises(GraphError):
            g2.instance("e#2")
        with pytest.raises(GraphError, match="bad edge index 'x'"):
            g2.instance("e#x")
        with pytest.raises(GraphError, match="out of range"):
            g2.bundle("e").instance(2)
        with pytest.raises(GraphError, match="negative edge index"):
            g.bundle("a").instance(-1)
    # nor is a bad index stored in the bundle
    assert 2 not in g2.bundle("e").__dict__.get("_made", {}) and -1 not in g.bundle("a")._made
    # int() would read all of these; only ASCII digits name an instance
    kept = dict(g.bundle("a")._made)
    for idx in ("1_000", "+2", " 1", "\u0663", "2 ", "", "-1"):
        with pytest.raises(GraphError, match="^bad edge index %s$" % re.escape(repr(idx))):
            g.instance("a#" + idx)
        assert g.bundle("a")._made == kept
    assert g.instance("a#1000").index == 1000 and g.instance("a#007").index == 7


def test_instances_and_letters_are_built_once(graphs):
    g = graphs["oinf"]
    e = g.instance("a#2")
    assert g.instance("a#2") is e is g.bundle("a").instance(2) is g.bundle("a")._made[2]
    assert g.bundle("a").instance(3) is g.instance("a#3")
    s = parse_path(g, "a#2").word[0]
    assert s is e.signed[True] and s.reverse() is e.signed[False]
    assert s.reverse().reverse() is s
    assert parse_path(g, "~a#2").word[0] is s.reverse()
    assert Path.unit("u").append(e).word[0] is s
    assert parse_path(graphs["o2"], "a").word[0] is not parse_path(g, "a").word[0]


def test_every_spelling_of_an_instance_is_one_object(graphs):
    for name, spellings in (("oinf", ("a", "a#0", "a#00")), ("two", ("e", "e#0", "e#000"))):
        g = graphs[name]
        first = g.instance(spellings[0])
        assert all(g.instance(text) is first for text in spellings), name
        assert all(parse_path(g, text).word[0] is first.signed[True] for text in spellings), name
    oinf = graphs["oinf"]
    assert oinf.instance("a#1") is oinf.instance("a#01") is oinf.instance("a#001")
    assert oinf.instance("a#1") is not oinf.instance("a#10")


def test_every_route_to_an_instance_gives_the_bundles_one_object(graphs):
    exclusions = 0
    for name, g in graphs.items():
        ident = Graph.restricted(g.vertices, g.bundles, name + ".same")
        for b in g.bundles:
            twin = EdgeBundle(b.name, b.origin, b.terminus, b.multiplicity)
            for cap in (1, 2, 3):
                for e in b.instances(cap):
                    text = "%s#%d" % (b.name, e.index)
                    assert e is b.instance(e.index) is g.instance(text) is ident.instance(text)
                    assert parse_path(g, text).word[0] is e.signed[True]
                    assert parse_path(g, "~" + text).word[0] is e.signed[False]
                    # an equal bundle that is another object keeps its own
                    other = twin.instance(e.index)
                    assert other == e and hash(other) == hash(e) and other is not e
        for v in g.vertices:
            for cap in (1, 2, 3):
                want = [b.instance(i) for b in g.out_bundles(v) for i in b.indices(cap)]
                got = g.out_instances(v, cap)
                assert len(got) == len(want) and all(x is y for x, y in zip(got, want)), (name, v)
        for c in find_cycles(g):
            assert all(e is g.instance(str(e)) for e in c.instances), (name, c)
            walk = parse_path(g, ".".join(map(str, c.instances)))
            assert all(s is e.signed[True] for s, e in zip(walk.word, c.instances)), (name, c)
        fib = FiberTree(g, g.vertices[0])
        for inv in enumerate_invariants(g):
            quotient = quotient_data(g, inv).graph
            assert all(quotient.instance(b.name) is g.instance(b.name) for b in quotient.bundles)
            for excluded in tree_invariant_of(open_set_of(fib, inv, depth=2), depth=1).values():
                assert all(e is g.instance(str(e)) for e in excluded), (name, inv)
                exclusions += len(excluded)
    assert exclusions > 0


def test_hashes_are_the_dataclass_formulas(graphs):
    # hashes, and so set orders, do not see the cached letters, keys and
    # hashes: a kept hash, asked for a second time, is still the formula
    for g in graphs.values():
        for b in g.bundles:
            e = g.instance(b.name)
            s = e.signed[True].reverse()
            p = Path.unit(b.origin).append(e)
            assert hash(b) == hash((b.name, b.origin, b.terminus, b.multiplicity))
            assert hash(e) == hash((b, e.index)) and e == b.instance(0)
            assert hash(s) == hash((e, False)) and s == SignedEdge(e, False)
            assert hash(p) == hash((p.origin, p.word)) and p == Path(b.origin, p.word)
            paths = (p, parse_path(g, b.name), Path.trusted(b.origin, p.word))
            for _ in range(2):
                assert [hash(x) for x in e.signed] == [hash((e, False)), hash((e, True))]
                assert all(hash(q) == hash((q.origin, q.word)) for q in paths)
            assert s.sort_key() is s.sort_key() == (b.name, 0, True)
            assert e.signed[True].sort_key() is e.signed[True].sort_key() == (b.name, 0, False)


def test_letter_equality_is_the_dataclass_formula(graphs):
    # SignedEdge.__eq__ tests identity, then the sort key, then the edge: on
    # letters of two parses of each corpus graph and of pickled copies, and
    # across graphs where a bundle name has other ends (a is u -> v in chain
    # and u -> u in loop), == and hash agree with (edge, forward)
    copies = [corpus.load(name) for name in corpus.GRAPH_NAMES]
    copies += [pickle.loads(pickle.dumps(g)) for g in graphs.values()]
    pool = [*graphs.values(), *copies]
    letters = [s for g in pool for b in g.bundles for e in b.instances(2) for s in e.signed]
    seen = Counter()
    for s in letters:
        for t in letters:
            same = (s.edge, s.forward) == (t.edge, t.forward)
            assert (s == t) is same and (s != t) is not same, (s, t)
            assert not same or hash(s) == hash(t), (s, t)
            seen["same key, other ends" if s.sort_key() == t.sort_key() and not same else same] += 1
    assert graphs["chain"].bundle("a").terminus != graphs["loop"].bundle("a").terminus
    assert min(seen.values()) > 500, seen


def test_edges_letters_and_walks_keep_what_they_compute(graphs):
    # stored facts equal the formulas they replace, asked once or twice
    assert [f.name for f in dataclasses.fields(SignedEdge)] == ["edge", "forward"]
    rng = random.Random(2500)
    pool = list(graphs.values()) + [random_graph(rng, max_vertices=6) for _ in range(30)]
    walks = 0
    for g in pool:
        for b in g.bundles:
            formula = hash((b.name, b.origin, b.terminus, b.multiplicity))
            assert hash(b) == formula and hash(b) == formula
            for i in b.indices(3):
                # the bundle's own instance, and a second, equal one
                for e in (b.instance(i), EdgeInstance(b, i)):
                    assert hash(e) == hash((b, i)) and hash(e) == hash((b, i))
                    back, ahead = e.signed
                    assert (ahead.origin, ahead.terminus) == (b.origin, b.terminus)
                    assert (back.origin, back.terminus) == (b.terminus, b.origin)
                    for s in (back, SignedEdge(e, False), ahead, SignedEdge(e, True)):
                        assert hash(s) == hash((e, s.forward))
                        assert s.sort_key() == (b.name, i, not s.forward)
        for _ in range(20):
            p = random_walk_path(rng, g, max_len=6)
            q = Path.trusted(p.origin, p.word)
            assert q == Path(p.origin, p.word) and hash(q) == hash(p) == hash((p.origin, p.word))
            assert q.letter_keys == p.letter_keys == tuple(s.sort_key() for s in p.word)
            assert q.terminus == p.terminus and str(q) == str(p)
            walks += len(p.word) > 1
    assert walks > 300


def test_names_must_be_strings():
    for name in (1, None, b"a"):
        with pytest.raises(GraphError, match="bad vertex name"):
            Graph([name], [])
        with pytest.raises(GraphError, match="bad edge name"):
            Graph(["u"], [EdgeBundle(name, "u", "u")])


def _reachable_oracle(g: Graph, v: str) -> frozenset:
    # fixpoint over the one-step relation, written independently of helpers.reachable
    step = {u: set() for u in g.vertices}
    for b in g.bundles:
        step[b.origin].add(b.terminus)
    out = {v}
    while True:
        grown = set(out)
        for u in out:
            grown |= step[u]
        if grown == out:
            return frozenset(out)
        out = grown


def test_reachable_against_oracle():
    rng = random.Random(901)
    for _ in range(200):
        g = random_graph(rng)
        for v in g.vertices:
            assert reachable(g, v) == _reachable_oracle(g, v)


def test_restricted_matches_the_checked_constructor():
    rng = random.Random(902)
    for _ in range(200):
        g = random_graph(rng)
        keep = [v for v in g.vertices if rng.random() < 0.7]
        kept = set(keep)
        bundles = [b for b in g.bundles if b.origin in kept and b.terminus in kept]
        fast = Graph.restricted(keep, bundles, "part")
        slow = Graph(keep, bundles, name="part")
        assert (fast.name, fast.vertices, fast.bundles) == (slow.name, slow.vertices, slow.bundles)
        for v in g.vertices:
            assert fast.has_vertex(v) == (v in kept)
        for v in keep:
            assert fast.out_bundles(v) == slow.out_bundles(v)
            assert fast.in_bundles(v) == slow.in_bundles(v)
        for b in bundles:
            assert fast.bundle(b.name) is b
        assert (fast.sinks, fast.infinite_emitters, fast.regular_vertices) == (
            slow.sinks,
            slow.infinite_emitters,
            slow.regular_vertices,
        )
        assert fast.sccs == slow.sccs
        assert fast.generator_reach == slow.generator_reach


def test_subgraph_le(graphs):
    edge, two = graphs["edge"], graphs["two"]
    assert subgraph_le(edge, two)
    assert not subgraph_le(two, edge)
    sub = parse_graph("vertex u\nedge e : u -> u")
    sup = parse_graph("vertex u\nedge e : u -> u * 2")
    assert subgraph_le(sub, sup)
    assert not subgraph_le(sup, sub)
    omega_sup = parse_graph("vertex u\nedge e : u -> u * omega")
    assert subgraph_le(sub, omega_sup)
    assert not subgraph_le(omega_sup, sup)
    # same name, different endpoints
    other = parse_graph("vertex u\nvertex v\nedge e : v -> u")
    assert not subgraph_le(other, parse_graph("vertex u\nvertex v\nedge e : u -> v"))


def test_bundle_validation():
    with pytest.raises(GraphError):
        EdgeBundle("e", "u", "v", 0)
    with pytest.raises(GraphError):
        EdgeBundle("e", "u", "v", 2).instance(2)
    assert EdgeBundle("e", "u", "v", OMEGA).instance(10 ** 9).index == 10 ** 9


def test_a_finite_bundle_lists_at_most_the_cap():
    assert len(list(EdgeBundle("e", "u", "v", MAX_INSTANCES).instances())) == MAX_INSTANCES
    message = "^bundle e has %d instances, more than %d$" % (MAX_INSTANCES + 1, MAX_INSTANCES)
    for m in (MAX_INSTANCES + 1, 10**12):
        b = EdgeBundle("e", "u", "v", m)
        # raised on the call, before any instance is built
        with pytest.raises(CapError, match=message if m == MAX_INSTANCES + 1 else None):
            b.instances()
        with pytest.raises(CapError):
            b.indices()
        g = Graph(["u", "v"], [b])
        with pytest.raises(CapError):
            g.out_instances("u")
        assert g.instance("e#%d" % (m - 1)).index == m - 1


_PICKLE_SCRIPT = """
import json, pickle, sys
from graphck.graphs import parse_graph
from graphck.paths import parse_path
g = parse_graph("vertex u; vertex v; edge e : u -> v * 2; edge f : v -> u * omega")
p = parse_path(g, "e#1.f#4.~f#2")
objs = [g.bundle("e"), g.bundle("f"), p.word[0].edge, p.word[0], p.word[2], p]
if sys.argv[1] == "dump":
    hashes = [hash(x) for x in objs + list(p.word)]  # every kept hash is filled
    sys.stdout.buffer.write(pickle.dumps((objs, hashes)))
else:
    got, hashes = pickle.loads(sys.stdin.buffer.read())
    print(json.dumps({
        "equal": [x == y for x, y in zip(got, objs)],
        "hash": [hash(x) == hash(y) for x, y in zip(got, objs)],
        "set": [len({x, y}) for x, y in zip(got, objs)],
        "stale": [h != hash(y) for h, y in zip(hashes, objs)],
        "one_object": [got[2] is got[0].instance(1), got[3] is got[2].signed[True],
                       got[5].word[0] is got[3], got[5].word[1].edge is got[1].instance(4)],
    }))
"""


def test_pickles_rebuild_their_hashes():
    # a hash depends on PYTHONHASHSEED, so an object pickled under one seed
    # and loaded under another must hash as it does when built afresh there:
    # a bundle, an instance, a letter and a walk each
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def run(seed, arg, data=None):
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, arg],
            input=data, capture_output=True, check=True, env=dict(env, PYTHONHASHSEED=seed),
        ).stdout

    seen = json.loads(run("1", "load", run("0", "dump")))
    assert seen == {
        "equal": [True] * 6,
        "hash": [True] * 6,
        "set": [1] * 6,
        "stale": [True] * 6,
        "one_object": [True] * 4,
    }
