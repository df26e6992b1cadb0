"""The graph reader and Tarjan against their reference versions, and the
order of Graph's faults.

parse_graph reads the common statements from their whitespace-split
fields, tries one statement pattern on the others and builds bundles of
multiplicity 1 or omega unchecked.  The oracle in helpers.py reads every
statement with both patterns, and every graph, message and line number
must agree with it.  tarjan must give the oracle's components in the
oracle's order.
"""

import random

import pytest

from graphck import corpus
from graphck.graphs import EdgeBundle, Graph, GraphError, parse_graph, tarjan

from helpers import oracle_parse_graph, oracle_tarjan, random_graph
from test_fuzz import mangle

# statement pieces and whitespace the reader must treat as the oracle does
EXTRA = (
    "* 0", "* -1", "* 1", "* 01", "* omega", "* 2", "*", "# note", "#", ";", ";;",
    "\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
    "\r", "\r\n", "vertex ", "edge ", ":", "->", "v", "e", "é", "٣",
)
SPACING = ("\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x85", "\u2028", ";", "# c\n", "\n")


def _chain(n, mult=""):
    lines = ["vertex v%d" % i for i in range(n)]
    lines += ["edge e%d : v%d -> v%d%s" % (i, i, i + 1, mult) for i in range(n - 1)]
    return "\n".join(lines) + "\n"


def _ring(n):
    vs = "; ".join("vertex v%d" % i for i in range(n))
    es = "\n".join("edge e%d:v%d->v%d" % (i, i, (i + 1) % n) for i in range(n))
    return vs + "\n" + es


def _btree(depth):
    n = 2 ** (depth + 1) - 1
    lines = ["vertex n%d  # node" % i for i in range(n)]
    for i in range((n - 1) // 2):
        lines.append("edge a%d : n%d -> n%d" % (i, i, 2 * i + 1))
        lines.append("edge b%d : n%d -> n%d * omega" % (i, i, 2 * i + 2))
    return "\n".join(lines)


def _complete(n):
    lines = ["\tvertex v%d" % i for i in range(n)]
    lines += [
        "edge e%d_%d : v%d -> v%d * 2" % (i, j, i, j) for i in range(n) for j in range(n) if i != j
    ]
    return "\n".join(lines)


def _reading(reader, text):
    try:
        g = reader(text, name="g")
    except Exception as exc:  # any escape must match the oracle's
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    bundles = tuple(
        (b.name, b.origin, b.terminus, b.multiplicity, type(b.multiplicity), hash(b))
        for b in g.bundles
    )
    return ("graph", g.name, g.vertices, bundles)


def _assert_reads_alike(text, label):
    assert _reading(parse_graph, text) == _reading(oracle_parse_graph, text), (label, text)


def _texts():
    for name in corpus.GRAPH_NAMES:
        yield "corpus %s" % name, corpus._read(name + ".graph")
    for n in (1, 2, 5, 12):
        yield "chain %d" % n, _chain(n)
        yield "chain %d * 3" % n, _chain(n, " * 3")
        yield "ring %d" % n, _ring(n)
    for d in (0, 1, 3):
        yield "btree %d" % d, _btree(d)
    for n in (2, 3, 5):
        yield "K%d" % n, _complete(n)


def test_reader_matches_oracle_on_corpus_and_generated_texts():
    for label, text in _texts():
        _assert_reads_alike(text, label)
        assert isinstance(parse_graph(text), Graph), label


def test_reader_matches_oracle_on_mangled_texts():
    rng = random.Random(1302)
    sources = [text for _, text in _texts()]
    raised = graphs = 0
    for k in range(3000):
        s = list(rng.choice(sources))
        if k % 2:
            s = list(mangle(rng, "".join(s)))
            pieces = EXTRA
        else:
            # spacing and comments at line starts leave a valid text valid
            pieces = SPACING
        for _ in range(rng.randint(1, 3)):
            i = rng.choice([0] + [j + 1 for j, c in enumerate(s) if c == "\n"])
            s[i:i] = rng.choice(pieces)
        text = "".join(s)
        _assert_reads_alike(text, k)
        if _reading(oracle_parse_graph, text)[0] == "raised":
            raised += 1
        else:
            graphs += 1
    # both outcomes are well represented
    assert raised > 1000 and graphs > 1000, (raised, graphs)


@pytest.mark.parametrize(
    "text",
    [
        "vertex u\nedge e : u -> u * 0",
        "vertex u\nedge e : u -> u * -1",
        "vertex u\nedge e : u -> u * omega\nedge f : u -> u * 0",
        "vertex u # c\n\n; ;\nedge e : u -> u *\t2",
        "vertex u\nedge e : u -> u",
        "vertex u\x0bvertex v\x0cedge e : u -> v * zero",
        "vertex u edge e : u -> w",
        "edge e : u -> u\nvertex u",
        "vertex u; vertex u; edge 9 : u -> x",
        "vertexu",
        "edgee : u -> u",
        "vertex u v",
        "",
        # the field counts of the common statements, read otherwise or rejected
        "vertex u; vertex v; edge e: : u -> v",
        "vertex u; vertex v; edge a:b : u -> v",
        "vertex u; edge e : u -> ->",
        "vertex u; vertex v; edge e : u => v",
        "vertex u; vertex v; edge e ; u -> v",
        "vertex u; vertex v; edge e :: u -> v",
        "vertex u; vertex v; Edge e : u -> v",
        "vertex u; edge e : u -> u *2",
        "vertex u; edge e : u -> u*2",
        "vertex u; edge e : u -> u w",
        "vertex\u3000u",
        "vertex é",
        "vertex u v w",
        "vertex u\nvertex v\nedge e : u -> v\x1c",
        "vertex u\nvertex v\nedge e\u2003: u\u00a0->\tv",
    ],
)
def test_reader_matches_oracle_on_edge_cases(text):
    _assert_reads_alike(text, text)


def test_tarjan_matches_oracle(graphs):
    # shuffled roots and successors; random graphs bring self-loops and
    # isolated vertices
    rng = random.Random(2101)
    pool = list(graphs.values()) + [random_graph(rng, 12, 18) for _ in range(200)]
    loops = isolated = 0
    for k, g in enumerate(pool):
        succ = {v: [b.terminus for b in g.out_bundles(v)] for v in g.vertices}
        loops += any(v in ts for v, ts in succ.items())
        isolated += any(not g.out_bundles(v) and not g.in_bundles(v) for v in g.vertices)
        for _ in range(3):
            order = list(g.vertices)
            rng.shuffle(order)
            for ts in succ.values():
                rng.shuffle(ts)
            assert tarjan(order, succ.__getitem__) == oracle_tarjan(order, succ.__getitem__), k
    assert loops > 50 and isolated > 50, (loops, isolated)


# several faults at once: Graph names the first in statement order, each
# vertex and then each bundle's name, origin and terminus
@pytest.mark.parametrize(
    "vertices,bundles,message",
    [
        (["u", "1u", "u"], [EdgeBundle("u", "x", "y")], "bad vertex name '1u'"),
        (["u", "v", "u"], [EdgeBundle("9", "x", "y")], "duplicate name 'u'"),
        (["u"], [EdgeBundle("e", "x", "u"), EdgeBundle("u", "u", "u")], "edge e leaves undeclared vertex 'x'"),
        (["u"], [EdgeBundle("e", "u", "x"), EdgeBundle("e", "u", "u")], "edge e enters undeclared vertex 'x'"),
        (["u"], [EdgeBundle("e", "u", "u"), EdgeBundle("e", "x", "y")], "duplicate name 'e'"),
        (["u"], [EdgeBundle("e-1", "x", "y"), EdgeBundle("u", "u", "u")], "bad edge name 'e-1'"),
        # not a name at all: the fault before it is still the one reported
        (["u", "u", 5], [], "duplicate name 'u'"),
    ],
)
def test_graph_fault_precedence(vertices, bundles, message):
    with pytest.raises(GraphError) as err:
        Graph(vertices, bundles)
    assert str(err.value) == message
