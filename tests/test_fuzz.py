"""Seeded fuzz test: mangled graph text, walks, points and set expressions
run through main() end in a documented exit code with at most a one-line
message, never in an uncaught exception.  So does every subcommand on a
graph with no vertices and on a lone vertex."""

import random

import pytest

from graphck import corpus
from graphck.cli import main
from helpers import arrow_into, random_point, random_walk_path

CHARS = "uvwxabef01#~.;:*@()|&^-=, \n"
PIECES = (
    "omega", "->", "edge", "vertex", "V(", ")", "#1", "#-1", "~", "@", "==", ";",
    "* 2", "* 0", "* omega", "0", "u", "a", "e", ".", ".~a", "\n",
)
EXPRS = ("%s - %s | %s", "%s | %s == %s", "(%s ^ %s) & %s", "%s & (%s - %s) == 0")


def cone(rng, g, base):
    p = random_walk_path(rng, g, max_len=3, start=base)
    cut = list(g.out_instances(p.terminus, 2))
    cut = rng.sample(cut, rng.randint(0, len(cut))) if cut else []
    return "V(%s)" % p if not cut else "V(%s; %s)" % (p, ", ".join(map(str, cut)))


def mangle(rng, text):
    s = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(s))
        op = rng.randrange(4)
        if op == 0 and s:
            del s[min(i, len(s) - 1)]
        elif op == 1:
            s.insert(i, rng.choice(CHARS))
        elif op == 2:
            s[i:i] = rng.choice(PIECES)
        else:
            j = rng.randint(0, len(s))
            s[i:i] = s[min(i, j) : max(i, j)][:12]
    return "".join(s)


def maybe(rng, text):
    return mangle(rng, text) if rng.random() < 0.5 else text


def check(capsys, argv):
    try:
        code = main(argv)
    except Exception as exc:  # the point of the test: report any escape
        pytest.fail("%r raised %r" % (argv, exc))
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    assert err.count("\n") <= 1, (argv, err)
    return code


def test_mangled_inputs_end_in_a_documented_exit(tmp_path, capsys):
    rng = random.Random(5400)
    path = tmp_path / "fuzz.graph"
    codes = set()
    for _ in range(160):
        name = rng.choice(corpus.GRAPH_NAMES)
        g = corpus.load(name)
        path.write_text(mangle(rng, corpus._read(name + ".graph")))
        codes.add(check(capsys, ["analyze", str(path)]))
        graph = str(path) if rng.random() < 0.2 else name
        base = rng.choice(g.vertices)
        expr = rng.choice(EXPRS) % tuple(cone(rng, g, base) for _ in range(3))
        codes.add(check(capsys, ["setcalc", graph, maybe(rng, expr)]))
        x = random_point(rng, g)
        walk, point = maybe(rng, str(arrow_into(rng, g, x))), maybe(rng, str(x))
        codes.add(check(capsys, ["standard-form", graph, walk, point]))
        codes.add(check(capsys, ["cocycle", graph, walk, point]))
    assert {0, 1} <= codes


def test_every_subcommand_on_degenerate_graphs(tmp_path, capsys):
    check(capsys, ["corpus-run"])
    for name, text in (("empty", "# nothing\n"), ("lone", "vertex u\n")):
        path = tmp_path / (name + ".graph")
        path.write_text(text)
        g = str(path)
        for argv in (
            ["analyze", g],
            ["ideals", g],
            ["rep-verify", g],
            ["setcalc", g, "V(u)"],
            ["standard-form", g, "u", "u"],
            ["cocycle", g, "u", "u"],
            ["af-blocks", g],
            ["limit-check", g],
        ):
            check(capsys, argv)
