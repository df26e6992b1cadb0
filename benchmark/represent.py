"""represent: the `rep-verify` composition on freshly parsed graphs.

Each query parses its graph, builds a path basis, checks the generator
relations on it and, when the basis is exact, computes the dimension of
the span, so the fock module does nearly all the work.  Exact bases of
acyclic graphs (chains, binary trees, doubled ladders, in both modes,
seeded partial marks in ck mode) are dominated by the rational rank;
truncated bases of cyclic and omega graphs by the relation check.  Every
basis has at least one interior column, so no verdict is vacuous.
"""

from __future__ import annotations

import reference as ref
from common import cli_json
from gen import (
    CORPUS_NAMES,
    Spec,
    btree,
    chain,
    corpus_text,
    doubled_ladder,
    interleave,
    omega_emitter,
    ring_with_chords,
)

PASS = 100
OMEGA_CAP = 3
ACYCLIC_CORPUS = ("edge", "two", "chain", "par", "t2")


def _truncated_graphs() -> list[tuple[str, str]]:
    """Cyclic or omega graphs whose bases are cut at a depth."""
    named = [(n, corpus_text(n)) for n in ("o2", "oinf", "mix", "dd")]
    return named + [("ring6+2", ring_with_chords(6, 2)), ("emitter", omega_emitter())]


def _marks(g: ref.RefGraph, mode: str, rng):
    """None in toeplitz mode; else every other regular vertex in name
    order, from the first or the second as the seed says."""
    regular = sorted(g.regular())
    if mode == "toeplitz" or len(regular) < 2:
        return None
    return tuple(regular[rng.randrange(2) :: 2])


def _interior(text: str, depth: int, marks) -> int:
    """Interior columns of a ck basis; marks None marks every regular vertex."""
    g = ref.RefGraph(text)
    return ref.truncated_paths(g, depth, OMEGA_CAP, g.regular() if marks is None else set(marks))[1]


def generate(rng) -> list[Spec]:
    def exact(family, make, lo, hi):
        def spec(q, k, rng):
            n = lo + int((hi - lo + 1) * q)
            mode = ("toeplitz", "ck")[k % 2]
            text = make(n)
            marks = _marks(ref.RefGraph(text), mode, rng)
            return Spec("exact", "%s-%d %s" % (family, n, mode), text, (mode, marks, None))

        return spec

    graphs = _truncated_graphs()

    def truncated(q, k, rng):
        name, text = graphs[k % len(graphs)]
        depth = 3 + int(5 * q)
        mode = ("toeplitz", "ck")[(k // len(graphs)) % 2]
        marks = _marks(ref.RefGraph(text), mode, rng)
        if mode == "ck" and not _interior(text, depth, marks):
            mode, marks = "toeplitz", None
        return Spec("truncated", "%s d%d %s" % (name, depth, mode), text, (mode, marks, depth))

    def cli_spec(q, k, rng):
        name = CORPUS_NAMES[int(len(CORPUS_NAMES) * q)]
        mode = ("toeplitz", "ck")[k % 2]
        depth = None if name in ACYCLIC_CORPUS else 3 + k % 4
        if depth is not None and mode == "ck" and not _interior(corpus_text(name), depth, None):
            mode = "toeplitz"
        return Spec("cli", "cli-rep-verify-%s %s" % (name, mode), name, (mode, None, depth))

    classes = [
        (12, exact("chain", chain, 10, 16)),
        (6, exact("btree", btree, 4, 5)),
        (6, exact("ladder", doubled_ladder, 4, 5)),
        (30, truncated),
        (16, cli_spec),
    ]
    return interleave(classes, PASS, rng)


def prepare(gc, specs):
    return None


def reference(spec: Spec) -> dict:
    mode, marks, depth = spec.params
    g = ref.RefGraph(corpus_text(spec.text) if spec.kind == "cli" else spec.text)
    if mode == "toeplitz":
        mset = set()
    else:
        mset = set(g.regular() if marks is None else marks)
    want = {"relations": 5 + bool(mset), "marks": sorted(mset), "dimension": None}
    if depth is None:
        n = ref.paths_into(g)
        kept = [n[v] for v in g.vertices if v not in mset]
        want["size"] = want["interior"] = sum(kept)
        want["dimension"] = sum(x * x for x in kept)
        if spec.kind == "cli" and marks is None:
            stored = ref.expected()[spec.text]["dimensions"][mode]
            if stored != want["dimension"]:
                raise AssertionError("%s: expected.json says %d" % (spec.label, stored))
    else:
        want["size"], want["interior"] = ref.truncated_paths(g, depth, OMEGA_CAP, mset)
    return want


def run(gc, tr, spec: Spec, state):
    mode, marks, depth = spec.params
    if spec.kind == "cli":
        argv = ["rep-verify", spec.text, "--mode", mode]
        if depth is not None:
            argv += ["--depth", str(depth)]
        return cli_json(gc, tr, argv)
    g = tr.call("graphs.parse_graph", gc.parse_graph, spec.text)
    basis = tr.call("fock.build_basis", gc.build_basis, g, mode, marks=marks, depth=depth)
    reports = tr.call("fock.verify_relations", gc.verify_relations, basis)
    dim = tr.call("fock.algebra_dimension", gc.algebra_dimension, basis) if basis.exact else None
    return basis, reports, dim


def _answer(spec: Spec, answer) -> dict:
    if spec.kind == "cli":
        rc, data = answer
        return {
            "rc": rc,
            "size": data["size"],
            "marks": data["marks"],
            "holds": [r["holds"] for r in data["relations"]],
            "dimension": data["dimension"],
        }
    basis, reports, dim = answer
    return {
        "rc": 0,
        "size": basis.size,
        "marks": sorted(basis.marks),
        "holds": [r.holds for r in reports],
        "dimension": dim,
    }


def check(spec: Spec, answer, want: dict) -> str | None:
    got = _answer(spec, answer)
    if got["rc"] != 0:
        return "exit code %d" % got["rc"]
    if got["marks"] != want["marks"]:
        return "marks %s, want %s" % (got["marks"], want["marks"])
    if got["size"] != want["size"]:
        return "basis of %d paths, want %d" % (got["size"], want["size"])
    if len(got["holds"]) != want["relations"] or not all(got["holds"]):
        return "relations %s" % got["holds"]
    if got["dimension"] != want["dimension"]:
        return "dimension %s, want %s" % (got["dimension"], want["dimension"])
    return None


def tally(tr, spec: Spec, answer, want: dict) -> None:
    tr.add("fock.basis_paths", want["size"])
    tr.add("fock.interior_columns", want["interior"])
    tr.add("fock.dimension_sum", want["dimension"] or 0)
