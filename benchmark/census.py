"""census: the `analyze` composition on freshly parsed graphs.

Each query parses its graph, runs structure_report and count_paths_into
at every vertex.  Large sparse graphs make the structure module do
nearly all the work: the quadratic reachability loops, the unblocked
cycle walk and the recursive path counts.  Chains and rings stop at
360 vertices, below the sizes where graphck's recursive path counts
(chains of about 490 vertices) and cycle walk (rings of about 990)
exceed Python's default recursion limit, so no query fails.
"""

from __future__ import annotations

import reference as ref
from common import cli_json, first_difference, plain
from gen import (
    CORPUS_NAMES,
    Spec,
    btree,
    chain,
    complete_digraph,
    corpus_text,
    doubled_ladder,
    interleave,
    layered_dag,
    ring,
)

PASS = 100

# generated family -> corpus graph whose flags it shares
ANALOGUE = {"chain": "chain", "ring": "loop", "btree": "t2", "ladder": "two", "complete": "o2"}


def _log_size(lo: int, hi: int, q: float) -> int:
    return round(lo * (hi / lo) ** q)


def generate(rng) -> list[Spec]:
    def sized(family, make, lo, hi):
        def spec(q, k, rng):
            n = _log_size(lo, hi, q)
            return Spec(family, "%s-%d" % (family, n), make(n), (n,))

        return spec

    def large(q, k, rng):
        # one query in twenty: large chains and rings
        n = 300 + int(60 * q)
        family, make = ("chain", chain) if k % 2 == 0 else ("ring", ring)
        return Spec(family, "%s-%d" % (family, n), make(n), (n,))

    def btree_spec(q, k, rng):
        d = 3 + int(6 * q)
        return Spec("btree", "btree-%d" % d, btree(d), (d,))

    def ladder_spec(q, k, rng):
        n = 6 + int(11 * q)
        return Spec("ladder", "ladder-%d" % n, doubled_ladder(n), (n,))

    def complete_spec(q, k, rng):
        n = 4 + int(4 * q)
        return Spec("complete", "K%d" % n, complete_digraph(n), (n,))

    def dag_spec(q, k, rng):
        n = _log_size(50, 300, q)
        seed = rng.randrange(2**31)
        return Spec("dag", "dag-%d/%d" % (n, seed), layered_dag(n, seed), (n, seed))

    def cli_spec(q, k, rng):
        name = CORPUS_NAMES[int(len(CORPUS_NAMES) * q)]
        return Spec("cli", "cli-analyze-%s" % name, name)

    classes = [
        (15, sized("chain", chain, 20, 300)),
        (15, sized("ring", ring, 20, 300)),
        (5, large),
        (10, btree_spec),
        (10, ladder_spec),
        (8, complete_spec),
        (20, dag_spec),
        (17, cli_spec),
    ]
    return interleave(classes, PASS, rng)


def prepare(gc, specs):
    return None


def reference(spec: Spec) -> dict:
    g = ref.RefGraph(corpus_text(spec.text) if spec.kind == "cli" else spec.text)
    if spec.kind == "cli":
        flags = ref.expected()[spec.text]["flags"]
    elif spec.kind in ANALOGUE:
        flags = ref.analogue_flags(ANALOGUE[spec.kind])
    else:
        flags = ref.flags(g)
    out = {"flags": flags, "cycles": ref.cycles(g), "paths_into": ref.paths_into(g)}
    if spec.kind == "complete":
        out["cycle_count"] = ref.complete_digraph_cycles(spec.params[0])
    return out


def run(gc, tr, spec: Spec, state):
    if spec.kind == "cli":
        return cli_json(gc, tr, ["analyze", spec.text])
    g = tr.call("graphs.parse_graph", gc.parse_graph, spec.text)
    rep = tr.call("structure.structure_report", gc.structure_report, g)
    into = {v: tr.call("structure.count_paths_into", gc.count_paths_into, g, v) for v in g.vertices}
    return rep, into


def _answer(spec: Spec, answer) -> dict:
    """The answer in the reference's terms."""
    if spec.kind == "cli":
        rc, data = answer
        steps = [
            (frozenset(s.split("#")[0] for s in c["steps"][1:-1].split(".")), c["kind"], c["count"])
            for c in data["cycles"]
        ]
        return {"rc": rc, "flags": data["flags"], "cycles": steps, "paths_into": data["paths_into"]}
    rep, into = answer
    steps = [
        (frozenset(e.bundle.name for e in c.instances), c.kind, plain(c.count)) for c in rep.cycles
    ]
    return {"rc": 0, "flags": rep.flags(), "cycles": steps, "paths_into": {v: plain(n) for v, n in into.items()}}


def check(spec: Spec, answer, want: dict) -> str | None:
    got = _answer(spec, answer)
    if got["rc"] != 0:
        return "exit code %d" % got["rc"]
    problem = first_difference(got["flags"], want["flags"])
    if problem:
        return "flag " + problem
    cycles = sorted(got["cycles"], key=lambda c: (sorted(c[0]), c[1], str(c[2])))
    if cycles != want["cycles"]:
        return "cycle census: got %d cycles, want %d" % (len(cycles), len(want["cycles"]))
    if "cycle_count" in want and len(cycles) != want["cycle_count"]:
        return "cycle count %d, closed form %d" % (len(cycles), want["cycle_count"])
    problem = first_difference(got["paths_into"], want["paths_into"])
    if problem:
        return "paths into " + problem
    return None


def tally(tr, spec: Spec, answer, want: dict) -> None:
    tr.add("structure.cycles_listed", len(want["cycles"]))
