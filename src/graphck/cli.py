"""Command line front end.

Exit codes: 0 success, 1 unreadable input, bad usage or a closed stdout, 2
a cap was needed or passed, 3 a semantic check failed (inadmissible family,
failed relation, mismatched expectation).

Importing this module loads graphck.graphs and graphck.corpus only, which
hold the graph reader and every error the exit codes name.  Each command
imports the modules it calls when it runs: rep-verify loads fock alone,
and analyze structure alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus
from .graphs import (
    CapError,
    EdgeBundle,
    FockError,
    Graph,
    GraphError,
    GraphSyntaxError,
    InvariantError,
    PathError,
    PointError,
    SetExprError,
    is_omega,
    load_graph,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(spec: str) -> Graph:
    if spec in corpus.GRAPH_NAMES:
        return corpus.load(spec)
    try:
        return load_graph(spec, name=spec.rsplit("/", 1)[-1].removesuffix(".graph"))
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (spec, exc))


def _show(m) -> object:
    return "omega" if is_omega(m) else m


def _emit(args, data: dict, lines):
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_analyze(args) -> int:
    from .structure import count_paths_into, structure_report

    if args.cap < 0:
        raise UsageError("--cap must be at least 0, got %d" % args.cap)
    g = _load(args.graph)
    rep = structure_report(g, cycle_cap=args.cap)
    into = {v: _show(count_paths_into(g, v)) for v in g.vertices}
    data = {
        "graph": g.name,
        "vertices": sorted(g.vertices),
        "sinks": sorted(g.sinks),
        "infinite_emitters": sorted(g.infinite_emitters),
        "cycles": [
            {"steps": str(c), "kind": c.kind, "count": _show(c.count)}
            for c in rep.cycles
        ],
        "flags": rep.flags(),
        "witnesses": rep.witnesses,
        "paths_into": into,
    }
    lines = ["%s: %d vertices, %d edge bundles" % (g.name, len(g.vertices), len(g.bundles))]
    if g.sinks:
        lines.append("sinks: %s" % ", ".join(sorted(g.sinks)))
    if g.infinite_emitters:
        lines.append("infinite emitters: %s" % ", ".join(sorted(g.infinite_emitters)))
    for c in rep.cycles:
        lines.append("cycle %s %s (count %s)" % (c, c.kind, _show(c.count)))
    for name, value in rep.flags().items():
        note = "" if value else "  [%s]" % rep.witnesses.get(name, "")
        lines.append("%s: %s%s" % (name, "yes" if value else "no", note))
    lines.append(
        "paths into: " + ", ".join("%s=%s" % (v, into[v]) for v in sorted(into))
    )
    _emit(args, data, lines)
    return 0


def cmd_ideals(args) -> int:
    from .invariants import enumerate_invariants, hasse_edges, quotient_data
    from .structure import is_essentially_principal

    g = _load(args.graph)
    en = enumerate_invariants(g)
    order = hasse_edges(en.invariants)
    if args.dot:
        lines = ["digraph families {"]
        for i, inv in enumerate(en.invariants):
            lines.append('  n%d [label="%s"];' % (i, inv))
        for a, b in order:
            lines.append("  n%d -> n%d;" % (a, b))
        lines.append("}")
        print("\n".join(lines))
        return 0
    faithful = is_essentially_principal(g)
    families = []
    for i, inv in enumerate(en.invariants):
        qd = quotient_data(g, inv)
        families.append(
            {
                "index": i,
                "text": str(inv),
                "vertices": sorted(inv.vertices),
                "exclusions": {
                    u: sorted(str(e) for e in es) for u, es in inv.exclusions
                },
                "residue_vertices": sorted(qd.graph.vertices),
                "residue_marks": sorted(qd.s_marks),
            }
        )
    data = {
        "graph": g.name,
        "order_faithful": faithful,
        "count": len(en.invariants),
        "families": families,
        "hasse": [list(edge) for edge in order],
        "flagged": [],
        "notes": list(en.notes),
    }
    lines = [
        "%s: %d families (order faithful: %s)"
        % (g.name, len(en.invariants), "yes" if faithful else "no")
    ]
    for fam in families:
        lines.append(
            "#%d %s  residue %s marks %s"
            % (
                fam["index"],
                fam["text"],
                ",".join(fam["residue_vertices"]) or "-",
                ",".join(fam["residue_marks"]) or "-",
            )
        )
    if order:
        lines.append("covers: " + ", ".join("%d<%d" % e for e in order))
    for note in en.notes:
        lines.append("note: %s" % note)
    _emit(args, data, lines)
    return 0


def cmd_rep_verify(args) -> int:
    from .fock import algebra_dimension, all_hold, build_basis, verify_relations

    g = _load(args.graph)
    marks = None if args.marks is None else [m for m in args.marks.split(",") if m]
    basis = build_basis(
        g, args.mode, marks=marks, depth=args.depth, omega_cap=args.omega_truncate
    )
    reports = verify_relations(basis)
    dim = algebra_dimension(basis) if basis.exact else None
    data = {
        "graph": g.name,
        "mode": basis.mode,
        "marks": sorted(basis.marks),
        "size": basis.size,
        "exact": basis.exact,
        "relations": [
            {"name": r.name, "holds": r.holds, "witness": r.witness, "checked": r.checked}
            for r in reports
        ],
        "dimension": dim,
    }
    lines = [
        "%s: %s basis of %d paths (%s)"
        % (g.name, basis.mode, basis.size, "exact" if basis.exact else "truncated")
    ]
    lines += [str(r) for r in reports]
    if dim is not None:
        lines.append("dimension: %d" % dim)
    _emit(args, data, lines)
    return 0 if all_hold(reports) else 3


def cmd_setcalc(args) -> int:
    from .paths import parse_path
    from .setexpr import first_apex, parse_setexpr
    from .trees import FiberTree

    g = _load(args.graph)
    base = args.base
    if base is None:
        apex = first_apex(args.expr)
        if apex is None:
            raise UsageError("no cone in the expression; pass --base")
        base = parse_path(g, apex).origin
    elif not g.has_vertex(base):
        raise UsageError("--base %s is not a vertex of %s" % (base, g.name))
    tree = FiberTree(g, base)
    result = parse_setexpr(tree, args.expr)
    if isinstance(result, bool):
        key = "subset" if "<=" in args.expr else "equal"  # the one comparison it parsed
        _emit(args, {"base": base, key: result}, ["true" if result else "false"])
        return 0
    _emit(args, {"base": base, "result": str(result)}, [str(result)])
    return 0


def cmd_standard_form(args) -> int:
    from .cover import standard_form
    from .paths import parse_path
    from .points import parse_point

    g = _load(args.graph)
    alpha = parse_path(g, args.walk)
    y = parse_point(g, args.point)
    sf = standard_form(alpha, y)
    data = {
        "beta1": str(sf.beta1),
        "beta2": str(sf.beta2),
        "point": str(sf.x),
        "degree": sf.degree,
    }
    _emit(args, data, ["%s  degree %d" % (sf, sf.degree)])
    return 0


def cmd_cocycle(args) -> int:
    from .cover import standard_form
    from .paths import parse_path
    from .points import parse_point

    g = _load(args.graph)
    sf = standard_form(parse_path(g, args.walk), parse_point(g, args.point))
    print(sf.degree)
    return 0


def cmd_af_blocks(args) -> int:
    from .cover import af_block_enumerate

    g = _load(args.graph)
    sub = g if args.sub is None else _load(args.sub)
    blocks = af_block_enumerate(g, sub, args.length, omega_cap=args.omega_truncate)
    data = {
        "graph": g.name,
        "length": args.length,
        "count": len(blocks),
        "blocks": [
            {"beta1": str(b.beta1), "beta2": str(b.beta2), "terminus": b.terminus}
            for b in blocks
        ],
    }
    _emit(
        args,
        data,
        ["%d blocks at length <= %d" % (len(blocks), args.length)]
        + [str(b) for b in blocks],
    )
    return 0


def _random_subgraph(rng, g: Graph) -> Graph:
    verts = [v for v in g.vertices if rng.random() < 0.8] or [sorted(g.vertices)[0]]
    vset = set(verts)
    bundles = []
    for b in g.bundles:
        if b.origin not in vset or b.terminus not in vset or rng.random() > 0.85:
            continue
        mult = b.multiplicity
        if not is_omega(mult) and rng.random() > 0.7:
            mult = rng.randint(1, mult)
        bundles.append(EdgeBundle(b.name, b.origin, b.terminus, mult))
    return Graph(sorted(vset), bundles, name=(g.name or "graph") + ".part")


def _lift_path(g: Graph, p):
    word = tuple(
        g.bundle(s.edge.bundle.name).instance(s.edge.index).signed[s.forward]
        for s in p.word
    )
    return type(p)(p.origin, word)


def _singleton_checks(rng, g, sub, sub_marks, lines) -> bool:
    """Singletons at inherited marks stay singletons upstairs; at a vertex
    that lost its mark the transported set must leave the kernel."""
    from .ringsets import BasicSet, RingSet
    from .trees import FiberTree

    g_marks = g.regular_vertices
    tree = FiberTree(sub, sorted(sub.vertices)[0])
    walks = list(tree.directed_to_depth(2, omega_cap=2))
    rng.shuffle(walks)
    ok = True
    checked = 0
    for p in walks:
        u = p.terminus
        if u not in sub.regular_vertices or checked >= 6:
            continue
        checked += 1
        w = RingSet.of(tree, [BasicSet(p, frozenset(sub.out_instances(u)))])
        pushed = w.pushforward(
            FiberTree(g, tree.base),
            lambda q: _lift_path(g, q),
            lambda e: g.bundle(e.bundle.name).instance(e.index),
        )
        down = w.kernel_member(lambda q: q.terminus in sub_marks)
        up = pushed.kernel_member(lambda q: q.terminus in g_marks)
        # an inherited mark keeps every upstairs edge, so both agree there;
        # anywhere else some upstairs edge is missing from the block
        if down != (u in sub_marks) or up != (u in sub_marks):
            ok = False
            lines.append("  kernel test failed at %s over %s" % (u, p))
    return ok


def cmd_limit_check(args) -> int:
    import random

    from .cover import directed_paths_upto
    from .fock import algebra_dimension, build_basis
    from .invariants import induced_marks

    if args.chains < 1:
        raise UsageError("--chains must be at least 1, got %d" % args.chains)
    g = _load(args.graph)
    if not g.vertices:
        raise UsageError("%s has no vertices" % g.name)
    rng = random.Random(args.seed)
    marks = g.regular_vertices
    failures = 0
    lines = []
    results = []
    for i in range(args.chains):
        mid = _random_subgraph(rng, g)
        small = _random_subgraph(rng, mid)
        mid_marks = induced_marks(mid, g, marks)
        small_marks = induced_marks(small, mid, mid_marks)
        compose_ok = small_marks == induced_marks(small, g, marks)

        # af-blocks are the equal-length pairs of paths with a common end,
        # diagonal included, so they nest exactly when the path sets do
        paths = [set(directed_paths_upto(g, h, args.length, omega_cap=2)) for h in (small, mid, g)]
        nest_ok = paths[0] <= paths[1] <= paths[2]

        kernel_ok = _singleton_checks(rng, g, small, small_marks, lines)

        dims = None
        try:
            dims = [
                algebra_dimension(build_basis(h, "ck", marks=m))
                for h, m in ((small, small_marks), (mid, mid_marks), (g, marks))
            ]
            dims_ok = dims[0] <= dims[1] <= dims[2]
        except FockError:
            dims_ok = True  # not exact; nothing to compare
        chain_ok = compose_ok and nest_ok and kernel_ok and dims_ok
        failures += 0 if chain_ok else 1
        results.append(
            {
                "chain": i,
                "small": sorted(small.vertices),
                "mid": sorted(mid.vertices),
                "marks_compose": compose_ok,
                "blocks_nest": nest_ok,
                "kernel_aligned": kernel_ok,
                "dimensions": dims,
                "ok": chain_ok,
            }
        )
        lines.append(
            "chain %d: marks %s, blocks %s, kernel %s, dims %s"
            % (
                i,
                "ok" if compose_ok else "FAIL",
                "ok" if nest_ok else "FAIL",
                "ok" if kernel_ok else "FAIL",
                "-" if dims is None else " <= ".join(str(d) for d in dims),
            )
        )
    data = {"graph": g.name, "chains": results, "failures": failures}
    _emit(args, data, lines)
    return 0 if failures == 0 else 3


def cmd_corpus_run(args) -> int:
    from .fock import algebra_dimension, build_basis
    from .invariants import enumerate_invariants
    from .structure import structure_report

    exp = corpus.expected()
    bad = 0
    lines = []
    results = {}
    for name in corpus.GRAPH_NAMES:
        g = corpus.load(name)
        want = exp[name]
        problems = []
        count = len(enumerate_invariants(g))
        if count != want["invariants"]:
            problems.append("families: expected %d, got %d" % (want["invariants"], count))
        rep = structure_report(g)
        for flag, value in rep.flags().items():
            if value != want["flags"][flag]:
                problems.append(
                    "%s: expected %s, got %s" % (flag, want["flags"][flag], value)
                )
        if rep.essentially_principal != want["lattice_faithful"]:
            problems.append("order faithfulness drifted")
        dims = want["dimensions"]
        if dims is not None:
            got_ck = algebra_dimension(build_basis(g, "ck"))
            got_to = algebra_dimension(build_basis(g))
            if got_ck != dims["ck"]:
                problems.append("ck dimension: expected %d, got %d" % (dims["ck"], got_ck))
            if got_to != dims["toeplitz"]:
                problems.append(
                    "toeplitz dimension: expected %d, got %d" % (dims["toeplitz"], got_to)
                )
        results[name] = {"ok": not problems, "problems": problems}
        bad += 1 if problems else 0
        status = "ok" if not problems else "MISMATCH (%s)" % "; ".join(problems)
        lines.append("%s: %s" % (name, status))
    lines.append("%d of %d graphs match" % (len(results) - bad, len(results)))
    _emit(args, {"results": results, "failures": bad}, lines)
    return 0 if bad == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    # the help shows the summary and the exit codes, not the note on loading
    parser = _Parser(prog="graphck", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine readable output")
        return p

    p = add("analyze", cmd_analyze, "cycles, flags, and path counts")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=10000, help="cycle census cap")

    p = add("ideals", cmd_ideals, "the family lattice and its quotients")
    p.add_argument("graph")
    p.add_argument("--omega-f-bound", type=int, help="ignored: no such bound adds a family")
    p.add_argument("--dot", action="store_true", help="emit the order as a digraph")

    p = add("rep-verify", cmd_rep_verify, "check generator relations on a path basis")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("toeplitz", "ck"), default="ck")
    p.add_argument("--marks", help="comma separated regular vertices")
    p.add_argument("--depth", type=int)
    p.add_argument("--omega-truncate", type=int, default=3)

    p = add("setcalc", cmd_setcalc, "evaluate a cone-set expression")
    p.add_argument("graph")
    p.add_argument("expr")
    p.add_argument("--base", help="fiber base vertex (default: origin of the first cone)")

    p = add("standard-form", cmd_standard_form, "factor a walk against a point")
    p.add_argument("graph")
    p.add_argument("walk")
    p.add_argument("point", help="a walk, a vertex, or stem@circuit")

    p = add("cocycle", cmd_cocycle, "the degree of an arrow")
    p.add_argument("graph")
    p.add_argument("walk")
    p.add_argument("point")

    p = add("af-blocks", cmd_af_blocks, "equal-length path pairs with their regions")
    p.add_argument("graph")
    p.add_argument("--sub", help="marked subgraph file (default: the whole graph)")
    p.add_argument("--length", type=int, default=1)
    p.add_argument("--omega-truncate", type=int, default=3)

    p = add("limit-check", cmd_limit_check, "nested subgraph coherence checks")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chains", type=int, default=3)
    p.add_argument("--length", type=int, default=2)

    add("corpus-run", cmd_corpus_run, "run every bundled graph against expectations")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # stdout closed early: point it at devnull for the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CapError as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except (GraphSyntaxError, SetExprError, PathError, PointError, FockError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (InvariantError, GraphError) as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
