"""Shared generators for the randomized tests.

Everything takes an explicit random.Random so each test pins its own seed.
"""

from __future__ import annotations

import random
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction

from graphck.fock import FockError, PathBasis, RelationReport
from graphck.graphs import (
    OMEGA,
    EdgeBundle,
    EdgeInstance,
    Graph,
    GraphError,
    GraphSyntaxError,
    SignedEdge,
    is_omega,
)
from graphck.paths import Path, directed_upto, parse_path
from graphck.ringsets import RingSet
from graphck.setexpr import MAX_NESTING, SetExprError, _tokenize
from graphck.trees import FiberTree


def random_graph(
    rng: random.Random,
    max_vertices: int = 8,
    max_bundles: int = 12,
    allow_omega: bool = True,
    allow_multi: bool = True,
) -> Graph:
    n = rng.randint(1, max_vertices)
    vertices = ["v%d" % i for i in range(n)]
    bundles = []
    for j in range(rng.randint(0, max_bundles)):
        mult: object = 1
        roll = rng.random()
        if allow_omega and roll < 0.08:
            mult = OMEGA
        elif allow_multi and roll < 0.2:
            mult = rng.randint(2, 3)
        bundles.append(
            EdgeBundle("e%d" % j, rng.choice(vertices), rng.choice(vertices), mult)
        )
    return Graph(vertices, bundles)


def random_breaking_graph(rng: random.Random, max_vertices: int = 6) -> Graph:
    """A random graph with breaking vertices: on top of a random graph
    without omega bundles, one to three emitters r, each with an omega
    bundle to a vertex of that graph and finite bundles, of multiplicity
    one to three, to any vertex, another emitter or r itself.  A closed set
    holding the omega targets but not some finite target breaks at r."""
    base = random_graph(rng, max_vertices, max_vertices, allow_omega=False)
    emitters = ["r%d" % i for i in range(rng.randint(1, 3))]
    vertices = list(base.vertices) + emitters
    bundles = list(base.bundles)
    for r in emitters:
        bundles.append(EdgeBundle("w" + r, r, rng.choice(base.vertices), OMEGA))
        for k in range(rng.randint(1, 3)):
            bundles.append(EdgeBundle("f%s_%d" % (r, k), r, rng.choice(vertices), rng.randint(1, 3)))
    return Graph(vertices, bundles)


def random_tree_graph(rng: random.Random, n: int) -> Graph:
    """A connected graph whose undirected shape is a tree, multiplicities 1."""
    vertices = ["n%d" % i for i in range(n)]
    bundles = []
    for i in range(1, n):
        p = vertices[rng.randrange(i)]
        c = vertices[i]
        if rng.random() < 0.5:
            bundles.append(EdgeBundle("t%d" % i, p, c))
        else:
            bundles.append(EdgeBundle("t%d" % i, c, p))
    return Graph(vertices, bundles)


def reachable(g: Graph, v: str) -> frozenset[str]:
    """Vertices reachable from v by directed paths, v included."""
    frontier = [g.check_vertex(v)]
    seen: set[str] = set()
    while frontier:
        w = frontier.pop()
        if w in seen:
            continue
        seen.add(w)
        frontier.extend(b.terminus for b in g.out_bundles(w))
    return frozenset(seen)


# graph -> vertex -> the letters leaving it, so walks draw from lists built once
_EXTENSIONS: "weakref.WeakKeyDictionary[Graph, dict]" = weakref.WeakKeyDictionary()


def _signed_extensions(g: Graph, at: str, omega_cap: int) -> list[SignedEdge]:
    """The letters leaving at, omega bundles cut at omega_cap instances; they
    are the bundles' own letters (EdgeInstance.signed of EdgeBundle.instance),
    so a drawn walk and the same walk parsed share their letter objects."""
    table = _EXTENSIONS.setdefault(g, {})
    key = (at, omega_cap)
    if key not in table:
        out = []
        for b in g.out_bundles(at):
            out.extend(e.signed[True] for e in b.instances(omega_cap))
        for b in g.in_bundles(at):
            out.extend(e.signed[False] for e in b.instances(omega_cap))
        table[key] = out
    return table[key]


def _reduced_extensions(g: Graph, p: Path, omega_cap: int = 3) -> list[SignedEdge]:
    """The letters that extend the walk p without cancelling its last one."""
    return [
        s
        for s in _signed_extensions(g, p.terminus, omega_cap)
        if not (p.word and s == p.word[-1].reverse())
    ]


def fiber_vertices(tree, depth: int, omega_cap: int = 3) -> list[Path]:
    """The vertices of a fiber (graphck.trees.FiberTree) with at most depth
    letters, omega bundles cut at omega_cap, in the fiber's vertex order."""
    out, frontier = [tree.unit], [tree.unit]
    for _ in range(depth):
        frontier = [
            Path.trusted(p.origin, p.word + (s,))
            for p in frontier
            for s in _reduced_extensions(tree.graph, p, omega_cap)
        ]
        out += frontier
    return sorted(out, key=tree.vkey)


def _emits_omega(bundles) -> bool:
    return any(is_omega(b.multiplicity) for b in bundles)


def random_walk_path(
    rng: random.Random, g: Graph, max_len: int = 6, start: str | None = None
) -> Path:
    at = start if start is not None else rng.choice(g.vertices)
    p = Path.unit(at)
    for _ in range(rng.randint(0, max_len)):
        options = _reduced_extensions(g, p)
        if not options:
            break
        s = rng.choice(options)
        p = Path(p.origin, p.word + (s,))
    return p


def random_directed_path(
    rng: random.Random, g: Graph, max_len: int = 6, start: str | None = None
) -> Path:
    at = start if start is not None else rng.choice(g.vertices)
    p = Path.unit(at)
    for _ in range(rng.randint(0, max_len)):
        options = []
        for b in g.out_bundles(p.terminus):
            cap = 3 if is_omega(b.multiplicity) else None
            options.extend(b.instances(cap))
        if not options:
            break
        p = p.append(rng.choice(options))
    return p


def cone_oracle(g, v, excluded=frozenset()):
    """Extensional cone of a finite tree graph: plain BFS over successors."""
    succ = {u: [] for u in g.vertices}
    for b in g.bundles:
        succ[b.origin].append((b.instance(0), b.terminus))
    out = {v}
    stack = [w for (e, w) in succ[v] if e not in excluded]
    while stack:
        w = stack.pop()
        if w not in out:
            out.add(w)
            stack.extend(t for (_, t) in succ[w])
    return out


def ringset_extension(g, rs):
    out = set()
    for b in rs.blocks:
        out |= cone_oracle(g, b.apex, b.excluded)
    return out


def random_basic(rng, tree):
    from graphck.ringsets import BasicSet

    apex = rng.choice(tree.vertices)
    d1 = tree.graph.out_instances(tree.endpoint(apex))
    excluded = frozenset(e for e in d1 if rng.random() < 0.4)
    return BasicSet(apex, excluded)


def random_lasso(rng, g, max_stem: int = 4):
    """A random eventually periodic end, or None if no circuit is found."""
    from graphck.points import Lasso

    for _ in range(40):
        p = random_directed_path(rng, g, max_len=8)
        hits = {p.origin: 0}
        loop = None
        for i, s in enumerate(p.word):
            if s.terminus in hits:
                loop = (hits[s.terminus], i + 1)
                break
            hits[s.terminus] = i + 1
        if loop is None:
            continue
        start, stop = loop
        return Lasso.of(p.prefix(start), p.word[start:stop])
    return None


def random_point(rng, g, allow_lasso: bool = True):
    if allow_lasso and rng.random() < 0.4:
        x = random_lasso(rng, g)
        if x is not None:
            return x
    return random_walk_path(rng, g)


def arrow_into(rng, g, x, max_len: int = 5):
    """A random walk composable with the point x."""
    back = random_walk_path(rng, g, max_len=max_len, start=x.origin)
    return back.inverse()


def act_on_ringset(alpha: Path, rs):
    """Translate a ring set over the fiber at t(alpha) to the fiber at
    o(alpha): RingSet.pushforward along p -> alpha.p, edges kept as they
    are, since translation keeps every apex endpoint."""
    from graphck.points import PointError

    fiber = rs.tree
    if not isinstance(fiber, FiberTree) or alpha.terminus != fiber.base:
        raise PointError("walk %s does not end at the base of %r" % (alpha, fiber))
    return rs.pushforward(FiberTree(fiber.graph, alpha.origin), lambda p: alpha * p, lambda e: e)


def _naive_family_ok(g: Graph, nset, fmap) -> bool:
    """Clause-by-clause check straight off the definition, one instance
    at a time.  Omega bundles always keep instances outside the finite
    exclusion sets, so those act like a single non-excluded instance."""
    for u in nset:
        bundles = g.out_bundles(u)
        fset = fmap.get(u, frozenset())
        if fset and not _emits_omega(bundles):
            return False
        for b in bundles:
            t = b.terminus
            if is_omega(b.multiplicity):
                instances = [b.instance(i) for i in range(3)]
                free = True
            else:
                instances = list(b.instances())
                free = any(e not in fset for e in instances)
            if free and (t not in nset or fmap.get(t, frozenset())):
                return False
            for e in instances:
                if e in fset and t in nset and not fmap.get(t, frozenset()):
                    return False
    for u in g.vertices:
        if u in nset:
            continue
        bundles = g.out_bundles(u)
        if not bundles or _emits_omega(bundles):
            continue
        if all(b.terminus in nset and not fmap.get(b.terminus, frozenset()) for b in bundles):
            return False
    return True


def naive_invariants(g: Graph, skip_above: int = 50000):
    """Brute force over families, exclusion sets ranging over arbitrary
    subsets of the finite-bundle instances at each vertex.  Returns a set
    of (vertices, ((u, exclusions), ...)) pairs, or None when the search
    space is over budget."""
    import itertools

    verts = sorted(g.vertices)
    options = {}
    for u in verts:
        bundles = g.out_bundles(u)
        if _emits_omega(bundles):
            fin = [e for b in bundles if not is_omega(b.multiplicity) for e in b.instances()]
            opts = []
            for k in range(len(fin) + 1):
                opts.extend(frozenset(c) for c in itertools.combinations(fin, k))
            options[u] = opts
        else:
            options[u] = [frozenset()]
    work = 1
    for u in verts:
        work *= 1 + len(options[u])
    if work > skip_above:
        return None
    out = set()
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            nset = frozenset(combo)
            for picks in itertools.product(*[options[u] for u in combo]):
                fmap = dict(zip(combo, picks))
                if _naive_family_ok(g, nset, fmap):
                    key = tuple(sorted((u, f) for u, f in fmap.items() if f))
                    out.add((nset, key))
    return out


# The iterative Tarjan that graphck.graphs.tarjan replaced, kept as a
# differential oracle: an on-stack set and a low-link dict, and each
# component popped vertex by vertex.


def oracle_tarjan(vertices, succ) -> list[frozenset[str]]:
    """Strongly connected components, reverse topological order; roots in
    the order of vertices, successors in the order succ(v) lists them."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    out: list[frozenset[str]] = []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    out.append(frozenset(comp))
    return out


# A reference implementation of graphck.graphs.parse_graph, kept as a
# differential oracle: the statement-by-statement reader that tries both
# statement patterns on every statement.

_ORACLE_EDGE_STMT = re.compile(
    r"edge\s+(?P<name>\S+)\s*:\s*(?P<orig>\S+)\s*->\s*(?P<term>\S+)"
    r"(?:\s*\*\s*(?P<mult>\S+))?\Z"
)
_ORACLE_VERTEX_STMT = re.compile(r"vertex\s+(?P<name>\S+)\Z")


def oracle_parse_graph(text: str, name: str = "") -> Graph:
    """The graph format read line by line, trying the vertex pattern and
    then the edge pattern on every statement."""
    vertices = []
    bundles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            m = _ORACLE_VERTEX_STMT.match(stmt)
            if m:
                vertices.append(m.group("name"))
                continue
            m = _ORACLE_EDGE_STMT.match(stmt)
            if m:
                mult_text = m.group("mult")
                if mult_text is None:
                    mult = 1
                elif mult_text == "omega":
                    mult = OMEGA
                elif mult_text.isascii() and mult_text.isdigit():
                    mult = int(mult_text)
                else:
                    raise GraphSyntaxError("bad multiplicity %r" % mult_text, lineno)
                try:
                    bundles.append(
                        EdgeBundle(m.group("name"), m.group("orig"), m.group("term"), mult)
                    )
                except GraphError as exc:
                    raise GraphSyntaxError(str(exc), lineno) from None
                continue
            raise GraphSyntaxError("cannot parse statement %r" % stmt, lineno)
    try:
        return Graph(vertices, bundles, name=name)
    except GraphError as exc:
        raise GraphSyntaxError(str(exc)) from exc


# Reference implementations of graphck.structure, kept as differential
# oracles: the unblocked walk census, the reachability-based flags and the
# recursive path count.  They are quadratic or worse and recursive, so they
# only suit small graphs.


def _oracle_rotation(steps):
    best = None
    for j in range(len(steps)):
        rot = steps[j:] + steps[:j]
        key = tuple(e.sort_key() for e in rot)
        if best is None or key < best[0]:
            best = (key, rot)
    return best[1]


def _oracle_cycle_count(bundles):
    total = 1
    for b in bundles:
        if is_omega(b.multiplicity):
            return OMEGA
        total *= b.multiplicity
    return total


def _oracle_exits(g: Graph, steps):
    """Instances leaving a cycle vertex other than the cycle's own step."""
    for e in steps:
        for b in g.out_bundles(e.origin):
            if b is e.bundle and not is_omega(b.multiplicity) and b.multiplicity == 1:
                continue
            if b is e.bundle:
                # another parallel instance of the same bundle
                yield b.instance(1 if e.index == 0 else 0)
            else:
                yield b.instance(0)


def _oracle_classify(g: Graph, steps) -> str:
    vset = set(e.origin for e in steps)
    kinds = set()
    for e in _oracle_exits(g, steps):
        if vset & reachable(g, e.terminus):
            return "returning"
        kinds.add("leaves")
    return "transitory" if kinds else "terminal"


def oracle_find_cycles(g: Graph, cap: int = 10000):
    """All vertex-simple cycles by an unblocked walk from each vertex."""
    from graphck.structure import Cycle, CycleCapError

    seen: dict = {}
    order = {v: i for i, v in enumerate(g.vertices)}

    def walk(start, at, trail, onpath):
        for b in g.out_bundles(at):
            t = b.terminus
            if t == start:
                steps = _oracle_rotation(tuple(x.instance(0) for x in trail + (b,)))
                seen[tuple(e.sort_key() for e in steps)] = trail + (b,)
                if len(seen) > cap:
                    raise CycleCapError("more than %d cycles" % cap)
            elif t not in onpath and order[t] > order[start]:
                walk(start, t, trail + (b,), onpath | {t})

    for v in g.vertices:
        walk(v, v, (), {v})
    out = []
    for key in sorted(seen):
        bundles = seen[key]
        steps = _oracle_rotation(tuple(b.instance(0) for b in bundles))
        out.append(Cycle(steps, _oracle_classify(g, steps), _oracle_cycle_count(bundles)))
    return tuple(out)


def _oracle_sccs(g: Graph):
    """Strongly connected components, reverse topological order (recursive)."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    out: list = []
    counter = [0]

    def strong(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        onstack.add(v)
        for b in g.out_bundles(v):
            w = b.terminus
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in onstack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                onstack.discard(w)
                comp.add(w)
                if w == v:
                    break
            out.append(frozenset(comp))

    for v in g.vertices:
        if v not in index:
            strong(v)
    return out


def _oracle_has_internal_cycle(g: Graph, comp) -> bool:
    if len(comp) > 1:
        return True
    (v,) = comp
    return any(b.terminus == v for b in g.out_bundles(v))


def oracle_structure_report(g: Graph, cycle_cap: int = 10000):
    """The structure flags and witnesses from the census and per-vertex
    reachability.  The cofinal witness is the first failing vertex in
    g.vertices order, missing first a cycle component in Tarjan order,
    then a sink or infinite emitter in g.vertices order."""
    from graphck.structure import StructureReport

    cycles = oracle_find_cycles(g, cycle_cap)
    wit: dict = {}
    terminal = [c for c in cycles if c.kind == "terminal"]
    transitory = [c for c in cycles if c.kind == "transitory"]

    af = not cycles
    if cycles:
        wit["af"] = "cycle %s" % cycles[0]

    essentially_free = not terminal
    if terminal:
        wit["essentially_free"] = "cycle %s has no exit" % terminal[0]
    essentially_principal = not terminal and not transitory
    if terminal:
        wit["essentially_principal"] = wit["essentially_free"]
    elif transitory:
        wit["essentially_principal"] = "no walk returns to the cycle %s" % transitory[0]

    cycle_verts = set()
    for c in cycles:
        cycle_verts.update(e.origin for e in c.instances)
    reach = {v: reachable(g, v) for v in g.vertices}
    meets_all = True
    for v in g.vertices:
        if not (reach[v] & cycle_verts):
            meets_all = False
            if cycles:
                wit.setdefault("locally_contractive", "no walk from %s meets a cycle" % v)
            break
    if not cycles:
        wit["locally_contractive"] = "no cycles at all"
    locally_contractive = bool(cycles) and not terminal and meets_all
    if terminal and "locally_contractive" not in wit:
        wit["locally_contractive"] = wit["essentially_free"]

    cycle_sccs = [comp for comp in _oracle_sccs(g) if _oracle_has_internal_cycle(g, comp)]
    singular = [v for v in g.vertices if v in g.sinks or v in g.infinite_emitters]
    cofinal = True
    for v in g.vertices:
        for comp in cycle_sccs:
            if not (reach[v] & comp):
                cofinal = False
                wit.setdefault(
                    "cofinal",
                    "vertex %s does not reach the cycle component at %s"
                    % (v, sorted(comp)[0]),
                )
        for s in singular:
            if s not in reach[v]:
                cofinal = False
                wit.setdefault("cofinal", "vertex %s does not reach %s" % (v, s))

    simple = cofinal and not terminal
    if not cofinal:
        wit["simple"] = wit["cofinal"]
    elif terminal:
        wit["simple"] = wit["essentially_free"]

    purely_infinite_simple = simple and bool(cycles) and meets_all
    if not purely_infinite_simple and "purely_infinite_simple" not in wit:
        if not simple:
            wit["purely_infinite_simple"] = wit["simple"]
        else:
            wit["purely_infinite_simple"] = wit["locally_contractive"]

    return StructureReport(
        cycles=cycles,
        af=af,
        locally_contractive=locally_contractive,
        cofinal=cofinal,
        essentially_free=essentially_free,
        essentially_principal=essentially_principal,
        simple=simple,
        purely_infinite_simple=purely_infinite_simple,
        witnesses=wit,
    )


# graph -> the vertices that some cycle vertex or omega terminus reaches
_INFINITE_INTO: "weakref.WeakKeyDictionary[Graph, frozenset]" = weakref.WeakKeyDictionary()


def _infinitely_entered(g: Graph) -> frozenset[str]:
    if g not in _INFINITE_INTO:
        reach = {v: reachable(g, v) for v in g.vertices}
        sources = set()
        for v in g.vertices:
            for b in g.out_bundles(v):
                if v in reach[b.terminus]:
                    sources.add(v)
                if is_omega(b.multiplicity):
                    sources.add(b.terminus)
        _INFINITE_INTO[g] = frozenset().union(*(reach[s] for s in sources))
    return _INFINITE_INTO[g]


def oracle_count_paths_into(g: Graph, u: str):
    """Directed paths ending at u by a recursive memo; OMEGA when some
    cycle vertex or omega terminus reaches u."""
    if u in _infinitely_entered(g):
        return OMEGA
    memo: dict = {}

    def f(v):
        if v not in memo:
            memo[v] = 1 + sum(b.multiplicity * f(b.origin) for b in g.in_bundles(v))
        return memo[v]

    return f(u)


def oracle_free_point_from(g: Graph, u: str):
    """free_point_from by a reachable-set scan over every component,
    taking the first component in Tarjan order that u reaches and that
    has a vertex with two steps inside it, that vertex first in
    g.vertices order."""
    from graphck.points import AperiodicDescriptor
    from graphck.structure import StructureError, _bfs_word

    g.check_vertex(u)
    singular = set(g.sinks) | set(g.infinite_emitters)
    hit = _bfs_word(g, u, singular)
    if hit is not None:
        return Path(u, hit)
    reach = reachable(g, u)
    order = {v: i for i, v in enumerate(g.vertices)}
    for comp in g.sccs:
        if not (comp & reach):
            continue
        branching = None
        for v in sorted(comp, key=order.__getitem__):
            inside = []
            for b in g.out_bundles(v):
                if b.terminus not in comp:
                    continue
                n = 2 if is_omega(b.multiplicity) else b.multiplicity
                inside.extend(b.instance(i) for i in range(min(n, 2)))
            if len(inside) >= 2:
                branching = (v, inside)
                break
        if branching is None:
            continue
        w, inside = branching
        first = inside[0]
        exit_step = next(e for e in inside if e != first)
        alpha = _bfs_word(g, u, {w})
        gamma = (SignedEdge(first),) + _bfs_word(g, first.terminus, {w}, comp)
        ret = (SignedEdge(exit_step),) + _bfs_word(g, exit_step.terminus, {w}, comp)
        return AperiodicDescriptor(Path(u, alpha), gamma, ret)
    raise StructureError("every walk from %s is eventually periodic" % u)


# Reference implementations of graphck.invariants, kept as differential
# oracles: the clause-by-clause admissibility check, NextClosure over the
# closed sets, the candidate scan over all 2^|V| vertex sets times every
# product of whole-bundle exclusion options, and the quadratic and cubic
# cover searches.


def oracle_check_family(g: Graph, inv):
    """Admissibility clause by clause, every failure and note in order:
    the check that invariants.is_invariant runs when a family excludes
    something or fails one of its two set passes."""
    from graphck.invariants import CheckResult

    failures = []
    notes = []
    nset = inv.vertices
    for u in nset:
        g.check_vertex(u)
    fmap = dict(inv.exclusions)
    for u, excl in inv.exclusions:
        # sorted, as equal frozensets may iterate in different orders
        for e in sorted(excl, key=EdgeInstance.sort_key):
            try:
                known = g.bundle(e.bundle.name) == e.bundle
            except GraphError:
                known = False
            if not known or e.origin != u:
                failures.append("excluded edge %s does not leave %s" % (e, u))
    if failures:
        return CheckResult(False, tuple(failures))

    for u in sorted(nset):
        excl = fmap.get(u, frozenset())
        if excl and u not in g.infinite_emitters:
            failures.append("vertex %s has finite valence but excludes %d edges" % (u, len(excl)))
        chosen = {}
        for e in excl:
            chosen[e.bundle] = chosen.get(e.bundle, 0) + 1
        for b in g.out_bundles(u):
            picked = chosen.get(b, 0)
            t = b.terminus
            if is_omega(b.multiplicity) or picked < b.multiplicity:
                # some instance is not excluded
                if t not in nset:
                    failures.append("edge %s leaves the family at %s" % (b.name, u))
                elif fmap.get(t):
                    failures.append(
                        "edge %s from %s lands on %s, which must exclude nothing" % (b.name, u, t)
                    )
            if picked and t in nset:
                if not fmap.get(t):
                    failures.append(
                        "excluded edge %s from %s lands on %s, which needs a nonempty exclusion set"
                        % (b.name, u, t)
                    )
                elif t in g.infinite_emitters:
                    notes.append(
                        "excluded edge %s lands on the infinite-valence member %s with exclusions"
                        % (b.name, t)
                    )
    for u in g.vertices:
        if u in nset or u not in g.regular_vertices:
            continue
        if all(b.terminus in nset and not fmap.get(b.terminus) for b in g.out_bundles(u)):
            failures.append(
                "vertex %s sees only members with empty exclusions and must join the family" % u
            )
    return CheckResult(not failures, tuple(failures), tuple(notes))


def oracle_closed_sets(g: Graph):
    """Every hereditary saturated vertex set, each once, by Ganter's
    NextClosure in lectic order over the sorted vertices.

    The closure of a set adds everything reachable from it, then each
    regular vertex whose every bundle lands inside.  One saturation pass
    with successors first suffices: a vertex on a cycle outside a
    hereditary set always has a successor outside it.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    succ = [[index[b.terminus] for b in g.out_bundles(v)] for v in verts]
    saturating = [index[v] for comp in g.sccs for v in comp if v in g.regular_vertices]

    def close(seed: bytearray) -> bytearray:
        inside = bytearray(seed)
        stack = [i for i in range(n) if inside[i]]
        while stack:
            for j in succ[stack.pop()]:
                if not inside[j]:
                    inside[j] = 1
                    stack.append(j)
        for i in saturating:
            if not inside[i] and all(inside[j] for j in succ[i]):
                inside[i] = 1
        return inside

    a = close(bytearray(n))
    while True:
        yield frozenset(v for v, x in zip(verts, a) if x)
        for i in range(n - 1, -1, -1):
            if a[i]:
                a[i] = 0
                continue
            a[i] = 1
            b = close(a)
            if b[:i] == a[:i]:
                a = b
                break
            a[i] = 0
        else:
            return


def _oracle_f_options(g: Graph, u: str, omega_f_bound: int):
    """Candidate exclusion sets at an infinite-valence member.

    Whole finite bundles in any combination; with a positive bound, also
    index prefixes of the omega bundles, to probe for families the
    bundle-wise rules would flag.
    """
    import itertools

    bundles = g.out_bundles(u)
    finite_bundles = [b for b in bundles if not is_omega(b.multiplicity)]
    omega_bundles = [b for b in bundles if is_omega(b.multiplicity)]
    base = []
    for k in range(len(finite_bundles) + 1):
        for combo in itertools.combinations(finite_bundles, k):
            base.append(frozenset(e for b in combo for e in b.instances()))
    if omega_f_bound <= 0 or not omega_bundles:
        return base
    out = []
    prefix_choices = [range(omega_f_bound + 1)] * len(omega_bundles)
    for sizes in itertools.product(*prefix_choices):
        extra = frozenset(
            b.instance(i) for b, size in zip(omega_bundles, sizes) for i in range(size)
        )
        for fs in base:
            out.append(fs | extra)
    return out


@dataclass(frozen=True)
class OracleEnumeration:
    invariants: tuple
    flagged: tuple
    notes: tuple


def invariant_sort_key(inv):
    """The order enumerate_invariants lists families in: member count,
    sorted members, then each excluding member with its sorted edge keys."""
    return (
        len(inv.vertices),
        tuple(sorted(inv.vertices)),
        tuple((u, tuple(sorted(e.sort_key() for e in es))) for u, es in inv.exclusions),
    )


def oracle_enumerate_invariants(g: Graph, omega_f_bound: int = 0):
    """All admissible families by checking every candidate with
    is_invariant; omega_f_bound > 0 also probes exclusion sets sampling
    the omega bundles and flags any admissible family found that way."""
    import itertools

    from graphck.invariants import Invariant, is_invariant

    verts = sorted(g.vertices)
    emitters = sorted(set(verts) & g.infinite_emitters)
    found = []
    flagged = []
    notes = set()
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            nset = frozenset(combo)
            live = [u for u in emitters if u in nset]
            options = [_oracle_f_options(g, u, omega_f_bound) for u in live]
            for picks in itertools.product(*options):
                inv = Invariant.make(nset, dict(zip(live, picks)))
                res = is_invariant(g, inv)
                if res.ok:
                    found.append(inv)
                    notes.update(res.notes)
                    if any(is_omega(e.bundle.multiplicity) for _, es in inv.exclusions for e in es):
                        flagged.append(
                            "%s stands for an infinite batch of families along its omega exclusions"
                            % inv
                        )
    found.sort(key=invariant_sort_key)
    return OracleEnumeration(tuple(found), tuple(flagged), tuple(sorted(notes)))


def quadratic_hasse_edges(invariants):
    """Covering pairs (i, j): up[i], the elements strictly above element i,
    by n^2 invariant_leq calls; the covers of i are what up[i] holds beyond
    the union of up[m] over its members m."""
    from graphck.invariants import invariant_leq

    invs = list(invariants)
    up = [
        sum(1 << j for j, b in enumerate(invs) if invariant_leq(a, b) and a != b)
        for a in invs
    ]
    edges = []
    for i, above in enumerate(up):
        higher = 0
        rest = above
        while rest:
            low = rest & -rest
            higher |= up[low.bit_length() - 1]
            rest ^= low
        covers = above & ~higher
        while covers:
            low = covers & -covers
            edges.append((i, low.bit_length() - 1))
            covers ^= low
    return edges


def oracle_hasse_edges(invariants):
    """Covering pairs (i, j) by the cubic search for an element between."""
    from graphck.invariants import invariant_leq

    invs = list(invariants)
    below = [[invariant_leq(a, b) and a != b for b in invs] for a in invs]
    edges = []
    for i in range(len(invs)):
        above = [m for m in range(len(invs)) if below[i][m]]  # the m with below[i][m]
        for j in range(len(invs)):
            if not below[i][j]:
                continue
            if any(below[m][j] for m in above):
                continue
            edges.append((i, j))
    return edges


# Reference implementations of graphck.fock, kept as differential oracles:
# the generators as exact rational matrices, the relations checked by
# matrix products, and the span dimension as a rational rank.


@dataclass(frozen=True)
class OracleSparseOperator:
    """A rational matrix as a {(row, col): value} dict, zeros dropped."""

    size: int
    entries: tuple

    @classmethod
    def of(cls, size: int, items) -> "OracleSparseOperator":
        cleaned = {}
        for (i, j), v in dict(items).items():
            v = Fraction(v)
            if v:
                cleaned[(i, j)] = v
        return cls(size, tuple(sorted(cleaned.items())))

    @classmethod
    def zero(cls, size: int) -> "OracleSparseOperator":
        return cls(size, ())

    @classmethod
    def identity(cls, size: int) -> "OracleSparseOperator":
        return cls.of(size, {(i, i): 1 for i in range(size)})

    def todict(self) -> dict:
        return dict(self.entries)

    def __matmul__(self, other: "OracleSparseOperator") -> "OracleSparseOperator":
        if self.size != other.size:
            raise FockError("operator sizes differ")
        by_row: dict[int, list] = {}
        for (i, k), v in other.entries:
            by_row.setdefault(i, []).append((k, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, k), v in self.entries:
            for j, w in by_row.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + v * w
        return OracleSparseOperator.of(self.size, out)

    def __add__(self, other: "OracleSparseOperator") -> "OracleSparseOperator":
        out = dict(self.entries)
        for key, v in other.entries:
            out[key] = out.get(key, Fraction(0)) + v
        return OracleSparseOperator.of(self.size, out)

    def __sub__(self, other: "OracleSparseOperator") -> "OracleSparseOperator":
        out = dict(self.entries)
        for key, v in other.entries:
            out[key] = out.get(key, Fraction(0)) - v
        return OracleSparseOperator.of(self.size, out)

    def adjoint(self) -> "OracleSparseOperator":
        return OracleSparseOperator.of(self.size, {(j, i): v for (i, j), v in self.entries})

    def is_zero(self) -> bool:
        return not self.entries

    def restrict_columns(self, keep) -> "OracleSparseOperator":
        return OracleSparseOperator.of(
            self.size, {(i, j): v for (i, j), v in self.entries if j in keep}
        )

    def is_diagonal_01(self) -> bool:
        return all(i == j and v in (0, 1) for (i, j), v in self.entries)


# basis -> the paths basis_from_paths derived it from
_WORDS: "weakref.WeakKeyDictionary[PathBasis, tuple]" = weakref.WeakKeyDictionary()


def basis_from_paths(graph, mode, marks, depth, omega_cap, paths, exact) -> PathBasis:
    """A PathBasis whose forest is derived from any tuple of paths, which
    may repeat or drop paths or come from another graph: a path whose first
    letter is not a forward letter of the edges, whose tail is missing, or
    which a later copy of the same path shadows, gets first and tail None,
    so it is no edge's image.  basis_paths gives back these paths."""
    paths = tuple(paths)
    edges = tuple(e for b in graph.bundles for e in b.instances(omega_cap))
    at = {(p.origin, p.word): i for i, p in enumerate(paths)}
    slot = {e: k for k, e in enumerate(edges)}
    first, tail = [], []
    for i, p in enumerate(paths):
        w = p.word
        k = j = None
        if w and w[0].forward and at[(p.origin, w)] == i:
            k, j = slot.get(w[0].edge), at.get((w[0].terminus, w[1:]))
        if k is None or j is None:
            k = j = None
        first.append(k)
        tail.append(j)
    origin, length = [p.origin for p in paths], [len(p) for p in paths]
    basis = PathBasis(
        graph, mode, frozenset(marks), depth, omega_cap, exact, edges, origin, length, first, tail
    )
    _WORDS[basis] = paths
    return basis


def basis_paths(basis: PathBasis) -> tuple[Path, ...]:
    """The basis paths as words, in basis order: the paths basis_from_paths
    was given, else the forest spelled out."""
    if basis in _WORDS:
        return _WORDS[basis]
    words: list[tuple] = []
    for k, j in zip(basis.first, basis.tail):
        words.append(() if k is None else (SignedEdge(basis.edges[k]),) + words[j])
    return tuple(Path.trusted(o, w) for o, w in zip(basis.origin, words))


def basis_index(basis: PathBasis) -> dict[Path, int]:
    return {p: i for i, p in enumerate(basis_paths(basis))}


def oracle_build_basis(g, mode="toeplitz", marks=None, depth=None, omega_cap=3):
    """The path basis as whole words: every directed path up to the depth
    as a Path, the marks filter on the termini, then a sort on per-letter
    keys; the same arguments, checks and order as graphck.fock.build_basis,
    which builds a first-letter forest instead."""
    if mode not in ("toeplitz", "ck"):
        raise FockError("unknown mode %r" % mode)
    if depth is not None and depth < 0:
        raise FockError("depth must be at least 0, got %d" % depth)
    if omega_cap < 1:
        raise FockError("omega cap must be at least 1, got %d" % omega_cap)
    mset = frozenset(g.regular_vertices if marks is None else marks)
    bad = mset - g.regular_vertices
    if bad:
        raise FockError("marks %s are not regular vertices" % sorted(bad))
    if mode == "toeplitz":
        mset = frozenset()
    has_omega = any(is_omega(b.multiplicity) for b in g.bundles)
    cyclic = bool(g.cycle_vertices)
    if depth is None and cyclic:
        raise FockError("a cyclic graph needs an explicit depth")
    depth_eff = len(g.vertices) if depth is None else depth
    exact = not cyclic and not has_omega and (depth is None or depth >= len(g.vertices) - 1)
    units = [Path.unit(v) for v in g.vertices]
    out = directed_upto(units, lambda v: g.out_instances(v, omega_cap), depth_eff)
    out = [p for p in out if p.terminus not in mset]
    out.sort(key=lambda p: p.sort_key())
    return basis_from_paths(g, mode, mset, depth, omega_cap, out, exact)


def oracle_generator_matrices(basis):
    """(P, S) as rational matrices: diagonal projections onto the paths
    starting at each vertex, and the prepend operators, truncated where a
    prepended path falls outside the basis."""
    idx = basis_index(basis)
    n = basis.size
    g = basis.graph
    pmat = {}
    for u in g.vertices:
        pmat[u] = OracleSparseOperator.of(
            n, {(i, i): 1 for i, p in enumerate(basis_paths(basis)) if p.origin == u}
        )
    smat = {}
    for b in g.bundles:
        cap = basis.omega_cap if is_omega(b.multiplicity) else None
        for e in b.instances(cap):
            entries = {}
            for p, i in idx.items():
                if p.origin != e.terminus:
                    continue
                q = Path(e.origin, (SignedEdge(e),) + p.word)
                j = idx.get(q)
                if j is not None:
                    entries[(j, i)] = 1
            smat[e] = OracleSparseOperator.of(n, entries)
    return pmat, smat


def _oracle_agree(a, b, interior) -> bool:
    return (a - b).restrict_columns(interior).is_zero()


def oracle_verify_relations(basis):
    """The generator relations checked by matrix products, column by
    column, on the interior columns of a truncated basis."""
    g = basis.graph
    pmat, smat = oracle_generator_matrices(basis)
    n = basis.size
    interior = basis.interior_columns()
    reports = []

    def report(name, holds, witness=""):
        reports.append(RelationReport(name, holds, witness))

    total = OracleSparseOperator.zero(n)
    ortho = True
    witness = ""
    for u, p in pmat.items():
        total = total + p
        if not (p @ p - p).is_zero() or not (p.adjoint() - p).is_zero():
            ortho = False
            witness = "projection at %s" % u
    for u in g.vertices:
        for v in g.vertices:
            if u < v and not (pmat[u] @ pmat[v]).is_zero():
                ortho = False
                witness = "%s and %s overlap" % (u, v)
    report("vertex projections orthogonal", ortho, witness)
    report(
        "vertex projections sum to one",
        (total - OracleSparseOperator.identity(n)).is_zero(),
    )

    ok = True
    witness = ""
    for e, s in smat.items():
        if not _oracle_agree(s.adjoint() @ s, pmat[e.terminus], interior):
            ok = False
            witness = str(e)
            break
    report("translations are partial isometries onto their target", ok, witness)

    ok = True
    witness = ""
    edges = sorted(smat, key=lambda e: e.sort_key())
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if not (smat[e].adjoint() @ smat[f]).restrict_columns(interior).is_zero():
                ok = False
                witness = "%s against %s" % (e, f)
        if not _oracle_agree(pmat[e.origin] @ smat[e], smat[e], interior):
            ok = False
            witness = "%s not supported at %s" % (e, e.origin)
    report("translations have orthogonal ranges", ok, witness)

    ok = True
    witness = ""
    for u in g.vertices:
        acc = OracleSparseOperator.zero(n)
        for b in g.out_bundles(u):
            cap = basis.omega_cap if is_omega(b.multiplicity) else None
            for e in b.instances(cap):
                acc = acc + smat[e] @ smat[e].adjoint()
        defect = (pmat[u] - acc).restrict_columns(interior)
        if not defect.is_diagonal_01():
            ok = False
            witness = "defect at %s is not a subprojection" % u
            break
    report("range sums stay under their vertex", ok, witness)

    ok = True
    witness = ""
    for u in sorted(basis.marks):
        acc = OracleSparseOperator.zero(n)
        for b in g.out_bundles(u):
            for e in b.instances():
                acc = acc + smat[e] @ smat[e].adjoint()
        if not _oracle_agree(pmat[u], acc, interior):
            ok = False
            witness = "marked vertex %s keeps a defect" % u
            break
    if basis.marks:
        report("marked vertices saturate", ok, witness)
    return reports


def _oracle_pair_operator(basis, idx, alpha: Path, beta: Path) -> OracleSparseOperator:
    entries = {}
    for p, i in idx.items():
        if p.origin != beta.terminus:
            continue
        q_from = Path(beta.origin, beta.word + p.word)
        q_to = Path(alpha.origin, alpha.word + p.word)
        i_from = idx.get(q_from)
        i_to = idx.get(q_to)
        if i_from is not None and i_to is not None:
            entries[(i_to, i_from)] = 1
    return OracleSparseOperator.of(basis.size, entries)


def _oracle_all_directed_paths(g: Graph) -> list[Path]:
    out = [Path.unit(v) for v in g.vertices]
    frontier = list(out)
    while frontier:
        nxt = []
        for p in frontier:
            for b in g.out_bundles(p.terminus):
                if is_omega(b.multiplicity):
                    raise FockError("infinite bundle in an exact enumeration")
                for e in b.instances():
                    nxt.append(p.append(e))
        out.extend(nxt)
        frontier = nxt
    return out


def _oracle_rank(rows: list[dict]) -> int:
    pivots: dict[tuple[int, int], dict] = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead in pivots:
                basis_row = pivots[lead]
                factor = row[lead] / basis_row[lead]
                for key, v in basis_row.items():
                    row[key] = row.get(key, Fraction(0)) - factor * v
                row = {k: v for k, v in row.items() if v}
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def oracle_algebra_dimension(basis) -> int:
    """Rank over the rationals of the span of the translation pair
    operators S_a S_b*, a and b ending at a common vertex; needs an exact
    basis."""
    if not basis.exact:
        raise FockError("dimension needs an exact basis")
    idx = basis_index(basis)
    by_terminus: dict[str, list[Path]] = {}
    for p in _oracle_all_directed_paths(basis.graph):
        by_terminus.setdefault(p.terminus, []).append(p)
    rows = []
    for t, group in sorted(by_terminus.items()):
        for alpha in group:
            for beta in group:
                op = _oracle_pair_operator(basis, idx, alpha, beta)
                if not op.is_zero():
                    rows.append(op.todict())
    return _oracle_rank(rows)


# --- the per-tree walks and boundary tests that the shared common-prefix
# walk and the out-degree boundary test in graphck.trees replaced ---


def oracle_walk(tree, u, v):
    """The walk from u to v: a search over the undirected tree for a finite
    tree, the groupoid product u^-1 * v for a fiber."""
    tree.check_vertex(u)
    tree.check_vertex(v)
    if isinstance(tree, FiberTree):
        return tuple((s.edge, s.forward) for s in (u.inverse() * v).word)
    if u == v:
        return ()
    adj = {w: [] for w in tree.graph.vertices}
    for b in tree.graph.bundles:
        e = b.instance(0)
        adj[b.origin].append((b.terminus, e, True))
        adj[b.terminus].append((b.origin, e, False))
    prev = {u: None}
    frontier = [u]
    while frontier and v not in prev:
        nxt = []
        for x in frontier:
            for w, e, fwd in adj[x]:
                if w not in prev:
                    prev[w] = (x, e, fwd)
                    nxt.append(w)
        frontier = nxt
    steps = []
    at = v
    while at != u:
        x, e, fwd = prev[at]
        steps.append((e, fwd))
        at = x
    steps.reverse()
    return tuple(steps)


def oracle_touches_boundary(tree, apex, excluded=frozenset()):
    """Does the cone at apex minus excluded first steps meet the boundary?

    A finite tree lists its cone and looks for a sink in it.  A fiber asks
    whether the apex endpoint is a sink or infinite emitter, or a sink,
    infinite emitter or cycle vertex is reachable through an allowed first
    step, searching the graph once per bundle.
    """
    for e in excluded:
        tree.validate_out_edge(apex, e)
    g = tree.graph
    if not isinstance(tree, FiberTree):
        cone = [apex]
        frontier = [e.terminus for e in g.out_instances(apex) if e not in excluded]
        while frontier:
            v = frontier.pop()
            cone.append(v)
            frontier.extend(e.terminus for e in g.out_instances(v))
        return any(not g.out_bundles(v) for v in cone)
    end = apex.terminus
    skipped: dict = {}
    for e in excluded:
        skipped[e.bundle] = skipped.get(e.bundle, 0) + 1

    def singular(v):
        bundles = g.out_bundles(v)
        return not bundles or _emits_omega(bundles)

    if singular(end):
        return True
    beyond: set[str] = set()
    for b in g.out_bundles(end):
        if is_omega(b.multiplicity) or skipped.get(b, 0) < b.multiplicity:
            beyond |= reachable(g, b.terminus)
    bad = {v for v in g.vertices if singular(v)} | g.cycle_vertices
    return bool(beyond & bad)


# --- the cone-set calculus as it was before graphck.ringsets read apex
# relations off root words: every relation from a materialised walk,
# every block re-validated on every operation, the absorb step rebuilding
# its dict after each fold, and the pairwise overlap check ---


def oracle_classify(tree, u, v):
    """Relative position of two apexes from the step list of their walk."""
    steps = oracle_walk(tree, u, v)
    if not steps:
        return ("equal", steps)
    drop = 0
    while drop < len(steps) and steps[drop][1]:
        drop += 1
    if drop == len(steps):
        return ("below", steps)  # v in V(u)
    if any(fwd for _, fwd in steps[drop:]):
        return ("apart", steps)  # cones disjoint
    if drop == 0:
        return ("above", steps)  # u in V(v)
    return ("meet", steps, drop)  # cones overlap in the cone of the meet


def _oracle_meet_vertex(tree, u, steps, drop):
    at = u
    for e, _ in steps[:drop]:
        at = tree.child(at, e)
    return at


def oracle_basic_intersect(tree, b, c):
    from graphck.ringsets import BasicSet

    if b.apex == c.apex:
        return BasicSet(b.apex, b.excluded | c.excluded)
    tag = oracle_classify(tree, b.apex, c.apex)
    if tag[0] == "apart":
        return None
    if tag[0] == "below":
        return None if tag[1][0][0] in b.excluded else c
    if tag[0] == "above":
        return None if tag[1][-1][0] in c.excluded else b
    _, steps, drop = tag
    if steps[0][0] in b.excluded or steps[-1][0] in c.excluded:
        return None
    return BasicSet(_oracle_meet_vertex(tree, b.apex, steps, drop))


def _oracle_descend_chain(tree, apex, first_excluded, edges):
    from graphck.ringsets import BasicSet

    out = [BasicSet(apex, frozenset(first_excluded) | {edges[0]})]
    at = tree.child(apex, edges[0])
    for e in edges[1:]:
        out.append(BasicSet(at, frozenset([e])))
        at = tree.child(at, e)
    return out


def oracle_basic_diff(tree, b, c):
    from graphck.ringsets import BasicSet

    if b.apex == c.apex:
        return [
            BasicSet(tree.child(b.apex, e))
            for e in sorted(c.excluded - b.excluded, key=EdgeInstance.sort_key)
        ]
    tag = oracle_classify(tree, b.apex, c.apex)
    if tag[0] == "apart":
        return [b]
    if tag[0] == "below":
        steps = tag[1]
        if steps[0][0] in b.excluded:
            return [b]
        out = _oracle_descend_chain(tree, b.apex, b.excluded, [e for e, _ in steps])
        out.extend(
            BasicSet(tree.child(c.apex, e)) for e in sorted(c.excluded, key=EdgeInstance.sort_key)
        )
        return out
    if tag[0] == "above":
        return [b] if tag[1][-1][0] in c.excluded else []
    _, steps, drop = tag
    if steps[0][0] in b.excluded or steps[-1][0] in c.excluded:
        return [b]
    return _oracle_descend_chain(tree, b.apex, b.excluded, [e for e, _ in steps[:drop]])


def oracle_basic_contains(tree, b, c):
    if b.apex == c.apex:
        return c.excluded >= b.excluded
    tag = oracle_classify(tree, b.apex, c.apex)
    return tag[0] == "below" and tag[1][0][0] not in b.excluded


def oracle_has_vertex(rs, v):
    rs.tree.check_vertex(v)
    for b in rs.blocks:
        if b.apex == v:
            return True
        tag = oracle_classify(rs.tree, b.apex, v)
        if tag[0] == "below" and tag[1][0][0] not in b.excluded:
            return True
    return False


def oracle_canonical(tree, blocks):
    """Validate, absorb full child cones, sort, check blocks pairwise."""
    from graphck.ringsets import BasicSet, RingError, _validate_basic

    blocks = list(blocks)
    for b in blocks:
        _validate_basic(tree, b)
    changed = True
    while changed:
        changed = False
        full = {b.apex: i for i, b in enumerate(blocks) if not b.excluded}
        for i, b in enumerate(blocks):
            for e in sorted(b.excluded, key=EdgeInstance.sort_key):
                j = full.get(tree.child(b.apex, e))
                if j is not None and j != i:
                    merged = BasicSet(b.apex, b.excluded - {e})
                    del blocks[max(i, j)]
                    del blocks[min(i, j)]
                    blocks.append(merged)
                    changed = True
                    break
            if changed:
                break
    blocks.sort(key=lambda b: (tree.vkey(b.apex), sorted(map(EdgeInstance.sort_key, b.excluded))))
    for i, b in enumerate(blocks):
        for c in blocks[i + 1 :]:
            if oracle_basic_intersect(tree, b, c) is not None:
                raise RingError("blocks %s and %s overlap" % (b, c))
    return tuple(blocks)


def _oracle_near(tree, b, ends: set) -> list:
    """b's excluded edges whose child could be a full cone: ends holds the
    (endpoint, depth) of each full cone, and child(v, e) ends at e.terminus
    one letter deeper or shallower than v."""
    n = len(tree.word(b.apex))
    return [e for e in b.excluded if (e.terminus, n + 1) in ends or (e.terminus, n - 1) in ends]


def oracle_absorb(tree, blocks):
    """ringsets._absorb as it was: it builds the child along every excluded
    edge that the endpoint-and-depth filter lets through, and folds a block
    when that child is a full cone, in the same scan order."""
    from graphck.ringsets import BasicSet

    blocks = list(blocks)
    full: dict[object, list[int]] = {}  # apex -> positions of full cones
    for i, b in enumerate(blocks):
        if not b.excluded:
            full.setdefault(b.apex, []).append(i)
    ends = {(tree.endpoint(v), len(tree.word(v))) for v in full}
    if not ends or not any(_oracle_near(tree, b, ends) for b in blocks if b.excluded):
        return blocks
    kids: dict[int, list] = {}  # position -> (edge, child) in edge order
    i = 0
    while full and i < len(blocks):
        b = blocks[i]
        if b is not None and b.excluded and i not in kids:
            es = sorted(_oracle_near(tree, b, ends), key=EdgeInstance.sort_key)
            kids[i] = [(e, tree.child(b.apex, e)) for e in es]
        e, kid = next(((e, kid) for e, kid in kids.get(i, ()) if kid in full), (None, None))
        if e is None:
            i += 1
            continue
        del kids[i]
        blocks[i] = blocks[full[kid].pop()] = None
        if not full[kid]:
            del full[kid]
        merged = BasicSet(b.apex, b.excluded - {e})
        blocks.append(merged)
        if merged.excluded:
            i += 1
        else:  # a new full cone, which earlier blocks may fold in
            full.setdefault(b.apex, []).append(len(blocks) - 1)
            if (end := (tree.endpoint(b.apex), len(tree.word(b.apex)))) not in ends:
                ends.add(end)
                kids.clear()  # built for the old ends
            i = 0
    return [b for b in blocks if b is not None]


def oracle_relation(tree, u, v):
    """Tree.relation as it was: the walk's steps spelled out as a string,
    F for each forward step and B for each backward one."""
    a, b = tree.word(u), tree.word(v)
    k, n = 0, min(len(a), len(b))
    while k < n and a[k] == b[k]:
        k += 1
    steps = "".join("B" if s.forward else "F" for s in a[k:][::-1])
    climb = len(steps)
    steps += "".join("F" if s.forward else "B" for s in b[k:])
    if not steps:
        return ("equal", None, None, k, u)
    first = a[-1].edge if climb else b[k].edge
    last = b[-1].edge if len(b) > k else a[k].edge
    drop = len(steps) - len(steps.lstrip("F"))
    if "F" in steps[drop:]:
        return ("apart", first, last, k, None)
    if drop == len(steps):
        return ("below", first, last, k, v)
    if drop == 0:
        return ("above", first, last, k, u)
    low = tree.along(u, len(a) - drop) if drop <= climb else tree.along(v, k + drop - climb)
    return ("meet", first, last, k, low)


def oracle_scan_relation(tree, u, v):
    """Tree.relation as it was before its one-pass shape tests: the same
    prefix loop, then scans for i, j and the first late forward step.  The
    prefix loop compares letters by the dataclass formula (edge, forward),
    so it does not rest on SignedEdge.__eq__."""
    a, b = tree.word(u), tree.word(v)
    k, n = 0, min(len(a), len(b))
    while k < n and (a[k] is b[k] or (a[k].edge, a[k].forward) == (b[k].edge, b[k].forward)):
        k += 1
    if k == len(a) == len(b):
        return ("equal", None, None, k, u)
    first = a[-1].edge if len(a) > k else b[k].edge
    last = b[-1].edge if len(b) > k else a[k].edge
    i, j = len(a), k
    while i > k and not a[i - 1].forward:
        i -= 1
    while i == k and j < len(b) and b[j].forward:
        j += 1
    m, n = k, j
    while m < i - 1 and a[m].forward:
        m += 1
    while n < len(b) and not b[n].forward:
        n += 1
    if m < i - 1 or n < len(b):
        return ("apart", first, last, k, None)
    if i == k and j == len(b):
        return ("below", first, last, k, v)
    if i == len(a) and j == k:
        return ("above", first, last, k, u)
    return ("meet", first, last, k, tree.along(u, i) if j == k else tree.along(v, j))


def oracle_absorb_union(tree, blocks):
    """invariants._absorb_union as it was before RingSet.union_of: each
    block joins the running set by a union, which returns the set itself
    when it already holds the block."""
    rs = RingSet.empty(tree)
    for b in blocks:
        rs = rs.union(RingSet.of(tree, [b]))
    return rs


def oracle_boundary_covers(w, block) -> bool:
    """w.boundary_contains of one block as it was before swallow_test: the
    pieces of the block minus w, the first on the boundary deciding."""
    from graphck.ringsets import _pieces

    pieces = _pieces(w.tree, [block], w.blocks)
    return not any(w.tree.touches_boundary(d.apex, d.excluded) for d in pieces)


def oracle_tree_invariant_of(w, depth: int = 4) -> dict:
    """invariants.tree_invariant_of as it was before swallow_test: each
    question asks oracle_boundary_covers, and each walk gathers the omega
    indices that w and the walk name."""
    from graphck.ringsets import BasicSet

    tree = w.tree
    if isinstance(tree, FiberTree):
        universe = list(tree.directed_to_depth(depth))
    else:
        universe = list(tree.vertices)
    seen = set(universe)
    universe += [a for a in dict.fromkeys(b.apex for b in w.blocks) if a not in seen]

    def swallows(apex, excluded=frozenset()):
        return oracle_boundary_covers(w, BasicSet(apex, excluded))

    fam = {}
    for p in universe:
        v = tree.endpoint(p)
        if v not in tree.graph.infinite_emitters:
            if swallows(p):
                fam[p] = frozenset()
            continue
        named: dict = {}
        edges = [s.edge for b in w.blocks for s in tree.word(b.apex)]
        edges += [e for b in w.blocks for e in b.excluded] + [s.edge for s in tree.word(p)]
        for e in edges:
            if is_omega(e.bundle.multiplicity):
                named[e.bundle] = max(named.get(e.bundle, -1), e.index)
        bundles = tree.graph.out_bundles(v)
        omegas = [b for b in bundles if is_omega(b.multiplicity)]
        if not all(swallows(tree.child(p, b.instance(named.get(b, -1) + 1))) for b in omegas):
            continue
        candidates = [e for b in bundles for e in b.instances(named.get(b, -1) + 1)]
        fmin = frozenset(e for e in candidates if not swallows(tree.child(p, e)))
        if swallows(p, fmin):
            fam[p] = fmin
    return fam


def oracle_intersect(x, y):
    out = []
    for b in x.blocks:
        for c in y.blocks:
            d = oracle_basic_intersect(x.tree, b, c)
            if d is not None:
                out.append(d)
    return oracle_canonical(x.tree, out)


def oracle_minus(x, y):
    parts = list(x.blocks)
    for c in y.blocks:
        parts = [d for b in parts for d in oracle_basic_diff(x.tree, b, c)]
    return oracle_canonical(x.tree, parts)


def oracle_union(x, y):
    return oracle_canonical(x.tree, list(x.blocks) + list(oracle_minus(y, x)))


def oracle_symmdiff(x, y):
    left = RingSet(x.tree, oracle_minus(x, y))
    return oracle_union(left, RingSet(x.tree, oracle_minus(y, x)))


def oracle_contains(x, y):
    return not oracle_minus(y, x)


def oracle_equals(x, y):
    return x.blocks == y.blocks or (not oracle_minus(x, y) and not oracle_minus(y, x))


def oracle_boundary_contains(x, y):
    return not any(
        x.tree.touches_boundary(b.apex, b.excluded) for b in oracle_minus(y, x)
    )


_ORACLE_TOKEN = re.compile(r"\s*(==|<=|[()&|^;,-]|[~\w#.]+)")


def oracle_tokenize(text: str) -> list[str]:
    """setexpr's tokens by a positional scan: one token match at a time,
    whitespace around tokens, trailing included, skipped."""
    out = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _ORACLE_TOKEN.match(text, pos)
        if not m:
            raise SetExprError("cannot read %r" % text[pos:])
        out.append(m.group(1))
        pos = m.end()
    return out


class _OracleParser:
    """setexpr's parser as it was, one peek and one take per token."""

    def __init__(self, tree, tokens: list[str]):
        self.tree = tree
        self.toks = tokens + [None]  # take never moves past the end marker
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.toks[self.pos]

    def take(self, expected: str | None = None) -> str:
        t = self.peek()
        if t is None:
            raise SetExprError("expression ends early")
        if expected is not None and t != expected:
            raise SetExprError("expected %r but found %r" % (expected, t))
        self.pos += 1
        return t

    def parse(self):
        left = self.union()
        if self.peek() in ("==", "<="):
            op = self.take()
            right = self.union()
            value = left.equals(right) if op == "==" else right.contains(left)
        else:
            value = left
        if self.peek() is not None:
            raise SetExprError("trailing %r" % self.peek())
        return value

    def union(self) -> RingSet:
        acc = self.term()
        while self.peek() in ("|", "^"):
            op = self.take()
            rhs = self.term()
            acc = acc.union(rhs) if op == "|" else acc.symmdiff(rhs)
        return acc

    def term(self) -> RingSet:
        acc = self.factor()
        while self.peek() in ("&", "-"):
            op = self.take()
            rhs = self.factor()
            acc = acc.intersect(rhs) if op == "&" else acc.minus(rhs)
        return acc

    def factor(self) -> RingSet:
        t = self.peek()
        if t == "(":
            if self.nesting == MAX_NESTING:
                raise SetExprError("parentheses nest deeper than %d" % MAX_NESTING)
            self.take()
            self.nesting += 1
            inner = self.union()
            self.nesting -= 1
            self.take(")")
            return inner
        if t == "0":
            self.take()
            return RingSet.empty(self.tree)
        if t == "V":
            return self.atom()
        if t is None:
            raise SetExprError("expression ends early")
        raise SetExprError("expected a cone or parenthesis, found %r" % t)

    def word(self) -> str:
        t = self.take()
        if t in ("(", ")", ";", ",", "&", "|", "^", "-", "==", "<="):
            raise SetExprError("expected a name, found %r" % t)
        return t

    def atom(self) -> RingSet:
        self.take("V")
        self.take("(")
        apex = self._apex(self.word())
        excluded = []
        if self.peek() == ";":
            self.take()
            excluded.append(self._instance(self.word()))
            while self.peek() == ",":
                self.take()
                excluded.append(self._instance(self.word()))
        self.take(")")
        return RingSet.basic(self.tree, apex, excluded)

    def _apex(self, text: str):
        apex = text
        if isinstance(self.tree, FiberTree):
            try:
                apex = parse_path(self.tree.graph, text)
            except GraphError as exc:
                raise SetExprError("bad walk %r: %s" % (text, exc)) from None
        try:
            return self.tree.check_vertex(apex)
        except GraphError as exc:
            raise SetExprError(str(exc)) from None

    def _instance(self, text: str):
        try:
            return self.tree.graph.instance(text)
        except GraphError as exc:
            raise SetExprError(str(exc)) from None


def oracle_parse_setexpr(tree, text: str):
    """parse_setexpr by the token-at-a-time parser: the same value, or the
    same error, in the same order of evaluation."""
    return _OracleParser(tree, _tokenize(text)).parse()
