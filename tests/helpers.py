"""Shared generators for the randomized tests.

Everything takes an explicit random.Random so each test pins its own seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from graphck.fock import FockError, RelationReport
from graphck.graphs import OMEGA, EdgeBundle, Graph, SignedEdge, is_omega
from graphck.paths import Path


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


def _signed_extensions(g: Graph, at: str, omega_cap: int = 3) -> list[SignedEdge]:
    out = []
    for b in g.delta1(at).bundles:
        cap = omega_cap if is_omega(b.multiplicity) else None
        out.extend(SignedEdge(e) for e in b.instances(cap))
    for b in g.in_bundles(at):
        cap = omega_cap if is_omega(b.multiplicity) else None
        out.extend(SignedEdge(e, forward=False) for e in b.instances(cap))
    return out


def random_walk_path(
    rng: random.Random, g: Graph, max_len: int = 6, start: str | None = None
) -> Path:
    at = start if start is not None else rng.choice(g.vertices)
    p = Path.unit(at)
    for _ in range(rng.randint(0, max_len)):
        options = [
            s
            for s in _signed_extensions(g, p.terminus)
            if not (p.word and s == p.word[-1].reverse())
        ]
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
        d1 = g.delta1(p.terminus)
        options = []
        for b in d1.bundles:
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
    d1 = tree.out_edges(apex).finite_instances()
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
    from graphck.points import FinitePath

    if allow_lasso and rng.random() < 0.4:
        x = random_lasso(rng, g)
        if x is not None:
            return x
    return FinitePath(random_walk_path(rng, g))


def arrow_into(rng, g, x, max_len: int = 5):
    """A random walk composable with the point x."""
    back = random_walk_path(rng, g, max_len=max_len, start=x.origin)
    return back.inverse()


def _naive_family_ok(g: Graph, nset, fmap) -> bool:
    """Clause-by-clause check straight off the definition, one instance
    at a time.  Omega bundles always keep instances outside the finite
    exclusion sets, so those act like a single non-excluded instance."""
    for u in nset:
        d = g.delta1(u)
        fset = fmap.get(u, frozenset())
        if not d.infinite and fset:
            return False
        for b in d.bundles:
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
        d = g.delta1(u)
        if d.is_empty or d.infinite:
            continue
        if all(b.terminus in nset and not fmap.get(b.terminus, frozenset()) for b in d.bundles):
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
        d = g.delta1(u)
        if d.infinite:
            fin = [e for b in d.bundles if not is_omega(b.multiplicity) for e in b.instances()]
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
        for b in g.delta1(e.origin).bundles:
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
        if vset & g.reachable(e.terminus):
            return "returning"
        kinds.add("leaves")
    return "transitory" if kinds else "terminal"


def oracle_find_cycles(g: Graph, cap: int = 10000):
    """All vertex-simple cycles by an unblocked walk from each vertex."""
    from graphck.structure import Cycle, CycleCapError

    seen: dict = {}
    order = {v: i for i, v in enumerate(g.vertices)}

    def walk(start, at, trail, onpath):
        for b in g.delta1(at).bundles:
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
        for b in g.delta1(v).bundles:
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
    return any(b.terminus == v for b in g.delta1(v).bundles)


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
        cycle_verts.update(c.vertices)
    reach = {v: g.reachable(v) for v in g.vertices}
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
        graph=g,
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


def oracle_count_paths_into(g: Graph, u: str):
    """Directed paths ending at u by a recursive memo; OMEGA when some
    cycle vertex or omega terminus reaches u."""
    sources = set()
    for v in g.vertices:
        for b in g.delta1(v).bundles:
            if v in g.reachable(b.terminus):
                sources.add(v)
            if is_omega(b.multiplicity):
                sources.add(b.terminus)
    for s in sources:
        if u in g.reachable(s):
            return OMEGA
    memo: dict = {}

    def f(v):
        if v not in memo:
            memo[v] = 1 + sum(b.multiplicity * f(b.origin) for b in g.in_bundles(v))
        return memo[v]

    return f(u)


# Reference implementations of graphck.invariants, kept as differential
# oracles: the candidate scan over all 2^|V| vertex sets times every
# product of whole-bundle exclusion options, and the cubic cover search.


def _oracle_f_options(g: Graph, u: str, omega_f_bound: int):
    """Candidate exclusion sets at an infinite-valence member.

    Whole finite bundles in any combination; with a positive bound, also
    index prefixes of the omega bundles, to probe for families the
    bundle-wise rules would flag.
    """
    import itertools

    d = g.delta1(u)
    finite_bundles = [b for b in d.bundles if not is_omega(b.multiplicity)]
    omega_bundles = [b for b in d.bundles if is_omega(b.multiplicity)]
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
    found.sort(key=lambda i: i.sort_key())
    return OracleEnumeration(tuple(found), tuple(flagged), tuple(sorted(notes)))


def oracle_hasse_edges(invariants):
    """Covering pairs (i, j) by the cubic search for an element between."""
    from graphck.invariants import invariant_leq

    invs = list(invariants)
    below = [[invariant_leq(a, b) and a != b for b in invs] for a in invs]
    edges = []
    for i in range(len(invs)):
        for j in range(len(invs)):
            if not below[i][j]:
                continue
            if any(below[i][m] and below[m][j] for m in range(len(invs))):
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


def oracle_generator_matrices(basis):
    """(P, S) as rational matrices: diagonal projections onto the paths
    starting at each vertex, and the prepend operators, truncated where a
    prepended path falls outside the basis."""
    idx = basis.index()
    n = basis.size
    g = basis.graph
    pmat = {}
    for u in g.vertices:
        pmat[u] = OracleSparseOperator.of(
            n, {(i, i): 1 for i, p in enumerate(basis.paths) if p.origin == u}
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
        for b in g.delta1(u).bundles:
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
        for b in g.delta1(u).bundles:
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
            for b in g.delta1(p.terminus).bundles:
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
    idx = basis.index()
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
    from graphck.trees import FiberTree

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
    from graphck.trees import FiberTree

    for e in excluded:
        tree.validate_out_edge(apex, e)
    g = tree.graph
    if not isinstance(tree, FiberTree):
        cone = [apex]
        frontier = [
            e.terminus for e in tree.out_edges(apex).finite_instances() if e not in excluded
        ]
        while frontier:
            v = frontier.pop()
            cone.append(v)
            frontier.extend(e.terminus for e in tree.out_edges(v).finite_instances())
        return any(tree.out_edges(v).is_empty for v in cone)
    end = apex.terminus
    skipped: dict = {}
    for e in excluded:
        skipped[e.bundle] = skipped.get(e.bundle, 0) + 1
    if end in g.sinks or end in g.infinite_emitters:
        return True
    beyond: set[str] = set()
    for b in g.delta1(end).bundles:
        if is_omega(b.multiplicity) or skipped.get(b, 0) < b.multiplicity:
            beyond |= g.reachable(b.terminus)
    bad = g.sinks | g.infinite_emitters | g.cycle_vertices
    return bool(beyond & bad)
