"""Cycle census and the decidable structure flags of a graph.

Cycles are found at the bundle level (one representative instance each)
and classified by what their exits do: none (terminal), some but none
leading back (transitory), or at least one returning.  The flags are
boolean combinations of the census with reachability facts, each carrying
a human-readable witness.  Everything but the census reads the strongly
connected components cached on the graph and runs in O(V+E).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graphs import (
    OMEGA,
    CapError,
    EdgeBundle,
    EdgeInstance,
    Graph,
    GraphError,
    SignedEdge,
    is_omega,
    tarjan,
)
from .paths import Path
from .points import AperiodicDescriptor, FinitePath, act


class StructureError(GraphError):
    pass


class CycleCapError(StructureError, CapError):
    pass


@dataclass(frozen=True)
class Cycle:
    """A vertex-simple directed cycle, one instance per step.

    Parallel instances along the same bundles are not listed separately;
    count says how many instance-level cycles the representative stands
    for.  The tuple is rotated so the smallest step comes first.
    """

    instances: tuple[EdgeInstance, ...]
    kind: str
    count: object = 1

    @property
    def origin(self) -> str:
        return self.instances[0].origin

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(e.origin for e in self.instances)

    def path(self) -> Path:
        return Path(self.origin, tuple(SignedEdge(e) for e in self.instances))

    def __str__(self) -> str:
        body = ".".join(str(e) for e in self.instances)
        return "[%s]" % body

    __repr__ = __str__


def _canonical_rotation(steps: tuple[EdgeInstance, ...]) -> tuple[EdgeInstance, ...]:
    """Rotate a cycle so its smallest step comes first.

    The steps of a vertex-simple cycle leave distinct vertices, so they are
    distinct and the smallest one alone fixes the minimal rotation.
    """
    j = min(range(len(steps)), key=lambda i: steps[i].sort_key())
    return steps[j:] + steps[:j]


def _cycle_count(bundles) -> object:
    total = 1
    for b in bundles:
        if is_omega(b.multiplicity):
            return OMEGA
        total *= b.multiplicity
    return total


def _circuits(start: str, succ: dict[str, list[EdgeBundle]]):
    """Johnson's circuit search: every cycle through start, as bundles.

    A vertex stays blocked while no path from it back to start avoids the
    current trail; the blocked_by lists say whom to unblock once one does.
    """
    blocked = {start}
    blocked_by: dict[str, set[str]] = {}
    trail: list[EdgeBundle] = []
    stack = [(start, iter(succ[start]))]
    closed = [False]
    while stack:
        v, nbrs = stack[-1]
        for b in nbrs:
            w = b.terminus
            if w == start:
                yield (*trail, b)
                closed[-1] = True
            elif w not in blocked:
                trail.append(b)
                blocked.add(w)
                stack.append((w, iter(succ[w])))
                closed.append(False)
                break
        else:
            stack.pop()
            if trail:
                trail.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = [v]
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.discard(u)
                        unblock.extend(blocked_by.pop(u, ()))
            else:
                for b in succ[v]:
                    blocked_by.setdefault(b.terminus, set()).add(v)


def find_cycles(g: Graph, cap: int = 10000) -> tuple[Cycle, ...]:
    """All vertex-simple directed cycles, classified, smallest first.

    Johnson's algorithm (SIAM J. Comput. 4, 1975), run only inside the
    cyclic components: O((V+E)(C+1)) for C cycles.  Each cycle takes its
    kind from its component.  Raises CycleCapError past cap cycles.
    """
    found: list[tuple[EdgeBundle, ...]] = []
    todo = [g.sccs[i] for i in g.cyclic_sccs]
    while todo:
        comp = todo.pop()
        succ = {v: [b for b in g.delta1(v).bundles if b.terminus in comp] for v in comp}
        start = min(comp)
        for bundles in _circuits(start, succ):
            found.append(bundles)
            if len(found) > cap:
                raise CycleCapError("more than %d cycles" % cap)
        # the cycles avoiding start lie in the components of what is left
        rest = comp - {start}

        def inner(v: str) -> list[str]:
            return [b.terminus for b in succ[v] if b.terminus in rest]

        for sub in tarjan(rest, inner):
            if len(sub) > 1 or any(t in sub for v in sub for t in inner(v)):
                todo.append(sub)
    out = []
    for bundles in found:
        steps = _canonical_rotation(tuple(b.instance(0) for b in bundles))
        kind = g.cyclic_sccs[g.scc_index[steps[0].origin]]
        out.append(Cycle(steps, kind, _cycle_count(bundles)))
    out.sort(key=lambda c: tuple(e.sort_key() for e in c.instances))
    return tuple(out)


@dataclass(frozen=True)
class StructureReport:
    graph: Graph
    cycles: tuple[Cycle, ...]
    af: bool
    locally_contractive: bool
    cofinal: bool
    essentially_free: bool
    essentially_principal: bool
    simple: bool
    purely_infinite_simple: bool
    witnesses: dict = field(default_factory=dict)

    def flags(self) -> dict:
        return {
            "af": self.af,
            "locally_contractive": self.locally_contractive,
            "cofinal": self.cofinal,
            "essentially_free": self.essentially_free,
            "essentially_principal": self.essentially_principal,
            "simple": self.simple,
            "purely_infinite_simple": self.purely_infinite_simple,
        }


def _cofinality(g: Graph) -> tuple[bool, str]:
    """Does every vertex reach every cyclic component and every sink and
    infinite emitter?  If not, a witness naming the first vertex, in
    g.vertices order, that misses a target, and the first target it
    misses: cyclic components in Tarjan order, then singular vertices in
    g.vertices order.

    Targets are bits of one int per component, filled in one pass over
    the components in reverse topological order.
    """
    cyclic = list(g.cyclic_sccs)
    singular = [v for v in g.vertices if v in g.sinks or v in g.infinite_emitters]
    reach = [0] * len(g.sccs)
    for j, i in enumerate(cyclic):
        reach[i] |= 1 << j
    for j, s in enumerate(singular, start=len(cyclic)):
        reach[g.scc_index[s]] |= 1 << j
    for i, comp in enumerate(g.sccs):
        for v in comp:
            for b in g.delta1(v).bundles:
                reach[i] |= reach[g.scc_index[b.terminus]]
    full = (1 << (len(cyclic) + len(singular))) - 1
    for v in g.vertices:
        missed = full & ~reach[g.scc_index[v]]
        if missed:
            j = (missed & -missed).bit_length() - 1
            if j < len(cyclic):
                at = min(g.sccs[cyclic[j]])
                return False, "vertex %s does not reach the cycle component at %s" % (v, at)
            return False, "vertex %s does not reach %s" % (v, singular[j - len(cyclic)])
    return True, ""


def is_essentially_principal(g: Graph) -> bool:
    """Does every cycle have an exit that returns to it?  Exactly when
    every cyclic component is of the returning kind, so no cycle needs
    to be listed."""
    return all(kind == "returning" for kind in g.cyclic_sccs.values())


def structure_report(g: Graph, cycle_cap: int = 10000) -> StructureReport:
    cycles = find_cycles(g, cycle_cap)
    wit: dict[str, str] = {}
    terminal = [c for c in cycles if c.kind == "terminal"]
    transitory = [c for c in cycles if c.kind == "transitory"]

    af = not cycles
    if cycles:
        wit["af"] = "cycle %s" % cycles[0]

    essentially_free = not terminal
    if terminal:
        wit["essentially_free"] = "cycle %s has no exit" % terminal[0]
    essentially_principal = is_essentially_principal(g)
    if terminal:
        wit["essentially_principal"] = wit["essentially_free"]
    elif transitory:
        wit["essentially_principal"] = "no walk returns to the cycle %s" % transitory[0]

    # vertices with a walk into a cycle: one reverse BFS from the cycle vertices
    meets = set(g.cycle_vertices)
    queue = deque(meets)
    while queue:
        for b in g.in_bundles(queue.popleft()):
            if b.origin not in meets:
                meets.add(b.origin)
                queue.append(b.origin)
    meets_all = True
    for v in g.vertices:
        if v not in meets:
            meets_all = False
            if cycles:
                wit["locally_contractive"] = "no walk from %s meets a cycle" % v
            break
    if not cycles:
        wit["locally_contractive"] = "no cycles at all"
    locally_contractive = bool(cycles) and not terminal and meets_all
    if terminal and "locally_contractive" not in wit:
        wit["locally_contractive"] = wit["essentially_free"]

    cofinal, wit_cofinal = _cofinality(g)
    if not cofinal:
        wit["cofinal"] = wit_cofinal

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


def isotropy(x):
    """(kind, fixing walk): nontrivial exactly on the lasso points."""
    if x.kind != "lasso":
        return ("trivial", None)
    loop = Path(x.stem.terminus, x.cycle)
    alpha = x.stem * loop * x.stem.inverse()
    assert act(alpha, x) == x
    return ("nontrivial", alpha)


def _bfs_word(g: Graph, src: str, targets, within=None) -> tuple[SignedEdge, ...] | None:
    """A shortest directed word from src to a target, taking instance 0 of
    each bundle and the first target found, staying inside within when
    given; None when no target is reached."""
    prev: dict[str, tuple[str, EdgeInstance]] = {}
    seen = {src}
    queue = deque([src])
    while queue:
        at = queue.popleft()
        if at in targets:
            word = []
            while at != src:
                at, e = prev[at]
                word.append(SignedEdge(e))
            return tuple(reversed(word))
        for b in g.delta1(at).bundles:
            t = b.terminus
            if t not in seen and (within is None or t in within):
                seen.add(t)
                prev[t] = (at, b.instance(0))
                queue.append(t)
    return None


def free_point_from(g: Graph, u: str):
    """A boundary point from u that no nonunit walk fixes.

    A walk to a sink or an infinite emitter works; otherwise a component
    with a genuine choice of steps feeds an aperiodic ray with strictly
    growing cycle runs.  Raises when every walk from u is eventually
    periodic.
    """
    g.check_vertex(u)
    singular = set(g.sinks) | set(g.infinite_emitters)
    hit = _bfs_word(g, u, singular)
    if hit is not None:
        return FinitePath(Path(u, hit))
    reach = g.reachable(u)
    order = {v: i for i, v in enumerate(g.vertices)}
    for comp in g.sccs:
        if not (comp & reach):
            continue
        branching = None
        for v in sorted(comp, key=order.__getitem__):
            inside = []
            for b in g.delta1(v).bundles:
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
        if alpha is None:
            continue
        # w and both steps' termini share a component, so these words exist
        gamma = (SignedEdge(first),) + _bfs_word(g, first.terminus, {w}, comp)
        ret = (SignedEdge(exit_step),) + _bfs_word(g, exit_step.terminus, {w}, comp)
        return AperiodicDescriptor(Path(u, alpha), gamma, ret)
    raise StructureError("every walk from %s is eventually periodic" % u)


def count_paths_into(g: Graph, u: str):
    """Directed paths ending at u, the unit included; OMEGA when infinite.

    Infinite exactly when some cycle vertex or some target of an
    infinite bundle reaches u.  A lookup in the table cached on g.
    """
    g.check_vertex(u)
    return g.paths_into[u]


def toeplitz_ideal_report(g: Graph, marks) -> dict[str, object]:
    """Per marked vertex, the size of the matrix block its relation kills.

    Marking a regular vertex u collapses a copy of the compacts over the
    directed paths into u; the report maps u to that path count.
    """
    marks = frozenset(marks)
    bad = marks - g.regular_vertices
    if bad:
        raise StructureError("marks %s are not regular vertices" % sorted(bad))
    return {u: count_paths_into(g, u) for u in sorted(marks)}
