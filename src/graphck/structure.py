"""Cycle census and the decidable structure flags of a graph.

Cycles are found at the bundle level (one representative instance each)
and classified by what their exits do: none (terminal), some but none
leading back (transitory), or at least one returning.  The flags are read
off one table of human-readable witnesses: each holds exactly when its
witness is empty, and all reachability comes from the generator reach
masks cached on the graph.  Everything but the census reads the strongly
connected components cached on the graph and runs in O(V+E).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .graphs import (
    OMEGA,
    CapError,
    EdgeBundle,
    EdgeInstance,
    Graph,
    GraphError,
    SignedEdge,
    tarjan,
)


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

    def __str__(self) -> str:
        body = ".".join(str(e) for e in self.instances)
        return "[%s]" % body

    __repr__ = __str__


def _canonical_rotation(names: list[str]) -> list[str]:
    """Rotate a cycle's bundle names so the smallest comes first.

    The steps of a vertex-simple cycle leave distinct vertices, so their
    bundles are distinct and the smallest name alone fixes the minimal
    rotation.
    """
    j = names.index(min(names))
    return names[j:] + names[:j]


def _cycle_count(bundles) -> object:
    total = 1
    for b in bundles:
        if b.multiplicity is OMEGA:
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

    A terminal or transitory component is bare, one inside step per
    vertex, so it is one cycle, walked from its smallest vertex.  The
    returning components are searched with Johnson's algorithm (SIAM J.
    Comput. 4, 1975): O((V+E)(C+1)) for C cycles.  Each cycle takes its
    kind from its component.  Raises CycleCapError past cap cycles.
    """
    found: list[tuple[list[str], str, object]] = []
    out = g._out
    todo = [(g.sccs[i], kind) for i, kind in g.cyclic_sccs.items()]
    while todo:
        comp, kind = todo.pop()
        start = min(comp)
        if kind == "returning":
            succ = {v: [b for b in out[v] if b.terminus in comp] for v in comp}
            circuits = _circuits(start, succ)
        else:
            walk, v = [], start
            for _ in comp:
                for b in out[v]:
                    if b.terminus in comp:
                        break
                walk.append(b)
                v = b.terminus
            circuits = (walk,)
        for bundles in circuits:
            names = _canonical_rotation([b.name for b in bundles])
            found.append((names, kind, _cycle_count(bundles)))
            if len(found) > cap:
                raise CycleCapError("more than %d cycles" % cap)
        if kind != "returning":
            continue
        # the cycles avoiding start lie in the components of what is left
        rest = comp - {start}

        def inner(v: str) -> list[str]:
            return [b.terminus for b in succ[v] if b.terminus in rest]

        for sub in tarjan(rest, inner):
            if len(sub) > 1 or any(t in sub for v in sub for t in inner(v)):
                todo.append((sub, kind))
    # every step is instance 0, so names order the cycles as sort keys do
    found.sort(key=itemgetter(0))
    # one instance 0 per bundle on a cycle, however many cycles share it
    step = dict.fromkeys(chain.from_iterable(names for names, _, _ in found))
    for name in step:
        step[name] = g.bundle(name).instance(0)
    cycles = []
    for names, kind, count in found:
        c = object.__new__(Cycle)
        c.__dict__.update(instances=tuple(map(step.__getitem__, names)), kind=kind, count=count)
        cycles.append(c)
    return tuple(cycles)


@dataclass(frozen=True)
class StructureReport:
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


def _reach_sweep(g: Graph) -> tuple[str, str | None]:
    """The generator reach masks cached on g, read two ways.

    Returns the cofinality witness, naming the first vertex, in
    g.vertices order, that misses a generator and the first generator it
    misses in bit order ("" when none does), and the first vertex whose
    mask has no cyclic bit, so that no walk from it meets a cycle (None
    when none).
    """
    gens, reach = g.generator_reach
    cyclic_bits = (1 << len(g.cyclic_sccs)) - 1
    full = (1 << len(gens)) - 1
    cofinal, no_cycle = "", None
    for v in g.vertices:
        mask = reach[g.scc_index[v]]
        if no_cycle is None and not mask & cyclic_bits:
            no_cycle = v
        missed = full & ~mask
        if missed and not cofinal:
            i = gens[(missed & -missed).bit_length() - 1]
            comp = g.sccs[i]
            target = "the cycle component at %s" % min(comp) if i in g.cyclic_sccs else min(comp)
            cofinal = "vertex %s does not reach %s" % (v, target)
    return cofinal, no_cycle


def is_essentially_principal(g: Graph) -> bool:
    """Does every cycle have an exit that returns to it?  Exactly when
    every cyclic component is of the returning kind, so no cycle needs
    to be listed."""
    return all(kind == "returning" for kind in g.cyclic_sccs.values())


def structure_report(g: Graph, cycle_cap: int = 10000) -> StructureReport:
    """The cycle census and the seven flags.  Each witness is computed
    once; a flag failing for an earlier flag's reason reuses its text."""
    cycles = find_cycles(g, cycle_cap)
    terminal = next((c for c in cycles if c.kind == "terminal"), None)
    transitory = next((c for c in cycles if c.kind == "transitory"), None)
    cofinal, no_cycle = _reach_sweep(g)
    free = "cycle %s has no exit" % terminal if terminal else ""
    if not cycles:
        contractive = "no cycles at all"
    elif no_cycle is not None:
        contractive = "no walk from %s meets a cycle" % no_cycle
    else:
        contractive = free
    simple = cofinal or free
    wit = {
        "af": "cycle %s" % cycles[0] if cycles else "",
        "essentially_free": free,
        "essentially_principal": free
        or ("no walk returns to the cycle %s" % transitory if transitory else ""),
        "locally_contractive": contractive,
        "cofinal": cofinal,
        "simple": simple,
        "purely_infinite_simple": simple or contractive,
    }
    return StructureReport(
        cycles=cycles,
        witnesses={name: w for name, w in wit.items() if w},
        **{name: not w for name, w in wit.items()},
    )


def isotropy(x):
    """(kind, fixing walk): nontrivial exactly on the lasso points."""
    from .paths import Path

    if x.kind != "lasso":
        return ("trivial", None)
    loop = Path(x.stem.terminus, x.cycle)
    return ("nontrivial", x.stem * loop * x.stem.inverse())


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
                word.append(e.signed[True])
            return tuple(reversed(word))
        for b in g.out_bundles(at):
            t = b.terminus
            if t not in seen and (within is None or t in within):
                seen.add(t)
                prev[t] = (at, b.instance(0))
                queue.append(t)
    return None


def free_point_from(g: Graph, u: str):
    """A boundary point from u that no nonunit walk fixes.

    A walk to a sink or an infinite emitter works; otherwise a component
    with a genuine choice of steps, which is a returning one, feeds an
    aperiodic ray with strictly growing cycle runs.  The first returning
    component u reaches is read off its generator mask.  Raises when
    every walk from u is eventually periodic.
    """
    from .paths import Path
    from .points import AperiodicDescriptor

    g.check_vertex(u)
    hit = _bfs_word(g, u, g.sinks | g.infinite_emitters)
    if hit is not None:
        return Path(u, hit)
    gens, reach = g.generator_reach
    mask = reach[g.scc_index[u]]
    # the cyclic components hold the low bits, in sccs order
    for j, i in enumerate(gens):
        if mask >> j & 1 and g.cyclic_sccs.get(i) == "returning":
            break
    else:
        raise StructureError("every walk from %s is eventually periodic" % u)
    comp = g.sccs[i]
    # not bare, so some vertex has two steps inside; the first in g.vertices
    for w in g.vertices:
        if g.scc_index[w] == i:
            inside = [
                b.instance(k)
                for b in g.out_bundles(w)
                if b.terminus in comp
                for k in range(1 if b.multiplicity == 1 else 2)
            ]
            if len(inside) >= 2:
                break
    first, exit_step = inside[:2]
    # w lies in a component reached from u, and both steps' termini share
    # its component, so these words exist
    alpha = _bfs_word(g, u, {w})
    gamma = (first.signed[True],) + _bfs_word(g, first.terminus, {w}, comp)
    ret = (exit_step.signed[True],) + _bfs_word(g, exit_step.terminus, {w}, comp)
    return AperiodicDescriptor(Path(u, alpha), gamma, ret)


def count_paths_into(g: Graph, u: str):
    """Directed paths ending at u, the unit included; OMEGA when infinite.

    Infinite exactly when some cycle vertex or some target of an
    infinite bundle reaches u.  A lookup in the table cached on g.
    """
    g.check_vertex(u)
    return g.paths_into[u]
