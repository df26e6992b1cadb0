"""The Boolean ring of cone sets of a directed tree.

For a tree vertex v write V(v) for the set of vertices reachable from v by
forward steps, and V(v; F), with F a finite set of out-edges of v, for the
cone minus the subcones through F.  These basic sets are closed under
intersection, and differences of basic sets split into finitely many
disjoint basic sets, so finite disjoint unions of basic sets form a ring of
sets.  A RingSet is such a disjoint union in a merged, sorted form.

Tree.relation places two apexes from their root words: the walk between
them descends all the way, ascends all the way, descends then ascends
(the cones overlap in the cone of its lowest point) or is apart.  That
shapes the block lists of intersect and minus (O(k m) relations for k and
m blocks), union (one difference) and symmdiff (two).  Predicates use the
F-sets instead: F(r) is the set of words r.f1...fm with every fi forward.
Writing p = t.~e1...~ek with t ending in a forward letter or empty,
V(p) = F(t) | F(t.~e1) | ... | F(p), the up-step e_k leads into all but
the last of those, and any other excluded f cuts F(p.f) out of F(p).  Two
F-sets are nested or disjoint, and F(s) holds r exactly when s is a prefix
of r reaching past r's last reversed letter.  So a signed sum of blocks is
constant between the words where its F-sets start, and one lexicographic
sweep over those words with a stack of prefixes gives its value on each
piece: O(n log n) for n blocks, no walk.  contains and equals read the
sweep of self minus other.  RingSet.of checks the blocks it is given
disjoint by the same sweep; an operation's blocks are disjoint as it
builds them, so they are absorbed and sorted but not swept.  _absorb
tells from root words, without building the child walk, whether the
child along an excluded edge is a full cone, and a block keeps the sort
key _sorted computes for it.

On a fiber, a directed apex p has the directed walks below it as its
cone, so two directed cones meet only when one apex is a prefix of the
other; _covered reads from root words whether a block at a proper prefix
of p holds all of V(p).  union_of joins directed blocks, shortest first,
in one pass: each either lies in a block kept before it or meets none of
them, and the kept blocks are absorbed and sorted once.  swallow_test
decides whether a set covers V(p; E) up to sets that avoid the boundary
by one walk down from p over the set's apex words (see its docstring),
which boundary_contains asks once per block of other.  A tree that is
not a fiber, or an apex with a reversed letter, makes the pieces of the
block minus the set instead (O(k m) relations) and stops at the first
that touches the boundary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .graphs import EdgeInstance, GraphError
from .paths import PathError
from .trees import FiberTree, TreeError


class RingError(GraphError):
    pass


@dataclass(frozen=True)
class BasicSet:
    """V(apex; excluded): the cone at apex minus first steps along excluded."""

    apex: object
    excluded: frozenset = frozenset()

    def __str__(self) -> str:
        if not self.excluded:
            return "V(%s)" % (self.apex,)
        names = ",".join(sorted(str(e) for e in self.excluded))
        return "V(%s; %s)" % (self.apex, names)

    __repr__ = __str__


def _validate_basic(tree, b: BasicSet) -> None:
    try:
        tree.check_vertex(b.apex)
        for e in sorted(b.excluded, key=tree.ekey):
            tree.validate_out_edge(b.apex, e)
    except (GraphError, TreeError, PathError) as exc:
        raise RingError("bad basic set %s: %s" % (b, exc)) from None


def _overlap(tree, b: BasicSet, c: BasicSet):
    """relation(b.apex, c.apex), or None when B and C are disjoint."""
    rel = kind, first, last, _, _ = tree.relation(b.apex, c.apex)
    if kind == "apart" or (kind in ("below", "meet") and first in b.excluded):
        return None
    return None if kind in ("above", "meet") and last in c.excluded else rel


def basic_intersect(tree, b: BasicSet, c: BasicSet) -> BasicSet | None:
    """B cap C as a basic set, or None when empty."""
    rel = _overlap(tree, b, c)
    if rel is None:
        return None
    kind = rel[0]
    if kind == "equal":
        return BasicSet(b.apex, b.excluded | c.excluded)
    return c if kind == "below" else b if kind == "above" else BasicSet(rel[4])


def basic_diff(tree, b: BasicSet, c: BasicSet) -> list[BasicSet]:
    """B minus C as finitely many disjoint basic sets."""
    rel = _overlap(tree, b, c)
    if rel is None:
        return [b]
    if rel[0] == "above":
        return []
    if rel[0] == "equal":
        fresh = sorted(c.excluded - b.excluded, key=tree.ekey)
        return [BasicSet(tree.child(b.apex, e)) for e in fresh]
    # the chain of cones hanging off the forward walk down to the overlap
    out, at, cut = [], b.apex, b.excluded
    for e, _ in tree.walk(b.apex, rel[4]):
        out.append(BasicSet(at, cut | {e}))
        at, cut = tree.child(at, e), frozenset()
    if rel[0] == "below":
        out.extend(BasicSet(tree.child(c.apex, e)) for e in sorted(c.excluded, key=tree.ekey))
    return out


def _pieces(tree, blocks, cuts) -> Iterator[BasicSet]:
    """The blocks minus the cuts as disjoint basic sets, block by block."""
    for b in blocks:
        parts = [b]
        for c in cuts:
            parts = [d for p in parts for d in basic_diff(tree, p, c)]
        yield from parts


def _levels(tree, plus, minus=()) -> Iterator[int]:
    """The value of the sum of the plus blocks minus the minus blocks on
    each piece between the words where their F-sets start (see the module
    docstring)."""
    acc: defaultdict[tuple, int] = defaultdict(int)  # letter keys of r -> sign of F(r)
    for sign, b in [(1, b) for b in plus] + [(-1, b) for b in minus]:
        w, key = tree.word(b.apex), tree.letter_keys(b.apex)
        up = w[-1].edge if w and not w[-1].forward else None
        acc[key] += sign
        n = len(w)
        while up not in b.excluded and n and not w[n - 1].forward:
            n -= 1
            acc[key[:n]] += sign
        for e in b.excluded - {up}:
            acc[key + (e.signed[True].sort_key(),)] -= sign
    stack = []  # (word, running sum) of the F-sets at prefixes of the word
    for key, sign in sorted(acc.items()):
        while stack and key[: len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        stack.append((key, (stack[-1][1] if stack else 0) + sign))
        top = len(key)  # where the word's forward tail starts
        while top and not key[top - 1][2]:
            top -= 1
        i = len(stack) - 1
        while i and len(stack[i - 1][0]) >= top:
            i -= 1
        yield stack[-1][1] - (stack[i - 1][1] if i else 0)


def _full_child(tree, b: BasicSet, full: dict, depths: set):
    """(e, the child's root word) for b's first excluded edge e, in edge
    order, whose child is a full cone (a key of full), or None.  The child
    along e at v has v's word plus e's forward letter, or v's word less its
    last letter when that is ~e; depths holds at least the keys' lengths."""
    w = tree.word(b.apex)
    n = len(w)
    hits = []
    if n + 1 in depths:
        hits = [(e, k) for e in b.excluded if (k := w + (e.signed[True],)) in full]
    if n - 1 in depths and not w[-1].forward and w[-1].edge in b.excluded and w[:-1] in full:
        hits.append((w[-1].edge, w[:-1]))
    return min(hits, key=lambda hit: tree.ekey(hit[0])) if hits else None


def _absorb(tree, blocks: list[BasicSet]) -> list[BasicSet]:
    """Fold each full child cone into a block that excludes its edge, in
    the order of a scan from the front that restarts after every fold and
    moves the folded block to the back.  A fold that leaves exclusions
    enables no earlier fold, so only a new full cone restarts the scan."""
    full: dict[tuple, list[int]] = {}  # root word -> positions of full cones
    for i, b in enumerate(blocks):
        if not b.excluded:
            full.setdefault(tree.word(b.apex), []).append(i)
    depths = {len(w) for w in full}
    i = 0
    while full and i < len(blocks):
        b = blocks[i]
        hit = b is not None and b.excluded and _full_child(tree, b, full, depths)
        if not hit:
            i += 1
            continue
        e, kid = hit
        blocks[i] = blocks[full[kid].pop()] = None
        if not full[kid]:
            del full[kid]
        merged = BasicSet(b.apex, b.excluded - {e})
        blocks.append(merged)
        if merged.excluded:
            i += 1
        else:  # a new full cone, which earlier blocks may fold in
            w = tree.word(b.apex)
            full.setdefault(w, []).append(len(blocks) - 1)
            depths.add(len(w))
            i = 0
    return [b for b in blocks if b is not None]


def _sorted(tree, blocks: Iterable[BasicSet]) -> tuple[BasicSet, ...]:
    """Absorbed and sorted, not checked; the blocks must be valid.  Each
    block keeps its sort key, which is not a field."""
    blocks = list(blocks)
    if len(blocks) > 1:
        blocks = _absorb(tree, blocks)
        for b in blocks:
            if "_key" not in b.__dict__:
                b.__dict__["_key"] = (tree.vkey(b.apex), sorted(map(tree.ekey, b.excluded)))
        blocks.sort(key=attrgetter("_key"))
    return tuple(blocks)


def _swept(tree, blocks: tuple[BasicSet, ...]) -> tuple[BasicSet, ...]:
    """The blocks, checked disjoint by the sweep of their sum, and the
    overlapping pair found pairwise.  Only blocks from outside need it:
    an operation builds disjoint blocks."""
    if len(blocks) > 1 and any(n > 1 for n in _levels(tree, blocks)):
        for i, b in enumerate(blocks):
            for c in blocks[i + 1 :]:
                if basic_intersect(tree, b, c) is not None:
                    raise RingError("blocks %s and %s overlap" % (b, c))
    return blocks


def _covered(cuts: dict, keys: tuple) -> bool:
    """Does a block of cuts (letter keys of a directed apex -> those of its
    excluded edges) sit at a proper prefix of the directed walk with these
    letter keys without excluding its next letter, so that it holds all of
    the walk's cone?"""
    for k in range(len(keys)):
        cut = cuts.get(keys[:k])
        if cut is not None and keys[k] not in cut:
            return True
    return False


def _cut(b: BasicSet) -> frozenset:
    return frozenset(e.signed[True].sort_key() for e in b.excluded)


def _directed(tree, blocks) -> bool:
    return isinstance(tree, FiberTree) and all(s.forward for b in blocks for s in b.apex.word)


def _pieces_test(tree, blocks) -> Callable[..., bool]:
    """swallow_test's answer from the pieces of the block minus the
    blocks: the first on the boundary decides."""

    def swallows(apex, excluded=frozenset()) -> bool:
        pieces = _pieces(tree, (BasicSet(apex, excluded),), blocks)
        return not any(tree.touches_boundary(d.apex, d.excluded) for d in pieces)

    return swallows


def swallow_test(w: "RingSet") -> Callable[..., bool]:
    """swallows(apex, excluded=frozenset()): does w cover V(apex; excluded)
    up to sets that avoid the boundary, as w.boundary_contains would say?

    On a fiber whose blocks of w all have directed apexes, the apexes
    asked about must be directed too, and p is decided by a walk down from
    p over w's apex words: yes when a block at a proper prefix of p holds
    V(p); when w has a block V(p; F), yes exactly when each child along
    F - excluded is swallowed; when no block lies at or below p, yes
    exactly when V(p; excluded) misses the boundary, which a full cone
    never does; otherwise p is outside w, so no at a sink or infinite
    emitter, and at a regular vertex yes exactly when each child off
    excluded is swallowed.  No block at a proper prefix holds a child the
    walk goes on to, so the walk runs on letter keys and end vertices, and
    keeps its answers for full cones for the test's lifetime.  Any other
    tree or w takes _pieces_test."""
    tree, blocks = w.tree, w.blocks
    if not _directed(tree, blocks):
        return _pieces_test(tree, blocks)
    at = {b.apex.letter_keys: b for b in blocks}
    cuts = {keys: _cut(b) for keys, b in at.items()}
    below = {keys[:k] for keys in at for k in range(len(keys) + 1)}  # apex words, prefixes
    regular = tree.graph.regular_vertices
    known: dict = {}  # letter keys of a walk no block at a proper prefix holds -> swallowed

    def children(keys, edges):
        return all(full(keys + (e.signed[True].sort_key(),), e.terminus) for e in edges)

    def full(keys, v) -> bool:
        hit = known.get(keys)
        if hit is None:
            b = at.get(keys)
            if b is not None:
                hit = children(keys, b.excluded)
            else:
                hit = keys in below and v in regular and children(keys, tree.graph.out_instances(v))
            known[keys] = hit
        return hit

    def swallows(apex, excluded=frozenset()) -> bool:
        keys = apex.letter_keys
        if not excluded and keys in known:
            return known[keys]
        if _covered(cuts, keys):
            return True
        v = apex.terminus
        if not excluded:
            return full(keys, v)
        b = at.get(keys)
        if b is not None:
            return children(keys, b.excluded - excluded)
        if keys not in below:
            return not tree.touches_boundary(apex, excluded)
        if v not in regular:
            return False
        return children(keys, [e for e in tree.graph.out_instances(v) if e not in excluded])

    return swallows


@dataclass(frozen=True)
class RingSet:
    """A finite disjoint union of basic sets over one tree.  The constructor
    trusts its blocks, as every operation builds them disjoint; of and
    basic check blocks that come from outside, and only of sweeps."""

    tree: object
    blocks: tuple[BasicSet, ...]

    @classmethod
    def of(cls, tree, blocks: Iterable[BasicSet]) -> "RingSet":
        """Validated blocks; operations on valid ones skip the checks."""
        blocks = list(blocks)
        for b in blocks:
            _validate_basic(tree, b)
        return cls(tree, _swept(tree, _sorted(tree, blocks)))

    @classmethod
    def union_of(cls, tree, blocks: Iterable[BasicSet]) -> "RingSet":
        """The union of the blocks, each validated, as joining them one at
        a time by union builds it.  On a fiber, a block at a directed walk
        no shorter than the kept blocks, all directed, either lies in one of
        them (_covered) or meets none, so it is dropped or kept, and the
        kept blocks are absorbed and sorted once.  Any other block sends
        all of them through the running union."""
        blocks = list(blocks)
        for b in blocks:
            _validate_basic(tree, b)
        if _directed(tree, blocks):
            kept, cuts = [], {}
            for b in blocks:
                keys = b.apex.letter_keys
                if _covered(cuts, keys):
                    continue
                if keys in cuts or kept and len(keys) < len(kept[-1].apex.letter_keys):
                    break  # a kept block may meet b without holding it
                kept.append(b)
                cuts[keys] = _cut(b)
            else:
                return cls(tree, _sorted(tree, kept))
        rs = cls.empty(tree)
        for b in blocks:
            rs = rs.union(cls(tree, (b,)))
        return rs

    @classmethod
    def empty(cls, tree) -> "RingSet":
        return cls(tree, ())

    @classmethod
    def basic(cls, tree, apex, excluded: Iterable[EdgeInstance] = ()) -> "RingSet":
        """One validated block, which is canonical as it stands."""
        if isinstance(apex, BasicSet) and excluded:
            raise RingError("excluded edges belong inside the basic set")
        b = apex if isinstance(apex, BasicSet) else BasicSet(apex, frozenset(excluded))
        _validate_basic(tree, b)
        return cls(tree, (b,))

    def _check_same(self, other: "RingSet"):
        if self.tree is not other.tree and self.tree != other.tree:
            raise RingError("operands live over different trees")

    def is_empty(self) -> bool:
        return not self.blocks

    def intersect(self, other: "RingSet") -> "RingSet":
        self._check_same(other)
        tree = self.tree
        out = [d for b in self.blocks for c in other.blocks if (d := basic_intersect(tree, b, c))]
        return RingSet(tree, _sorted(tree, out))

    def minus(self, other: "RingSet") -> "RingSet":
        self._check_same(other)
        parts = _pieces(self.tree, self.blocks, other.blocks)
        return RingSet(self.tree, _sorted(self.tree, parts))

    def union(self, other: "RingSet") -> "RingSet":
        """self plus the pieces of other outside it, or self when there are
        none (a basic set is never empty).  The pieces are absorbed and
        sorted as in other minus self; they are disjoint from each other
        and from self, and a fold replaces two disjoint blocks by their
        union, so the result needs no sweep."""
        self._check_same(other)
        fresh = _sorted(self.tree, _pieces(self.tree, other.blocks, self.blocks))
        return RingSet(self.tree, _sorted(self.tree, [*self.blocks, *fresh])) if fresh else self

    def symmdiff(self, other: "RingSet") -> "RingSet":
        """The two differences, absorbed and sorted as in minus, make the
        blocks of the result, disjoint as in union."""
        self._check_same(other)
        tree = self.tree
        blocks = _sorted(tree, _pieces(tree, self.blocks, other.blocks))
        blocks += _sorted(tree, _pieces(tree, other.blocks, self.blocks))
        return RingSet(tree, _sorted(tree, blocks))

    def equals(self, other: "RingSet") -> bool:
        self._check_same(other)
        if self.blocks == other.blocks:
            return True
        return all(n == 0 for n in _levels(self.tree, self.blocks, other.blocks))

    def contains(self, other: "RingSet") -> bool:
        """Is other a subset of self?"""
        self._check_same(other)
        return all(n >= 0 for n in _levels(self.tree, self.blocks, other.blocks))

    def has_vertex(self, v) -> bool:
        tree = self.tree
        tree.check_vertex(v)
        for b in self.blocks:
            kind, first, _, _, _ = tree.relation(b.apex, v)
            if kind == "equal" or (kind == "below" and first not in b.excluded):
                return True
        return False

    def boundary_contains(self, other: "RingSet") -> bool:
        """Does self cover other up to sets that avoid the boundary?  Each
        block of other asks swallow_test(self) in order, or _pieces_test
        when one has a reversed letter."""
        self._check_same(other)
        tree = self.tree
        if self.blocks == other.blocks:
            return True
        if _directed(tree, other.blocks):
            swallows = swallow_test(self)
        else:
            swallows = _pieces_test(tree, self.blocks)
        return all(swallows(b.apex, b.excluded) for b in other.blocks)

    def boundary_equal(self, other: "RingSet") -> bool:
        return self.boundary_contains(other) and other.boundary_contains(self)

    def kernel_member(self, in_s: Callable[[object], bool]) -> bool:
        """Is this set a finite union of singletons {u} with u in the given

        family of regular vertices?  Such a singleton is the basic set at u
        excluding all of its finitely many out-edges.
        """
        tree = self.tree
        for b in self.blocks:
            if not in_s(b.apex):
                return False
            v = tree.endpoint(b.apex)
            if v in tree.graph.infinite_emitters:
                return False
            if set(tree.graph.out_instances(v)) != b.excluded:
                return False
        return True

    def pushforward(
        self,
        target_tree,
        vertex_map: Callable,
        edge_map: Callable,
    ) -> "RingSet":
        """Transport along an injective tree map preserving ends and direction."""
        out = [
            BasicSet(vertex_map(b.apex), frozenset(edge_map(e) for e in b.excluded))
            for b in self.blocks
        ]
        return RingSet.of(target_tree, out)

    def __str__(self) -> str:
        if not self.blocks:
            return "{}"
        return "{%s}" % ", ".join(str(b) for b in self.blocks)

    __repr__ = __str__
