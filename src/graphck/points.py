"""Boundary points of path fibers: finite walks and eventually periodic rays.

The fiber over a base vertex is a directed tree whose vertices are the
reduced walks from that base.  Its boundary holds the walks ending at a
sink or an infinite emitter, each a ``Path``, and the ends of rays that
are eventually directed.  An eventually periodic end has a unique
shortest presentation stem + repeating directed circuit, and Lasso
stores exactly that presentation, so structural equality decides
equality of ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import PointError
from .paths import Path, SignedEdge, parse_path


def _rotate(cycle: tuple[SignedEdge, ...], j: int) -> tuple[SignedEdge, ...]:
    j %= len(cycle)
    return cycle[j:] + cycle[:j]


def _primitive(cycle: tuple[SignedEdge, ...]) -> tuple[SignedEdge, ...]:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and all(cycle[i] == cycle[i % d] for i in range(n)):
            return cycle[:d]
    return cycle


@dataclass(frozen=True)
class Lasso:
    """The end reached along stem followed by the circuit forever.

    Instances must already be canonical: the circuit is primitive, the
    junction does not cancel, and no tail of the stem could be absorbed
    into a rotation of the circuit.  Build through Lasso.of, which
    normalizes arbitrary presentations into this form.
    """

    stem: Path
    cycle: tuple[SignedEdge, ...]

    kind = "lasso"

    def __post_init__(self):
        if not self.cycle:
            raise PointError("empty circuit")
        at = self.stem.terminus
        for step in self.cycle:
            if not step.forward:
                raise PointError("circuit letter %s is not directed" % step)
            if step.origin != at:
                raise PointError("circuit breaks at %s" % step)
            at = step.terminus
        if at != self.stem.terminus:
            raise PointError("circuit does not close")
        w = self.stem.word
        if w and w[-1].edge == self.cycle[0].edge and not w[-1].forward:
            raise PointError("stem cancels into the circuit")
        if _primitive(self.cycle) != self.cycle:
            raise PointError("circuit is not primitive")
        if w and w[-1] == self.cycle[-1]:
            raise PointError("stem tail repeats the circuit")

    @classmethod
    def of(cls, stem: Path, cycle) -> "Lasso":
        cycle = tuple(cycle)
        if not cycle:
            raise PointError("empty circuit")
        # cancel the junction, rotating the circuit under the popped letters
        while stem.word and stem.word[-1].edge == cycle[0].edge and not stem.word[-1].forward:
            stem = stem.prefix(len(stem) - 1)
            cycle = _rotate(cycle, 1)
        cycle = _primitive(cycle)
        # pull repeated letters off the stem so the stem is shortest
        while stem.word and stem.word[-1] == cycle[-1]:
            stem = stem.prefix(len(stem) - 1)
            cycle = _rotate(cycle, -1)
        return cls(stem, cycle)

    @property
    def origin(self) -> str:
        return self.stem.origin

    @property
    def is_directed(self) -> bool:
        return self.stem.is_directed

    def word_prefix(self, n: int) -> tuple[SignedEdge, ...]:
        out = list(self.stem.word[:n])
        i = 0
        while len(out) < n:
            out.append(self.cycle[i % len(self.cycle)])
            i += 1
        return tuple(out)

    def prefix_path(self, n: int) -> Path:
        """The tree vertex sitting n letters along the ray."""
        return Path.trusted(self.origin, self.word_prefix(n))

    def drop(self, r: int) -> "Lasso":
        if r <= len(self.stem):
            return Lasso.of(self.stem.drop(r), self.cycle)
        j = r - len(self.stem)
        rotated = _rotate(self.cycle, j)
        return Lasso.of(Path.unit(rotated[0].origin), rotated)

    def __str__(self) -> str:
        circuit = ".".join(str(s) for s in self.cycle)
        return "%s@%s" % (self.stem, circuit)


@dataclass(frozen=True)
class AperiodicDescriptor:
    """A symbolic ray alpha.cycle.ret.cycle^2.ret.cycle^3... with growing runs.

    Strictly increasing run lengths rule out any eventual period.  Not a
    Lasso; only prefixes of it are materialized.
    """

    alpha: Path
    cycle: tuple[SignedEdge, ...]
    ret: tuple[SignedEdge, ...]

    kind = "aperiodic"

    @property
    def origin(self) -> str:
        return self.alpha.origin

    @property
    def is_directed(self) -> bool:
        return self.alpha.is_directed and all(
            s.forward for s in self.cycle + self.ret
        )

    def word_prefix(self, n: int) -> tuple[SignedEdge, ...]:
        out = list(self.alpha.word[:n])
        k = 1
        while len(out) < n:
            out.extend(self.cycle * k)
            out.extend(self.ret)
            k += 1
        return tuple(out[:n])

    def prefix_path(self, n: int) -> Path:
        return Path(self.origin, self.word_prefix(n))


def act(alpha: Path, x):
    """Translate a point by a walk composable with it."""
    if x.kind == "finite":
        return alpha * x
    if x.kind == "lasso":
        return Lasso.of(alpha * x.stem, x.cycle)
    raise PointError("cannot act on %r" % (x,))


def parse_point(graph, text: str):
    """``e.~f`` or a bare vertex for a finite point, ``stem@circuit`` for
    the end down a repeating circuit."""
    text = text.strip()
    if "@" not in text:
        return parse_path(graph, text)
    stem_text, _, circuit_text = text.partition("@")
    stem = parse_path(graph, stem_text)
    circuit = parse_path(graph, circuit_text)
    if not circuit.is_directed:
        raise PointError("circuit %s is not directed" % circuit)
    if circuit.origin != stem.terminus:
        raise PointError(
            "circuit starts at %s but the stem ends at %s"
            % (circuit.origin, stem.terminus)
        )
    return Lasso.of(stem, circuit.word)
