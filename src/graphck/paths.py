"""Reduced walks in a doubled graph, with groupoid composition.

A path is an origin vertex plus a reduced word of signed edges: consecutive
letters are composable and no letter is immediately followed by its own
reversal.  Length-0 paths are vertices.  A path is directed when every
letter is traversed forward.  Composition concatenates and cancels at the
junction; inverses reverse the word.  Paths form a groupoid with the
vertices as units, and a path is also a finite boundary point (``kind``
"finite").  Walks are interned per graph; ``Path`` is slotted and keeps
its letter keys and its hash after first use, and ``Path.trusted`` fills
its slots through their descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import EdgeInstance, Graph, GraphError, PathError, SignedEdge


@dataclass(frozen=True, slots=True)
class Path:
    origin: str
    word: tuple[SignedEdge, ...] = ()
    _keys: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    kind = "finite"

    def __post_init__(self):
        at = self.origin
        prev = None
        for s in self.word:
            if s.origin != at:
                raise PathError("letter %s does not start at %s" % (s, at))
            if prev is not None and s == prev.reverse():
                raise PathError("word is not reduced at %s" % (s,))
            at = s.terminus
            prev = s

    @classmethod
    def trusted(cls, origin: str, word: tuple[SignedEdge, ...]) -> "Path":
        """A path from a word that is composable from origin and reduced by
        construction, skipping the checks in __post_init__."""
        p = object.__new__(cls)
        _set_origin(p, origin)
        _set_word(p, word)
        _set_keys(p, None)
        _set_hash(p, None)
        return p

    @classmethod
    def unit(cls, v: str) -> "Path":
        return cls.trusted(v, ())

    @property
    def terminus(self) -> str:
        return self.word[-1].terminus if self.word else self.origin

    def __len__(self) -> int:
        return len(self.word)

    @property
    def is_directed(self) -> bool:
        return all(s.forward for s in self.word)

    def concat(self, other: "Path") -> "Path":
        if self.terminus != other.origin:
            raise PathError(
                "cannot compose: %s ends at %s, %s starts at %s"
                % (self, self.terminus, other, other.origin)
            )
        # both words are reduced, so cancelling stops at the first pair
        # of letters at the junction that are not mutual reverses
        a, b = self.word, other.word
        r = 0
        while r < len(a) and r < len(b) and a[-1 - r] == b[r].reverse():
            r += 1
        return Path.trusted(self.origin, a[: len(a) - r] + b[r:])

    __mul__ = concat

    def inverse(self) -> "Path":
        return Path.trusted(self.terminus, tuple(s.reverse() for s in reversed(self.word)))

    def prefix(self, n: int) -> "Path":
        return Path.trusted(self.origin, self.word[:n])

    def word_prefix(self, n: int) -> tuple[SignedEdge, ...]:
        return self.word[:n]

    def drop(self, n: int) -> "Path":
        """The path left after removing the first n letters."""
        if not 0 <= n <= len(self.word):
            raise PathError("cannot drop %d letters from %s" % (n, self))
        if n == 0:
            return self
        return Path.trusted(self.word[n - 1].terminus, self.word[n:])

    def append(self, e: EdgeInstance) -> "Path":
        """Right-multiply by a single forward edge, cancelling if needed."""
        s = e.signed[True]
        if s.origin != self.terminus:
            raise PathError("edge %s does not continue %s" % (e, self))
        if self.word and self.word[-1] == s.reverse():
            return Path.trusted(self.origin, self.word[:-1])
        return Path.trusted(self.origin, self.word + (s,))

    @property
    def letter_keys(self) -> tuple:
        """The sort keys of the letters, computed on first use; lexicographic
        order on them puts every prefix before its extensions."""
        if self._keys is None:
            _set_keys(self, tuple(s.sort_key() for s in self.word))
        return self._keys

    def sort_key(self):
        return (len(self.word), self.letter_keys, self.origin)

    def __hash__(self) -> int:  # the dataclass formula, kept after first use
        if self._hash is None:
            _set_hash(self, hash((self.origin, self.word)))
        return self._hash

    def __reduce__(self):  # through the constructor: a hash is kept per process
        return (Path, (self.origin, self.word))

    def __str__(self) -> str:
        if not self.word:
            return self.origin
        return ".".join(str(s) for s in self.word)

    __repr__ = __str__


# the slot descriptors set a frozen Path's slots without __setattr__
_set_origin, _set_word, _set_keys, _set_hash = (Path.__dict__[n].__set__ for n in Path.__slots__)


def directed_upto(starts, steps, depth: int) -> list[Path]:
    """The given paths and their forward extensions by at most depth
    letters, level by level; steps(v) gives the edge instances used at v."""
    out, frontier = list(starts), list(starts)
    for _ in range(depth):
        frontier = [p.append(e) for p in frontier for e in steps(p.terminus)]
        if not frontier:
            break
        out.extend(frontier)
    return out


def parse_path(graph: Graph, text: str) -> Path:
    """Parse ``e.f.~g`` (or a bare vertex name for a length-0 path).  A text is
    validated on its first parse; parsing it again gives the same object."""
    text = text.strip()
    p = graph._walks.get(text)
    if p is not None:
        return p
    if not text:
        raise PathError("empty path text")
    bare = "." not in text and "~" not in text
    if bare and graph.has_vertex(text):
        return graph._walks.setdefault(text, Path.unit(text))
    letters = []
    for part in text.split("."):
        part = part.strip()
        if not part:
            raise PathError("empty letter in path %r" % text)
        forward = not part.startswith("~")
        try:
            e = graph.instance(part.removeprefix("~"))
        except GraphError as exc:
            what = "unknown vertex or edge %r" % text if bare and "#" not in text else exc
            raise PathError("in path %r: %s" % (text, what)) from None
        letters.append(e.signed[forward])
    return graph._walks.setdefault(text, Path(letters[0].origin, tuple(letters)))
