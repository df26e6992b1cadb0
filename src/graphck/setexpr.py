"""A small expression language for the cone-set calculus.

``V(u)`` is the cone at u and ``V(u; e, f#1)`` the same cone with the
first steps along the named instances removed; over a walk fiber the
apex may be a walk like ``a.~b``.  ``&`` and ``-`` bind tightest, then
``|`` and ``^`` left to right, and a single ``==`` or ``<=`` (subset) on
the outside turns the result into a truth value.  ``0`` is the empty
set.  Parentheses nest at most MAX_NESTING deep; a deeper expression is
a SetExprError.
"""

from __future__ import annotations

import re

from .graphs import GraphError
from .paths import parse_path
from .ringsets import RingSet
from .trees import FiberTree

__all__ = ["SetExprError", "parse_setexpr", "first_apex"]


class SetExprError(GraphError):
    pass


# Each parenthesis costs the recursive-descent parser three stack frames,
# so this stays far below the interpreter's recursion limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(==|<=|[()&|^;,-]|[~\w#.]+)")
_SPACE = re.compile(r"\s+")


def _tokenize(text: str) -> list[str]:
    """The tokens of text; whitespace around them, trailing included, is
    skipped."""
    out = _TOKEN.findall(text)
    if "".join(out) != _SPACE.sub("", text):
        # findall skipped a character no token starts with: find the first
        pos = 0
        while m := _TOKEN.match(text, pos):
            pos = m.end()
        raise SetExprError("cannot read %r" % text[pos:])
    return out


def first_apex(text: str) -> str | None:
    """The raw apex of the first cone atom, for picking a fiber base; a
    token there that is not a name is the parser's error."""
    toks = _tokenize(text)
    for i, t in enumerate(toks):
        if t == "V" and i + 1 < len(toks) and toks[i + 1] == "(":
            return _Parser(None, toks[i + 2 :]).word()
    return None


class _Parser:
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


def parse_setexpr(tree, text: str):
    """Evaluate the expression over the tree.

    Returns a RingSet, or a bool when the expression is a comparison.
    """
    return _Parser(tree, _tokenize(text)).parse()
