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

from .graphs import GraphError, SetExprError
from .paths import parse_path
from .ringsets import RingSet
from .trees import FiberTree

__all__ = ["SetExprError", "parse_setexpr", "first_apex"]


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


_PUNCT = frozenset(("(", ")", ";", ",", "&", "|", "^", "-", "==", "<="))


class _Parser:
    """Recursive descent over the token list, walked by index; the list
    ends in None, which no rule consumes."""

    def __init__(self, tree, tokens: list[str]):
        self.tree = tree
        self.toks = tokens + [None]
        self.pos = 0
        self.nesting = 0

    def expect(self, token: str) -> None:
        t = self.toks[self.pos]
        if t != token:
            what = "expected %r but found %r" % (token, t) if t else "expression ends early"
            raise SetExprError(what)
        self.pos += 1

    def parse(self):
        left = self.union()
        op = self.toks[self.pos]
        if op in ("==", "<="):
            self.pos += 1
            right = self.union()
            value = left.equals(right) if op == "==" else right.contains(left)
        else:
            value = left
        if self.toks[self.pos] is not None:
            raise SetExprError("trailing %r" % self.toks[self.pos])
        return value

    def union(self) -> RingSet:
        acc = self.term()
        while (op := self.toks[self.pos]) in ("|", "^"):
            self.pos += 1
            rhs = self.term()
            acc = acc.union(rhs) if op == "|" else acc.symmdiff(rhs)
        return acc

    def term(self) -> RingSet:
        acc = self.factor()
        while (op := self.toks[self.pos]) in ("&", "-"):
            self.pos += 1
            rhs = self.factor()
            acc = acc.intersect(rhs) if op == "&" else acc.minus(rhs)
        return acc

    def factor(self) -> RingSet:
        t = self.toks[self.pos]
        if t == "V":
            return self.atom()
        if t == "(":
            if self.nesting == MAX_NESTING:
                raise SetExprError("parentheses nest deeper than %d" % MAX_NESTING)
            self.pos += 1
            self.nesting += 1
            inner = self.union()
            self.nesting -= 1
            self.expect(")")
            return inner
        if t == "0":
            self.pos += 1
            return RingSet.empty(self.tree)
        what = "expected a cone or parenthesis, found %r" % t if t else "expression ends early"
        raise SetExprError(what)

    def word(self) -> str:
        t = self.toks[self.pos]
        if not t or t in _PUNCT:
            raise SetExprError("expected a name, found %r" % t if t else "expression ends early")
        self.pos += 1
        return t

    def atom(self) -> RingSet:
        self.pos += 1  # the V
        self.expect("(")
        apex = self._apex(self.word())
        excluded = []
        if self.toks[self.pos] == ";":
            self.pos += 1
            excluded.append(self._instance(self.word()))
            while self.toks[self.pos] == ",":
                self.pos += 1
                excluded.append(self._instance(self.word()))
        self.expect(")")
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
