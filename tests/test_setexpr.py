import random
import re

import pytest

from graphck.graphs import GraphError, parse_graph
from graphck.paths import parse_path
from graphck.ringsets import BasicSet, RingError, RingSet
from graphck.setexpr import SetExprError, _tokenize, first_apex, parse_setexpr
from graphck.trees import FiberTree, FiniteTree
from helpers import oracle_parse_setexpr, oracle_tokenize
from test_fuzz import EXPRS, cone, mangle


@pytest.fixture
def fiber(graphs):
    return FiberTree(graphs["chain"], "u")


def _basic(tree, g, apex_text, *excl):
    apex = parse_path(g, apex_text)
    return RingSet.of(tree, [BasicSet(apex, frozenset(g.instance(t) for t in excl))])


def test_difference(fiber, graphs):
    g = graphs["chain"]
    got = parse_setexpr(fiber, "V(u) - V(a)")
    assert got.equals(_basic(fiber, g, "u", "a"))


def test_precedence_and_grouping(fiber):
    # & and - bind before | and ^
    assert parse_setexpr(fiber, "V(a) | V(u) & V(a) == V(a)") is True
    assert parse_setexpr(fiber, "(V(a) | V(u)) & V(a) == V(a)") is True
    assert parse_setexpr(fiber, "V(u) - V(a) | V(a) == V(u)") is True
    assert parse_setexpr(fiber, "V(u) ^ V(a) == V(u; a)") is True
    assert parse_setexpr(fiber, "V(u) - V(a) == V(u)") is False


def test_empty_atom(fiber):
    assert parse_setexpr(fiber, "V(a) - V(a) == 0") is True
    assert parse_setexpr(fiber, "0 | V(a) == V(a)") is True


def test_walk_apex_and_exclusions(fiber, graphs):
    g = graphs["chain"]
    got = parse_setexpr(fiber, "V(a; b) | V(a.b)")
    assert got.equals(_basic(fiber, g, "a"))


def test_omega_exclusions(graphs):
    g = graphs["mix"]
    tree = FiberTree(g, "u")
    got = parse_setexpr(tree, "V(u; a#0, a#2, e)")
    assert got.equals(_basic(tree, g, "u", "a#0", "a#2", "e"))


def test_parse_errors(fiber):
    for text in ("V(u", "V(u) V(u)", "V(u) + V(a)", "V()", "& V(u)", "V(u) ==", "V(zz)"):
        with pytest.raises(SetExprError):
            parse_setexpr(fiber, text)
    for text in ("V(u) ==", "V(u) |"):
        with pytest.raises(SetExprError, match="^expression ends early$"):
            parse_setexpr(fiber, text)


def test_semantic_errors(fiber, graphs):
    # a walk starting at v is not in this fiber, an expression error as
    # an unknown vertex is on a finite tree
    with pytest.raises(SetExprError, match="^walk b does not start at u$"):
        parse_setexpr(fiber, "V(b)")
    with pytest.raises(RingError):
        parse_setexpr(fiber, "V(u; b)")  # b does not leave u


def test_first_apex():
    assert first_apex("V(a.b; c) & V(u)") == "a.b"
    assert first_apex("0 | V(x)") == "x"
    assert first_apex("0") is None
    # a token after "V(" that is not a name is the parser's own error
    for text, token in (("V()", ")"), ("V(;a)", ";"), ("0 | V(== V(u)", "==")):
        with pytest.raises(SetExprError, match=re.escape("expected a name, found '%s'" % token)):
            first_apex(text)
    with pytest.raises(SetExprError, match="^expression ends early$"):
        first_apex("V(")


def test_subset(fiber):
    assert parse_setexpr(fiber, "V(a) <= V(u)") is True
    assert parse_setexpr(fiber, "V(u) <= V(a) | V(u; a)") is True
    assert parse_setexpr(fiber, "V(u) <= V(u; a)") is False
    assert parse_setexpr(fiber, "0 <= 0") is True
    with pytest.raises(SetExprError, match="^trailing '<='$"):
        parse_setexpr(fiber, "V(a) <= V(u) <= V(u)")


def test_surrounding_whitespace_is_skipped(fiber):
    for pad in (" ", "  ", "\t", " \t "):
        for text in ("V(u)" + pad, pad + "V(u)" + pad, "V(u) - V(a)" + pad):
            assert parse_setexpr(fiber, text).equals(parse_setexpr(fiber, text.strip()))
        assert first_apex("V(a.b; c)" + pad) == "a.b"
        assert first_apex("0" + pad) is None
    # an unreadable tail is still quoted as typed
    with pytest.raises(SetExprError, match=r"cannot read ' \$ '$"):
        parse_setexpr(fiber, "V(u) $ ")


def test_finite_tree_atoms():
    g = parse_graph(
        "vertex r; vertex a; vertex b; edge x : r -> a; edge y : r -> b"
    )
    tree = FiniteTree(g)
    assert parse_setexpr(tree, "V(r) - V(a) - V(b) == V(r; x, y)") is True
    assert parse_setexpr(tree, "V(a) & V(b) == 0") is True
    got = parse_setexpr(tree, "V(r) ^ V(a)")
    assert got.equals(RingSet.of(tree, [BasicSet("r", frozenset([g.instance("x")]))]))


def _tokens_or_message(tokenize, text):
    try:
        return tokenize(text)
    except SetExprError as exc:
        return str(exc)


def test_tokenizer_matches_the_positional_scan(graphs):
    # one findall checked against the text without whitespace gives the
    # scan's tokens, and on a stray character the scan's message
    rng = random.Random(8500)
    blanks = (" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c", "  \t")
    texts = ["", " ", "$", "V(u) $", "V(u) $ ", "V(a;;)", "V(u)\u00a0-\u3000V(a)\u2028"]
    for name, g in sorted(graphs.items()):
        for _ in range(60):
            base = rng.choice(g.vertices)
            text = rng.choice(EXPRS) % tuple(cone(rng, g, base) for _ in range(3))
            texts += [text, mangle(rng, text), mangle(rng, text) + rng.choice(blanks)]
            texts.append(text.replace(" ", rng.choice(blanks)) + rng.choice(blanks))
    errors = 0
    for text in texts:
        want = _tokens_or_message(oracle_tokenize, text)
        assert _tokens_or_message(_tokenize, text) == want, text
        errors += isinstance(want, str)
    assert errors > 100 and len(texts) - errors > 1000


def _flat(rng, g, base, atoms):
    """Atoms and groups joined by unparenthesised operators of both levels,
    so that precedence decides the value; now and then a comparison."""
    parts = []
    for _ in range(atoms):
        r = rng.random()
        if r < 0.15:
            parts.append("0")
        elif r < 0.3 and atoms > 1:
            parts.append("(%s)" % _flat(rng, g, base, rng.randint(1, 3)))
        else:
            parts.append(cone(rng, g, base))
    text = parts[0]
    for part in parts[1:]:
        text += " %s %s" % (rng.choice("&|^-"), part)
    return text


def _value_or_error(parse, tree, text):
    try:
        got = parse(tree, text)
    except GraphError as exc:
        return type(exc), str(exc)
    return got if isinstance(got, bool) else (got.tree, got.blocks)


def test_parser_matches_the_token_at_a_time_oracle(graphs):
    # seeded expressions, and mangled ones: the same blocks or truth value,
    # or the same error type and message
    rng = random.Random(8600)
    kinds = {"set": 0, "bool": 0, "error": 0}
    for name, g in sorted(graphs.items()):
        for _ in range(40):
            base = rng.choice(g.vertices)
            tree = FiberTree(g, base)
            text = _flat(rng, g, base, rng.randint(1, 7))
            if rng.random() < 0.3:
                text += rng.choice((" == ", " <= ")) + _flat(rng, g, base, rng.randint(1, 3))
            for t in (text, mangle(rng, text), mangle(rng, text)):
                want = _value_or_error(oracle_parse_setexpr, tree, t)
                assert _value_or_error(parse_setexpr, tree, t) == want, t
                kinds["bool" if isinstance(want, bool) else "set" if want[0] is tree else "error"] += 1
    assert min(kinds.values()) > 100, kinds
