"""Bundled example graphs and their expected analysis results."""

from __future__ import annotations

import json

from .graphs import Graph, parse_graph

GRAPH_NAMES = (
    "edge",
    "two",
    "chain",
    "par",
    "t2",
    "o2",
    "oinf",
    "loop",
    "trans",
    "mix",
    "dd",
)


def _read(filename: str) -> str:
    from importlib import resources

    return resources.files(__package__).joinpath("corpus", filename).read_text("utf-8")


def load(name: str) -> Graph:
    if name not in GRAPH_NAMES:
        raise KeyError("unknown corpus graph %r" % name)
    return parse_graph(_read(name + ".graph"), name=name)


def expected() -> dict:
    """Expected per-graph results used by corpus-run and the test suite."""
    return json.loads(_read("expected.json"))
