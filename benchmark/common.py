"""Helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import io
import json


def cli_json(gc, tr, argv: list[str]):
    """Run graphck's command line in-process and decode its --json output.

    Returns (exit code, decoded output or None when nothing was printed).
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tr.call("cli.main", gc.cli.main, argv + ["--json"])
    text = buf.getvalue()
    return rc, json.loads(text) if text.strip() else None


def plain(value):
    """An int count, or 'omega' for the program's infinity marker."""
    return "omega" if repr(value) == "omega" else value


def first_difference(got: dict, want: dict) -> str | None:
    for key in sorted(set(got) | set(want), key=str):
        if got.get(key) != want.get(key):
            return "%s: got %r, want %r" % (key, got.get(key), want.get(key))
    return None
