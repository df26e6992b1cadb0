"""The package loads a module only when a caller first needs it.

One subprocess, started with ``-S`` so that no site hook has imported
anything, imports ``graphck`` and ``graphck.cli``, and then runs each
subcommand through ``cli.main`` on a corpus graph, each time with every
graphck module dropped from ``sys.modules`` first.  It reports the
graphck modules loaded after each step, which must match ``LOADS``.  The
rest checks the package namespace in this process: every public name is
the object its home module defines, ``import *`` binds them all, and the
error classes the command line maps to exit codes live in ``graphs``
alone."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import graphck
from graphck import graphs

# What `import graphck, graphck.cli` loads, and what each command adds.
IMPORTED = {"cli", "corpus", "graphs"}
LOADS = {
    "import": set(),
    "analyze chain": {"structure"},
    "ideals mix": {"invariants", "paths", "ringsets", "structure", "trees"},
    "rep-verify chain": {"fock"},
    "setcalc chain V(a)": {"paths", "ringsets", "setexpr", "trees"},
    "standard-form chain a.b w": {"cover", "paths", "points", "ringsets", "trees"},
    "cocycle chain a.b w": {"cover", "paths", "points", "ringsets", "trees"},
    "af-blocks chain": {"cover", "paths", "points", "ringsets", "trees"},
    "limit-check chain": {"cover", "fock", "invariants", "paths", "points", "ringsets", "trees"},
    "corpus-run": {"fock", "invariants", "paths", "ringsets", "structure", "trees"},
}
# Standard-library modules that only some commands need.
ON_DEMAND_STDLIB = ("importlib.resources", "random")

SCRIPT = """
import contextlib, io, json, sys

def fresh():
    for name in [m for m in sys.modules if m == "graphck" or m.startswith("graphck.")]:
        del sys.modules[name]
    import graphck.cli
    return graphck.cli

def loaded(code):
    return [sorted(m[8:] for m in sys.modules if m.startswith("graphck.")), code]

out = {}
fresh()
out["import"] = loaded(0)
out["stdlib"] = [m for m in %r if m in sys.modules]
for command in %r:
    cli = fresh()
    with contextlib.redirect_stdout(io.StringIO()):
        out[command] = loaded(cli.main(command.split()))
print(json.dumps(out))
""" % (ON_DEMAND_STDLIB, [c for c in LOADS if c != "import"])

ERRORS = ("CapError", "FockError", "InvariantError", "PathError", "PointError", "SetExprError")


@pytest.fixture(scope="module")
def report():
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("command", list(LOADS))
def test_each_entry_point_loads_only_what_it_uses(report, command):
    modules, code = report[command]
    assert code == 0
    assert set(modules) == IMPORTED | LOADS[command]


def test_import_leaves_the_command_only_stdlib_unloaded(report):
    assert report["stdlib"] == []


def test_every_public_name_is_its_home_modules_object():
    for name in graphck.__all__:
        home = importlib.import_module("graphck." + graphck._HOME[name])
        value = getattr(graphck, name)
        assert value is getattr(home, name), name
        assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from graphck import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(graphck.__all__)


def test_an_unknown_name_is_the_usual_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'graphck' has no attribute 'nope'$"):
        graphck.nope
    assert not hasattr(graphck, "directed_upto")  # public in its module, not in the package


def test_the_command_line_errors_are_one_class_each():
    for name in ERRORS:
        cls = getattr(graphs, name)
        assert cls.__module__ == "graphck.graphs" and issubclass(cls, graphs.GraphError)
        assert getattr(graphck, name) is cls
    from graphck import fock, invariants, paths, points, setexpr

    assert fock.FockError is graphs.FockError
    assert invariants.InvariantError is graphs.InvariantError
    assert paths.PathError is graphs.PathError
    assert points.PointError is graphs.PointError
    assert setexpr.SetExprError is graphs.SetExprError
