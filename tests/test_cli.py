import json
import os
import subprocess
import sys
import time

import pytest

import graphck
from graphck import cli, corpus, invariants
from graphck.cli import main
from graphck.cover import MAX_AF_PAIRS
from graphck.fock import MAX_BASIS
from graphck.graphs import MAX_INSTANCES, Graph
from graphck.invariants import MAX_FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "trans")
    assert code == 0
    assert "cycle [a] transitory" in out
    assert "essentially_principal: no" in out
    assert "no walk returns to the cycle [a]" in out


def test_analyze_json(capsys):
    code, data = run_json(capsys, "analyze", "mix")
    assert code == 0
    assert data["flags"]["af"] is True
    assert data["paths_into"] == {"u": 1, "v": "omega", "w": 2}
    assert data["infinite_emitters"] == ["u"]


def test_ideals_json(capsys):
    code, data = run_json(capsys, "ideals", "mix")
    assert code == 0
    assert data["count"] == 6
    assert data["order_faithful"] is True
    chained = [f for f in data["families"] if f["exclusions"]]
    assert chained == [
        {
            "index": 3,
            "text": "({u,v} | u:e)",
            "vertices": ["u", "v"],
            "exclusions": {"u": ["e"]},
            "residue_vertices": ["u", "w"],
            "residue_marks": ["u"],
        }
    ]
    assert [0, 1] in data["hasse"]


def test_ideals_dot(capsys):
    code, out, _ = run(capsys, "ideals", "two", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == len([l for l in out.splitlines() if "->" in l])


def test_ideals_order_not_faithful(capsys):
    code, data = run_json(capsys, "ideals", "loop")
    assert code == 0
    assert data["order_faithful"] is False
    assert data["count"] == 2


def test_ideals_ignores_omega_f_bound(capsys):
    for name in corpus.GRAPH_NAMES:
        for fmt in ((), ("--json",)):
            plain = run(capsys, "ideals", name, *fmt)
            bounded = run(capsys, "ideals", name, "--omega-f-bound", "2", *fmt)
            assert bounded == plain, (name, fmt)


def _complete_digraph(tmp_path, n):
    lines = ["vertex v%d" % i for i in range(n)]
    lines += [
        "edge e%d_%d : v%d -> v%d" % (i, j, i, j) for i in range(n) for j in range(n) if i != j
    ]
    p = tmp_path / ("k%d.graph" % n)
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_ideals_lists_no_cycles(tmp_path, capsys):
    # K8 has far more than 10000 cycles but only two families
    k8 = _complete_digraph(tmp_path, 8)
    code, out, err = run(capsys, "ideals", k8)
    assert code == 0, err
    assert out.splitlines()[0] == "k8: 2 families (order faithful: yes)"
    code, _, err = run(capsys, "analyze", k8)
    assert code == 2 and err == "cap exceeded: more than 10000 cycles\n"


def test_ideals_checks_each_family_once(capsys, monkeypatch):
    # quotient_data checks each family; the enumeration checks none
    calls = []
    real = invariants.is_invariant

    def counting(g, inv):
        calls.append(inv)
        return real(g, inv)

    monkeypatch.setattr(invariants, "is_invariant", counting)
    for name in corpus.GRAPH_NAMES:
        calls.clear()
        code, data = run_json(capsys, "ideals", name)
        assert code == 0
        assert sorted(map(str, calls)) == sorted(f["text"] for f in data["families"]), name


def test_rep_verify(capsys):
    code, data = run_json(capsys, "rep-verify", "chain")
    assert code == 0
    assert data["exact"] is True
    assert data["dimension"] == 9
    assert all(r["holds"] for r in data["relations"])

    code, data = run_json(capsys, "rep-verify", "t2", "--mode", "toeplitz")
    assert code == 0
    assert data["dimension"] == 45

    code, data = run_json(capsys, "rep-verify", "loop", "--depth", "4")
    assert code == 0
    assert data["exact"] is False and data["dimension"] is None


def test_rep_verify_partial_marks(capsys):
    code, data = run_json(capsys, "rep-verify", "chain", "--marks", "v")
    assert code == 0
    assert data["marks"] == ["v"]
    assert data["dimension"] == 10


def test_setcalc_cone_without_a_name(capsys):
    # without --base the fiber is picked from the first apex; a token there
    # that is no name says so as it does with a base
    for expr, message in (
        ("V()", "expected a name, found ')'"),
        ("V(;a)", "expected a name, found ';'"),
        ("V(", "expression ends early"),
    ):
        code, out, err = run(capsys, "setcalc", "chain", expr, "--base", "u")
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        assert run(capsys, "setcalc", "chain", expr) == (code, out, err)


def test_setcalc(capsys):
    code, out, _ = run(capsys, "setcalc", "chain", "V(u) - V(a)")
    assert code == 0
    assert out.strip() == "{V(u; a)}"
    code, out, _ = run(capsys, "setcalc", "chain", "V(a) | V(u; a) == V(u)")
    assert code == 0
    assert out.strip() == "true"
    code, data = run_json(capsys, "setcalc", "chain", "V(a.b)", "--base", "u")
    assert code == 0
    assert data == {"base": "u", "result": "{V(a.b)}"}
    code, out, _ = run(capsys, "setcalc", "chain", "V(a) <= V(u)")
    assert (code, out) == (0, "true\n")
    code, data = run_json(capsys, "setcalc", "chain", "V(u) <= V(u; a)")
    assert (code, data) == (0, {"base": "u", "subset": False})


def test_standard_form_and_cocycle(capsys):
    code, out, _ = run(capsys, "standard-form", "chain", "a.b", "~b")
    assert code == 0
    assert out.strip() == "(a, ~b, v)  degree 0"
    code, out, _ = run(capsys, "cocycle", "loop", "~a.~a.~a", "u@a")
    assert code == 0
    assert out.strip() == "-3"


def test_af_blocks(capsys):
    code, data = run_json(capsys, "af-blocks", "par", "--length", "1")
    assert code == 0
    assert data["count"] == 6
    offdiag = [b for b in data["blocks"] if b["beta1"] != b["beta2"]]
    assert {(b["beta1"], b["beta2"]) for b in offdiag} == {("e", "f"), ("f", "e")}


def test_limit_check(capsys):
    for name in ("chain", "t2", "mix"):
        code, data = run_json(capsys, "limit-check", name, "--seed", "11")
        assert code == 0, name
        assert data["failures"] == 0


def test_limit_check_on_a_stray_subgraph_fails_the_check(capsys, monkeypatch):
    # a "subgraph" with a vertex the graph lacks is no inclusion: the marks
    # it induces cannot be pushed down to it
    monkeypatch.setattr(cli, "_random_subgraph", lambda rng, g: Graph(["stray"], [], name="stray"))
    code, out, err = run(capsys, "limit-check", "chain")
    assert code == 3 and not out
    assert err == "check failed: not a subgraph inclusion\n"


def test_corpus_run(capsys):
    code, data = run_json(capsys, "corpus-run")
    assert code == 0
    assert data["failures"] == 0
    assert len(data["results"]) == 11


def test_graph_file_argument(tmp_path, capsys):
    p = tmp_path / "pair.graph"
    p.write_text("vertex a\nvertex b\nedge e : a -> b\n")
    code, data = run_json(capsys, "analyze", str(p))
    assert code == 0
    assert data["graph"] == "pair"
    assert data["flags"]["simple"] is True


def test_exit_code_usage(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/g.graph")
    assert code == 1 and "cannot read" in err
    latin = tmp_path / "latin.graph"
    latin.write_bytes(b"vertex \xff\n")
    for argv in (("analyze", str(latin)), ("af-blocks", "two", "--sub", str(latin))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: cannot read "), argv
    code, _, err = run(capsys, "setcalc", "chain", "V(u) +")
    assert code == 1
    code, _, err = run(capsys, "rep-verify", "loop")  # cyclic without depth
    assert code == 1 and "depth" in err
    code, _, err = run(capsys, "standard-form", "chain", "a.zz", "v")
    assert code == 1
    assert main(["no-such-command"]) == 1


def test_exit_code_bad_edge_index(capsys):
    code, out, err = run(capsys, "standard-form", "chain", "a#x", "u")
    assert code == 1
    assert out == ""
    assert err == "error: in path 'a#x': bad edge index 'x'\n"
    # int() would read 1_000; only ASCII digits name an instance
    code, out, err = run(capsys, "standard-form", "oinf", "a#1_000", "u")
    assert (code, out) == (1, "")
    assert err == "error: in path 'a#1_000': bad edge index '1_000'\n"
    code, out, _ = run(capsys, "standard-form", "oinf", "a#1000", "u")
    assert code == 0 and "a#1000" in out


def test_exit_code_bad_multiplicity(tmp_path, capsys):
    # int() would read 1_0 as 10; only ASCII digits or omega give a multiplicity
    for mult in ("1_0", "+2", "\u0663"):
        p = tmp_path / "mult.graph"
        p.write_text("vertex u\nvertex v\nedge a : u -> v * %s\n" % mult, encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(p))
        assert (code, out) == (1, ""), mult
        assert err == "error: line 3: bad multiplicity %r\n" % mult


def test_exit_code_cap(tmp_path, capsys):
    lines = ["vertex v%d" % i for i in range(7)]
    for i in range(7):
        for j in range(7):
            if i != j:
                lines.append("edge e%d_%d : v%d -> v%d" % (i, j, i, j))
    p = tmp_path / "dense.graph"
    p.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "analyze", str(p), "--cap", "10")
    assert code == 2
    assert "cap" in err


def test_exit_code_semantic(tmp_path, capsys):
    # marks that are not regular vertices are a semantic breach
    code, _, err = run(capsys, "rep-verify", "chain", "--marks", "w")
    assert code == 1 and "regular" in err


def test_rep_verify_counts_checked_columns(capsys):
    code, data = run_json(capsys, "rep-verify", "chain")
    assert code == 0 and data["size"] == 3
    assert [r["checked"] for r in data["relations"]] == [3] * 6

    # depth 4 on a loop: 5 paths, the 4 shorter than the depth are interior
    code, data = run_json(capsys, "rep-verify", "loop", "--mode", "toeplitz", "--depth", "4")
    assert code == 0 and data["size"] == 5
    assert [r["checked"] for r in data["relations"]] == [5, 5, 4, 4, 4]


def test_rep_verify_vacuous(capsys):
    # every path on o2 and loop ends at the one regular vertex, so the ck
    # basis is empty: nothing was checked, which is not reported as ok
    for graph in ("o2", "loop"):
        code, out, _ = run(capsys, "rep-verify", graph, "--mode", "ck", "--depth", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "%s: ck basis of 0 paths (truncated)" % graph
        assert len(lines) == 7
        assert all(line.endswith(": vacuous") for line in lines[1:])
        code, data = run_json(capsys, "rep-verify", graph, "--mode", "ck", "--depth", "3")
        assert code == 0
        assert all(r["holds"] and r["checked"] == 0 for r in data["relations"])

    # depth 0 keeps only the vertices: the projections are checked, no
    # translation is
    code, out, _ = run(capsys, "rep-verify", "loop", "--mode", "toeplitz", "--depth", "0")
    assert code == 0
    assert out.splitlines()[1:] == [
        "vertex projections orthogonal: ok",
        "vertex projections sum to one: ok",
        "translations are partial isometries onto their target: vacuous",
        "translations have orthogonal ranges: vacuous",
        "range sums stay under their vertex: vacuous",
    ]


def test_rep_verify_without_depth_on_omega_graph(capsys):
    # only the omega cap truncates this acyclic basis, so every column counts
    code, data = run_json(capsys, "rep-verify", "mix")
    assert code == 0 and not data["exact"]
    assert all(r["holds"] and r["checked"] == data["size"] for r in data["relations"])


def test_exit_code_bad_truncation(capsys):
    code, out, err = run(capsys, "rep-verify", "chain", "--depth", "-1")
    assert code == 1 and out == ""
    assert err == "error: depth must be at least 0, got -1\n"
    code, out, err = run(capsys, "rep-verify", "o2", "--depth", "3", "--omega-truncate", "0")
    assert code == 1 and out == ""
    assert err == "error: omega cap must be at least 1, got 0\n"


def test_setcalc_nesting_cap(capsys):
    deep = "(" * 3000 + "V(u)" + ")" * 3000
    code, out, err = run(capsys, "setcalc", "chain", deep)
    assert code == 1 and out == ""
    assert err == "error: parentheses nest deeper than 100\n"
    code, out, _ = run(capsys, "setcalc", "chain", "(" * 100 + "V(u)" + ")" * 100)
    assert code == 0 and out.strip() == "{V(u)}"


def test_limit_check_needs_a_chain(capsys):
    for chains in ("0", "-1"):
        code, out, err = run(capsys, "limit-check", "chain", "--chains", chains)
        assert code == 1 and out == ""
        assert err == "error: --chains must be at least 1, got %s\n" % chains


def test_analyze_needs_a_cap_of_at_least_zero(capsys):
    code, out, err = run(capsys, "analyze", "loop", "--cap", "-1")
    assert code == 1 and out == ""
    assert err == "error: --cap must be at least 0, got -1\n"
    code, out, err = run(capsys, "analyze", "loop", "--cap", "0")
    assert code == 2 and out == ""
    assert err == "cap exceeded: more than 0 cycles\n"
    code, out, _ = run(capsys, "analyze", "chain", "--cap", "0")
    assert code == 0 and "af: yes" in out


def test_af_blocks_bad_truncation(capsys):
    code, out, err = run(capsys, "af-blocks", "chain", "--length", "-1")
    assert code == 1 and out == ""
    assert err == "error: length must be at least 0, got -1\n"
    code, out, err = run(capsys, "af-blocks", "oinf", "--omega-truncate", "0")
    assert code == 1 and out == ""
    assert err == "error: omega cap must be at least 1, got 0\n"
    code, out, _ = run(capsys, "af-blocks", "chain", "--length", "0")
    assert code == 0 and out.startswith("3 blocks at length <= 0\n")


def test_omega_truncation_and_af_pairs_past_their_caps_exit_2(capsys):
    # the omega cap is refused before any path is built and the pair count
    # before any pair; without them, af-blocks at an omega cap of 300000
    # ran out of memory
    big = MAX_INSTANCES + 1
    too_big = "omega cap %d is more than %d" % (big, MAX_INSTANCES)
    # every pair of the 10**4 loops, and the unit with itself
    too_many = "%d pairs of paths up to length 1, more than %d" % (MAX_INSTANCES**2 + 1, MAX_AF_PAIRS)
    cases = [
        (["af-blocks", "oinf", "--length", "1", "--omega-truncate", str(big)], too_big),
        (["rep-verify", "oinf", "--depth", "1", "--omega-truncate", str(big)], too_big),
        (["af-blocks", "oinf", "--length", "1", "--omega-truncate", str(MAX_INSTANCES)], too_many),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out, err) == (2, "", "cap exceeded: %s\n" % message), argv


def test_a_basis_past_its_cap_exits_2_before_it_is_built(capsys):
    # depth 4 at an omega cap of 100 would hold 101,010,101 paths and ran out
    # of memory; each level is sized before it is built
    start = time.perf_counter()
    code, out, err = run(capsys, "rep-verify", "oinf", "--depth", "4", "--omega-truncate", "100")
    assert time.perf_counter() - start < 1.0
    want = "cap exceeded: %d basis paths up to length 3, more than %d\n" % (1010101, MAX_BASIS)
    assert (code, out, err) == (2, "", want)


def test_enumerations_past_their_caps_exit_2_before_they_are_built(capsys, tmp_path):
    # the first three ran out of memory: 2^26 closed sets, about 10^16 pairs
    # of paths and 2^25 paths; each count is now read before anything is
    # built.  The table holds only the vertices with a path, so a loop beside
    # 2000 isolated vertices is counted to the cap at one vertex a level
    isolated = tmp_path / "isolated.graph"
    isolated.write_text("".join("vertex v%d\n" % i for i in range(26)))
    looped = tmp_path / "looped.graph"
    looped.write_text("".join("vertex v%d\n" % i for i in range(2000)) + "edge a : v0 -> v0\n")
    cases = [
        (
            ["af-blocks", str(looped), "--length", "1000000"],
            "%d pairs of paths up to length 98001, more than %d" % (MAX_AF_PAIRS + 1, MAX_AF_PAIRS),
        ),
        (["ideals", str(isolated)], "more than %d families" % MAX_FAMILIES),
        (
            ["af-blocks", "oinf", "--length", "4", "--omega-truncate", "100"],
            "100010001 pairs of paths up to length 2, more than %d" % MAX_AF_PAIRS,
        ),
        (
            ["limit-check", "o2", "--length", "24"],
            "%d directed paths up to length 16, more than %d" % (2**17 - 1, MAX_AF_PAIRS),
        ),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out, err) == (2, "", "cap exceeded: %s\n" % message), argv


def test_setcalc_unknown_base_is_a_usage_error(capsys):
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "setcalc", "chain", "V(u)", "--base", "zz", *extra)
        assert code == 1 and out == ""
        assert err == "error: --base zz is not a vertex of chain\n"
    code, out, _ = run(capsys, "setcalc", "chain", "V(u)", "--base", "u")
    assert code == 0 and out == "{V(u)}\n"


def test_limit_check_needs_a_vertex(tmp_path, capsys):
    empty = tmp_path / "empty.graph"
    empty.write_text("# nothing\n")
    code, out, err = run(capsys, "limit-check", str(empty))
    assert code == 1 and out == ""
    assert err == "error: empty has no vertices\n"


def test_setcalc_apex_outside_the_fiber_is_an_expression_error(capsys):
    for argv, walk, base in (
        (("V(e)", "--base", "w"), "e", "w"),
        (("V(e) | V(~e)",), "~e", "u"),  # the base is the origin of the first cone
    ):
        code, out, err = run(capsys, "setcalc", "two", *argv)
        assert code == 1 and out == ""
        assert err == "error: walk %s does not start at %s\n" % (walk, base)


def test_a_name_that_is_neither_vertex_nor_edge_says_so(tmp_path, capsys):
    empty = tmp_path / "empty.graph"
    empty.write_text("# nothing\n")
    for argv, name in (
        (("setcalc", "chain", "V(zz)"), "zz"),
        (("standard-form", "chain", "zz", "u"), "zz"),
        (("setcalc", str(empty), "V(u)"), "u"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: in path %r: unknown vertex or edge %r\n" % (name, name), argv


def test_closed_stdout_ends_quietly():
    # the reader closes the pipe before graphck writes anything
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphck.__file__)))
    for argv in (["corpus-run"], ["analyze", "chain", "--json"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "graphck.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1, (argv, err)
        assert "Traceback" not in err and "Error" not in err, (argv, err)


def test_a_bundle_past_the_instance_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text(
        "vertex u\nvertex v\nvertex w\nedge a : u -> v * omega\nedge b : u -> w * %d\n" % 10**12
    )
    want = "cap exceeded: bundle b has %d instances, more than %d\n" % (10**12, MAX_INSTANCES)
    for argv in (["ideals"], ["rep-verify", "--depth", "1"], ["limit-check"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out, err) == (2, "", want), argv
    # the census never lists instances
    code, data = run_json(capsys, "analyze", str(path))
    assert code == 0 and data["paths_into"] == {"u": 1, "v": "omega", "w": 10**12 + 1}
