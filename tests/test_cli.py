import json

import pytest

from graphck import corpus, invariants
from graphck.cli import main


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


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/g.graph")
    assert code == 1 and "cannot read" in err
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


def test_af_blocks_bad_truncation(capsys):
    code, out, err = run(capsys, "af-blocks", "chain", "--length", "-1")
    assert code == 1 and out == ""
    assert err == "error: length must be at least 0, got -1\n"
    code, out, err = run(capsys, "af-blocks", "oinf", "--omega-truncate", "0")
    assert code == 1 and out == ""
    assert err == "error: omega cap must be at least 1, got 0\n"
    code, out, _ = run(capsys, "af-blocks", "chain", "--length", "0")
    assert code == 0 and out.startswith("3 blocks at length <= 0\n")
