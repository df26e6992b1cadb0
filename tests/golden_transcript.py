"""Golden CLI transcript: stdout, stderr and exit code of a fixed list of
graphck invocations, recorded in tests/golden/transcript.json.

    PYTHONPATH=src python tests/golden_transcript.py

rewrites the transcript from the current code.  tests/test_golden.py
replays it through main() and fails on any byte that differs, so the
transcript may change only together with a note in CHANGES.md saying
which lines changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRANSCRIPT = os.path.join(HERE, "golden", "transcript.json")

EXPRS = ("%s", "%s - %s", "%s | %s", "%s & %s", "%s ^ %s", "%s - %s == %s", "(%s | %s) - %s")


def run(argv: list[str]) -> dict:
    """One invocation of main(), in process."""
    from graphck.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _cone(rng: random.Random, g, base: str) -> str:
    from helpers import random_walk_path

    p = random_walk_path(rng, g, max_len=3, start=base)
    if rng.random() < 0.3:
        # often names edges that do not leave the apex: a bad exclusion
        pool = [e for b in g.bundles for e in b.instances(2)]
    else:
        pool = list(g.out_instances(p.terminus, 2))
    cut = rng.sample(pool, rng.randint(0, min(3, len(pool)))) if pool else []
    if not cut:
        return "V(%s)" % p
    return "V(%s; %s)" % (p, ",".join(str(e) for e in cut))


def _setcalc_cases(rng: random.Random) -> list[list[str]]:
    from graphck import corpus

    cases = [["setcalc", "two", "V(e; f,e)", "--base", "u"]]
    for _ in range(160):
        name = rng.choice(corpus.GRAPH_NAMES)
        g = corpus.load(name)
        base = rng.choice(sorted(g.vertices))
        form = rng.choice(EXPRS)
        expr = form % tuple(_cone(rng, g, base) for _ in range(form.count("%s")))
        argv = ["setcalc", name, expr, "--base", base]
        if rng.random() < 0.25:
            argv.append("--json")
        cases.append(argv)
    return cases


def _mangle(rng: random.Random, text: str) -> str:
    """Delete, insert or duplicate a few characters: a malformed argument."""
    s = list(text)
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(s))
        op = rng.randrange(3)
        if op == 0 and s:
            del s[min(i, len(s) - 1)]
        elif op == 1:
            s.insert(i, rng.choice("~.#@;a0"))
        else:
            j = rng.randint(0, len(s))
            s[i:i] = s[min(i, j) : max(i, j)][:6]
    return "".join(s)


def _arrow_cases(rng: random.Random) -> list[list[str]]:
    """standard-form and cocycle on seeded walks and points, a fifth of
    them with one argument mangled."""
    from graphck import corpus
    from helpers import arrow_into, random_point

    cases = []
    for name in corpus.GRAPH_NAMES:
        g = corpus.load(name)
        for _ in range(6):
            x = random_point(rng, g)
            walk, point = str(arrow_into(rng, g, x)), str(x)
            if rng.random() < 0.2:
                if rng.random() < 0.5:
                    walk = _mangle(rng, walk)
                else:
                    point = _mangle(rng, point)
            cmd = rng.choice(("standard-form", "standard-form", "cocycle"))
            fmt = ["--json"] if cmd == "standard-form" and rng.random() < 0.4 else []
            cases.append([cmd, name, walk, point, *fmt])
    return cases


def _af_block_cases() -> list[list[str]]:
    from graphck import corpus

    cases = []
    for name in corpus.GRAPH_NAMES:
        cases.append(["af-blocks", name, "--length", "0"])
        cases.append(["af-blocks", name, "--length", "2", "--omega-truncate", "2"])
        cases.append(["af-blocks", name, "--json"])
    return cases


def _setcalc_json_cases(rng: random.Random) -> list[list[str]]:
    """setcalc --json on every corpus graph, at every base vertex."""
    from graphck import corpus

    cases = []
    for name in corpus.GRAPH_NAMES:
        g = corpus.load(name)
        for base in sorted(g.vertices):
            form = rng.choice(EXPRS)
            expr = form % tuple(_cone(rng, g, base) for _ in range(form.count("%s")))
            cases.append(["setcalc", name, expr, "--base", base, "--json"])
    return cases


def _analyze_cases() -> list[list[str]]:
    """analyze in text and --json on every corpus graph, and one run past
    its cycle cap."""
    from graphck import corpus

    cases = []
    for name in corpus.GRAPH_NAMES:
        cases.append(["analyze", name])
        cases.append(["analyze", name, "--json"])
    cases.append(["analyze", "o2", "--cap", "1"])
    return cases


def _rep_verify_cases() -> list[list[str]]:
    """rep-verify in both modes on every corpus graph, untruncated (which
    a cyclic graph refuses) and at depth 2 with omega truncated to 2, then
    a few other depths and truncations and a bad marks list."""
    from graphck import corpus

    cases = []
    for name in corpus.GRAPH_NAMES:
        for mode in ("ck", "toeplitz"):
            cases.append(["rep-verify", name, "--mode", mode])
            cases.append(
                ["rep-verify", name, "--mode", mode, "--depth", "2", "--omega-truncate", "2"]
            )
    cases.append(["rep-verify", "t2", "--depth", "0"])
    cases.append(["rep-verify", "t2", "--mode", "toeplitz", "--depth", "1", "--json"])
    cases.append(["rep-verify", "t2", "--marks", "r,c0", "--json"])
    cases.append(["rep-verify", "o2", "--depth", "3", "--omega-truncate", "1", "--json"])
    cases.append(["rep-verify", "dd", "--mode", "toeplitz", "--omega-truncate", "1"])
    cases.append(["rep-verify", "oinf", "--depth", "1", "--omega-truncate", "4"])
    cases.append(["rep-verify", "t2", "--marks", "g00"])
    return cases


def invocations() -> list[list[str]]:
    from graphck import corpus

    cases = []
    for name in corpus.GRAPH_NAMES:
        for bound in ("0", "2"):
            for fmt in ([], ["--json"], ["--dot"]):
                cases.append(["ideals", name, "--omega-f-bound", bound, *fmt])
        for seed in ("0", "1"):
            for fmt in ([], ["--json"]):
                cases.append(["limit-check", name, "--seed", seed, *fmt])
    cases.append(["limit-check", "t2", "--length", "4", "--json"])
    cases.append(["limit-check", "chain", "--length", "-1"])
    cases.append(["limit-check", "chain", "--chains", "0"])
    cases += _setcalc_cases(random.Random(6006))
    # added later, after every earlier record, so those stay as they were
    cases += _arrow_cases(random.Random(7007))
    cases += _af_block_cases()
    cases += _setcalc_json_cases(random.Random(7008))
    cases += _analyze_cases() + _rep_verify_cases()
    cases += [["corpus-run"], ["corpus-run", "--json"]]
    # marks are checked in toeplitz mode too
    cases.append(["rep-verify", "t2", "--mode", "toeplitz", "--marks", "nope"])
    # a base that is not a vertex is bad usage, like a bad marks list
    cases.append(["setcalc", "chain", "V(u)", "--base", "zz"])
    return cases + [["setcalc", "two", "V(e) | V(v)", "--base", "nope", "--json"]]


def main() -> int:
    records = [run(argv) for argv in invocations()]
    os.makedirs(os.path.dirname(TRANSCRIPT), exist_ok=True)
    with open(TRANSCRIPT, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d invocations written to %s" % (len(records), TRANSCRIPT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
