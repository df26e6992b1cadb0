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
        pool = list(g.delta1(p.terminus).iter_instances(2))
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
    return cases + _setcalc_cases(random.Random(6006))


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
