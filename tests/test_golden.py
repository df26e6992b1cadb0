"""The golden CLI transcript replays byte for byte, in process and under
two hash seeds (see golden_transcript.py for how it is written)."""

import json
import os
import subprocess
import sys

import graphck
from golden_transcript import HERE, TRANSCRIPT, run

_REPLAY = """
import json, sys
from golden_transcript import run
print(json.dumps([run(argv) for argv in json.load(sys.stdin)]))
"""


def _records():
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        return json.load(fh)


def test_transcript_replays_in_process():
    records = _records()
    assert len(records) > 250
    for want in records:
        assert run(want["argv"]) == want, want["argv"]


def _replay_under_hash_seed(seed: str, argvs) -> list:
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphck.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, HERE, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY],
        input=json.dumps(argvs),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_sample_replays_under_two_hash_seeds():
    # every failing set expression, whose message names one bad excluded
    # edge, plus every fifth other invocation
    records = _records()
    sample = [r for i, r in enumerate(records) if r["exit"] == 3 or i % 5 == 0]
    first = [r for r in records if r["argv"][:3] == ["setcalc", "two", "V(e; f,e)"]]
    assert first[0]["stderr"] == (
        "check failed: bad basic set V(e; e,f): edge e does not leave the end of e\n"
    )
    argvs = [r["argv"] for r in sample]
    for seed in ("0", "1"):
        assert _replay_under_hash_seed(seed, argvs) == sample, seed
