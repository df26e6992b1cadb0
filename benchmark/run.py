"""graphck benchmark: seeded query workloads with checked answers.

    python3 benchmark/run.py --workload census --seed 1 --seconds 24 --trace 0

Run from the repository root.  One closed-loop client in one process
issues a workload's queries one after another, with no threads, in
whole passes over a fixed query list made from the seed, until the
given seconds have gone by (at least MIN_PASSES passes), and checks
every answer against a reference computed without graphck.  A query's
time is the median over the passes of its time scaled by the machine's
speed at that moment (see SpeedProbe).  It prints each metric by name
with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` it runs one
pass untraced and the same pass again with a span around every call
into graphck, reports per-module metrics of that pass and writes the
spans to ``.bench_out/spans-<workload>.jsonl``.  Without
``--workload`` every workload runs, each in a fresh process.  The exit
status is nonzero when any answer is wrong or the program is missing.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import boundary  # noqa: E402
import census  # noqa: E402
import lattice  # noqa: E402
import reference  # noqa: E402
import represent  # noqa: E402
from gen import layered_dag  # noqa: E402
from spans import Tracer, Untraced  # noqa: E402

WORKLOADS = {"census": census, "lattice": lattice, "boundary": boundary, "represent": represent}
SETUP_REPEATS = 5
MIN_PASSES = 3
PERCENTILE_BAND = 0.05

# On a shared machine the speed drifts, by 15-30% over tens of seconds on
# a 2-vCPU VM.  SpeedProbe times a fixed piece of work between
# queries, and every time is scaled to the speed at which that work takes
# REFERENCE_S: a time that reads 10 ms took 10 ms on a machine doing the
# probe's work in REFERENCE_S.  Unscaled figures are printed beside the
# scaled ones.
REFERENCE_S = 0.0015
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 15

END_TO_END = (
    ("throughput_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# span name -> which of self_s / calls / errors to report
SPAN_METRICS = {
    "structure.structure_report": ("self_s", "calls", "errors"),
    "structure.count_paths_into": ("self_s", "calls", "errors"),
    "invariants.enumerate_invariants": ("self_s", "calls"),
    "invariants.hasse_edges": ("self_s",),
    "invariants.quotient_data": ("self_s",),
    "invariants.open_set_of": ("self_s",),
    "invariants.tree_invariant_of": ("self_s",),
    "invariants.family_open_set": ("self_s",),
    "setexpr.parse_setexpr": ("self_s", "calls"),
    "ringsets.ops": ("self_s", "calls"),
    "cover.standard_form": ("self_s", "calls"),
    "cover.compose_arrows": ("self_s", "calls"),
    "cover.degree": ("self_s", "calls"),
    "points.act": ("self_s", "calls"),
    "paths.compose": ("self_s", "calls"),
    "fock.build_basis": ("self_s",),
    "fock.verify_relations": ("self_s",),
    "fock.algebra_dimension": ("self_s",),
    "graphs.parse_graph": ("self_s", "calls"),
    "cli.main": ("self_s", "calls"),
}
COUNTERS = (
    "structure.cycles_listed",
    "invariants.families",
    "invariants.covers",
    "ringsets.blocks_out",
    "fock.dimension_sum",
    "fock.interior_columns",
    "fock.basis_paths",
)
UNITS = {"self_s": "s", "calls": "count", "errors": "count"}


def per_layer_names() -> list[tuple[str, str]]:
    out = [("%s.%s" % (span, f), UNITS[f]) for span, fs in SPAN_METRICS.items() for f in fs]
    out += [(c, "count") for c in COUNTERS]
    out += [
        ("invariants.enumerate_us_per_family", "us"),
        ("fock.verify_us_per_column", "us"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def import_graphck():
    """Import graphck afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "graphck" or m.startswith("graphck.")]:
        del sys.modules[name]
    gc = importlib.import_module("graphck")
    importlib.import_module("graphck.cli")
    if Path(gc.__file__).resolve().parent != SRC / "graphck":
        raise SystemExit("error: imported graphck from %s, not from %s" % (gc.__file__, SRC))
    return gc


def percentile(sorted_values: list[float], p: float) -> float:
    """The p-quantile, smoothed: the mean of the values ranked within
    PERCENTILE_BAND of it.

    A query mix of a few families leaves gaps in the latency
    distribution, and a plain order statistic jumps across a gap when
    two neighbouring queries trade places; the band mean moves smoothly.
    A failed query ranks as inf, so the result is inf once failures
    reach the band.
    """
    n = len(sorted_values)
    lo = min(n - 1, max(0, round((p - PERCENTILE_BAND) * n)))
    hi = max(lo + 1, min(n, round((p + PERCENTILE_BAND) * n)))
    return statistics.fmean(sorted_values[lo:hi])


class SpeedProbe:
    """Times a fixed piece of work now and then; gives the scale at a moment.

    The work is the benchmark's own reference analysis of one fixed
    120-vertex graph: the same kind of dict, set and list traffic as
    graphck's, in code no change to graphck touches.  A query's scale
    is REFERENCE_S over the median of the PROBE_WINDOW samples nearest
    its start.
    """

    def __init__(self):
        self.graph = reference.RefGraph(layered_dag(120, 0))
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if force or not self.at or t0 - self.at[-1] >= PROBE_EVERY_S:
            reference.flags(self.graph)
            reference.paths_into(self.graph)
            reference.cycles(self.graph)
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def scale_at(self, t: float) -> float:
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - PROBE_WINDOW // 2, len(self.at) - PROBE_WINDOW))
        return REFERENCE_S / statistics.median(self.took[lo : lo + PROBE_WINDOW])


class Loop:
    """The closed loop: whole passes over the query list, in list order."""

    def __init__(self, mod, gc, state, specs, refs):
        self.mod, self.gc, self.state, self.specs, self.refs = mod, gc, state, specs, refs
        self.mismatches: list[str] = []
        self.errors: Counter = Counter()
        self.done = 0
        self.probe = SpeedProbe()

    def measure(self, tr, seconds: float = 0.0, passes: int = 0):
        """Whole passes over the list: `passes` of them, or as many as
        start within `seconds` (at least MIN_PASSES).

        Whole passes keep the mix of a run the same however many fit in
        it.  Returns one list per pass of per-query (latency, busy time,
        start), the latency inf when the query raised.
        """
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < passes if passes else len(out) < MIN_PASSES or time.perf_counter() < deadline:
            out.append([self._one(tr, spec) for spec in self.specs])
        return out

    def _one(self, tr, spec):
        self.probe.sample()
        qid = self.done
        self.done += 1
        tr.begin_query(qid)
        t0 = time.perf_counter()
        try:
            answer = self.mod.run(self.gc, tr, spec, self.state)
        except Exception as exc:
            took = time.perf_counter() - t0
            tr.end_query(exc)
            self.errors[type(exc).__name__] += 1
            return math.inf, took, t0
        took = time.perf_counter() - t0
        tr.end_query()
        want = self.refs[spec]
        problem = self.mod.check(spec, answer, want)
        if problem:
            self.mismatches.append("query %d (%s): %s" % (qid, spec.label, problem))
        elif tr.enabled:
            self.mod.tally(tr, spec, answer, want)
        return took, took, t0

    def scaled(self, passes):
        """The passes with each time scaled by the machine's speed at its start."""
        self.probe.sample(force=True)
        out = []
        for p in passes:
            scales = [self.probe.scale_at(t0) for _, _, t0 in p]
            out.append([(lat * k, busy * k) for (lat, busy, _), k in zip(p, scales)])
        return out


def per_query_medians(passes) -> tuple[list[float], list[float]]:
    """Each query's median latency and busy time over the passes.

    A slow spell of the shared machine then moves a query's time only
    when it covers most of the run; a query that raised stays at inf.
    """
    latency = [statistics.median(lat for lat, _ in col) for col in zip(*passes)]
    busy = [statistics.median(b for _, b in col) for col in zip(*passes)]
    return latency, busy


def end_to_end(passes, correct: int, setup_s: float) -> dict:
    latency, busy = per_query_medians(passes)
    ordered = sorted(latency)
    return {
        "throughput_qps": correct / len(passes) / sum(busy),
        "latency_p50_ms": 1000 * percentile(ordered, 0.5),
        "latency_p90_ms": 1000 * percentile(ordered, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr: Tracer, overhead: float) -> dict:
    rows = tr.per_name()
    out = {}
    for span, fields in SPAN_METRICS.items():
        row = rows.get(span, {"self_s": 0.0, "calls": 0, "errors": 0})
        for f in fields:
            out["%s.%s" % (span, f)] = row[f]
    for c in COUNTERS:
        out[c] = tr.counters.get(c, 0)
    fams = out["invariants.families"]
    out["invariants.enumerate_us_per_family"] = (
        1e6 * out["invariants.enumerate_invariants.self_s"] / fams if fams else 0.0
    )
    cols = out["fock.interior_columns"]
    out["fock.verify_us_per_column"] = (
        1e6 * out["fock.verify_relations.self_s"] / cols if cols else 0.0
    )
    out["trace.overhead_ratio"] = overhead
    return out


def module_shares(tr: Tracer) -> list[tuple[str, float]]:
    by_module: Counter = Counter()
    for span, row in tr.per_name().items():
        by_module[span.split(".")[0]] += row["self_s"]
    total = sum(by_module.values()) or 1.0
    return [(m, t / total) for m, t in by_module.most_common()]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "graphck" / "__init__.py").is_file():
        print("error: no graphck sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mod = WORKLOADS[name]
    setups = []
    probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        for _ in range(PROBE_WINDOW):
            probe.sample(force=True)
        t0 = time.perf_counter()
        gc = import_graphck()
        specs = mod.generate(random.Random(seed))
        state = mod.prepare(gc, specs)
        setups.append(time.perf_counter() - t0)
        for _ in range(PROBE_WINDOW):
            probe.sample(force=True)
        setups[-1] *= probe.scale_at(t0)
    setup_s = statistics.median(setups)

    refs = {}
    for spec in specs:
        if spec not in refs:
            refs[spec] = mod.reference(spec)

    loop = Loop(mod, gc, state, specs, refs)
    if trace:
        # one pass untraced, then the same pass traced: per-module
        # numbers cover a fixed amount of work
        passes = loop.measure(Untraced(), passes=1)
        tr = Tracer()
        passes += loop.measure(tr, passes=1)
        untraced, traced = ([b for _, b in p] for p in loop.scaled(passes))
        metrics = per_layer(tr, sum(traced) / sum(untraced))
        tr.write(ROOT / ".bench_out" / ("spans-%s.jsonl" % name))
        units = dict(per_layer_names())
        shares = module_shares(tr)
    else:
        passes = loop.measure(Untraced(), seconds=seconds)
        units = dict(END_TO_END)
        shares = []

    attempted = sum(len(p) for p in passes)
    failed = sum(loop.errors.values())
    correct = attempted - failed - len(loop.mismatches)
    if not trace:
        metrics = end_to_end(loop.scaled(passes), correct, setup_s)
        unscaled = end_to_end([[(lat, b) for lat, b, _ in p] for p in passes], correct, setup_s)
    print("workload %s seed %d: %d passes of %d queries (%d distinct), %d failed, %d wrong"
          % (name, seed, len(passes), len(specs), len(refs), failed, len(loop.mismatches)))
    for line in loop.mismatches[:20]:
        print("MISMATCH " + line)
    for etype, n in sorted(loop.errors.items()):
        print("failed with %s: %d" % (etype, n))
    print("correct_ratio %.6f ratio" % (correct / attempted))
    print("failed_ratio %.6f ratio" % (failed / attempted))
    if not trace:
        print("latency percentiles over %d queries, each the median of its %d passes;"
              " p50 and p90 are the mean of ranks within %d%% of them (%d queries above the p90 band)"
              % (len(specs), len(passes), round(100 * PERCENTILE_BAND),
                 len(specs) - round((0.9 + PERCENTILE_BAND) * len(specs))))
        print("machine speed: probe median %.4g ms, reference %.4g ms"
              % (1000 * statistics.median(loop.probe.took), 1000 * REFERENCE_S))
        for key in ("throughput_qps", "latency_p50_ms", "latency_p90_ms"):
            print("unscaled %s %.6g %s" % (key, unscaled[key], units[key]))
    for m, share in shares:
        print("self time share %-12s %5.1f%%" % (m, 100 * share))
    for key, value in metrics.items():
        print("%s %s %s" % (key, "%.6g" % value, units[key]))
    result = {
        "correct": not loop.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not loop.mismatches else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
