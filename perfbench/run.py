"""Wall-clock benchmark of ``todx.PostOrderingIndex``.

    python3 perfbench/run.py --workload swap_lpo --seed 1 --seconds 10 --trace 0

Run from the repository root (the library is imported from ``src/``).
One closed-loop caller in one process, no threads: each operation is
issued after the previous one returned.  A pass builds fresh indexes
for one mode (the set-up), replays the workload's operation list,
timing every index call on its own, then checks every answer against
an instantiate-then-compare oracle and reads the index counters.  Passes
repeat for each of ``off``, ``on`` and ``shared`` until ``--seconds``
have elapsed.  Every pass replays the same operations on the same
fresh state, so each operation's time is its median over the passes,
and set-up time is the median over the set-ups.  Every call and every
set-up is timed at the reference speed of the machine, measured by a
fixed task just before it (see ``refspeed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self time
and calls per layer from wrappers installed around the library's
functions only for the traced passes, plus the tracing overhead.  These
are raw wall times.

The last line of standard output is one JSON object.  The exit code is
non-zero when any operation failed or answered differently from the
oracle, or when counters differ between passes of the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    if not (SRC / "todx" / "__init__.py").is_file():
        sys.exit(f"run.py: no todx sources under {SRC}")
    sys.path.insert(0, str(SRC))

import passes  # noqa: E402
import refcheck  # noqa: E402
import refspeed  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

MIN_PASSES = 3
# Passes per mode whose latencies are kept; a later pass overwrites the
# oldest.  The store is allocated whole, so the peak memory of a run
# does not depend on how many passes it made.
KEEP = 32

# Per-layer metrics: (name, source, kind).  Kinds: "us" self time of
# the source layer (see spans.LAYERS) per query; "us_call" the same per
# call of that layer; "calls" the layer's outermost spans in one pass;
# "count" an index counter (see passes.counts) after a pass; "call_ratio"
# calls of one layer over calls of another; "reuse" 1 - processed /
# traversed nodes; "overhead" traced over untraced timed seconds.
LAYER_METRICS = (
    ("index.front_us", "index.front", "us"),
    ("index.canonicalize_us", "index.canonicalize", "us"),
    ("index.insert_us", "index.insert", "us_call"),
    ("index.remove_us", "index.remove", "us_call"),
    ("terms.substitution_us", "terms.substitution", "us"),
    ("terms.linear_us", "terms.linear", "us"),
    ("terms.linear_calls", "terms.linear", "calls"),
    ("ordering.closure_us", "ordering.closure", "us"),
    ("ordering.closure_calls", "ordering.closure", "calls"),
    ("ordering.naive_steps", "naive_steps", "count"),
    ("ordering.plain_us", "ordering.plain", "us"),
    ("ordering.plain_calls", "ordering.plain", "calls"),
    ("forcing.extend_us", "forcing.extend", "us"),
    ("forcing.extend_calls", "forcing.extend", "calls"),
    ("forcing.label_us", "forcing.label", "us"),
    ("forcing.forced_ratio", ("tod.bypass", "forcing.label"), "call_ratio"),
    ("forcing.tpo_pool", "tpo_pool", "count"),
    ("tod.walk_us", "tod.walk", "us"),
    ("tod.evaluate_us", "tod.evaluate", "us"),
    ("tod.traversed", "traversed", "count"),
    ("tod.processed", "processed", "count"),
    ("tod.transform_us", "tod.transform", "us"),
    ("tod.replicate_us", "tod.replicate", "us"),
    ("tod.bypass_us", "tod.bypass", "us"),
    ("tod.created", "created", "count"),
    ("tod.reuse_ratio", None, "reuse"),
    ("tod.reachable_nodes", "reachable_nodes", "count"),
    ("trace.overhead", None, "overhead"),
)
UNITS = {"us": "us", "us_call": "us", "calls": "count", "count": "count",
         "call_ratio": "ratio", "reuse": "ratio", "overhead": "ratio"}
# ``off`` has no diagrams: it reports only these layers.  The naive
# comparison steps are counted only by ``off``.
OFF_LAYERS = ("index.", "terms.", "ordering.", "trace.")
# Layer groups whose share of traced time says which layer a workload
# loads (see BENCHMARK.json).
GROUPS = {
    "front": ("index.front", "index.canonicalize", "index.insert",
              "index.remove", "terms.substitution"),
    "evaluation": ("ordering.closure", "terms.linear", "tod.evaluate"),
    "specialization": ("forcing.extend", "forcing.label", "ordering.plain",
                       "tod.transform", "tod.replicate", "tod.bypass"),
}


def layer_metrics_of(mode: str) -> list:
    if mode == "off":
        return [m for m in LAYER_METRICS if m[0].startswith(OFF_LAYERS)]
    return [m for m in LAYER_METRICS if m[0] != "ordering.naive_steps"]


class ModeRecord:
    """What the passes of one mode measured."""

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.times = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.counts = None
        self.unstable = 0
        self.timed_s = 0.0

    def add(self, result, bad: int, counts: dict) -> None:
        n = self.n_ops
        if self.times is None:
            self.times = array("d", [math.inf]) * (n * KEEP)
        slot = self.passes % KEEP
        self.times[slot * n:(slot + 1) * n] = result.scaled
        self.passes += 1
        self.attempted += len(result.latencies)
        self.failed += result.failed
        self.mismatched += bad
        self.timed_s += result.timed_s
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.unstable += 1

    def medians(self) -> list:
        """Each operation's median scaled time over the kept passes."""
        n, kept = self.n_ops, min(self.passes, KEEP)
        return [statistics.median(self.times[k:kept * n:n]) for k in range(n)]


class Bench:
    """Runs passes of one workload and keeps their records."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.fingerprint = workloads.fingerprint(workload)
        self.expected = expected
        self.queries = [i for i, op in enumerate(workload.ops) if op[0] == "q"]
        self.setups: list = []
        self.ref = array("d")       # reference task samples of untraced passes
        n = len(workload.ops)
        self.untraced = {m: ModeRecord(n) for m in passes.MODES}
        self.traced = {m: ModeRecord(n) for m in passes.MODES}

    def run_pass(self, record: dict, tracer=None, layers=None) -> None:
        """One pass per mode; with ``tracer``, only the timed calls are
        traced and each mode's drained spans go into ``layers``."""
        setup = 0.0
        for mode in passes.MODES:
            prep = None         # the previous mode's indexes go before the collection
            gc.collect()
            speed = refspeed.REF_S / refspeed.sample()
            t0 = time.perf_counter()
            prep = passes.prepare(self.workload, mode)
            setup += (time.perf_counter() - t0) * speed
            if tracer is None:
                result = passes.timed_pass(prep)
            else:
                with tracer:
                    result = passes.timed_pass(prep)
                layers[mode].append(tracer.drain())
            if record is self.untraced:
                self.ref.extend(result.ref)
            bad = passes.mismatches(result.answers, self.expected)
            record[mode].add(result, bad, passes.counts(prep))
        self.setups.append(setup)

    def records(self):
        return [*self.untraced.values(), *self.traced.values()]

    @property
    def failed(self) -> int:
        return sum(r.failed + r.mismatched for r in self.records())

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.records())

    @property
    def unstable(self) -> int:
        return sum(r.unstable for r in self.records())


def run_untraced(bench: Bench, seconds: float) -> dict:
    """Untraced passes for ``seconds``; the end-to-end metrics."""
    start = time.perf_counter()
    while (len(bench.setups) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        bench.run_pass(bench.untraced)
    metrics = {}
    for mode, rec in bench.untraced.items():
        med = rec.medians()
        done = [t for t in med if t != math.inf]
        cuts = statistics.quantiles(
            [med[i] for i in bench.queries if med[i] != math.inf],
            n=100, method="inclusive")
        metrics[f"query_us_p50.{mode}"] = (cuts[49] * 1e6, "us")
        metrics[f"query_us_p95.{mode}"] = (cuts[94] * 1e6, "us")
        metrics[f"ops_per_s.{mode}"] = (len(done) / math.fsum(done), "1/s")
    metrics["setup_s"] = (statistics.median(bench.setups), "s")
    metrics["mem_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def run_traced(bench: Bench, seconds: float):
    """Untraced and traced passes in turn for ``seconds``; the per-layer
    metrics and each layer group's share of traced time per mode."""
    modes = passes.MODES
    layers = {m: [] for m in modes}
    tracer = Tracer()
    start = time.perf_counter()
    while (len(bench.setups) < 2 * MIN_PASSES
           or time.perf_counter() - start < seconds):
        bench.run_pass(bench.untraced)
        bench.run_pass(bench.traced, tracer, layers)
    metrics = {}
    shares = {}
    for mode in modes:
        rec, plain = bench.traced[mode], bench.untraced[mode]
        if rec.counts != plain.counts:      # tracing must not change the work
            plain.unstable += 1
        self_s = {k: sum(p[k][0] for p in layers[mode]) for k in LAYERS}
        calls = {k: n for k, (_, n) in layers[mode][0].items()}
        counts = rec.counts
        for name, src, kind in layer_metrics_of(mode):
            if kind == "us":
                v = self_s[src] / (len(bench.queries) * rec.passes) * 1e6
            elif kind == "us_call":
                n = calls[src] * rec.passes
                v = self_s[src] / n * 1e6 if n else 0.0
            elif kind == "calls":
                v = calls[src]
            elif kind == "count":
                v = counts[src]
            elif kind == "call_ratio":
                v = calls[src[0]] / calls[src[1]] if calls[src[1]] else 0.0
            elif kind == "reuse":
                v = (1 - counts["processed"] / counts["traversed"]
                     if counts["traversed"] else 0.0)
            else:
                v = rec.timed_s / plain.timed_s
            metrics[f"{name}.{mode}"] = (v, UNITS[kind])
        shares[mode] = {g: sum(self_s[k] for k in ks) / rec.timed_s
                        for g, ks in GROUPS.items()}
        shares[mode]["layers"] = {k: t / rec.timed_s for k, t in self_s.items()}
    return metrics, shares


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("swap_lpo", "poly_kbo", "churn_kbo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def samples(bench: Bench, name: str) -> str:
    """What an end-to-end figure was taken from."""
    rec = bench.untraced.get(name.rpartition(".")[2])
    kept = f"median of {min(rec.passes, KEEP)} passes each" if rec else ""
    if name.startswith("query_us"):
        return f"{len(bench.queries)} queries, {kept}"
    if name.startswith("ops_per_s"):
        return f"{len(bench.workload.ops)} operations, {kept}"
    if name == "setup_s":
        return f"median of {len(bench.setups)} set-ups of all modes"
    return ""


def report(bench: Bench, metrics: dict, shares=None) -> None:
    w = bench.workload
    print(f"workload {w.name} ({w.order}), {len(w.initial)} instance(s), "
          f"{len(w.ops)} operations per pass, {len(bench.setups)} passes, "
          f"inputs {bench.fingerprint[:16]}")
    for label, records in (("", bench.untraced), (" traced", bench.traced)):
        for mode, rec in records.items():
            if rec.passes:
                print(f"  {mode:6s}{label} {rec.passes} passes x "
                      f"{len(bench.queries)} queries, {rec.attempted} operations")
    print(f"  reference task: median {statistics.median(bench.ref) * 1e6:.2f} "
          f"us over {len(bench.ref)} samples of untraced passes; times below "
          f"are at the reference speed, {refspeed.REF_S * 1e6:g} us")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:5s} {samples(bench, name)}")
    for mode, s in (shares or {}).items():
        top = sorted(s["layers"].items(), key=lambda kv: -kv[1])
        print(f"  share of traced time, {mode}: "
              + ", ".join(f"{g} {s[g]:.1%}" for g in GROUPS))
        print("    " + ", ".join(f"{k} {v:.1%}" for k, v in top if v >= 0.005))
    for mode, rec in bench.untraced.items():
        print(f"  counts {mode}: {json.dumps(rec.counts, sort_keys=True)}")
    print(f"  {'error_rate':32s} {bench.failed / bench.attempted:14.6g} ratio "
          f"{bench.failed} of {bench.attempted} operations failed or answered "
          f"wrong; counter mismatches between passes: {bench.unstable}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.GENERATORS[args.workload](args.seed)
    bench = Bench(workload, refcheck.expected_answers(workload))
    if args.trace:
        metrics, shares = run_traced(bench, args.seconds)
    else:
        metrics, shares = run_untraced(bench, args.seconds), None
    report(bench, metrics, shares)
    ok = bench.failed == 0 and bench.unstable == 0
    print(json.dumps({
        "correct": ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
