#!/usr/bin/env python3
"""The sigmaloc benchmark: times the kernel from outside, as a caller would.

Run from the root of a checkout:

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Workloads: lattice, cover, countable, cli (see BENCHMARK.json for why
each was chosen).  Load is a closed loop with one client and no
threads: the next query starts when the previous one has returned, and
the cli workload runs one child process at a time.

--trace 0 reports the end-to-end metrics.  The timed loop issues whole
passes over the seeded queries until --seconds are used up (and at
least 100 queries are done), so every run measures the same mix.
Timings are scaled for the host's speed (see REF_MS); the unscaled
figures are printed too.

--trace 1 reports the per-layer metrics instead: one traced input
generation, then every query once untraced and once traced, back to
back (in-process for cli); the spans go to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from inputs import Capped  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUPS = 5
MIN_QUERIES = 100
FRONTIER_LIMIT_S = 1.0
STARTUP_RUNS = 5
# Host speed correction.  The speed of a shared host drifts by a fifth
# or more over tens of seconds, which no length of run averages out.
# After each query (rung, set-up) the benchmark times REFERENCE, a
# fixed pure-Python loop that runs no sigmaloc code, and scales the
# query's time by REF_MS over the median of the nearest reference
# times: timings read as on a host where REFERENCE takes REF_MS.  A
# change to sigmaloc does not touch REFERENCE, so it moves the scaled
# times as much as the raw ones.
REF_MS = 2.5
REF_WINDOW = 3
MODULES = ("sigma_frame", "booleanization", "formal_cover", "semidecision",
           "enumeration", "generators", "cli")


class Workload:
    """Queries, the scaling ladder (first rung, last rung) and, for the
    cli, the in-process form of a query used by the traced run."""

    def __init__(self, build, rung, first, last, inprocess=None):
        self.build = build
        self.rung = rung
        self.first = first
        self.last = last
        self.inprocess = inprocess


# The lattice and cli ladders end where chain_lattice refuses a size,
# the cover ladder where frame_of_presentation refuses a base over its
# default max_base; the Cantor ladder has no kernel cap, so the
# benchmark stops it at depth 16.
WORKLOADS = {
    "lattice": Workload(workloads.build_lattice, workloads.rung_lattice,
                        2, None),
    "cover": Workload(workloads.build_cover, workloads.rung_cover, 2, None),
    "countable": Workload(workloads.build_countable,
                          workloads.rung_countable, 1, 16),
    # below ten elements a cli process is all interpreter start
    "cli": Workload(workloads.build_cli, workloads.rung_cli, 10, None,
                    inprocess=workloads.run_cli_inprocess),
}


def load_kernel(workdir):
    """Import sigmaloc afresh from the checkout's src/ and bind its
    modules by name; the import is part of the measured set-up."""
    for name in [m for m in sys.modules
                 if m == "sigmaloc" or m.startswith("sigmaloc.")]:
        del sys.modules[name]
    k = types.SimpleNamespace(root=ROOT, workdir=workdir)
    importlib.import_module("sigmaloc")
    for name in MODULES:
        setattr(k, name, importlib.import_module("sigmaloc." + name))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    k.child_env = env
    return k


def setup(workload, seed, workdir):
    """Import plus input generation; returns (kernel, queries, seconds)."""
    t0 = perf_counter()
    k = load_kernel(workdir)
    queries = workload.build(k, seed, workdir)
    return k, queries, perf_counter() - t0


def reference():
    """The fixed reference loop: dict, tuple and frozenset churn."""
    table = {}
    acc = 0
    for i in range(4000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += len(frozenset((i % 5, i % 11, i % 13)))
    return acc + len(table)


def reference_s():
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def scaled(times, refs):
    """Each time scaled to the reference host, using the median of the
    reference times within REF_WINDOW places of it."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        out.append(t * REF_MS / 1000 / statistics.median(near))
    return out


def run_query(k, query, run=None):
    """(latency seconds, raised, wrong verdicts) for one query."""
    run = run or query.run
    t0 = perf_counter()
    try:
        out = run(k, query.inp)
    except Exception as err:  # a raised query is counted, not fatal
        elapsed = perf_counter() - t0
        print("error in %s: %s: %s" % (query.label, type(err).__name__, err),
              file=sys.stderr)
        return elapsed, True, 0
    elapsed = perf_counter() - t0
    return elapsed, False, count_wrong(query.label, query.verify(out,
                                                                 query.inp))


def count_wrong(label, checks):
    wrong = 0
    for what, got, expected in checks:
        if got != expected:
            wrong += 1
            print("wrong verdict in %s: %s: got %.200r, expected %.200r"
                  % (label, what, got, expected), file=sys.stderr)
    return wrong


def tally(samples):
    """(queries that raised, wrong verdicts) over run_query samples."""
    return (sum(1 for s in samples if s[1]), sum(s[2] for s in samples))


def run_pass(k, queries, run=None, refs=None):
    """run_query on each query; with ``refs``, the reference loop is
    timed after each one and its time appended there."""
    samples = []
    for query in queries:
        samples.append(run_query(k, query, run))
        if refs is not None:
            refs.append(reference_s())
    return samples


def timed_loop(k, queries, seconds):
    """Whole passes until the time is used up; returns (samples, reference
    times, wall s, passes).  A pass is started while more than half of
    it still fits."""
    samples = []
    refs = []
    passes = 0
    t0 = perf_counter()
    while True:
        samples += run_pass(k, queries, refs=refs)
        passes += 1
        elapsed = perf_counter() - t0
        if (elapsed + elapsed / passes / 2 >= seconds
                and len(samples) >= MIN_QUERIES):
            return samples, refs, elapsed, passes


def timed_rung(k, workload, size):
    """One rung's scaled time and verdicts."""
    refs = [reference_s() for _ in range(REF_WINDOW)]
    elapsed, checks = workload.rung(k, size)
    refs += [reference_s() for _ in range(REF_WINDOW)]
    return scaled([elapsed], refs)[0], checks


def frontier(k, workload):
    """ROADMAP's scaling frontier, made continuous.

    Rungs grow by one until the first one over the limit; the value is
    the last size under it plus log(limit / t_under) / log(t_over /
    t_under).  Returns (value, capped, wrong verdicts).
    """
    size = workload.first
    under = None
    over = None
    wrong = 0
    while workload.last is None or size <= workload.last:
        try:
            elapsed, checks = timed_rung(k, workload, size)
            # rungs near the limit set the value: time them twice
            if elapsed > FRONTIER_LIMIT_S / 4:
                again, checks_again = timed_rung(k, workload, size)
                elapsed = (elapsed + again) / 2
                checks += checks_again
        except Capped:
            break
        wrong += count_wrong("frontier rung %d" % size, checks)
        if elapsed <= FRONTIER_LIMIT_S:
            under = (size, elapsed)
            if over is not None:
                break
            size += 1
        else:
            over = (size, elapsed)
            if under is not None or size <= 2:
                break
            size -= 1
    if over is None:
        return float(under[0]), True, wrong
    if under is None:
        return over[0] - 1 + FRONTIER_LIMIT_S / over[1], False, wrong
    (s_under, t_under), (_s_over, t_over) = under, over
    step = math.log(FRONTIER_LIMIT_S / t_under) / math.log(t_over / t_under)
    return s_under + min(1.0, max(0.0, step)), False, wrong


def startup_ms(k, workdir):
    """Median wall time of a cli process on an empty document."""
    path = os.path.join(workdir, "empty.cov")
    with open(path, "w"):
        pass
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "sigmaloc.cli", "--input",
                        path], cwd=ROOT, env=k.child_env,
                       capture_output=True, timeout=170, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, workload, seed, seconds, workdir):
    setups = []
    setup_refs = []
    for _ in range(SETUPS):
        k, queries, took = setup(workload, seed, workdir)
        setups.append(took)
        setup_refs.append(reference_s())
    samples, refs, elapsed, passes = timed_loop(k, queries, seconds)
    value, capped, ladder_wrong = frontier(k, workload)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    raw = [s[0] for s in samples]
    latencies = sorted(t * 1000 for t in scaled(raw, refs))
    errors, wrong = tally(samples)
    wrong += ladder_wrong
    metrics = {
        "queries_per_s": metric(1000 * len(latencies) / sum(latencies),
                                "1/s"),
        "query_ms_p50": metric(statistics.median(latencies), "ms"),
        "query_ms_p90": metric(statistics.quantiles(latencies, n=10)[8],
                               "ms"),
        "frontier_n": metric(value, "n"),
        "setup_s": metric(statistics.median(scaled(setups, setup_refs)),
                          "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    raw_ms = sorted(t * 1000 for t in raw)
    print("workload %s, seed %d: %d queries in %d passes of %d, %.2f s"
          % (name, seed, len(samples), passes, len(queries), elapsed))
    print("  unscaled: %.4f queries/s of query time, p50 %.4f ms, "
          "p90 %.4f ms; reference loop median %.4f ms"
          % (1000 * len(raw_ms) / sum(raw_ms), statistics.median(raw_ms),
             statistics.quantiles(raw_ms, n=10)[8],
             statistics.median(refs) * 1000))
    for key, m in metrics.items():
        print("  %-16s %12.4f %s" % (key, m["value"], m["unit"]))
    print("  %-16s %12d count" % ("wrong_verdicts", wrong))
    print("  %-16s %12.4f fraction" % ("error_frac", errors / len(samples)))
    print("  %-16s %12d count (latency samples)" % ("samples", len(samples)))
    if capped:
        print("  frontier_n capped at %d: the next size is refused"
              % int(value))
    return {"correct": wrong == 0 and errors == 0,
            "attempted": len(samples), "failed": errors, "metrics": metrics}


# Per-layer metrics: <module>.<function>.calls and .self_ms for these,
# plus the ratios and counts computed at the layer boundaries.
TRACED_FUNCTIONS = (
    "booleanization.check_overt",
    "booleanization.enumerate_congruences",
    "booleanization.bool_congruence",
    "booleanization.quotient",
    "booleanization.is_congruence",
    "booleanization.is_sigma_overlap_algebra",
    "booleanization.is_overlap_cover",
    "booleanization.check_overt_cover",
    "sigma_frame.validate_lattice",
    "sigma_frame.lattice_from_leq_pairs",
    "sigma_frame.find_isomorphism",
    "formal_cover.saturate",
    "formal_cover.frame_of_presentation",
    "formal_cover.envelope_cover",
    "formal_cover.check_formal_cover_axioms",
    "formal_cover.check_compactness",
    "formal_cover.derive",
    "formal_cover.derive_with_trace",
    "semidecision.probe",
    "enumeration.union_countable",
    "enumeration.intersect_binary",
    "enumeration.ext_equal_finite",
    "enumeration.to_detachable",
    "enumeration.from_detachable",
    "enumeration.member_semidecide",
    "sigma_frame.free_meet",
    "sigma_frame.free_lattice",
    "sigma_frame.extend_to_free",
    "cli.parse",
    "cli.pretty_print",
    "cli.build_lattice",
    "cli.build_cover",
    "cli.run_document",
    "generators.chain_lattice",
    "generators.boolean_lattice",
    "generators.discrete_cover",
)


def per_layer(name, workload, seed, workdir):
    k, queries, _took = setup(workload, seed, workdir)
    run = workload.inprocess
    tracer = Tracer()
    t0 = perf_counter()
    tracer.install()
    try:
        workload.build(k, seed, workdir)
    finally:
        tracer.uninstall()
    wall_s = perf_counter() - t0
    # Each query runs untraced and traced back to back, in alternating
    # order, so that the host's drift cancels out of the overhead.
    untraced = []
    traced = []
    for i, query in enumerate(queries):
        if i % 2:
            untraced.append(run_query(k, query, run))
        tracer.query = i
        tracer.install()
        try:
            traced.append(run_query(k, query, run))
        finally:
            tracer.uninstall()
        wall_s += traced[-1][0]
        if not i % 2:
            untraced.append(run_query(k, query, run))
    untraced_s = sum(s[0] for s in untraced)
    traced_s = sum(s[0] for s in traced)
    calls, own = tracer.self_times()
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[fn + ".calls"] = metric(calls.get(fn, 0), "count")
        metrics[fn + ".self_ms"] = metric(own.get(fn, 0.0) * 1000, "ms")
    counts = tracer.counts
    metrics["booleanization.check_overt.subsets"] = metric(
        counts.get("booleanization.check_overt.subsets", 0), "count")
    metrics["booleanization.enumerate_congruences.kept_frac"] = metric(
        tracer.ratio("enumerate_congruences.found",
                     "enumerate_congruences.partitions"), "fraction")
    metrics["formal_cover.saturate.distinct_frac"] = metric(
        tracer.ratio("saturate.distinct", "saturate.calls"), "fraction")
    metrics["formal_cover.frame_of_presentation.closed_frac"] = metric(
        tracer.ratio("frame_of_presentation.closed",
                     "frame_of_presentation.swept"), "fraction")
    metrics["semidecision.probe.unknown_frac"] = metric(
        tracer.ratio("probe.unknown", "probe.calls"), "fraction")
    metrics["semidecision.probe.stages"] = metric(
        counts.get("semidecision.probe.stages", 0), "count")
    metrics["cli.startup_ms"] = metric(
        startup_ms(k, workdir) if name == "cli" else 0.0, "ms")
    metrics["trace.overhead_frac"] = metric(1 - untraced_s / traced_s,
                                            "fraction")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s-seed%d.txt.gz" % (name, seed))
    tracer.write(spans_path)
    total_self = sum(own.values())
    print("workload %s, seed %d, traced: %d queries, untraced %.2f s, "
          "traced %.2f s, %d spans in %s"
          % (name, seed, len(queries), untraced_s, traced_s,
             len(tracer.spans) // 5, os.path.relpath(spans_path, ROOT)))
    print("  self time of all spans %.3f s within traced wall time %.3f s"
          % (total_self, wall_s))
    for key, m in metrics.items():
        if m["value"]:
            print("  %-56s %14.4f %s" % (key, m["value"], m["unit"]))
    samples = untraced + traced
    errors, wrong = tally(samples)
    return {"correct": wrong == 0 and errors == 0,
            "attempted": len(samples), "failed": errors, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sigmaloc", "__init__.py")):
        print("no sigmaloc sources under %s: run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]
        if args.trace:
            result = per_layer(args.workload, workload, args.seed, workdir)
        else:
            result = end_to_end(args.workload, workload, args.seed,
                                args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
