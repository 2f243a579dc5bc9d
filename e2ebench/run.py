#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: phase wall times, peak RSS and
committed share on three layer-isolating workloads, plus exact per-layer
counts and (traced) per-layer timings.

    python3 e2ebench/run.py --workload tm4-smallbank --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call builds e2ebench_rep from
../src into .bench_build/e2ebench. A run then starts one e2ebench_rep
process per repetition, sequentially and single-threaded, until the next
repetition would end past --seconds (at least four repetitions, or two
untraced + traced pairs with --trace 1), and reports the interquartile
mean of the repetitions. Before each repetition it times a host-speed
probe (`e2ebench_rep --reference`); every reported time is wall time
scaled by REF_NOMINAL_S over the run's typical probe, which takes the
shared host's drifting speed out of the figures. All repetitions of a run
use --seed, so their simulated outputs must be identical; that, a clean
ledger audit and at least one committed transaction are the correctness
check. A run that fails it prints the reason on stderr and exits 1
without a result.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
repetitions with traced ones (obs::Profiler + obs::MemTracker attached)
and reports the per-layer metrics, with trace.overhead_frac, the traced
total over the untraced total, next to them. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
NOTES.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
EXE = BUILD / "e2ebench_rep"

WORKLOADS = ("pbft16-donothing", "parity4-genesis", "tm4-smallbank")
MIN_REPS = 4
MIN_PAIRS = 2  # --trace 1: untraced + traced repetitions
REP_TIMEOUT_S = 120  # keeps a hung run under the 180 s a run may take
# Typical `e2ebench_rep --reference` time on the host the benchmark was
# defined on (4-vCPU VM); only sets the scale of normalised seconds.
REF_NOMINAL_S = 0.22

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("teardown_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("committed_frac", "ratio"),
]

# Exact counts, identical in every repetition of one seed.
COUNTS = [
    ("sim.events", "count"),
    ("sim.msgs", "count"),
    ("sim.msg_bytes", "bytes"),
    ("consensus.blocks", "count"),
    ("consensus.rounds_failed", "count"),
    ("chain.pool_peak", "count"),
    ("storage.node_writes", "count"),
    ("storage.node_reads", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.bytes_written", "bytes"),
    ("storage.state_bytes", "bytes"),
    ("vm.txs_executed", "count"),
    ("vm.txs_failed", "count"),
]
# The benchmark's own spans around public calls, untraced repetitions.
SPANS = [
    ("platform.build_s", "s"),
    ("workloads.setup_s", "s"),
    ("platform.destroy_s", "s"),
]
# Profiler and MemTracker readings, traced repetitions.
TRACED = [
    ("sim.self_s", "s"),
    ("sim.serialize_s", "s"),
    ("sim.serialize_allocs", "count"),
    ("consensus.self_s", "s"),
    ("platform.gossip_admit_s", "s"),
    ("storage.genesis_commit_s", "s"),
    ("storage.block_commit_s", "s"),
    ("util.hash_s", "s"),
    ("vm.execute_s", "s"),
    ("core.self_s", "s"),
    ("mem.storage_peak_mb", "MiB"),
    ("mem.cluster_peak_mb", "MiB"),
]
DERIVED = [
    ("mem.rss_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
]
PER_LAYER = COUNTS + SPANS + TRACED + DERIVED


class BenchError(Exception):
    pass


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "sim" / "simulation.h").is_file():
        raise BenchError("program sources not found under %s" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                   stdout=sys.stderr, check=True)


def run_child(cmd, what):
    """Runs one e2ebench_rep process; returns (stdout, rusage)."""
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    # The result is one short line, far below the pipe buffer, so polling
    # the exit first cannot block the child; wait4 keeps this child's own
    # rusage apart from every other process's.
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() - t0 > REP_TIMEOUT_S:
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9
            raise BenchError("%s: timed out" % what)
        time.sleep(0.01)
    p.returncode = os.waitstatus_to_exitcode(status)
    out = p.stdout.read()
    p.stdout.close()
    if p.returncode != 0:
        raise BenchError("%s: e2ebench_rep exited %d" % (what, p.returncode))
    return out, ru


def reference():
    """Wall seconds of one host-speed probe, in a process of its own."""
    out, _ = run_child([str(EXE), "--reference"], "host reference")
    return json.loads(out)["host_ref_s"]


def rep(workload, seed, traced):
    """One repetition in its own process; returns its JSON result with
    the process's getrusage peak RSS (MiB) and total_s added."""
    cmd = [str(EXE), "--workload=" + workload, "--seed=%d" % seed]
    if traced:
        cmd.append("--trace")
    out, ru = run_child(cmd, "%s seed %d" % (workload, seed))
    result = json.loads(out)
    result["rss_mb"] = ru.ru_maxrss / 1024.0  # Linux reports KiB
    ph = result["phases"]
    ph["total_s"] = ph["setup_s"] + ph["run_s"] + ph["teardown_s"]
    return result


def measure(workload, seed, seconds, trace):
    """Repeats until the next repetition would end past `seconds`."""
    untraced, traced, refs = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        refs.append(reference())
        if trace and len(untraced) % 2:
            # Alternate which twin of a pair runs first, so neither gains
            # from its place in the order.
            traced.append(rep(workload, seed, True))
            untraced.append(rep(workload, seed, False))
        else:
            untraced.append(rep(workload, seed, False))
            if trace:
                traced.append(rep(workload, seed, True))
        last = time.monotonic() - t0
        enough = len(untraced) >= (MIN_PAIRS if trace else MIN_REPS)
        if enough and time.monotonic() - start + last > seconds:
            return untraced, traced, refs


def check(untraced, traced):
    """Every repetition of one seed must simulate the same thing, with or
    without observers attached."""
    ref = untraced[0]
    for r in untraced[1:] + traced:
        if r["digest"] != ref["digest"]:
            raise BenchError("simulated output differs between repetitions "
                             "of one seed: %s vs %s" % (r["digest"], ref["digest"]))
        if r["counts"] != ref["counts"]:
            raise BenchError("per-layer counts differ between repetitions "
                             "of one seed: %s vs %s" % (r["counts"], ref["counts"]))


def typical(values):
    """Mean of the middle half of the values (the interquartile mean).
    Like the median it ignores the slowest and fastest repetitions, but
    it stays steady when repetitions fall into two speed modes, as they
    do on a shared host, where the median jumps between the modes."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def phase(reps, key, section="phases"):
    return typical(r[section][key] for r in reps)


def end_to_end(untraced, scale):
    d = untraced[0]["digest"]
    values = {k: scale * phase(untraced, k)
              for k in ("setup_s", "run_s", "teardown_s", "total_s")}
    values["peak_rss_mb"] = typical(r["rss_mb"] for r in untraced)
    values["committed_frac"] = d["committed"] / d["submitted"]
    return values


def per_layer(untraced, traced, scale):
    values = dict(untraced[0]["counts"])
    for k, _ in SPANS:
        values[k] = scale * phase(untraced, k)
    for k, unit in TRACED:
        values[k] = (scale if unit == "s" else 1) * phase(traced, k, "layers")
    rss = typical(r["rss_mb"] for r in untraced)
    values["mem.rss_ratio"] = rss / values["mem.cluster_peak_mb"]
    # Pairwise: a traced repetition runs next to its untraced twin, so the
    # ratio of the two is free of the host's slower drift.
    values["trace.overhead_frac"] = typical(
        t["phases"]["total_s"] / u["phases"]["total_s"]
        for u, t in zip(untraced, traced)) - 1.0
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        untraced, traced, refs = measure(args.workload, args.seed,
                                         args.seconds, args.trace == 1)
        check(untraced, traced)
    except (BenchError, subprocess.CalledProcessError) as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 1

    reps = untraced + traced
    digest = untraced[0]["digest"]
    print("workload %s seed %d: %d untraced + %d traced repetitions"
          % (args.workload, args.seed, len(untraced), len(traced)))
    print("digest " + json.dumps(digest, sort_keys=True))
    print("counts " + json.dumps(untraced[0]["counts"], sort_keys=True))
    raw = {k: [r["phases"][k] for r in untraced]
           for k in ("setup_s", "run_s", "teardown_s", "total_s")}
    raw["host_ref_s"] = refs
    print("reps " + json.dumps(raw))
    host_ref_s = typical(refs)
    scale = REF_NOMINAL_S / host_ref_s
    print("host reference %.6f s over %d probes: seconds below are wall "
          "seconds x %.4f" % (host_ref_s, len(refs), scale))
    if args.trace:
        names, values = PER_LAYER, per_layer(untraced, traced, scale)
    else:
        names, values = END_TO_END, end_to_end(untraced, scale)
    metrics = {}
    for name, unit in names:
        print("  %-26s %16.6f %s" % (name, values[name], unit))
        metrics[name] = {"value": values[name], "unit": unit}
    attempted = sum(r["digest"]["submitted"] for r in reps)
    committed = sum(r["digest"]["committed"] for r in reps)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": attempted - committed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
