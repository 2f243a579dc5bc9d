#!/usr/bin/env python3
"""Steadiness evidence for the end-to-end benchmark.

Take a set of runs (run.py --trace 0, one run per workload and seed, for
every workload and seeds 1-10, each run as long as BENCHMARK.json's
run_seconds):

    python3 e2ebench/steadiness.py take --order block --out set1.json

--order block runs every seed of one workload before the next workload;
--order interleave runs workload A, B, C for seed 1, then for seed 2, ...
Every set prints, per workload and end-to-end metric, the median of the
runs and their spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A second table
shows the same runs in wall seconds, before the host normalisation.

Compare two or more sets taken at different times:

    python3 e2ebench/steadiness.py compare set1.json set2.json

prints each set's spreads, the drift of every median against the first
set as a share of the first set's median, and checks that the digest and
the per-layer counts of every (workload, seed) are identical across sets.
Exit code 1 if they are not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own names and metric list)


SEEDS = range(1, 11)
# A set is evidence about the benchmark as defined, so it runs as long.
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    row = {"workload": workload, "seed": seed, "at": time.time()}
    for line in out:
        if line.startswith("digest "):
            row["digest"] = json.loads(line[len("digest "):])
        elif line.startswith("counts "):
            row["counts"] = json.loads(line[len("counts "):])
        elif line.startswith("reps "):
            row["reps"] = json.loads(line[len("reps "):])
    result = json.loads(out[-1])
    row["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return row


def take(args):
    if args.order == "block":
        plan = [(w, s) for w in run.WORKLOADS for s in SEEDS]
    else:
        plan = [(w, s) for s in SEEDS for w in run.WORKLOADS]
    rows = []
    for w, s in plan:
        rows.append(one_run(w, s))
        print("%s seed %d: %s" % (w, s, json.dumps(rows[-1]["metrics"])),
              file=sys.stderr, flush=True)
    doc = {"order": args.order, "seconds": SECONDS,
           "started": rows[0]["at"], "rows": rows}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    report([doc])
    return 0


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def raw_metrics(row):
    """The run's time metrics in wall seconds, before host normalisation."""
    out = {k: run.typical(v) for k, v in row["reps"].items()}
    out.update({k: v for k, v in row["metrics"].items() if k not in out})
    return out


def report(docs):
    print("Reported metrics (seconds normalised to the host reference):")
    table(docs, lambda r: r["metrics"])
    print("\nThe same runs in wall seconds, before normalisation:")
    table(docs, raw_metrics, [n for n, u in run.END_TO_END if u == "s"]
          + ["host_ref_s"])


def table(docs, metrics_of, names=None):
    names = names or [n for n, _ in run.END_TO_END]
    workloads = sorted({r["workload"] for r in docs[0]["rows"]})
    print("%-17s %-15s %s" % ("workload", "metric", "  ".join(
        "set%d median  spread   drift" % i for i in range(len(docs)))))
    for w in workloads:
        for name in names:
            if any(name not in metrics_of(r) for d in docs for r in d["rows"]):
                continue  # sets taken before the metric existed
            cols, base = [], None
            for d in docs:
                v = [metrics_of(r)[name] for r in d["rows"] if r["workload"] == w]
                m = statistics.median(v)
                base = m if base is None else base
                cols.append("%11.5g %7.3f %+7.3f" % (m, spread(v), m / base - 1))
            print("%-17s %-15s %s" % (w, name, "  ".join(cols)))


def compare(args):
    docs = [json.loads(Path(p).read_text()) for p in args.sets]
    for p, d in zip(args.sets, docs):
        print("%s: order %s, %d runs, started %s" % (
            p, d["order"], len(d["rows"]),
            time.strftime("%H:%M:%S", time.gmtime(d["started"]))))
    report(docs)
    ok = True
    ref = {(r["workload"], r["seed"]): r for r in docs[0]["rows"]}
    for d in docs[1:]:
        for r in d["rows"]:
            base = ref.get((r["workload"], r["seed"]))
            if base is None:
                continue
            for part in ("digest", "counts"):
                if r[part] != base[part]:
                    ok = False
                    print("MISMATCH %s %s seed %d" % (part, r["workload"], r["seed"]))
    print("digests and per-layer counts identical across sets: %s" % ok)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    t = sub.add_parser("take")
    t.add_argument("--order", choices=("block", "interleave"), default="block")
    t.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+")
    args = ap.parse_args()
    return take(args) if args.cmd == "take" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
