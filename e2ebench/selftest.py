#!/usr/bin/env python3
"""Self-test of the benchmark's determinism, for every workload:

  * two processes with one seed give an identical simulated-output digest
    and identical per-layer counts;
  * a traced process (profiler and memory tracker attached) simulates the
    same thing as an untraced one;
  * a second seed changes the request stream, so the ledger head differs.

Seeds 1 and 2 are used.

    python3 e2ebench/selftest.py

Builds like run.py does; exits 1 if any expectation fails.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main():
    try:
        run.build()
        failures = 0
        for w in run.WORKLOADS:
            a = run.rep(w, 1, False)
            b = run.rep(w, 1, False)
            t = run.rep(w, 1, True)
            c = run.rep(w, 2, False)
            checks = [
                ("same seed, same digest", a["digest"] == b["digest"]),
                ("same seed, same counts", a["counts"] == b["counts"]),
                ("traced, same digest", a["digest"] == t["digest"]),
                ("traced, same counts", a["counts"] == t["counts"]),
                ("other seed, other head", a["digest"]["head"] != c["digest"]["head"]),
            ]
            for what, ok in checks:
                print("%-17s %-24s %s" % (w, what, "ok" if ok else "FAILED"))
                failures += not ok
    except run.BenchError as e:
        print("selftest: %s" % e, file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
