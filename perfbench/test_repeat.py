#!/usr/bin/env python3
"""Exact-repeat test for the serve-path benchmark.

The counts below are taken over fixed windows of a seeded query stream,
served by one worker in arrival order, so they must come out identical on
two runs with the same seed. That is what lets a change cite them as
counts rather than timings. Runs every workload twice with a short timed
phase and a single server launch:

    python3 perfbench/test_repeat.py [--seed N]

Exits 0 when every count repeats, 1 otherwise.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = ("work_per_q", "sld.retrievals_per_miss", "sld.reductions_per_miss",
         "exec.cost", "learn.climbs", "cache.hit_ratio")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2.0)
    a = ap.parse_args()
    run.check_checkout()
    run.build()
    run.LAUNCHES = 1
    ok = True
    for w in run.WORKLOADS:
        first, second = (run.run(w, a.seed, a.seconds, True)[2]
                         for _ in range(2))
        for k in EXACT:
            same = first[k] == second[k]
            ok = ok and same
            print("%-11s %-24s %-14r %-14r %s" % (
                w, k, first[k], second[k], "ok" if same else "DIFFERS"))
    print("exact-repeat: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
