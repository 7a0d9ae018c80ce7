#!/usr/bin/env python3
"""Serve-path benchmark for strategem.

Builds the server and perfbench.exe from source, starts the real
`strategem serve` as its own process with fixed flags, drives it from
perfbench.exe's load generator over one protocol-v4 connection, checks
every answer, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload hot-mem --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 additionally replays
the stream in-process (perfbench.exe replay) and prints the per-layer
metrics instead. README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVER = os.path.join(ROOT, "_build", "default", "bin", "strategem.exe")
DRIVER = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")

SERVER_FLAGS = ["--workers", "1", "--loops", "1"]
# Buffer-pool frames for cold-paged: well below the store's page count,
# so timed reads fault pages in through clock eviction.
BUFFER_PAGES = 64
# Server launches per run; setup_s is their median. Only the middle one
# serves the load.
LAUNCHES = 7

WORKLOADS = ("hot-mem", "cold-mem", "cold-paged")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def check_checkout():
    for p in ("BENCHMARK.json", "dune-project",
              os.path.join("bin", "strategem.ml"),
              os.path.join("lib", "serve", "server.ml")):
        if not os.path.exists(os.path.join(ROOT, p)):
            raise BenchError("not a strategem checkout: %s is missing under %s"
                             % (p, ROOT))


def metric_units():
    """Metric names and units, end to end and per layer, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[k]}
                 for k in ("end_to_end", "per_layer"))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/strategem.exe",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise BenchError("build failed")


def run_json(args, timeout):
    r = subprocess.run(args, stdout=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("%s %s exited with %d"
                         % (os.path.basename(args[0]), args[1], r.returncode))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


class Server:
    """One `strategem serve` process; start() returns once it listens."""

    def __init__(self, program, work, data_dir):
        self.args = [SERVER, "serve", program, "--port", "0"] + SERVER_FLAGS
        if data_dir:
            self.args += ["--data-dir", data_dir,
                          "--buffer-pages", str(BUFFER_PAGES)]
        self.work = work
        self.proc = None

    def start(self):
        err = open(os.path.join(self.work, "server.err"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.args, cwd=self.work,
                                     stdout=subprocess.PIPE, stderr=err)
        err.close()
        deadline = t0 + 120
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"listening on" not in buf:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(left, 0))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise BenchError("server did not start: %s" % buf.decode())
            buf += chunk
        setup = time.perf_counter() - t0
        self.port = int(re.search(rb"listening on [^:]*:(\d+)", buf).group(1))
        return setup

    def stop(self):
        p, self.proc = self.proc, None
        if p is None:
            return
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        p.stdout.close()


def delta(after, before, *path):
    a, b = after, before
    for k in path:
        a, b = a[k], b[k]
    return a - b


def ratio(num, den):
    return num / den if den else 0.0


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result, context, all metric values)."""
    work = os.path.join(ROOT, ".perfbench_work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    server = None
    try:
        inputs = run_json([DRIVER, "gen", "--seed", str(seed), "--workload",
                           workload, "--dir", work], timeout=120)
        program = os.path.join(work, "program.dl")
        queries = os.path.join(work, "queries.txt")
        paged = workload == "cold-paged"
        store = os.path.join(work, "store") if paged else None

        # The middle launch serves the load, so the set-up times come from
        # both ends of the run: the host's speed drifts over tens of seconds.
        setups = []
        for i in range(LAUNCHES):
            if store:
                shutil.rmtree(store, ignore_errors=True)
            server = Server(program, work, store)
            setups.append(server.start())
            if i == LAUNCHES // 2:
                load = run_json([DRIVER, "load", "--port", str(server.port),
                                 "--pid", str(server.proc.pid),
                                 "--queries", queries,
                                 "--seconds", str(seconds)],
                                timeout=seconds + 120)
            server.stop()
        replay = None
        if trace:
            args = [DRIVER, "replay", "--program", program, "--queries",
                    queries]
            if store:
                args += ["--data-dir", os.path.join(work, "replay-store"),
                         "--buffer-pages", str(BUFFER_PAGES)]
            replay = run_json(args, timeout=150)
    finally:
        if server:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's scratch directory is still there

    warm, timed = load["warmup"], load["timed"]
    sb, sa = load["stats_before"], load["stats_after"]
    n = timed["attempted"]
    attempted = warm["attempted"] + n
    failed = warm["failed"] + timed["failed"]
    clk = os.sysconf("SC_CLK_TCK")
    # Timings come from the slices the host did not steal from (perfbench.ml,
    # max_steal_share), pooled: every sample of those slices counts.
    kept = timed["kept"]
    m = {
        "setup_s": statistics.median(setups),
        "throughput_qps": kept["n"] / kept["s"],
        "p50_ms": kept["p50_ms"],
        "p99_ms": kept["p99_ms"],
        "cpu_us_per_q": kept["ticks"] / clk * 1e6 / kept["n"],
        "peak_rss_mb": load["vm_hwm_kb"] / 1024.0,
        "work_per_q": ratio(load["count_window"]["work"],
                            load["count_window"]["queries"]),
    }

    hits = delta(sa, sb, "cache", "hits")
    misses = delta(sa, sb, "cache", "misses")
    qw_n = delta(sa, sb, "queue_wait", "count")
    qw_sum = (sa["queue_wait"]["count"] * sa["queue_wait"]["mean_us"]
              - sb["queue_wait"]["count"] * sb["queue_wait"]["mean_us"])
    memo_h = delta(sa, sb, "cache", "memo", "hits")
    memo_m = delta(sa, sb, "cache", "memo", "misses")
    m.update({
        "serve.queue_wait_us": ratio(qw_sum, qw_n),
        "serve.busy": sa["busy_total"],
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.evictions": delta(sa, sb, "cache", "evictions"),
        "cache.subsume_scan_per_miss": ratio(
            delta(sa, sb, "cache", "subsume", "derived_scan_entries"), misses),
        "memo.hit_ratio": ratio(memo_h, memo_h + memo_m),
        "store.page_writes": 0,
        "store.pool_hit_ratio": 0.0,
        "store.page_reads_per_q": 0.0,
    })
    if "store" in sa:
        ph = delta(sa, sb, "store", "pool_hits")
        pm = delta(sa, sb, "store", "pool_misses")
        m.update({
            "store.page_writes": sa["store"]["page_writes"],
            "store.pool_hit_ratio": ratio(ph, ph + pm),
            "store.page_reads_per_q": delta(sa, sb, "store", "page_reads") / n,
        })
    if replay:
        for k, v in replay["metrics"].items():
            m[k] = v

    # Self-checks: a run whose traffic drifted from the workload's
    # definition is invalid, whatever its numbers.
    problems = []
    if failed:
        problems.append("%d failed operation(s)" % failed)
    if sa["busy_total"]:
        problems.append("%d request(s) shed with BUSY" % sa["busy_total"])
    if workload == "hot-mem":
        if timed["hits"] < 0.99 * n or m["cache.hit_ratio"] < 0.99:
            problems.append("hot-mem exact-hit ratio below 0.99")
    else:
        if warm["hits"] or timed["hits"] or hits:
            problems.append("%s served an exact cache hit" % workload)
    if paged and not delta(sa, sb, "store", "pool_misses"):
        problems.append("cold-paged timed phase had no buffer-pool misses")

    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "ocaml": inputs["ocaml"],
        "server_flags": SERVER_FLAGS + (
            ["--data-dir", "<fresh>", "--buffer-pages", str(BUFFER_PAGES)]
            if paged else []),
        "launches": LAUNCHES,
        "people": inputs["people"],
        "facts": inputs["facts"],
        "distinct_queries": inputs["distinct_queries"],
        "oracle_checked_against_seminaive": inputs["oracle_checked"],
        "warmup_queries": warm["attempted"],
        "count_window": load["count_window"]["queries"],
        "window": load["window"],
        "latency_samples": kept["samples"],
        "timed_s": timed["wall_s"],
        "slices": timed["all"]["slices"],
        "slices_kept": kept["slices"],
        "slice_steal_share": timed["slice_steal"],
        # the same timings over every slice of the timed phase
        "all_slices": {
            "throughput_qps": timed["all"]["n"] / timed["all"]["s"],
            "p50_ms": timed["all"]["p50_ms"],
            "p99_ms": timed["all"]["p99_ms"],
            "cpu_us_per_q": timed["all"]["ticks"] / clk * 1e6
                            / timed["all"]["n"],
            "latency_samples": timed["all"]["samples"],
        },
        "stream_ran_out": timed["exhausted"],
        "setup_runs_s": setups,
        "store_pages": sa["store"]["pages"] if "store" in sa else None,
        "pool_pages": sa["store"]["pool_pages"] if "store" in sa else None,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    end_to_end, per_layer = metric_units()
    for k, unit in (per_layer if trace else end_to_end).items():
        result["metrics"][k] = {"value": m[k], "unit": unit}
    return result, context, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        check_checkout()
        build()
        result, context, _ = run(a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("error: %s" % e)
        sys.exit(2)
    for p in context["problems"]:
        log("INVALID RUN: " + p)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
