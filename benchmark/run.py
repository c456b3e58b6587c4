#!/usr/bin/env python3
"""hazybench: the paper's three operations end to end through the Hazy server.

    python3 benchmark/run.py [--workload a,b] [--seed S] [--seconds T]
                             [--trace [0|1]] [--runs N] [--smoke] [--out F]

Builds the load generator (benchmark/hazy_bench.cc) in Release into
benchmark/build/, runs each workload N times with the same seed, checks the
answers, and prints one row per (workload, metric) with the median, the
quartiles, the unit and the number of runs, then one JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Without --trace the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace they are its per-layer metrics. With several runs or workloads
each metric is the median over the runs, keyed "<workload>/<metric>" when
more than one workload ran. --out writes every run's full report, which
benchmark/compare.py reads. See benchmark/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

from compare import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "hazy_bench")
# One run must end within 180 s; set-up plus the timed phase take about 25.
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1


def fail(message):
    print("hazybench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once and rebuilds the generator; tool output goes to stderr
    so the last line of stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("the repository's sources are missing next to benchmark/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "hazy_bench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace, smoke):
    """One generator run in its own scratch directory; returns its report."""
    workdir = os.path.join(BUILD, "tmp", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--smoke", "1" if smoke else "0", "--workdir", workdir]
    # Its own session, so whatever the generator leaves behind — its server
    # child on a timeout or a failed run — can be killed as one group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            env=dict(os.environ, TMPDIR=workdir))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 2) or not lines:
        fail("%s run failed (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1])


def host_meta(args):
    def git(*cmd):
        try:
            return subprocess.run(["git", "-C", ROOT] + list(cmd), capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except OSError:
            return ""

    cpu = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "tree_dirty": bool(git("status", "--porcelain")),
            "cpu": cpu, "nproc": os.cpu_count(), "kernel": platform.release(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "runs": args.runs}


def print_table(results, spec, trace):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"]]
    if trace:
        names += [m["name"] for m in spec["per_layer"]]
    print("%-13s %-30s %14s %14s %14s  %-6s %s" % (
        "workload", "metric", "median", "q1", "q3", "unit", "n"))
    for workload, runs in results.items():
        for name in names:
            s = summarize(r["e2e" if name in r["e2e"] else "per_layer"][name] for r in runs)
            print("%-13s %-30s %14.6g %14.6g %14.6g  %-6s %d" % (
                workload, name, s["median"], s["q1"], s["q3"], units[name], s["n"]))
    for workload, runs in results.items():
        op = runs[0]["info"]["op"]
        print("%s: run 1 tail p99 %.1f us, p99.9 %.1f us over %d operations; "
              "answer_digest %s" % (workload, op["p99_us"], op["p999_us"], op["n"],
                                    runs[0]["answer_digest"]))
        for key, lat in sorted(runs[0]["info"].items()):
            if isinstance(lat, dict) and key != "op":
                print("  %-16s p50 %10.1f  p99 %10.1f  p99.9 %10.1f us  (n=%d)" % (
                    key, lat["p50_us"], lat["p99_us"], lat["p999_us"], lat["n"]))
        if not trace:
            continue
        for kind, spans in runs[0]["trace_table"].items():
            print("  traced %-8s" % kind + "  ".join(
                "%s %.2f/%.2f" % (span, v["p50_us"], v["p99_us"]) for span, v in spans.items())
                  + "  (p50/p99 us, n=%d)" % spans["statement"]["n"])
        rec = runs[0]["reconciliation"]
        print("  reconciliation: layer spans sum to %.2f us per traced operation, whose "
              "root span averages %.2f us; traced p50 %.2f us against untraced p50 "
              "%.2f us" % (rec["layers_us"], rec["traced_op_us"], rec["traced_p50_us"],
                           rec["untraced_p50_us"]))


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", "--workloads", default=",".join(workloads),
                        help="comma-separated subset of: " + ", ".join(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="corpora and warm-up divided by 20, %d s timed phase" % SMOKE_SECONDS)
    parser.add_argument("--out", help="write every run's report to this JSON file")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    chosen = args.workload.split(",")
    unknown = [w for w in chosen if w not in workloads]
    if unknown or args.runs < 1 or args.seconds <= 0:
        fail("bad arguments: unknown workloads %s or non-positive --runs/--seconds" % unknown)

    build()
    results = {w: [run_once(w, args.seed, args.seconds, args.trace, args.smoke)
                   for _ in range(args.runs)] for w in chosen}

    print_table(results, spec, args.trace)
    if args.out:
        doc = {"meta": host_meta(args), "workloads": {
            w: {"answer_digest": sorted({r["answer_digest"] for r in runs}), "runs": runs}
            for w, runs in results.items()}}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    metric_set = spec["per_layer"] if args.trace else spec["end_to_end"]
    section = "per_layer" if args.trace else "e2e"
    metrics = {}
    for w, runs in results.items():
        for m in metric_set:
            key = m["name"] if len(results) == 1 else "%s/%s" % (w, m["name"])
            value = summarize(r[section][m["name"]] for r in runs)["median"]
            metrics[key] = {"value": value, "unit": m["unit"]}
    all_runs = [r for runs in results.values() for r in runs]
    correct = all(r["correct"] for r in all_runs)
    for r in all_runs:
        for e in r["errors"]:
            print("hazybench: %s: wrong answer: %s" % (r["workload"], e), file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in all_runs),
                      "failed": sum(r["failed"] for r in all_runs),
                      "metrics": metrics}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
