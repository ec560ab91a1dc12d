#!/usr/bin/env python3
"""Entry point of the repository benchmark (see NOTES.md).

One run, as BENCHMARK.json names it:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the platform and the perfbench driver from source on first use
(Release, into .bench_build/perfbench under the repository root), runs one
workload for the given host-time budget and relays the driver's output; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. --trace 1 also writes the traced phase's spans as Chrome
trace-event JSON to .bench_build/traces/.

Every workload, both clocks, in one command:

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

prints the end-to-end metrics (with error_rate) of every workload and the
per-layer metrics of its traced run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["coloring-ic", "coloring-pf", "lrc-sync", "adaptive-mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; build chatter goes to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("platform sources missing (%s); run from a full checkout" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_driver(args):
    """Runs the driver, relaying its stdout; returns (exit code, last line)."""
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def driver_args(workload, seed, seconds, trace, extra):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"] + extra
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-out", os.path.join(TRACES, "%s-seed%d.json" % (workload, seed))]
    return args


def one_run(ns, extra):
    code, last = run_driver(driver_args(ns.workload, ns.seed, ns.seconds, ns.trace == 1, extra))
    if parse_result(last) is None:
        fail("driver printed no result (exit %d)" % code)
    return code


def all_runs(ns, extra):
    """Both runs of every workload; a summary of the end-to-end figures last."""
    summary = []
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            print("==== %s (%s)" % (workload, "traced" if trace else "untraced"), flush=True)
            code, last = run_driver(driver_args(workload, ns.seed, ns.seconds, trace, extra))
            result = parse_result(last)
            if result is None or code != 0:
                status = 1
            if result is not None and not trace:
                summary.append((workload, result))
    print("==== end-to-end summary (seed %d)" % ns.seed)
    print("%-13s %-15s %14s  %s" % ("workload", "metric", "value", "unit"))
    for workload, result in summary:
        metrics = result["metrics"]
        for name, m in metrics.items():
            if name.startswith("sim_op_") and workload.startswith("coloring"):
                # One closed-loop operation of a colouring workload is one
                # whole solve: p50 == p99 == sim_ms.
                name += " (=solve)"
            print("%-13s %-15s %14.6g  %s" % (workload, name, m["value"], m["unit"]))
        attempted, failed = result["attempted"], result["failed"]
        print("%-13s %-15s %14.6g  ratio (%d failed / %d attempted)" % (
            workload, "error_rate", failed / attempted if attempted else 0.0, failed, attempted))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="every workload, both runs")
    ap.add_argument("--tiny", action="store_true", help="self-test scale")
    ap.add_argument("--lrc-default-gc", action="store_true",
                    help="lrc-sync with the default epoch GC (known defect)")
    ns = ap.parse_args()
    if not ns.all and ns.workload is None:
        ap.error("--workload or --all is required")
    build()
    extra = (["--tiny"] if ns.tiny else []) + (["--lrc-default-gc"] if ns.lrc_default_gc else [])
    sys.exit(all_runs(ns, extra) if ns.all else one_run(ns, extra))


if __name__ == "__main__":
    main()
