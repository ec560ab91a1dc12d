#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny scale, both runs.

    python3 perfbench/selftest.py

Checks, per workload: the untraced run prints every end-to-end metric of
BENCHMARK.json with its unit; the traced run prints every per-layer metric
with its unit and writes a Chrome trace; outputs are correct, nothing failed
(error_rate 0), and the driver's determinism self-check held. It also pins a
known defect: lrc-sync under the default epoch GC reads stale lock-protected
data. While the defect is present that probe must fail; once it passes, the
self-test fails so that lrc-sync is switched back to the default GC.
Exits 0 when everything holds.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["coloring-ic", "coloring-pf", "lrc-sync", "adaptive-mix"]
# Spans the traced run must contain, per workload family.
SPANS = {
    "coloring": {"pm2.Runtime", "dsm.Dsm", "hyperion.Runtime", "pm2.Runtime::run",
                 "apps.run_map_coloring", "dsm.get"},
    "sync": {"pm2.Runtime", "dsm.Dsm", "dsm.dsm_malloc", "pm2.Runtime::run",
             "driver.section", "dsm.lock_acquire", "dsm.lock_release", "dsm.read",
             "dsm.write", "dsm.barrier_wait", "marcel.compute"},
}


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result, expected, where, problems):
    got = result["metrics"]
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("%s: metric %s missing" % (where, m["name"]))
        elif entry.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r, expected %r" % (where, m["name"],
                                                             entry.get("unit"), m["unit"]))
        elif not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append("%s: %s value %r" % (where, m["name"], entry.get("value")))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append("%s: unexpected metrics %s" % (where, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            where = "%s trace=%d" % (w, trace)
            code, result, out = run(["--workload", w, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"])
            if result is None or code != 0:
                problems.append("%s: exit %d, no result\n%s" % (where, code, out[-2000:]))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s failed=%s attempted=%s" % (
                    where, result["correct"], result["failed"], result["attempted"]))
            check_metrics(result, bench["per_layer" if trace else "end_to_end"], where,
                          problems)
            if trace:
                path = os.path.join(ROOT, ".bench_build", "traces", "%s-seed1.json" % w)
                try:
                    with open(path) as f:
                        names = {e["name"] for e in json.load(f)["traceEvents"]}
                except (OSError, ValueError, KeyError) as e:
                    problems.append("%s: trace %s unreadable: %s" % (where, path, e))
                    continue
                family = "coloring" if w.startswith("coloring") else "sync"
                missing = SPANS[family] - names
                if missing:
                    problems.append("%s: spans missing from trace: %s" % (where, sorted(missing)))
            print("ok   %s" % where, flush=True)

    code, result, _ = run(["--workload", "lrc-sync", "--seed", "1", "--seconds", "0.5",
                           "--trace", "0", "--tiny", "--lrc-default-gc"])
    if result is not None and result["correct"] and code == 0:
        problems.append("lrc-sync --lrc-default-gc now passes: the epoch-GC defect looks "
                        "fixed; run lrc-sync with the default GC and drop this probe")
    else:
        print("ok   known defect still reproduces (lrc-sync --lrc-default-gc fails)")

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
