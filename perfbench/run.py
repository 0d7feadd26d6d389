#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); scratch files and span dumps go to
$CARGO_TARGET_DIR/perfbench-work. The last stdout line of a run is the JSON
result the benchmark binary prints. --self-check runs every workload of
BENCHMARK.json, and the unlisted cycles_sim, at a tiny size, traced and
untraced, and checks that each listed metric is emitted once, finite and with
its unit, and that the workload's correctness checks pass.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
# Runnable and self-checked, but not listed in BENCHMARK.json: on some seeds
# the collector leaves planted rings unreclaimed for good (see README.md).
UNLISTED_WORKLOADS = ["cycles_sim"]


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(os.getcwd(), d)


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    out = os.path.join(target_dir(), "perfbench")
    cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (cfg, ["cmake", "--build", out, "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    return os.path.join(out, "adgc_perfbench")


def run_binary(binary, args, capture=False):
    cmd = [binary] + args + ["--work-dir", os.path.join(target_dir(), "perfbench-work")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124, ""
    return r.returncode, (r.stdout or "")


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    workloads = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    for workload in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(binary, ["--workload", workload, "--seed", "1",
                                             "--seconds", "1", "--trace", trace, "--tiny"],
                                   capture=True)
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                res = None
                problems.append("no JSON result line")
            if res is not None:
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("result keys %s" % sorted(res))
                if res.get("correct") is not True:
                    problems.append("correctness check failed")
                if res.get("attempted", 0) < 1:
                    problems.append("nothing attempted")
                got = res.get("metrics", {})
                want = {m["name"]: m["unit"] for m in spec[key]}
                if set(got) != set(want):
                    problems.append("metric names differ: missing %s, extra %s" % (
                        sorted(set(want) - set(got)), sorted(set(got) - set(want))))
                for name, m in got.items():
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append("%s not finite" % name)
                    if name in want and m.get("unit") != want[name]:
                        problems.append("%s unit %s, want %s" % (name, m.get("unit"), want[name]))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            if res is not None:
                # Misses (timeouts, leaks) are reported, not failed on: they
                # are measurements; only a safety violation fails the check.
                status += " (attempted %s, failed %s)" % (res.get("attempted"), res.get("failed"))
            print("self-check %-11s trace=%s %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and (a.workload is None or a.seed is None or a.seconds is None
                             or a.trace is None):
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if a.self_check:
        return self_check(binary)
    code, _ = run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                  "--seconds", repr(a.seconds), "--trace", a.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
