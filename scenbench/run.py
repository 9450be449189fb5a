#!/usr/bin/env python3
"""Scenario benchmark for cellflow.

Run from the repository root:

  python3 scenbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 scenbench/run.py --all [--seed N] [--seconds S]
  python3 scenbench/run.py --selftest

The first call configures and builds scenbench/ (the cellflow library from
src/ plus the scenbench runner, Release + LTO) into .bench_build/scenbench; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the runner's JSON result. --trace 1 also writes the retained
spans as Chrome trace JSON to .bench_build/traces/. See scenbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "scenbench")
BINARY = os.path.join(BUILD, "scenbench")


def build():
    """Configures (once) and builds the runner; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("scenbench: no cellflow sources at src/; cannot build",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("scenbench: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("scenbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def runner(args):
    return [BINARY] + args + ["--git-sha", git_sha()]


def run_one(workload, seed, seconds, trace):
    """Replaces this process with the runner, so whoever started the
    benchmark owns (and can stop) the process doing the work."""
    cmd = runner(["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)])
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, cmd)


def listed_metrics():
    out = subprocess.run(runner(["--list-metrics"]), capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def run_all(seed, seconds):
    """Every workload, end-to-end metrics; nonzero if any check failed."""
    listing = listed_metrics()
    ok = True
    rows = []
    for workload in listing["workloads"]:
        out = subprocess.run(
            runner(["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]),
            capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stdout.flush()
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((workload, result))
    print("\n%-18s %-18s %16s %s" % ("workload", "metric", "value", "unit"))
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print("%-18s %-18s %16.4f %s" % (workload, name, m["value"], m["unit"]))
        print("%-18s %-18s %16s" % (workload, "correct",
                                    "yes" if result["correct"] else "NO"))
    return 0 if ok else 1


def selftest():
    """The runner's --selftest, plus BENCHMARK.json against the runner's
    own metric tables."""
    rc = subprocess.run(runner(["--selftest"])).returncode
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        listing = listed_metrics()
        for key in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"]) for m in spec[key]]
            have = [tuple(m) for m in listing[key]]
            if want != have:
                print("FAIL BENCHMARK.json %s differs from the runner: %s vs %s"
                      % (key, want, have))
                rc = rc or 1
        if [w["name"] for w in spec["workloads"]] != listing["workloads"]:
            print("FAIL BENCHMARK.json workloads differ from the runner")
            rc = rc or 1
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not (a.all or a.selftest or a.workload):
        p.error("one of --workload, --all, --selftest is required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 2
    if a.selftest:
        return selftest()
    if a.all:
        return run_all(a.seed, a.seconds)
    return run_one(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
