#!/usr/bin/env python3
"""Build and run the repository benchmark described in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --check [--seed <n>]
  python3 perfbench/run.py --overhead --workload <name> --seed <n> --seconds <s>

The first call configures and builds the dqma library and the perfbench
program (Release) under .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to stderr, so the last stdout line of a run
is the program's JSON result. --check runs every workload briefly on tiny inputs
and fails on any output mismatch. --overhead runs the workload untraced and
then traced on the same seed and prints what tracing costs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the program; exits non-zero on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the dqma sources (CMakeLists.txt, src/) are "
                 "missing next to perfbench/; nothing to benchmark")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run_program(args, capture=False):
    """Runs the program to completion; returns (exit code, stdout or None)."""
    proc = subprocess.Popen([str(BINARY)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, (out.decode() if capture else None)


def load_args(ns, trace):
    args = ["--workload", ns.workload, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans",
                 str(BUILD / ("spans-%s-%d.json" % (ns.workload, ns.seed)))]
    return args


def overhead(ns):
    """Untraced, then traced, same seed: the end-to-end cost of tracing."""
    results = {}
    for trace in (0, 1):
        code, out = run_program(load_args(ns, trace), capture=True)
        sys.stdout.write(out)
        if code != 0:
            return code
        results[trace] = json.loads(out.strip().splitlines()[-1])["metrics"]
    report = {}
    for name in ("ops_per_s", "latency_p50_ms"):
        plain = results[0][name]["value"]
        traced = results[1]["trace." + name]["value"]
        report[name] = {"untraced": plain, "traced": traced,
                        "change": (traced - plain) / plain}
    print(json.dumps({"tracing_overhead": report}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    ns = parser.parse_args()

    build()
    if ns.check:
        return run_program(["--check", "--seed", str(ns.seed)])[0]
    if not ns.workload or ns.seconds is None:
        parser.error("--workload and --seconds are required")
    if ns.overhead:
        return overhead(ns)
    return run_program(load_args(ns, ns.trace))[0]


if __name__ == "__main__":
    sys.exit(main())
