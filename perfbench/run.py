#!/usr/bin/env python3
"""Build and run the register stack's wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   # every workload, one process each
    python3 perfbench/run.py --smoke              # tiny run of every workload, both modes
    python3 perfbench/run.py --test               # the benchmark's own unit tests

Run from the repository root. The program is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build) as a Release build. The last line of
stdout of a single-workload run is the result JSON of the perfbench binary,
whose "correct" field says whether every output check passed; that run exits
nonzero only when no result was produced. --workload all and --smoke also
exit nonzero when any output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["kv-read-threads", "kv-write-large-sim", "reg-contended-sim"]
RUN_TIMEOUT_S = 170  # one workload run, build excluded


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root, target):
    """Configure (once) and build `target`; output goes to stderr."""
    out = build_dir(root)
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def run_one(binary, workload, seed, seconds, trace, smoke):
    """Run one workload; returns (exit status, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 1, e.stdout or ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The result JSON on the last line, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke(binary):
    """Every workload, untraced and traced, at a tiny size; all must pass."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            status, stdout = run_one(binary, workload, 1, 0.2, trace, True)
            result = result_of(stdout)
            good = status == 0 and result is not None and result["correct"]
            names = sorted(result["metrics"]) if result else []
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({len(names)} metrics)")
            if not good:
                sys.stdout.write(stdout)
            ok = ok and good
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--test", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.smoke or a.test):
        p.error("one of --workload, --smoke, --test is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root, "perfbench")
        tests = build(root, "perfbench_test") if a.test else None
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write(f"run.py: build failed: {e}\n")
        return 1

    if a.test:
        return subprocess.run([tests], timeout=RUN_TIMEOUT_S).returncode
    if a.smoke:
        return 0 if smoke(binary) else 1
    status = 0
    for workload in WORKLOADS if a.workload == "all" else [a.workload]:
        code, stdout = run_one(binary, workload, a.seed, a.seconds, a.trace, False)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        result = result_of(stdout)
        if code != 0 or result is None:
            status = code or 1
        elif a.workload == "all" and not result["correct"]:
            status = 1  # the all-workload command fails on any failed check
    return status


if __name__ == "__main__":
    sys.exit(main())
