#!/usr/bin/env python3
"""Build perfbench from source, then run it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
perfbench/, and is incremental: only the first run in a checkout compiles.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails (for example when the composim sources are missing).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_matrix", "traced_analysis", "fault_recovery")


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", "2"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build_root, "perfbench-runs")]
    # "--workload all" runs the three workloads in turn.
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if i < len(args) and args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    code = 0
    for run_args in runs:
        sys.stdout.flush()
        code = max(code, subprocess.run([binary] + run_args).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
