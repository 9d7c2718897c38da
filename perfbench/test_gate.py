#!/usr/bin/env python3
"""Tests perfbench's correctness gate.

Run from the repository root:

    python3 perfbench/test_gate.py

It builds perfbench (as run.py does), then checks that:
  * each workload passes its gate on the checked-in golden tables, and the
    traced paper_matrix run reproduces the seed commit's work counts and
    every bare twin matches its op;
  * fault_recovery reports the same attempted/failed counts however many
    passes a run makes;
  * a single mutated expected value, in a copy of the golden tables, makes
    the gate fail (result "correct": false, exit code 1).
Exits non-zero on the first check that does not hold.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

GOLDEN = os.path.join(HERE, "golden")


def bench(binary, workload, trace=0, golden_dir=GOLDEN, seconds=0.1):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", str(trace), "--golden-dir", golden_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def check(cond, what, output=""):
    if not cond:
        print("FAIL:", what)
        print(output[-4000:])
        sys.exit(1)
    print("ok:", what)


def mutate(golden_dir, name):
    """Change the last digit of the first expected line in `name`."""
    path = os.path.join(golden_dir, name)
    with open(path) as f:
        lines = f.read().splitlines()
    i = next(i for i, l in enumerate(lines) if l and not l.startswith("#"))
    last = lines[i][-1]
    lines[i] = lines[i][:-1] + ("1" if last != "1" else "2")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(build_root)
    check(binary is not None, "perfbench builds")

    code, result, out = bench(binary, "paper_matrix", trace=1)
    check(code == 0 and result and result["correct"],
          "paper_matrix: golden outputs, graph specs and bare twins", out)
    check("fabric.component_solves 3244679 [seed 3244679]: ok" in out,
          "paper_matrix: Fig 11 count cross-check", out)
    for workload in ("traced_analysis", "fault_recovery"):
        code, result, out = bench(binary, workload)
        check(code == 0 and result and result["correct"],
              workload + ": golden outputs", out)
    # attempted/failed count distinct ops, so more passes leave them as is;
    # the seed-1 table records one known-defect failure.
    code, longer, out = bench(binary, "fault_recovery", seconds=6)
    check(code == 0 and longer and "measured: 1 passes" not in out
          and (longer["attempted"], longer["failed"])
          == (result["attempted"], result["failed"]) == (300, 1),
          "fault_recovery: counts fixed by the seed, not by the passes run", out)

    mutated = os.path.join(build_root, "perfbench-test", "golden")
    for workload, table in (("traced_analysis", "traced_analysis.golden"),
                            ("fault_recovery", "fault_recovery.seed1.golden")):
        shutil.rmtree(mutated, ignore_errors=True)
        shutil.copytree(GOLDEN, mutated)
        mutate(mutated, table)
        code, result, out = bench(binary, workload, golden_dir=mutated)
        check(code == 1 and result and not result["correct"]
              and "golden mismatch" in out,
              workload + ": a mutated expected value fails the gate", out)
    shutil.rmtree(os.path.dirname(mutated), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
