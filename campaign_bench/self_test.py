#!/usr/bin/env python3
"""Fast self-test of the campaign benchmark.

Run from the repository root:

    python3 campaign_bench/self_test.py

Runs every workload of BENCHMARK.json at a tiny iteration count, traced
and untraced, and asserts that each named metric is printed with its
unit and that the output checks pass. Then runs one workload on a
deliberately broken result (a bug record naming no seeded defect) and
asserts that the checks fail the command. Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--iters", "4", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
        print(("ok   " if condition else "FAIL ") + message, flush=True)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"],
                   tag + ": exits 0 with correct output")
            if result is None:
                print(output)
                continue
            printed = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(printed) == set(wanted),
                   tag + ": prints exactly the %s metrics" % key)
            expect(all(printed[n]["unit"] == u for n, u in wanted.items()
                       if n in printed), tag + ": every unit matches")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   tag + ": attempted >= 1, none failed")

    code, result, output = run(spec["workloads"][0]["name"], 0,
                               "--break-check", "orphan-bug")
    expect(code != 0 and result is not None and not result["correct"] and
           "names no seeded defect" in output,
           "a bug naming no seeded defect fails the command")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
