#!/usr/bin/env python3
"""Build and run the campaign benchmark (see README.md beside this file).

Run from the repository root:

    python3 campaign_bench/run.py --workload fresh-ort --seed 2023 \
        --seconds 30 --trace 0

The first run configures and builds the nnsmith library from src/ plus
the benchmark driver into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild incrementally. Build output goes to stderr, so the
driver's JSON result stays the last line of stdout. Any further flags
(--iters, --break-check) are passed through to the driver.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the driver; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "campaign_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    return os.path.join(build_dir, "campaign_bench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("campaign_bench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    command = [binary, *sys.argv[1:],
               "--corpus", os.path.join(ROOT, "tests", "data", "corpus"),
               "--work-dir", os.path.join(build_dir, "work"),
               "--commit", commit()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
