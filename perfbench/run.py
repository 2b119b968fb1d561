#!/usr/bin/env python3
"""Build the qiset benchmark binary from source and run one workload.

Usage (from the root of a qiset checkout):

    python3 perfbench/run.py --service-rate 150 \
        --workload isa-sweep --seed 1 --seconds 20 --trace 0

Every argument is passed through to the binary. The build goes
to $CARGO_TARGET_DIR/perfbench when that variable is set, otherwise to
.bench_build/perfbench, both relative to the checkout root. Build output
goes to stderr, so the binary's last stdout line stays the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no qiset sources next to %s\n" % HERE)
        return 2
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", out, "--target", "qiset_perfbench",
         "-j", jobs])
    binary = os.path.join(out, "qiset_perfbench")
    trace_dir = os.path.join(os.path.dirname(out), "traces")
    # Become the benchmark: no second process to outlive a signal.
    sys.stderr.flush()
    os.execv(binary, [binary, "--trace-dir", trace_dir] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
