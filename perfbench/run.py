#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Run from the root of a checkout. The benchmark and the simulator libraries
it links are compiled (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs reuse the
build. Build output goes to stderr, so the benchmark's result stays the last
line of stdout. Exits with the benchmark's status, or 1 if the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (cmd, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def flag(argv, name):
    """The value after `name` in argv, or None."""
    i = argv.index(name) if name in argv else -1
    return argv[i + 1] if 0 <= i < len(argv) - 1 else None


def main(argv):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + argv
    workload = flag(argv, "--workload")
    if workload:
        args += ["--scratch", os.path.join(build_dir, "scratch-%d" % os.getpid())]
        if flag(argv, "--trace") == "1":
            args += ["--trace-out", os.path.join(build_dir, "trace-%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
