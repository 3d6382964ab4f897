#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload ml-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; compiler output goes to a log there, so the
last line of standard output is the benchmark's JSON result.
"""
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def fail(msg, log=None):
    sys.stderr.write("perfbench: %s\n" % msg)
    if log and os.path.exists(log):
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.exit(1)


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    open(log, "w").close()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("configure failed", log)
    if run_logged(["cmake", "--build", out, "--target", target, "-j", "4"],
                  log) != 0:
        fail("build failed", log)
    return os.path.join(out, target)


def git_sha():
    # Only the checkout's own metadata: git would otherwise search the
    # parent directories for a repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def src_digest():
    """sha256 of the engine sources, which identifies the code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_test")]).returncode
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("engine sources not found next to perfbench/")
    binary = build("perfbench")
    cmd = [binary] + argv + ["--git-sha", git_sha(), "--src-digest", src_digest()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
