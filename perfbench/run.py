#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload dense-chunked --seed 1 --seconds 10 --trace 0

Builds the repository's libraries, examples/query_server and the perfbench
program from source into .bench_build/ (Release), runs its self-test, then
one measured run. The program's output is passed through;
its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero on a build
failure, a wrong answer, or a malformed result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("dense-chunked", "padded-chunked", "served-open", "edit-session")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    for required in ("src/CMakeLists.txt", "examples/query_server.cpp",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, required)):
            fail("missing %s: run from a full repository checkout" % required)
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=root)
            if result.returncode != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return build_dir


def git_sha(root):
    # Only a checkout with its own .git: git would otherwise search the
    # parent directories.
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest(root):
    """sha256 over every source file the measured binaries are built from."""
    digest = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                paths.append(os.path.join(dirpath, name))
    paths.append(os.path.join(root, "examples", "query_server.cpp"))
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            return "metric %s has keys %s" % (name, sorted(metric))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = build(root)
    binary = os.path.join(build_dir, "perfbench")
    selftest = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-test failed")

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(root),
               PERFBENCH_SOURCE_DIGEST=source_digest(root))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir,
               "--server", os.path.join(build_dir, "query_server")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = out.strip().splitlines()
    problem = check_result(lines[-1]) if lines else "no output"
    if problem:
        fail("malformed result: " + problem)


if __name__ == "__main__":
    main()
