#!/usr/bin/env python3
"""Host-measured benchmark of the CFED repository.

Builds the program from ../src together with the hostbench binary (a
CMake package in this directory) into .bench_build/hostbench, then runs
one workload:

    python3 hostbench/run.py --workload protected_suite --seed 1 \
        --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Other modes:
    --self-test      determinism checks, then every workload briefly in
                     both trace modes, checking metric names against
                     BENCHMARK.json
    --emit-expected  recompute the expected campaign outcome digests
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
EXPECTED = os.path.join(HERE, "expected_digests.txt")


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src; nothing to measure")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)


def git_provenance():
    """Commit and dirty flag of the checkout, or "unknown" outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            p = subprocess.run(["git", "-C", ROOT, *args], env=env,
                               capture_output=True, text=True)
        except OSError:
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return "unknown", "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    return commit, "unknown" if status is None else str(int(bool(status)))


def run_hostbench(extra, capture=False):
    """Runs the binary with a private temp directory inside the build."""
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=BUILD)
    try:
        cmd = [BINARY, "--tmp", tmp, *extra]
        if capture:
            return subprocess.run(cmd, capture_output=True, text=True)
        return subprocess.run(cmd)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def workload_args(workload, seed, seconds, trace):
    commit, dirty = git_provenance()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--expected", EXPECTED, "--git-commit", commit,
            "--git-dirty", dirty, "--trace-out",
            os.path.join(traces, f"{workload}-seed{seed}.json")]


def self_test():
    """Determinism checks plus a metric-name check of every workload."""
    failed = run_hostbench(["--self-test", "--expected", EXPECTED]).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            p = run_hostbench(workload_args(w["name"], 1, 1, trace),
                           capture=True)
            lines = p.stdout.strip().splitlines()
            result = dict(json.loads(lines[-1], object_pairs_hook=list)
                          if p.returncode == 0 and lines else [])
            names = [k for k, _ in result.get("metrics", [])]
            got = {k: dict(v)["unit"] for k, v in result.get("metrics", [])}
            ok = (result.get("correct") is True and result["failed"] == 0
                  and len(names) == len(set(names)) and got == want)
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={trace}: "
                  f"{len(names)} metrics, each once, names and units as in "
                  f"BENCHMARK.json")
            if not ok:
                failed = 1
                for name in sorted(set(want) ^ set(got)):
                    print(f"       mismatch: {name}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--emit-expected", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if args.emit_expected:
        return run_hostbench(["--emit-expected", EXPECTED]).returncode
    if not args.workload:
        parser.error("--workload is required")
    return run_hostbench(workload_args(args.workload, args.seed, args.seconds,
                                    args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
