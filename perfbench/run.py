#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a full checkout of the repository.  The benchmark binary
(perfbench/src, linked against the repository's libppgnn.a) is built with
CMake into the build directory — $CARGO_TARGET_DIR when set, else
.bench_build at the checkout root — and every file a run writes stays under
that directory.  Build output goes to stderr; stdout carries the binary's
two JSON lines, the result last.  The result's metric names are checked
against BENCHMARK.json.  Exits non-zero, printing no result, when the
checkout is incomplete, the build fails or the workload fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    src = os.path.join(ROOT, "perfbench")
    out = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd), 1)
    return os.path.join(out, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "examples/replica_server_cli.cpp",
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("incomplete checkout: %s is missing" % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    # Relative paths keep the replicas' Unix socket names short.
    os.chdir(ROOT)
    work = os.path.relpath(os.path.join(
        build_dir, "work", "%s-%d" % (a.workload, os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work, "--commit", commit()]
    if a.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, a.workload + ".json")]
    # Own process group, so a hung run can be stopped with its replicas.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("workload timed out after %d s" % RUN_TIMEOUT_S, 1)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode, 1)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail("perfbench metrics %s differ from BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(wanted)), 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
