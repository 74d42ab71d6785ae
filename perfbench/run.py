#!/usr/bin/env python3
"""Build and run the simulator's host-cost benchmark for one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME may be "all", which runs every workload in turn, each in its own
process, and ends with one result line that covers them all, its
metrics named "<workload>.<metric>".

The OCaml benchmark (perfbench/main.ml) is built from source into
.bench_build (or $CARGO_TARGET_DIR when set), run once, and its output is
passed through. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; it is printed only after it has
been checked against the metric lists in BENCHMARK.json. Result files
and, for --trace 1, a Chrome Trace Event JSON file land in
<build dir>/perfbench-out/. The exit code is 0 only when a result line
was printed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
EXE = "perfbench/main.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the simulator's sources, so a result names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    # only ask git when this directory is itself a work tree, so a
    # checkout nested in some other repository does not report that one
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(cmd, timeout, env=None):
    """Run cmd to completion, killing and reaping it on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def check_result(line, spec, traced):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if not isinstance(res, dict) or sorted(res) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(res["correct"], bool):
        fail("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            fail(key + " must be a whole number")
    if res["attempted"] < 1:
        fail("no operation attempted")
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = res["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        fail("metrics do not match BENCHMARK.json: %s" % sorted(metrics))
    for m in wanted:
        got = metrics[m["name"]]
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            fail("%s: unit %r, BENCHMARK.json says %r"
                 % (m["name"], got.get("unit"), m["unit"]))
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            fail("%s: value %r is not a finite number" % (m["name"], value))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r" % args.workload)
    workloads = names if args.workload == "all" else [args.workload]
    # the benchmark measures the simulator in this checkout; without its
    # sources there is nothing to build
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout holding dune-project and lib/")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # build inside the checkout only: no shared dune cache in $HOME
    env = dict(os.environ, DUNE_BUILD_DIR=build_dir, DUNE_CACHE="disabled")
    code, out = run_child(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./" + EXE], BUILD_TIMEOUT_S, env)
    if out:
        sys.stderr.write(out)
    if code != 0:
        fail("build failed (exit %d)" % code)

    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(build_dir, "default", EXE)
    # Keep memory that the simulator frees inside the process, so that
    # rebuilding a system reuses it instead of faulting fresh zero pages
    # in from the kernel once more. On a shared virtual machine those
    # page faults are the most variable part of the host time: without
    # these settings they made up 25-40 % of the CPU time of
    # mesh64_uniform and udma_send, and set-up took 3-10 times as long.
    run_env = dict(os.environ,
                   MALLOC_MMAP_THRESHOLD_=str(32 << 20),
                   MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    commit, source = git_commit(), source_digest()
    results = {}
    for w in workloads:
        code, out = run_child(
            [exe, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--commit", commit, "--source-digest", source, "--out", out_dir],
            2 * args.seconds + 60, run_env)
        lines = out.rstrip("\n").split("\n")
        if code != 0 or not lines[-1].startswith("{"):
            sys.stderr.write(out)
            fail("%s exited %d without a result" % (w, code))
        results[w] = check_result(lines[-1], spec, args.trace == 1)
        for line in lines:
            print(line if len(workloads) == 1 else w + " " + line)
        sys.stdout.flush()
    if len(workloads) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w + "." + k: v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
