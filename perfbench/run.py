#!/usr/bin/env python3
"""Build and run the vProbe simulator benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload paper_spec --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 45 --trace 1
  python3 perfbench/run.py --workload serving_spike --seed 1 --held-out ...
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --write-pins

The first call configures and builds the simulator libraries from ../src
plus the benchmark binary into .bench_build/ (later calls rebuild only what changed).
Build output goes to stderr; the binary's stdout ends with one JSON line.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
PINS = os.path.join(HERE, "pins.txt")
WORKLOADS = ("paper_spec", "fleet_churn", "serving_spike")


class Terminated(Exception):
    pass


def on_sigterm(signum, frame):
    raise Terminated()


def run_child(cmd, **kwargs):
    """Run cmd to completion; on interruption stop it and wait for it."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    return child.returncode


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return head.stdout.strip() if head.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def src_hash():
    """sha256 over the simulator sources, so a result names its code even
    in a checkout that is not a git repository."""
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


def perfbench(*args):
    return [BINARY, "--pins=" + PINS] + list(args)


def run_capture(args):
    out = subprocess.run(perfbench(*args), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if out.returncode == 0 and lines else None)


def self_test():
    """The binary's self-tests, then a short run of every workload in both modes
    checked against BENCHMARK.json's metric names and units."""
    if run_child(perfbench("--self-test")) != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = run_capture(["--workload=" + workload, "--seed=1", "--seconds=1",
                                      "--trace=%d" % trace])
            want = {m["name"]: m["unit"] for m in spec[key]}
            ok = (rc == 0 and result is not None
                  and sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and {n: m["unit"] for n, m in result["metrics"].items()} == want
                  and result["correct"] is True)
            print("self-test %s: %s --trace %d prints every %s metric with its unit"
                  % ("ok" if ok else "FAIL", workload, trace, key))
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out pinned inputs instead of the seed's")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate pins.txt from serial reference runs")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.write_pins):
        parser.error("--workload, --self-test or --write-pins is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if not build():
            return 1
        if args.write_pins:
            return run_child(perfbench("--write-pins"))
        if args.self_test:
            return self_test()
        extra = ["--held-out"] if args.held_out else []
        return run_child(perfbench("--workload=" + args.workload, "--seed=%d" % args.seed,
                                "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
                                "--git-sha=" + git_sha(), "--src-hash=" + src_hash(),
                                *extra))
    except Terminated:
        return 143


if __name__ == "__main__":
    sys.exit(main())
