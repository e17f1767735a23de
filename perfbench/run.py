#!/usr/bin/env python3
"""Build the perfbench Go program from the checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay-disk --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the scratch files of a run all stay
under .bench_build/ in the checkout. The last line of standard output is the
benchmark's JSON result; the program checks its own metric names against
BENCHMARK.json before printing it.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def run(cmd, cwd, timeout, capture=False):
    """Run cmd to completion, killed if it outlives timeout; return its exit
    code and, with capture, its standard output."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=go_env(), timeout=timeout,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1, ""
    return proc.returncode, (proc.stdout or b"").decode()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)

    code, _ = run(["go", "build", "-trimpath", "-o", BINARY, "."],
                  os.path.join(ROOT, "perfbench"), BUILD_TIMEOUT)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    code, out = run([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                     "-seconds", str(args.seconds), "-trace", str(args.trace),
                     "-workdir", workdir],
                    ROOT, RUN_TIMEOUT, capture=True)
    if code != 0:
        sys.stderr.write(out)
        print(f"perfbench: {args.workload} exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        print(f"perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
