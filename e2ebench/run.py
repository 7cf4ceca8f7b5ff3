#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload placement --seed 1 --seconds 15 --trace 0

The Go toolchain's build cache, module cache and temporary files all go
to .bench_build/ at the repository root, so the run reads and writes
nothing outside the checkout. The benchmark process is pinned to
GOMAXPROCS=2 so that its CPU figures do not depend on the machine's core
count. The last line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build offline with the installed toolchain: the module has no
    # dependencies outside this repository.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOWORK="off", GOFLAGS="-mod=readonly")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="placement, detection or verify")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE,
                               env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("e2ebench: build failed:", e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    env["GOMAXPROCS"] = "2"
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("e2ebench: run failed:", e, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
