#!/usr/bin/env python3
"""Build compcache's host-time benchmark from source and run it.

Run from the root of a compcache checkout:

    python3 perfbench/run.py --workload table1_cc --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

The Go program (perfbench/*.go, a module of its own that builds against the
checkout through a replace directive) is built under .bench_build/, with the
Go build cache and Go's user directories kept there too, so a run reads and
writes only inside the checkout. Each workload runs serially in one process.
The last line of standard output is the JSON result. Unrecognised arguments,
such as --record, pass through to the program.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["table1_cc", "table1_std", "fleet_sweep"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s is not a compcache checkout (no go.mod)" % ROOT)
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."],
                              cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build: %s" % e)
    if done.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % done.returncode)


def run(workload, args, extra):
    cmd = [BINARY, "-workload", workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)] + extra
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 = the experiments' own (42 for Table 1, 1 for the fleet)")
    p.add_argument("--seconds", type=float, default=40, help="host seconds of measured passes")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1 = traced run printing the per-layer metrics")
    args, extra = p.parse_known_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(w, args, extra) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
