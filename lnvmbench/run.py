#!/usr/bin/env python3
"""Build and run the LightNVM stack benchmark.

    python3 lnvmbench/run.py --workload ftl-gc-mix --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree. It builds the lnvmbench Go program
from the sources around it into the build directory ($CARGO_TARGET_DIR, or
.bench_build), keeping the Go build cache, temporary files and toolchain
state there too, then runs one workload and passes its output through. The
last line of the output is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The program must finish well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("lnvmbench: %s holds no repository sources (go.mod, internal/) to build" % ROOT, file=sys.stderr)
        return 2

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    out = os.path.join(build, "out")
    for d in (env["GOCACHE"], env["GOTMPDIR"], out):
        os.makedirs(d, exist_ok=True)

    binary = os.path.join(build, "lnvmbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("lnvmbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("lnvmbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", out]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lnvmbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
