#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

The Go build writes only under .bench_build/ in the checkout: its build
cache, its configuration and temporary files, and the benchmark binary. The
arguments are passed to the binary unchanged, and its exit code is ours.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isfile(
        os.path.join(BENCH_DIR, "go.mod")
    ):
        print("perfbench: run from the root of a checkout that holds the program's source",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=readonly"
    env["GOWORK"] = "off"
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=BENCH_DIR, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
