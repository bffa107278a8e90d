#!/usr/bin/env python3
"""Build and run the SPEED benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hit-small --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build), whose Go caches, log-engine
data and temporary files all stay inside the checkout. Arguments are
passed to the program unchanged; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary, "-workdir", os.path.join(build, "data")] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
