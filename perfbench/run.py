#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Run from the repository root, with the benchmark's own flags:

    python3 perfbench/run.py --workload udp-gravity --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary stay under .bench_build/
in the current directory. The binary's exit code is returned; a failed build
exits 1 without printing a result.
"""

import os
import subprocess
import sys

# The benchmark bounds its own run time; this only stops a hung binary.
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(src):
        print("perfbench: run from the repository root (go.mod and perfbench/ not found)", file=sys.stderr)
        return 1
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
