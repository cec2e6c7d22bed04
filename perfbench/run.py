#!/usr/bin/env python3
"""Build and run perfbench, BlendHouse's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hybrid-warm --seed 1 --seconds 10 --trace 0

The Go program (a module of its own in perfbench/, built against the
repository through a replace directive) is compiled into .bench_build/,
with the Go build cache there as well, so nothing is written outside the
checkout. The arguments are passed to the program unchanged; its last
line of output is the JSON result. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
