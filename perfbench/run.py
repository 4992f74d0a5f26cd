#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload wire-bulk --seed 1 --seconds 15 --trace 0

perfbench/ is a Go module of its own that imports the repository's
packages through a `replace pde => ../` directive, so it only builds
inside a checkout of the repository. Every build and run artifact (Go
build cache, binary, traced spans) goes under .bench_build/ in the
current directory; nothing is written anywhere else. The arguments are
passed through to the Go program, which prints its report and, as the
last line, one JSON result object.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": out,
        # The go command's telemetry counters and env file live under the
        # user config directory; keep them inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed (it needs the repository around perfbench/)", file=sys.stderr)
        return build.returncode or 1
    try:
        return subprocess.run([binary] + sys.argv[1:], env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
