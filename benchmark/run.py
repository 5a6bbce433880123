#!/usr/bin/env python3
"""Build and run the revmatch serving benchmark.

Run from the root of a checkout:

    python3 benchmark/run.py --workload served-mix --seed 1 --seconds 20 --trace 0

Builds `revmatch-server` (from the repository's workspace) and the
benchmark package in `benchmark/` with cargo, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then replaces itself with
the benchmark binary. Build output goes to stderr; the last line of
stdout is the benchmark's JSON result. Exits nonzero, printing no result,
when either build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print(f"benchmark: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(done.returncode or 1)


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["-p", "revmatch", "--bin", "revmatch-server"], env)
    build(["--manifest-path", os.path.join("benchmark", "Cargo.toml")], env)
    exe = os.path.join(target, "release", "revmatch-servebench")
    server = os.path.join(target, "release", "revmatch-server")
    sys.stdout.flush()
    os.execv(exe, [exe, "--root", ROOT, "--server", server, *sys.argv[1:]])


if __name__ == "__main__":
    main()
