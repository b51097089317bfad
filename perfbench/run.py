#!/usr/bin/env python3
"""Build the SYNPA benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 20 --trace 0

Arguments are passed to the `synpa-perfbench` binary unchanged (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR, `.bench_build`
when unset. Build output goes to standard error, so the last line of
standard output is the binary's JSON result. The exit code is the
binary's; a failed build or a run over the time limit exits with 1.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# A run must end within 180 s; stop a stuck one a little earlier.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "synpa-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
