#!/usr/bin/env python3
"""Study benchmark entry point.

Builds the `studybench` package (release, offline) from the checkout it is
run in, then runs it with the given arguments:

    python3 studybench/run.py --workload weekly-study --seed 1 --seconds 10 --trace 0

The last line of stdout is the run's JSON result. Build output goes to
stderr. Exits non-zero when the build fails or the outputs are incorrect.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--bin", "studybench",
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("studybench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, target, "release", "studybench")
    # Its own process group, so a timeout also stops the child processes it
    # runs repetitions and set-up samples in.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"studybench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
