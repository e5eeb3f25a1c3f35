#!/usr/bin/env python3
"""Build the workspace and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <serve-hit|serve-anytime|batch-cold> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `spp` binary and the `perfbench` harness in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the harness. Build
output goes to stderr; the harness prints the result as the last line of
stdout. Exits non-zero, printing no result, if the build or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import time


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "spp",
         "--manifest-path", os.path.join(root, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    work_dir = os.path.join(target, "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--spp", os.path.join(target, "release", "spp"), "--work-dir", work_dir]
    # The harness and every server it starts share one process group, so
    # nothing outlives this script, even when it is interrupted.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    interrupted = []

    def stop(signum, _frame):
        interrupted.append(signum)
        kill_group(proc.pid)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = proc.wait()
    kill_group(proc.pid)
    # Members that are not our children (a server whose harness died)
    # cannot be waited for; poll until the group is empty.
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    # The harness removes its scratch directory itself unless it was killed.
    shutil.rmtree(os.path.join(work_dir, f"run-{proc.pid}"), ignore_errors=True)
    return 128 + interrupted[0] if interrupted else code


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    sys.exit(main())
