#!/usr/bin/env python3
"""Build the perfbench harness (Release) and run one workload.

    python3 perfbench/run.py --workload fleet_trace --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The harness and the daemons it drives
are built from the checkout's sources into their own CMake tree,
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), so the
repo's build/ tree and CMake files stay untouched. Build output goes
to stderr; the harness prints its JSON result as the last line of
stdout. See perfbench/README.md.
"""

import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(HERE, "..", ".bench_build"))
    build = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return 1
    # A fresh child process, so the harness's set-up clock starts at
    # its own exec and not at this script's build check. It dies with
    # this script, and signals sent here are passed on.
    libc = ctypes.CDLL(None, use_errno=True)

    def die_with_parent():
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG

    binary = os.path.join(build, "perfbench")
    child = subprocess.Popen([binary] + sys.argv[1:],
                             preexec_fn=die_with_parent)
    for signo in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signo, lambda s, _f: child.send_signal(s))
    status = child.wait()
    # A harness stopped by a signal leaves its run directory and shm
    # segments behind; its daemons are already gone.
    shutil.rmtree(os.path.join(build, "run-%d" % child.pid),
                  ignore_errors=True)
    for suffix in ("", ".probe"):
        segment = "/dev/shm/mercury.perfbench.%d%s" % (child.pid, suffix)
        if os.path.exists(segment):
            os.unlink(segment)
    return 1 if status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
