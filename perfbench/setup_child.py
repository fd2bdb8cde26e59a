"""One set-up sample: ``python perfbench/setup_child.py <workload> <seed>``.

Imports padicosc, builds the workload's inputs from the seed and runs
its warm-up, then prints the CLOCK_MONOTONIC time in ns at which a run
would start timing.  The parent subtracts the time it spawned this
process, so the sample covers interpreter start as well.
"""

import sys
import time

import workloads


def main(argv):
    workloads.prepare(argv[0], int(argv[1]))
    print(time.monotonic_ns())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
