"""Traced CLI child: ``python perfbench/cli_child.py <padicosc argv>``.

Installs the same wrappers as the in-process traced run, then calls
``padicosc.cli.main(argv)``.  Spans and counters go to stderr as one
line prefixed ``PERFBENCH_TRACE``, after the CLI's own output.
"""

import time

START = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv):
    tracer = Tracer()
    frame = tracer.open(START)
    import padicosc.cli
    tracer.close("cli.import", frame)
    tracer.install()
    frame = tracer.open()
    try:
        code = tracer.run(None, padicosc.cli.main, argv)
    finally:
        tracer.close("cli.main", frame)
    sys.stdout.flush()
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(tracer.payload()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
