"""padicosc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a padicosc checkout (the package is imported from
``src/``).  Workloads (see workloads.py and BENCHMARK.json):

  zeta_int_sweep  integer-s zeta_measure ladders against zeta_interp
  padic_ladder    PadicNumber-bound series / operator / orbit / p-adic-s work
  cli_cold        one fresh ``python -S -m padicosc.cli`` process per operation

Each is a closed loop with one caller.  The loop makes whole passes
over the workload's seeded operation list until ``--seconds`` have
passed and at least 100 operations are done, checking every result.
Every operation in the list is thus timed several times, and the
timing metrics are taken over each operation's median time in the run:
the host's speed wanders by up to 2x in bursts, and the median of an
operation's repeats passes over the bursts that a mean over all
executions, or a quantile of them, takes in.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics, and the traced run's
own end-to-end numbers are printed on the line before it, so the two
runs give the tracing overhead.  Earlier lines carry context that is
never gated: the host-speed probe before and after the run, sample
counts, failure messages and the layer split.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100          # >= 10 samples beyond p90
SETUP_SAMPLES = 7
LOOP_CAP_S = 120       # the whole run must end well inside 180 s
PROBE_ITERATIONS = 300_000


def host_probe():
    """Seconds for a fixed stdlib-only CPU loop; context, never gated."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def setup_sample(workload, seed):
    """Interpreter start to the first timed operation, in a fresh process."""
    import workloads
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic_ns()
    out = subprocess.run(
        [*workloads.PYTHON, str(HERE / "setup_child.py"), workload,
         str(seed)],
        cwd=str(ROOT), env=env, capture_output=True, check=True, timeout=60)
    return (int(out.stdout.split()[-1]) - start) / 1e9


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count_ops(wl):
    """Exact counts cover one pass and half a round: every operation is
    in them, and the seed decides what the half round holds."""
    return wl.pass_size + wl.round_size // 2


def timed_loop(wl, seconds, tracer):
    """Whole passes until ``seconds`` passed and MIN_OPS are done.

    Returns every latency, and per position in the operation list the
    median latency of the operation there."""
    latencies = []
    repeats = [[] for _ in range(wl.pass_size)]
    failures = []
    pass_counts = None
    index = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if index % wl.pass_size == 0 and (
                (elapsed >= seconds and index >= MIN_OPS)
                or elapsed >= LOOP_CAP_S):
            break
        op = wl.op(index)
        t0 = time.perf_counter()
        error = None
        try:
            result = (wl.run(op) if tracer is None
                      else tracer.run(index, wl.run, op))
        except Exception as exc:  # every failure is counted, none dropped
            error = exc
        latency = time.perf_counter() - t0
        latencies.append(latency)
        repeats[wl.same[index % wl.pass_size]].append(latency)
        if error is None:
            try:
                wl.check(op, result)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append("op %d: %r" % (index, error))
        index += 1
        if index == count_ops(wl) and tracer is not None:
            pass_counts = dict(tracer.counts)
    typical = [statistics.median(repeats[slot]) for slot in wl.same]
    return (latencies, typical, failures, time.perf_counter() - start,
            pass_counts)


def exact_counts(workload, seed):
    """The counters after a traced run's count pass, computed the same
    way in this process; used by the benchmark's own test."""
    import tracing
    import workloads
    wl = workloads.prepare(workload, seed)
    wl.prepare_checks()
    tracer = tracing.Tracer()
    tracer.install()
    wl.tracer, wl.counts = tracer, tracer.counts
    try:
        for index in range(count_ops(wl)):
            op = wl.op(index)
            wl.check(op, tracer.run(index, wl.run, op))
    finally:
        tracer.uninstall()
    return dict(tracer.counts)


def padics_micro(seed):
    """ns per PadicNumber op, on operands drawn like padic_ladder's."""
    from padicosc import padics, sampling
    rng = random.Random(seed)
    timings = {k: [] for k in ("add_ns", "mul_ns", "mul_int_ns", "div_ns",
                               "teichmuller_us", "unit_power_us")}
    for p in (2, 3, 5, 7, 11):
        a = sampling.random_unit(rng, p, 48)
        b = sampling.random_padic(rng, p, 48, zero_weight=0.0)
        n = rng.randrange(2, 1000)
        u = padics.angle(sampling.random_unit(rng, p, 48))
        s = sampling.random_padic(rng, p, 48, zero_weight=0.0)
        cases = (("add_ns", 1e9, 200, lambda: a + b),
                 ("mul_ns", 1e9, 200, lambda: a * b),
                 ("mul_int_ns", 1e9, 200, lambda: a * n),
                 ("div_ns", 1e9, 200, lambda: a / b),
                 ("teichmuller_us", 1e6, 20, lambda: padics.teichmuller(a)),
                 ("unit_power_us", 1e6, 20,
                  lambda: padics.unit_power(u, s)))
        for key, scale, batch, fn in cases:
            for _ in range(9):
                t0 = time.perf_counter()
                for _ in range(batch):
                    fn()
                timings[key].append((time.perf_counter() - t0) / batch * scale)
    return {"padics." + k: statistics.median(v) for k, v in timings.items()}


def end_to_end(typical, failures, attempted, setup_s, peak_rss_mb):
    """Timings over each operation's median time: ``ops_per_s`` is the
    checked operations a second one pass would give at those times."""
    fail_ratio = len(failures) / attempted
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(typical) / sum(typical) * (1.0 - fail_ratio),
                      "1/s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "op_p90_ms": (quantile(typical, 90) * 1e3, "ms"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, fail_ratio


def observed(latencies, failures, loop_s):
    """The same timings over every execution, as the loop saw them;
    context only, since they follow the host's speed."""
    return {
        "ops_per_s": (len(latencies) - len(failures)) / loop_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": quantile(latencies, 90) * 1e3,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padicosc" / "__init__.py").is_file():
        print("perfbench: no padicosc package under %s; run from a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    probe_before = host_probe()
    setups = [setup_sample(args.workload, args.seed)
              for _ in range(SETUP_SAMPLES)]
    wl = workloads.prepare(args.workload, args.seed)
    wl.prepare_checks()

    tracer = None
    micro = {}
    if args.trace:
        micro = padics_micro(args.seed)
        tracer = tracing.Tracer()
        tracer.install()
        wl.tracer, wl.counts = tracer, tracer.counts

    latencies, typical, failures, loop_s, pass_counts = timed_loop(
        wl, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
    probe_after = host_probe()

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli_cold"
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    e2e, fail_ratio = end_to_end(typical, failures, len(latencies),
                                 statistics.median(setups), peak_rss_mb)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_sizes": wl.sizes, "samples": len(latencies),
        "pass_size": wl.pass_size,
        "passes": round(len(latencies) / wl.pass_size, 2),
        "loop_s": round(loop_s, 3),
        "observed": observed(latencies, failures, loop_s),
        "fail_ratio": fail_ratio, "failures": failures[:10],
        "setup_samples_s": [round(s, 4) for s in setups],
        "host_probe_s": [round(probe_before, 4), round(probe_after, 4)],
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        per_layer, shares = tracing.summarize(
            tracer.spans, tracer.counts, pass_counts or {}, count_ops(wl),
            tracer.padics_ns, len(latencies), int(sum(latencies) * 1e9))
        per_layer.update(micro)
        metrics = {k: {"value": per_layer[k], "unit": unit}
                   for k, unit in tracing.PER_LAYER_UNITS.items()}
        context["traced_end_to_end"] = {k: v for k, (v, _u) in e2e.items()}
        context.update(shares)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / ("spans-%s-%d.jsonl" % (args.workload,
                                                      args.seed))
        tracer.write(span_file)
        context["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": len(latencies),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
