"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--workload NAME ...]

Runs the benchmark command from BENCHMARK.json once per seed and
workload (seeds first-seed .. first-seed+runs-1), alternating the
workload order from one pass to the next, and prints for each metric
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median, and whether the spread is within the
metric's bound.  The host-speed probe range over all runs is printed as
context.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                         timeout=240, check=True)
    lines = out.stdout.strip().split("\n")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]
             if not args.workload or w["name"] in args.workload]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in names}
    probes = []
    failed = {w: 0 for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            context, result = run_once(spec, w, args.first_seed + i, seconds,
                                       args.trace)
            probes.extend(context["host_probe_s"])
            failed[w] += result["failed"]
            metrics = (context["traced_end_to_end"] if args.trace
                       else {k: v["value"]
                             for k, v in result["metrics"].items()})
            for k, v in metrics.items():
                values[w].setdefault(k, []).append(v)
            print("run %d %s seed %d probe %s: %s" % (
                i, w, args.first_seed + i, context["host_probe_s"],
                " ".join("%s=%.4g" % kv for kv in metrics.items())),
                file=sys.stderr, flush=True)

    report = {"runs": args.runs, "seconds": seconds, "trace": args.trace,
              "host_probe_s": [min(probes), max(probes)], "workloads": {}}
    for w in names:
        rows = {}
        for k, vs in values[w].items():
            row = summarize(vs)
            if k in bounds and k != "setup_s":
                row["within_bound"] = row["spread"] <= bounds[k]
            rows[k] = row
        report["workloads"][w] = {"failed": failed[w], "metrics": rows}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
