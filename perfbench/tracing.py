"""Spans and counters recorded from outside the padicosc package.

Tracing wraps each layer's public functions where they are bound: in
every padicosc module namespace that holds the function object, so a
call from one layer into another (``padicosc.cli.dumps``,
``padicosc.zeta.unit_power``) passes through the wrapper as well.  Each
wrapped call records a span: name, start, end, parent span and the id
of the workload operation it ran under.  Spans are kept in memory and
written out when the run ends.

PadicNumber arithmetic runs millions of times per run, far too often
for one span per call.  It is counted and timed in aggregate instead:
the outermost arithmetic call (and the outermost ``teichmuller`` /
``unit_power`` call) adds its duration to the innermost open span's
``padics`` share, so that span's self time excludes it.

Self time of a span = its duration - the time its child spans cover -
the padics time spent directly under it.
"""

import functools
import json
import time
from collections import Counter, defaultdict

now_ns = time.monotonic_ns   # CLOCK_MONOTONIC: comparable across processes

# span name -> public function, per layer module
SPANNED = {
    "series": ("mahler_eval", "mahler_expand", "convert", "convert_back",
               "vdp_eval", "vdp_expand"),
    "operators": ("apply_raising", "apply_lowering", "hamiltonian",
                  "commutator_defect", "as_matrix", "kernel_solve",
                  "mat_scale", "matrices_agree"),
    "galois": ("orbit", "rho_prime_apply", "fixed_generator"),
    "zeta": ("zeta_measure", "zeta_interp", "bernoulli"),
    "serialization": ("dumps", "padic_to_dict", "padic_to_text",
                      "series_to_dict", "zeta_report_to_dict",
                      "orbit_to_dict", "matrix_to_dict",
                      "format_series_file"),
}
# padics functions timed in aggregate, like the arithmetic
AGGREGATED = ("teichmuller", "unit_power")
ARITHMETIC = {
    "__add__": "padics.add_calls", "__radd__": "padics.add_calls",
    "__sub__": "padics.add_calls", "__rsub__": "padics.add_calls",
    "__mul__": "padics.mul_calls", "__rmul__": "padics.mul_calls",
    "__truediv__": "padics.div_calls", "__rtruediv__": "padics.div_calls",
}
PER_LAYER_UNITS = {
    "padics.add_ns": "ns", "padics.mul_ns": "ns", "padics.mul_int_ns": "ns",
    "padics.div_ns": "ns", "padics.teichmuller_us": "us",
    "padics.unit_power_us": "us", "padics.objects_built": "count",
    "padics.add_calls": "count", "padics.mul_calls": "count",
    "padics.div_calls": "count",
    "series.mahler_eval_int_us": "us", "series.mahler_eval_padic_us": "us",
    "series.mahler_expand_ms": "ms", "series.convert_ms": "ms",
    "series.convert_back_ms": "ms", "series.self_s": "s",
    "operators.commutator_defect_ms": "ms", "operators.as_matrix_ms": "ms",
    "operators.kernel_solve_ms": "ms", "operators.self_s": "s",
    "galois.orbit_ms": "ms", "galois.orbit_period": "count",
    "zeta.measure_ms": "ms", "zeta.residues": "count",
    "zeta.ns_per_residue": "ns", "zeta.generic_ns_per_residue": "ns",
    "zeta.interp_us": "us", "zeta.bernoulli_ms": "ms",
    "zeta.bernoulli_entries": "count", "zeta.precision_retries": "count",
    "serialization.dumps_ms": "ms", "serialization.to_text_ms": "ms",
    "serialization.bytes_out": "count",
    "cli.import_ms": "ms", "cli.main_ms": "ms", "cli.process_ms": "ms",
}
LAYERS = ("padics", "series", "operators", "galois", "zeta",
          "serialization", "cli")


def _modules():
    import padicosc
    from padicosc import (cli, galois, operators, padics, serialization,
                          series, zeta)
    return {"padicosc": padicosc, "padics": padics, "series": series,
            "operators": operators, "galois": galois, "zeta": zeta,
            "serialization": serialization, "cli": cli}


class Tracer:
    """In-memory span log plus exact counters for one process."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent, op, self_ns)
        self.stack = []        # open frames: [id, start, child_ns, padics_ns]
        self.next_id = 0
        self.op = None
        self.active = False     # only work inside ``run`` is recorded
        self.counts = Counter()
        self.padics_ns = 0
        self._arith_depth = 0
        self._padics_depth = 0
        self._restore = []

    def run(self, op, fn, *args):
        """Call ``fn`` as operation ``op``: the only time the wrappers
        record, so the benchmark's own checks stay out of the counts."""
        self.op, self.active = op, True
        try:
            return fn(*args)
        finally:
            self.active = False

    # -- spans ---------------------------------------------------------

    def open(self, start=None):
        frame = [self.next_id, now_ns() if start is None else start, 0, 0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, name, frame, end=None):
        end = now_ns() if end is None else end
        self.stack.pop()
        sid, start, child_ns, padics_ns = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((sid, name, start, end,
                           None if parent is None else parent[0], self.op,
                           duration - child_ns - padics_ns))

    def add_padics(self, ns):
        self.padics_ns += ns
        if self.stack:
            self.stack[-1][3] += ns

    def adopt(self, payload, parent_frame):
        """Merge spans and counters recorded by a child process, with
        the child's root spans placed under ``parent_frame``."""
        base = self.next_id
        roots = 0
        for sid, name, start, end, parent, _op, self_ns in payload["spans"]:
            if parent is None:
                roots += end - start
                parent = parent_frame[0]
            else:
                parent += base
            self.spans.append((sid + base, name, start, end, parent,
                               self.op, self_ns))
            self.next_id = max(self.next_id, sid + base + 1)
        parent_frame[2] += roots
        self.padics_ns += payload["padics_ns"]
        self.counts.update(payload["counts"])

    def payload(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "padics_ns": self.padics_ns}

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            before = hook[0]() if hook else None
            frame = tracer.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(label, frame)
            if hook:
                hook[1](tracer.counts, args, before, result)
            return result

        return traced

    def _padics_wrapper(self, fn, count_key=None):
        """Aggregate timing; arithmetic (``count_key`` given) is also
        counted, once per outermost call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_key is not None:
                if not tracer._arith_depth:
                    tracer.counts[count_key] += 1
                tracer._arith_depth += 1
            outer = not tracer._padics_depth
            if outer:
                tracer._padics_depth = 1
                start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                if count_key is not None:
                    tracer._arith_depth -= 1
                if outer:
                    tracer._padics_depth = 0
                    tracer.add_padics(now_ns() - start)

        return traced

    def install(self):
        """Wrap every traced function in every namespace that binds it."""
        mods = _modules()
        from padicosc.padics import PadicNumber

        replacements = {}
        for layer, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                replacements[fn] = self._span_wrapper(
                    _span_name(layer, fname), fn, HOOKS.get(fname))
        for fname in AGGREGATED:
            fn = getattr(mods["padics"], fname)
            replacements[fn] = self._padics_wrapper(fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replacements:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacements[value])

        for meth, key in ARITHMETIC.items():
            fn = PadicNumber.__dict__[meth]
            self._restore.append((PadicNumber, meth, fn))
            setattr(PadicNumber, meth, self._padics_wrapper(fn, key))
        init = PadicNumber.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.counts["padics.objects_built"] += 1
            init(obj, *args, **kwargs)

        self._restore.append((PadicNumber, "__init__", init))
        PadicNumber.__init__ = counted_init

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "self_ns": self_ns}) + "\n")


def _span_name(layer, fname):
    if fname == "mahler_eval":
        return lambda args: ("series.mahler_eval_int"
                             if isinstance(args[1], int)
                             else "series.mahler_eval_padic")
    if fname == "zeta_measure":
        return lambda args: ("zeta.measure_int" if isinstance(args[0], int)
                             else "zeta.measure_generic")
    return "%s.%s" % (layer, fname)


def _nothing():
    return None


def _count_units(counts, args, _before, ev):
    """Units summed by one zeta_measure call, from its prime and level."""
    units = ev.prime**ev.level - ev.prime**(ev.level - 1)
    kind = "int" if isinstance(args[0], int) else "generic"
    counts["zeta.residues"] += units
    counts["zeta.residues_" + kind] += units


def _bernoulli_size():
    from padicosc import zeta
    return len(zeta._BERNOULLI)


def _count_entries(counts, _args, before, _result):
    """Entries the Bernoulli memo table grew by during the call."""
    counts["zeta.bernoulli_entries"] += _bernoulli_size() - before


def _count_period(counts, _args, _before, result):
    counts["galois.orbit_calls"] += 1
    counts["galois.orbit_period"] += result[1]


HOOKS = {"zeta_measure": (_nothing, _count_units),
         "bernoulli": (_bernoulli_size, _count_entries),
         "orbit": (_nothing, _count_period)}


# -- summaries ------------------------------------------------------------


def median(values):
    values = sorted(values)
    n = len(values)
    if not n:
        return 0.0
    mid = n // 2
    return float(values[mid]) if n % 2 else (values[mid - 1] + values[mid]) / 2


def summarize(spans, run_counts, pass_counts, count_ops, padics_ns, ops_done,
              op_time_ns):
    """Per-layer metrics, plus the share of operation time each layer
    and each of the six costliest span names spent in self time.

    Exact counts come from ``pass_counts``, the counters after the
    first ``count_ops`` operations, and are reported per operation over
    that prefix, which repeats exactly for one seed.  Timings cover the
    whole run; a function the workload never calls reports 0.
    """
    durations = defaultdict(list)
    self_by_name = defaultdict(int)
    for _sid, name, start, end, _parent, _op, self_ns in spans:
        durations[name].append(end - start)
        self_by_name[name] += self_ns
    self_by_name["padics.aggregated"] += padics_ns
    self_by_layer = defaultdict(int)
    for name, ns in self_by_name.items():
        self_by_layer[name.split(".", 1)[0]] += ns
    ops = max(ops_done, 1)

    def med(name, scale):
        return median(durations.get(name, ())) / scale

    def per_op_total(name, scale):
        return sum(durations.get(name, ())) / scale / ops

    def exact(key):
        return pass_counts.get(key, 0) / count_ops

    def per_residue(name, key):
        units = run_counts.get(key, 0)
        return sum(durations.get(name, ())) / units if units else 0.0

    orbits = pass_counts.get("galois.orbit_calls", 0)
    metrics = {
        "padics.objects_built": exact("padics.objects_built"),
        "padics.add_calls": exact("padics.add_calls"),
        "padics.mul_calls": exact("padics.mul_calls"),
        "padics.div_calls": exact("padics.div_calls"),
        "series.mahler_eval_int_us": med("series.mahler_eval_int", 1e3),
        "series.mahler_eval_padic_us": med("series.mahler_eval_padic", 1e3),
        "series.mahler_expand_ms": med("series.mahler_expand", 1e6),
        "series.convert_ms": med("series.convert", 1e6),
        "series.convert_back_ms": med("series.convert_back", 1e6),
        "series.self_s": self_by_layer["series"] / 1e9 / ops,
        "operators.commutator_defect_ms":
            med("operators.commutator_defect", 1e6),
        "operators.as_matrix_ms": med("operators.as_matrix", 1e6),
        "operators.kernel_solve_ms": med("operators.kernel_solve", 1e6),
        "operators.self_s": self_by_layer["operators"] / 1e9 / ops,
        "galois.orbit_ms": med("galois.orbit", 1e6),
        "galois.orbit_period": (pass_counts.get("galois.orbit_period", 0)
                                / orbits if orbits else 0.0),
        "zeta.measure_ms": median(durations.get("zeta.measure_int", [])
                                  + durations.get("zeta.measure_generic",
                                                  [])) / 1e6,
        "zeta.residues": exact("zeta.residues"),
        "zeta.ns_per_residue": per_residue("zeta.measure_int",
                                           "zeta.residues_int"),
        "zeta.generic_ns_per_residue": per_residue("zeta.measure_generic",
                                                   "zeta.residues_generic"),
        "zeta.interp_us": med("zeta.zeta_interp", 1e3),
        "zeta.bernoulli_ms": per_op_total("zeta.bernoulli", 1e6),
        "zeta.bernoulli_entries": exact("zeta.bernoulli_entries"),
        "zeta.precision_retries": exact("zeta.precision_retries"),
        "serialization.dumps_ms": per_op_total("serialization.dumps", 1e6),
        "serialization.to_text_ms":
            per_op_total("serialization.padic_to_text", 1e6),
        "serialization.bytes_out": exact("serialization.bytes_out"),
        "cli.import_ms": med("cli.import", 1e6),
        "cli.main_ms": med("cli.main", 1e6),
        "cli.process_ms": med("cli.process", 1e6),
    }
    def share(ns):
        return round(ns / op_time_ns, 4) if op_time_ns else 0.0

    split = {layer: share(self_by_layer.get(layer, 0)) for layer in LAYERS}
    split["unspanned"] = share(op_time_ns - sum(self_by_layer.values()))
    top = sorted(self_by_name.items(), key=lambda kv: -kv[1])[:6]
    return metrics, {"layer_split": split,
                     "top_self_spans": {name: share(ns) for name, ns in top}}
