"""The three workloads: seeded operation sequences and their checks.

Each workload builds, from its seed, an operation list of one or more
rounds.  A round has a fixed composition (how many operations of each
kind, at which sizes); the seed draws the operands and the order inside
the round.  The timed loop makes whole passes over the list, so every
run sees the same work mix and two seeds differ only in operands and
order.

All calls into padicosc go through module attributes
(``zeta.zeta_measure``, ``series.convert``), so the tracing wrappers
installed in those namespaces see them.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

from padicosc import (errors, galois, operators, padics, sampling,
                      serialization, series, zeta)

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Child interpreters start without the site module: padicosc needs only
# the standard library, and the .pth hooks of the host's site-packages
# (tens of ms of imports that vary from host to host) are not part of
# the program being measured.
PYTHON = (sys.executable, "-S")


class CheckFailed(Exception):
    """An operation returned, but its result is wrong."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _diff_exponent(a, b):
    d = a - b
    return None if d.is_zero else d.valuation


class Workload:
    """Operation list built from a seed; subclasses define the kinds.

    The list is ``rounds`` rounds of the workload's fixed composition,
    concatenated; a run passes over the whole list again and again, so
    every operation in it is timed several times.
    """

    name = ""
    rounds = 0

    def __init__(self, seed):
        rounds = [self.build_round(random.Random(seed * 7919 + r))
                  for r in range(self.rounds)]
        self.ops = [op for ops in rounds for op in ops]
        self.round_size = len(rounds[0])
        self.pass_size = len(self.ops)
        # per position, the first position holding the same operation;
        # the timings of equal operations are pooled there
        self.same = list(range(self.pass_size))
        self.tracer = None
        self.counts = Counter()

    def op(self, index):
        return self.ops[index % self.pass_size]

    def prepare_checks(self):
        """Reference values for the checks; not part of set-up time."""


# -- zeta_int_sweep -------------------------------------------------------

# top level per prime: the top level sums 1.2e4..2.7e4 units for each p
SWEEP_TOP = {2: 15, 3: 9, 5: 6, 7: 5, 11: 4, 13: 4}
SWEEP_DIGITS = 20


def sweep_rows():
    """Every even-branch point (p, kappa0, k) with branch-matched k <= 12."""
    rows = []
    for p in SWEEP_TOP:
        torsion = 2 if p == 2 else p - 1
        for kappa0 in range(0, max(p - 2, 0) + 1, 2):
            rows.extend((p, kappa0, k) for k in range(1, 13)
                        if (k - kappa0) % torsion == 0)
    return rows


class ZetaIntSweep(Workload):
    """One operation = one grid row at every level 3..L plus zeta_interp."""

    name = "zeta_int_sweep"
    rounds = 1
    sizes = ("36 rows (p in 2..13, even branches, k <= 12), levels 3..L "
             "with L = %s, precision %d" % (SWEEP_TOP, SWEEP_DIGITS))

    def build_round(self, rng):
        rows = sweep_rows()
        rng.shuffle(rows)
        return rows

    def warmup(self):
        self.run((7, 2, 2))

    def run(self, row):
        p, kappa0, k = row
        branch = galois.Branch(p, kappa0)
        evals = [zeta.zeta_measure(1 - k, branch, level=level,
                                   precision=SWEEP_DIGITS)
                 for level in range(3, SWEEP_TOP[p] + 1)]
        return evals, zeta.zeta_interp(k, branch, precision=SWEEP_DIGITS)

    def check(self, row, result):
        # the rules of acceptance criterion 06: agreement within the
        # reported bound at every level, distance shrinking by >= 1 a level
        evals, target = result
        previous = "unset"
        for ev in evals:
            e = _diff_exponent(ev.value, target)
            _require(e is None or e >= ev.error_bound_exponent,
                     "%r level %d: paths differ at p^%s, bound p^%d"
                     % (row, ev.level, e, ev.error_bound_exponent))
            if previous != "unset":
                _require(e is None or (previous is not None
                                       and e >= previous + 1),
                         "%r level %d: distance p^%s did not shrink from "
                         "p^%s" % (row, ev.level, e, previous))
            previous = e


# -- padic_ladder ---------------------------------------------------------

LADDER_PRIMES = (2, 3, 5, 7, 11)
LADDER_M = 64
LADDER_DIGITS = 48
ROUNDTRIP_M = 16
EVAL_M = 32
EVAL_DIGITS = 24
KERNEL_M = 32
ORBIT_P = 13
S_DIGITS = 12
# (p, level) of the p-adic-s zeta requests in every round: 18..54 units
# each, so p90 falls among the mahler_eval operations, not on these
ZETA_POINTS = ((3, 3), (3, 4), (5, 2), (7, 2))
SECOND_REGULATOR = {3: 5, 5: 3, 7: 5}
KERNEL_SUPPORT = {"raising": KERNEL_M - 1, "lowering": 0, "hamiltonian": 0}


def _unit_int(rng, p, digits):
    u = rng.randrange(1, p**digits)
    while u % p == 0:
        u = rng.randrange(1, p**digits)
    return u


class PadicLadder(Workload):
    """PadicNumber-bound series, operator, orbit and p-adic-s zeta work."""

    name = "padic_ladder"
    rounds = 8
    sizes = ("8 rounds of 24: 5 ladder (M=%d, %d digits), 5 round trips "
             "(M=%d), 5 evaluations (M=%d), 3 kernels (M=%d), 2 orbits "
             "(p=%d), 4 p-adic-s zeta at (p, level) in %s"
             % (LADDER_M, LADDER_DIGITS, ROUNDTRIP_M, EVAL_M, KERNEL_M,
                ORBIT_P, ZETA_POINTS))

    def build_round(self, rng):
        ops = []
        for p in LADDER_PRIMES:
            ops.append(("ladder", p, sampling.random_mahler_series(
                rng, p, LADDER_M, LADDER_DIGITS)))
            ops.append(("roundtrip", p, [
                sampling.random_padic(rng, p, EVAL_DIGITS)
                for _ in range(ROUNDTRIP_M)]))
            guard = padics.vp_factorial(EVAL_M - 1, p)
            ops.append(("eval", p, (
                sampling.random_mahler_series(rng, p, EVAL_M, EVAL_DIGITS),
                [rng.randrange(p**10) for _ in range(4)],
                [padics.PadicNumber.from_int(
                    _unit_int(rng, p, EVAL_DIGITS + guard), p,
                    EVAL_DIGITS + guard) for _ in range(4)])))
        for name in KERNEL_SUPPORT:
            ops.append(("kernel", rng.choice(LADDER_PRIMES), name))
        for _ in range(2):
            ops.append(("orbit", ORBIT_P,
                        (rng.randrange(ORBIT_P - 1), rng.randrange(6, 11))))
        for p, level in ZETA_POINTS:
            u = _unit_int(rng, p, 2 * S_DIGITS)
            while u % p == 1:
                # s = 1 mod p sits near the pole on torsion-trivial branches
                u = _unit_int(rng, p, 2 * S_DIGITS)
            kappa0 = rng.randrange(0, p - 1, 2)
            ops.append(("zeta", p, (level, kappa0, u)))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        rng = random.Random(0)
        for op in self.build_round(rng)[:6]:
            self.run(op)

    def run(self, op):
        kind, p, arg = op
        return getattr(self, "_run_" + kind)(p, arg)

    def check(self, op, result):
        kind, p, arg = op
        getattr(self, "_check_" + kind)(p, arg, result)

    # each kind: _run_* does the library work, _check_* verifies it

    def _run_ladder(self, p, f):
        raised = operators.apply_raising(f)
        lowered = operators.apply_lowering(f)
        hf = operators.hamiltonian(f)
        return (operators.commutator_defect(f),
                operators.hamiltonian(raised) - operators.apply_raising(hf)
                - raised,
                operators.hamiltonian(lowered) - operators.apply_lowering(hf)
                + lowered)

    def _check_ladder(self, p, f, result):
        defect, up, down = result
        _require(all(c.is_zero for c in defect.coefficients[:LADDER_M - 1]),
                 "p=%d: [a-, a+] - 1 nonzero below M-1" % p)
        _require(all(c.is_zero for c in up.coefficients),
                 "p=%d: [H, a+] != a+" % p)
        _require(all(c.is_zero for c in down.coefficients),
                 "p=%d: [H, a-] != -a-" % p)

    def _run_roundtrip(self, p, samples):
        f = series.mahler_expand(samples)
        return f, series.convert_back(series.convert(f))

    def _check_roundtrip(self, p, samples, result):
        f, back = result
        _require(back.coefficients == f.coefficients,
                 "p=%d: convert_back(convert(f)) changed coefficients" % p)

    def _run_eval(self, p, arg):
        f, ints, points = arg
        at_ints = [series.mahler_eval(f, x) for x in ints]
        at_points = [(series.mahler_eval(f, x),
                      series.mahler_eval(f, x.residue(x.precision)))
                     for x in points]
        return at_ints, at_points

    def _check_eval(self, p, arg, result):
        f, ints, _points = arg
        at_ints, at_points = result
        for x, value in zip(ints, at_ints):
            exact = sum(c.to_fraction() * series.mahler_basis_eval_int(n, x)
                        for n, c in enumerate(f.coefficients))
            _require((value - padics.PadicNumber.from_fraction(
                exact, p, 2 * EVAL_DIGITS + 10)).is_zero,
                "p=%d: mahler_eval(f, %d) wrong" % (p, x))
        for padic_value, int_value in at_points:
            # x and its integer representative agree to x's precision,
            # so the two values agree to the value's precision
            _require((padic_value - int_value).is_zero,
                     "p=%d: p-adic and integer evaluation disagree" % p)

    def _run_kernel(self, p, name):
        return operators.kernel_solve(
            operators.as_matrix(name, KERNEL_M, p, LADDER_DIGITS))

    def _check_kernel(self, p, name, basis):
        _require(len(basis) == 1, "p=%d %s: kernel dimension %d"
                 % (p, name, len(basis)))
        support = [i for i, c in enumerate(basis[0].coefficients)
                   if not c.is_zero]
        _require(support == [KERNEL_SUPPORT[name]]
                 and basis[0].coefficients[support[0]].to_fraction() == 1,
                 "p=%d %s: kernel vector supported on %s" % (p, name, support))

    def _run_orbit(self, p, arg):
        kappa0, m = arg
        return galois.orbit(galois.Branch(p, kappa0),
                            operators.as_matrix("hamiltonian", m, p, 16))

    def _check_orbit(self, p, arg, result):
        kappa0, _m = arg
        expected = (p - 1) // gcd(kappa0, p - 1)
        _require(result[1] == expected, "p=%d kappa0=%d: period %d, not %d"
                 % (p, kappa0, result[1], expected))

    def _measure(self, p, level, kappa0, u, regulator):
        """One p-adic-s request, carrying s at exactly the requested
        digits; on PrecisionExhaustedError it retries once with twice
        the digits and counts the retry."""
        branch = galois.Branch(p, kappa0)
        digits = S_DIGITS
        for attempt in (0, 1):
            s = padics.PadicNumber.from_int(u % p**digits, p, digits)
            try:
                return zeta.zeta_measure(s, branch, regulator=regulator,
                                         level=level, precision=S_DIGITS)
            except errors.PrecisionExhaustedError:
                if attempt:
                    raise
                self.counts["zeta.precision_retries"] += 1
                digits *= 2

    def _run_zeta(self, p, arg):
        level, kappa0, u = arg
        return [self._measure(p, level, kappa0, u, r)
                for r in (zeta.default_regulator(p), SECOND_REGULATOR[p])]

    def _check_zeta(self, p, arg, result):
        first, second = result
        bound = min(first.error_bound_exponent, second.error_bound_exponent)
        e = _diff_exponent(first.value, second.value)
        _require(e is None or e >= bound,
                 "p=%d %r: regulators disagree at p^%s, bound p^%d"
                 % (p, arg, e, bound))


# -- cli_cold -------------------------------------------------------------

README_ARGV = (
    ("--p", "2", "--precision", "32", "zeta-interp", "2"),
    ("--p", "5", "--m", "64", "commutator-check", "--trials", "50",
     "--seed", "7"),
    ("--p", "5", "orbit", "2"),
)
ROADMAP_ARGV = ("--p", "7", "--kappa0", "2", "--precision", "20",
                "zeta-measure", "8", "--levels", "3..7")
# zeta-table K per round: 2 light and 3 heavy, each band cut into one
# stratum per table with a fixed prime (a table's cost depends on p).
# The seed moves K by at most TABLE_JITTER around the middle of its
# stratum, so p50 falls among the README runs and p90 among heavy
# tables, and runs with different seeds do about the same work.
TABLE_LIGHT = (150, 275, (5, 7))
TABLE_HEAVY = (325, 400, (2, 3, 7))
TABLE_JITTER = 4


def _table_args(argv):
    """((p, kappa0), kmax) of a zeta-table argv built by CliCold."""
    flags = dict(zip(argv[::2], argv[1::2]))
    return (int(flags["--p"]), int(flags["--kappa0"])), int(argv[-1])


def _with_output(argv, output):
    """Global flags come before the subcommand."""
    return ("--output", output) + tuple(argv)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PADICOSC_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"   # text output prints U+2026
    return env


class CliCold(Workload):
    """One fresh ``python -S -m padicosc.cli`` process per operation."""

    name = "cli_cold"
    rounds = 1
    sizes = ("round of 20 processes: README examples x {json,text} x 2, "
             "2 zeta-table K = 181, 243 (p = 5, 7) and 3 K = 337, 362, 387 "
             "(p = 2, 3, 7), each +-%d by the seed, the ROADMAP "
             "zeta-measure row, one README and one light zeta-table argv "
             "repeated" % TABLE_JITTER)

    def build_round(self, rng):
        readme = [_with_output(argv, out) for argv in README_ARGV
                  for out in ("json", "text")] * 2
        tables = []
        for lo, hi, primes in (TABLE_LIGHT, TABLE_HEAVY):
            for j, p in enumerate(primes):
                k = (lo + (hi - lo) * (2 * j + 1) // (2 * len(primes))
                     + rng.randrange(-TABLE_JITTER, TABLE_JITTER + 1))
                kappa0 = rng.randrange(0, max(p - 2, 0) + 1, 2)
                tables.append(_with_output(
                    ("--p", str(p), "--kappa0", str(kappa0), "zeta-table",
                     str(k)), rng.choice(("json", "text"))))
        ops = readme + tables + [
            _with_output(ROADMAP_ARGV, rng.choice(("json", "text")))]
        rng.shuffle(ops)
        # the repeated table is a light one, so p90 does not depend on
        # which table the seed repeats
        for group in (readme, tables[:len(TABLE_LIGHT[2])]):
            # a repeat comes after the run it must reproduce byte for byte
            i = ops.index(rng.choice(group))
            ops.insert(rng.randrange(i + 1, len(ops) + 1), ops[i])
        return ops

    def __init__(self, seed):
        super().__init__(seed)
        first = {}
        self.same = [first.setdefault(argv, i)
                     for i, argv in enumerate(self.ops)]
        self.env = child_env()
        self.seen = {}

    def warmup(self):
        self._spawn(_with_output(README_ARGV[2], "json"))

    def prepare_checks(self):
        # zeta-table K rows are a prefix of the rows for a larger K, so one
        # table per branch, up to the largest K drawn, covers every op
        top = {}
        for argv in self.ops:
            if "zeta-table" in argv:
                branch, kmax = _table_args(argv)
                top[branch] = max(top.get(branch, 0), kmax)
        self.tables = {}
        for (p, kappa0), kmax in top.items():
            torsion = 2 if p == 2 else p - 1
            branch = galois.Branch(p, kappa0)
            self.tables[p, kappa0] = [
                (k, zeta.zeta_interp(k, branch, precision=32))
                for k in range(1, kmax + 1) if (k - kappa0) % torsion == 0]
        self.roadmap_target = zeta.zeta_interp(8, galois.Branch(7, 2),
                                               precision=20)
        self.interp_2 = zeta.zeta_interp(2, galois.Branch(2, 0),
                                         precision=32)

    def _spawn(self, argv):
        if self.tracer is None:
            cmd = [*PYTHON, "-m", "padicosc.cli", *argv]
        else:
            cmd = [*PYTHON, str(HERE / "cli_child.py"), *argv]
        return subprocess.run(cmd, cwd=str(ROOT), env=self.env,
                              capture_output=True, timeout=120)

    def run(self, argv):
        if self.tracer is None:
            return self._spawn(argv)
        frame = self.tracer.open()
        try:
            proc = self._spawn(argv)
        except Exception:
            self.tracer.close("cli.process", frame)
            raise
        end = tracing.now_ns()
        payload = _child_trace(proc.stderr)
        if payload is not None:
            # the child's spans must be in place before the process span
            # closes, so its self time excludes them
            self.tracer.adopt(payload, frame)
        self.tracer.close("cli.process", frame, end)
        return proc

    def check(self, argv, proc):
        _require(proc.returncode == 0, "%s: exit %d: %s" % (
            " ".join(argv), proc.returncode,
            proc.stderr.decode(errors="replace").strip()[-300:]))
        out = proc.stdout
        self.counts["serialization.bytes_out"] += len(out)
        if argv in self.seen:
            _require(self.seen[argv] == out,
                     "%s: stdout differs from an earlier run" % " ".join(argv))
        self.seen[argv] = out
        text = out.decode()
        output = argv[1]
        sub = next(a for a in argv if a in ("zeta-interp", "commutator-check",
                                            "orbit", "zeta-table",
                                            "zeta-measure"))
        getattr(self, "_check_" + sub.replace("-", "_"))(
            argv, json.loads(text) if output == "json" else text)

    def _check_zeta_interp(self, argv, out):
        if isinstance(out, str):
            _require(serialization.padic_to_text(self.interp_2) in out
                     and "[interpolation]" in out, "zeta-interp text")
            return
        ev = serialization.zeta_report_from_dict(out)
        _require(ev.value == self.interp_2 and ev.s == -1,
                 "zeta-interp value")

    def _check_commutator_check(self, argv, out):
        message = "defect 0 on indices 0..62 for 50/50 trials"
        if isinstance(out, str):
            _require(out.strip() == message, "commutator-check text")
            return
        _require(out["passes"] == out["trials"] == 50
                 and out["message"] == message, "commutator-check json")

    def _check_orbit(self, argv, out):
        if isinstance(out, str):
            lines = out.strip().split("\n")
            _require(lines[0] == "period 2" and len(lines) == 5,
                     "orbit text")
            return
        p, kappa0, period, mats = serialization.orbit_from_dict(out)
        _require((p, kappa0, period, len(mats)) == (5, 2, 2, 4),
                 "orbit json")

    def _check_zeta_table(self, argv, out):
        branch, kmax = _table_args(argv)
        rows = [(k, v) for k, v in self.tables[branch] if k <= kmax]
        if isinstance(out, str):
            want = ["k=%d  s=%d  %s" % (k, 1 - k,
                                         serialization.padic_to_text(v))
                    for k, v in rows]
            _require(out.strip().split("\n") == want, "zeta-table text")
            return
        got = [(row["k"], serialization.padic_from_dict(row["value"]))
               for row in out["rows"]]
        _require(got == rows, "zeta-table values differ from zeta_interp")

    def _check_zeta_measure(self, argv, out):
        if isinstance(out, str):
            lines = out.strip().split("\n")
            _require(len(lines) == 5 and all(
                "[measure, r=" in line for line in lines),
                "zeta-measure text")
            return
        evals = [serialization.zeta_report_from_dict(d)
                 for d in out["evaluations"]]
        _require([ev.level for ev in evals] == [3, 4, 5, 6, 7],
                 "zeta-measure levels")
        for ev in evals:
            e = _diff_exponent(ev.value, self.roadmap_target)
            _require(e is None or e >= ev.error_bound_exponent,
                     "zeta-measure level %d disagrees with zeta_interp"
                     % ev.level)


TRACE_MARK = b"PERFBENCH_TRACE "


def _child_trace(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


WORKLOADS = {w.name: w for w in (ZetaIntSweep, PadicLadder, CliCold)}


def prepare(name, seed):
    """Set-up: inputs from the seed, then a warm-up operation."""
    wl = WORKLOADS[name](seed)
    wl.warmup()
    return wl
