"""Command-line front end.

One subcommand per invocation, JSON (default) or text on stdout,
diagnostics on stderr.  Exit status: 0 success, 1 domain/config/input
error, 2 precision exhaustion.

Configuration resolves in three layers: built-in defaults, then an
optional JSON config file (path from the PADICOSC_CONFIG environment
variable, falling back to --config), then explicit flags.  With
PADICOSC_CI set, randomized subcommands refuse to run without an
explicit seed.
"""

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Tuple

from .errors import (
    ConfigError,
    DomainError,
    InputFormatError,
    PadicError,
    PoleError,
    PrecisionExhaustedError,
)
from .padics import PadicNumber, angle, is_prime, teichmuller
from .series import MahlerSeries, mahler_expand, vdp_expand
from .operators import (
    APPLY,
    OPERATOR_NAMES,
    as_matrix,
    commutator_defect,
    kernel_solve,
)
from .galois import Branch, orbit
from .zeta import ZetaBranchEval, _torsion_order, zeta_interp, zeta_measure
from .sampling import random_mahler_series
from .serialization import (
    dumps,
    format_series_file,
    orbit_to_dict,
    padic_to_dict,
    padic_to_text,
    parse_samples_file,
    parse_series_file,
    read_text_file,
    series_to_dict,
    zeta_report_to_dict,
    SCHEMA_VERSION,
)

CONFIG_ENV = "PADICOSC_CONFIG"
CI_ENV = "PADICOSC_CI"

_DEFAULTS = {"p": 5, "precision": 32, "m": 8, "kappa0": 0, "level": 5,
             "regulator": None, "output": "json", "seed": None}


class _UsageError(ConfigError):
    """Bad flags or arguments; reported with usage wording."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    prime: int
    precision_digits: int
    truncation: int
    kappa0: int
    level: int
    regulator: Optional[int]
    output: str
    seed: Optional[int]

    def __post_init__(self):
        def check_int(name, v, minimum=None):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError("%s must be an integer, got %r" % (name, v))
            if minimum is not None and v < minimum:
                raise ConfigError("%s must be >= %d, got %d"
                                  % (name, minimum, v))

        check_int("p", self.prime)
        if not is_prime(self.prime):
            raise ConfigError("p = %d is not prime" % self.prime)
        check_int("precision", self.precision_digits, 4)
        check_int("m", self.truncation, 4)
        check_int("level", self.level, 1)
        check_int("kappa0", self.kappa0, 0)
        if self.kappa0 > max(self.prime - 2, 0):
            raise ConfigError("kappa0 = %d out of range 0..%d for p = %d"
                              % (self.kappa0, max(self.prime - 2, 0),
                                 self.prime))
        if self.regulator is not None:
            check_int("regulator", self.regulator)
            if gcd(self.regulator, self.prime) != 1:
                raise ConfigError("regulator %d is not a unit at p = %d"
                                  % (self.regulator, self.prime))
        if self.output not in ("text", "json"):
            raise ConfigError("output must be 'text' or 'json', got %r"
                              % (self.output,))
        if self.seed is not None:
            check_int("seed", self.seed)


def _build_parser() -> _Parser:
    parser = _Parser(prog="padicosc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--p", type=int, default=None, help="the prime")
    parser.add_argument("--precision", type=int, default=None,
                        help="significant base-p digits (>= 4)")
    parser.add_argument("--m", type=int, default=None,
                        help="series truncation window M (>= 4)")
    parser.add_argument("--kappa0", type=int, default=None,
                        help="branch index, 0 <= kappa0 <= p-2")
    parser.add_argument("--level", type=int, default=None,
                        help="disc level N for measure sums")
    parser.add_argument("--regulator", type=int, default=None,
                        help="regulator r coprime to p (default: smallest "
                             "primitive root mod p^2)")
    parser.add_argument("--output", choices=("text", "json"), default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized subcommands")
    parser.add_argument("--config", default=None,
                        help="JSON config file (overridden by $%s)"
                             % CONFIG_ENV)

    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="subcommand")

    s = sub.add_parser("teichmuller", help="omega(alpha) and <alpha>")
    s.add_argument("alpha", type=int)

    s = sub.add_parser("mahler-expand",
                       help="binomial-basis series from a samples file")
    s.add_argument("path")

    s = sub.add_parser("vdp-expand",
                       help="van der Put series from a samples file")
    s.add_argument("path")

    s = sub.add_parser("apply", help="apply a ladder operator to a series")
    s.add_argument("op", choices=OPERATOR_NAMES)
    s.add_argument("path")

    s = sub.add_parser("commutator-check",
                       help="[a-, a+] = 1 on seeded random series")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", dest="cmd_seed", type=int, default=None)

    s = sub.add_parser("kernel", help="null-space basis of an operator")
    s.add_argument("op", choices=OPERATOR_NAMES)

    s = sub.add_parser("orbit", help="cyclic branch orbit of a matrix")
    s.add_argument("kappa0", type=int)

    s = sub.add_parser("zeta-interp",
                       help="zeta value at s = 1-k by exact interpolation")
    s.add_argument("k", type=int)

    s = sub.add_parser("zeta-measure",
                       help="zeta value at s = 1-k by the measure sum")
    s.add_argument("k", type=int)
    s.add_argument("--levels", default=None, metavar="A..B",
                   help="evaluate at every level in the range, e.g. 3..7")

    s = sub.add_parser("zeta-table",
                       help="interpolated values for matched k <= kmax")
    s.add_argument("kmax", type=int)

    return parser


def _load_config(ns: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    path = os.environ.get(CONFIG_ENV) or ns.config
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config file %s: %s"
                              % (path, exc)) from exc
        try:
            loaded = json.loads(raw)
        except ValueError as exc:
            raise ConfigError("config file %s is not valid JSON: %s"
                              % (path, exc)) from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file %s must hold a JSON object" % path)
        unknown = sorted(set(loaded) - set(_DEFAULTS))
        if unknown:
            raise ConfigError("config file %s has unknown keys: %s"
                              % (path, ", ".join(unknown)))
        values.update(loaded)
    for key in _DEFAULTS:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(prime=values["p"], precision_digits=values["precision"],
                     truncation=values["m"], kappa0=values["kappa0"],
                     level=values["level"], regulator=values["regulator"],
                     output=values["output"], seed=values["seed"])


# -- subcommand handlers ------------------------------------------------


def _series_result(f) -> Tuple[dict, str]:
    payload = dict(series_to_dict(f))
    payload["schema_version"] = SCHEMA_VERSION
    return payload, format_series_file(f).rstrip("\n")


def _cmd_teichmuller(ns, cfg: RunConfig) -> Tuple[dict, str]:
    x = PadicNumber.from_int(ns.alpha, cfg.prime, cfg.precision_digits)
    w = teichmuller(x)
    a = angle(x)
    payload = {"schema_version": SCHEMA_VERSION, "p": cfg.prime,
               "alpha": ns.alpha, "omega": padic_to_dict(w),
               "angle": padic_to_dict(a)}
    text = "omega(%d) = %s\nangle(%d) = %s" % (
        ns.alpha, padic_to_text(w), ns.alpha, padic_to_text(a))
    return payload, text


def _cmd_mahler_expand(ns, cfg: RunConfig) -> Tuple[dict, str]:
    _, samples = parse_samples_file(read_text_file(ns.path))
    return _series_result(mahler_expand(samples))


def _cmd_vdp_expand(ns, cfg: RunConfig) -> Tuple[dict, str]:
    _, samples = parse_samples_file(read_text_file(ns.path))
    return _series_result(vdp_expand(samples))


def _cmd_apply(ns, cfg: RunConfig) -> Tuple[dict, str]:
    f = parse_series_file(read_text_file(ns.path))
    if not isinstance(f, MahlerSeries):
        raise DomainError("apply works on mahler-basis series, got basis vdp")
    return _series_result(APPLY[ns.op](f))


def _cmd_commutator_check(ns, cfg: RunConfig) -> Tuple[dict, str]:
    seed = ns.cmd_seed if ns.cmd_seed is not None else cfg.seed
    if seed is None:
        if os.environ.get(CI_ENV):
            raise ConfigError(
                "commutator-check draws random series; pass --seed when "
                "%s is set" % CI_ENV)
        seed = 0
    if ns.trials < 1:
        raise _UsageError("--trials must be positive")
    rng = random.Random(seed)
    m = cfg.truncation
    for trial in range(ns.trials):
        f = random_mahler_series(rng, cfg.prime, m, cfg.precision_digits)
        defect = commutator_defect(f)
        for i in range(m - 1):
            if not defect.coefficients[i].is_zero:
                raise PadicError(
                    "commutator defect nonzero at index %d on trial %d "
                    "(seed %d)" % (i, trial, seed))
    message = "defect 0 on indices 0..%d for %d/%d trials" % (
        m - 2, ns.trials, ns.trials)
    payload = {"schema_version": SCHEMA_VERSION, "p": cfg.prime, "M": m,
               "precision": cfg.precision_digits, "trials": ns.trials,
               "passes": ns.trials, "seed": seed, "message": message}
    return payload, message


def _cmd_kernel(ns, cfg: RunConfig) -> Tuple[dict, str]:
    """Null space of the truncated M x M matrix.  `kernel raising`
    returns P_{M-1} only because the window drops the top column's
    image; a+ is injective."""
    a = as_matrix(ns.op, cfg.truncation, cfg.prime, cfg.precision_digits)
    basis = kernel_solve(a)
    payload = {"schema_version": SCHEMA_VERSION, "p": cfg.prime,
               "M": cfg.truncation, "operator": ns.op,
               "dimension": len(basis),
               "basis": [series_to_dict(b) for b in basis]}
    lines = ["kernel of %s: dimension %d" % (ns.op, len(basis))]
    for b in basis:
        lines.append(format_series_file(b).rstrip("\n"))
    return payload, "\n".join(lines)


def _matrix_line(t: int, a) -> str:
    if not a.entries:
        return "t=%d: 0" % t
    cells = "; ".join("(%d,%d) %s" % (i, j, padic_to_text(v))
                      for i, j, v in a.entries)
    return "t=%d: %s" % (t, cells)


def _cmd_orbit(ns, cfg: RunConfig) -> Tuple[dict, str]:
    branch = Branch(cfg.prime, ns.kappa0)
    seed_matrix = as_matrix("hamiltonian", cfg.truncation, cfg.prime,
                            cfg.precision_digits)
    mats, period = orbit(branch, seed_matrix)
    payload = orbit_to_dict(cfg.prime, ns.kappa0, period, mats)
    lines = ["period %d" % period]
    lines.extend(_matrix_line(t, a) for t, a in enumerate(mats))
    return payload, "\n".join(lines)


def _zeta_text(ev: ZetaBranchEval) -> str:
    s = ev.s if isinstance(ev.s, int) else padic_to_text(ev.s)
    out = "zeta_{%d,%d}(%s) = %s  [%s" % (
        ev.prime, ev.kappa0, s, padic_to_text(ev.value), ev.path)
    if ev.path == "measure":
        out += ", r=%d, level %d, error O(%d^%d)" % (
            ev.regulator, ev.level, ev.prime, ev.error_bound_exponent)
    return out + "]"


def _cmd_zeta_interp(ns, cfg: RunConfig) -> Tuple[dict, str]:
    branch = Branch(cfg.prime, cfg.kappa0)
    value = zeta_interp(ns.k, branch, precision=cfg.precision_digits)
    ev = ZetaBranchEval(prime=cfg.prime, kappa0=cfg.kappa0, s=1 - ns.k,
                        regulator=None, level=None, value=value,
                        error_bound_exponent=None, path="interpolation")
    return zeta_report_to_dict(ev), _zeta_text(ev)


def _parse_levels(arg: str) -> List[int]:
    lo, sep, hi = arg.partition("..")
    if not sep:
        raise _UsageError("--levels expects A..B, got %r" % arg)
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise _UsageError("--levels expects integers, got %r" % arg)
    if not 1 <= a <= b:
        raise _UsageError("--levels range %r is empty or starts below 1"
                          % arg)
    return list(range(a, b + 1))


def _cmd_zeta_measure(ns, cfg: RunConfig) -> Tuple[dict, str]:
    branch = Branch(cfg.prime, cfg.kappa0)
    levels = [cfg.level] if ns.levels is None else _parse_levels(ns.levels)
    evals = [zeta_measure(1 - ns.k, branch, regulator=cfg.regulator,
                          level=n, precision=cfg.precision_digits)
             for n in levels]
    if len(evals) == 1:
        return zeta_report_to_dict(evals[0]), _zeta_text(evals[0])
    payload = {"schema_version": SCHEMA_VERSION,
               "evaluations": [zeta_report_to_dict(ev) for ev in evals]}
    return payload, "\n".join(_zeta_text(ev) for ev in evals)


def _cmd_zeta_table(ns, cfg: RunConfig) -> Tuple[dict, str]:
    branch = Branch(cfg.prime, cfg.kappa0)
    torsion = _torsion_order(cfg.prime)
    rows = []
    for k in range(1, ns.kmax + 1):
        if (k - cfg.kappa0) % torsion:
            continue
        value = zeta_interp(k, branch, precision=cfg.precision_digits)
        rows.append((k, value))
    payload = {"schema_version": SCHEMA_VERSION, "p": cfg.prime,
               "kappa0": cfg.kappa0,
               "rows": [{"k": k, "s": 1 - k, "value": padic_to_dict(v)}
                        for k, v in rows]}
    lines = ["k=%d  s=%d  %s" % (k, 1 - k, padic_to_text(v))
             for k, v in rows]
    return payload, "\n".join(lines) if lines else "no matched k <= %d" % ns.kmax


_HANDLERS = {
    "teichmuller": _cmd_teichmuller,
    "mahler-expand": _cmd_mahler_expand,
    "vdp-expand": _cmd_vdp_expand,
    "apply": _cmd_apply,
    "commutator-check": _cmd_commutator_check,
    "kernel": _cmd_kernel,
    "orbit": _cmd_orbit,
    "zeta-interp": _cmd_zeta_interp,
    "zeta-measure": _cmd_zeta_measure,
    "zeta-table": _cmd_zeta_table,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse only exits directly for --help
            return int(exc.code or 0)
        cfg = _load_config(ns)
        payload, text = _HANDLERS[ns.subcommand](ns, cfg)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except InputFormatError as exc:
        print("input format error: %s" % exc, file=sys.stderr)
        return 1
    except PoleError as exc:
        print("domain error (pole): %s" % exc, file=sys.stderr)
        return 1
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 1
    except PrecisionExhaustedError as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        return 2
    except PadicError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(dumps(payload) if cfg.output == "json" else text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
