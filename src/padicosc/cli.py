"""Command-line front end.

One subcommand per invocation, JSON (default) or text on stdout,
diagnostics on stderr.  Exit status: 0 success, 1 domain/config/input
error, 2 precision exhaustion.

Every global flag but --config is a config key of the same name; both
are defined once, by a field of RunConfig that carries the setting's
default, help text and bounds.  Configuration resolves in three
layers: those defaults, then an optional JSON config file (path from
the PADICOSC_CONFIG environment variable, falling back to --config),
then explicit flags.  With PADICOSC_CI set, randomized subcommands
refuse to run without an explicit seed.
"""

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field, fields
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
    OPERATOR_NAMES,
    _apply_rule,
    as_matrix,
    commutator_defect,
    kernel_solve,
)
from .galois import Branch, orbit
from .zeta import (ZetaBranchEval, _torsion_order, _validate_regulator,
                   zeta_interp, zeta_measure)
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


class _UsageError(ConfigError):
    """Bad flags or arguments; reported with usage wording."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _setting(default, help, minimum=None, choices=None):
    return field(default=default, metadata={
        "help": help, "minimum": minimum, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """The global settings.  Each field is a --flag and a config-file key
    of the same name.  A setting with choices takes one of them; any
    other is an integer, at least its minimum, or None where that is
    its default."""

    p: int = _setting(5, "the prime")
    precision: int = _setting(32, "significant base-p digits (>= 4)", 4)
    m: int = _setting(8, "series truncation window M (>= 4)", 4)
    kappa0: int = _setting(0, "branch index, 0 <= kappa0 <= p-2", 0)
    level: int = _setting(5, "disc level N for measure sums", 1)
    regulator: Optional[int] = _setting(
        None, "regulator r coprime to p, not +-1 (default: smallest "
              "primitive root mod p^2)")
    output: str = _setting("json", "output format", choices=("text", "json"))
    seed: Optional[int] = _setting(None, "seed for randomized subcommands")

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            choices, minimum = f.metadata["choices"], f.metadata["minimum"]
            if choices is not None:
                if v not in choices:
                    raise ConfigError("%s must be %s, got %r" % (
                        f.name, " or ".join(map(repr, choices)), v))
            elif v is None and f.default is None:
                continue
            elif not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError("%s must be an integer, got %r"
                                  % (f.name, v))
            elif minimum is not None and v < minimum:
                raise ConfigError("%s must be >= %d, got %d"
                                  % (f.name, minimum, v))
        if not is_prime(self.p):
            raise ConfigError("p = %d is not prime" % self.p)
        if self.kappa0 > max(self.p - 2, 0):
            raise ConfigError("kappa0 = %d out of range 0..%d for p = %d"
                              % (self.kappa0, max(self.p - 2, 0), self.p))
        if self.regulator is not None:
            try:
                _validate_regulator(self.regulator, self.p)
            except DomainError as exc:
                raise ConfigError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="padicosc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    for f in fields(RunConfig):
        choices = f.metadata["choices"]
        parser.add_argument("--" + f.name, type=None if choices else int,
                            choices=choices, default=None,
                            help=f.metadata["help"])
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
    s.add_argument("cmd_kappa0", metavar="kappa0", type=int)

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
    names = [f.name for f in fields(RunConfig)]
    values = {}
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
        unknown = sorted(set(loaded) - set(names))
        if unknown:
            raise ConfigError("config file %s has unknown keys: %s"
                              % (path, ", ".join(unknown)))
        values.update(loaded)
    for name in names:
        flag = getattr(ns, name)
        if flag is not None:
            values[name] = flag
    return RunConfig(**values)


# -- subcommand handlers ------------------------------------------------


def _series_result(f) -> Tuple[dict, str]:
    return series_to_dict(f), format_series_file(f).rstrip("\n")


def _cmd_teichmuller(ns, cfg: RunConfig) -> Tuple[dict, str]:
    x = PadicNumber.from_int(ns.alpha, cfg.p, cfg.precision)
    w = teichmuller(x)
    a = angle(x)
    payload = {"p": cfg.p, "alpha": ns.alpha, "omega": padic_to_dict(w),
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
    return _series_result(_apply_rule(ns.op, f))


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
    m = cfg.m
    for trial in range(ns.trials):
        f = random_mahler_series(rng, cfg.p, m, cfg.precision)
        defect = commutator_defect(f)
        for i in range(m - 1):
            if not defect.coefficients[i].is_zero:
                raise PadicError(
                    "commutator defect nonzero at index %d on trial %d "
                    "(seed %d)" % (i, trial, seed))
    message = "defect 0 on indices 0..%d for %d/%d trials" % (
        m - 2, ns.trials, ns.trials)
    payload = {"p": cfg.p, "M": m, "precision": cfg.precision,
               "trials": ns.trials,
               "passes": ns.trials, "seed": seed, "message": message}
    return payload, message


def _cmd_kernel(ns, cfg: RunConfig) -> Tuple[dict, str]:
    """Null space of the truncated M x M matrix.  `kernel raising`
    returns P_{M-1} only because the window drops the top column's
    image; a+ is injective."""
    a = as_matrix(ns.op, cfg.m, cfg.p, cfg.precision)
    basis = kernel_solve(a)
    payload = {"p": cfg.p, "M": cfg.m, "operator": ns.op,
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
    branch = Branch(cfg.p, ns.cmd_kappa0)
    seed_matrix = as_matrix("hamiltonian", cfg.m, cfg.p,
                            cfg.precision)
    mats, period = orbit(branch, seed_matrix)
    payload = orbit_to_dict(cfg.p, ns.cmd_kappa0, period, mats)
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
    branch = Branch(cfg.p, cfg.kappa0)
    value = zeta_interp(ns.k, branch, precision=cfg.precision)
    ev = ZetaBranchEval(prime=cfg.p, kappa0=cfg.kappa0, s=1 - ns.k,
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
    branch = Branch(cfg.p, cfg.kappa0)
    levels = [cfg.level] if ns.levels is None else _parse_levels(ns.levels)
    evals = [zeta_measure(1 - ns.k, branch, regulator=cfg.regulator,
                          level=n, precision=cfg.precision)
             for n in levels]
    if len(evals) == 1:
        return zeta_report_to_dict(evals[0]), _zeta_text(evals[0])
    payload = {"evaluations": [zeta_report_to_dict(ev) for ev in evals]}
    return payload, "\n".join(_zeta_text(ev) for ev in evals)


def _cmd_zeta_table(ns, cfg: RunConfig) -> Tuple[dict, str]:
    if ns.kmax < 1:
        raise _UsageError("kmax must be positive, got %d" % ns.kmax)
    branch = Branch(cfg.p, cfg.kappa0)
    torsion = _torsion_order(cfg.p)
    rows = []
    for k in range(1, ns.kmax + 1):
        if (k - cfg.kappa0) % torsion:
            continue
        value = zeta_interp(k, branch, precision=cfg.precision)
        rows.append((k, value))
    payload = {"p": cfg.p, "kappa0": cfg.kappa0,
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
    if cfg.output == "json":
        payload["schema_version"] = SCHEMA_VERSION
        text = dumps(payload)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left; keep the exit-time flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed early", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
