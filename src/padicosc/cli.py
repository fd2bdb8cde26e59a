"""Command-line front end.

One subcommand per invocation, JSON (default) or text on stdout,
diagnostics on stderr.  Exit status: 0 success, 1 domain/config/input
error, 2 precision exhaustion.  Each subparser carries its handler
(set_defaults); _EXITS is the one table of stderr labels and statuses.

Every global flag but --config is a config key of the same name; both
are defined once, by a row of SETTINGS, which is also a RunConfig field
and carries the setting's default, help text and bounds.  Configuration
resolves in three layers: those defaults, then an optional JSON config
file (path from the PADICOSC_CONFIG environment variable, falling back
to --config), then explicit flags.  With PADICOSC_CI set, randomized
subcommands refuse to run without an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .errors import (
    ConfigError,
    DomainError,
    InputFormatError,
    PadicError,
    PoleError,
    PrecisionExhaustedError,
)
from .padics import PadicNumber, _Frozen, _torsion_order, angle, teichmuller
from .series import MahlerSeries, mahler_expand, vdp_expand
from .operators import (
    OPERATOR_NAMES,
    _apply_rule,
    as_matrix,
    commutator_defect,
    kernel_solve,
)
from .galois import Branch, orbit
from .zeta import (ZetaBranchEval, _validate_regulator, zeta_interp,
                   zeta_measure)
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


# name -> (default, help, minimum, choices); see RunConfig
SETTINGS = {
    "p": (5, "the prime", None, None),
    "precision": (32, "significant base-p digits (>= 4)", 4, None),
    "m": (8, "series truncation window M (>= 4)", 4, None),
    "kappa0": (0, "branch index, 0 <= kappa0 <= p-2", 0, None),
    "level": (5, "disc level N for measure sums", 1, None),
    "regulator": (None, "regulator r coprime to p, not +-1 (default: "
                        "smallest primitive root mod p^2)", None, None),
    "output": ("json", "output format", None, ("text", "json")),
    "seed": (None, "seed for randomized subcommands", None, None),
}


class RunConfig(_Frozen):
    """The global settings, one field per row of SETTINGS.  Each is a
    --flag and a config-file key of the same name.  A setting with
    choices takes one of them; any other is an integer, at least its
    minimum, or None where that is its default."""

    __slots__ = tuple(SETTINGS)
    _defaults = {name: row[0] for name, row in SETTINGS.items()}

    def __post_init__(self):
        for name, (default, _, minimum, choices) in SETTINGS.items():
            v = getattr(self, name)
            if choices is not None:
                if v not in choices:
                    raise ConfigError("%s must be %s, got %r" % (
                        name, " or ".join(map(repr, choices)), v))
            elif v is None and default is None:
                continue
            elif not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError("%s must be an integer, got %r"
                                  % (name, v))
            elif minimum is not None and v < minimum:
                raise ConfigError("%s must be >= %d, got %d"
                                  % (name, minimum, v))
        # p and kappa0 follow Branch's rules, the regulator zeta's
        try:
            Branch(self.p, self.kappa0)
            if self.regulator is not None:
                _validate_regulator(self.regulator, self.p)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="padicosc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    for name, (_, text, _, choices) in SETTINGS.items():
        parser.add_argument("--" + name, type=None if choices else int,
                            choices=choices, default=None, help=text)
    parser.add_argument("--config", default=None,
                        help="JSON config file (overridden by $%s)"
                             % CONFIG_ENV)

    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="subcommand")

    s = sub.add_parser("teichmuller", help="omega(alpha) and <alpha>")
    s.set_defaults(handler=_cmd_teichmuller)
    s.add_argument("alpha", type=int)

    s = sub.add_parser("mahler-expand",
                       help="binomial-basis series from a samples file")
    s.set_defaults(handler=_cmd_expand, expand=mahler_expand)
    s.add_argument("path")

    s = sub.add_parser("vdp-expand",
                       help="van der Put series from a samples file")
    s.set_defaults(handler=_cmd_expand, expand=vdp_expand)
    s.add_argument("path")

    s = sub.add_parser("apply", help="apply a ladder operator to a series")
    s.set_defaults(handler=_cmd_apply)
    s.add_argument("op", choices=OPERATOR_NAMES)
    s.add_argument("path")

    s = sub.add_parser("commutator-check",
                       help="[a-, a+] = 1 on seeded random series")
    s.set_defaults(handler=_cmd_commutator_check)
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", dest="cmd_seed", type=int, default=None)

    s = sub.add_parser("kernel", help="null-space basis of an operator")
    s.set_defaults(handler=_cmd_kernel)
    s.add_argument("op", choices=OPERATOR_NAMES)

    s = sub.add_parser("orbit", help="cyclic branch orbit of a matrix")
    s.set_defaults(handler=_cmd_orbit)
    s.add_argument("cmd_kappa0", metavar="kappa0", type=int)

    s = sub.add_parser("zeta-interp",
                       help="zeta value at s = 1-k by exact interpolation")
    s.set_defaults(handler=_cmd_zeta_interp)
    s.add_argument("k", type=int)

    s = sub.add_parser("zeta-measure",
                       help="zeta value at s = 1-k by the measure sum")
    s.set_defaults(handler=_cmd_zeta_measure)
    s.add_argument("k", type=int)
    s.add_argument("--levels", default=None, metavar="A..B",
                   help="evaluate at every level in the range, e.g. 3..7")

    s = sub.add_parser("zeta-table",
                       help="interpolated values for matched k <= kmax")
    s.set_defaults(handler=_cmd_zeta_table)
    s.add_argument("kmax", type=int)

    return parser


def _load_config(ns: argparse.Namespace) -> RunConfig:
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
        unknown = sorted(set(loaded) - set(SETTINGS))
        if unknown:
            raise ConfigError("config file %s has unknown keys: %s"
                              % (path, ", ".join(unknown)))
        values.update(loaded)
    for name in SETTINGS:
        flag = getattr(ns, name)
        if flag is not None:
            values[name] = flag
    return RunConfig(**values)


# -- subcommand handlers ------------------------------------------------


def _series_result(f) -> tuple[dict, str]:
    return series_to_dict(f), format_series_file(f).rstrip("\n")


def _cmd_teichmuller(ns, cfg: RunConfig) -> tuple[dict, str]:
    x = PadicNumber.from_int(ns.alpha, cfg.p, cfg.precision)
    w = teichmuller(x)
    a = angle(x)
    payload = {"p": cfg.p, "alpha": ns.alpha, "omega": padic_to_dict(w),
               "angle": padic_to_dict(a)}
    text = "omega(%d) = %s\nangle(%d) = %s" % (
        ns.alpha, padic_to_text(w), ns.alpha, padic_to_text(a))
    return payload, text


def _cmd_expand(ns, cfg: RunConfig) -> tuple[dict, str]:
    _, samples = parse_samples_file(read_text_file(ns.path))
    return _series_result(ns.expand(samples))


def _cmd_apply(ns, cfg: RunConfig) -> tuple[dict, str]:
    f = parse_series_file(read_text_file(ns.path))
    if not isinstance(f, MahlerSeries):
        raise DomainError("apply works on mahler-basis series, got basis vdp")
    return _series_result(_apply_rule(ns.op, f))


def _cmd_commutator_check(ns, cfg: RunConfig) -> tuple[dict, str]:
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


def _cmd_kernel(ns, cfg: RunConfig) -> tuple[dict, str]:
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


def _cmd_orbit(ns, cfg: RunConfig) -> tuple[dict, str]:
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


def _cmd_zeta_interp(ns, cfg: RunConfig) -> tuple[dict, str]:
    branch = Branch(cfg.p, cfg.kappa0)
    value = zeta_interp(ns.k, branch, precision=cfg.precision)
    ev = ZetaBranchEval(prime=cfg.p, kappa0=cfg.kappa0, s=1 - ns.k,
                        regulator=None, level=None, value=value,
                        error_bound_exponent=None, path="interpolation")
    return zeta_report_to_dict(ev), _zeta_text(ev)


def _parse_levels(arg: str) -> list[int]:
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


def _cmd_zeta_measure(ns, cfg: RunConfig) -> tuple[dict, str]:
    branch = Branch(cfg.p, cfg.kappa0)
    levels = [cfg.level] if ns.levels is None else _parse_levels(ns.levels)
    evals = [zeta_measure(1 - ns.k, branch, regulator=cfg.regulator,
                          level=n, precision=cfg.precision)
             for n in levels]
    if len(evals) == 1:
        return zeta_report_to_dict(evals[0]), _zeta_text(evals[0])
    payload = {"evaluations": [zeta_report_to_dict(ev) for ev in evals]}
    return payload, "\n".join(_zeta_text(ev) for ev in evals)


def _cmd_zeta_table(ns, cfg: RunConfig) -> tuple[dict, str]:
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


# (error class, stderr label, exit status).  The first matching row wins,
# so each subclass sits above its base (see errors.py and _UsageError).
_EXITS = (
    (_UsageError, "usage error", 1),
    (ConfigError, "config error", 1),
    (InputFormatError, "input format error", 1),
    (PoleError, "domain error (pole)", 1),
    (DomainError, "domain error", 1),
    (PrecisionExhaustedError, "precision exhausted", 2),
    (PadicError, "error", 1),
)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse only exits directly for --help
            return int(exc.code or 0)
        cfg = _load_config(ns)
        payload, text = ns.handler(ns, cfg)
    except PadicError as exc:
        _, label, status = next(r for r in _EXITS if isinstance(exc, r[0]))
        print("%s: %s" % (label, exc), file=sys.stderr)
        return status
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
