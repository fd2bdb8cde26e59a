"""JSON and text forms for numbers, series, matrices and reports.

Everything produced here is plain JSON data (ints, strings, lists,
dicts, null), so ``json.dumps(obj, sort_keys=True)`` yields a canonical
byte stream.  Parsing is strict: input that does not match the
documented shape raises InputFormatError instead of guessing.

Number record: {"p", "valuation", "digits", "precision"} with the
little-endian base-p digits of the unit part, or {"p", "zero": true,
"known_to"} for a zero marker (known_to null = exact zero).  Series:
{"basis": "mahler"|"vdp", "p", "M", "coefficients",
"tail_bound_exponent"}.  Matrix: {"p", "M", "rows"} with rows a list of
[i, j, number] triplets.  Reports carry a "schema_version" field.

Series and samples files are line oriented: one JSON header line,
then one number record per line.  Blank lines are ignored.
"""

import json
from typing import Any, List, Optional, Sequence, Tuple, Union

from .errors import InputFormatError
from .padics import DEFAULT_PRECISION, PadicNumber, is_prime
from .series import MahlerSeries, VanDerPutSeries
from .operators import OperatorMatrix
from .zeta import ZetaBranchEval

SCHEMA_VERSION = 1

_BASIS_CLASSES = {"mahler": MahlerSeries, "vdp": VanDerPutSeries}
_SAMPLES_TOKEN = "samples"


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no trailing newline."""
    return json.dumps(obj, sort_keys=True)


# -- field checking ----------------------------------------------------


def _get(d: dict, key: str, what: str) -> Any:
    if key not in d:
        raise InputFormatError("%s: missing key %r" % (what, key))
    return d[key]


def _get_int(d: dict, key: str, what: str) -> int:
    v = _get(d, key, what)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputFormatError("%s: key %r must be an integer" % (what, key))
    return v


def _get_opt_int(d: dict, key: str, what: str) -> Optional[int]:
    v = _get(d, key, what)
    if v is not None and (not isinstance(v, int) or isinstance(v, bool)):
        raise InputFormatError(
            "%s: key %r must be an integer or null" % (what, key))
    return v


def _get_prime(d: dict, what: str) -> int:
    p = _get_int(d, "p", what)
    if not is_prime(p):
        raise InputFormatError("%s: p = %d is not prime" % (what, p))
    return p


def _require_dict(d: Any, what: str) -> dict:
    if not isinstance(d, dict):
        raise InputFormatError("%s: expected a JSON object" % what)
    return d


# -- PadicNumber -------------------------------------------------------


def padic_to_dict(x: PadicNumber) -> dict:
    if x.is_zero:
        return {"p": x.prime, "zero": True, "known_to": x.known_to}
    return {"p": x.prime, "valuation": x.valuation,
            "digits": list(x.digits()), "precision": x.precision}


def padic_from_dict(d: Any, what: str = "number") -> PadicNumber:
    d = _require_dict(d, what)
    p = _get_prime(d, what)
    if d.get("zero", False):
        if d["zero"] is not True:
            raise InputFormatError("%s: key 'zero' must be true" % what)
        return PadicNumber.zero(p, known_to=_get_opt_int(d, "known_to", what))
    v = _get_int(d, "valuation", what)
    n = _get_int(d, "precision", what)
    ds = _get(d, "digits", what)
    if not isinstance(ds, list) or not ds:
        raise InputFormatError("%s: 'digits' must be a nonempty list" % what)
    for a in ds:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < p:
            raise InputFormatError(
                "%s: digits must be integers in [0, %d)" % (what, p))
    if ds[0] == 0:
        raise InputFormatError(
            "%s: leading digit 0, the unit part must be coprime to p" % what)
    if n != len(ds):
        raise InputFormatError(
            "%s: precision %d does not match %d digits" % (what, n, len(ds)))
    unit = 0
    for a in reversed(ds):
        unit = unit * p + a
    return PadicNumber(prime=p, valuation=v, unit=unit, precision=n)


def padic_to_text(x: PadicNumber) -> str:
    """Human form: "...d2 d1 d0 . p^v + O(p^(v+N))", high digits first."""
    if x.is_exact_zero:
        return "0"
    if x.is_zero:
        return "O(%d^%d)" % (x.prime, x.known_to)
    shown = " ".join(str(a) for a in reversed(x.digits()))
    return "…%s · %d^%d + O(%d^%d)" % (
        shown, x.prime, x.valuation, x.prime, x.valuation + x.precision)


# -- series ------------------------------------------------------------


def series_to_dict(f: Union[MahlerSeries, VanDerPutSeries]) -> dict:
    basis = "mahler" if isinstance(f, MahlerSeries) else "vdp"
    return {"basis": basis, "p": f.prime, "M": f.truncation,
            "coefficients": [padic_to_dict(c) for c in f.coefficients],
            "tail_bound_exponent": f.tail_bound_exponent}


def _check_header(d: Any, what: str, allowed: Sequence[str]) -> Tuple[str, int, int]:
    d = _require_dict(d, what)
    basis = _get(d, "basis", what)
    if basis not in allowed:
        raise InputFormatError(
            "%s: basis must be one of %s, got %r"
            % (what, "/".join(allowed), basis))
    p, m = _get_prime(d, what), _get_int(d, "M", what)
    if m < 1:
        raise InputFormatError("%s: M = %d, need M >= 1" % (what, m))
    return basis, p, m


def series_from_dict(d: Any) -> Union[MahlerSeries, VanDerPutSeries]:
    what = "series"
    basis, p, m = _check_header(d, what, tuple(_BASIS_CLASSES))
    coeffs = _get(d, "coefficients", what)
    if not isinstance(coeffs, list):
        raise InputFormatError("%s: 'coefficients' must be a list" % what)
    if m != len(coeffs):
        raise InputFormatError(
            "%s: M = %r does not match %d coefficients" % (what, m, len(coeffs)))
    parsed = []
    for i, c in enumerate(coeffs):
        x = padic_from_dict(c, "%s coefficient %d" % (what, i))
        if x.prime != p:
            raise InputFormatError(
                "%s coefficient %d: prime %d != header p = %d"
                % (what, i, x.prime, p))
        parsed.append(x)
    tail = _get_opt_int(d, "tail_bound_exponent", what)
    return _BASIS_CLASSES[basis](prime=p, coefficients=tuple(parsed),
                                 tail_bound_exponent=tail)


# -- series and samples files -----------------------------------------


def _records(text: str, what: str) -> List[dict]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except ValueError as exc:
            raise InputFormatError(
                "%s line %d: invalid JSON (%s)" % (what, lineno, exc)) from exc
    if not out:
        raise InputFormatError("%s: empty file" % what)
    return out


def format_series_file(f: Union[MahlerSeries, VanDerPutSeries]) -> str:
    d = series_to_dict(f)
    header = {"basis": d["basis"], "p": d["p"], "M": d["M"],
              "tail_bound_exponent": d["tail_bound_exponent"]}
    lines = [dumps(header)]
    lines.extend(dumps(c) for c in d["coefficients"])
    return "\n".join(lines) + "\n"


def parse_series_file(text: str) -> Union[MahlerSeries, VanDerPutSeries]:
    what = "series file"
    records = _records(text, what)
    header = _require_dict(records[0], what + " header")
    tail = header.get("tail_bound_exponent", None)
    return series_from_dict({
        "basis": header.get("basis"), "p": header.get("p"),
        "M": header.get("M"), "tail_bound_exponent": tail,
        "coefficients": records[1:]})


def format_samples_file(values: Sequence[PadicNumber], p: int) -> str:
    lines = [dumps({"basis": _SAMPLES_TOKEN, "p": p, "M": len(values)})]
    lines.extend(dumps(padic_to_dict(v)) for v in values)
    return "\n".join(lines) + "\n"


def parse_samples_file(text: str) -> Tuple[int, List[PadicNumber]]:
    """Sample values f(0), ..., f(M-1); returns (p, values)."""
    what = "samples file"
    records = _records(text, what)
    _, p, m = _check_header(records[0], what + " header", (_SAMPLES_TOKEN,))
    values = []
    for i, rec in enumerate(records[1:]):
        x = padic_from_dict(rec, "%s value %d" % (what, i))
        if x.prime != p:
            raise InputFormatError(
                "%s value %d: prime %d != header p = %d" % (what, i, x.prime, p))
        values.append(x)
    if m != len(values):
        raise InputFormatError(
            "%s: header M = %d but %d values follow" % (what, m, len(values)))
    return p, values


def read_text_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc)) from exc


# -- matrices ----------------------------------------------------------


def matrix_to_dict(a: OperatorMatrix) -> dict:
    return {"p": a.prime, "M": a.dimension,
            "rows": [[i, j, padic_to_dict(v)] for i, j, v in a.entries]}


def matrix_from_dict(d: Any) -> OperatorMatrix:
    what = "matrix"
    d = _require_dict(d, what)
    p = _get_prime(d, what)
    m = _get_int(d, "M", what)
    if m < 1:
        raise InputFormatError("%s: M must be positive" % what)
    rows = _get(d, "rows", what)
    if not isinstance(rows, list):
        raise InputFormatError("%s: 'rows' must be a list" % what)
    entries = {}
    for k, triplet in enumerate(rows):
        if not isinstance(triplet, list) or len(triplet) != 3:
            raise InputFormatError(
                "%s row %d: expected an [i, j, value] triplet" % (what, k))
        i, j, rec = triplet
        for idx in (i, j):
            if not isinstance(idx, int) or isinstance(idx, bool) \
                    or not 0 <= idx < m:
                raise InputFormatError(
                    "%s row %d: index out of range [0, %d)" % (what, k, m))
        if (i, j) in entries:
            raise InputFormatError(
                "%s row %d: duplicate position (%d, %d)" % (what, k, i, j))
        v = padic_from_dict(rec, "%s row %d value" % (what, k))
        if v.prime != p:
            raise InputFormatError(
                "%s row %d: prime %d != header p = %d" % (what, k, v.prime, p))
        entries[(i, j)] = v
    return OperatorMatrix.from_dict(p, m, entries, DEFAULT_PRECISION)


# -- reports -----------------------------------------------------------


def orbit_to_dict(p: int, kappa0: int, period: int,
                  mats: Sequence[OperatorMatrix]) -> dict:
    return {"schema_version": SCHEMA_VERSION, "p": p, "kappa0": kappa0,
            "period": period, "orbit": [matrix_to_dict(a) for a in mats]}


def orbit_from_dict(d: Any) -> Tuple[int, int, int, List[OperatorMatrix]]:
    what = "orbit report"
    d = _require_dict(d, what)
    _check_schema(d, what)
    mats = _get(d, "orbit", what)
    if not isinstance(mats, list):
        raise InputFormatError("%s: 'orbit' must be a list" % what)
    return (_get_prime(d, what), _get_int(d, "kappa0", what),
            _get_int(d, "period", what),
            [matrix_from_dict(a) for a in mats])


def zeta_report_to_dict(ev: ZetaBranchEval) -> dict:
    s = ev.s if isinstance(ev.s, int) else padic_to_dict(ev.s)
    return {"schema_version": SCHEMA_VERSION, "p": ev.prime,
            "kappa0": ev.kappa0, "s": s, "r": ev.regulator,
            "level": ev.level, "value": padic_to_dict(ev.value),
            "error_bound_exponent": ev.error_bound_exponent,
            "path": ev.path}


def zeta_report_from_dict(d: Any) -> ZetaBranchEval:
    what = "zeta report"
    d = _require_dict(d, what)
    _check_schema(d, what)
    s = _get(d, "s", what)
    if not isinstance(s, int) or isinstance(s, bool):
        s = padic_from_dict(s, what + " s")
    path = _get(d, "path", what)
    if path not in ("measure", "interpolation"):
        raise InputFormatError("%s: unknown path %r" % (what, path))
    return ZetaBranchEval(
        prime=_get_prime(d, what), kappa0=_get_int(d, "kappa0", what), s=s,
        regulator=_get_opt_int(d, "r", what),
        level=_get_opt_int(d, "level", what),
        value=padic_from_dict(_get(d, "value", what), what + " value"),
        error_bound_exponent=_get_opt_int(d, "error_bound_exponent", what),
        path=path)


def _check_schema(d: dict, what: str) -> None:
    ver = _get_int(d, "schema_version", what)
    if ver != SCHEMA_VERSION:
        raise InputFormatError(
            "%s: schema_version %d not supported (this reader handles %d)"
            % (what, ver, SCHEMA_VERSION))
