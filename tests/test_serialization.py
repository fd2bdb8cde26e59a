"""JSON round trips, the frozen record shapes, and strict parsing."""

import json
import random

import pytest

from padicosc.errors import InputFormatError
from padicosc.galois import Branch, orbit
from padicosc.operators import as_matrix, matrices_agree
from padicosc.padics import PadicNumber
from padicosc.serialization import (
    SCHEMA_VERSION,
    dumps,
    format_samples_file,
    format_series_file,
    matrix_from_dict,
    matrix_to_dict,
    orbit_from_dict,
    orbit_to_dict,
    padic_from_dict,
    padic_to_dict,
    padic_to_text,
    parse_samples_file,
    parse_series_file,
    series_from_dict,
    series_to_dict,
    zeta_report_from_dict,
    zeta_report_to_dict,
)
from padicosc.series import MahlerSeries, VanDerPutSeries, mahler_expand
from padicosc.zeta import ZetaBranchEval, zeta_measure


def ints(p, values, n=12):
    return tuple(PadicNumber.from_int(v, p, n) for v in values)


# -- numbers -----------------------------------------------------------


def test_padic_dict_matches_frozen_example():
    x = PadicNumber.from_rational(1, 12, 2, 4)
    assert padic_to_dict(x) == {
        "p": 2, "valuation": -2, "digits": [1, 1, 0, 1], "precision": 4}


def test_padic_text_matches_frozen_example():
    x = PadicNumber.from_rational(1, 12, 2, 4)
    assert padic_to_text(x) == "…1 0 1 1 · 2^-2 + O(2^2)"


def test_zero_forms():
    assert padic_to_dict(PadicNumber.zero(2)) == {
        "p": 2, "zero": True, "known_to": None}
    assert padic_to_dict(PadicNumber.zero(3, known_to=5)) == {
        "p": 3, "zero": True, "known_to": 5}
    assert padic_to_text(PadicNumber.zero(2)) == "0"
    assert padic_to_text(PadicNumber.zero(3, known_to=5)) == "O(3^5)"


def test_padic_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.randrange(1, 20)
        v = rng.randrange(-6, 7)
        u = rng.randrange(1, p**n)
        while u % p == 0:
            u = rng.randrange(1, p**n)
        x = PadicNumber(prime=p, valuation=v, unit=u, precision=n)
        assert padic_from_dict(json.loads(dumps(padic_to_dict(x)))) == x
    for marker in (PadicNumber.zero(5), PadicNumber.zero(5, known_to=-3)):
        assert padic_from_dict(padic_to_dict(marker)) == marker


@pytest.mark.parametrize("bad", [
    "not a dict",
    {"p": 4, "valuation": 0, "digits": [1], "precision": 1},
    {"p": 5, "valuation": 0, "digits": [1]},
    {"p": 5, "valuation": 0, "digits": [], "precision": 0},
    {"p": 5, "valuation": 0, "digits": [0, 1], "precision": 2},
    {"p": 5, "valuation": 0, "digits": [1, 5], "precision": 2},
    {"p": 5, "valuation": 0, "digits": [1, True], "precision": 2},
    {"p": 5, "valuation": 0, "digits": [1, 2], "precision": 3},
    {"p": 5, "valuation": "0", "digits": [1], "precision": 1},
    {"p": 5, "zero": 1, "known_to": None},
    {"p": 5, "zero": True, "known_to": "soon"},
])
def test_padic_malformed_rejected(bad):
    with pytest.raises(InputFormatError):
        padic_from_dict(bad)


# -- series ------------------------------------------------------------


def test_series_dict_shape_and_round_trip():
    f = MahlerSeries(prime=5, coefficients=ints(5, [3, 1, 4, 0]),
                     tail_bound_exponent=2)
    d = series_to_dict(f)
    assert d["basis"] == "mahler" and d["p"] == 5 and d["M"] == 4
    assert d["tail_bound_exponent"] == 2 and len(d["coefficients"]) == 4
    assert series_from_dict(json.loads(dumps(d))) == f

    g = VanDerPutSeries(prime=3, coefficients=ints(3, [1, 0, 2]))
    d = series_to_dict(g)
    assert d["basis"] == "vdp" and d["tail_bound_exponent"] is None
    back = series_from_dict(d)
    assert isinstance(back, VanDerPutSeries) and back == g


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(basis="fourier"),
    lambda d: d.update(M=7),
    lambda d: d.update(coefficients=d["coefficients"] + [padic_to_dict(
        PadicNumber.from_int(1, 7, 8))]),
    lambda d: d.update(tail_bound_exponent="none"),
    lambda d: d.pop("coefficients"),
])
def test_series_malformed_rejected(mangle):
    d = series_to_dict(MahlerSeries(prime=5, coefficients=ints(5, [1, 2])))
    mangle(d)
    with pytest.raises(InputFormatError):
        series_from_dict(d)


def test_series_file_round_trip():
    f = mahler_expand(ints(7, [2, 9, 5, 5, 0], n=10))
    text = format_series_file(f)
    lines = text.splitlines()
    assert len(lines) == 1 + f.truncation
    header = json.loads(lines[0])
    assert header["basis"] == "mahler" and header["M"] == 5
    assert parse_series_file(text) == f
    assert parse_series_file(text + "\n\n") == f


def test_series_file_bad_line_reports_position():
    f = mahler_expand(ints(7, [2, 9, 5], n=10))
    lines = format_series_file(f).splitlines()
    lines[2] = "{ not json"
    with pytest.raises(InputFormatError, match="line 3"):
        parse_series_file("\n".join(lines))


def test_samples_file_round_trip_and_header_checks():
    values = list(ints(5, [0, 1, 8, 27], n=9))
    text = format_samples_file(values, 5)
    p, back = parse_samples_file(text)
    assert p == 5 and back == values
    # samples are not a series and vice versa
    with pytest.raises(InputFormatError, match="basis"):
        parse_series_file(text)
    f = mahler_expand(values)
    with pytest.raises(InputFormatError, match="basis"):
        parse_samples_file(format_series_file(f))
    # header count must match the body
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(InputFormatError, match="M = 4"):
        parse_samples_file(short)
    # and must count at least one sample
    for m in (0, -1):
        empty = json.dumps({"basis": "samples", "p": 5, "M": m}) + "\n"
        with pytest.raises(InputFormatError, match="M >= 1"):
            parse_samples_file(empty)


# -- matrices ----------------------------------------------------------


def test_matrix_round_trip():
    for name in ("raising", "lowering", "hamiltonian"):
        a = as_matrix(name, 5, 3, 16)
        back = matrix_from_dict(json.loads(dumps(matrix_to_dict(a))))
        assert back == a and matrices_agree(back, a)


def test_matrix_dict_shape():
    a = as_matrix("lowering", 3, 5, 8)
    d = matrix_to_dict(a)
    assert d["p"] == 5 and d["M"] == 3
    assert [(i, j) for i, j, _ in d["rows"]] == [(0, 1), (1, 2)]


@pytest.mark.parametrize("mangle", [
    lambda d: d["rows"].append(d["rows"][0]),
    lambda d: d["rows"][0].__setitem__(0, 9),
    lambda d: d["rows"][0].__setitem__(1, -1),
    lambda d: d["rows"].append([0, 0]),
    lambda d: d.update(M=0, rows=[]),
])
def test_matrix_malformed_rejected(mangle):
    d = matrix_to_dict(as_matrix("raising", 4, 5, 8))
    mangle(d)
    with pytest.raises(InputFormatError):
        matrix_from_dict(d)


# -- reports -----------------------------------------------------------


def test_orbit_report_round_trip():
    mats, period = orbit(Branch(5, 2), as_matrix("hamiltonian", 4, 5, 12))
    d = orbit_to_dict(5, 2, period, mats)
    assert d["schema_version"] == SCHEMA_VERSION and d["period"] == 2
    p, kappa0, per, back = orbit_from_dict(json.loads(dumps(d)))
    assert (p, kappa0, per) == (5, 2, 2)
    assert len(back) == len(mats)
    assert all(matrices_agree(x, y) for x, y in zip(back, mats))


def test_zeta_report_round_trip_and_shape():
    ev = zeta_measure(-1, Branch(2, 0), level=6, precision=8)
    d = zeta_report_to_dict(ev)
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["path"] == "measure" and d["s"] == -1 and d["r"] == 3
    assert zeta_report_from_dict(json.loads(dumps(d))) == ev

    s = PadicNumber.from_int(-1, 5, 10)
    ev2 = ZetaBranchEval(prime=5, kappa0=2, s=s, regulator=None, level=None,
                         value=PadicNumber.from_rational(1, 3, 5, 10),
                         error_bound_exponent=None, path="interpolation")
    back = zeta_report_from_dict(zeta_report_to_dict(ev2))
    assert back == ev2 and isinstance(back.s, PadicNumber)


def test_report_schema_version_checked():
    ev = zeta_measure(-1, Branch(2, 0), level=5, precision=6)
    d = zeta_report_to_dict(ev)
    d["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(InputFormatError, match="schema_version"):
        zeta_report_from_dict(d)
    d.pop("schema_version")
    with pytest.raises(InputFormatError):
        zeta_report_from_dict(d)


def test_dumps_is_key_order_independent():
    assert dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == \
        dumps({"a": [2, {"c": 4, "d": 3}], "b": 1})
