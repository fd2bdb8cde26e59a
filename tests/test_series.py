"""Mahler and van der Put bases: evaluation, expansion, conversion, norm."""

import math
import pickle
import random

from collections import Counter
from fractions import Fraction

import pytest

from padicosc.errors import DomainError, PrecisionExhaustedError
from padicosc.operators import (RULES, _apply_rule, apply_raising,
                                commutator_defect, hamiltonian)
from padicosc.padics import (DEFAULT_PRECISION, PadicNumber, n_minus, vp,
                             vp_factorial)
from padicosc import series
from padicosc.series import (
    MahlerSeries,
    VanDerPutSeries,
    _basis_values,
    _row_of,
    basis_vector,
    convert,
    convert_back,
    mahler_basis_eval_int,
    mahler_eval,
    mahler_expand,
    sup_norm,
    sup_norm_exponent,
    vdp_basis_eval,
    vdp_eval,
    vdp_expand,
)
from value_helpers import mahler_basis_eval, norm_bound_exponent


def ints(p, values, precision=16):
    return [PadicNumber.from_int(v, p, precision) for v in values]


def random_unit_series(rng, p, m, precision=16) -> MahlerSeries:
    coeffs = []
    for _ in range(m):
        u = rng.randrange(1, p**precision)
        while u % p == 0:
            u = rng.randrange(1, p**precision)
        coeffs.append(PadicNumber.from_int(u, p, precision))
    return MahlerSeries(prime=p, coefficients=tuple(coeffs))


# -- P_n ---------------------------------------------------------------


def test_p0_is_one_everywhere():
    for x in (PadicNumber.from_int(9, 5, 6), PadicNumber.zero(5),
              PadicNumber.from_int(14, 5, 3),
              PadicNumber.zero(5, known_to=-2)):
        r = mahler_basis_eval(0, x)
        assert r.unit == 1 and r.valuation == 0
        # exact, whatever x is known to: the precision from_int(1) gets
        assert r.precision == DEFAULT_PRECISION
        assert r == PadicNumber.from_int(1, 5)


def test_p2_at_three():
    x = PadicNumber.from_int(3, 7, 8)
    assert mahler_basis_eval(2, x).agrees_with(PadicNumber.from_int(3, 7, 7))
    assert mahler_basis_eval_int(2, 3) == 3


def test_integer_basis_is_falling_factorial_over_factorial():
    for x in range(-12, 13):
        for n in range(11):
            prod = 1
            for j in range(n):
                prod *= x - j
            assert mahler_basis_eval_int(n, x) == prod // math.factorial(n), (n, x)


def test_p6_integral_despite_division():
    # v_5(6!) = 1, yet binomial(x, 6) stays in Z_5
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(5**10)
        x = PadicNumber.from_int(n, 5, 10) if n else PadicNumber.zero(5, known_to=10)
        r = mahler_basis_eval(6, x)
        assert norm_bound_exponent(r) is None or norm_bound_exponent(r) >= 0
        if not r.is_zero:
            # compare against exact integer binomial of the representative
            want = PadicNumber.from_int(math.comb(n, 6), 5, 12)
            assert r.agrees_with(want.truncated_to(r.abs_precision))


def test_pn_integrality_large_n():
    rng = random.Random(12)
    for p in (2, 5):
        for n in (1, 8, 17, 33, 64):
            x = PadicNumber.from_int(rng.randrange(1, p**70), p, 70)
            r = mahler_basis_eval(n, x)
            e = norm_bound_exponent(r)
            assert e is None or e >= 0


def test_basis_eval_rejects_outside_zp():
    bad = PadicNumber.from_rational(1, 5, 5, 4)
    with pytest.raises(DomainError):
        mahler_basis_eval(3, bad)


def test_basis_eval_precision_exhaustion():
    x = PadicNumber.from_int(3, 2, 2)   # 2 known digits, P_4 costs v_2(4!) = 3
    with pytest.raises(PrecisionExhaustedError):
        mahler_basis_eval(4, x)
    # the error names n, the digits needed and the digits x has
    with pytest.raises(PrecisionExhaustedError,
                       match=r"P_4 needs x mod 2\*\*4 .*known mod 2\*\*2$"):
        mahler_basis_eval(4, x)


# -- Mahler evaluation and expansion ------------------------------------


def test_eval_single_basis_coefficient():
    p = 7
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [0, 0, 1])))
    assert mahler_eval(f, 3).agrees_with(PadicNumber.from_int(3, p, 16))
    x = PadicNumber.from_int(3, p, 16)
    assert mahler_eval(f, x).agrees_with(PadicNumber.from_int(3, p, 16))
    # a point is an int or a number at the series' prime: a 3-adic 7 was
    # read as 5-adic (g gave 47 where g(7) = 2*5^2), and a float point
    # raised AttributeError
    g = vdp_expand(ints(5, [i * i + 1 for i in range(10)], 8))
    f = mahler_expand(g.coefficients)
    assert vdp_eval(g, 7).agrees_with(PadicNumber.from_int(50, 5, 8))
    for ev, series in ((mahler_eval, f), (vdp_eval, g)):
        for point, message in (
                (PadicNumber.from_int(7, 3, 8),
                 "x lives in a different Q_p: 3-adic, p = 5"),
                (2.0, "x must be an integer or a PadicNumber, got 2.0"),
                (True, "x must be an integer or a PadicNumber, got True")):
            with pytest.raises(DomainError, match="^%s$" % message):
                ev(series, point)
    # samples at two primes, no sample, coefficients at two primes or none
    mixed = [PadicNumber.from_int(1, 5, 4), PadicNumber.from_int(2, 3, 4)]
    for call, message in (
            (lambda: mahler_expand(mixed), "sample prime mismatch"),
            (lambda: vdp_expand(mixed), "sample prime mismatch"),
            (lambda: vdp_expand([]), "truncation must be >= 1, got 0"),
            (lambda: MahlerSeries(5, mixed), "coefficient prime mismatch"),
            (lambda: VanDerPutSeries(5, ()), "a series needs at least one "
                                             "coefficient"),
            (lambda: vdp_basis_eval(3, 7), "prime needed for integer points"),
            (lambda: f + MahlerSeries(3, mixed[1:]), "prime mismatch"),
            (lambda: f - basis_vector(3, 0, 10, 8), "prime mismatch")):
        with pytest.raises(DomainError, match="^%s$" % message):
            call()
    with pytest.raises(TypeError):
        f + g


def test_eval_keeps_c0_precision_at_padic_points():
    # P_0 = 1 exactly: the c_0 term keeps c_0's 40 digits, so 3 + 7 P_1
    # at x = 2*5^2 + O(5^12) is known mod 5^12, as every term is
    p = 5
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [3, 7], 40)))
    value = mahler_eval(f, PadicNumber.from_int(50, p, 10))
    assert value == PadicNumber.from_int(353, p, 12)
    # at the exact-zero point the value is c_0 itself, as at the integer 0
    assert mahler_eval(f, PadicNumber.zero(p)) == mahler_eval(f, 0) \
        == PadicNumber.from_int(3, p, 40)


def test_eval_constant():
    p = 5
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [1])))
    for k in (0, 4, 29):
        assert mahler_eval(f, k).agrees_with(PadicNumber.one(p, 16))


def test_eval_x_squared():
    # x^2 = P_1 + 2 P_2
    p = 5
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [0, 1, 2])))
    assert mahler_eval(f, 4).agrees_with(PadicNumber.from_int(16, p, 16))
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(1, 5**8)
        x = PadicNumber.from_int(n, p, 8)
        want = PadicNumber.from_int(n * n, p, 8).truncated_to(7)
        assert mahler_eval(f, x).agrees_with(want)


def test_expand_linear():
    p = 3
    f = mahler_expand(ints(p, [0, 1, 2, 3]))
    units = [c.unit for c in f.coefficients]
    assert units == [0, 1, 0, 0]
    assert f.tail_bound_exponent is None


def test_expand_square():
    p = 3
    f = mahler_expand(ints(p, [k * k for k in range(4)]))
    assert [c.unit for c in f.coefficients] == [0, 1, 2, 0]


def test_expand_binomial():
    p = 5
    f = mahler_expand(ints(p, [math.comb(k, 2) for k in range(4)]))
    assert [c.unit for c in f.coefficients] == [0, 0, 1, 0]


def test_expand_requires_enough_samples():
    # the rule is one coefficient at least; the message read "need at
    # least 0 consecutive samples" (-3 with truncation=-3)
    g = convert(mahler_expand(ints(5, [1, 2, 3])))
    for call, got in ((lambda: mahler_expand([]), 0),
                      (lambda: convert_back(g, 0), 0),
                      (lambda: convert_back(g, -3), -3)):
        with pytest.raises(DomainError,
                           match="^truncation must be >= 1, got %d$" % got):
            call()


def test_mahler_uniqueness_roundtrip():
    rng = random.Random(14)
    for p in (2, 5):
        f = random_unit_series(rng, p, 6)
        samples = [mahler_eval(f, k) for k in range(6)]
        g = mahler_expand(samples)
        assert g.coefficients == f.coefficients


# -- van der Put -------------------------------------------------------


def test_e0_always_one():
    assert vdp_basis_eval(0, 7, 5) == 1
    assert vdp_basis_eval(0, PadicNumber.from_int(3, 2, 4)) == 1


def test_basis_eval_refuses_a_foreign_prime():
    # a 3-adic 3 read with p = 5 gave e_3 = 1, its disc at 3; e_0 too
    # checks the point
    x = PadicNumber.from_int(3, 3, 8)
    for n in (0, 3):
        with pytest.raises(DomainError,
                           match="^x lives in a different Q_p: 3-adic, p = 5$"):
            vdp_basis_eval(n, x, 5)
    assert vdp_basis_eval(3, x, 3) == vdp_basis_eval(3, x) == 1


def test_disc_membership_p2():
    assert vdp_basis_eval(2, 6, 2) == 1      # 6 = 2 mod 4
    assert vdp_basis_eval(2, 4, 2) == 0
    x6 = PadicNumber.from_int(6, 2, 8)
    assert vdp_basis_eval(2, x6) == 1


def test_en_at_center():
    for p in (2, 5):
        for n in (1, 3, 9, 26):
            assert vdp_basis_eval(n, n, p) == 1


def test_en_needs_enough_digits():
    # x = 0 mod 4 with nothing known beyond: e_4 tests a congruence mod 8
    x = PadicNumber.zero(2, known_to=2)
    with pytest.raises(PrecisionExhaustedError):
        vdp_basis_eval(4, x)
    # but the same digits already refute membership in the disc around 2
    assert vdp_basis_eval(2, x) == 0
    # and a mismatch in known digits decides negatively as well
    odd = PadicNumber.from_int(1, 2, 1)
    assert vdp_basis_eval(2, odd) == 0


def test_disjoint_discs_within_level():
    rng = random.Random(15)
    for p in (2, 3, 5):
        for s in (1, 2):
            lo, hi = p**s, p ** (s + 1)
            for _ in range(40):
                x = rng.randrange(p**4)
                hits = sum(vdp_basis_eval(n, x, p) for n in range(lo, hi))
                assert hits <= 1


def test_vdp_expand_constant():
    p = 3
    g = vdp_expand(ints(p, [1] * 6))
    assert g.coefficients[0].unit == 1
    assert all(c.is_zero for c in g.coefficients[1:])


def test_vdp_expand_identity_function_p2():
    p = 2
    g = vdp_expand(ints(p, list(range(13))))
    # 3 = 11 in base 2, leading digit stripped gives 1
    assert g.coefficients[3].agrees_with(PadicNumber.from_int(2, p, 16))
    # 12 = 1100 in base 2, leading digit stripped gives 4
    assert g.coefficients[12].agrees_with(PadicNumber.from_int(8, p, 16))


def test_vdp_reconstruction_at_sampled_integers():
    rng = random.Random(16)
    for p in (2, 5):
        values = [rng.randrange(p**10) for _ in range(12)]
        samples = ints(p, values, 12)
        g = vdp_expand(samples)
        for j in range(12):
            assert vdp_eval(g, j).agrees_with(samples[j])


# -- conversion --------------------------------------------------------


def test_convert_constant():
    p = 5
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [1, 0, 0, 0])))
    g = convert(f)
    assert isinstance(g, VanDerPutSeries)
    assert g.coefficients[0].unit == 1
    assert all(c.is_zero for c in g.coefficients[1:])


def test_basis_vector_index_must_lie_in_the_window():
    assert basis_vector(5, 3, 4, 8).coefficients[3] == PadicNumber.one(5, 8)
    # coeffs[n] would wrap a negative index around to P_(M + n)
    for n in (-1, -4, 4):
        with pytest.raises(DomainError):
            basis_vector(5, n, 4, 8)


def test_convert_roundtrip_p1():
    p = 3
    f = basis_vector(p, 1, 4, 16)
    back = convert_back(convert(f))
    assert back.coefficients[1] == f.coefficients[1]
    assert back.coefficients[0].is_zero
    assert all(c.is_zero for c in back.coefficients[2:])


def test_e1_to_mahler_evaluated_at_sampled_point():
    # e_1 for p = 2 on the window 0..3; x = 3 is sampled and e_1(3) = 1
    p = 2
    coeffs = ints(p, [0, 1, 0, 0])
    g = VanDerPutSeries(prime=p, coefficients=tuple(coeffs))
    f = convert_back(g, 4)
    assert mahler_eval(f, 3).agrees_with(PadicNumber.one(p, 16))


def test_sup_norm_examples():
    p = 5
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [1])))
    assert sup_norm(f) == 1
    g = MahlerSeries(prime=p, coefficients=tuple(ints(p, [0, 5, 25])))
    assert sup_norm(g) == Fraction(1, 5)
    z = MahlerSeries(prime=p, coefficients=(PadicNumber.zero(p),))
    assert sup_norm(z) == 0
    neg = MahlerSeries(prime=p,
                       coefficients=(PadicNumber.from_rational(1, 5, p, 4),))
    assert sup_norm(neg) == 5


def test_norm_equal_across_bases_on_polynomials():
    rng = random.Random(17)
    for p in (2, 5, 7):
        for _ in range(20):
            f = random_unit_series(rng, p, 5)
            g = convert(f)
            assert sup_norm(g) == sup_norm(f)
            # the max over stored coefficients alone already agrees:
            # polynomial values on 0..M-1 attain the Mahler sup norm
            stored = min(norm_bound_exponent(c) for c in g.coefficients
                         if norm_bound_exponent(c) is not None)
            assert stored == sup_norm_exponent(f)


def test_polynomial_roundtrip_exact():
    rng = random.Random(18)
    for p in (2, 3, 7):
        for _ in range(20):
            f = random_unit_series(rng, p, 6)
            back = convert_back(convert(f))
            assert back.coefficients == f.coefficients


# -- integer kernels against term-by-term PadicNumber arithmetic --------
#
# The oracles are the object-arithmetic algorithms the integer kernels
# replaced, with one fix: P_0 = 1 exactly, so at a p-adic point the c_0
# term keeps c_0's own precision, as it does at an integer point.  They
# add with the two-term formula and scale by an int with the num/den
# formula that PadicNumber used before, and subtract as a + (-b), so
# the shared sum, the direct subtraction and the int scaling are all
# checked against code they do not share.


def oracle_add(a, b):
    if a.is_exact_zero:
        return b
    if b.is_exact_zero:
        return a
    p = a.prime
    n = min(a.abs_precision, b.abs_precision)
    vmin = min(a.valuation, b.valuation)
    if n - vmin <= 0:
        return PadicNumber.zero(p, known_to=n)
    total = (a.unit * p ** (a.valuation - vmin)
             + b.unit * p ** (b.valuation - vmin))
    return PadicNumber._make(p, vmin, total, n - vmin)


def oracle_times(c, k):
    """c * k for an int k, through the inverse of the denominator 1."""
    p = c.prime
    if k == 0:
        return PadicNumber.zero(p)
    if c.is_exact_zero:
        return c
    v = vp(k, p)
    m = c.precision
    return PadicNumber._make(p, c.valuation + v,
                             c.unit * (k // p**v) * pow(1, -1, p**m), m)


def oracle_basis_eval(n, x):
    p = x.prime
    if not x.is_zero and x.valuation < 0:
        raise DomainError("P_n is defined on Z_p")
    if n == 0:
        return PadicNumber.one(p)
    if x.is_exact_zero:
        return PadicNumber.zero(p)
    nx = x.abs_precision
    v = vp_factorial(n, p)
    if nx - v <= 0:
        raise PrecisionExhaustedError("P_%d" % n)
    mod = p**nx
    xres = x.residue(nx)
    prod = 1
    for j in range(n):
        prod = prod * (xres - j) % mod
    w = math.factorial(n) // p**v
    c = prod // p**v * pow(w, -1, p ** (nx - v)) % p ** (nx - v)
    return PadicNumber._make(p, 0, c, nx - v)


def oracle_eval(f, x):
    acc = PadicNumber.zero(f.prime)
    for n, c in enumerate(f.coefficients):
        if c.is_exact_zero:
            continue
        if isinstance(x, int):
            acc = oracle_add(acc, oracle_times(c, mahler_basis_eval_int(n, x)))
        else:
            b = oracle_basis_eval(n, x)
            acc = oracle_add(acc, c if n == 0 else c * b)
    return acc


def min_exponent(*exponents):
    return min((e for e in exponents if e is not None), default=None)


def oracle_expand(samples, truncation):
    if truncation < 1 or len(samples) < truncation:
        raise DomainError("too few samples")
    diffs, row = [], list(samples)
    while row:
        diffs.append(row[0])
        row = [oracle_add(b, -a) for a, b in zip(row, row[1:])]
    tail = min_exponent(*(norm_bound_exponent(w)
                          for w in diffs[truncation:]))
    return MahlerSeries(prime=samples[0].prime,
                        coefficients=tuple(diffs[:truncation]),
                        tail_bound_exponent=tail)


def oracle_vdp_eval(g, x):
    acc = PadicNumber.zero(g.prime)
    for n, v in enumerate(g.coefficients):
        if not v.is_exact_zero and vdp_basis_eval(n, x, g.prime):
            acc = oracle_add(acc, v)
    return acc


def oracle_vdp_expand(samples):
    p = samples[0].prime
    coeffs = [samples[0]] + [oracle_add(samples[n], -samples[n_minus(n, p)])
                             for n in range(1, len(samples))]
    return VanDerPutSeries(prime=p, coefficients=tuple(coeffs))


def oracle_convert(f):
    g = oracle_vdp_expand([oracle_eval(f, k) for k in range(f.truncation)])
    return VanDerPutSeries(prime=f.prime, coefficients=g.coefficients,
                           tail_bound_exponent=min_exponent(
                               f.tail_bound_exponent, sup_norm_exponent(f)))


def oracle_convert_back(g, m=None):
    m = g.truncation if m is None else m
    f = oracle_expand([oracle_vdp_eval(g, k) for k in range(m)], m)
    return MahlerSeries(prime=g.prime, coefficients=f.coefficients,
                        tail_bound_exponent=min_exponent(
                            g.tail_bound_exponent, sup_norm_exponent(g)))


def edge_padic(rng, p):
    """Exact zeros, zero markers O(p^k) with k <= 0 and k > 0, and
    nonzero values of negative, zero and positive valuation."""
    kind = rng.randrange(6)
    if kind == 0:
        return PadicNumber.zero(p)
    if kind == 1:
        return PadicNumber.zero(p, known_to=rng.randrange(-3, 7))
    prec = rng.randrange(1, 13)
    u = rng.randrange(1, p**prec)
    while u % p == 0:
        u = rng.randrange(1, p**prec)
    return PadicNumber(prime=p, valuation=rng.randrange(-3, 5), unit=u,
                       precision=prec)


def edge_points(rng, p, m):
    """Integers below 0, inside 0..M-1, at and above M, and large; p-adic
    points of valuation 0..4 (some too short for P_{M-1}), zero markers,
    the exact zero and points outside Z_p."""
    points = [rng.randrange(-12, 0), rng.randrange(m), rng.randrange(m, m + 20),
              rng.randrange(p**12)]
    for v in (0, rng.randrange(1, 5)):
        prec = rng.randrange(1, 10)
        points.append(PadicNumber.from_int(rng.randrange(1, p**prec) * p**v,
                                           p, v + prec))
    points.append(PadicNumber.zero(p, known_to=rng.randrange(-2, 9)))
    points.append(PadicNumber.zero(p))
    points.append(PadicNumber.from_rational(rng.randrange(1, 50), p, p, 6))
    return points


def outcome(fn, *args):
    """The repr of the result, which also tells an int unit from a float
    one, or the type of the precision or domain error raised."""
    try:
        return repr(fn(*args))
    except (DomainError, PrecisionExhaustedError) as exc:
        return type(exc)


def test_kernels_match_object_arithmetic_oracle():
    rng = random.Random(808)
    raised = Counter()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randrange(1, 9)
        coeffs = tuple(edge_padic(rng, p) for _ in range(m))
        tail = rng.choice((None, rng.randrange(-2, 9)))
        f = MahlerSeries(prime=p, coefficients=coeffs, tail_bound_exponent=tail)
        g = VanDerPutSeries(prime=p, coefficients=coeffs,
                            tail_bound_exponent=tail)
        for x in edge_points(rng, p, m):
            want = outcome(oracle_eval, f, x)
            assert outcome(mahler_eval, f, x) == want, (f, x)
            raised[want if isinstance(want, type) else "value"] += 1
            assert outcome(vdp_eval, g, x) == outcome(oracle_vdp_eval, g, x)
            if isinstance(x, PadicNumber):
                for n in range(m + 1):
                    assert (outcome(mahler_basis_eval, n, x)
                            == outcome(oracle_basis_eval, n, x)), (n, x)
        samples = list(coeffs) + [edge_padic(rng, p)
                                  for _ in range(rng.randrange(3))]
        # the same values times p**4: every valuation positive, beside
        # exact zeros of valuation 0
        deep = [s * p**4 for s in samples]
        for s in (samples, deep):
            assert outcome(mahler_expand, s[:m]) == outcome(oracle_expand,
                                                            s[:m], m)
            assert outcome(vdp_expand, s) == outcome(oracle_vdp_expand, s)
        assert outcome(convert, f) == outcome(oracle_convert, f)
        assert outcome(convert_back, g) == outcome(oracle_convert_back, g)
    assert raised[PrecisionExhaustedError] > 40
    assert raised[DomainError] > 100
    assert raised["value"] > 1000


def test_conversions_match_the_oracle_past_p_squared():
    # windows of p**2 + 1 to 30 samples, and convert_back sampling up to
    # 30 past the window: disc chains of three links and more at p = 3
    # and 5, where the draw above (M < 9) reaches two
    rng = random.Random(2727)
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        m = rng.randrange(p * p + 1, 31)
        coeffs = tuple(edge_padic(rng, p) for _ in range(m))
        tail = rng.choice((None, rng.randrange(-2, 9)))
        f = MahlerSeries(p, coeffs, tail)
        g = VanDerPutSeries(p, coeffs, tail)
        assert series_outcome(convert, f) == series_outcome(oracle_convert, f)
        for k in (m, rng.randrange(1, m), m + rng.randrange(1, 31)):
            assert series_outcome(convert_back, g, k) == series_outcome(
                oracle_convert_back, g, k), (g, k)
        assert series_outcome(mahler_expand, coeffs) == series_outcome(
            oracle_expand, coeffs, m)


def test_convert_keeps_the_digits_of_binomial_valuations():
    # c_2 = 1 + O(2) alone: f(4) = C(4, 2) c_2 = 6 is known mod 2**2,
    # one digit past c_2's own, because v_2(C(4, 2)) = 1; a sample cut to
    # the least absprec of the coefficients would read O(2)
    p = 2
    zero = PadicNumber.zero(p)
    f = MahlerSeries(p, (zero, zero, PadicNumber(p, 0, 1, 1), zero, zero))
    want = PadicNumber(p, 1, 1, 1)
    assert mahler_eval(f, 4) == want
    assert convert(f).coefficients[4] == want      # v_4 = f(4) - f(0)
    assert oracle_convert(f).coefficients[4] == want


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_basis_values_match_per_index_inverse_oracle(p, monkeypatch):
    # _basis_values inverts the unit part of (count-1)! once and walks
    # back to every n; the oracle inverts the unit part of each n! on its
    # own.  Windows up to 200 make the backward chain cross many n with
    # p | n, at v_p((count-1)!) + 1 digits of x (the least that serves)
    # and a few above.
    inverses = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inverses.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(series, "pow", counting_pow, raising=False)
    rng = random.Random(2300 + p)
    for count in (2, p + 1, p * p + 2, 200):
        need = vp_factorial(count - 1, p) + 1
        points = [PadicNumber.zero(p), PadicNumber.zero(p, known_to=need + 2)]
        for extra in (0, 1, 4):
            digits = need + extra
            unit = rng.randrange(1, p**digits)
            points += [PadicNumber.from_int(unit - unit % p + 1, p, digits),
                       PadicNumber.from_int(p * unit, p, digits)]
        # a unit below count: P_n(x) = 0 from n = x + 1 on
        low = rng.choice([k for k in range(1, count) if k % p])
        points.append(PadicNumber.from_int(low, p, need + 1))
        for x in points:
            del inverses[:]
            rows = _basis_values(x, count)
            if x.is_exact_zero:
                assert rows == [(0, 1, None)] and not inverses
                continue
            assert len(inverses) == 1, (count, x)
            # P_0 = 1 exact, where the oracle gives one() at its precision
            assert rows == [(0, 1, None)] + [_row_of(oracle_basis_eval(n, x))
                                             for n in range(1, count)], (count, x)
        short = PadicNumber.from_int(1, p, need - 1)
        with pytest.raises(PrecisionExhaustedError):
            _basis_values(short, count)
    # the empty window reads nothing of x, not even its valuation
    outside = PadicNumber.from_rational(1, p, p, 4)
    assert _basis_values(outside, 0) == []
    with pytest.raises(DomainError):
        _basis_values(outside, 1)


def test_eval_at_far_integers_matches_comb():
    # mahler_eval carries binomial(x, n) from n - 1; the oracle takes
    # each one from math.comb, through binomial(-y, n) =
    # (-1)**n binomial(y + n - 1, n) for negative points
    def comb_oracle(f, x):
        acc = PadicNumber.zero(f.prime)
        for n, c in enumerate(f.coefficients):
            b = math.comb(x, n) if x >= 0 else (-1)**n * math.comb(n - x - 1, n)
            acc = oracle_add(acc, oracle_times(c, b))
        return acc

    rng = random.Random(1010)
    for p in (2, 3, 5, 7):
        for m in (1, 5, 12):
            f = MahlerSeries(prime=p, coefficients=tuple(
                edge_padic(rng, p) for _ in range(m)))
            for x in (-p**50, -1, *range(m + 1), p**50 + 3):
                assert mahler_eval(f, x) == comb_oracle(f, x), (f, x)


# -- series held as integer rows -----------------------------------------
#
# The oracles act coefficient by coefficient on PadicNumber objects, as
# the series layer did before it held rows: a rule scales each
# coefficient by its int weight, + and - add coefficient by coefficient,
# and vdp_eval scans every index for the discs that hold x.


def oracle_rule(op, f):
    shift, weight = RULES[op]
    p, m, tail = f.prime, f.truncation, f.tail_bound_exponent
    out = [PadicNumber.zero(p)] * m
    if shift < 0 and tail is not None:
        out[m + shift:] = [PadicNumber.zero(p, known_to=tail)] * -shift
    for n, c in enumerate(f.coefficients):
        c = oracle_times(c, weight(n))
        if 0 <= n + shift < m:
            out[n + shift] = c
        elif n + shift >= m:
            tail = min_exponent(tail, norm_bound_exponent(c))
    return MahlerSeries(prime=p, coefficients=tuple(out),
                        tail_bound_exponent=tail)


def oracle_combine(f, g, sign):
    if f.prime != g.prime or f.truncation != g.truncation:
        raise DomainError("mismatch")
    coeffs = tuple(oracle_add(a, b if sign > 0 else -b)
                   for a, b in zip(f.coefficients, g.coefficients))
    return type(f)(f.prime, coeffs, min_exponent(f.tail_bound_exponent,
                                                 g.tail_bound_exponent))


def oracle_defect(f):
    up_down = oracle_rule("lowering", oracle_rule("raising", f))
    down_up = oracle_rule("raising", oracle_rule("lowering", f))
    return oracle_combine(oracle_combine(up_down, down_up, -1), f, -1)


def oracle_sup_norm_exponent(f):
    return min_exponent(f.tail_bound_exponent,
                        *(norm_bound_exponent(c) for c in f.coefficients))


def series_outcome(fn, *args):
    """(type, coefficients, tail) of the series, the value itself, or the
    type of the precision or domain error raised."""
    try:
        out = fn(*args)
    except (DomainError, PrecisionExhaustedError) as exc:
        return type(exc)
    if isinstance(out, (MahlerSeries, VanDerPutSeries)):
        return type(out), out.coefficients, out.tail_bound_exponent
    return out


def test_row_kernels_match_per_coefficient_oracle():
    rng = random.Random(1818)
    raised = Counter()
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7, 11))
        m = rng.randrange(1, 41)
        f, h = (MahlerSeries(p, [edge_padic(rng, p) for _ in range(m)],
                             rng.choice((None, rng.randrange(-2, 9))))
                for _ in range(2))
        g = VanDerPutSeries(p, f.coefficients, f.tail_bound_exponent)
        short = MahlerSeries(p, f.coefficients[:-1] or h.coefficients + h.coefficients)
        for got, want in (
                ((lambda a, b: a + b), (lambda a, b: oracle_combine(a, b, 1))),
                ((lambda a, b: a - b), (lambda a, b: oracle_combine(a, b, -1)))):
            for a, b in ((f, h), (h, f), (f, short)):
                assert series_outcome(got, a, b) == series_outcome(want, a, b)
        assert series_outcome(lambda a: -a, f) == series_outcome(
            lambda a: MahlerSeries(p, [-c for c in a.coefficients],
                                   a.tail_bound_exponent), f)
        for op in RULES:
            assert series_outcome(_apply_rule, op, f) == series_outcome(
                oracle_rule, op, f), (op, f)
        assert series_outcome(commutator_defect, f) == series_outcome(
            oracle_defect, f)
        samples = list(f.coefficients) + list(h.coefficients[:rng.randrange(1, 9)])
        for t in (m, rng.randrange(1, m + 1), len(samples)):
            assert series_outcome(mahler_expand, samples[:t]) == series_outcome(
                oracle_expand, samples[:t], t)
        assert series_outcome(convert, f) == series_outcome(oracle_convert, f)
        for k in (m, rng.randrange(1, m + 1), m + rng.randrange(1, 9)):
            assert series_outcome(convert_back, g, k) == series_outcome(
                oracle_convert_back, g, k)
        for series in (f, g):
            assert sup_norm_exponent(series) == oracle_sup_norm_exponent(series)
        points = edge_points(rng, p, m) + [
            -rng.randrange(1, p**9), p ** rng.randrange(1, 6) + rng.randrange(p**8)]
        for x in points:
            want = series_outcome(oracle_eval, f, x)
            assert series_outcome(mahler_eval, f, x) == want, (f, x)
            want = series_outcome(oracle_vdp_eval, g, x)
            assert series_outcome(vdp_eval, g, x) == want, (g, x)
            raised[want if isinstance(want, type) else "value"] += 1
    assert raised[PrecisionExhaustedError] > 20
    assert raised[DomainError] > 20
    assert raised["value"] > 300


def test_ladder_results_build_coefficients_on_first_read(monkeypatch):
    f = random_unit_series(random.Random(18), 5, 12)
    built = Counter()
    init = PadicNumber.__init__

    def counted_init(obj, *args, **kwargs):
        built["PadicNumber"] += 1
        init(obj, *args, **kwargs)

    monkeypatch.setattr(PadicNumber, "__init__", counted_init)
    d = hamiltonian(apply_raising(f)) - apply_raising(hamiltonian(f))
    assert built["PadicNumber"] == 0
    coeffs = d.coefficients
    assert built["PadicNumber"] == 12
    assert d.coefficients is coeffs and built["PadicNumber"] == 12
    monkeypatch.undo()

    # a series built from rows and the same series built from
    # coefficients agree in repr, ==, hash and a pickle round trip
    for rows_built in (lambda: apply_raising(f), lambda: convert(f)):
        same = type(rows_built())(5, rows_built().coefficients,
                                  rows_built().tail_bound_exponent)
        assert rows_built() == same and same == rows_built()
        assert hash(rows_built()) == hash(same)
        assert repr(rows_built()) == repr(same)
        for series in (rows_built(), same):
            back = pickle.loads(pickle.dumps(series))
            assert type(back) is type(series) and back == series
            assert repr(back) == repr(series)
