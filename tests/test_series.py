"""Mahler and van der Put bases: evaluation, expansion, conversion, norm."""

import math
import random

from fractions import Fraction

import pytest

from padicosc.errors import DomainError, PrecisionExhaustedError
from padicosc.padics import PadicNumber
from padicosc.series import (
    MahlerSeries,
    VanDerPutSeries,
    basis_vector,
    convert,
    convert_back,
    mahler_basis_eval,
    mahler_basis_eval_int,
    mahler_eval,
    mahler_expand,
    sup_norm,
    sup_norm_exponent,
    vdp_basis_eval,
    vdp_eval,
    vdp_expand,
)


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
              PadicNumber.from_int(14, 5, 3)):
        r = mahler_basis_eval(0, x)
        assert r.unit == 1 and r.valuation == 0


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
        assert r.norm_bound_exponent() is None or r.norm_bound_exponent() >= 0
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
            e = r.norm_bound_exponent()
            assert e is None or e >= 0


def test_basis_eval_rejects_outside_zp():
    bad = PadicNumber.from_rational(1, 5, 5, 4)
    with pytest.raises(DomainError):
        mahler_basis_eval(3, bad)


def test_basis_eval_precision_exhaustion():
    x = PadicNumber.from_int(3, 2, 2)   # 2 known digits, P_4 costs v_2(4!) = 3
    with pytest.raises(PrecisionExhaustedError):
        mahler_basis_eval(4, x)


# -- Mahler evaluation and expansion ------------------------------------


def test_eval_single_basis_coefficient():
    p = 7
    f = MahlerSeries(prime=p, coefficients=tuple(ints(p, [0, 0, 1])))
    assert mahler_eval(f, 3).agrees_with(PadicNumber.from_int(3, p, 16))
    x = PadicNumber.from_int(3, p, 16)
    assert mahler_eval(f, x).agrees_with(PadicNumber.from_int(3, p, 16))


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
    f = mahler_expand(ints(p, [0, 1, 2, 3, 4, 5, 6, 7]), 4)
    units = [c.unit for c in f.coefficients]
    assert units == [0, 1, 0, 0]
    # window differences cancel to zero markers at sample precision, so
    # the heuristic tail bound is p**(-16), not a proof of zero
    assert f.tail_bound_exponent == 16


def test_expand_square():
    p = 3
    f = mahler_expand(ints(p, [k * k for k in range(8)]), 4)
    assert [c.unit for c in f.coefficients] == [0, 1, 2, 0]


def test_expand_binomial():
    p = 5
    f = mahler_expand(ints(p, [math.comb(k, 2) for k in range(8)]), 4)
    assert [c.unit for c in f.coefficients] == [0, 0, 1, 0]


def test_expand_requires_enough_samples():
    with pytest.raises(DomainError):
        mahler_expand(ints(5, [1, 2]), 4)


def test_expand_tail_heuristic_sees_nonzero_window():
    # f(k) = binomial(k, 5) truncated at M = 4 leaves c_5 = 1 in the window
    p = 5
    f = mahler_expand(ints(p, [math.comb(k, 5) for k in range(10)]), 4)
    assert f.tail_bound_exponent == 0


def test_mahler_uniqueness_roundtrip():
    rng = random.Random(14)
    for p in (2, 5):
        f = random_unit_series(rng, p, 6)
        samples = [mahler_eval(f, k) for k in range(6)]
        g = mahler_expand(samples, 6)
        assert g.coefficients == f.coefficients


# -- van der Put -------------------------------------------------------


def test_e0_always_one():
    assert vdp_basis_eval(0, 7, 5) == 1
    assert vdp_basis_eval(0, PadicNumber.from_int(3, 2, 4)) == 1


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
            stored = min(c.norm_bound_exponent() for c in g.coefficients
                         if c.norm_bound_exponent() is not None)
            assert stored == sup_norm_exponent(f)


def test_polynomial_roundtrip_exact():
    rng = random.Random(18)
    for p in (2, 3, 7):
        for _ in range(20):
            f = random_unit_series(rng, p, 6)
            back = convert_back(convert(f))
            assert back.coefficients == f.coefficients
