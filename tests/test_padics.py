"""Core arithmetic in Q_p: construction, precision propagation, digits,
Teichmuller character, angle projection, principal-unit powers.

Expected values are frozen from hand computation or from exact Fraction
arithmetic done inside the tests, never from the code under test.
"""

import random
from fractions import Fraction

import pytest

from padicosc.errors import DomainError, PadicError, PrecisionExhaustedError
from padicosc.padics import (
    PadicNumber,
    angle,
    digit_sum,
    hensel_digits,
    is_prime,
    n_minus,
    teichmuller,
    unit_power,
    vp,
    vp_factorial,
)
from value_helpers import norm_bound_exponent


def frac_val(q: Fraction, p: int) -> int:
    return vp(q.numerator, p) - vp(q.denominator, p)


def embed(q, p, precision=24) -> PadicNumber:
    q = Fraction(q)
    return PadicNumber.from_rational(q.numerator, q.denominator, p, precision)


def random_nonzero_fraction(rng, p) -> Fraction:
    while True:
        num = rng.randint(-400, 400)
        den = rng.randint(1, 400)
        if num != 0:
            return Fraction(num, den) * Fraction(p) ** rng.randint(-2, 2)


# -- valuations and digits ---------------------------------------------


def test_vp_and_factorial_valuation():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(-50, 5) == 2
    with pytest.raises(ValueError):
        vp(0, 5)
    # against the defining sum floor(n/p) + floor(n/p^2) + ...
    for n in (1, 5, 24, 100, 121):
        for p in (2, 3, 5, 11):
            direct = sum(n // p**i for i in range(1, 20))
            assert vp_factorial(n, p) == direct


def test_vp_factorial_rejects_negative():
    for n in (-1, -3, -100):
        with pytest.raises(DomainError):
            vp_factorial(n, 5)
    assert vp_factorial(0, 5) == 0


def test_digit_sum_examples_and_negative():
    assert digit_sum(0, 5) == 0
    assert digit_sum(12, 2) == 2
    assert digit_sum(124, 5) == 12
    # a negative n has no finite base-p expansion
    for n in (-1, -7):
        with pytest.raises(DomainError):
            digit_sum(n, 5)


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert [n for n in range(-5, 50) if is_prime(n)] == sorted(primes)
    assert is_prime(7919) and not is_prime(7917)


def test_hensel_digits_examples():
    assert hensel_digits(12, 2) == (0, 0, 1, 1)
    assert n_minus(12, 2) == 4
    assert hensel_digits(7, 5) == (2, 1)
    assert n_minus(7, 5) == 2
    assert hensel_digits(3, 2) == (1, 1)
    assert n_minus(3, 2) == 1
    assert hensel_digits(0, 7) == ()
    with pytest.raises(DomainError):
        n_minus(0, 3)


def test_hensel_digits_reconstruct():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(10**6)
        p = rng.choice([2, 3, 5, 7, 11])
        ds = hensel_digits(n, p)
        assert sum(d * p**i for i, d in enumerate(ds)) == n


# -- construction ------------------------------------------------------


def test_from_rational_examples():
    z = PadicNumber.from_rational(0, 7, 5, 10)
    assert z.is_zero and z.is_exact_zero

    x = PadicNumber.from_rational(1, 12, 2, 3)
    assert x.valuation == -2
    assert x.unit == 3  # 1/3 = 3 mod 8 since 3*3 = 9 = 1 mod 8
    assert x.precision == 3

    y = PadicNumber.from_rational(7, 1, 5, 4)
    assert y.valuation == 0 and y.unit == 7

    with pytest.raises(DomainError):
        PadicNumber.from_rational(1, 0, 5, 4)


def test_from_rational_at_nonpositive_precision_is_a_marker():
    assert PadicNumber.from_rational(1, 3, 5, -1) == PadicNumber.from_int(1, 5, -1)
    for precision in (-3, -1, 0):
        x = PadicNumber.from_rational(1, 3, 5, precision)
        assert x.is_zero and not x.is_exact_zero
        assert x.known_to == precision
    # the marker sits at the value's valuation plus the precision
    assert PadicNumber.from_rational(7, 25, 5, -1).known_to == -3


def test_canonical_normalization():
    # p-divisible unit input normalizes into the valuation
    a = PadicNumber._make(5, 1, 50, 4)
    assert a.valuation == 3 and a.unit == 2 and a.precision == 2
    b = PadicNumber.from_rational(250, 1, 5, 2)
    assert a == b  # identical field contents for equal value and precision


def test_digits_padded():
    x = PadicNumber.from_rational(1, 12, 2, 4)
    assert x.digits() == (1, 1, 0, 1)  # 1/3 = 11 mod 16


# -- arithmetic --------------------------------------------------------


def test_carry_forces_valuation_jump():
    two = PadicNumber.from_int(2, 5, 6)
    three = PadicNumber.from_int(3, 5, 6)
    s = two + three
    assert s.valuation == 1 and s.unit == 1


def test_multiplicative_identity():
    rng = random.Random(2)
    one = PadicNumber.one(7, 20)
    for _ in range(20):
        x = embed(random_nonzero_fraction(rng, 7), 7, 20)
        assert x * one == x


def test_inverse_of_three_mod_eight():
    x = PadicNumber.from_int(1, 2, 3) / PadicNumber.from_int(3, 2, 3)
    assert x.valuation == 0
    assert x.unit == 3
    assert x.residue(3) == 3


def test_arith_matches_fraction_oracle():
    rng = random.Random(3)
    for p in (2, 3, 5, 13):
        for _ in range(40):
            qa, qb = (random_nonzero_fraction(rng, p) for _ in range(2))
            a, b = embed(qa, p), embed(qb, p)
            for op, fop in (
                (a + b, qa + qb),
                (a - b, qa - qb),
                (a * b, qa * qb),
                (a / b, qa / qb),
            ):
                want = embed(fop, p, 40)
                assert op.agrees_with(want.truncated_to(op.abs_precision) if not op.is_zero
                                      else want), (qa, qb, op, fop)


def test_ring_axioms_at_capped_precision():
    rng = random.Random(4)
    for p in (3, 5):
        for _ in range(40):
            a, b, c = (embed(random_nonzero_fraction(rng, p), p) for _ in range(3))
            assert ((a + b) + c).agrees_with(a + (b + c))
            assert (a * (b + c)).agrees_with(a * b + a * c)


def test_precision_propagation():
    p = 5
    # absolute precision: min of the two operands
    x = PadicNumber.from_int(1, p, 2)        # known mod 5^2
    y = PadicNumber.from_int(5, p, 3)        # v=1, known mod 5^4
    assert (x + y).abs_precision == 2
    # relative precision: min of the two operands
    a = PadicNumber.from_int(2, p, 3)
    b = PadicNumber.from_int(7, p, 5)
    assert (a * b).precision == 3
    assert (a / b).precision == 3
    # valuations combine exactly
    u = PadicNumber.from_rational(5, 1, p, 4)
    w = PadicNumber.from_rational(1, 25, p, 4)
    assert (u * w).valuation == -1
    assert (u / w).valuation == 3


def test_prime_mismatch_rejected():
    with pytest.raises(DomainError):
        PadicNumber.from_int(1, 3, 4) + PadicNumber.from_int(1, 5, 4)


def test_zero_marker_semantics():
    p = 5
    x = PadicNumber.from_int(7, p, 6)
    d = x - x
    assert d.is_zero and not d.is_exact_zero
    assert d.known_to == 6
    # consuming an ambiguous zero raises rather than guessing
    with pytest.raises(PrecisionExhaustedError):
        x / d
    with pytest.raises(PrecisionExhaustedError):
        d.norm()
    with pytest.raises(PrecisionExhaustedError):
        d.residue(7)
    assert d.residue(6) == 0
    # exact zero cases
    z = PadicNumber.zero(p)
    assert z.norm() == 0
    with pytest.raises(ZeroDivisionError):
        x / z
    assert (z + x) == x
    assert (z * x).is_exact_zero
    # arithmetic with a zero known mod 5^4; x = 7*5^2 + O(5^8)
    z = PadicNumber.zero(p, known_to=4)
    x = PadicNumber.from_int(175, p, 6)
    assert z.valuation == 4

    def marker(k):
        return PadicNumber.zero(p, known_to=k)

    assert z * x == x * z == marker(6)
    assert z * 10 == marker(5)
    assert z * Fraction(1, 5) == marker(3)
    assert z / x == z / 25 == marker(2)
    assert z**3 == marker(12)
    assert z + marker(2) == marker(2)
    assert z + x == x - z == PadicNumber.from_int(175, p, 2)
    assert z + 3 == PadicNumber.from_int(3, p, 4)
    assert z.truncated_to(2) == marker(2)
    assert z.truncated_to(9) == -z == z
    for consume in (lambda: x / z, lambda: 3 / z, lambda: z**-1):
        with pytest.raises(PrecisionExhaustedError):
            consume()


def test_full_cancellation_known_to_matches_abs_precision():
    p = 3
    a = PadicNumber.from_rational(10, 1, p, 4)   # v=0, known mod 3^4
    b = PadicNumber.from_rational(10, 1, p, 7)
    d = a - b
    assert d.is_zero and d.known_to == 4


def test_residue_requires_enough_digits():
    x = PadicNumber.from_int(7, 5, 3)
    assert x.residue(3) == 7
    with pytest.raises(PrecisionExhaustedError):
        x.residue(4)
    neg = PadicNumber.from_rational(1, 5, 5, 3)
    with pytest.raises(DomainError):
        neg.residue(2)


def test_exact_scalar_operands():
    p = 7
    x = PadicNumber.from_int(10, p, 5)
    assert (x * 3).agrees_with(PadicNumber.from_int(30, p, 5))
    assert (x * 3).precision == 5          # exact scalars cost nothing
    assert (x + 4).agrees_with(PadicNumber.from_int(14, p, 5))
    assert (x + 4).abs_precision == 5
    assert (2 - x).agrees_with(PadicNumber.from_int(-8, p, 5))
    assert (x / 2).agrees_with(embed(Fraction(5), p, 5))
    assert (Fraction(1, 2) * x).agrees_with(embed(Fraction(5), p, 5))
    with pytest.raises(PadicError):
        PadicNumber.zero(p) + Fraction(1, 2)


def mul_exact_oracle(x: PadicNumber, num: int, den: int) -> PadicNumber:
    """x * num/den for den nonzero, by the direct formula: the unit
    times num's unit and den's inverse mod p**precision, so the
    relative precision is kept."""
    p = x.prime
    if num == 0:
        return PadicNumber.zero(p)
    if x.is_exact_zero:
        return x
    v, m = vp(num, p), x.precision
    u = num // p**v
    if den != 1:
        vd = vp(den, p)
        v, u = v - vd, u * pow(den // p**vd, -1, p**m)
    return PadicNumber._make(p, x.valuation + v, x.unit * u, m)


def add_exact_oracle(x: PadicNumber, q) -> PadicNumber:
    """x + q with q embedded to x's absolute precision less v_p(q), so
    the absolute precision is kept; an exact zero plus a nonzero q has
    no precision to keep."""
    if q == 0:
        return x
    if x.is_exact_zero:
        raise PadicError("exact zero + exact rational has unbounded precision; "
                         "embed the rational with from_rational first")
    q = Fraction(q)
    n = max(x.abs_precision - frac_val(q, x.prime), 1)
    return x + PadicNumber.from_rational(q.numerator, q.denominator, x.prime, n)


def div_exact_oracle(x: PadicNumber, q) -> PadicNumber:
    if q == 0:
        raise ZeroDivisionError("division by zero")
    return mul_exact_oracle(x, q.denominator, q.numerator)


EXACT_OPERATIONS = {
    "x*q": (lambda x, q: x * q,
            lambda x, q: mul_exact_oracle(x, q.numerator, q.denominator)),
    "q*x": (lambda x, q: q * x,
            lambda x, q: mul_exact_oracle(x, q.numerator, q.denominator)),
    "x/q": (lambda x, q: x / q, div_exact_oracle),
    "q/x": (lambda x, q: q / x,
            lambda x, q: embed(q, x.prime, max(x.precision, 1)) / x),
    "x+q": (lambda x, q: x + q, add_exact_oracle),
    "q+x": (lambda x, q: q + x, add_exact_oracle),
    "x-q": (lambda x, q: x - q, lambda x, q: add_exact_oracle(x, -q)),
    "q-x": (lambda x, q: q - x, lambda x, q: add_exact_oracle(-x, q)),
}


def outcome(fn, x, q):
    """The five fields of fn(x, q), or the type and text it raised."""
    try:
        y = fn(x, q)
    except Exception as exc:
        return type(exc), str(exc)
    return y.prime, y.valuation, y.unit, y.precision, y.known_to


def random_operand(rng, p) -> PadicNumber:
    """An exact zero, a marker O(p^k), or a nonzero value with
    valuation -3..3 and 1..11 digits."""
    kind = rng.random()
    if kind < 0.1:
        return PadicNumber.zero(p)
    if kind < 0.4:
        return PadicNumber.zero(p, known_to=rng.randint(-4, 7))
    n = rng.randint(1, 11)
    unit = rng.randrange(1, p**n)
    while unit % p == 0:
        unit = rng.randrange(1, p**n)
    return PadicNumber(p, rng.randint(-3, 3), unit, n)


def random_exact_scalar(rng, p):
    fixed = (0, 1, -1, p, -p * p, 2 * p**3, True, False)
    if rng.random() < 0.4:
        return rng.choice(fixed)
    num = rng.randint(-10**6, 10**6)
    if rng.random() < 0.4:
        return num
    return Fraction(num, rng.choice((1, p, p * p, 3, 7 * p)))


def test_exact_scalars_match_direct_formulas():
    # an int or Fraction enters through from_rational; results and
    # exceptions must be those of the direct formulas above.  The
    # embedding keeps at least one digit: with none, a marker divided
    # by an int would raise instead of returning a marker
    rng = random.Random(20)
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7, 13))
        x, q = random_operand(rng, p), random_exact_scalar(rng, p)
        for name, (op, oracle) in EXACT_OPERATIONS.items():
            assert outcome(op, x, q) == outcome(oracle, x, q), (name, x, q)


def test_integer_powers():
    p = 5
    x = embed(Fraction(7, 2), p, 8)
    q = Fraction(7, 2)
    assert (x**3).agrees_with(embed(q**3, p, 8))
    assert (x**-2).agrees_with(embed(q**-2, p, 8))
    assert (x**0) == PadicNumber.one(p, 8)
    with pytest.raises(DomainError):
        PadicNumber.zero(p) ** 0


def test_norms():
    x = PadicNumber.from_rational(1, 12, 2, 5)
    assert x.norm() == Fraction(4)
    y = PadicNumber.from_int(50, 5, 4)
    assert y.norm() == Fraction(1, 25)
    assert norm_bound_exponent(y) == 2


def test_truncated_to():
    x = PadicNumber.from_int(7, 5, 6)
    t = x.truncated_to(2)
    assert t.abs_precision == 2 and t.unit == 7 % 25
    deep = x.truncated_to(10)
    assert deep == x
    z = x.truncated_to(0)
    assert z.is_zero and z.known_to == 0


# -- Teichmuller and angle ---------------------------------------------


def teich_oracle(a: int, p: int, n: int) -> int:
    """Independent fixed-point computation of omega(a) mod p**n."""
    mod = p**n
    x = a % mod
    while True:
        y = pow(x, p, mod)
        if y == x:
            return x
        x = y


def unit_power_oracle(u: PadicNumber, s, precision=None) -> PadicNumber:
    """u**s for a principal unit u by the binomial series
    sum_n C(s, n) (u - 1)**n with exact integer binomial coefficients:
    term n vanishes mod p**N once n*v(u - 1) >= N."""
    p = u.prime
    if isinstance(s, PadicNumber) and not s.is_zero and s.valuation < 0:
        raise DomainError("exponent must lie in Z_p")   # even at u = 1
    n_out = u.precision if precision is None else min(precision, u.precision)
    t = u - 1
    if t.is_zero:
        return PadicNumber.one(p, n_out)
    vt = t.valuation
    if isinstance(s, PadicNumber):
        s = s.residue(max(n_out - vt, 1))
    mod = p**n_out
    tres = t.residue(n_out)
    acc, binom, tpow, n = 0, 1, 1, 0
    while n * vt < n_out:
        acc = (acc + binom * tpow) % mod
        binom = binom * (s - n) // (n + 1)
        tpow = tpow * tres % mod
        n += 1
    return PadicNumber._make(p, 0, acc, n_out)


def test_teichmuller_of_one():
    for p in (2, 3, 5, 13):
        w = teichmuller(PadicNumber.one(p, 12))
        assert w == PadicNumber.one(p, 12)


def test_teichmuller_p5_of_two():
    w = teichmuller(PadicNumber.from_int(2, 5, 2))
    assert w.residue(2) == 7          # 2^5 = 32 = 7 mod 25, then 7^5 = 7
    w64 = teichmuller(PadicNumber.from_int(2, 5, 8))
    assert w64.residue(8) == teich_oracle(2, 5, 8)
    for p in (3, 7, 13):
        for a in range(1, 2 * p):
            if a % p == 0:
                continue
            x = PadicNumber.from_int(a, p, 8)
            for n in (-2, 0, 1, 8):
                w = teichmuller(x, precision=n)
                if n <= 0:
                    assert w == PadicNumber.zero(p, known_to=n)
                else:
                    assert w.residue(n) == teich_oracle(a, p, n)


def test_teichmuller_is_root_of_unity():
    w = teichmuller(PadicNumber.from_int(2, 5, 2))
    sq = w * w
    fourth = sq * sq                  # repeated squaring
    assert fourth.residue(2) == 1


def test_teichmuller_multiplicative():
    rng = random.Random(5)
    for p in (3, 7, 13):
        n = 16
        for _ in range(50):
            a = rng.randrange(1, p**n)
            while a % p == 0:
                a = rng.randrange(1, p**n)
            b = rng.randrange(1, p**n)
            while b % p == 0:
                b = rng.randrange(1, p**n)
            xa = PadicNumber.from_int(a, p, n)
            xb = PadicNumber.from_int(b, p, n)
            lhs = teichmuller(xa * xb)
            rhs = teichmuller(xa) * teichmuller(xb)
            assert lhs.agrees_with(rhs)


def test_teichmuller_fixed_point():
    for p in (3, 5, 7):
        x = PadicNumber.from_int(p + 2, p, 10)
        w = teichmuller(x)
        assert teichmuller(w) == w


def test_teichmuller_p2_convention():
    n = 10
    assert teichmuller(PadicNumber.from_int(5, 2, n)) == PadicNumber.one(2, n)
    w3 = teichmuller(PadicNumber.from_int(3, 2, n))
    assert w3 == PadicNumber.from_int(-1, 2, n)


def test_one_and_teichmuller_at_precision_zero_are_markers():
    one = PadicNumber.one(5, 0)
    assert one.is_zero and one.known_to == 0
    marker = PadicNumber.zero(2, known_to=0)
    w5 = teichmuller(PadicNumber.from_int(5, 2, 4), precision=0)
    w3 = teichmuller(PadicNumber.from_int(3, 2, 4), precision=0)
    assert w5 == w3 == marker


def test_teichmuller_rejects_non_units():
    with pytest.raises(DomainError):
        teichmuller(PadicNumber.from_int(10, 5, 4))
    with pytest.raises(DomainError):
        teichmuller(PadicNumber.zero(5))


def test_angle_examples():
    p = 5
    assert angle(PadicNumber.one(p, 8)) == PadicNumber.one(p, 8)
    two = PadicNumber.from_int(2, p, 8)
    a2 = angle(two)
    w2 = teichmuller(two)
    assert a2.agrees_with(two / w2)
    assert a2.residue(1) == 1
    # factorization recovers x at working precision
    assert (w2 * a2).agrees_with(two)


def test_angle_lands_in_principal_units():
    rng = random.Random(6)
    for p in (2, 3, 7):
        q_digits = 2 if p == 2 else 1
        for _ in range(30):
            a = rng.randrange(1, p**10)
            while a % p == 0:
                a = rng.randrange(1, p**10)
            x = PadicNumber.from_int(a, p, 10)
            assert angle(x).residue(q_digits) == 1


# -- unit powers -------------------------------------------------------


def test_unit_power_trivial_exponents():
    u = PadicNumber.from_int(6, 5, 8)
    assert unit_power(u, 0) == PadicNumber.one(5, 8)
    assert unit_power(u, 1).agrees_with(u)


def test_unit_power_matches_repeated_multiplication():
    u = PadicNumber.from_int(6, 5, 8)
    direct = u * u
    assert unit_power(u, 2).agrees_with(direct)
    assert unit_power(u, 2).residue(8) == pow(6, 2, 5**8)
    for s in (3, 7, 11):
        assert unit_power(u, s).residue(8) == pow(6, s, 5**8)
    # negative integer exponents agree with the inverse power
    assert unit_power(u, -3).agrees_with(PadicNumber.one(5, 8) / u**3)


def test_unit_power_matches_binomial_series():
    def outcome(f):
        try:
            return repr(f())
        except PadicError as e:
            return type(e)

    rng = random.Random(12)
    for p in (2, 3, 5, 7, 13):
        q_digits = 2 if p == 2 else 1
        for _ in range(80):
            n = rng.randint(q_digits, 10)
            a = 1 + p ** rng.randint(q_digits, n) * rng.randrange(p**n)
            u = PadicNumber.from_int(a, p, n)
            if rng.randrange(2):
                s = rng.randint(-10**4, 10**4)
            else:
                # too few digits for the reduction of s raises
                s = PadicNumber.from_rational(rng.randint(-999, 999),
                                              rng.choice((1, 3, 11)), p,
                                              rng.randint(0, n))
            for precision in (None, -1, 0, rng.randint(1, n)):
                assert (outcome(lambda: unit_power(u, s, precision))
                        == outcome(lambda: unit_power_oracle(u, s, precision)))


def test_unit_power_p2():
    u = PadicNumber.from_int(5, 2, 12)
    for s in (2, 3, 6):
        assert unit_power(u, s).residue(12) == pow(5, s, 2**12)


def test_unit_power_homomorphism():
    rng = random.Random(7)
    for p in (3, 5):
        for _ in range(20):
            a = 1 + p * rng.randrange(1, p**8)
            u = PadicNumber.from_int(a, p, 10)
            s, t = rng.randrange(-20, 20), rng.randrange(-20, 20)
            lhs = unit_power(u, s + t)
            rhs = unit_power(u, s) * unit_power(u, t)
            assert lhs.agrees_with(rhs)


def test_unit_power_padic_exponent():
    p = 5
    u = PadicNumber.from_int(6, p, 10)
    half = PadicNumber.from_rational(1, 2, p, 10)   # 1/2 lies in Z_5
    r = unit_power(u, half)
    assert (r * r).agrees_with(u)


def test_unit_power_rejects_bad_inputs():
    with pytest.raises(DomainError):
        unit_power(PadicNumber.from_int(2, 5, 8), 2)   # not = 1 mod 5
    with pytest.raises(DomainError):
        unit_power(PadicNumber.from_int(3, 2, 8), 2)   # not = 1 mod 4
    u = PadicNumber.from_int(6, 5, 8)
    with pytest.raises(DomainError):
        unit_power(u, PadicNumber.from_rational(1, 5, 5, 8))  # exponent not in Z_5


def test_unit_power_checks_the_exponent_at_one():
    one = PadicNumber.one(5, 8)
    with pytest.raises(DomainError, match="exponent must be an int"):
        unit_power(one, "abc")
    with pytest.raises(DomainError, match="exponent lives in a different Q_p"):
        unit_power(one, PadicNumber.from_int(3, 7, 8))
