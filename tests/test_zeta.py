"""Bernoulli numbers, the regularized measure, and both zeta routes."""

import math
import random

from fractions import Fraction

import pytest

from padicosc.errors import DomainError, PoleError, PrecisionExhaustedError
from padicosc.padics import (
    PadicNumber,
    is_prime,
    teichmuller,
    unit_power,
    vp,
)
from padicosc.galois import Branch
from padicosc.zeta import (
    MazurMeasure,
    ZetaBranchEval,
    _floor_unit_sum,
    _unit_sum,
    bernoulli,
    default_regulator,
    integrate_units,
    measure_value,
    total_mass,
    zeta_interp,
    zeta_measure,
)


def frac(a, b, p, n=24):
    return PadicNumber.from_rational(a, b, p, n)


def diff_exponent(a, b):
    """Valuation of a - b, or None when indistinguishable from equal."""
    d = a - b
    if d.is_zero:
        return None
    return d.valuation


# -- Bernoulli oracle ----------------------------------------------------


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for k in range(3, 32, 2):
        assert bernoulli(k) == 0


def test_bernoulli_von_staudt_clausen():
    # denominator of B_2k is the product of primes q with (q-1) | 2k
    for k2 in range(2, 401, 2):
        expected = 1
        for q in range(2, k2 + 2):
            if is_prime(q) and k2 % (q - 1) == 0:
                expected *= q
        assert bernoulli(k2).denominator == expected


def recurrence_bernoulli(kmax):
    """B_0..B_kmax by sum_j C(m+1, j) B_j = 0, in Fractions: an oracle
    that shares nothing with the zigzag kernel."""
    table = [Fraction(1)]
    while len(table) <= kmax:
        m = len(table)
        acc = sum(math.comb(m + 1, j) * table[j] for j in range(m))
        table.append(-acc / (m + 1))
    return table


def test_bernoulli_matches_recurrence_oracle():
    for k, expected in enumerate(recurrence_bernoulli(300)):
        assert bernoulli(k) == expected, k


def test_bernoulli_known_large_value():
    assert bernoulli(60) == Fraction(
        -1215233140483755572040304994079820246041491, 56786730)


# -- measure -------------------------------------------------------------


def test_measure_closed_form_matches_two_term_definition():
    # E_{1,r} from its B1 definition, independent of _disc_constants
    def oracle(a, level, r, p):
        q = p**level
        b1 = lambda x: x - Fraction(1, 2)
        return b1(Fraction(a, q)) - r * b1(Fraction(pow(r, -1, q) * a % q, q))

    # a negative r, an even r at odd p, and r = 1 mod q among them
    for p, r, level in [(5, 2, 2), (3, 2, 3), (7, 3, 2), (2, 3, 4),
                        (5, -2, 2), (7, 4, 2), (3, 10, 2)]:
        for a in range(p**level):
            got = measure_value(a, level, r, p, 16)
            want = PadicNumber.from_fraction(oracle(a, level, r, p), p, 16)
            assert got.agrees_with(want), (p, r, level, a)


def test_measure_worked_example():
    # p=5, r=2, a=3, N=1: R = 3, slope = (2*3 - 1)/5 = 1, so
    # 2 floor(9/5) - 3 + (2 - 1)/2 = -1/2 = B1(3/5) - 2 B1(4/5)
    assert measure_value(3, 1, 2, 5, 10).agrees_with(frac(-1, 2, 5, 10))


def test_measure_rejects_bad_input():
    with pytest.raises(DomainError):
        measure_value(0, 1, 1, 5)          # r = 1 regularizes nothing
    with pytest.raises(DomainError):
        measure_value(0, 1, -1, 5)         # r = -1 zeroes the prefactor
    with pytest.raises(DomainError):
        measure_value(0, 1, 10, 5)         # r divisible by p
    with pytest.raises(DomainError):
        measure_value(25, 2, 2, 5)         # residue out of range


def test_measure_distribution_property():
    for p, r in [(3, 2), (5, 2), (7, 3)]:
        coarse = MazurMeasure.build(p, r, 1, 14)
        fine = MazurMeasure.build(p, r, 2, 14)
        finest = MazurMeasure.build(p, r, 3, 14)
        assert coarse.refined_by(fine)
        assert fine.refined_by(finest)


def test_total_mass_closed_form():
    # E_{1,r}(Z_p) = (r - 1)/2, computed here without measure_value
    for p in (2, 3, 5, 7):
        for r in (2, 3, 4, -2, 5, 11):
            if r % p == 0:
                continue
            for n in (1, 5, 16):
                want = PadicNumber.from_rational(r - 1, 2, p, n)
                assert total_mass(r, p, n) == want, (p, r, n)


def test_measure_total_mass_level_independent():
    for p, r in [(5, 2), (3, 4), (2, 3)]:
        want = total_mass(r, p, 16)
        for level in (1, 2, 3):
            acc = PadicNumber.zero(p)
            for v in MazurMeasure.build(p, r, level, 16).values:
                acc = acc + v
            assert acc.agrees_with(want), (p, r, level)


def test_measure_is_bounded():
    # values lie in (1/2) Z_p, so for odd p every value is a p-adic integer
    for p, r in [(3, 2), (5, 3), (7, 3)]:
        for v in MazurMeasure.build(p, r, 2, 12).values:
            assert v.is_zero or v.valuation >= 0


# -- Riemann sums --------------------------------------------------------


def test_integrate_zero_function():
    out = integrate_units(lambda a: PadicNumber.zero(5), 2, 2, 5, 12)
    assert out.is_zero


def test_integrate_constant_is_level_stable():
    # the indicator of the units is locally constant at level 1, so the
    # sum telescopes exactly under refinement
    one = PadicNumber.one(5, 14)
    i3 = integrate_units(lambda a: one, 3, 2, 5, 14)
    i4 = integrate_units(lambda a: one, 4, 2, 5, 14)
    assert (i4 - i3).is_zero


def test_integrate_identity_converges():
    p = 5
    vals = {}
    for level in (3, 4, 5):
        g = lambda a: PadicNumber.from_int(a, p, 20)
        vals[level] = integrate_units(g, level, 2, p, 20)
    d34 = diff_exponent(vals[4], vals[3])
    d45 = diff_exponent(vals[5], vals[4])
    assert d34 is None or d34 >= 3
    assert d45 is None or d34 is None or d45 >= d34 + 1


# -- regulators ----------------------------------------------------------


def test_default_regulators():
    assert default_regulator(2) == 3
    assert default_regulator(3) == 2
    assert default_regulator(5) == 2
    assert default_regulator(7) == 3
    # brute force: the smallest r of multiplicative order p(p-1) mod p^2
    def order(r, q):
        e, x = 1, r
        while x != 1:
            e, x = e + 1, x * r % q
        return e

    for p in range(3, 200):
        if all(p % d for d in range(2, p)):
            r = next(r for r in range(2, p * p)
                     if r % p and order(r, p * p) == p * (p - 1))
            assert default_regulator(p) == r, p


def test_default_regulator_has_full_order_mod_p_squared():
    def prime_divisors(n):
        out, d = [], 2
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        return out + ([n] if n > 1 else [])

    for p in (3, 5, 7, 11, 13):
        r = default_regulator(p)
        order = p * (p - 1)
        assert pow(r, order, p * p) == 1
        for f in prime_divisors(order):
            assert pow(r, order // f, p * p) != 1, (p, r, f)


# -- interpolation route --------------------------------------------------


def test_interp_p2_display_values():
    assert zeta_interp(2, Branch(2, 0), 32).agrees_with(frac(1, 12, 2, 32))
    assert zeta_interp(4, Branch(2, 0), 32).agrees_with(frac(-7, 120, 2, 32))


def test_interp_branch_matched_odd_primes():
    assert zeta_interp(2, Branch(5, 2), 20).agrees_with(frac(1, 3, 5, 20))
    # p=3, kappa0=0, k=2: -(1 - 3) (1/6) / 2 = 1/6
    assert zeta_interp(2, Branch(3, 0), 20).agrees_with(frac(1, 6, 3, 20))


def test_interp_gates():
    with pytest.raises(DomainError, match="even"):
        zeta_interp(3, Branch(5, 1), 16)
    with pytest.raises(DomainError, match="mismatch"):
        zeta_interp(4, Branch(5, 2), 16)
    with pytest.raises(DomainError, match="mismatch"):
        zeta_interp(3, Branch(2, 0), 16)
    with pytest.raises(DomainError):
        zeta_interp(0, Branch(5, 0), 16)


@pytest.mark.parametrize("p, kappa0, k", [
    (5, 2, 2), (7, 4, 4), (3, 0, 2), (5, 0, 4), (7, 0, 6)])
def test_interp_kummer_congruences(p, kappa0, k):
    # k' = k mod (p-1) p^j: the values agree to exactly j+1 digits off
    # the trivial branch; on it the pole at s = 1 costs two digits, and
    # 1/k' costs v_p(k') more (possible only at j = 0, since p does not
    # divide k)
    branch = Branch(p, kappa0)
    base = zeta_interp(k, branch, 30)
    for j in range(3):
        for t in (1, 2):
            k2 = k + t * (p - 1) * p**j
            expected = j + 1 if kappa0 else j - 1 - vp(k2, p)
            got = diff_exponent(base, zeta_interp(k2, branch, 30))
            assert got == expected, (k2, j)


# -- measure route ---------------------------------------------------------


def test_zeta_measure_p2_matches_display_value():
    ev = zeta_measure(-1, Branch(2, 0), level=8, precision=12)
    assert ev.path == "measure"
    assert ev.value.valuation == -2
    gap = diff_exponent(ev.value, frac(1, 12, 2, 30))
    assert gap is None or gap >= ev.error_bound_exponent
    # <r>^2 - 1 = 8 for r = 3, so three digits go to the prefactor
    assert ev.error_bound_exponent == 8 - 3


def test_zeta_measure_two_path_agreement():
    branch = Branch(5, 2)
    exact = zeta_interp(2, branch, 24)
    last = None
    for level in (3, 4, 5):
        ev = zeta_measure(-1, branch, level=level, precision=12)
        gap = diff_exponent(ev.value, exact)
        assert gap is None or gap >= ev.error_bound_exponent
        if gap is not None and last is not None:
            assert gap >= last + 1
        last = gap


def test_zeta_measure_error_bound_grows_with_level():
    branch = Branch(3, 0)
    bounds = [zeta_measure(-3, branch, level=n, precision=8).error_bound_exponent
              for n in (3, 4, 5)]
    assert bounds == sorted(bounds) and bounds[0] < bounds[-1]


def test_zeta_measure_regulator_independence():
    branch = Branch(5, 2)
    e1 = zeta_measure(-1, branch, regulator=2, level=4, precision=12)
    e2 = zeta_measure(-1, branch, regulator=3, level=4, precision=12)
    gap = diff_exponent(e1.value, e2.value)
    combined = min(e1.error_bound_exponent, e2.error_bound_exponent)
    assert gap is None or gap >= combined


def test_zeta_measure_pole():
    with pytest.raises(PoleError):
        zeta_measure(1, Branch(5, 0), level=3, precision=8)
    with pytest.raises(PoleError):
        zeta_measure(1, Branch(2, 0), level=4, precision=8)
    # nontrivial torsion at s = 1 is a finite value, not a pole
    ev = zeta_measure(1, Branch(5, 2), level=3, precision=8)
    assert isinstance(ev, ZetaBranchEval)


def test_zeta_measure_near_pole_marker_exhausts():
    s = PadicNumber.one(5, 6) + PadicNumber.zero(5, known_to=6)
    with pytest.raises(PrecisionExhaustedError):
        zeta_measure(s, Branch(5, 0), level=3, precision=8)


def test_zeta_measure_denominator_consumes_budget():
    # k = 2 * 3^13: <r>^k - 1 vanishes to 14 digits, beyond budget 4 + 10
    k = 2 * 3**13
    with pytest.raises(PrecisionExhaustedError):
        zeta_measure(1 - k, Branch(3, 0), level=3, precision=4)


@pytest.mark.parametrize("p,kappa0,k,level", [
    (5, 2, 2, 3), (2, 0, 2, 5), (7, 4, 4, 3), (5, 0, 1, 3), (2, 0, 1, 4)])
def test_zeta_measure_integer_s_matches_same_s_as_padic(p, kappa0, k, level):
    branch = Branch(p, kappa0)
    as_int = zeta_measure(1 - k, branch, level=level, precision=10)
    s = PadicNumber.from_int(1 - k, p, 30)
    as_padic = zeta_measure(s, branch, level=level, precision=10)
    assert (as_int.value - as_padic.value).is_zero
    assert as_int.error_bound_exponent == as_padic.error_bound_exponent


# (default, second, even) regulator per prime; p = 2 has no even one
KERNEL_REGULATORS = {2: (3, 5), 3: (2, 5, 4), 5: (2, 3, 4), 7: (3, 5, 2),
                     11: (2, 3, 4), 13: (2, 5, 4)}


def _kernel_cases(p):
    """(kappa0, e, r, level, digits): a matched and an unmatched weight at
    every level, regulator and digit count; e runs through 0..12 and
    kappa0 through every class mod the torsion order."""
    order = 2 if p == 2 else p - 1
    i = 0
    for level in (range(2, 8) if p == 2 else range(1, 6)):
        combos = [(r, d) for r in KERNEL_REGULATORS[p] for d in (4, 7, 24)]
        if p**level > 10**5:
            # the loop takes one term per unit: 11^5 and 13^5 run one combo
            combos = combos[:1]
        for r, digits in combos:
            e = i % 13
            yield (1 + e) % order, e, r, level, digits
            yield (2 + e + i % (order - 1)) % order, e, r, level, digits
            i += 1


@pytest.mark.parametrize("p", sorted(KERNEL_REGULATORS))
def test_floor_sum_kernel_matches_residue_loop(p):
    # by name: zeta_measure sends small p-adic exponents to the floor sums
    # too, so neither kernel is reachable alone through the public API
    for kappa0, e, r, level, digits in _kernel_cases(p):
        args = (p, kappa0, e, r, level, digits)
        assert _floor_unit_sum(*args) == _unit_sum(*args), args


# criterion 06's branches with their matched k, plus p = 2
ORACLE_GRID = (
    (2, 0, (2, 4, 6)),
    (3, 0, (2, 4, 6, 8, 10, 12)),
    (5, 0, (4, 8, 12)),
    (5, 2, (2, 6, 10)),
    (7, 0, (6, 12)),
    (7, 2, (2, 8)),
    (7, 4, (4, 10)),
)
ORACLE_REGULATORS = {2: (3, 5), 3: (2, 5), 5: (2, 3), 7: (3, 5)}
# (p, kappa0, s = num/den)
ORACLE_PADIC_S = ((2, 0, 2, 3), (5, 2, 13, 7), (7, 4, 10, 3))


def _assert_agree(by_hand, value, precision):
    d = by_hand - value
    assert d.is_zero and d.known_to >= precision


def test_zeta_measure_via_public_integration():
    # rebuild each integral through integrate_units, then apply the
    # prefactor <r>^(1-s) w(r)^kappa0 - 1 by hand
    digits, precision = 24, 12
    for p, kappa0, ks in ORACLE_GRID:
        branch = Branch(p, kappa0)
        for r in ORACLE_REGULATORS[p]:
            for level in (2, 3):
                for k in ks:
                    # at matched k the integrand is a^(k-1) and the
                    # prefactor r^k - 1
                    g = lambda a: PadicNumber.from_int(a, p, digits) ** (k - 1)
                    integral = integrate_units(g, level, r, p, digits)
                    by_hand = integral / PadicNumber.from_int(r**k - 1, p, digits)
                    ev = zeta_measure(1 - k, branch, regulator=r, level=level,
                                      precision=precision)
                    _assert_agree(by_hand, ev.value, precision)
    # a p-adic s, then the residue loop at negative exponents (s = 2, 3)
    for p, kappa0, num, den in ORACLE_PADIC_S:
        branch = Branch(p, kappa0)

        def split(a):
            x = PadicNumber.from_int(a, p, digits)
            w = teichmuller(x)
            return x / w, w

        def g(a):
            angle, w = split(a)
            return unit_power(angle, -s, digits) * w ** (kappa0 - 1)

        for s in (PadicNumber.from_rational(num, den, p, 40), 2, 3):
            for r in ORACLE_REGULATORS[p]:
                angle, w = split(r)
                prefactor = unit_power(angle, 1 - s, digits) * w**kappa0 - 1
                for level in (2, 3):
                    integral = integrate_units(g, level, r, p, digits)
                    ev = zeta_measure(s, branch, regulator=r, level=level,
                                      precision=precision)
                    _assert_agree(integral / prefactor, ev.value, precision)


def test_zeta_measure_gates():
    with pytest.raises(DomainError, match="even"):
        zeta_measure(-1, Branch(5, 1), level=3)
    with pytest.raises(DomainError):
        zeta_measure(-1, Branch(2, 0), level=1)     # p = 2 needs level >= 2
    with pytest.raises(DomainError):
        zeta_measure(-1, Branch(5, 2), regulator=10, level=3)
    for p, kappa0 in ((2, 0), (5, 0), (5, 2), (7, 4)):
        with pytest.raises(DomainError, match="invalid regulator"):
            zeta_measure(-1, Branch(p, kappa0), regulator=-1, level=3)
    with pytest.raises(DomainError):
        s = PadicNumber.from_rational(1, 5, 5, 10)  # valuation -1
        zeta_measure(s, Branch(5, 2), level=3)


def test_zeta_report_fields():
    ev = zeta_measure(-1, Branch(5, 2), level=3, precision=10)
    assert isinstance(ev, ZetaBranchEval)
    assert (ev.prime, ev.kappa0, ev.s, ev.level) == (5, 2, -1, 3)
    assert ev.regulator == 2
