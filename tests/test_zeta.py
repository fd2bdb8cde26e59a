"""Bernoulli numbers, the regularized measure, and both zeta routes."""

import math
import random
import tracemalloc

from fractions import Fraction

import pytest

from padicosc.errors import (DomainError, PadicError, PoleError,
                             PrecisionExhaustedError)
from padicosc.padics import (
    PadicNumber,
    _teichmuller_residue,
    _torsion_order,
    is_prime,
    teichmuller,
    unit_power,
    vp,
)
from padicosc import galois, zeta
from padicosc.galois import Branch
from padicosc.zeta import (
    MazurMeasure,
    ZetaBranchEval,
    _class_unit_sum,
    _disc_constants,
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
    with pytest.raises(DomainError, match="^negative Bernoulli index$"):
        bernoulli(-1)


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


def test_measure_is_constant_on_classes_mod_r():
    # for 0 < a < q, E_{1,r}(a) = (r - 1)/2 + m with m = a q^-1 mod |r|
    # taken in [1 - r, 0] (r > 0) or [1, |r|] (r < 0): the identity the
    # class sums rest on, pinned through the public measure
    for p in (2, 3, 5, 7):
        for r in (-3, -2, 2, 3, 4, 5, 10, 29, 101):
            if r % p == 0:
                continue
            size = abs(r)
            for level in range(1, 5):
                q = p**level
                by_class = {}
                for a in range(1, q):
                    got = measure_value(a, level, r, p, 30)
                    first = by_class.setdefault(a % size, got)
                    assert got == first, (p, r, level, a)
                    m = a * pow(q, -1, size) % size
                    if r > 0:
                        m = m - size if m else 0
                    else:
                        m = m or size
                    want = frac(2 * m + r - 1, 2, p, 30)
                    assert got == want, (p, r, level, a)


def test_measure_rejects_bad_input():
    with pytest.raises(DomainError):
        measure_value(0, 1, 1, 5)          # r = 1 regularizes nothing
    with pytest.raises(DomainError):
        measure_value(0, 1, -1, 5)         # r = -1 zeroes the prefactor
    with pytest.raises(DomainError):
        measure_value(0, 1, 10, 5)         # r divisible by p
    with pytest.raises(DomainError):
        measure_value(25, 2, 2, 5)         # residue out of range
    for call in (lambda: measure_value(0, -1, 2, 5),  # p^level a float
                 lambda: MazurMeasure.build(5, 2, -1),
                 lambda: integrate_units(_unit_value, -1, 2, 5)):
        with pytest.raises(DomainError, match="^level must be >= 0"):
            call()


def test_measure_distribution_property():
    for p, r in [(3, 2), (5, 2), (7, 3)]:
        coarse = MazurMeasure.build(p, r, 1, 14)
        fine = MazurMeasure.build(p, r, 2, 14)
        finest = MazurMeasure.build(p, r, 3, 14)
        assert coarse.refined_by(fine)
        assert fine.refined_by(finest)
    coarse = MazurMeasure.build(3, 2, 1, 14)
    for finer, message in ((MazurMeasure.build(3, 4, 2, 14), "measures do not match"),
                           (MazurMeasure.build(5, 2, 2, 14), "measures do not match"),
                           (MazurMeasure.build(3, 2, 3, 14),
                            "refinement must be one level finer")):
        with pytest.raises(DomainError, match="^%s$" % message):
            coarse.refined_by(finer)


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
    # k = 2 * 3^13: <r>^k - 1 vanishes to 14 digits, so the sum mod 3^3
    # certifies the value to 3^(3 - 14), and it carries no digit past that
    k = 2 * 3**13
    ev = zeta_measure(1 - k, Branch(3, 0), level=3, precision=4)
    assert ev.error_bound_exponent == ev.value.abs_precision == 3 - 14


def test_zeta_measure_deep_prefactor_obeys_kummer():
    # --p 3 --precision 4 zeta-measure 3188646, k = 2 * 3^13: the value times
    # <2>^k - 1 is the Riemann sum, certified mod 3^5, and it depends on k
    # only mod phi(3^5) = 2 * 3^4, so it agrees there with k = 162
    # (Kummer), where zeta_interp gives the value exactly
    branch, k = Branch(3, 0), 2 * 3**13
    ev = zeta_measure(1 - k, branch, level=5, precision=4)
    assert ev.error_bound_exponent == 5 - 14
    x = PadicNumber.from_int(2, 3, 40)
    angle = x / teichmuller(x)
    lhs = ev.value * (unit_power(angle, k) - 1)
    rhs = zeta_interp(162, branch, 40) * (unit_power(angle, 162) - 1)
    d = lhs - rhs
    assert d.is_zero and d.known_to >= 5, d


def _padic_prefactor(s, kappa0, r, p, digits):
    """<r>^(1-s) w(r)^kappa0 - 1 in PadicNumber arithmetic: the oracle of
    the integer prefactor."""
    x = PadicNumber.from_int(r, p, digits)
    w = teichmuller(x)
    return unit_power(x / w, 1 - s, digits) * w**kappa0 - 1


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type is what both sides must share
        return type(exc)


def test_integer_prefactor_matches_padic_formula():
    # the plan's integer prefactor, mod p^(level + v_den), against the
    # PadicNumber formula; where the plan raises, s is 1, or it is known
    # apart from 1 no further than the pole, or it is too short for the
    # exponent, or the formula, at the v_den of a lift of s, raises too
    rng = random.Random(2017)
    raised = 0
    for _ in range(2500):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        r = rng.choice([r for r in range(-40, 41) if r % p and abs(r) > 1])
        kappa0 = rng.randrange(0, 2 if p == 2 else p - 1, 2)
        level = rng.randrange(2, 40)
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.randrange(-60, 61)
        elif kind == 1:
            # up to 44 digits at valuation 0-2; short ones often run out
            n, v = rng.randrange(1, 45), rng.randrange(3)
            s = PadicNumber._make(p, v, rng.randrange(1, p**n), n)
        else:
            s = PadicNumber.zero(p, known_to=rng.randrange(0, 45))
        args = (s, Branch(p, kappa0), r, level, None)
        got = _outcome(zeta._plan, *args)
        if isinstance(got, type):
            raised += 1
            if got is PoleError or (s - 1).is_zero:
                assert s == 1 or (s - 1).is_zero, args
                continue
            assert got is PrecisionExhaustedError, (got, args)
            known = s.abs_precision
            lift = PadicNumber._make(p, 0, s.residue(known), known + 80)
            v_den = zeta._plan(lift, *args[1:])[3]
            assert (known < level - (2 if p == 2 else 1) or _outcome(
                _padic_prefactor, s, kappa0, r, p, level + v_den)
                is PrecisionExhaustedError), args
            continue
        digits = level + got[3]
        want = _padic_prefactor(s, kappa0, r, p, digits)
        assert got[2] == want.residue(digits), args
    assert 0 < raised < 2000, raised


def test_prefactor_precision_error_names_s():
    # w(2)^0 = 1, so v_den = v(<2> - 1) + v(1 - s) = 1 and the prefactor is
    # made mod 5**(3 + 1); it reads s mod 5**(4 - v(<2> - 1)), one digit
    # more than the exponent mod 5**2
    s = PadicNumber.from_int(-1, 5, 2)
    with pytest.raises(PrecisionExhaustedError) as info:
        zeta_measure(s, Branch(5, 0), level=3, precision=10)
    assert str(info.value) == (
        "zeta_measure needs s mod 5**3, but s is known mod 5**2")


def test_point_plan_valuation_matches_the_prefactor():
    # v_r and v_den in closed form against the valuations of <r> - 1 and
    # of the plan's prefactor itself, made with 30 digits past v_den from
    # an s that carries 80, on the even branches zeta serves
    rng = random.Random(26)
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        r = rng.choice([r for r in range(-40, 41) if r % p and abs(r) > 1])
        kappa0 = rng.randrange(0, 2 if p == 2 else p - 1, 2)
        if rng.randrange(2):
            s = rng.choice([s for s in range(-60, 61) if s != 1])
        else:
            v = rng.randrange(3)
            s = PadicNumber._make(p, v, rng.randrange(1, p**80), 80 - v)
        _, v_r, v_den = zeta._point_plan(s, p, kappa0, r)
        x = PadicNumber.from_int(r, p, 40)
        assert (x / teichmuller(x) - 1).valuation == v_r, (p, r)
        prefactor = zeta._plan(s, Branch(p, kappa0), r, 30, None)[2]
        assert prefactor and vp(prefactor, p) == v_den, (s, p, r, kappa0)


def _planned_digits_draw(rng):
    """(p, kappa0, r, level, s0): s0 an int that is not the pole; r is
    small, or at odd p a lift of w(c) mod p^2, whose <r> - 1 has v >= 2."""
    p = rng.choice((2, 3, 5, 7, 11, 13))
    kappa0 = rng.randrange(0, 2 if p == 2 else p - 1, 2)
    if p > 2 and rng.randrange(2):
        r = pow(rng.randrange(1, p), p, p * p) + p * p * rng.randrange(1, 3)
    else:
        r = rng.choice([r for r in range(-40, 41) if r % p and abs(r) > 1])
    level = rng.randrange(3 if p == 2 else 2, 7)
    return p, kappa0, r, level, rng.choice([s for s in range(-60, 61)
                                            if s != 1])


def test_s_with_the_planned_digits_certifies_one_fewer_raises():
    # the plan reads s to max(level - v_p(q), level + v_den - v_r) digits,
    # the exponent's and the prefactor's; here v_r and v_den are read off
    # the PadicNumber formula.  With exactly that many digits s gives the
    # value of its integer representative, with one fewer the one error
    rng = random.Random(29)
    sets = {"exponent": 0, "prefactor": 0}
    for _ in range(300):
        p, kappa0, r, level, s0 = _planned_digits_draw(rng)
        x = PadicNumber.from_int(r, p, 60)
        v_r = (x / teichmuller(x) - 1).valuation
        v_den = _padic_prefactor(s0, kappa0, r, p, 60).valuation
        by_exponent = level - (2 if p == 2 else 1)
        need = max(by_exponent, level + v_den - v_r)
        if need != level + v_den - v_r:
            sets["exponent"] += 1
        elif need != by_exponent:
            sets["prefactor"] += 1
        branch = Branch(p, kappa0)
        exact = zeta_measure(s0, branch, r, level, 20)
        ev = zeta_measure(PadicNumber._make(p, 0, s0, need), branch, r,
                          level, 20)
        assert (ev.value, ev.error_bound_exponent) == (
            exact.value, exact.error_bound_exponent), (p, kappa0, r, s0)
        with pytest.raises(PrecisionExhaustedError) as info:
            zeta_measure(PadicNumber._make(p, 0, s0, need - 1), branch, r,
                         level, 20)
        assert str(info.value) == (
            "zeta_measure needs s mod %d**%d, but s is known mod %d**%d"
            % (p, need, p, need - 1))
    assert min(sets.values()) >= 40, sets


def _lift(rng, x):
    """x with 1-8 random digits appended past its absolute precision."""
    p, n = x.prime, x.abs_precision
    extra = rng.randrange(1, 9)
    return PadicNumber._make(
        p, 0, x.residue(n) + p**n * rng.randrange(p**extra), n + extra)


def test_zeta_measure_values_survive_lifts_of_s():
    # the exactness contract: lifts of s that agree with it to its
    # absolute precision give values that agree with its value to every
    # digit the value carries, and it carries error_bound_exponent
    rng = random.Random(26)
    for _ in range(50):
        p = rng.choice((2, 3, 5, 7))
        branch = Branch(p, rng.randrange(0, 2 if p == 2 else p - 1, 2))
        level = rng.randrange(2, 6)
        regulator = rng.choice([None] + [r for r in (-3, -2, 2, 3, 6, 10, 11)
                                         if r % p])
        precision = rng.choice((None, 3, 8, 20))
        n, v = rng.randrange(12, 25), rng.randrange(4)
        s = PadicNumber._make(p, v, rng.randrange(1, p**n), n - v)
        ev = zeta_measure(s, branch, regulator, level, precision)
        assert ev.value.abs_precision == ev.error_bound_exponent, ev
        for _ in range(3):
            lifted = zeta_measure(_lift(rng, s), branch, regulator, level,
                                  precision)
            assert lifted.error_bound_exponent == ev.error_bound_exponent
            d = lifted.value - ev.value
            assert d.is_zero and d.known_to >= ev.error_bound_exponent, (
                s, branch, regulator, level, precision)


@pytest.mark.parametrize("name,value", [
    ("precision", 20.0), ("level", 3.0), ("regulator", 2.0),
    ("precision", True), ("level", True), ("level", None), ("s", True)])
def test_zeta_measure_settings_must_be_ints(name, value):
    # a float reached pow() as a bare TypeError, and True ran as 1 (as s,
    # into a record that zeta_report_from_dict refuses)
    kwargs = {"s": -1, "branch": Branch(5, 2), "level": 3, "precision": 8,
              name: value}
    with pytest.raises(DomainError, match="^%s must be an integer" % name):
        zeta_measure(**kwargs)


def _unit_value(a):
    return PadicNumber.from_int(a, 5, 8)


@pytest.mark.parametrize("name,call", [
    ("regulator", lambda: measure_value(1, 2, 2.0, 5)),
    ("regulator", lambda: integrate_units(_unit_value, 2, 2.0, 5)),
    ("regulator", lambda: total_mass(2.0, 5)),
    ("level", lambda: MazurMeasure.build(5, 2, 1.0)),
    ("precision", lambda: measure_value(1, 2, 2, 5, precision=3.0)),
    ("level", lambda: measure_value(1, True, 2, 5)),
    ("a", lambda: measure_value(True, 2, 2, 5)),
    ("k", lambda: bernoulli(True)),
    ("k", lambda: bernoulli(2.0)),
    ("k", lambda: zeta_interp(2.0, Branch(5, 2))),
    pytest.param("precision", lambda: zeta_interp(2, Branch(5, 2), 4.0),
                 id="precision-zeta_interp"),
    pytest.param("s", lambda: zeta_measure(True, Branch(5, 0), level=3),
                 id="s-pole_branch"),
    pytest.param("exponent",
                 lambda: unit_power(PadicNumber.from_int(6, 5, 8), True),
                 id="exponent-unit_power")])
def test_measure_settings_must_be_ints(name, call):
    # as for zeta_measure: a float raised a bare TypeError, True ran as 1
    # (bernoulli(True) was B_1, and at s = True Branch(5, 0) met its pole)
    with pytest.raises(DomainError, match="^%s must be an integer" % name):
        call()


def test_exponent_precision_error_names_s():
    # the sum runs mod 5**5, where <a> has order 5**4, so the exponent -s
    # is needed mod 5**4; w(7)^2 = 4 mod 5 makes the prefactor a unit, and
    # v(<7> - 1) = 2 lets it read s mod 5**(5 - 2) only
    s = PadicNumber._make(5, 0, 419, 3)
    with pytest.raises(PrecisionExhaustedError) as info:
        zeta_measure(s, Branch(5, 2), regulator=7, level=5, precision=3)
    assert str(info.value) == (
        "zeta_measure needs s mod 5**4, but s is known mod 5**3")


@pytest.mark.parametrize("p,kappa0,k,level", [
    (5, 2, 2, 3), (2, 0, 2, 5), (7, 4, 4, 3), (5, 0, 1, 3), (2, 0, 1, 4)])
def test_zeta_measure_integer_s_matches_same_s_as_padic(p, kappa0, k, level):
    branch = Branch(p, kappa0)
    as_int = zeta_measure(1 - k, branch, level=level, precision=10)
    s = PadicNumber.from_int(1 - k, p, 30)
    as_padic = zeta_measure(s, branch, level=level, precision=10)
    assert (as_int.value - as_padic.value).is_zero
    assert as_int.error_bound_exponent == as_padic.error_bound_exponent


def _unit_sum(p, kappa0, exponent, regulator, level, digits):
    """The residue loop, one term per unit: sum over the units a mod
    p^level of <a>^exponent w(a)^(kappa0-1) E_{1,r}(a + p^level Z_p), as a
    residue mod p^digits, for any integer exponent.  The oracle of the
    class sums."""
    q, mod = p**level, p**digits
    rinv, slope, _ = _disc_constants(regulator, q)
    # (r - 1)/2 mod p^digits; when r is even, p and so p^digits are odd
    half = (regulator - 1 + (0 if regulator % 2 else mod)) // 2
    stride, order = (4, 2) if p == 2 else (p, p - 1)
    e_om = (kappa0 - 1) % order
    acc = 0
    for c in range(1, stride, 2 if p == 2 else 1):
        w = _teichmuller_residue(p, c, digits)
        winv = pow(w, order - 1, mod)  # w^-1: w^order = 1
        part = 0
        if exponent < 0:
            den = 1  # sum mu / x as part/den: one inverse per class
            for a in range(c, q, stride):
                mu = regulator * (rinv * a // q) - slope * a + half
                x = pow(a * winv % mod, -exponent, mod)
                part, den = (part * x + mu * den) % mod, den * x % mod
            part *= pow(den, -1, mod)
        else:
            for a in range(c, q, stride):
                mu = regulator * (rinv * a // q) - slope * a + half
                part += pow(a * winv % mod, exponent, mod) * mu
        acc += part % mod * pow(w, e_om, mod)
    return acc % mod


# the top level per prime of the differential draws: at most 2197 units
DIFF_TOP = {2: 10, 3: 6, 5: 4, 7: 3, 11: 3, 13: 3}


def _exponent_draw(rng, p, level):
    """An exponent: small, near the last sample phi(q) (level - 1), past
    it, p-adic, huge or negative."""
    order = _torsion_order(p)
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randrange(30)
    if kind == 1:
        return order * level + rng.randrange(-order - 2, order + 2)
    if kind == 2:
        return order * level + rng.randrange(order * level * 4)
    if kind == 3:
        return rng.randrange(p**30)
    if kind == 4:
        return rng.randrange(10**40)
    return -rng.randrange(1, 10**rng.randrange(1, 40))


@pytest.mark.parametrize("p", sorted(DIFF_TOP))
def test_floor_sum_kernel_matches_residue_loop(p):
    # the kernel against the loop oracle mod p^level, 200 seeded draws per
    # prime: matched and unmatched weights, negative regulators and |r| >
    # q, exponents on both sides of the last sample.  The kernel takes the
    # exponent as _plan hands it over, reduced mod p^(level - v_p(q)), and
    # every e >= 0 as it is
    rng = random.Random(2800 + p)
    order = _torsion_order(p)
    low = 2 if p == 2 else 1
    regulators = [r for r in range(-9, 30) if r % p and abs(r) > 1] + [101]
    # first e = 0 at the lowest level, where the class of 0 mod |r| is the
    # exception, with |r| > q
    fixed = [(low, r, 0) for r in (-3, 29, 101) if r % p]
    seen = {"matched": 0, "unmatched": 0, "direct": 0, "interpolated": 0}
    for draw in range(200):
        if draw < 2 * len(fixed):
            level, r, e = fixed[draw // 2]
        else:
            level = rng.randrange(low, DIFF_TOP[p] + 1)
            r = rng.choice(regulators)
            e = _exponent_draw(rng, p, level)
        matched = draw % 2 == 0
        kappa0 = (1 + e + (0 if matched else rng.randrange(1, order))) % order
        want = _unit_sum(p, kappa0, e, r, level, level)
        reduced = e % p**(level - (2 if p == 2 else 1))
        for exponent in {reduced, e} if e >= 0 else {reduced}:
            seen["direct" if exponent < order * level
                 else "interpolated"] += 1
            got = _class_unit_sum(p, kappa0, exponent, r, level)
            assert got == want, (p, kappa0, e, exponent, r, level)
        seen["matched" if matched else "unmatched"] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("p,level,s", [
    (7, 24, -2), (2, 65, -2), (7, 30, 2),
    (5, 20, PadicNumber.from_rational(1, 3, 5, 40))])
def test_zeta_measure_high_levels(p, level, s):
    # a unit class holds more than 2**63 - 1 units here, past what
    # len(range(...)) can count; consecutive levels must still agree.  At
    # s = 2 and at s = 1/3 the exponent -s mod p^(level - 1) is huge and
    # read off the samples
    branch = Branch(p, 0 if p == 2 else 2)
    low = zeta_measure(s, branch, level=level, precision=20)
    high = zeta_measure(s, branch, level=level + 1, precision=20)
    d = low.value - high.value
    bound = min(low.error_bound_exponent, high.error_bound_exponent)
    assert d.is_zero or d.valuation >= bound, (d, bound)


def test_plan_runs_no_kernel(monkeypatch):
    # --p 7 --kappa0 2 --level 30 zeta-measure -- -1: s = 2 is the
    # exponent -2 mod 7^29, and the plan is made without any sum
    def refuse(*args):
        raise AssertionError("a kernel ran in the plan")

    monkeypatch.setattr(zeta, "_class_unit_sum", refuse)
    r, exponent, prefactor, v_den, bound = zeta._plan(2, Branch(7, 2), None,
                                                      30, 32)
    assert (r, exponent) == (3, 7**29 - 2)
    # w(3)^2 = 2 mod 7: the prefactor is a unit, and the bound the level
    assert v_den == 0 and bound == 30 and prefactor % 7


def _per_unit_pow_sum(p, kappa0, exponent, r, level, digits):
    """The unit sum with one pow, and so one inverse, per unit, and the
    measure from measure_value: the oracle of the batched inverses."""
    mod = p**digits
    order = 2 if p == 2 else p - 1
    total = 0
    for a in range(1, p**level):
        if a % p == 0:
            continue
        x = PadicNumber.from_int(a, p, digits + 2)
        w = teichmuller(x).residue(digits)
        angle = a * pow(w, -1, mod) % mod
        mu = measure_value(a, level, r, p, digits).residue(digits)
        total += pow(angle, exponent, mod) * pow(w, (kappa0 - 1) % order,
                                                 mod) * mu
    return total % mod


@pytest.mark.parametrize("p,regulators", [
    (2, (3, -3, 5, -7)), (3, (4, -4, 5, -7)), (7, (3, -3, 4, -5))])
def test_negative_exponent_loop_matches_per_unit_pow(p, regulators):
    order = 2 if p == 2 else p - 1
    levels = (2, 3, 5) if p == 2 else (1, 2, 3)
    for r in regulators:
        for level in levels:
            for digits in (1, 6, 24):
                for e in (-1, -2, -5, -(p**12 + 3)):
                    # the weight w^(kappa0 - 1 - e) matched and unmatched
                    for kappa0 in {(1 + e) % order, (2 + e) % order}:
                        args = (p, kappa0, e, r, level, digits)
                        got = _unit_sum(*args)
                        assert got == _per_unit_pow_sum(*args), args


def test_class_sums_at_a_large_exponent():
    # e = 300 at p = 7, level 6 is read off 6 samples up to e = 30; their
    # power sums come from one list of residues mod p^level and no table of
    # k! S(i, k) rows, so the peak stays small (a whole table of unreduced
    # rows at e = 300 took about 9 MB here)
    args = (7, 2, 300, 3, 6)
    tracemalloc.start()
    try:
        got = _class_unit_sum(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert got == _unit_sum(*args, 6)


def _parent_run_step(p, total, prefactor, level, v_den, bound):
    """The run step in PadicNumbers: the sum and the prefactor made at
    their digits, one division and one cut.  The oracle of zeta_measure's
    one modular inverse in ints."""
    integral = PadicNumber._make(p, 0, total, level)
    den = PadicNumber._make(p, 0, prefactor, level + v_den)
    return (integral / den).truncated_to(bound)


SECOND_REGULATOR = {2: -5, 3: 5, 5: -3, 7: 10, 11: 3, 13: -6}


def test_run_step_matches_the_padic_division(monkeypatch):
    # zeta_measure against the PadicNumber run step on the same plan and
    # sum, over 2,400 seeded draws: int and p-adic s, two regulators, caps
    # below level - v_den, and sums that are the kernel's, 0 mod p^level,
    # or p^j times a unit
    rng = random.Random(3100)
    kernel = zeta._class_unit_sum
    seen = {"padic s": 0, "second regulator": 0, "capped": 0, "deep": 0,
            "marker": 0, "sum 0": 0, "sum p^j u": 0, "compared": 0}
    for _ in range(2400):
        p = rng.choice(sorted(DIFF_TOP))
        branch = Branch(p, rng.randrange(0, 2 if p == 2 else p - 1, 2))
        level = rng.randrange(2 if p == 2 else 1, DIFF_TOP[p] + 1)
        regulator = rng.choice((None, SECOND_REGULATOR[p]))
        precision = rng.choice((None, 1, 2, 3, 4, 6, 10, 20))
        if rng.randrange(2):
            s = rng.choice([s for s in range(-40, 41) if s != 1])
        else:
            v, n = rng.randrange(3), level + rng.randrange(4, 12)
            s = PadicNumber._make(p, v, rng.randrange(1, p**n), n - v)
        try:
            r, exponent, prefactor, v_den, bound = zeta._plan(
                s, branch, regulator, level, precision)
        except (PoleError, PrecisionExhaustedError):
            continue
        kind = rng.choice(("kernel", "kernel", "sum 0", "sum p^j u"))
        if kind == "kernel":
            total = kernel(p, branch.kappa0, exponent, r, level)
        elif kind == "sum 0":
            total = 0
        else:
            total = p**rng.randrange(level) * rng.randrange(1, p**level)
            total = total % p**level
        want = _parent_run_step(p, total, prefactor, level, v_den, bound)
        monkeypatch.setattr(zeta, "_class_unit_sum",
                            lambda *args, total=total: total)
        ev = zeta_measure(s, branch, regulator, level, precision)
        assert (repr(ev.value), ev.value.known_to, ev.error_bound_exponent
                ) == (repr(want), want.known_to, bound), (
            s, branch, regulator, level, precision, total)
        seen["compared"] += 1
        seen["padic s"] += isinstance(s, PadicNumber)
        seen["second regulator"] += regulator is not None
        seen["capped"] += bound < level - v_den
        seen["deep"] += v_den > 0
        seen["marker"] += want.is_zero
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["compared"] >= 2000, seen
    assert min(seen.values()) >= 200, seen


def test_run_step_checks_the_prefactor_valuation(monkeypatch):
    # w(2)^0 = 1 makes v_den = v(<2> - 1) + v(1 - s) = 1 at s = -1 on
    # Branch(5, 0); a plan that claims 0 or 2 is refused by name, not by
    # a bare ValueError from pow
    plan = zeta._plan
    for shift in (-1, 1):
        def wrong(*args, shift=shift):
            r, exponent, prefactor, v_den, bound = plan(*args)
            return r, exponent, prefactor, v_den + shift, bound

        monkeypatch.setattr(zeta, "_plan", wrong)
        with pytest.raises(PadicError,
                           match="is not of valuation v_den = %d$" % (1 + shift)):
            zeta_measure(-1, Branch(5, 0), level=3, precision=10)


def _fraction_interp(k, branch, precision):
    """-(1 - p^(k-1)) B_k / k in Fractions, then embedded: the oracle of
    zeta_interp's integer numerator and denominator."""
    p = branch.prime
    value = -(1 - Fraction(p) ** (k - 1)) * bernoulli(k) / k
    return PadicNumber.from_fraction(value, p, precision)


def test_interp_matches_the_fraction_formula():
    # every branch-matched k <= 400 on every even branch of p <= 13, each
    # at two seeded precisions, caps at or below 0 among them
    rng = random.Random(3101)
    compared = 0
    for p in sorted(DIFF_TOP):
        order = _torsion_order(p)
        for kappa0 in range(0, max(p - 2, 0) + 1, 2):
            branch = Branch(p, kappa0)
            for k in range(kappa0 or order, 401, order):
                for precision in rng.sample((None, -2, 0, 1, 3, 8, 20, 45), 2):
                    got = zeta_interp(k, branch, precision)
                    want = _fraction_interp(
                        k, branch, 32 if precision is None else precision)
                    assert (repr(got), got.known_to) == (
                        repr(want), want.known_to), (k, branch, precision)
                    compared += 1
    assert compared >= 2000, compared


def test_kernel_caches_are_bounded():
    # every cache of the zeta path and the orbit has a finite size
    for cache in (zeta._point_plan, zeta._binomials,
                  galois._lifted_generator):
        assert 0 < cache.cache_info().maxsize <= 64, cache


def test_zeta_measure_uses_no_bernoulli_numbers(monkeypatch):
    # the measure path must stay an independent oracle for zeta_interp
    def refuse(k):
        raise AssertionError("bernoulli(%d) on the measure path" % k)

    size = len(zeta._BERNOULLI)
    monkeypatch.setattr(zeta, "bernoulli", refuse)
    zeta_measure(1 - 40, Branch(5, 0), level=6, precision=12)
    assert len(zeta._BERNOULLI) == size


def _clear_zeta_caches():
    for cache in (zeta._point_plan, zeta._binomials):
        cache.cache_clear()


def _measure_outcome(s, branch, regulator, level, precision):
    try:
        ev = zeta_measure(s, branch, regulator=regulator, level=level,
                          precision=precision)
    except Exception as exc:
        return type(exc), str(exc)
    return ev  # equal records share value, bound and every other field


def _cache_grid(rng):
    """Points (s, branch, regulator, precision), each at shuffled levels,
    with a fault in some: a pole, a short s, a bad regulator, level or
    precision, an s that is not an int or a PadicNumber."""
    points = []
    for p, kappa0 in ((2, 0), (3, 0), (5, 0), (5, 2), (7, 2), (7, 4)):
        branch = Branch(p, kappa0)
        s_values = [1, 0, -1, -4, 2, 1 - kappa0 - (p - 1),
                    PadicNumber.from_rational(1, 3, p, 4),
                    PadicNumber.from_rational(1, 3, p, 40),
                    PadicNumber.from_int(1, p, 30),
                    PadicNumber.from_int(-1, p, 10),
                    PadicNumber.zero(p), PadicNumber.zero(p, known_to=9),
                    2.0]
        for s in s_values:
            for regulator in (None, rng.choice((-2, 5, 11, 13, 1))):
                precision = rng.choice((None, 4, 8, 12, 20) * 4 + (0, 20.0))
                points.append((s, branch, regulator, precision))
    calls = []
    for point in rng.sample(points, len(points)):
        top = {2: 6, 3: 5}.get(point[1].prime, 3)
        for level in rng.sample(range(1, top + 1), 3):
            calls.append((*point[:3], level, point[3]))
            if rng.random() < 0.4:
                calls.append(rng.choice(calls[-8:]))
    return calls


def test_zeta_caches_change_no_outcome():
    # every call, made with the caches as the calls before it left them,
    # must give what it gives from empty caches: value, bound, or the
    # exception with its message
    calls = _cache_grid(random.Random(21))
    _clear_zeta_caches()
    warm = [_measure_outcome(*call) for call in calls]
    assert zeta._point_plan.cache_info().hits > 50
    for call, got in zip(calls, warm):
        _clear_zeta_caches()
        assert got == _measure_outcome(*call), call
    assert 100 < sum(isinstance(got, tuple) for got in warm) < len(warm) - 100


def test_zeta_point_plan_keeps_the_digits_of_s():
    # equal values, different precision: the short s raises every time.
    # The point plan reads v(1 - s): 3 for the long s, while the short one
    # is 1 + O(5^3), indistinguishable from the pole
    branch = Branch(5, 0)
    short = PadicNumber.from_int(1 + 5**3, 5, 3)
    long = PadicNumber.from_int(1 + 5**3, 5, 40)
    assert short.residue(3) == long.residue(3)
    _clear_zeta_caches()
    for _ in range(3):
        ev = zeta_measure(long, branch, level=3, precision=10)
        # v_den = v(<2> - 1) + v(1 - s) = 1 + 3
        assert ev.error_bound_exponent == 3 - 4
        with pytest.raises(PrecisionExhaustedError):
            zeta_measure(short, branch, level=3, precision=10)
    assert zeta._point_plan.cache_info().currsize == 1
    # nor does a float precision reach the entry of the equal int
    cold = _measure_outcome(-1, branch, None, 3, 20.0)
    zeta_measure(-1, branch, level=3, precision=20)
    assert _measure_outcome(-1, branch, None, 3, 20.0) == cold


def test_zeta_sweep_plans_each_point_once():
    _clear_zeta_caches()
    for level in range(3, 7):
        zeta_measure(-5, Branch(7, 0), level=level, precision=20)
    assert zeta._point_plan.cache_info()[:2] == (3, 1)


def test_zeta_caches_keep_no_large_table():
    # e = 300 is read off class sums whose power sums stream: no cache
    # keeps a table of them
    _clear_zeta_caches()
    tracemalloc.start()
    try:
        zeta_measure(-300, Branch(7, 2), level=6, precision=20)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 2**20, current


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


def test_zeta_measure_remakes_a_deep_prefactor():
    # r = 26 * 5^7 + 1: the prefactor r^2 - 1 has valuation 7 in closed
    # form, so it is made mod 5^(level + 7); its unit 26 (26 * 5^7 + 2)
    # then has all level digits (with r = 5^7 + 1 the unit would be exact)
    p, r, precision = 5, 26 * 5**7 + 1, 8
    branch = Branch(p, 2)
    plan = zeta._plan(-1, branch, r, 2, precision)
    assert plan[2:] == ((r * r - 1) % p**9, 7, 2 - 7)
    for level in (2, 3):
        integral = integrate_units(lambda a: PadicNumber.from_int(a, p, 40),
                                   level, r, p, 40)
        by_hand = integral / PadicNumber.from_int(r * r - 1, p, 40)
        ev = zeta_measure(-1, branch, regulator=r, level=level,
                          precision=precision)
        _assert_agree(by_hand, ev.value, ev.error_bound_exponent)


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
                    _assert_agree(by_hand, ev.value,
                                  ev.error_bound_exponent)
    # a p-adic s, then negative exponents (s = 2, 3)
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
                    _assert_agree(integral / prefactor, ev.value,
                                  ev.error_bound_exponent)


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
