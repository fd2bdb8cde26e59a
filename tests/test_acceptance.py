"""Acceptance gate: eleven agreed checks, one test function each.

Each test pins its own grid, tolerance and (where agreed) runtime, so
a plain ``pytest -v tests/test_acceptance.py`` reads as a checklist.
Criterion 06 has a companion at full working precision.
Measure-path zeta values are cached at module level because the
regulator-independence check reuses the top-level sums.
"""

import random
import time
from fractions import Fraction
from math import gcd

from padicosc.galois import Branch, orbit, rho_prime_apply
from padicosc.operators import (
    apply_lowering,
    apply_raising,
    as_matrix,
    commutator_defect,
    hamiltonian,
    kernel_solve,
    matrices_agree,
)
from padicosc.padics import PadicNumber, teichmuller, vp
from padicosc.sampling import random_mahler_series
from padicosc.series import (
    MahlerSeries,
    basis_vector,
    convert,
    convert_back,
    mahler_eval,
    sup_norm,
    vdp_eval,
)
from padicosc.zeta import (
    MazurMeasure,
    default_regulator,
    zeta_interp,
    zeta_measure,
)

LADDER_PRIMES = (2, 3, 5, 7, 11)
WINDOW = 64
DIGITS = 48

# every even branch of p in {3, 5, 7} with its branch-matched k <= 12
ZETA_GRID = (
    (3, 0, (2, 4, 6, 8, 10, 12)),
    (5, 0, (4, 8, 12)),
    (5, 2, (2, 6, 10)),
    (7, 0, (6, 12)),
    (7, 2, (2, 8)),
    (7, 4, (4, 10)),
)
ZETA_DIGITS = 20
TOP_LEVEL = 7
SECOND_REGULATOR = {3: 5, 5: 3, 7: 5}

_measure_cache = {}


def measure_eval(p, kappa0, k, level, regulator):
    key = (p, kappa0, k, level, regulator)
    if key not in _measure_cache:
        _measure_cache[key] = zeta_measure(
            1 - k, Branch(p, kappa0), regulator=regulator, level=level,
            precision=ZETA_DIGITS)
    return _measure_cache[key]


def diff_exponent(a, b):
    """Valuation of a - b, or None when the difference vanishes at the
    working precision (exact agreement as far as we can see)."""
    d = a - b
    return None if d.is_zero else d.valuation


def random_unit_int(rng, p, digits):
    u = rng.randrange(1, p**digits)
    while u % p == 0:
        u = rng.randrange(1, p**digits)
    return u


def test_criterion_01_ccr_defect_vanishes_on_random_series():
    start = time.monotonic()
    for p in LADDER_PRIMES:
        rng = random.Random(1000 + p)
        for _ in range(50):
            f = random_mahler_series(rng, p, WINDOW, DIGITS)
            defect = commutator_defect(f)
            assert all(defect.coefficients[i].is_zero
                       for i in range(WINDOW - 1)), (p, f)
    assert time.monotonic() - start < 5.0


def test_criterion_02_ladder_and_eigen_relations_exact():
    for p in LADDER_PRIMES:
        one = PadicNumber.one(p, DIGITS)
        for n in range(WINDOW - 1):
            e = basis_vector(p, n, WINDOW, DIGITS)
            he = hamiltonian(e)
            assert (he.coefficients[n] - n * one).is_zero
            assert all(c.is_zero for i, c in enumerate(he.coefficients)
                       if i != n)

            up = apply_raising(e)
            defect_up = (hamiltonian(up) - apply_raising(he)) - up
            assert all(c.is_zero for c in defect_up.coefficients), (p, n)

            down = apply_lowering(e)
            defect_down = (hamiltonian(down) - apply_lowering(he)) + down
            assert all(c.is_zero for c in defect_down.coefficients), (p, n)


def test_criterion_03_lowering_kernel_is_the_constants():
    for p in LADDER_PRIMES:
        basis = kernel_solve(as_matrix("lowering", WINDOW, p, DIGITS))
        assert len(basis) == 1, p
        vec = basis[0]
        assert vec.coefficients[0].to_fraction() == 1
        assert all(c.is_zero for c in vec.coefficients[1:])


def test_criterion_04_teichmuller_order_and_multiplicativity():
    start = time.monotonic()
    for p in (3, 5, 7, 13, 97):
        rng = random.Random(4000 + p)
        one = PadicNumber.one(p, 64)
        for _ in range(200):
            a = random_unit_int(rng, p, 64)
            b = random_unit_int(rng, p, 64)
            wa = teichmuller(PadicNumber.from_int(a, p, 64))
            wb = teichmuller(PadicNumber.from_int(b, p, 64))
            wab = teichmuller(PadicNumber.from_int(a * b, p, 64))
            assert (wa ** (p - 1) - one).is_zero
            assert (wab - wa * wb).is_zero
    assert time.monotonic() - start < 2.0


def test_criterion_05_zeta_interpolation_display_values():
    # k = 10 is 511/132 = (2^9 - 1) B_10 / 10 with B_10 = 5/66; both the
    # hand evaluation and the recurrence oracle land there
    expected = {
        2: Fraction(1, 12),
        4: Fraction(-7, 120),
        6: Fraction(31, 252),
        8: Fraction(-127, 240),
        10: Fraction(511, 132),
        12: Fraction(-1414477, 32760),
    }
    branch = Branch(2, 0)
    for k, value in expected.items():
        got = zeta_interp(k, branch, precision=32)
        assert got == PadicNumber.from_fraction(value, 2, 32), k


def test_criterion_06_measure_and_interpolation_paths_agree():
    start = time.monotonic()
    for p, kappa0, ks in ZETA_GRID:
        branch = Branch(p, kappa0)
        r = default_regulator(p)
        for k in ks:
            target = zeta_interp(k, branch, precision=ZETA_DIGITS)
            previous = "unset"
            for level in range(3, TOP_LEVEL + 1):
                ev = measure_eval(p, kappa0, k, level, r)
                e = diff_exponent(ev.value, target)
                if previous != "unset":
                    # distance shrinks by at least a factor p per level;
                    # None means it already dropped below working precision
                    assert e is None or (previous is not None
                                         and e >= previous + 1), (p, kappa0, k, level)
                previous = e
            assert previous is None or previous >= TOP_LEVEL - 2, (p, kappa0, k)
    assert time.monotonic() - start < 2.0


def test_criterion_06_paths_agree_to_all_working_digits():
    # at level ZETA_DIGITS + v(den) the certified bound covers every digit;
    # the class sums reach that level, and the time limit fails a loop
    # over the p^level residues
    start = time.monotonic()
    for p, kappa0, ks in ((2, 0, (2, 4, 6)),) + ZETA_GRID:
        branch = Branch(p, kappa0)
        r = default_regulator(p)
        for k in ks:
            # at branch-matched k the prefactor denominator is r^k - 1
            level = ZETA_DIGITS + vp(r**k - 1, p)
            ev = zeta_measure(1 - k, branch, regulator=r, level=level,
                              precision=ZETA_DIGITS)
            assert ev.error_bound_exponent >= ZETA_DIGITS, (p, kappa0, k)
            d = ev.value - zeta_interp(k, branch, precision=ZETA_DIGITS + 8)
            agree = d.known_to if d.is_zero else d.valuation
            assert agree >= ev.error_bound_exponent, (p, kappa0, k, agree)
    assert time.monotonic() - start < 10.0


def test_criterion_07_regulator_independence_at_top_level():
    for p, kappa0, ks in ZETA_GRID:
        r1 = default_regulator(p)
        r2 = SECOND_REGULATOR[p]
        for k in ks:
            ev1 = measure_eval(p, kappa0, k, TOP_LEVEL, r1)
            ev2 = measure_eval(p, kappa0, k, TOP_LEVEL, r2)
            bound = min(ev1.error_bound_exponent, ev2.error_bound_exponent)
            e = diff_exponent(ev1.value, ev2.value)
            assert e is None or e >= bound, (p, kappa0, k, e, bound)


def test_criterion_08_measure_distribution_property():
    for p in (3, 5, 7):
        r = default_regulator(p)
        levels = [MazurMeasure.build(p, r, n, precision=16)
                  for n in (1, 2, 3, 4)]
        for coarse, fine in zip(levels, levels[1:]):
            assert coarse.refined_by(fine), (p, coarse.level)


def test_criterion_09_basis_round_trip_and_pointwise_agreement():
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            m = rng.randrange(4, 9)
            coeffs = tuple(
                PadicNumber.from_int(random_unit_int(rng, p, 16), p, 16)
                for _ in range(m))
            f = MahlerSeries(prime=p, coefficients=coeffs)
            g = convert(f)
            back = convert_back(g)
            assert back.coefficients == f.coefficients
            # the vdp form matches on its sampled window (beyond it the
            # truncated indicator sum sees only a prefix of x)
            for j in range(m):
                assert (mahler_eval(f, j) - vdp_eval(g, j)).is_zero, (p, j)
            # the round trip is the same polynomial on all of Z_p
            for i in range(100):
                x = rng.randrange(p**10)
                if i % 10 == 0:
                    x = PadicNumber.from_int(x, p, 16)
                assert (mahler_eval(f, x) - mahler_eval(back, x)).is_zero


def test_criterion_10_cyclic_orbit_periods_and_homomorphism():
    for p in (5, 13):
        a = as_matrix("hamiltonian", 6, p, 16)
        for kappa0 in range(p - 1):
            _, period = orbit(Branch(p, kappa0), a)
            assert period == (p - 1) // gcd(kappa0, p - 1), (p, kappa0)
        rng = random.Random(10 + p)
        for _ in range(20):
            branch = Branch(p, rng.randrange(p - 1))
            t1 = rng.randrange(2 * (p - 1))
            t2 = rng.randrange(2 * (p - 1))
            lhs = rho_prime_apply(branch, t1 + t2, a)
            rhs = rho_prime_apply(branch, t1, rho_prime_apply(branch, t2, a))
            assert matrices_agree(lhs, rhs), (p, branch.kappa0, t1, t2)


def test_criterion_11_ladder_operators_do_not_grow_norms():
    rng = random.Random(1111)
    for p in LADDER_PRIMES:
        for _ in range(100):
            f = random_mahler_series(rng, p, rng.randrange(4, 17), 12)
            bound = sup_norm(f)
            assert sup_norm(apply_raising(f)) <= bound
            assert sup_norm(apply_lowering(f)) <= bound
