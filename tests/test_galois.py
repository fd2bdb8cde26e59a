"""Teichmuller generator, discrete log, and the cyclic operator action."""

import math
import random

import pytest

from padicosc.errors import DomainError
from padicosc.padics import PadicNumber, is_prime, teichmuller
from padicosc.series import mahler_eval
from padicosc.operators import (
    apply_lowering,
    as_matrix,
    matrices_agree,
    OperatorMatrix,
)
from padicosc.galois import (
    Branch,
    GaloisElement,
    GroundState,
    fixed_generator,
    orbit,
    rho_apply,
    rho_prime_apply,
    smallest_primitive_root,
    t_of,
)
from matrix_helpers import mat_add
from value_helpers import consistent


def random_unit(rng, p, precision=16):
    u = rng.randrange(1, p**precision)
    while u % p == 0:
        u = rng.randrange(1, p**precision)
    return PadicNumber.from_int(u, p, precision)


# -- primitive roots and the fixed generator ----------------------------


def test_smallest_primitive_roots():
    # classical table entries
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(13) == 2
    assert smallest_primitive_root(97) == 5
    # brute force: the smallest g whose powers fill (Z/pZ)*
    for p in range(3, 200):
        if all(p % d for d in range(2, p)):
            g = next(g for g in range(2, p)
                     if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
            assert smallest_primitive_root(p) == g, p


def test_generator_p3_is_minus_one():
    zeta = fixed_generator(3, 10)
    assert zeta.agrees_with(PadicNumber.from_int(-1, 3, 10))


def test_generator_p5_residue():
    zeta = fixed_generator(5, 10)
    assert zeta.residue(2) == 7  # w(2) = 7 mod 25


def test_generator_has_exact_order():
    for p in (3, 5, 7, 13):
        zeta = fixed_generator(p, 12)
        power = zeta
        for k in range(1, p - 1):
            assert not (power - 1).is_zero, (p, k)
            power = power * zeta
        assert (power - 1).is_zero


def test_generator_rejects_p2():
    with pytest.raises(DomainError):
        fixed_generator(2, 8)
    # a float, bool or list prime is refused before it reaches the cache
    for p in (5.0, True, [5]):
        with pytest.raises(DomainError, match="^p must be an integer"):
            fixed_generator(p, 8)


# -- discrete log --------------------------------------------------------


def test_t_of_examples():
    assert t_of(PadicNumber.one(5, 8)) == 0
    assert t_of(PadicNumber.from_int(4, 5, 8)) == 2   # 2^2 = 4
    assert t_of(PadicNumber.from_int(6, 7, 8)) == 3   # 3^3 = 27 = 6 mod 7
    assert t_of(4, p=5) == 2


def test_t_of_rejects_non_units():
    with pytest.raises(DomainError):
        t_of(PadicNumber.from_int(10, 5, 8))
    with pytest.raises(DomainError):
        t_of(PadicNumber.zero(5))
    with pytest.raises(DomainError, match="needs an explicit prime"):
        t_of(4)


def test_t_of_refuses_a_foreign_prime():
    # a 5-adic 2 read with p = 7 gave t = 1, its coordinate at 5
    alpha = PadicNumber.from_int(2, 5, 8)
    with pytest.raises(DomainError,
                       match="^alpha lives in a different Q_p: 5-adic, p = 7$"):
        t_of(alpha, 7)
    assert t_of(alpha, 5) == t_of(alpha) == 1


def test_t_of_inverts_generator_powers():
    for p in (q for q in range(3, 100) if is_prime(q)):
        g = smallest_primitive_root(p)
        for t in range(p - 1):
            a = pow(g, t, p)
            assert t_of(a, p=p) == t, (p, t)
            assert t_of(PadicNumber.from_int(a, p, 8)) == t, (p, t)


def test_element_consistency():
    rng = random.Random(23)
    for p in (5, 7, 11):
        for _ in range(10):
            el = GaloisElement.from_unit(random_unit(rng, p))
            assert 0 <= el.t <= p - 2
            assert consistent(el)
    for t in (-1, 4):
        with pytest.raises(DomainError, match="^t out of range$"):
            GaloisElement(5, PadicNumber.one(5, 8), t)


# -- branches ------------------------------------------------------------


def test_branch_validation():
    Branch(5, 3)
    Branch(2, 0)
    with pytest.raises(DomainError):
        Branch(5, 4)
    with pytest.raises(DomainError):
        Branch(5, -1)
    with pytest.raises(DomainError):
        Branch(6, 1)


@pytest.mark.parametrize("fields", [(5.0, 2), (5, 2.0), (7, True), (True, 0),
                                    (5, None), ("5", 2)])
def test_branch_fields_must_be_ints(fields):
    # is_prime(5.0) holds and 0 <= 2.0 <= 3: only the type check keeps
    # a float from failing later, inside zeta_measure
    with pytest.raises(DomainError, match="must be integers"):
        Branch(*fields)


# -- ground state --------------------------------------------------------


def test_ground_state_killed_by_lowering():
    state = GroundState.canonical(5, 12)
    lowered = apply_lowering(state.omega)
    assert all(c.is_zero for c in lowered.coefficients)


def test_ground_state_is_one_on_zp():
    rng = random.Random(29)
    state = GroundState.canonical(7, 12)
    for _ in range(50):
        x = PadicNumber.from_int(rng.randrange(0, 7**12), 7, 12)
        v = mahler_eval(state.omega, x)
        assert v.agrees_with(PadicNumber.one(7, 12))


# -- the one-dimensional action -------------------------------------------


def test_rho_trivial_cases():
    state = GroundState.canonical(5, 10)
    el = GaloisElement.from_unit(PadicNumber.from_int(2, 5, 10))
    same = rho_apply(Branch(5, 0), el, state)
    assert (same.scale - state.scale).is_zero
    one = GaloisElement.from_unit(PadicNumber.one(5, 10))
    for k0 in range(4):
        same = rho_apply(Branch(5, k0), one, state)
        assert (same.scale - state.scale).is_zero
    for call in (lambda: rho_apply(Branch(7, 1), el, state),
                 lambda: rho_apply(Branch(5, 1), el, GroundState.canonical(7)),
                 lambda: rho_prime_apply(Branch(7, 1), 1,
                                         as_matrix("raising", 4, 5, 8))):
        with pytest.raises(DomainError, match="^mismatched primes$"):
            call()


def test_rho_scales_by_teichmuller():
    state = GroundState.canonical(5, 10)
    el = GaloisElement.from_unit(PadicNumber.from_int(2, 5, 10))
    moved = rho_apply(Branch(5, 1), el, state)
    assert moved.scale.residue(2) == 7


def test_rho_is_a_homomorphism():
    rng = random.Random(31)
    for p in (5, 7):
        branch = Branch(p, 2)
        state = GroundState.canonical(p, 14)
        for _ in range(8):
            a, b = random_unit(rng, p, 14), random_unit(rng, p, 14)
            ga = GaloisElement.from_unit(a)
            gb = GaloisElement.from_unit(b)
            gab = GaloisElement.from_unit(a * b)
            left = rho_apply(branch, ga, rho_apply(branch, gb, state))
            right = rho_apply(branch, gab, state)
            assert (left.scale - right.scale).is_zero


def test_rho_factors_through_residue():
    # alpha = beta mod p gives the identical action
    rng = random.Random(37)
    p = 7
    branch = Branch(p, 3)
    state = GroundState.canonical(p, 12)
    for _ in range(10):
        a = random_unit(rng, p, 12)
        b = a + p * rng.randrange(1, p**10)
        assert (rho_apply(branch, GaloisElement.from_unit(a), state).scale
                - rho_apply(branch, GaloisElement.from_unit(b), state).scale
                ).is_zero


def test_injective_on_cycle_when_coprime():
    # t -> zeta^(kappa0 t) hits p-1 distinct values iff gcd(kappa0, p-1) = 1
    for p in (3, 5, 7, 11, 13):
        zeta = fixed_generator(p, 8)
        for kappa0 in range(1, p - 1):
            if math.gcd(kappa0, p - 1) != 1:
                continue
            seen = {(zeta**((kappa0 * t) % (p - 1))).residue(1)
                    for t in range(p - 1)}
            assert len(seen) == p - 1


# -- induced action on operators ------------------------------------------


def test_rho_prime_identity_and_cyclicity():
    mat = as_matrix("raising", 5, 5, 10)
    branch = Branch(5, 1)
    assert matrices_agree(rho_prime_apply(branch, 0, mat), mat)
    assert matrices_agree(rho_prime_apply(branch, 4, mat), mat)


def test_rho_prime_homomorphism():
    rng = random.Random(41)
    mat = as_matrix("hamiltonian", 4, 13, 10)
    branch = Branch(13, 5)
    for _ in range(10):
        t1 = rng.randrange(0, 12)
        t2 = rng.randrange(0, 12)
        left = rho_prime_apply(branch, t1, rho_prime_apply(branch, t2, mat))
        right = rho_prime_apply(branch, (t1 + t2) % 12, mat)
        assert matrices_agree(left, right)


def test_rho_prime_linear():
    branch = Branch(7, 2)
    a = as_matrix("raising", 4, 7, 10)
    b = as_matrix("hamiltonian", 4, 7, 10)
    left = rho_prime_apply(branch, 3, mat_add(a, b))
    right = mat_add(rho_prime_apply(branch, 3, a),
                    rho_prime_apply(branch, 3, b))
    assert matrices_agree(left, right)


def test_orbit_periods_match_gcd_formula():
    for p in (5, 13):
        mat = as_matrix("raising", 4, p, 10)
        for kappa0 in range(0, p - 1):
            mats, period = orbit(Branch(p, kappa0), mat)
            assert len(mats) == p - 1
            assert period == (p - 1) // math.gcd(kappa0, p - 1)


def test_orbit_p5_examples():
    mat = as_matrix("lowering", 4, 5, 10)
    assert orbit(Branch(5, 0), mat)[1] == 1
    assert orbit(Branch(5, 2), mat)[1] == 2
    assert orbit(Branch(5, 1), mat)[1] == 4


def test_orbit_lifts_the_generator_once(monkeypatch):
    # the lifted generator is kept per (p, precision): one orbit at p = 13
    # makes one Teichmuller lift, not one per t, and a second orbit none
    import padicosc.galois as galois_module
    lifts = []

    def counting(x, precision=None):
        lifts.append(x)
        return teichmuller(x, precision)

    monkeypatch.setattr(galois_module, "teichmuller", counting)
    galois_module._lifted_generator.cache_clear()
    mat = as_matrix("hamiltonian", 6, 13, 16)
    first = orbit(Branch(13, 2), mat)
    assert len(lifts) == 1
    assert orbit(Branch(13, 4), mat)[1] == 3 and len(lifts) == 1
    galois_module._lifted_generator.cache_clear()
    again = orbit(Branch(13, 2), mat)
    assert again[1] == first[1] == 6
    assert all(matrices_agree(a, b) for a, b in zip(again[0], first[0]))


def test_orbit_rejects_zero_matrix():
    empty = OperatorMatrix.from_dict(5, 3, {}, 8)
    with pytest.raises(DomainError):
        orbit(Branch(5, 1), empty)
