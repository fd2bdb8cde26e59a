"""Ladder operators, their matrices, and kernel extraction."""

import math
import random

import pytest

from padicosc.errors import DomainError, PrecisionExhaustedError
from padicosc.padics import PadicNumber, vp
from padicosc.galois import Branch, rho_prime_apply
from padicosc.series import MahlerSeries, basis_vector, mahler_eval, mahler_expand
from padicosc.operators import (
    RULES,
    OperatorMatrix,
    _apply_rule,
    apply_lowering,
    apply_raising,
    as_matrix,
    commutator_defect,
    hamiltonian,
    kernel_solve,
    mat_scale,
    matrices_agree,
    OPERATOR_NAMES,
)
from matrix_helpers import gauss_jordan_kernel, identity_matrix, mat_add
from test_series import edge_padic, min_exponent, oracle_add, oracle_times
from value_helpers import norm_bound_exponent


def ints(p, values, precision=16):
    return [PadicNumber.from_int(v, p, precision) for v in values]


def random_series(rng, p, m, precision=16, tail=None) -> MahlerSeries:
    coeffs = [PadicNumber.from_int(rng.randrange(1, p**precision), p, precision)
              for _ in range(m)]
    return MahlerSeries(prime=p, coefficients=tuple(coeffs),
                        tail_bound_exponent=tail)


def only_index(f, n):
    """True when every stored coefficient except index n vanishes."""
    return all(c.is_zero for i, c in enumerate(f.coefficients) if i != n)


# -- basis action --------------------------------------------------------


def test_raising_on_p2():
    f = apply_raising(basis_vector(5, 2, 6, 12))
    assert only_index(f, 3)
    assert f.coefficients[3].agrees_with(PadicNumber.from_int(3, 5, 12))


def test_raising_on_constant():
    f = apply_raising(basis_vector(7, 0, 4, 10))
    assert only_index(f, 1)
    assert f.coefficients[1].agrees_with(PadicNumber.one(7, 10))


def test_lowering_kills_constants():
    f = apply_lowering(basis_vector(3, 0, 5, 8))
    assert all(c.is_zero for c in f.coefficients)


def test_lowering_on_p5():
    f = apply_lowering(basis_vector(2, 5, 8, 10))
    assert only_index(f, 4)
    assert f.coefficients[4].agrees_with(PadicNumber.one(2, 10))


def test_lowering_square():
    # x^2 = P_1 + 2 P_2, and (a- x^2)(x) = (x+1)^2 - x^2 = 1 + 2x
    sq = mahler_expand(ints(5, [0, 1, 4, 9, 16, 25]))
    assert [c.to_fraction() if not c.is_zero else 0 for c in sq.coefficients[:3]] \
        == [0, 1, 2]
    low = apply_lowering(sq)
    assert low.coefficients[0].agrees_with(PadicNumber.one(5, 16))
    assert low.coefficients[1].agrees_with(PadicNumber.from_int(2, 5, 16))
    assert mahler_eval(low, 3).agrees_with(PadicNumber.from_int(7, 5, 16))


def test_hamiltonian_eigenvectors():
    for n in range(6):
        f = hamiltonian(basis_vector(3, n, 6, 9))
        assert only_index(f, n)
        target = PadicNumber.from_int(n, 3, 9)
        assert f.coefficients[n].agrees_with(target)


def test_hamiltonian_is_lowering_then_raising():
    rng = random.Random(41)
    f = random_series(rng, 7, 8)
    g = apply_raising(apply_lowering(f))
    h = hamiltonian(f)
    for a, b in zip(g.coefficients[:-1], h.coefficients[:-1]):
        assert (a - b).is_zero


# -- pointwise meaning ---------------------------------------------------


def test_raising_pointwise():
    # (a+ f)(x) = x f(x - 1) whenever the shift stays inside the window
    rng = random.Random(5)
    f = random_series(rng, 5, 7)
    f = MahlerSeries(prime=5, coefficients=f.coefficients[:-1]
                     + (PadicNumber.zero(5),))
    g = apply_raising(f)
    for x in (0, 1, 2, 3, 4, 5):
        lhs = mahler_eval(g, x)
        rhs = mahler_eval(f, x - 1) * x
        assert lhs.agrees_with(rhs)


def test_lowering_pointwise():
    rng = random.Random(6)
    f = random_series(rng, 3, 6)
    g = apply_lowering(f)
    for x in (0, 1, 2, 3):
        lhs = mahler_eval(g, x)
        rhs = mahler_eval(f, x + 1) - mahler_eval(f, x)
        assert lhs.agrees_with(rhs)


def test_ladder_operators_do_not_grow_norm():
    rng = random.Random(7)
    for p in (2, 3, 5):
        f = random_series(rng, p, 6)
        for op in (apply_raising, apply_lowering, hamiltonian):
            g = op(f)
            exps = [norm_bound_exponent(c) for c in g.coefficients]
            floor = min(c.valuation for c in f.coefficients)
            assert all(e is None or e >= floor for e in exps)


# -- commutators ---------------------------------------------------------


def test_commutator_defect_vanishes():
    rng = random.Random(11)
    for p in (2, 3, 7):
        f = random_series(rng, p, 9)
        d = commutator_defect(f)
        assert all(c.is_zero for c in d.coefficients)


def test_commutator_defect_sees_a_wrong_rule(monkeypatch):
    # the defect composes the rules rather than restating [a-, a+] = 1,
    # so a wrong weight in RULES shows as a nonzero defect below M-1
    rng = random.Random(13)
    f = random_series(rng, 5, 7)
    wrong = {"raising": (1, lambda n: n + 2), "lowering": (-1, lambda n: 2)}
    for name, rule in wrong.items():
        with monkeypatch.context() as patch:
            patch.setitem(RULES, name, rule)
            d = commutator_defect(f)
        assert not all(c.is_zero for c in d.coefficients[:-1]), name
    assert all(c.is_zero for c in commutator_defect(f).coefficients[:-1])


def test_commutator_with_hamiltonian():
    # [H, a+] = a+ and [H, a-] = -a- on the indices both sides store
    rng = random.Random(12)
    f = random_series(rng, 5, 7)
    up = apply_raising(f)
    lhs = hamiltonian(up) - apply_raising(hamiltonian(f))
    for a, b in zip(lhs.coefficients, up.coefficients):
        assert (a - b).is_zero
    down = apply_lowering(f)
    lhs = hamiltonian(down) - apply_lowering(hamiltonian(f))
    for a, b in zip(lhs.coefficients[:-1], down.coefficients[:-1]):
        assert (a + b).is_zero


def test_repeated_lowering_annihilates_pn():
    for n in (0, 2, 4):
        f = basis_vector(3, n, 6, 10)
        for _ in range(n + 1):
            f = apply_lowering(f)
        assert all(c.is_zero for c in f.coefficients)


def test_repeated_raising_builds_factorials():
    f = basis_vector(5, 0, 8, 14)
    for n in range(1, 8):
        f = apply_raising(f)
        assert only_index(f, n)
        assert f.coefficients[n].agrees_with(
            PadicNumber.from_int(math.factorial(n), 5, 14))


def test_raising_spill_lands_in_tail():
    # top coefficient times M leaves the window; the tail bound records it
    top = PadicNumber.from_int(7, 5, 9)
    f = MahlerSeries(prime=5, coefficients=(PadicNumber.zero(5),) * 4 + (top,))
    g = apply_raising(f)
    assert g.tail_bound_exponent == 1  # |5 * 7|_5 = 5^-1
    exact = basis_vector(5, 2, 5, 9)
    assert apply_raising(exact).tail_bound_exponent is None


# -- matrix form ---------------------------------------------------------


def entry_table(mat):
    out = [[0] * mat.dimension for _ in range(mat.dimension)]
    for i, j, v in mat.entries:
        out[i][j] = int(v.to_fraction()) if not v.is_zero else 0
    return out


def test_matrix_literals_m3():
    assert entry_table(as_matrix("lowering", 3, 5, 8)) == [
        [0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert entry_table(as_matrix("raising", 3, 5, 8)) == [
        [0, 0, 0], [1, 0, 0], [0, 2, 0]]
    assert entry_table(as_matrix("hamiltonian", 3, 5, 8)) == [
        [0, 0, 0], [0, 1, 0], [0, 0, 2]]


def test_matrix_action_matches_apply():
    # one rule, two views: column n of the matrix is the series image of
    # P_n, slot by slot inside the window, and holds nothing else
    for p in (2, 3, 7):
        for m in (1, 2, 5, 9):
            for name in OPERATOR_NAMES:
                entries = as_matrix(name, m, p, 16).to_dict()
                for n in range(m):
                    image = _apply_rule(name, basis_vector(p, n, m, 16))
                    for i, c in enumerate(image.coefficients):
                        v = entries.pop((i, n), PadicNumber.zero(p))
                        assert v == c, (p, m, name, i, n)
                assert not entries, (p, m, name)


def test_matrix_scale_and_mismatch():
    mat = as_matrix("raising", 4, 5, 8)
    doubled = mat_scale(PadicNumber.from_int(2, 5, 8), mat)
    assert doubled.to_dict()[(2, 1)].agrees_with(PadicNumber.from_int(4, 5, 8))
    other = as_matrix("raising", 5, 5, 8)
    with pytest.raises(DomainError):
        mat_add(mat, other)
    assert not matrices_agree(mat, doubled)
    for b in (other, as_matrix("raising", 4, 7, 8)):
        with pytest.raises(DomainError, match="shape or prime mismatch"):
            matrices_agree(mat, b)
    with pytest.raises(DomainError):
        as_matrix("squaring", 4, 5, 8)


@pytest.mark.parametrize("m", [0, -3])
def test_matrix_needs_a_positive_dimension(m):
    # as matrix_from_dict does; a window of dimension -3 would have the
    # kernel []
    with pytest.raises(DomainError, match="M >= 1"):
        as_matrix("lowering", m, 5, 8)


def test_matrix_precision_field():
    mat = as_matrix("raising", 4, 5, 8)
    assert mat.precision == 8
    assert identity_matrix(5, 4, 6).precision == 6


# -- kernels -------------------------------------------------------------


def test_kernel_of_lowering_is_constants():
    basis = kernel_solve(as_matrix("lowering", 6, 5, 10))
    assert len(basis) == 1
    assert only_index(basis[0], 0)
    assert basis[0].coefficients[0].agrees_with(PadicNumber.one(5, 10))


def test_kernel_of_shifted_hamiltonian():
    p, m = 7, 8
    ham = as_matrix("hamiltonian", m, p, 12)
    for n in range(m):
        shifted = mat_add(ham, mat_scale(PadicNumber.from_int(-n, p, 12),
                                         identity_matrix(p, m, 12)))
        basis = kernel_solve(shifted)
        assert len(basis) == 1
        assert only_index(basis[0], n)


def test_kernel_of_truncated_raising():
    # the window cannot see past index M-1, so the top cell is free
    basis = kernel_solve(as_matrix("raising", 5, 3, 9))
    assert len(basis) == 1
    assert only_index(basis[0], 4)


def test_kernel_of_invertible_matrix_is_trivial():
    mat = mat_add(as_matrix("hamiltonian", 4, 5, 10),
                  identity_matrix(5, 4, 10))
    assert kernel_solve(mat) == []


def _proportional_rows(p=5):
    # [[5, 15], [2, 6]]: not a weighted shift
    entries = {
        (0, 0): PadicNumber.from_int(5, p, 8),
        (0, 1): PadicNumber.from_int(15, p, 8),
        (1, 0): PadicNumber.from_int(2, p, 8),
        (1, 1): PadicNumber.from_int(6, p, 8),
    }
    return OperatorMatrix.from_dict(p, 2, entries, 8)


def test_kernel_pivot_prefers_unit():
    # the Gauss-Jordan oracle on proportional rows: column 0 must pivot
    # on the unit 2 in the second row, not the 5 above it
    p = 5
    basis = gauss_jordan_kernel(_proportional_rows(p))
    assert len(basis) == 1
    vec = basis[0].coefficients
    assert vec[1].agrees_with(PadicNumber.one(p, 8))
    assert vec[0].agrees_with(PadicNumber.from_int(-3, p, 8))
    lhs = PadicNumber.from_int(2, p, 8) * vec[0] \
        + PadicNumber.from_int(6, p, 8) * vec[1]
    assert lhs.is_zero


def test_kernel_rejects_a_second_entry_in_a_row_or_column():
    with pytest.raises(DomainError, match=r"\(0, 1\)"):
        kernel_solve(_proportional_rows())
    one = PadicNumber.one(5, 8)
    column = OperatorMatrix.from_dict(5, 3, {(0, 0): one, (2, 0): one}, 8)
    with pytest.raises(DomainError, match=r"\(2, 0\)"):
        kernel_solve(column)


def _weighted_shifts(p, m):
    """Every kind of matrix the library builds: the three operators,
    the shifted Hamiltonians H - n I and the rho' images."""
    mats = [as_matrix(name, m, p, 12) for name in OPERATOR_NAMES]
    ham = mats[OPERATOR_NAMES.index("hamiltonian")]
    for n in range(m):
        mats.append(mat_add(ham, mat_scale(PadicNumber.from_int(-n, p, 12),
                                           identity_matrix(p, m, 12))))
    if p > 2:
        for name in OPERATOR_NAMES:
            for t in range(p - 1):
                mats.append(rho_prime_apply(Branch(p, 1), t,
                                            as_matrix(name, m, p, 12)))
    return mats


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_kernel_matches_gauss_jordan_oracle(p):
    for m in (1, 2, 5, 9, 32):
        for mat in _weighted_shifts(p, m):
            assert kernel_solve(mat) == gauss_jordan_kernel(mat), (p, m, mat)


def test_kernel_with_unknown_entry_raises():
    p = 3
    fog = PadicNumber.zero(p, known_to=0)
    entries = {(0, 0): fog, (1, 1): PadicNumber.one(p, 8)}
    mat = OperatorMatrix.from_dict(p, 2, entries, 8)
    with pytest.raises(PrecisionExhaustedError):
        kernel_solve(mat)


def test_kernel_treats_small_marker_as_zero():
    # a marker with positive vanishing depth counts as zero at this scale
    p = 3
    small = PadicNumber.zero(p, known_to=6)
    entries = {(0, 0): small, (1, 1): PadicNumber.one(p, 8)}
    mat = OperatorMatrix.from_dict(p, 2, entries, 8)
    basis = kernel_solve(mat)
    assert len(basis) == 1
    assert only_index(basis[0], 0)


# -- the rules against term-by-term PadicNumber arithmetic ---------------
#
# The oracle is the object-arithmetic rule, with the two-term addition
# and int scaling formulas of test_series' oracles.


def oracle_apply(op, f):
    shift, weight = RULES[op]
    p, m = f.prime, f.truncation
    coeffs = []
    for i in range(m):
        n = i - shift
        if n < 0:
            coeffs.append(PadicNumber.zero(p))
        elif n >= m:
            coeffs.append(PadicNumber.zero(p, known_to=f.tail_bound_exponent))
        else:
            w, c = weight(n), f.coefficients[n]
            coeffs.append(c if w == 1 else oracle_times(c, w))
    tail = f.tail_bound_exponent
    for n in range(m - shift, m):
        spill = norm_bound_exponent(f.coefficients[n])
        tail = min_exponent(tail, None if spill is None
                            else spill + vp(weight(n), p))
    return MahlerSeries(prime=p, coefficients=tuple(coeffs),
                        tail_bound_exponent=tail)


def oracle_minus(f, g):
    return MahlerSeries(
        prime=f.prime,
        coefficients=tuple(oracle_add(a, -b) for a, b in zip(f.coefficients,
                                                              g.coefficients)),
        tail_bound_exponent=min_exponent(f.tail_bound_exponent,
                                         g.tail_bound_exponent))


def oracle_commutator_defect(f):
    up_down = oracle_apply("lowering", oracle_apply("raising", f))
    down_up = oracle_apply("raising", oracle_apply("lowering", f))
    return oracle_minus(oracle_minus(up_down, down_up), f)


def test_rules_match_object_arithmetic_oracle():
    rng = random.Random(909)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randrange(1, 2 * p + 3)
        f = MahlerSeries(prime=p,
                         coefficients=tuple(edge_padic(rng, p) for _ in range(m)),
                         tail_bound_exponent=rng.choice(
                             (None, rng.randrange(-2, 9))))
        assert apply_raising(f) == oracle_apply("raising", f)
        assert apply_lowering(f) == oracle_apply("lowering", f)
        assert hamiltonian(f) == oracle_apply("hamiltonian", f)
        assert commutator_defect(f) == oracle_commutator_defect(f)
