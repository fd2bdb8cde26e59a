"""Elements of C(Z_p, Q_p) in the Mahler and van der Put bases.

A series object stores a truncated coefficient sequence plus an upper
bound on the coefficients it does not store: tail_bound_exponent = e
means sup over the dropped indices of |c_n|_p is at most p**(-e), and
None means that tail is exactly zero (finitely supported element).
Coefficients are held as the canonical rows (valuation, unit, absprec)
of PadicNumber._make, None for the exact zero and (k, 0, k) for O(p^k),
which the kernels here and in operators read and write; the tuple of
PadicNumbers is built on first read of `coefficients` and kept.

Evaluation returns the exact value of the truncated sum, as one integer
canonicalized once, known modulo p**N, N the min over terms of
absprec(c_n) + v(P_n(x)) and absprec(P_n(x)) + v(c_n); P_0 = 1 and P_n
at an integer point are exact (no second bound), and exact-zero
coefficients and values P_n(k) = 0 drop out.  The tail bound travels
with the series, not with evaluated values.

Conversion samples at 0..M-1 by O(M^2) tables on integers scaled to
p**vmin, each sample canonicalized once and known as evaluation knows
it: a Mahler series by its difference table run backwards, a van der
Put series by its disc chains (convert, convert_back).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import comb, inf
from operator import add, sub

from .errors import DomainError, PrecisionExhaustedError
from .padics import (
    PadicNumber,
    _Frozen,
    _row,
    _row_sum,
    _split,
    hensel_digits,
    vp_factorial,
)

Point = int | PadicNumber


def _min_exponent(*exponents: int | None) -> int | None:
    """Combine tail bounds: None is a zero bound, smaller exponent wins."""
    known = [e for e in exponents if e is not None]
    return min(known) if known else None


def _row_of(c: PadicNumber):
    """c's row, None for the exact zero (unit 0, known_to None)."""
    v = c.valuation
    return (v, c.unit, v + c.precision) if c.unit or c.known_to is not None else None


def _negated(row):  # a term for _row_sum: the unit is not reduced
    return row and (row[0], -row[1], row[2])


class _SeriesBase(_Frozen):
    __slots__ = ("prime", "_rows", "tail_bound_exponent", "_coefficients")

    def __init_subclass__(cls):
        # equality, hash, repr and pickling read the coefficients
        cls._fields = cls.__match_args__ = (
            "prime", "coefficients", "tail_bound_exponent")

    def __init__(self, prime: int, coefficients, tail_bound_exponent: int | None = None):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise DomainError("a series needs at least one coefficient")
        if any(c.prime != prime for c in coefficients):
            raise DomainError("coefficient prime mismatch")
        self._fill(prime, tuple(map(_row_of, coefficients)),
                   tail_bound_exponent, coefficients)

    @classmethod
    def _from_rows(cls, prime: int, rows, tail: int | None = None):
        """The series of canonical rows; no coefficient is built."""
        series = object.__new__(cls)
        series._fill(prime, tuple(rows), tail, None)
        return series

    def _fill(self, *values):
        for name, value in zip(_SeriesBase.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def coefficients(self) -> tuple:
        """Built on first read and kept; racing threads build equal tuples."""
        if self._coefficients is None:
            p, from_row = self.prime, PadicNumber._from_row
            object.__setattr__(self, "_coefficients",
                               tuple([from_row(p, r) for r in self._rows]))
        return self._coefficients

    @property
    def truncation(self) -> int:
        return len(self._rows)

    def _combine(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        if self.prime != other.prime:
            raise DomainError("prime mismatch")
        if self.truncation != other.truncation:
            raise DomainError("truncation mismatch")
        p = self.prime
        rows = [_row_sum(p, filter(None, (a, b if sign > 0 else _negated(b))))
                for a, b in zip(self._rows, other._rows)]
        tail = _min_exponent(self.tail_bound_exponent, other.tail_bound_exponent)
        return type(self)._from_rows(p, rows, tail)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p, rows = self.prime, self._rows
        return type(self)._from_rows(p, [r and _row_sum(p, (_negated(r),)) for r in rows],
                                     self.tail_bound_exponent)


class MahlerSeries(_SeriesBase):
    """f(x) = sum c_n binomial(x, n) over the stored coefficients."""

    __slots__ = ()


class VanDerPutSeries(_SeriesBase):
    """f(x) = sum v_n e_n(x), e_n the indicator of the disc around n."""

    __slots__ = ()


def basis_vector(p: int, n: int, truncation: int, precision: int) -> MahlerSeries:
    """The Mahler basis element P_n as a truncated series."""
    if not 0 <= n < truncation:
        raise DomainError("basis index %d outside [0, %d)" % (n, truncation))
    coeffs = [PadicNumber.zero(p) for _ in range(truncation)]
    coeffs[n] = PadicNumber.one(p, precision)
    return MahlerSeries(prime=p, coefficients=tuple(coeffs))


# -- Mahler basis ------------------------------------------------------


def mahler_basis_eval_int(n: int, x: int) -> int:
    """binomial(x, n) for an integer point, exact."""
    if x >= 0:
        return comb(x, n)
    return (-1) ** n * comb(n - x - 1, n)


def _basis_values(x: PadicNumber, count: int) -> list:
    """P_n(x) for n < count as a list of (valuation, unit, absprec): P_0 = 1
    exact (absprec None), nothing after it at the exact zero, and no row
    and no check of x when count < 1.  The falling product mod
    p**absprec(x) carries from n to n+1; dividing by n! costs v_p(n!)
    digits of absprec.  One modular inverse, of the unit part of (count-1)!,
    gives the rest: inv_(n-1) = inv_n w_n, w_n the unit part of n."""
    if count < 1:
        return []
    p = x.prime
    if not x.is_zero and x.valuation < 0:
        raise DomainError("P_n is defined on Z_p")
    nx, top = x.abs_precision, count - 1
    if not x.is_exact_zero and top and nx <= vp_factorial(top, p):
        raise PrecisionExhaustedError(
            "evaluating P_%d needs x mod %d**%d (v_p(%d!) + 1 digits), "
            "x is known mod %d**%d"
            % (top, p, vp_factorial(top, p) + 1, top, p, nx))
    rows = [(0, 1, None)]
    if x.is_exact_zero or top < 1:
        return rows
    mod, xres = p**nx, x.residue(nx)
    prod, fact_unit, v = 1, 1, 0        # v = v_p(n!)
    for n in range(1, count):
        k, w = _split(n, p)
        v += k
        prod = prod * (xres - n + 1) % mod
        fact_unit = fact_unit * w % mod
        # the true product is divisible by p**v because binomials of
        # p-adic integers are p-adic integers; the backward walk turns
        # this placeholder into the row of P_n
        rows.append((prod // p**v, w, nx - v))
    inv = pow(fact_unit, -1, mod)
    for n in range(top, 0, -1):
        quotient, w, m = rows[n]
        c = quotient * inv % p**m
        rows[n] = (*_split(c, p), m) if c else (m, 0, m)
        inv = inv * w % mod
    return rows


def _mahler_terms(f: MahlerSeries, x: Point) -> list:
    """The terms (v, u, N) of f's truncated sum at x."""
    p, rows = f.prime, f._rows
    terms = []
    if isinstance(x, int):
        b = 1       # binomial(x, n): n b_n = b_(n-1) (x - n + 1), exactly
        for n, r in enumerate(rows):
            b = b * (x - n + 1) // n if n else b
            if not b:
                break   # 0 <= x < n, and so for every later n
            if r is not None:
                v, u = _split(b, p)
                terms.append((r[0] + v, r[1] * u, r[2] + v))
        return terms
    top = max((n + 1 for n, r in enumerate(rows) if r is not None), default=0)
    if top and x.prime != p:
        raise DomainError("prime mismatch: %d vs %d" % (p, x.prime))
    for r, (v, u, m) in zip(rows[:top], _basis_values(x, top)):
        if r is not None:
            n = r[2] + v
            terms.append((r[0] + v, r[1] * u, n if m is None else min(n, m + r[0])))
    return terms


def mahler_eval(f: MahlerSeries, x: Point) -> PadicNumber:
    """Value of the truncated sum at x (precision: module docstring)."""
    return PadicNumber._sum(f.prime, _mahler_terms(f, x))


def _mahler_series(p: int, samples: list, truncation: int,
                   tail: int | None = None) -> MahlerSeries:
    """c_n = (Delta^n f)(0), n < truncation, from the rows of f(0), f(1),
    ...; tail bound: the least of tail and the norms past the window.
    The difference table runs on integers scaled to p**vmin, and c_n is
    known to the least absprec of f(0), ..., f(n) (inf: exact zeros)."""
    if truncation < 1:
        raise DomainError("truncation must be >= 1, got %d" % truncation)
    vmin = min((r[0] for r in samples if r is not None), default=0)
    diffs = [0 if r is None else r[1] * p ** (r[0] - vmin) for r in samples]
    rows = []
    for known in accumulate((inf if r is None else r[2] for r in samples), min):
        rows.append(_row(p, vmin, diffs[0], known))
        diffs = list(map(sub, diffs[1:], diffs))
    tail = _min_exponent(tail, *(r[0] for r in rows[truncation:] if r))
    return MahlerSeries._from_rows(p, rows[:truncation], tail)


def mahler_expand(samples: Sequence[PadicNumber]) -> MahlerSeries:
    """Coefficients from forward differences: c_n = (Delta^n f)(0).

    Pure subtractions, so the coefficients are exact at sample precision.
    One coefficient per sample and no tail: the series is the polynomial
    through the samples.
    """
    samples = list(samples)
    return _mahler_series(samples[0].prime if samples else None,
                          [_row_of(s) for s in samples], len(samples))


# -- van der Put basis -------------------------------------------------


def vdp_basis_eval(n: int, x: Point, p: int | None = None) -> int:
    """e_n(x): 1 on the disc |x - n|_p < 1/n (all of Z_p for n = 0).

    For p**s <= n < p**(s+1) this is the congruence x = n mod p**(s+1),
    which needs s+1 known digits of x.
    """
    if n == 0:
        return 1
    if isinstance(x, PadicNumber):
        p = x.prime
    if p is None:
        raise DomainError("prime needed for integer points")
    s = len(hensel_digits(n, p)) - 1
    mod = p ** (s + 1)
    if isinstance(x, int):
        return 1 if x % mod == n else 0
    if not x.is_zero and x.valuation < 0:
        raise DomainError("e_n is defined on Z_p")
    known = x.abs_precision
    if known is None or known >= s + 1:
        return 1 if x.residue(s + 1) == n else 0
    # not enough digits to confirm membership; a mismatch among the
    # digits we do have still decides it negatively
    if known > 0 and x.residue(known) != n % p**known:
        return 0
    raise PrecisionExhaustedError(
        "deciding x = %d mod %d**%d needs %d digits, x has %d"
        % (n, p, s + 1, s + 1, max(known, 0)))


def _vdp_terms(g: VanDerPutSeries, x: Point) -> list:
    """The rows v_n with x in the disc of n.  At an integer x these are
    n = 0 and n = x mod p**(s+1) for each nonzero digit s of x: p**s <= n
    < p**(s+1) is what makes x = n mod p**(s+1) the disc of n."""
    p, rows = g.prime, g._rows
    if not isinstance(x, int):
        return [r for n, r in enumerate(rows)
                if r is not None and vdp_basis_eval(n, x, p)]
    terms, low = [rows[0]], 1      # low = p**s
    while low < len(rows):
        n = x % (low * p)
        if low <= n < len(rows):
            terms.append(rows[n])
        low *= p
    return [r for r in terms if r is not None]


def vdp_eval(g: VanDerPutSeries, x: Point) -> PadicNumber:
    return PadicNumber._sum(g.prime, _vdp_terms(g, x))


def _vdp_series(p: int, samples: list, tail: int | None = None) -> VanDerPutSeries:
    """v_0 = f(0) and v_n = f(n) - f(n_minus) from the rows of f(0), ...:
    n_minus is n mod p**s for p**s <= n < p**(s+1)."""
    rows, low = samples[:1], 1          # low = p**s
    for n in range(1, len(samples)):
        low = n if n == low * p else low
        rows.append(_row_sum(p, filter(None, (samples[n], _negated(samples[n % low])))))
    return VanDerPutSeries._from_rows(p, rows, tail)


def vdp_expand(samples: Sequence[PadicNumber]) -> VanDerPutSeries:
    """v_0 = f(0) and v_n = f(n) - f(n_minus), from samples at 0..M-1."""
    samples = list(samples)
    if not samples:
        raise DomainError("need at least one sample")
    return _vdp_series(samples[0].prime, [_row_of(s) for s in samples])


# -- conversion and norm -----------------------------------------------


def sup_norm_exponent(f) -> int | None:
    """e with sup_n |c_n|_p <= p**(-e) over stored and tail coefficients.

    None means the norm is exactly zero.  Exact for exact coefficients
    and zero tail; inexact zeros contribute their known vanishing bound.
    """
    return _min_exponent(f.tail_bound_exponent,
                         *(r[0] for r in f._rows if r is not None))


def sup_norm(f) -> Fraction:
    e = sup_norm_exponent(f)
    if e is None:
        return Fraction(0)
    p = f.prime
    return Fraction(1, p**e) if e >= 0 else Fraction(p ** (-e))


def _mahler_samples(f: MahlerSeries) -> list:
    """The rows of f(0), ..., f(M-1) (see convert); fact[n] = v_p(n!)."""
    p, rows = f.prime, f._rows
    vmin = min((r[0] for r in rows if r is not None), default=0)
    diffs = [0 if r is None else r[1] * p ** (r[0] - vmin) for r in rows]
    fact = [0, *accumulate(_split(n, p)[0] for n in range(1, len(rows)))]
    known = [inf if r is None else r[2] - v for r, v in zip(rows, fact)]
    samples = []
    for k, vk in enumerate(fact):
        samples.append(_row(p, vmin, diffs[0], vk + min(map(sub, known, fact[k::-1]))))
        diffs = [*map(add, diffs, diffs[1:]), diffs[-1]]
    return samples


def convert(f: MahlerSeries) -> VanDerPutSeries:
    """Sample f at 0..M-1 and expand in the van der Put basis.

    Exact on the sampled window.  The difference table runs backwards,
    Delta^n f(k+1) = Delta^n f(k) + Delta^(n+1) f(k) from Delta^n f(0) =
    c_n, and f(k) keeps mahler_eval's digits: the min over n <= k of
    absprec(c_n) + v_p(C(k, n)), v_p(C(k, n)) = v_p(k!) - v_p(n!) -
    v_p((k-n)!).  Beyond the window the result only carries the bound
    |v_n| <= sup norm of f, because a polynomial truncation is not
    locally constant and keeps a genuine van der Put tail.
    """
    return _vdp_series(f.prime, _mahler_samples(f), sup_norm_exponent(f))


def convert_back(g: VanDerPutSeries, truncation: int | None = None) -> MahlerSeries:
    """Sample g at 0..M-1 and expand in the Mahler basis.

    M is g's truncation unless given.  g(k) = g(k mod p**s) + v_k for
    p**s <= k < p**(s+1) (v_k = 0 past g's window), known to the least
    absprec of its disc chain; c_n is known to the least of g(0..n).
    Round-tripping a polynomial series through convert/convert_back
    reproduces its coefficients exactly: the van der Put partial sums
    telescope to the exact sampled values at every integer below M.
    """
    p, rows = g.prime, g._rows
    m = g.truncation if truncation is None else truncation
    samples, low = [_row_sum(p, filter(None, rows[:1]))], 1    # low = p**s
    for k in range(1, m):
        low = k if k == low * p else low
        v, below = rows[k] if k < len(rows) else None, samples[k % low]
        samples.append(_row_sum(p, filter(None, (below, v))) if v else below)
    return _mahler_series(p, samples, m, sup_norm_exponent(g))
