"""Elements of C(Z_p, Q_p) in the Mahler and van der Put bases.

A series object stores a truncated coefficient sequence plus an upper
bound on the coefficients it does not store: tail_bound_exponent = e
means sup over the dropped indices of |c_n|_p is at most p**(-e), and
None means that tail is exactly zero (finitely supported element).

Evaluation returns the exact value of the truncated sum; the tail bound
is bookkeeping for how far that sum can be trusted as a stand-in for an
underlying infinite expansion, and it travels with the series objects
rather than being folded into evaluated values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence, Union

from .errors import DomainError, PrecisionExhaustedError
from .padics import (
    DEFAULT_PRECISION,
    PadicNumber,
    hensel_digits,
    n_minus,
    vp_factorial,
)

Point = Union[int, PadicNumber]


def _min_exponent(*exponents: Optional[int]) -> Optional[int]:
    """Combine tail bounds: None is a zero bound, smaller exponent wins."""
    known = [e for e in exponents if e is not None]
    return min(known) if known else None


@dataclass(frozen=True)
class _SeriesBase:
    prime: int
    coefficients: tuple
    tail_bound_exponent: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise DomainError("a series needs at least one coefficient")
        for c in self.coefficients:
            if c.prime != self.prime:
                raise DomainError("coefficient prime mismatch")

    @property
    def truncation(self) -> int:
        return len(self.coefficients)

    def _combine(self, other, signs) -> tuple:
        if self.prime != other.prime:
            raise DomainError("prime mismatch")
        if self.truncation != other.truncation:
            raise DomainError("truncation mismatch")
        sa, sb = signs
        coeffs = tuple((a if sa > 0 else -a) + (b if sb > 0 else -b)
                       for a, b in zip(self.coefficients, other.coefficients))
        return coeffs, _min_exponent(self.tail_bound_exponent,
                                     other.tail_bound_exponent)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        coeffs, tail = self._combine(other, (1, 1))
        return replace(self, coefficients=coeffs, tail_bound_exponent=tail)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        coeffs, tail = self._combine(other, (1, -1))
        return replace(self, coefficients=coeffs, tail_bound_exponent=tail)

    def __neg__(self):
        return replace(self, coefficients=tuple(-c for c in self.coefficients))


@dataclass(frozen=True)
class MahlerSeries(_SeriesBase):
    """f(x) = sum c_n binomial(x, n) over the stored coefficients."""


@dataclass(frozen=True)
class VanDerPutSeries(_SeriesBase):
    """f(x) = sum v_n e_n(x), e_n the indicator of the disc around n."""


def basis_vector(p: int, n: int, truncation: int, precision: int) -> MahlerSeries:
    """The Mahler basis element P_n as a truncated series."""
    if n >= truncation:
        raise DomainError("basis index beyond truncation")
    coeffs = [PadicNumber.zero(p) for _ in range(truncation)]
    coeffs[n] = PadicNumber.one(p, precision)
    return MahlerSeries(prime=p, coefficients=tuple(coeffs))


# -- Mahler basis ------------------------------------------------------


def mahler_basis_eval_int(n: int, x: int) -> int:
    """binomial(x, n) for an integer point, exact."""
    if x >= 0:
        return comb(x, n)
    return (-1) ** n * comb(n - x - 1, n)


def mahler_basis_eval(n: int, x: PadicNumber) -> PadicNumber:
    """P_n(x) = x(x-1)...(x-n+1)/n! for x in Z_p.

    The division by n! costs v_p(n!) digits of absolute precision, so the
    result is known modulo p**(absprec(x) - v_p(n!)).  Supply x with that
    many extra digits when full precision is needed.
    """
    p = x.prime
    if not x.is_zero and x.valuation < 0:
        raise DomainError("P_n is defined on Z_p")
    if n == 0:
        if x.is_zero:
            m = x.known_to if x.known_to is not None else DEFAULT_PRECISION
        else:
            m = x.precision
        return PadicNumber.one(p, max(m, 1))
    if x.is_exact_zero:
        return PadicNumber.zero(p)          # binomial(0, n) = 0 for n >= 1
    nx = x.abs_precision
    v = vp_factorial(n, p)
    if nx - v <= 0:
        raise PrecisionExhaustedError(
            "evaluating P_%d needs more than %d digits of x" % (n, nx))
    mod = p**nx
    xres = x.residue(nx)
    prod = 1
    for j in range(n):
        prod = prod * (xres - j) % mod
    # the true product is divisible by p**v because binomials of p-adic
    # integers are p-adic integers
    w = factorial(n) // p**v
    c = prod // p**v * pow(w, -1, p ** (nx - v)) % p ** (nx - v)
    return PadicNumber._make(p, 0, c, nx - v)


def mahler_eval(f: MahlerSeries, x: Point) -> PadicNumber:
    """Value of the truncated sum at x; exact integer points cost nothing."""
    basis = mahler_basis_eval_int if isinstance(x, int) else mahler_basis_eval
    acc = PadicNumber.zero(f.prime)
    for n, c in enumerate(f.coefficients):
        if not c.is_exact_zero:
            acc = acc + c * basis(n, x)
    return acc


def mahler_expand(samples: Sequence[PadicNumber], truncation: Optional[int] = None) -> MahlerSeries:
    """Coefficients from forward differences: c_n = (Delta^n f)(0).

    Pure subtractions, so the coefficients are exact at sample precision.
    Samples beyond the truncation form a window whose coefficient norms
    give a heuristic tail bound (it estimates, not proves, the sup over
    all dropped indices).
    """
    samples = list(samples)
    if truncation is None:
        truncation = len(samples)
    if truncation < 1 or len(samples) < truncation:
        raise DomainError("need at least %d consecutive samples" % truncation)
    p = samples[0].prime
    diffs = []
    row = samples
    while row:
        diffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    window = diffs[truncation:]
    tail = _min_exponent(*(w.norm_bound_exponent() for w in window)) if window else None
    return MahlerSeries(prime=p, coefficients=tuple(diffs[:truncation]),
                        tail_bound_exponent=tail)


# -- van der Put basis -------------------------------------------------


def vdp_basis_eval(n: int, x: Point, p: Optional[int] = None) -> int:
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


def vdp_eval(g: VanDerPutSeries, x: Point) -> PadicNumber:
    p = g.prime
    acc = PadicNumber.zero(p)
    for n, v in enumerate(g.coefficients):
        if v.is_exact_zero:
            continue
        if vdp_basis_eval(n, x, p):
            acc = acc + v
    return acc


def vdp_expand(samples: Sequence[PadicNumber]) -> VanDerPutSeries:
    """v_0 = f(0) and v_n = f(n) - f(n_minus), from samples at 0..M-1."""
    samples = list(samples)
    if not samples:
        raise DomainError("need at least one sample")
    p = samples[0].prime
    coeffs = [samples[0]]
    for n in range(1, len(samples)):
        coeffs.append(samples[n] - samples[n_minus(n, p)])
    return VanDerPutSeries(prime=p, coefficients=tuple(coeffs))


# -- conversion and norm -----------------------------------------------


def sup_norm_exponent(f) -> Optional[int]:
    """e with sup_n |c_n|_p <= p**(-e) over stored and tail coefficients.

    None means the norm is exactly zero.  Exact for exact coefficients
    and zero tail; inexact zeros contribute their known vanishing bound.
    """
    exps = [c.norm_bound_exponent() for c in f.coefficients]
    exps.append(f.tail_bound_exponent)
    return _min_exponent(*exps)


def sup_norm(f) -> Fraction:
    e = sup_norm_exponent(f)
    if e is None:
        return Fraction(0)
    p = f.prime
    return Fraction(1, p**e) if e >= 0 else Fraction(p ** (-e))


def convert(f: MahlerSeries) -> VanDerPutSeries:
    """Sample f at 0..M-1 and expand in the van der Put basis.

    Exact on the sampled window.  Beyond it the result only carries the
    bound |v_n| <= sup norm of f, because a polynomial truncation is not
    locally constant and keeps a genuine van der Put tail.
    """
    m = f.truncation
    samples = [mahler_eval(f, k) for k in range(m)]
    g = vdp_expand(samples)
    tail = _min_exponent(f.tail_bound_exponent, sup_norm_exponent(f))
    return replace(g, tail_bound_exponent=tail)


def convert_back(g: VanDerPutSeries, truncation: Optional[int] = None) -> MahlerSeries:
    """Sample g at 0..M-1 and expand in the Mahler basis.

    Round-tripping a polynomial series through convert/convert_back
    reproduces its coefficients exactly: the van der Put partial sums
    telescope to the exact sampled values at every integer below M.
    """
    m = g.truncation if truncation is None else truncation
    samples = [vdp_eval(g, k) for k in range(m)]
    f = mahler_expand(samples, m)
    tail = _min_exponent(g.tail_bound_exponent, sup_norm_exponent(g))
    return replace(f, tail_bound_exponent=tail)
