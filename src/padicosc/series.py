"""Elements of C(Z_p, Q_p) in the Mahler and van der Put bases.

A series object stores a truncated coefficient sequence plus an upper
bound on the coefficients it does not store: tail_bound_exponent = e
means sup over the dropped indices of |c_n|_p is at most p**(-e), and
None means that tail is exactly zero (finitely supported element).

Evaluation returns the exact value of the truncated sum; the tail bound
is bookkeeping for how far that sum can be trusted as a stand-in for an
underlying infinite expansion, and it travels with the series objects
rather than being folded into evaluated values.

Evaluation sums (valuation, unit, absprec) parts as one integer and
canonicalizes once.  The value at x is known modulo p**N, N the min
over terms of absprec(c_n) + v(P_n(x)) and absprec(P_n(x)) + v(c_n);
P_0 = 1 and P_n at an integer point are exact (no second bound), and
exact-zero coefficients and values P_n(k) = 0 drop out.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, inf

from .errors import DomainError, PrecisionExhaustedError
from .padics import (
    PadicNumber,
    _Frozen,
    _split,
    hensel_digits,
    n_minus,
    vp_factorial,
)

Point = int | PadicNumber


def _min_exponent(*exponents: int | None) -> int | None:
    """Combine tail bounds: None is a zero bound, smaller exponent wins."""
    known = [e for e in exponents if e is not None]
    return min(known) if known else None


class _SeriesBase(_Frozen):
    __slots__ = ("prime", "coefficients", "tail_bound_exponent")
    _defaults = {"tail_bound_exponent": None}

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

    def _combine(self, other, subtract: bool):
        if type(other) is not type(self):
            return NotImplemented
        if self.prime != other.prime:
            raise DomainError("prime mismatch")
        if self.truncation != other.truncation:
            raise DomainError("truncation mismatch")
        coeffs = tuple(a - b if subtract else a + b
                       for a, b in zip(self.coefficients, other.coefficients))
        tail = _min_exponent(self.tail_bound_exponent, other.tail_bound_exponent)
        return type(self)(self.prime, coeffs, tail)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return type(self)(self.prime, tuple(-c for c in self.coefficients),
                          self.tail_bound_exponent)


class MahlerSeries(_SeriesBase):
    """f(x) = sum c_n binomial(x, n) over the stored coefficients."""

    __slots__ = ()


class VanDerPutSeries(_SeriesBase):
    """f(x) = sum v_n e_n(x), e_n the indicator of the disc around n."""

    __slots__ = ()


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


def _basis_values(x: PadicNumber, count: int):
    """Yield P_n(x) for n < count as (valuation, unit, absprec), P_0 = 1
    exact (absprec None) and nothing after it at the exact zero.  The
    falling product mod p**absprec(x) and the unit part of n! carry from
    n to n+1; dividing by n! costs v_p(n!) digits of absprec."""
    p = x.prime
    if not x.is_zero and x.valuation < 0:
        raise DomainError("P_n is defined on Z_p")
    nx, top = x.abs_precision, count - 1
    if not x.is_exact_zero and top and nx <= vp_factorial(top, p):
        raise PrecisionExhaustedError(
            "evaluating P_%d needs x mod %d**%d (v_p(%d!) + 1 digits), "
            "x is known mod %d**%d"
            % (top, p, vp_factorial(top, p) + 1, top, p, nx))
    yield 0, 1, None
    if x.is_exact_zero or top < 1:
        return
    mod, xres = p**nx, x.residue(nx)
    prod, fact_unit, v = 1, 1, 0        # v = v_p(n!)
    for n in range(1, count):
        k, w = _split(n, p)
        v += k
        m = nx - v
        prod = prod * (xres - n + 1) % mod
        fact_unit = fact_unit * w % mod
        # the true product is divisible by p**v because binomials of
        # p-adic integers are p-adic integers
        c = prod // p**v * pow(fact_unit, -1, p**m) % p**m
        yield (*_split(c, p), m) if c else (m, 0, m)


def mahler_basis_eval(n: int, x: PadicNumber) -> PadicNumber:
    """P_n(x) = x(x-1)...(x-n+1)/n! for x in Z_p.

    The division by n! costs v_p(n!) digits of absolute precision, so the
    result is known modulo p**(absprec(x) - v_p(n!)).  Supply x with that
    many extra digits when full precision is needed.
    """
    p = x.prime
    *_, (v, u, m) = _basis_values(x, n + 1)
    if n == 0:
        return PadicNumber.one(p)           # P_0 = 1 exactly, as from_int(1)
    if x.is_exact_zero:
        return PadicNumber.zero(p)          # binomial(0, n) = 0 for n >= 1
    return PadicNumber._make(p, v, u, m - v)


def mahler_eval(f: MahlerSeries, x: Point) -> PadicNumber:
    """Value of the truncated sum at x (precision: module docstring)."""
    p, coeffs = f.prime, f.coefficients
    terms = []
    if isinstance(x, int):
        b = 1       # binomial(x, n): n b_n = b_(n-1) (x - n + 1), exactly
        for n, c in enumerate(coeffs):
            b = b * (x - n + 1) // n if n else b
            if not b:
                break   # 0 <= x < n, and so for every later n
            if not c.is_exact_zero:
                v, u = _split(b, p)
                vc = c.valuation
                terms.append((vc + v, c.unit * u, vc + c.precision + v))
        return PadicNumber._sum(p, terms)
    top = max((n + 1 for n, c in enumerate(coeffs) if not c.is_exact_zero),
              default=0)
    if top and x.prime != p:
        raise DomainError("prime mismatch: %d vs %d" % (p, x.prime))
    for c, (v, u, m) in zip(coeffs[:top], _basis_values(x, top)):
        if not c.is_exact_zero:
            vc = c.valuation
            n = vc + c.precision + v
            terms.append((vc + v, c.unit * u, n if m is None else min(n, m + vc)))
    return PadicNumber._sum(p, terms)


def mahler_expand(samples: Sequence[PadicNumber], truncation: int | None = None) -> MahlerSeries:
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
    # the difference table on integers scaled to p**vmin, each entry with
    # the min absprec of the samples under it (inf: all exact zeros)
    vmin = min((s.valuation for s in samples if not s.is_exact_zero), default=0)
    row = [(0, inf) if s.is_exact_zero
           else (s.unit * p ** (s.valuation - vmin), s.valuation + s.precision)
           for s in samples]
    diffs = [samples[0]]
    while len(row) > 1:
        row = [(b - a, min(na, nb)) for (a, na), (b, nb) in zip(row, row[1:])]
        d, n = row[0]
        diffs.append(PadicNumber._sum(p, [(vmin, d, n)]))
    tail = _min_exponent(*(w.norm_bound_exponent() for w in diffs[truncation:]))
    return MahlerSeries(prime=p, coefficients=tuple(diffs[:truncation]),
                        tail_bound_exponent=tail)


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


def vdp_eval(g: VanDerPutSeries, x: Point) -> PadicNumber:
    return PadicNumber._sum(g.prime, (
        (v.valuation, v.unit, v.valuation + v.precision)
        for n, v in enumerate(g.coefficients)
        if not v.is_exact_zero and vdp_basis_eval(n, x, g.prime)))


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


def sup_norm_exponent(f) -> int | None:
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
    return VanDerPutSeries(g.prime, g.coefficients, tail)


def convert_back(g: VanDerPutSeries, truncation: int | None = None) -> MahlerSeries:
    """Sample g at 0..M-1 and expand in the Mahler basis.

    Round-tripping a polynomial series through convert/convert_back
    reproduces its coefficients exactly: the van der Put partial sums
    telescope to the exact sampled values at every integer below M.
    """
    m = g.truncation if truncation is None else truncation
    samples = [vdp_eval(g, k) for k in range(m)]
    f = mahler_expand(samples, m)
    tail = _min_exponent(g.tail_bound_exponent, sup_norm_exponent(g))
    return MahlerSeries(f.prime, f.coefficients, tail)
