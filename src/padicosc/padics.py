"""Capped-precision exact arithmetic in Q_p.

A nonzero value is stored as unit * p**valuation with the unit known
modulo p**precision, so the value itself is determined modulo
p**(valuation + precision) and the absolute value |x|_p = p**(-valuation)
is exact.  Zero is a distinguished marker with unit 0 and precision 0.
known_to=None means the exact zero (valuation 0).  Otherwise the value is
only known to vanish modulo p**known_to, and valuation = known_to: O(p^k)
is valuation k with no known digits.  The general formula of each
operator then covers the marker, since precision 0 makes the unit's
modulus 1 and _make returns zero(known_to=valuation + precision).
Operations that must distinguish it from a small nonzero number raise
PrecisionExhaustedError instead of guessing.

An int or Fraction operand is exact and enters through from_rational,
at self's relative precision for * and / and at its absolute precision
for + and -, so each operator has one formula.

Also provided: Hensel digit expansions, the decomposition
Z_p^* = mu_phi(q) x (1 + qZ_p) (q = p, or 4 when p = 2): the Teichmuller
character, the angle projection x/omega(x), and powers of principal
units.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf

from .errors import DomainError, PadicError, PrecisionExhaustedError

DEFAULT_PRECISION = 32


def _split(n: int, p: int) -> tuple:
    """(v, u) with n = u * p**v and u prime to p, for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    _require_prime(p)
    return _split(n, p)[0]


def digit_sum(n: int, p: int) -> int:
    return sum(hensel_digits(n, p))


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) = (n - digit_sum_p(n)) / (p - 1), exactly."""
    if n < 0:
        raise DomainError("vp_factorial needs n >= 0")
    return (n - digit_sum(n, p)) // (p - 1)


def prime_factors(n: int) -> list:
    """Distinct prime divisors of n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(g: int, p: int) -> bool:
    """True when g generates (Z/pZ)* for the prime p."""
    return g % p != 0 and all(pow(g, (p - 1) // f, p) != 1
                              for f in prime_factors(p - 1))


def is_prime(n: int) -> bool:
    """Trial division; all primes used here are desk-scale."""
    return prime_factors(n) == [n]


def _require_ints(**settings) -> None:
    """DomainError naming the first setting that is not an int: a float
    reaches pow() or range() as a bare TypeError, and True runs as 1."""
    for name, v in settings.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError("%s must be an integer, got %r" % (name, v))


@lru_cache(maxsize=None, typed=True)
def _require_prime(p: int) -> None:
    """DomainError naming p unless it is a prime int (typed: 2.0 and True
    miss the entries of 2 and 1); _split hangs at p = +-1."""
    _require_ints(p=p)
    if not is_prime(p):
        raise DomainError("p must be a prime, got %r" % (p,))


def hensel_digits(n: int, p: int) -> tuple:
    """Little-endian base-p digits of n >= 0; the empty tuple for 0."""
    if n < 0:
        raise DomainError("hensel_digits needs n >= 0")
    _require_prime(p)
    ds = []
    while n:
        ds.append(n % p)
        n //= p
    return tuple(ds)


def n_minus(n: int, p: int) -> int:
    """Strip the leading (highest-index) base-p digit of n >= 1."""
    if n < 1:
        raise DomainError("n_minus needs n >= 1")
    ds = hensel_digits(n, p)
    s = len(ds) - 1
    return n - ds[s] * p**s


class _Frozen:
    """An immutable record, as a frozen dataclass: the fields are the
    __slots__ down the class hierarchy, and equality (same class only),
    hash, repr and pickling follow them.  _defaults holds the defaults
    of trailing fields; __post_init__ runs once all are set."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(
            name for k in reversed(cls.__mro__)
            for name in k.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if not kwargs and len(args) == len(names):  # no binder needed
            values = zip(names, args)
        else:
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or len(values) != len(names) \
                    or not set(kwargs) <= set(names[len(args):]):
                raise TypeError("%s() takes the fields %s"
                                % (type(self).__name__, ", ".join(names)))
            values = values.items()
        for name, value in values:
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__


class PadicNumber(_Frozen):
    """Element of Q_p known to finite precision.

    Nonzero: unit in [1, p**precision) coprime to p, value known modulo
    p**(valuation + precision).  Zero marker: unit = 0, precision = 0;
    known_to is the exponent up to which the value is known to vanish
    and valuation equals it (None and valuation 0 for the exact zero).
    Immutable: every value is built through __init__, which writes the
    slots through their descriptors, as __setattr__ refuses.
    """

    __slots__ = ("prime", "valuation", "unit", "precision", "known_to")

    def __init__(self, prime: int, valuation: int, unit: int, precision: int,
                 known_to: int | None = None):
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_precision(self, precision)
        _set_known_to(self, known_to)

    # -- construction ------------------------------------------------

    @classmethod
    def zero(cls, p: int, known_to: int | None = None) -> "PadicNumber":
        return cls(p, known_to or 0, 0, 0, known_to)

    @classmethod
    def one(cls, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        _require_prime(p)
        _require_ints(precision=precision)
        return cls._make(p, 0, 1, precision)

    @classmethod
    def _make(cls, p: int, valuation: int, unit: int, precision: int) -> "PadicNumber":
        """Canonicalize unit*p**valuation with unit known mod p**precision."""
        if precision <= 0:
            return cls.zero(p, known_to=valuation + precision)
        u = unit % p**precision
        if u == 0:
            return cls.zero(p, known_to=valuation + precision)
        # digits below the first nonzero one move into the valuation
        # and the relative precision shrinks accordingly
        shift, u = _split(u, p)
        return cls(p, valuation + shift, u, precision - shift)

    @classmethod
    def _sum(cls, p: int, terms) -> "PadicNumber":
        """The sum of terms (v, u, N), each u * p**v known mod p**N."""
        return cls._from_row(p, _row_sum(p, terms))

    @classmethod
    def _from_row(cls, p: int, row) -> "PadicNumber":
        """The value of a canonical row (see _row_sum)."""
        if row is None:
            return cls.zero(p)
        v, u, n = row
        return cls(p, v, u, n - v, None if u else v)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        _require_prime(p)
        _require_ints(precision=precision)
        if n == 0:
            return cls.zero(p)
        v, u = _split(n, p)
        return cls._make(p, v, u, precision)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int,
                      precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        if den == 0:
            raise DomainError("zero denominator")
        _require_prime(p)
        _require_ints(precision=precision)
        if num == 0:
            return cls.zero(p)
        vn, nu = _split(num, p)
        vd, du = _split(den, p)
        # precision <= 0 gives the marker O(p^(v + precision)), as from_int
        inverse = pow(du, -1, p**max(precision, 0))
        return cls._make(p, vn - vd, nu * inverse, precision)

    @classmethod
    def from_fraction(cls, q: Fraction, p: int,
                      precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls.from_rational(q.numerator, q.denominator, p, precision)

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.known_to is None

    @property
    def abs_precision(self) -> int | None:
        """Exponent N such that the value is known modulo p**N (None = exact)."""
        if self.is_exact_zero:
            return None
        return self.valuation + self.precision

    def norm(self) -> Fraction:
        """|x|_p as an exact rational.  Ambiguous for inexact zeros."""
        if self.is_exact_zero:
            return Fraction(0)
        if self.is_zero:
            raise PrecisionExhaustedError(
                "norm of a value only known to vanish mod %d**%d"
                % (self.prime, self.known_to))
        v = self.valuation
        return Fraction(1, self.prime**v) if v >= 0 else Fraction(self.prime ** (-v))

    def digits(self) -> tuple:
        """Little-endian digits of the unit part, one per known digit."""
        ds = hensel_digits(self.unit, self.prime)
        return ds + (0,) * (self.precision - len(ds))

    def residue(self, n: int) -> int:
        """Integer representative of the value modulo p**n (requires v >= 0)."""
        if n < 0:
            raise DomainError("negative modulus exponent")
        if self.is_zero:
            if self.known_to is None or self.known_to >= n:
                return 0
            raise PrecisionExhaustedError(
                "residue mod %d**%d requested, zero only known mod %d**%d"
                % (self.prime, n, self.prime, self.known_to))
        if self.valuation < 0:
            raise DomainError("not a p-adic integer")
        if self.abs_precision < n:
            raise PrecisionExhaustedError(
                "residue mod %d**%d requested, value known mod %d**%d"
                % (self.prime, n, self.prime, self.abs_precision))
        if self.valuation >= n:
            return 0
        return self.unit % self.prime ** (n - self.valuation) * self.prime**self.valuation

    def to_fraction(self) -> Fraction:
        """The representative unit * p**valuation as an exact rational."""
        v = self.valuation
        if v >= 0:
            return Fraction(self.unit * self.prime**v)
        return Fraction(self.unit, self.prime ** (-v))

    def truncated_to(self, absprec: int) -> "PadicNumber":
        """Forget digits beyond p**absprec."""
        if not self.is_exact_zero and absprec >= self.abs_precision:
            return self
        return PadicNumber._make(self.prime, self.valuation, self.unit,
                                 absprec - self.valuation)

    def agrees_with(self, other: "PadicNumber") -> bool:
        """True when the two values coincide at their joint precision."""
        return (self - other).is_zero

    def __repr__(self) -> str:
        if self.is_exact_zero:
            return f"<{self.prime}-adic 0>"
        if self.is_zero:
            return f"<{self.prime}-adic O({self.prime}^{self.known_to})>"
        return (f"<{self.prime}-adic {self.unit}*{self.prime}^{self.valuation}"
                f" + O({self.prime}^{self.abs_precision})>")

    # -- arithmetic --------------------------------------------------

    def _check_same_field(self, other: "PadicNumber") -> None:
        if self.prime != other.prime:
            raise DomainError("prime mismatch: %d vs %d" % (self.prime, other.prime))

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        m = self.prime**self.precision
        return PadicNumber(self.prime, self.valuation, (-self.unit) % m, self.precision)

    def _embed(self, q, n: int) -> "PadicNumber":
        """The exact int or Fraction q known to max(n, 1) digits: n is
        self's relative precision for * and /, and its absolute precision
        less v_p(q) for + and -."""
        return PadicNumber.from_rational(q.numerator, q.denominator,
                                         self.prime, max(n, 1))

    def __add__(self, other) -> "PadicNumber":
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "PadicNumber":
        return self._add(other, -1)

    def _add(self, other, sign: int) -> "PadicNumber":
        """self + sign * other for sign = +-1, canonicalized once."""
        p = self.prime
        if not isinstance(other, PadicNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return self
            if self.is_exact_zero:
                raise PadicError("exact zero + exact rational has unbounded precision; "
                                 "embed the rational with from_rational first")
            vq = vp(other.numerator, p) - vp(other.denominator, p)
            other = self._embed(other, self.abs_precision - vq)
        self._check_same_field(other)
        if self.is_exact_zero:
            return other if sign > 0 else -other
        if other.is_exact_zero:
            return self
        sv, ov = self.valuation, other.valuation
        return PadicNumber._sum(p, ((sv, self.unit, sv + self.precision),
                                    (ov, sign * other.unit, ov + other.precision)))

    def __rsub__(self, other) -> "PadicNumber":
        return (-self).__add__(other)

    def __mul__(self, other) -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._embed(other, self.precision)
        self._check_same_field(other)
        p = self.prime
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.zero(p)
        m = min(self.precision, other.precision)
        return PadicNumber._make(p, self.valuation + other.valuation,
                                 self.unit * other.unit, m)

    def __rmul__(self, other) -> "PadicNumber":
        return self.__mul__(other)

    def __truediv__(self, other) -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                raise ZeroDivisionError("division by zero")
            other = self._embed(other, self.precision)
        self._check_same_field(other)
        p = self.prime
        if other.is_exact_zero:
            raise ZeroDivisionError("division by exact zero")
        if other.is_zero:
            raise PrecisionExhaustedError(
                "division by a value indistinguishable from 0 (known mod %d**%d)"
                % (p, other.known_to))
        if self.is_exact_zero:
            return self
        m = min(self.precision, other.precision)
        u = self.unit * pow(other.unit, -1, p**m)
        return PadicNumber._make(p, self.valuation - other.valuation, u, m)

    def __rtruediv__(self, other) -> "PadicNumber":
        if isinstance(other, (int, Fraction)):
            return self._embed(other, self.precision) / self
        return NotImplemented

    def __pow__(self, n: int) -> "PadicNumber":
        if not isinstance(n, int):
            return NotImplemented
        p = self.prime
        if n == 0:
            if self.is_zero:
                raise DomainError("0**0 is indeterminate")
            return PadicNumber.one(p, self.precision)
        if n < 0:
            return (PadicNumber.one(p, self.precision) / self) ** (-n)
        if self.is_exact_zero:
            return self
        m = self.precision
        return PadicNumber._make(p, n * self.valuation,
                                 pow(self.unit, n, p**m), m)


(_set_prime, _set_valuation, _set_unit, _set_precision,
 _set_known_to) = (PadicNumber.__dict__[name].__set__
                   for name in PadicNumber.__slots__)


def _row_sum(p: int, terms):
    """The sum of terms (v, u, N), each u * p**v known mod p**N, as the
    row (valuation, unit, absprec) of _make(p, min v, total, min N - min v):
    None for the exact zero (no terms), (k, 0, k) for the marker O(p^k)."""
    total, vmin, absprec = 0, inf, inf
    for v, u, n in terms:
        if v < vmin:
            total *= p ** (vmin - v) if total else 1
            vmin = v
        total += u * p ** (v - vmin)
        if n < absprec:
            absprec = n
    return _row(p, vmin, total, absprec)


def _row(p: int, v: int, total: int, absprec) -> tuple | None:
    """_row_sum's row of total * p**v known mod p**absprec (inf: exact)."""
    if absprec == inf:
        return None
    if absprec > v:
        total %= p ** (absprec - v)
        if total:
            shift, total = _split(total, p)
            return v + shift, total, absprec
    return absprec, 0, absprec


# -- Teichmuller character and friends --------------------------------


def _q_digits(p: int) -> int:
    """v_p(q) for q = p, or 4 when p = 2: Z_p^* = mu_phi(q) x (1 + qZ_p)."""
    return 2 if p == 2 else 1


def _torsion_order(p: int) -> int:
    """phi(q), the number of roots of unity in Z_p."""
    return p ** (_q_digits(p) - 1) * (p - 1)


def _check_exponent(s, p: int, name: str) -> None:
    """Raise DomainError unless s is an int (not a bool) or a PadicNumber in
    Z_p at the prime p; name is the caller's word for s in the message."""
    if isinstance(s, PadicNumber):
        if s.prime != p:
            raise DomainError("%s lives in a different Q_p" % name)
        if not s.is_zero and s.valuation < 0:
            raise DomainError("%s must lie in Z_p" % name)
    elif not isinstance(s, int) or isinstance(s, bool):
        raise DomainError("%s must be an integer or a PadicNumber, got %r"
                          % (name, s))


@lru_cache(maxsize=None)
def _teichmuller_residue(p: int, r: int, n: int) -> int:
    """omega(r) mod p**n for a unit residue r, as r**(p**n): each power
    x -> x**p fixes one more digit.  0 when n <= 0.  For p = 2 the lift
    is +-1 by r mod 4 (see teichmuller).
    """
    mod = p ** max(n, 0)
    if p == 2:
        return (1 if r % 4 == 1 else -1) % mod
    return pow(r, mod, mod)


def teichmuller(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    """The Teichmuller representative omega(x) of a unit x.

    omega(x) is the unique (p-1)-st root of unity congruent to x mod p.
    For p = 2 the convention is omega(x) = 1 if x = 1 mod 4, else -1,
    so that x/omega(x) always lands in 1 + 4Z_2.
    """
    if x.is_zero or x.valuation != 0:
        raise DomainError("teichmuller needs a unit of Z_p")
    p = x.prime
    n = precision if precision is not None else x.precision
    r = x.residue(_q_digits(p))
    return PadicNumber._make(p, 0, _teichmuller_residue(p, r, n), n)


def angle(x: PadicNumber) -> PadicNumber:
    """The principal-unit projection <x> = x / omega(x)."""
    return x / teichmuller(x)


def unit_power(u: PadicNumber, s, precision: int | None = None) -> PadicNumber:
    """u**s for a principal unit u (u = 1 mod q, q = p or 4) and s in Z_p.

    s may be an int or a PadicNumber in Z_p; the power is one modular
    pow of u's residue by an integer representative of s.
    """
    p = u.prime
    if u.is_zero or u.valuation != 0 or u.residue(_q_digits(p)) != 1:
        raise DomainError("unit_power needs u in 1 + qZ_p")
    _check_exponent(s, p, "exponent")
    n_out = u.precision if precision is None else min(precision, u.precision)
    t = u - 1
    if t.is_zero:
        # t is known to u's precision, which is at least n_out
        return PadicNumber.one(p, n_out)
    if isinstance(s, PadicNumber):
        # u**(p**e) = 1 mod p**(v(t)+e), so a representative of s modulo
        # p**(n_out - v(t)) determines the answer mod p**n_out
        s = s.residue(max(n_out - t.valuation, 1))
    return PadicNumber._make(p, 0, pow(u.residue(n_out), s, p**n_out), n_out)
