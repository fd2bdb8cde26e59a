"""p-adic zeta values on a branch, by measure and by interpolation.

Two independent routes to the same numbers.  The interpolation route is
exact rational arithmetic: -(1 - p^(k-1)) B_k / k embedded into Q_p at
branch-matched k, with B_k from integer zigzag (tangent) numbers.  The
measure route Riemann-sums the integrand <x>^(-s) w(x)^(kappa0 - 1) over
the units mod q = p^N against the regularized Bernoulli measure
E_{1,r}(a) = B1(a/q) - r B1((r^-1 a mod q)/q) (Washington, Cyclotomic
Fields, Ch. 12), then divides by the prefactor <r>^(1-s) w(r)^kappa0 - 1.

The unit sum runs over plain integers mod p^digits.  Its two kernels give
the same residue: floor sums when the exponent e = -s is a small integer
>= 0, about (e+2)^2 bit_length(p^N) work per progression, else the
residue loop, one term per unit (s > 0, generic p-adic s, low N).
"""

from __future__ import annotations

import math
import threading

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Optional, Union

from .errors import DomainError, PoleError, PrecisionExhaustedError
from .padics import (
    DEFAULT_PRECISION,
    PadicNumber,
    _teichmuller_residue,
    is_primitive_root,
    teichmuller,
    unit_power,
)
from .galois import Branch

# -- Bernoulli numbers --------------------------------------------------

_BERNOULLI: List[Fraction] = [Fraction(1)]
_ZIGZAG: List[int] = [1]  # boustrophedon row n = len(_BERNOULLI) - 1
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """B_2m = (-1)^(m-1) 2m E_(2m-1) / (4^m (4^m - 1)), B_1 = -1/2.

    The zigzag number E_n ends row n of the Seidel-Entringer-Arnold
    boustrophedon, the running sum of row n-1 reversed from 0, so all is
    integer until the one division (Brent and Harvey, arXiv:1108.0286).
    The table grows one index per row under a lock; reads are thread-safe.
    """
    if k < 0:
        raise DomainError("negative Bernoulli index")
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= k:
            n = len(_BERNOULLI)
            if n % 2:
                _BERNOULLI.append(Fraction(-1, 2) if n == 1 else Fraction(0))
            else:
                four = 4 ** (n // 2)
                _BERNOULLI.append(Fraction((n if n % 4 else -n) * _ZIGZAG[-1],
                                           four * (four - 1)))
            _ZIGZAG[:] = list(accumulate(reversed(_ZIGZAG), initial=0))
        return _BERNOULLI[k]


# -- the measure --------------------------------------------------------


def _validate_regulator(regulator: int, p: int) -> None:
    # r = 1 regularizes nothing; r = -1 makes the prefactor denominator
    # <r>^(1-s) w(r)^kappa0 - 1 exactly 0 on every even branch
    if regulator in (1, -1) or math.gcd(regulator, p) != 1:
        raise DomainError("invalid regulator %r for p = %d" % (regulator, p))


def _disc_constants(regulator: int, q: int, mod: int):
    """(R, slope, half) of the disc value r*floor(R a/q) - slope*a + half."""
    rinv = pow(regulator, -1, q)
    # half = (r-1)/2 mod p^digits; when r is even, p and so p^digits are odd
    half = (regulator - 1 + (0 if regulator % 2 else mod)) // 2
    return rinv, (regulator * rinv - 1) // q, half


def measure_value(a: int, level: int, regulator: int, p: int,
                  precision: Optional[int] = None) -> PadicNumber:
    """E_{1,r}(a + p^level Z_p) = B1(a/q) - r B1((R a mod q)/q), q = p^level.

    Closed form r floor(R a/q) - slope a + (r - 1)/2, with R = r^-1 mod q
    and slope = (r R - 1)/q from _disc_constants; (r - 1)/2 is exact here.
    """
    _validate_regulator(regulator, p)
    q = p**level
    if not 0 <= a < q:
        raise DomainError("residue %r out of range for level %d" % (a, level))
    n = DEFAULT_PRECISION if precision is None else precision
    rinv, slope, _ = _disc_constants(regulator, q, 1)
    num = 2 * (regulator * (rinv * a // q) - slope * a) + regulator - 1
    return PadicNumber.from_rational(num, 2, p, n)


@dataclass(frozen=True)
class MazurMeasure:
    """All disc values of the regularized measure at one level."""

    prime: int
    regulator: int
    level: int
    values: tuple

    @classmethod
    def build(cls, p: int, regulator: int, level: int,
              precision: Optional[int] = None) -> "MazurMeasure":
        vals = tuple(measure_value(a, level, regulator, p, precision)
                     for a in range(p**level))
        return cls(prime=p, regulator=regulator, level=level, values=vals)

    def refined_by(self, finer: "MazurMeasure") -> bool:
        """Distribution law: each disc value is the sum over its p
        children one level down, exactly at working precision."""
        if (finer.prime, finer.regulator) != (self.prime, self.regulator):
            raise DomainError("measures do not match")
        if finer.level != self.level + 1:
            raise DomainError("refinement must be one level finer")
        q = self.prime**self.level
        for a, coarse in enumerate(self.values):
            parts = PadicNumber.zero(self.prime)
            for j in range(self.prime):
                parts = parts + finer.values[a + j * q]
            if not (parts - coarse).is_zero:
                return False
        return True


def total_mass(regulator: int, p: int,
               precision: Optional[int] = None) -> PadicNumber:
    """E_{1,r}(Z_p) = (r - 1)/2, the same at every level: the level-0 disc."""
    return measure_value(0, 0, regulator, p, precision)


def integrate_units(g: Callable[[int], PadicNumber], level: int,
                    regulator: int, p: int,
                    precision: Optional[int] = None) -> PadicNumber:
    """Riemann sum of g over the units mod p^level against E_{1,r}.

    g maps a unit residue to a PadicNumber (exact ints work too).  The
    measure values lie in (1/2) Z_p, so the sum approximates the integral
    to within the modulus of continuity of g across level-N discs; a
    caller who knows that exponent e caps the result with truncated_to(e).
    """
    _validate_regulator(regulator, p)
    q = p**level
    total = PadicNumber.zero(p)
    for a in range(1, q):
        if a % p == 0:
            continue
        total = total + g(a) * measure_value(a, level, regulator, p, precision)
    return total


# -- regulators ---------------------------------------------------------


def default_regulator(p: int) -> int:
    """Smallest primitive root mod p^2 (3 when p = 2)."""
    if p == 2:
        return 3
    for r in range(2, p * p):
        if is_primitive_root(r, p) and pow(r, p - 1, p * p) != 1:
            return r
    raise DomainError("no regulator found for p = %d" % p)


# -- the two evaluation paths -------------------------------------------


@dataclass(frozen=True)
class ZetaBranchEval:
    """One zeta evaluation with its provenance and error bound."""

    prime: int
    kappa0: int
    s: Union[int, PadicNumber]
    regulator: Optional[int]
    level: Optional[int]
    value: PadicNumber
    error_bound_exponent: Optional[int]
    path: str


def _require_even_branch(branch: Branch) -> None:
    if branch.kappa0 % 2:
        raise DomainError(
            "zeta needs an even branch; kappa0 = %d is odd" % branch.kappa0)


def _torsion_order(p: int) -> int:
    return 2 if p == 2 else p - 1


def zeta_interp(k: int, branch: Branch,
                precision: Optional[int] = None) -> PadicNumber:
    """Exact interpolation value -(1 - p^(k-1)) B_k / k at s = 1 - k.

    Only branch-matched k (k = kappa0 mod p-1; mod 2 when p = 2) hit
    ordinary Bernoulli numbers; anything else is out of scope here.
    """
    p = branch.prime
    _require_even_branch(branch)
    if k < 1:
        raise DomainError("k must be a positive integer")
    if (k - branch.kappa0) % _torsion_order(p):
        raise DomainError(
            "branch mismatch: k = %d is not %d mod %d"
            % (k, branch.kappa0, _torsion_order(p)))
    n = DEFAULT_PRECISION if precision is None else precision
    value = -(1 - Fraction(p) ** (k - 1)) * bernoulli(k) / k
    return PadicNumber.from_fraction(value, p, n)


def _prefactor_denominator(s, kappa0: int, regulator: int, p: int,
                           digits: int) -> PadicNumber:
    x = PadicNumber.from_int(regulator, p, digits)
    w = teichmuller(x)
    return unit_power(x / w, 1 - s, digits) * w**kappa0 - 1


def _unit_classes(p: int, digits: int):
    """Stride and unit classes (c, w(c) mod p^digits); at p = 2, c mod 4."""
    stride = 4 if p == 2 else p
    return stride, [(c, _teichmuller_residue(p, c, digits))
                    for c in range(1, stride) if c % p]


def _unit_sum(p: int, kappa0: int, exponent: int, regulator: int,
              level: int, digits: int) -> int:
    """Sum over the units a mod p^level of <a>^exponent w(a)^(kappa0-1)
    E_{1,r}(a + p^level Z_p), as a residue mod p^digits.

    The residue loop, one term per unit: zeta_measure runs it for a
    negative or large exponent and at low levels, and it is the test
    oracle of _floor_unit_sum.
    """
    q = p**level
    mod = p**digits
    rinv, slope, half = _disc_constants(regulator, q, mod)
    stride, classes = _unit_classes(p, digits)
    e_om = (kappa0 - 1) % _torsion_order(p)
    acc = 0
    for c, w in classes:
        winv = pow(w, -1, mod)
        part = 0
        for a in range(c, q, stride):
            mu = regulator * (rinv * a // q) - slope * a + half
            part += pow(a * winv % mod, exponent, mod) * mu
        acc += part % mod * pow(w, e_om, mod)
    return acc % mod


def _progressions(p: int, kappa0: int, exponent: int, level: int,
                  digits: int):
    """(start, step, count, weight w(c)^(kappa0-1-exponent)) of the
    progressions of units that _floor_unit_sum sums over."""
    q, mod, order = p**level, p**digits, _torsion_order(p)
    if (kappa0 - 1 - exponent) % order == 0:
        # every weight is 1: all a < q less the multiples of p
        return [(0, 1, q, 1), (0, p, q // p, mod - 1)]
    stride, classes = _unit_classes(p, digits)
    return [(c, stride, len(range(c, q, stride)),
             pow(w, (kappa0 - 1 - exponent) % order, mod)) for c, w in classes]


def _progression_sums(e, rinv, q, start, step, count, mod):
    """(sum a^e, sum a^(e+1), sum a^e floor(rinv a/q)) mod `mod` over
    a = start + step*t, 0 <= t < count, by the universal Euclid recursion
    on the lattice path of floor((rinv step t + b)/q).  A node (dx, dy,
    s0, s1) is a run of path moves: s0[i], s1[i] sum x^i, x^i y (i <= e+1)
    where it moves right; joining shifts the second run by binomials."""
    n = e + 2
    binom = [[math.comb(i, j) for j in range(i + 1)] for i in range(n)]
    zeros = [0] * n
    ident = (0, 0, zeros, zeros)

    def join(a, b):
        if a is ident or b is ident:
            return b if a is ident else a
        dx, dy, s0, s1 = a[0], a[1], a[2][:], a[3][:]
        pw = [pow(dx, i, mod) for i in range(n)]
        for i, row in enumerate(binom):
            t0 = t1 = 0
            for j, cij in enumerate(row):
                c = cij * pw[i - j]
                t0 += c * b[2][j]
                t1 += c * b[3][j]
            s0[i] = (s0[i] + t0) % mod
            s1[i] = (s1[i] + t1 + dy * t0) % mod
        return (dx + b[0]) % mod, (dy + b[1]) % mod, s0, s1

    def power(a, k):
        out = ident
        for bit in bin(k)[2:]:
            out = join(out, out)
            if bit == "1":
                out = join(out, a)
        return out

    y0, b = divmod(rinv * start, q)
    first = [pow(start, i, mod) for i in range(n)]
    node = (start % mod, y0 % mod, first, [f * y0 % mod for f in first])
    up = (0, 1, zeros, zeros)
    right = (step % mod, 0, [pow(step, i, mod) for i in range(n)], zeros)
    big_p, big_q, big_l, tail = rinv * step, q, count - 1, []
    while True:
        right = join(power(up, big_p // big_q), right)
        big_p %= big_q
        m = (big_p * big_l + b) // big_q
        if m == 0:
            break
        node = join(node, join(power(right, (big_q - b - 1) // big_p), up))
        tail.append(power(right, big_l - (big_q * m - b - 1) // big_p))
        big_p, big_q, b, big_l = big_q, big_p, (big_q - b - 1) % big_p, m - 1
        up, right = right, up
    for t in [power(right, big_l)] + tail[::-1]:
        node = join(node, t)
    return node[2][e], node[2][e + 1], node[3][e]


def _floor_unit_sum(p: int, kappa0: int, exponent: int, regulator: int,
                    level: int, digits: int) -> int:
    """_unit_sum for exponent e >= 0 by floor sums, the same residue:
    <a>^e w(a)^(kappa0-1) E_{1,r}(a) = w(c)^(kappa0-1-e) a^e (r floor(R a/q)
    - slope a + half), so a progression needs the sums of a^e, a^(e+1) and
    a^e floor(R a/q) only (Concrete Mathematics 3.5)."""
    q, mod = p**level, p**digits
    rinv, slope, half = _disc_constants(regulator, q, mod)
    acc = 0
    for start, step, count, weight in _progressions(p, kappa0, exponent,
                                                    level, digits):
        s0, s1, f = _progression_sums(exponent, rinv, q, start, step,
                                      count, mod)
        acc += weight * (regulator * f - slope * s1 + half * s0)
    return acc % mod


def zeta_measure(s, branch: Branch, regulator: Optional[int] = None,
                 level: int = 5,
                 precision: Optional[int] = None) -> ZetaBranchEval:
    """Riemann-sum evaluation of the branch zeta function at s in Z_p.

    The prefactor denominator <r>^(1-s) w(r)^kappa0 - 1 fixes the
    working precision: its valuation is measured first and added to the
    digit budget (with guard digits) before the sum runs.  The reported
    error bound is level minus that valuation.
    """
    p = branch.prime
    kappa0 = branch.kappa0
    _require_even_branch(branch)
    r = default_regulator(p) if regulator is None else regulator
    _validate_regulator(r, p)
    if level < (2 if p == 2 else 1):
        raise DomainError("level %d too small for p = %d" % (level, p))
    n_req = DEFAULT_PRECISION if precision is None else precision
    if n_req < 1:
        raise DomainError("precision must be positive")

    torsion_trivial = pow(r % p, kappa0, p) == 1
    x = s  # the point computed with; the report keeps s as given
    if isinstance(s, PadicNumber):
        if s.prime != p:
            raise DomainError("s lives in a different Q_p")
        if not s.is_zero and s.valuation < 0:
            raise DomainError("s must lie in Z_p")
        if s.is_exact_zero:
            x = 0  # s - 1 would have unbounded precision
        else:
            diff = s - 1
            if torsion_trivial and diff.is_zero:
                raise PrecisionExhaustedError(
                    "s is indistinguishable from the pole at 1 "
                    "(difference known to vanish mod %d**%s)"
                    % (p, diff.known_to))
    elif not isinstance(s, int):
        raise DomainError("s must be an int or PadicNumber")
    if torsion_trivial and isinstance(x, int) and x == 1:
        raise PoleError(
            "pole/indeterminate at this branch point: s = 1 with "
            "w(r)^kappa0 = 1")

    probe = n_req + 10
    den = _prefactor_denominator(x, kappa0, r, p, probe)
    if den.is_zero:
        raise PrecisionExhaustedError(
            "prefactor denominator vanishes to p^-%s; "
            "raise the precision budget" % (den.known_to,))
    v_den = den.valuation
    digits = n_req + v_den + 4
    if digits > probe:
        den = _prefactor_denominator(x, kappa0, r, p, digits)

    if isinstance(x, int):
        exponent = -x
    else:
        # <a> has order dividing p^(digits-1) (2^(digits-2) when p = 2)
        # mod p^digits, so -s is needed only modulo that order
        exponent = (-x).residue(digits - (2 if p == 2 else 1))
    # the floor sums cost about (e+2)^2 bit_length(p^level) per
    # progression, the loop one term per unit
    units = p**level - p**(level - 1)
    progressions = (_progressions(p, kappa0, exponent, level, digits)
                    if 0 <= exponent < units else ())
    work = len(progressions) * (exponent + 2)**2 * (p**level).bit_length()
    if 0 < work < units:
        acc = _floor_unit_sum(p, kappa0, exponent, r, level, digits)
    else:
        acc = _unit_sum(p, kappa0, exponent, r, level, digits)
    integral = PadicNumber._make(p, 0, acc, digits)
    return ZetaBranchEval(prime=p, kappa0=kappa0, s=s, regulator=r,
                          level=level, value=integral / den,
                          error_bound_exponent=level - v_den, path="measure")
