"""p-adic zeta values on a branch, by measure and by interpolation.

Two independent routes to the same numbers.  The interpolation route is
exact rational arithmetic: -(1 - p^(k-1)) B_k / k embedded into Q_p at
branch-matched k, with B_k from integer zigzag (tangent) numbers.  The
measure route Riemann-sums the integrand <x>^(-s) w(x)^(kappa0 - 1) over
the units mod q = p^N against the regularized Bernoulli measure
E_{1,r}(a) = B1(a/q) - r B1((r^-1 a mod q)/q) (Washington, Cyclotomic
Fields, Ch. 12), then divides by the prefactor <r>^(1-s) w(r)^kappa0 - 1.

The unit sum runs over plain integers mod p^N, by class sums for every
s in Z_p: E_{1,r} is constant on each class mod |r|, so the units split
into progressions whose e-th power sums have a closed form, about (e+1)
|r| work per unit class, for the exponent e = -s mod p^(N - v_p(q)).  An
e past the last of N samples e0 + phi(q) j is read off them by Newton
interpolation in (e - e0)/phi(q), exact mod p^N.

One precision rule: the Riemann sum is certified mod p^N, so the sum
runs mod p^N and the value, divided by the prefactor of valuation v_den,
is cut at p^(N - v_den).  The plan fixes in plain integers, before any
sum, the regulator, v_den in closed form, the exponent and the prefactor
mod p^(N + v_den), all from one residue of s: a shorter s raises the one
PrecisionExhaustedError.  What reads no level is the point plan, kept
for the last 4 keys (s, p, kappa0, r), so the levels of one sweep plan
their point once.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul

from .errors import DomainError, PoleError, PrecisionExhaustedError
from .padics import (
    DEFAULT_PRECISION,
    PadicNumber,
    _Frozen,
    _check_exponent,
    _q_digits,
    _require_ints,
    _require_prime,
    _teichmuller_residue,
    _torsion_order,
    is_primitive_root,
    vp,
)
from .galois import Branch

# -- Bernoulli numbers --------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]
_ZIGZAG: list[int] = [1]  # boustrophedon row n = len(_BERNOULLI) - 1
_BERNOULLI_LOCK = allocate_lock()


def bernoulli(k: int) -> Fraction:
    """B_2m = (-1)^(m-1) 2m E_(2m-1) / (4^m (4^m - 1)), B_1 = -1/2.

    The zigzag number E_n ends row n of the Seidel-Entringer-Arnold
    boustrophedon, the running sum of row n-1 reversed from 0, so all is
    integer until the one division (Brent and Harvey, arXiv:1108.0286).
    The table grows one index per row under a lock; reads are thread-safe.
    """
    _require_ints(k=k)
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


def _check_measure(level: int, regulator: int, p: int, **more) -> None:
    """Ints, a prime p, a regulator that regularizes, and level >= 0."""
    _require_ints(**more, level=level, regulator=regulator, p=p)
    _require_prime(p)
    _validate_regulator(regulator, p)
    if level < 0:
        raise DomainError("level must be >= 0, got %d" % level)


def _disc_constants(regulator: int, q: int, mod: int):
    """(R, slope, half) of the disc value r*floor(R a/q) - slope*a + half."""
    rinv = pow(regulator, -1, q)
    # half = (r-1)/2 mod p^digits; when r is even, p and so p^digits are odd
    half = (regulator - 1 + (0 if regulator % 2 else mod)) // 2
    return rinv, (regulator * rinv - 1) // q, half


def measure_value(a: int, level: int, regulator: int, p: int,
                  precision: int | None = None) -> PadicNumber:
    """E_{1,r}(a + p^level Z_p) = B1(a/q) - r B1((R a mod q)/q), q = p^level.

    Closed form r floor(R a/q) - slope a + (r - 1)/2, with R = r^-1 mod q
    and slope = (r R - 1)/q from _disc_constants; (r - 1)/2 is exact here.
    """
    n = DEFAULT_PRECISION if precision is None else precision
    _check_measure(level, regulator, p, a=a, precision=n)
    q = p**level
    if not 0 <= a < q:
        raise DomainError("residue %r out of range for level %d" % (a, level))
    rinv, slope, _ = _disc_constants(regulator, q, 1)
    num = 2 * (regulator * (rinv * a // q) - slope * a) + regulator - 1
    return PadicNumber.from_rational(num, 2, p, n)


class MazurMeasure(_Frozen):
    """All disc values of the regularized measure at one level."""

    __slots__ = ("prime", "regulator", "level", "values")

    @classmethod
    def build(cls, p: int, regulator: int, level: int,
              precision: int | None = None) -> "MazurMeasure":
        _check_measure(level, regulator, p)
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
        q, zero = self.prime**self.level, PadicNumber.zero(self.prime)
        # the children of the disc a + qZ_p are a + jq, j < p
        return all((sum(finer.values[a::q], zero) - coarse).is_zero
                   for a, coarse in enumerate(self.values))


def total_mass(regulator: int, p: int,
               precision: int | None = None) -> PadicNumber:
    """E_{1,r}(Z_p) = (r - 1)/2, the same at every level: the level-0 disc."""
    return measure_value(0, 0, regulator, p, precision)


def integrate_units(g: Callable[[int], PadicNumber], level: int,
                    regulator: int, p: int,
                    precision: int | None = None) -> PadicNumber:
    """Riemann sum of g over the units mod p^level against E_{1,r}.

    g maps a unit residue to a PadicNumber (exact ints work too).  The
    measure values lie in (1/2) Z_p, so the sum approximates the integral
    to within the modulus of continuity of g across level-N discs; a
    caller who knows that exponent e caps the result with truncated_to(e).
    """
    _check_measure(level, regulator, p)
    return sum((g(a) * measure_value(a, level, regulator, p, precision)
                for a in range(1, p**level) if a % p), PadicNumber.zero(p))


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


class ZetaBranchEval(_Frozen):
    """One zeta evaluation with its provenance and error bound: s is an
    int or a PadicNumber; regulator, level and error_bound_exponent are
    None on the interpolation path."""

    __slots__ = ("prime", "kappa0", "s", "regulator", "level", "value",
                 "error_bound_exponent", "path")


def _require_even_branch(branch: Branch) -> None:
    if branch.kappa0 % 2:
        raise DomainError(
            "zeta needs an even branch; kappa0 = %d is odd" % branch.kappa0)


def zeta_interp(k: int, branch: Branch,
                precision: int | None = None) -> PadicNumber:
    """Exact interpolation value -(1 - p^(k-1)) B_k / k at s = 1 - k.

    Only branch-matched k (k = kappa0 mod p-1; mod 2 when p = 2) hit
    ordinary Bernoulli numbers; anything else is out of scope here.
    """
    p = branch.prime
    _require_even_branch(branch)
    n = DEFAULT_PRECISION if precision is None else precision
    _require_ints(k=k, precision=n)
    if k < 1:
        raise DomainError("k must be a positive integer")
    if (k - branch.kappa0) % _torsion_order(p):
        raise DomainError(
            "branch mismatch: k = %d is not %d mod %d"
            % (k, branch.kappa0, _torsion_order(p)))
    value = -(1 - Fraction(p) ** (k - 1)) * bernoulli(k) / k
    return PadicNumber.from_fraction(value, p, n)


def _class_unit_sum(p: int, kappa0: int, exponent: int, regulator: int,
                    level: int) -> int:
    """Sum over the units a mod q = p^level of <a>^e w(a)^(kappa0-1)
    E_{1,r}(a + qZ_p) mod q for e >= 0; the tests keep the loop oracle.

    For 0 < a < q, E_{1,r}(a) = m + (r - 1)/2 with m = (a - r (R a mod q))/q
    = a q^-1 mod |r| in [1 - r, 0] (r > 0) or [1, |r|] (r < 0), so the
    measure is constant on each class mod |r|.  As <a>^e = a^e w(a)^-e, a
    progression A + D t, D = step |r|, t < n, of one unit class needs only
    sum (A + D t)^e = sum_i C(e, i) A^(e-i) D^i F_i(n).
    F_i(n) = sum_{t<n} t^i = sum_k k! S(i, k) C(n, k + 1) is (T^i b)_0, with
    b_k = k! C(n, k + 1) and (T b)_k = k b_k + b_(k+1), the recurrence of
    k! S(i, k) moved onto b: memory O(e), and it stops once D^i = 0 mod q.

    The sums S(j) at e_j = e0 + phi(q) j, e0 = e mod phi(q), are sum c_a
    u_a^j with u_a = a^phi(q) = 1 mod p, so Delta^n S(0) vanishes mod q
    from n = D = level on (from ceil(level/3) on at p = 2, u_a = 1 mod 8).
    An e past e_(D-1) is S(t), t = (e - e0)/phi(q), by Newton's series cut
    at D, in Lagrange form sum_j L_j(t) S(j): the samples share the weight
    w^(kappa0-1-e0), and one Horner row per progression sums them all.
    """
    q, order, size = p**level, _torsion_order(p), abs(regulator)
    rinv, slope, half = _disc_constants(regulator, q, q)
    e0, t = exponent % order, exponent // order
    if t < level:
        exps, lams = [exponent], [1]
    else:  # the samples, and L_j(t) = (-1)^(D-1-j) C(t, j) C(t-j-1, D-1-j)
        exps = range(e0, e0 + order * level, order)
        lams = [(-1) ** (level - 1 - j) * math.comb(t, j)
                * math.comb(t - j - 1, level - 1 - j) % q
                for j in range(level)]
    twist = (kappa0 - 1 - e0) % order
    if twist or p < 5:
        # one run per unit class c mod p, weighted w(c)^twist: p - 1 <= 2
        # runs of one row when p < 5; c mod 4 at p = 2 unless twist = 0
        stride = p**_q_digits(p) if twist else p
        runs = [(c, stride, (q - 1 - c) // stride + 1,
                 pow(_teichmuller_residue(p, c, level), twist, q))
                for c in range(1, stride) if c % p]
    else:
        # every weight is 1: all 0 < a < q less the multiples of p, two
        # runs in place of p - 1; the multiples' e-th powers vanish mod q
        # from e = level on
        runs = [(1, 1, q - 1, 1)]
        if exps[0] < level:
            runs.append((p, p, q // p - 1, q - 1))
    top, rows = exps[-1], {}  # (n, step): the Horner row, degree top first
    # per sample, its shift in the row and L_j(t) C(e_j, i), i <= e_j
    samples = [(top - e, list(map(mul, repeat(lam),
                                  map(math.comb, repeat(e), range(e + 1)))))
               for e, lam in zip(exps, lams)]
    for _, step, count, _ in runs:
        n = count // size
        if (n, step) in rows:
            continue
        # b_k = k! C(n, k + 1) = n (n - 1) ... (n - k) / (k + 1) mod q
        b = [f // k % q for k, f in enumerate(
            accumulate(range(n, n - top - 1, -1), mul), 1)]
        powers, d = [0] * (top + 1), 1  # D^i F_i(n) mod q, 0 once D^i is
        for i in range(top + 1):
            powers[i] = d * b[0] % q
            d = d * step * size % q
            if not d:
                break
            for k in range(top - i):
                b[k] = (k * b[k] + b[k + 1]) % q
        row = rows[n, step] = list(map(mul, samples[-1][1], powers))
        for shift, coefs in samples[:-1]:
            row[shift:] = map(add, row[shift:], map(mul, coefs, powers))
    acc, tails, tail_mus = 0, [], []
    for start, step, count, weight in runs:
        # count = n |r| + extra: the first `extra` sub-progressions hold
        # n + 1 terms, the others n; their last terms are summed apart
        n, extra = divmod(count, size)
        row, part = rows[n, step], 0
        for i in range(min(size, count)):
            a, h = start + step * i, 0
            for g in row:
                h = h * a + g  # a < q is short: part % q reduces h
            mu = regulator * (rinv * a // q) - slope * a + half
            if i < extra:
                tails.append(a + step * size * n)
                tail_mus.append(mu * weight)
            part += mu * h
        acc += part % q * weight
    if tails:
        for e, lam in zip(exps, lams):
            acc += lam * sum(map(mul, tail_mus,
                                 map(pow, tails, repeat(e), repeat(q))))
    return acc % q


@lru_cache(maxsize=4)
def _point_plan(s, p: int, kappa0: int, regulator: int | None) -> tuple:
    """_plan's part that reads no level: (r, v_r, v_den), v_r = v(<r> - 1)
    = v(r^phi(q) - 1) - v(phi(q)) and v_den the valuation of <r>^(1-s)
    w(r)^kappa0 - 1 on an even branch.  It is 0 unless w(r)^kappa0 = 1 mod
    p; then w(r)^kappa0 = 1 and it is v_r + v(1 - s) (Washington, Ch. 5).
    A raise is not cached: it comes every call."""
    r = default_regulator(p) if regulator is None else regulator
    order = _torsion_order(p)
    v_r = vp(r**order - 1, p) - vp(order, p)
    if pow(r % p, kappa0, p) != 1:
        return r, v_r, 0
    if isinstance(s, int):
        if s == 1:
            raise PoleError(
                "pole/indeterminate at this branch point: s = 1 with "
                "w(r)^kappa0 = 1")
        return r, v_r, v_r + vp(1 - s, p)
    if s.is_exact_zero:
        return r, v_r, v_r
    diff = s - 1
    if diff.is_zero:
        raise PrecisionExhaustedError(
            "s is indistinguishable from the pole at 1 "
            "(difference known to vanish mod %d**%s)" % (p, diff.known_to))
    return r, v_r, v_r + diff.valuation


def _plan(s, branch: Branch, regulator: int | None, level: int,
          precision: int | None) -> tuple:
    """Validate, then fix in plain ints before any sum: (regulator, exponent,
    prefactor, v_den, error_bound_exponent).  <a> has order dividing
    p^(level - v_p(q)) mod p^level, so the exponent is -s mod that order;
    the prefactor <r>^(1-s) w(r)^kappa0 - 1 is made mod p^(level + v_den),
    where <r> = r w(r)^(phi(q)-1) = 1 mod p^v_r has order dividing
    p^(level + v_den - v_r).  One residue of s, to the larger of the two,
    serves both; a shorter s raises the one PrecisionExhaustedError.  The
    bound is level - v_den, capped at precision."""
    p, kappa0 = branch.prime, branch.kappa0
    _require_even_branch(branch)
    n_req = DEFAULT_PRECISION if precision is None else precision
    _require_ints(regulator=0 if regulator is None else regulator,
                  level=level, precision=n_req)
    if regulator is not None:
        _validate_regulator(regulator, p)
    if level < _q_digits(p):
        raise DomainError("level %d too small for p = %d" % (level, p))
    if n_req < 1:
        raise DomainError("precision must be positive")
    _check_exponent(s, p, "s")
    r, v_r, v_den = _point_plan(s, p, kappa0, regulator)
    digits = level + v_den
    need = max(level - _q_digits(p), digits - v_r)
    if isinstance(s, PadicNumber):
        if not s.is_exact_zero and s.abs_precision < need:
            raise PrecisionExhaustedError(
                "zeta_measure needs s mod %d**%d, but s is known mod %d**%d"
                % (p, need, p, s.abs_precision))
        s = s.residue(need)
    mod = p**digits
    w = _teichmuller_residue(p, r % p**_q_digits(p), digits)
    angle = r * pow(w, _torsion_order(p) - 1, mod)
    prefactor = pow(angle, (1 - s) % p**need, mod) * pow(w, kappa0, mod) - 1
    return (r, -s % p**(level - _q_digits(p)), prefactor % mod, v_den,
            min(level - v_den, n_req))


def zeta_measure(s, branch: Branch, regulator: int | None = None,
                 level: int = 5,
                 precision: int | None = None) -> ZetaBranchEval:
    """Riemann-sum evaluation of the branch zeta function at s in Z_p.

    The run step of _plan: the class sums mod p^level and one division by
    the prefactor, whose quotient is known to p^(level - v_den).  The value
    is cut at error_bound_exponent, that exponent or precision if lower,
    so it carries no uncertified digit.
    """
    p, kappa0 = branch.prime, branch.kappa0
    r, exponent, prefactor, v_den, bound = _plan(s, branch, regulator, level,
                                                 precision)
    integral = PadicNumber._make(
        p, 0, _class_unit_sum(p, kappa0, exponent, r, level), level)
    den = PadicNumber._make(p, 0, prefactor, level + v_den)
    return ZetaBranchEval(p, kappa0, s, r, level,
                          (integral / den).truncated_to(bound), bound,
                          "measure")
