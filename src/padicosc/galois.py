"""Cyclic action of Z_p* on ground states and truncated operators.

A unit alpha acts on the ground-state line through the Teichmuller
character: the scale of c * Omega is multiplied by w(alpha)^kappa0,
which equals zeta^(kappa0 * t) for zeta a fixed primitive (p-1)-st root
of unity and t the discrete logarithm of alpha in the residue field.
The induced action on a truncated operator multiplies the whole matrix
by the same root of unity, so iterating it walks a cycle whose length
is (p-1)/gcd(kappa0, p-1).

Everything here needs the torsion subgroup mu_(p-1) to be nontrivial,
so the operations are gated to odd primes.
"""

from __future__ import annotations

from .errors import DomainError
from .padics import (
    DEFAULT_PRECISION,
    PadicNumber,
    _Frozen,
    is_primitive_root,
    is_prime,
    teichmuller,
)
from .series import MahlerSeries, basis_vector
from .operators import OperatorMatrix, mat_scale, matrices_agree


def _require_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise DomainError("cyclic action needs an odd prime, got %r" % (p,))


def smallest_primitive_root(p: int) -> int:
    _require_odd_prime(p)
    return next(g for g in range(2, p) if is_primitive_root(g, p))


def fixed_generator(p: int, precision: int | None = None) -> PadicNumber:
    """The distinguished primitive (p-1)-st root of unity: the
    Teichmuller lift of the smallest primitive root mod p."""
    n = DEFAULT_PRECISION if precision is None else precision
    g = smallest_primitive_root(p)
    return teichmuller(PadicNumber.from_int(g, p, n))


def t_of(alpha: PadicNumber | int, p: int | None = None) -> int:
    """Cyclic coordinate of a unit: t with w(alpha) = fixed_generator^t.

    t is found by scanning the powers of g = smallest_primitive_root(p)
    for alpha mod p: p is small here, as Branch trial-divides it."""
    if isinstance(alpha, PadicNumber):
        p = alpha.prime
        unit = not alpha.is_zero and alpha.valuation == 0
        alpha = alpha.residue(1) if unit else 0
    elif p is None:
        raise DomainError("integer input needs an explicit prime")
    g = smallest_primitive_root(p)      # checks that p is an odd prime
    if alpha % p == 0:
        raise DomainError("cyclic coordinate needs a unit")
    return [pow(g, t, p) for t in range(p - 1)].index(alpha % p)


class Branch(_Frozen):
    """A residue class kappa0 mod p-1 labelling one branch."""

    __slots__ = ("prime", "kappa0")

    def __post_init__(self):
        if not is_prime(self.prime):
            raise DomainError("branch needs a prime; %r is not prime"
                              % (self.prime,))
        top = max(self.prime - 2, 0)
        if not 0 <= self.kappa0 <= top:
            raise DomainError("kappa0 must lie in [0, %d], got %r"
                              % (top, self.kappa0))


class GaloisElement(_Frozen):
    """A unit alpha together with its cyclic coordinate t."""

    __slots__ = ("prime", "alpha", "t")

    def __post_init__(self):
        _require_odd_prime(self.prime)
        if not 0 <= self.t <= self.prime - 2:
            raise DomainError("t out of range")

    @classmethod
    def from_unit(cls, alpha: PadicNumber) -> "GaloisElement":
        return cls(prime=alpha.prime, alpha=alpha, t=t_of(alpha))

    def consistent(self) -> bool:
        """w(alpha) = generator^t at the element's working precision."""
        n = self.alpha.precision
        zeta = fixed_generator(self.prime, n)
        return (teichmuller(self.alpha) - zeta**self.t).is_zero


class GroundState(_Frozen):
    """A scalar multiple of the canonical vacuum Omega = P_0."""

    __slots__ = ("prime", "omega", "scale")

    @classmethod
    def canonical(cls, p: int, precision: int | None = None,
                  truncation: int = 4) -> "GroundState":
        n = DEFAULT_PRECISION if precision is None else precision
        return cls(prime=p,
                   omega=basis_vector(p, 0, truncation, n),
                   scale=PadicNumber.one(p, n))


def rho_apply(branch: Branch, element: GaloisElement,
              state: GroundState) -> GroundState:
    """One-dimensional action: scale times w(alpha)^kappa0."""
    _require_odd_prime(branch.prime)
    if not branch.prime == element.prime == state.prime:
        raise DomainError("mismatched primes")
    factor = teichmuller(element.alpha) ** branch.kappa0
    return GroundState(state.prime, state.omega, state.scale * factor)


def rho_prime_apply(branch: Branch, t: int, a: OperatorMatrix) -> OperatorMatrix:
    """Induced action on operators: multiply by zeta^(kappa0 * t)."""
    p = branch.prime
    _require_odd_prime(p)
    if a.prime != p:
        raise DomainError("mismatched primes")
    e = (branch.kappa0 * t) % (p - 1)
    if e == 0:
        return a
    zeta = fixed_generator(p, a.precision)
    return mat_scale(zeta**e, a)


def orbit(branch: Branch, a: OperatorMatrix) -> tuple[list[OperatorMatrix], int]:
    """The full cycle over t = 0..p-2 and the least period of a.

    The period is found by honest matrix comparison, not by the gcd
    formula, so the formula stays testable against this output.
    """
    p = branch.prime
    _require_odd_prime(p)
    if a.is_zero_matrix():
        raise DomainError("orbit of the zero operator is not defined")
    mats = [rho_prime_apply(branch, t, a) for t in range(p - 1)]
    period = p - 1
    for t in range(1, p):
        if matrices_agree(mats[t % (p - 1)], a):
            period = t
            break
    return mats, period
