"""Value helpers that only the tests need: a Mahler basis value, the norm
bound of a p-adic number, the consistency of a Galois element, and the
writer of a samples file."""

from collections.abc import Sequence

from padicosc.galois import GaloisElement, fixed_generator
from padicosc.padics import PadicNumber, teichmuller
from padicosc.serialization import _SAMPLES_TOKEN, dumps, padic_to_dict
from padicosc.series import _basis_values


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


def norm_bound_exponent(x: PadicNumber) -> int | None:
    """e with |x|_p <= p**(-e); None means |x|_p = 0."""
    if x.is_exact_zero:
        return None
    return x.valuation


def consistent(element: GaloisElement) -> bool:
    """w(alpha) = generator^t at the element's working precision."""
    zeta = fixed_generator(element.prime, element.alpha.precision)
    return (teichmuller(element.alpha) - zeta**element.t).is_zero


def format_samples_file(values: Sequence[PadicNumber], p: int) -> str:
    lines = [dumps({"basis": _SAMPLES_TOKEN, "p": p, "M": len(values)})]
    lines.extend(dumps(padic_to_dict(v)) for v in values)
    return "\n".join(lines) + "\n"
