"""Seeded random inputs for property-style commands and tests.

Everything here draws from a caller-supplied random.Random so a fixed
seed reproduces the exact same objects, byte for byte after
serialization.
"""

from __future__ import annotations

import random

from .padics import PadicNumber
from .series import MahlerSeries


def random_padic(rng: random.Random, p: int, precision: int,
                 min_valuation: int = 0, max_valuation: int = 2,
                 zero_weight: float = 0.1) -> PadicNumber:
    """A random element with unit part uniform mod p**precision.

    zero_weight is the chance of an exact zero; keeps samplers honest
    about sparse vectors.
    """
    if rng.random() < zero_weight:
        return PadicNumber.zero(p)
    v = rng.randrange(min_valuation, max_valuation + 1)
    u = rng.randrange(1, p**precision)
    while u % p == 0:
        u = rng.randrange(1, p**precision)
    return PadicNumber(prime=p, valuation=v, unit=u, precision=precision)


def random_unit(rng: random.Random, p: int, precision: int) -> PadicNumber:
    return random_padic(rng, p, precision,
                        min_valuation=0, max_valuation=0, zero_weight=0.0)


def random_mahler_series(rng: random.Random, p: int, truncation: int,
                         precision: int) -> MahlerSeries:
    coeffs = tuple(random_padic(rng, p, precision)
                   for _ in range(truncation))
    return MahlerSeries(prime=p, coefficients=coeffs)
