"""The package surface: the public names it exports, and the entries that
take a prime refusing anything else quickly instead of hanging."""

import random
import re
import signal

from fractions import Fraction

import pytest

import padicosc
from padicosc.errors import DomainError
from padicosc.galois import fixed_generator
from padicosc.operators import as_matrix
from padicosc.padics import (PadicNumber, hensel_digits, n_minus, vp,
                             vp_factorial)
from padicosc.series import basis_vector
from padicosc.zeta import MazurMeasure, measure_value, total_mass

PUBLIC_NAMES = {
    "ConfigError", "DomainError", "InputFormatError", "PadicError",
    "PoleError", "PrecisionExhaustedError",
    "DEFAULT_PRECISION", "PadicNumber", "angle", "hensel_digits", "n_minus",
    "teichmuller", "unit_power", "vp", "vp_factorial",
    "MahlerSeries", "VanDerPutSeries", "basis_vector", "convert",
    "convert_back", "mahler_eval", "mahler_expand", "sup_norm",
    "sup_norm_exponent", "vdp_eval", "vdp_expand",
    "OperatorMatrix", "apply_lowering", "apply_raising", "as_matrix",
    "commutator_defect", "hamiltonian", "kernel_solve", "matrices_agree",
    "Branch", "GaloisElement", "GroundState", "fixed_generator", "orbit",
    "rho_apply", "rho_prime_apply", "t_of",
    "MazurMeasure", "ZetaBranchEval", "bernoulli", "default_regulator",
    "integrate_units", "measure_value", "total_mass", "zeta_interp",
    "zeta_measure",
}


def test_public_names_are_pinned():
    # __all__ is read off the package namespace: a new import shows here,
    # and no submodule or private helper is exported
    assert len(padicosc.__all__) == len(PUBLIC_NAMES) == 51
    assert set(padicosc.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from padicosc import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


# each call ran forever at p = 1 or -1 before the entries checked p: the
# loop in _split never ends when p divides every integer
HANGING = (
    lambda p: vp(12, p),
    lambda p: hensel_digits(1, p),
    lambda p: n_minus(1, p),
    lambda p: vp_factorial(3, p),
    lambda p: PadicNumber.from_int(1, p, 0),
    lambda p: PadicNumber.from_rational(4, 4, p, 4),
    lambda p: total_mass(4, p, 4),
    lambda p: measure_value(0, 3, 3, p, -1),
    lambda p: MazurMeasure.build(p, 4, 4, 2),
    lambda p: as_matrix("raising", 4, p, 8),
)


def _timeout(signum, frame):
    raise TimeoutError("no answer within the alarm")


@pytest.mark.parametrize("call", range(len(HANGING)))
def test_entries_refuse_a_non_prime_within_an_alarm(call):
    rng = random.Random(1800 + call)
    # 1 and -1 hung; 0, a negative prime and composites fail elsewhere;
    # 2.0 built a 2.0-adic number and True ran as 1
    ps = [1, -1, 2.0, True] + rng.sample([-3, 0, 4, 12, 25], 3)
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for p in ps:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                with pytest.raises(DomainError, match="^p must be an? "
                                   "(prime|integer), got %r$" % p):
                    HANGING[call](p)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# a float precision built float-unit numbers, <5-adic 3.0*5^0 + O(5^4.0)>,
# where from_rational raised a bare TypeError; None is refused too, save
# by fixed_generator, whose own default it is
PRECISION_ENTRIES = (
    lambda n: fixed_generator(5, n),
    lambda n: PadicNumber.one(5, n),
    lambda n: PadicNumber.from_int(3, 5, n),
    lambda n: PadicNumber.from_int(0, 5, n),
    lambda n: PadicNumber.from_rational(1, 3, 5, n),
    lambda n: PadicNumber.from_fraction(Fraction(1, 3), 5, n),
    lambda n: basis_vector(5, 1, 3, n),
    lambda n: as_matrix("raising", 3, 5, n),
)


@pytest.mark.parametrize("call", range(len(PRECISION_ENTRIES)))
def test_entries_refuse_a_non_int_precision(call):
    for n in (4.0, 2.5, True, "4") + ((None,) if call else ()):
        message = "^precision must be an integer, got %s$" % re.escape(repr(n))
        with pytest.raises(DomainError, match=message):
            PRECISION_ENTRIES[call](n)
