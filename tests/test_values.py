"""Value semantics of the frozen records: immutability, equality within
one class only, hashing, repr, pickling and copying."""

import copy
import pickle

import pytest

from padicosc.cli import RunConfig
from padicosc.galois import Branch
from padicosc.operators import as_matrix
from padicosc.padics import PadicNumber
from padicosc.series import MahlerSeries, VanDerPutSeries
from padicosc.zeta import ZetaBranchEval, zeta_measure


def _coeffs():
    return (PadicNumber.from_int(7, 5, 10), PadicNumber.zero(5),
            PadicNumber.zero(5, known_to=3))


# each factory builds a fresh value that equals every other it builds
FACTORIES = {
    "PadicNumber": lambda: PadicNumber.from_int(7, 5, 10),
    "MahlerSeries": lambda: MahlerSeries(5, _coeffs(), 4),
    "Branch": lambda: Branch(5, 2),
    "ZetaBranchEval": lambda: zeta_measure(-1, Branch(5, 2), level=3,
                                           precision=10),
    "OperatorMatrix": lambda: as_matrix("raising", 4, 5, 8),
    "RunConfig": lambda: RunConfig(p=7, regulator=3, output="text"),
}


@pytest.mark.parametrize("name", FACTORIES)
def test_fields_cannot_be_set_or_deleted(name):
    value = FACTORIES[name]()
    with pytest.raises(AttributeError):
        value.prime = 3
    with pytest.raises(AttributeError):
        del value.prime


@pytest.mark.parametrize("name", FACTORIES)
def test_equal_values_hash_equal(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", FACTORIES)
def test_pickle_and_copy_round_trip(name):
    value = FACTORIES[name]()
    for out in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                copy.deepcopy(value)):
        assert type(out) is type(value)
        assert out == value and hash(out) == hash(value)
        assert repr(out) == repr(value)


def test_padic_number_is_not_a_tuple():
    x = PadicNumber.from_int(7, 5, 10)
    assert x != (5, 0, 7, 10, None)
    assert (5, 0, 7, 10, None) != x
    assert x == PadicNumber(5, 0, 7, 10)
    with pytest.raises(TypeError):
        iter(x)
    with pytest.raises(TypeError):
        x < x


def test_equality_needs_the_same_class():
    assert MahlerSeries(5, _coeffs()) != VanDerPutSeries(5, _coeffs())
    assert MahlerSeries(5, _coeffs()) == MahlerSeries(5, list(_coeffs()))


def test_dataclass_style_repr():
    assert repr(Branch(5, 2)) == "Branch(prime=5, kappa0=2)"
    assert repr(RunConfig()) == (
        "RunConfig(p=5, precision=32, m=8, kappa0=0, level=5, "
        "regulator=None, output='json', seed=None)")
    assert repr(MahlerSeries(5, _coeffs()[:1])) == (
        "MahlerSeries(prime=5, coefficients=(<5-adic 7*5^0 + O(5^10)>,), "
        "tail_bound_exponent=None)")


def test_positional_and_keyword_construction_agree():
    ev = FACTORIES["ZetaBranchEval"]()
    fields = ("prime", "kappa0", "s", "regulator", "level", "value",
              "error_bound_exponent", "path")
    values = [getattr(ev, f) for f in fields]
    assert ZetaBranchEval(*values) == ev == ZetaBranchEval(**dict(zip(fields, values)))
    with pytest.raises(TypeError):
        ZetaBranchEval(*values[:-1])
    with pytest.raises(TypeError):
        Branch(5, 2, kappa0=2)
    with pytest.raises(TypeError):
        Branch(5, kappa=2)
