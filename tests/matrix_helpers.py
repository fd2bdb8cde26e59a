"""Matrix helpers that only the tests need: the identity and the sum."""

from padicosc.operators import OperatorMatrix, _check_compatible
from padicosc.padics import PadicNumber


def identity_matrix(p: int, dimension: int, precision: int) -> OperatorMatrix:
    entries = {(n, n): PadicNumber.from_int(1, p, precision)
               for n in range(dimension)}
    return OperatorMatrix.from_dict(p, dimension, entries, precision)


def mat_add(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    _check_compatible(a, b)
    out = dict(a.to_dict())
    for pos, v in b.to_dict().items():
        out[pos] = out[pos] + v if pos in out else v
    return OperatorMatrix.from_dict(a.prime, a.dimension, out,
                                    min(a.precision, b.precision))
