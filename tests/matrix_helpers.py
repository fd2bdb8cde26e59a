"""Matrix helpers that only the tests need: the identity, the sum, and
the general Gauss-Jordan kernel that checks the weighted-shift solver."""

from padicosc.errors import DomainError, PrecisionExhaustedError
from padicosc.operators import OperatorMatrix
from padicosc.padics import PadicNumber
from padicosc.series import MahlerSeries


def identity_matrix(p: int, dimension: int, precision: int) -> OperatorMatrix:
    entries = {(n, n): PadicNumber.from_int(1, p, precision)
               for n in range(dimension)}
    return OperatorMatrix.from_dict(p, dimension, entries, precision)


def mat_add(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    if a.prime != b.prime or a.dimension != b.dimension:
        raise DomainError("matrix shape or prime mismatch")
    out = dict(a.to_dict())
    for pos, v in b.to_dict().items():
        out[pos] = out[pos] + v if pos in out else v
    return OperatorMatrix.from_dict(a.prime, a.dimension, out,
                                    min(a.precision, b.precision))


def gauss_jordan_kernel(a: OperatorMatrix) -> list[MahlerSeries]:
    """Basis of the null space by Gauss-Jordan elimination over Q_p.

    Pivots are chosen with maximal p-adic absolute value (smallest
    valuation), ties broken by lowest row index; unit pivots lose no
    precision.  An entry about which nothing is known (a zero marker
    with no vanishing digits) makes the rank undecidable.
    """
    p = a.prime
    m = a.dimension
    zero = PadicNumber.zero(p)
    rows = [[zero] * m for _ in range(m)]
    for i, j, v in a.entries:
        rows[i][j] = v
    pivot_of_col: dict[int, int] = {}
    used = set()
    for col in range(m):
        best = None
        for r in range(m):
            if r in used:
                continue
            e = rows[r][col]
            if e.is_zero:
                if not e.is_exact_zero and e.known_to <= 0:
                    raise PrecisionExhaustedError(
                        "rank undecidable: entry (%d, %d) has no known digits"
                        % (r, col))
                continue
            if best is None or e.valuation < rows[best][col].valuation:
                best = r
        if best is None:
            continue
        used.add(best)
        pivot_of_col[col] = best
        pivot = rows[best][col]
        for r in range(m):
            if r == best:
                continue
            e = rows[r][col]
            if e.is_zero:
                continue
            factor = e / pivot
            for j in range(m):
                pv = rows[best][j]
                if pv.is_exact_zero:
                    continue
                rows[r][j] = rows[r][j] - factor * pv
    basis = []
    for free in range(m):
        if free in pivot_of_col:
            continue
        vec = [PadicNumber.zero(p) for _ in range(m)]
        vec[free] = PadicNumber.from_int(1, p, a.precision)
        for col, r in pivot_of_col.items():
            e = rows[r][free]
            if not e.is_zero:
                vec[col] = -(e / rows[r][col])
        basis.append(MahlerSeries(prime=p, coefficients=tuple(vec)))
    return basis
