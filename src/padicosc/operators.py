"""Creation/annihilation operators on truncated Mahler coefficients.

Each operator is one (shift, weight) rule: it sends P_n to weight(n)
P_{n+shift}.  Raising is (+1, n+1), lowering (-1, 1), killing P_0, and
H = a+ a- is (0, n).  Only the series form (apply_*) applies or
composes operators.  On a truncation window of length M it loses
nothing silently: a coefficient pushed past index M-1 is folded into
the tail bound, and a slot pulled from index M comes back as a zero
marker at the tail exponent.  The commutation identity [a-, a+] = 1
therefore holds on indices 0..M-2 by contract, with index M-1 a
truncation artifact.

The matrix form (as_matrix) is the rule restricted to the window, for
kernel_solve, the cyclic orbit and serialization.  It has no tail, so
it neither applies nor composes: either would certify zeros that the
window cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import DomainError, PrecisionExhaustedError
from .padics import PadicNumber, vp
from .series import MahlerSeries, _min_exponent

# operator name -> (shift, weight): P_n goes to weight(n) P_{n+shift}
RULES = {
    "raising": (1, lambda n: n + 1),
    "lowering": (-1, lambda n: 1),
    "hamiltonian": (0, lambda n: n),
}
OPERATOR_NAMES = tuple(RULES)


def _apply_rule(op: str, f: MahlerSeries) -> MahlerSeries:
    """The series form of the named operator's (shift, weight) rule."""
    shift, weight = RULES[op]
    p = f.prime
    m = f.truncation
    coeffs = []
    for i in range(m):
        n = i - shift
        if n < 0:
            coeffs.append(PadicNumber.zero(p))
        elif n >= m:
            # pulled from index M: c_M is known only through the tail
            coeffs.append(PadicNumber.zero(p, known_to=f.tail_bound_exponent))
        else:
            w = weight(n)
            c = f.coefficients[n]
            coeffs.append(c if w == 1 else c * w)
    tail = f.tail_bound_exponent
    for n in range(m - shift, m):     # pushed past index M-1
        spill = f.coefficients[n].norm_bound_exponent()
        if spill is not None:
            spill += vp(weight(n), p)
        tail = _min_exponent(tail, spill)
    return MahlerSeries(prime=p, coefficients=tuple(coeffs),
                        tail_bound_exponent=tail)


def apply_raising(f: MahlerSeries) -> MahlerSeries:
    """(a+ f)(x) = x f(x-1)."""
    return _apply_rule("raising", f)


def apply_lowering(f: MahlerSeries) -> MahlerSeries:
    """(a- f)(x) = f(x+1) - f(x)."""
    return _apply_rule("lowering", f)


def hamiltonian(f: MahlerSeries) -> MahlerSeries:
    """H = a+ a-, diagonal with eigenvalue n on P_n."""
    return _apply_rule("hamiltonian", f)


def commutator_defect(f: MahlerSeries) -> MahlerSeries:
    """(a- a+ - a+ a- - 1) f, which vanishes on indices below M-1."""
    return apply_lowering(apply_raising(f)) - apply_raising(apply_lowering(f)) - f


# -- matrix form -------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse M x M matrix over Q_p on the Mahler coefficient window.

    entries holds (row, col, value) triplets sorted by position, without
    explicit zeros; precision records the minimum relative precision
    among the stored entries.
    """

    prime: int
    dimension: int
    entries: tuple
    precision: int

    @classmethod
    def from_dict(cls, p: int, dimension: int,
                  entries: Dict[Tuple[int, int], PadicNumber],
                  default_precision: int) -> "OperatorMatrix":
        kept = {pos: v for pos, v in entries.items() if not v.is_exact_zero}
        precisions = [v.precision for v in kept.values() if not v.is_zero]
        prec = min(precisions) if precisions else default_precision
        triplets = tuple((i, j, v) for (i, j), v in sorted(kept.items()))
        return cls(prime=p, dimension=dimension, entries=triplets, precision=prec)

    def to_dict(self) -> Dict[Tuple[int, int], PadicNumber]:
        return {(i, j): v for i, j, v in self.entries}

    def is_zero_matrix(self) -> bool:
        return all(v.is_zero for _, _, v in self.entries)


def as_matrix(op: str, dimension: int, p: int,
              precision: int) -> OperatorMatrix:
    """The named operator's rule restricted to the M x M window."""
    if op not in RULES:
        raise DomainError("unknown operator %r" % op)
    shift, weight = RULES[op]
    entries = {(n + shift, n): PadicNumber.from_int(weight(n), p, precision)
               for n in range(dimension) if 0 <= n + shift < dimension}
    return OperatorMatrix.from_dict(p, dimension, entries, precision)


def identity_matrix(p: int, dimension: int, precision: int) -> OperatorMatrix:
    entries = {(n, n): PadicNumber.from_int(1, p, precision)
               for n in range(dimension)}
    return OperatorMatrix.from_dict(p, dimension, entries, precision)


def _check_compatible(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.prime != b.prime or a.dimension != b.dimension:
        raise DomainError("matrix shape or prime mismatch")


def mat_add(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    _check_compatible(a, b)
    out = dict(a.to_dict())
    for pos, v in b.to_dict().items():
        out[pos] = out[pos] + v if pos in out else v
    return OperatorMatrix.from_dict(a.prime, a.dimension, out,
                                    min(a.precision, b.precision))


def mat_scale(scalar, a: OperatorMatrix) -> OperatorMatrix:
    out = {pos: scalar * v for pos, v in a.to_dict().items()}
    return OperatorMatrix.from_dict(a.prime, a.dimension, out, a.precision)


def matrices_agree(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    _check_compatible(a, b)
    da, db = a.to_dict(), b.to_dict()
    zero = PadicNumber.zero(a.prime)
    for pos in set(da) | set(db):
        if not (da.get(pos, zero) - db.get(pos, zero)).is_zero:
            return False
    return True


def kernel_solve(a: OperatorMatrix) -> List[MahlerSeries]:
    """Basis of the null space by Gauss-Jordan elimination over Q_p.

    Pivots are chosen with maximal p-adic absolute value (smallest
    valuation), ties broken by lowest row index; unit pivots lose no
    precision.  An entry about which nothing is known (a zero marker
    with no vanishing digits) makes the rank undecidable.

    The kernel is that of the truncated matrix.  For raising it is
    spanned by P_{M-1} only because the window drops the image of the
    top column; a+ itself is injective.
    """
    p = a.prime
    m = a.dimension
    zero = PadicNumber.zero(p)
    rows = [[zero] * m for _ in range(m)]
    for i, j, v in a.entries:
        rows[i][j] = v
    pivot_of_col: Dict[int, int] = {}
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
