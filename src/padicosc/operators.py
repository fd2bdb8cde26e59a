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

The rule maps the series' canonical rows (see series) to canonical
rows, so apply_* and commutator_defect build no PadicNumber until a
caller reads the coefficients; commutator_defect composes rules on rows
and sums each index's rows with one _row_sum.

The matrix form (as_matrix) is the rule restricted to the window, for
kernel_solve, the cyclic orbit and serialization.  It has no tail, so
it neither applies nor composes: either would certify zeros that the
window cannot see.  Every matrix built here is a weighted shift, with
at most one entry per row and per column, and the cyclic action only
scales it; kernel_solve reads the kernel off the columns and raises
DomainError for any other matrix.
"""

from __future__ import annotations

from .errors import DomainError, PrecisionExhaustedError
from .padics import PadicNumber, _Frozen, _require_prime, _row_sum, _split
from .series import MahlerSeries, _min_exponent, _negated, basis_vector

# operator name -> (shift, weight): P_n goes to weight(n) P_{n+shift}
RULES = {
    "raising": (1, lambda n: n + 1),
    "lowering": (-1, lambda n: 1),
    "hamiltonian": (0, lambda n: n),
}
OPERATOR_NAMES = tuple(RULES)


def _rule_rows(op: str, p: int, rows, tail):
    """The named operator's rule on rows and tail bound.  A weight
    u p**k sends (v, c, N) to (v + k, c u mod p**(N - v), N + k), still
    canonical; a row pushed past index M-1 enters the tail bound at its
    valuation."""
    shift, weight = RULES[op]
    m = len(rows)
    out = [None] * m
    if shift < 0 and tail is not None:
        # pulled from index M: c_M is known only through the tail
        out[m + shift:] = [(tail, 0, tail)] * -shift
    new_tail = tail
    for n, row in enumerate(rows):
        w = 1 if row is None else weight(n)
        if w == 0:
            row = None
        elif w != 1:
            k, u = _split(w, p)
            row = (row[0] + k, row[1] * u % p ** (row[2] - row[0]), row[2] + k)
        i = n + shift
        if 0 <= i < m:
            out[i] = row
        elif i >= m and row is not None:
            new_tail = _min_exponent(new_tail, row[0])
    return out, new_tail


def _apply_rule(op: str, f: MahlerSeries) -> MahlerSeries:
    """The series form of the named operator's rule."""
    return MahlerSeries._from_rows(
        f.prime, *_rule_rows(op, f.prime, f._rows, f.tail_bound_exponent))


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
    """(a- a+ - a+ a- - 1) f, which vanishes on indices below M-1.
    Both products compose RULES on rows; a+ a- acts on -f."""
    p, rows, tail = f.prime, f._rows, f.tail_bound_exponent
    minus = [_negated(r) for r in rows]
    up_down, t1 = _rule_rows("lowering", p,
                             *_rule_rows("raising", p, rows, tail))
    down_up, t2 = _rule_rows("raising", p,
                             *_rule_rows("lowering", p, minus, tail))
    return MahlerSeries._from_rows(
        p, [_row_sum(p, filter(None, terms))
            for terms in zip(up_down, down_up, minus)],
        _min_exponent(t1, t2, tail))


# -- matrix form -------------------------------------------------------


class OperatorMatrix(_Frozen):
    """Sparse M x M matrix over Q_p on the Mahler coefficient window.

    entries holds (row, col, value) triplets sorted by position, without
    explicit zeros; precision records the minimum relative precision
    among the stored entries.
    """

    __slots__ = ("prime", "dimension", "entries", "precision")

    @classmethod
    def from_dict(cls, p: int, dimension: int,
                  entries: dict[tuple[int, int], PadicNumber],
                  default_precision: int) -> "OperatorMatrix":
        kept = {pos: v for pos, v in entries.items() if not v.is_exact_zero}
        precisions = [v.precision for v in kept.values() if not v.is_zero]
        prec = min(precisions) if precisions else default_precision
        triplets = tuple((i, j, v) for (i, j), v in sorted(kept.items()))
        return cls(prime=p, dimension=dimension, entries=triplets, precision=prec)

    def to_dict(self) -> dict[tuple[int, int], PadicNumber]:
        return {(i, j): v for i, j, v in self.entries}

    def is_zero_matrix(self) -> bool:
        return all(v.is_zero for _, _, v in self.entries)


def as_matrix(op: str, dimension: int, p: int,
              precision: int) -> OperatorMatrix:
    """The named operator's rule restricted to the M x M window."""
    if op not in RULES:
        raise DomainError("unknown operator %r" % op)
    if dimension < 1:
        raise DomainError("matrix dimension M = %d, need M >= 1" % dimension)
    _require_prime(p)
    shift, weight = RULES[op]
    entries = {(n + shift, n): PadicNumber.from_int(weight(n), p, precision)
               for n in range(dimension) if 0 <= n + shift < dimension}
    return OperatorMatrix.from_dict(p, dimension, entries, precision)


def mat_scale(scalar, a: OperatorMatrix) -> OperatorMatrix:
    out = {pos: scalar * v for pos, v in a.to_dict().items()}
    return OperatorMatrix.from_dict(a.prime, a.dimension, out, a.precision)


def matrices_agree(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    if a.prime != b.prime or a.dimension != b.dimension:
        raise DomainError("matrix shape or prime mismatch")
    da, db = a.to_dict(), b.to_dict()
    zero = PadicNumber.zero(a.prime)
    for pos in set(da) | set(db):
        if not (da.get(pos, zero) - db.get(pos, zero)).is_zero:
            return False
    return True


def kernel_solve(a: OperatorMatrix) -> list[MahlerSeries]:
    """Basis of the null space of a weighted shift over Q_p.

    a holds at most one entry per row and per column, as as_matrix and
    rho' build, so the kernel is spanned by the P_j whose column j holds
    no entry or a zero entry.  Any other matrix raises DomainError
    naming the first entry, in row-major order, that is a second one in
    its row or column.  A zero marker with no vanishing digits makes the
    rank undecidable.

    The kernel is that of the truncated matrix: for raising it is P_{M-1}
    only because the window drops the top column's image; a+ is injective.
    """
    rows, cols, nonzero = set(), set(), set()
    for i, j, v in a.entries:
        if i in rows or j in cols:
            raise DomainError(
                "kernel_solve needs a weighted shift: entry (%d, %d) is a "
                "second one in its row or column" % (i, j))
        rows.add(i)
        cols.add(j)
        if not v.is_zero:
            nonzero.add(j)
        elif not v.is_exact_zero and v.known_to <= 0:
            raise PrecisionExhaustedError(
                "rank undecidable: entry (%d, %d) has no known digits"
                % (i, j))
    return [basis_vector(a.prime, j, a.dimension, a.precision)
            for j in range(a.dimension) if j not in nonzero]
