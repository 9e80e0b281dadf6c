"""Exact linear algebra over the rationals.

Dense matrices with `fractions.Fraction` entries, the canonical reduced
row echelon form, kernels and images, and the subspace lattice (sum,
intersection, quotients with orthogonal-complement representatives).
Every "space of forms" and every "ker/im" quotient in the rest of the
package reduces to the operations in this module.

Subspaces are stored by their unique RREF basis, so subspace equality
is literal equality of matrices.  All values are immutable after
construction and all functions are pure; nothing here keeps shared
mutable state.

Canonical entries: every stored entry is a plain `Fraction` (``type(x)
is Fraction``), which CPython keeps in lowest terms with a positive
denominator.  Such a value is stored as is; anything else (int, bool,
str, a Fraction subclass) is converted once with ``Fraction(x)``.  The
rule lives in `_exact`, which the exterior module shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import AmbientMismatch, NotInSubspace, NotSubspace

__all__ = [
    "Rational",
    "Vector",
    "QMatrix",
    "Subspace",
    "QuotientSpace",
    "rref",
    "kernel",
    "image",
    "solve",
    "inverse",
    "det",
    "subspace_sum",
    "subspace_intersect",
    "quotient_structure",
    "as_vector",
]

Rational = Fraction
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(x) -> Fraction:
    """*x* as a canonical Fraction; a plain Fraction already is one."""
    return x if type(x) is Fraction else Fraction(x)


def as_vector(values: Iterable) -> Vector:
    return tuple(map(_exact, values))


class QMatrix:
    """Immutable dense matrix over the rationals (rows of Fractions)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        frozen = tuple(tuple(map(_exact, row)) for row in rows)
        if frozen:
            width = len(frozen[0])
            if any(len(row) != width for row in frozen):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"expected {ncols} columns, got {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows: tuple[Vector, ...] = frozen
        self.nrows: int = len(frozen)
        self.ncols: int = ncols

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n
        )

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> QMatrix:
        return cls([[_ZERO] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> QMatrix:
        cols = [as_vector(c) for c in columns]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls([[c[i] for c in cols] for i in range(nrows)], len(cols))

    # -- shape / access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> QMatrix:
        return QMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: QMatrix) -> QMatrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = [[_ZERO] * other.ncols for _ in range(self.nrows)]
        orows = other.rows
        for i, arow in enumerate(self.rows):
            acc = out[i]
            for k, x in enumerate(arow):
                if x:
                    brow = orows[k]
                    for j, y in enumerate(brow):
                        if y:
                            acc[j] += x * y
        return QMatrix(out, other.ncols)

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times column vector."""
        v = as_vector(vec)
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != {self.ncols} columns")
        out = []
        for row in self.rows:
            acc = _ZERO
            for x, y in zip(row, v):
                if x and y:
                    acc += x * y
            out.append(acc)
        return tuple(out)

    def __add__(self, other: QMatrix) -> QMatrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        # Operator blocks are sparse: a zero summand leaves the other cell as is.
        return QMatrix(
            [[(a + b if a else b) if b else a for a, b in zip(ra, rb)]
             for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: QMatrix) -> QMatrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return QMatrix(
            [[(a - b if a else -b) if b else a for a, b in zip(ra, rb)]
             for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> QMatrix:
        return QMatrix([[-x if x else x for x in row] for row in self.rows], self.ncols)

    def scaled(self, factor) -> QMatrix:
        f = _exact(factor)
        return QMatrix([[f * x if x else x for x in row] for row in self.rows], self.ncols)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"QMatrix({[list(map(str, row)) for row in self.rows]})"


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Unique reduced row echelon form of *m*.

    Returns ``(reduced, pivot_columns, rank)``.  The reduced matrix has
    the same shape as the input (zero rows are kept in place at the
    bottom), unit pivots, and zeros above and below every pivot.
    """
    work = [list(row) for row in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if work[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        lead = work[pr][pc]
        if lead != 1:
            row = work[pr]
            for c in range(pc, ncols):
                if row[c]:
                    row[c] /= lead
        prow = work[pr]
        for r in range(nrows):
            if r != pr and work[r][pc]:
                f = work[r][pc]
                row = work[r]
                for c in range(pc, ncols):
                    if prow[c]:
                        row[c] -= f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return QMatrix(work, ncols), tuple(pivots), len(pivots)


def kernel(m: QMatrix) -> "Subspace":
    """Null space { v : m v = 0 } as a canonical subspace of Q^ncols."""
    reduced, pivots, rank = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [_ZERO] * m.ncols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced.rows[i][f]
        vectors.append(v)
    return Subspace.from_vectors(m.ncols, vectors)


def image(m: QMatrix) -> "Subspace":
    """Column space of *m* as a canonical subspace of Q^nrows."""
    return Subspace.from_vectors(m.nrows, m.columns())


def solve(m: QMatrix, b: Sequence) -> Vector | None:
    """One solution of m x = b, or None when the system is inconsistent."""
    rhs = as_vector(b)
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    augmented = QMatrix(
        [list(row) + [rhs[i]] for i, row in enumerate(m.rows)], m.ncols + 1
    )
    reduced, pivots, rank = rref(augmented)
    if m.ncols in pivots:
        return None
    x = [_ZERO] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = reduced.rows[i][m.ncols]
    return tuple(x)


def inverse(m: QMatrix) -> QMatrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    eye = QMatrix.identity(n)
    augmented = QMatrix(
        [list(row) + list(eye.rows[i]) for i, row in enumerate(m.rows)], 2 * n
    )
    reduced, pivots, rank = rref(augmented)
    if rank < n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return QMatrix([row[n:] for row in reduced.rows], n)


def det(m: QMatrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return _det_rows([list(row) for row in m.rows])


def _det_rows(work: list[list[Fraction]]) -> Fraction:
    n = len(work)
    sign = 1
    result = _ONE
    for c in range(n):
        pivot_row = None
        for r in range(c, n):
            if work[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            return _ZERO
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        lead = work[c][c]
        result *= lead
        for r in range(c + 1, n):
            f = work[r][c]
            if f:
                f /= lead
                row = work[r]
                crow = work[c]
                for j in range(c, n):
                    if crow[j]:
                        row[j] -= f * crow[j]
    return result if sign > 0 else -result


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient_dim in canonical RREF basis form.

    Two subspaces are equal exactly when their bases are identical;
    `from_vectors` canonicalizes any generating set.
    """

    ambient_dim: int
    basis: QMatrix  # rows = basis vectors, in RREF, no zero rows

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
        m = QMatrix(vectors, ncols=ambient_dim)
        if m.ncols != ambient_dim:
            raise AmbientMismatch(
                f"vectors of length {m.ncols} in ambient dimension {ambient_dim}"
            )
        reduced, pivots, rank = rref(m)
        return cls(ambient_dim, QMatrix(reduced.rows[:rank], ncols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, QMatrix([], ncols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, QMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def reduce(self, v: Sequence) -> Vector:
        """Remainder of *v* after eliminating all basis pivots."""
        vec = list(as_vector(v))
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch(
                f"vector length {len(vec)} != ambient {self.ambient_dim}"
            )
        for row in self.basis.rows:
            pivot = next(i for i, x in enumerate(row) if x)
            f = vec[pivot]
            if f:
                for i, x in enumerate(row):
                    if x:
                        vec[i] -= f * x
        return tuple(vec)

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(row) for row in other.basis.rows)

    def vectors(self) -> tuple[Vector, ...]:
        return self.basis.rows


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.from_vectors(a.ambient_dim, chain(a.basis.rows, b.basis.rows))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick on [[A A],[B 0]]."""
    _check_ambient(a, b)
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    block = [list(row) + list(row) for row in a.basis.rows]
    block += [list(row) + [_ZERO] * n for row in b.basis.rows]
    reduced, pivots, rank = rref(QMatrix(block, 2 * n))
    inter_rows = [
        row[n:]
        for row in reduced.rows[:rank]
        if all(x == 0 for x in row[:n])
    ]
    return Subspace.from_vectors(n, inter_rows)


@dataclass(frozen=True)
class QuotientSpace:
    """Quotient v / w with orthogonal-complement representatives.

    Representatives are the canonical basis of v intersected with the
    orthogonal complement of w under the standard dot product on
    coefficient vectors; `coordinates` writes any x in v as
    (representative part, w part) and returns the representative
    coordinates, which vanish exactly when x lies in w.
    """

    total: Subspace
    sub: Subspace
    representatives: tuple[Vector, ...]
    _solver: QMatrix | None

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, x: Sequence) -> Vector:
        vec = as_vector(x)
        if not self.total.contains(vec):
            raise NotInSubspace("vector is not in the total space of the quotient")
        if self._solver is None:
            return ()
        return self._solver.apply(vec)[: self.dim]


def quotient_structure(w: Subspace, v: Subspace) -> QuotientSpace:
    """Quotient structure for v / w (requires w <= v)."""
    _check_ambient(w, v)
    if not v.contains_subspace(w):
        raise NotSubspace("the denominator is not contained in the numerator")
    perp = kernel(w.basis) if w.dim else Subspace.full(w.ambient_dim)
    complement = subspace_intersect(v, perp)
    reps = complement.basis.rows
    columns = list(reps) + list(w.basis.rows)
    if columns:
        m = QMatrix(columns, ncols=w.ambient_dim).transpose()
        gram = m.transpose() @ m
        solver = inverse(gram) @ m.transpose()
    else:
        solver = None
    return QuotientSpace(v, w, reps, solver)
