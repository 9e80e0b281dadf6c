"""Exact linear algebra over the rationals.

Sparse matrices with `fractions.Fraction` entries, the canonical reduced
row echelon form, kernels and images, and the subspace lattice (sum,
intersection, quotients with orthogonal-complement representatives).
Every "space of forms" and every "ker/im" quotient in the rest of the
package reduces to the operations in this module.

A `QMatrix` row is a dict {column: entry} holding only the nonzero
entries; operator blocks are under 1% nonzero at dimension 10, so every
product, sum and elimination visits stored entries only.  `rows` is a
read-only dense view, built on first access.

Subspaces are stored by their unique RREF basis, so subspace equality
is literal equality of matrices.  All values are immutable after
construction and all functions are pure; nothing here keeps shared
mutable state.

Canonical entries: every stored entry is a nonzero plain `Fraction`
(``type(x) is Fraction``), which CPython keeps in lowest terms with a
positive denominator.  Such a value is stored as is; anything else
(int, bool, str, a Fraction subclass) is converted once with
``Fraction(x)``.  The rule lives in `_exact`, which the exterior module
shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import AmbientMismatch, NotInSubspace, NotSubspace

__all__ = [
    "Rational",
    "Vector",
    "SparseRow",
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
SparseRow = dict[int, Fraction]  # column -> nonzero entry

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(x) -> Fraction:
    """*x* as a canonical Fraction; a plain Fraction already is one."""
    return x if type(x) is Fraction else Fraction(x)


def as_vector(values: Iterable) -> Vector:
    return tuple(map(_exact, values))


def _nonzero(vec: Vector) -> SparseRow:
    """The nonzero entries of a canonical dense vector."""
    return {j: x for j, x in enumerate(vec) if x}


def _add_multiple(target: SparseRow, f: Fraction, source: SparseRow) -> None:
    """target += f * source, in place, storing no zeros."""
    for c, x in source.items():
        v = target.get(c)
        if v is None:
            target[c] = f * x
        else:
            v += f * x
            if v:
                target[c] = v
            else:
                del target[c]


class QMatrix:
    """Immutable sparse matrix over the rationals (rows of nonzero entries)."""

    __slots__ = ("sparse_rows", "nrows", "ncols", "_dense")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        frozen = [as_vector(row) for row in rows]
        if frozen:
            width = len(frozen[0])
            if any(len(row) != width for row in frozen):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"expected {ncols} columns, got {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.sparse_rows: tuple[SparseRow, ...] = tuple(map(_nonzero, frozen))
        self.nrows: int = len(frozen)
        self.ncols: int = ncols
        self._dense = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_sparse(cls, rows: Iterable[SparseRow], ncols: int) -> QMatrix:
        """Matrix over rows that already hold only nonzero canonical entries.

        The rows are shared, not copied: no row dict is mutated once a
        matrix holds it.
        """
        m = cls.__new__(cls)
        m.sparse_rows = tuple(rows)
        m.nrows = len(m.sparse_rows)
        m.ncols = ncols
        m._dense = None
        return m

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls.from_sparse([{i: _ONE} for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> QMatrix:
        return cls.from_sparse([{} for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> QMatrix:
        cols = [as_vector(c) for c in columns]
        if cols:
            nrows = len(cols[0])
            if any(len(c) != nrows for c in cols):
                raise ValueError("ragged columns")
        elif nrows is None:
            nrows = 0
        rows: list[SparseRow] = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                if x:
                    rows[i][j] = x
        return cls.from_sparse(rows, len(cols))

    @classmethod
    def stacked(cls, blocks: Sequence[QMatrix]) -> QMatrix:
        """The blocks one above the other; they must share a column count."""
        ncols = blocks[0].ncols
        if any(b.ncols != ncols for b in blocks):
            raise ValueError("stacked blocks differ in column count")
        return cls.from_sparse([row for b in blocks for row in b.sparse_rows], ncols)

    # -- shape / access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> tuple[Vector, ...]:
        """Dense read-only view, built on first access."""
        if self._dense is None:
            blank = (_ZERO,) * self.ncols
            dense = []
            for row in self.sparse_rows:
                if row:
                    full = list(blank)
                    for j, x in row.items():
                        full[j] = x
                    dense.append(tuple(full))
                else:
                    dense.append(blank)
            self._dense = tuple(dense)
        return self._dense

    def column(self, j: int) -> Vector:
        return tuple(row.get(j, _ZERO) for row in self.sparse_rows)

    def columns(self) -> list[Vector]:
        return list(self.transpose().rows)

    def transpose(self) -> QMatrix:
        out: list[SparseRow] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return QMatrix.from_sparse(out, self.nrows)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: QMatrix) -> QMatrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        orows = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            acc: SparseRow = {}
            for k, x in arow.items():
                brow = orows[k]
                if brow:
                    _add_multiple(acc, x, brow)
            out.append(acc)
        return QMatrix.from_sparse(out, other.ncols)

    def apply_sparse(self, vec: Mapping[int, Fraction]) -> SparseRow:
        """Matrix times a column vector given by its nonzero entries."""
        out: SparseRow = {}
        for i, row in enumerate(self.sparse_rows):
            acc = _ZERO
            for j, x in row.items():
                y = vec.get(j)
                if y is not None:
                    acc += x * y
            if acc:
                out[i] = acc
        return out

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times column vector."""
        v = as_vector(vec)
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != {self.ncols} columns")
        out = self.apply_sparse(_nonzero(v))
        return tuple(out.get(i, _ZERO) for i in range(self.nrows))

    def __add__(self, other: QMatrix) -> QMatrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(ra)
            for c, x in rb.items():
                v = acc.get(c)
                if v is None:
                    acc[c] = x
                else:
                    v += x
                    if v:
                        acc[c] = v
                    else:
                        del acc[c]
            out.append(acc)
        return QMatrix.from_sparse(out, self.ncols)

    def __sub__(self, other: QMatrix) -> QMatrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(ra)
            for c, x in rb.items():
                v = acc.get(c)
                if v is None:
                    acc[c] = -x
                elif v == x:
                    del acc[c]
                else:
                    acc[c] = v - x
            out.append(acc)
        return QMatrix.from_sparse(out, self.ncols)

    def __neg__(self) -> QMatrix:
        return QMatrix.from_sparse(
            [{j: -x for j, x in row.items()} for row in self.sparse_rows], self.ncols
        )

    def scaled(self, factor) -> QMatrix:
        f = _exact(factor)
        if not f:
            return QMatrix.zeros(self.nrows, self.ncols)
        return QMatrix.from_sparse(
            [{j: f * x for j, x in row.items()} for row in self.sparse_rows], self.ncols
        )

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.shape == other.shape and self.sparse_rows == other.sparse_rows

    def __hash__(self) -> int:
        return hash(
            (self.nrows, self.ncols, tuple(frozenset(row.items()) for row in self.sparse_rows))
        )

    def __repr__(self) -> str:
        return f"QMatrix({[list(map(str, row)) for row in self.rows]})"


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Unique reduced row echelon form of *m*.

    Returns ``(reduced, pivot_columns, rank)``.  The reduced matrix has
    the same shape as the input (zero rows are kept at the bottom), unit
    pivots, and zeros above and below every pivot.

    Sparse Gauss-Jordan, one input row at a time: the rows found so far
    are kept fully reduced, each keyed by its pivot column, so a new row
    is cleared of every known pivot in one pass.  If anything is left,
    its first column is a new pivot, which is then cleared from the
    earlier rows.
    """
    found: dict[int, SparseRow] = {}
    for source in m.sparse_rows:
        if not source:
            continue
        row = dict(source)
        # Known pivot rows vanish on each other's pivots, so every
        # coefficient read here is still the input row's own.
        for p in [c for c in source if c in found]:
            _add_multiple(row, -source[p], found[p])
        if not row:
            continue
        pc = min(row)
        lead = row[pc]
        if lead != 1:
            row = {c: x / lead for c, x in row.items()}
        for prow in found.values():
            f = prow.get(pc)
            if f is not None:
                _add_multiple(prow, -f, row)
        found[pc] = row
        if len(found) == m.ncols:
            break  # full column rank: every later row reduces to zero
    pivots = tuple(sorted(found))
    rows = [found[p] for p in pivots]
    rows.extend({} for _ in range(m.nrows - len(pivots)))
    return QMatrix.from_sparse(rows, m.ncols), pivots, len(pivots)


def kernel(m: QMatrix) -> "Subspace":
    """Null space { v : m v = 0 } as a canonical subspace of Q^ncols."""
    reduced, pivots, rank = rref(m)
    pivot_set = set(pivots)
    vectors = {f: {f: _ONE} for f in range(m.ncols) if f not in pivot_set}
    for p, row in zip(pivots, reduced.sparse_rows):
        for c, x in row.items():
            if c != p:
                vectors[c][p] = -x
    return Subspace.from_sparse(m.ncols, vectors.values())


def image(m: QMatrix) -> "Subspace":
    """Column space of *m* as a canonical subspace of Q^nrows."""
    return Subspace.from_sparse(m.nrows, m.transpose().sparse_rows)


def solve(m: QMatrix, b: Sequence) -> Vector | None:
    """One solution of m x = b, or None when the system is inconsistent."""
    rhs = as_vector(b)
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    n = m.ncols
    augmented = [{**row, n: x} if x else row for row, x in zip(m.sparse_rows, rhs)]
    reduced, pivots, rank = rref(QMatrix.from_sparse(augmented, n + 1))
    if n in pivots:
        return None
    x = [_ZERO] * n
    for p, row in zip(pivots, reduced.sparse_rows):
        x[p] = row.get(n, _ZERO)
    return tuple(x)


def inverse(m: QMatrix) -> QMatrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    augmented = [{**row, n + i: _ONE} for i, row in enumerate(m.sparse_rows)]
    reduced, pivots, rank = rref(QMatrix.from_sparse(augmented, 2 * n))
    if rank < n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return QMatrix.from_sparse(
        [{c - n: x for c, x in row.items() if c >= n} for row in reduced.sparse_rows], n
    )


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
        rows = []
        for vec in vectors:
            v = as_vector(vec)
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vectors of length {len(v)} in ambient dimension {ambient_dim}"
                )
            rows.append(_nonzero(v))
        return cls.from_sparse(ambient_dim, rows)

    @classmethod
    def from_sparse(cls, ambient_dim: int, rows: Iterable[SparseRow]) -> Subspace:
        """Span of rows holding only nonzero canonical entries."""
        reduced, pivots, rank = rref(QMatrix.from_sparse(rows, ambient_dim))
        return cls(ambient_dim, QMatrix.from_sparse(reduced.sparse_rows[:rank], ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, QMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, QMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row: its first nonzero entry."""
        return tuple(min(row) for row in self.basis.sparse_rows)

    def reduce_sparse(self, vec: Mapping[int, Fraction]) -> SparseRow:
        """Remainder of a sparse vector after eliminating all basis pivots."""
        out = dict(vec)
        # RREF rows vanish on each other's pivots: one pass, any order.
        for p, row in zip(self.pivots, self.basis.sparse_rows):
            f = vec.get(p)
            if f is not None:
                _add_multiple(out, -f, row)
        return out

    def reduce(self, v: Sequence) -> Vector:
        """Remainder of *v* after eliminating all basis pivots."""
        vec = as_vector(v)
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch(
                f"vector length {len(vec)} != ambient {self.ambient_dim}"
            )
        out = self.reduce_sparse(_nonzero(vec))
        return tuple(out.get(j, _ZERO) for j in range(self.ambient_dim))

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: Subspace) -> bool:
        _check_ambient(self, other)
        return not any(self.reduce_sparse(row) for row in other.basis.sparse_rows)

    def vectors(self) -> tuple[Vector, ...]:
        return self.basis.rows


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.from_sparse(a.ambient_dim, a.basis.sparse_rows + b.basis.sparse_rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick on [[A A],[B 0]]."""
    _check_ambient(a, b)
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    block = [{**row, **{c + n: x for c, x in row.items()}} for row in a.basis.sparse_rows]
    block += b.basis.sparse_rows
    reduced, pivots, rank = rref(QMatrix.from_sparse(block, 2 * n))
    inter_rows = [
        {c - n: x for c, x in row.items()}
        for p, row in zip(pivots, reduced.sparse_rows)
        if p >= n
    ]
    return Subspace.from_sparse(n, inter_rows)


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
    complement: Subspace  # its basis rows are the representatives
    _solver: QMatrix | None  # x in v -> its representative coordinates

    @property
    def dim(self) -> int:
        return self.complement.dim

    @property
    def representatives(self) -> tuple[Vector, ...]:
        return self.complement.basis.rows

    def coordinates(self, x: Sequence) -> Vector:
        vec = as_vector(x)
        if len(vec) != self.total.ambient_dim:
            raise AmbientMismatch(
                f"vector length {len(vec)} != ambient {self.total.ambient_dim}"
            )
        return self.sparse_coordinates(_nonzero(vec))

    def sparse_coordinates(self, vec: Mapping[int, Fraction]) -> Vector:
        """`coordinates` of a vector given by its nonzero entries."""
        if self.total.reduce_sparse(vec):
            raise NotInSubspace("vector is not in the total space of the quotient")
        if self._solver is None:
            return ()
        out = self._solver.apply_sparse(vec)
        return tuple(out.get(i, _ZERO) for i in range(self.dim))


def quotient_structure(w: Subspace, v: Subspace) -> QuotientSpace:
    """Quotient structure for v / w (requires w <= v)."""
    _check_ambient(w, v)
    if not v.contains_subspace(w):
        raise NotSubspace("the denominator is not contained in the numerator")
    perp = kernel(w.basis) if w.dim else Subspace.full(w.ambient_dim)
    complement = subspace_intersect(v, perp)
    spanning = complement.basis.sparse_rows + w.basis.sparse_rows
    if spanning:
        mt = QMatrix.from_sparse(spanning, w.ambient_dim)
        split = inverse(mt @ mt.transpose())
        # Only the representative rows of the split are ever read.
        solver = QMatrix.from_sparse(split.sparse_rows[: complement.dim], split.ncols) @ mt
    else:
        solver = None
    return QuotientSpace(v, w, complement, solver)
