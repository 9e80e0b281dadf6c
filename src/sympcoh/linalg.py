"""Exact linear algebra over the rationals.

Sparse matrices over Q, the canonical reduced row echelon form, kernels
and images, and the subspace lattice (sum, intersection, quotients with
orthogonal-complement representatives).  Every "space of forms" and
every "ker/im" quotient in the rest of the package reduces to the
operations in this module.

A `QMatrix` holds one form of its entries: sparse integer rows
``(numerators, den)``, each a dict {column: nonzero int} over one
denominator, ``den > 0``, ``gcd(den, *numerators) == 1``, and ``({}, 1)``
for the empty row (operator blocks are under 1% nonzero at dimension
10).  `QMatrix(rows)` and `from_sparse` convert their input once and
keep none of the caller's rows; `from_ints` takes over integer rows as
they are.  Fractions appear only as output: `sparse_rows` ({column:
Fraction}) and the dense `rows` are read-only views built on first use,
and vector results are built from integer rows.

Each operation has one integer kernel.  `combination` sums c * (A @ B)
and c * A terms row by row over the lcm of the terms' denominators, so a
block equation such as d L - L d = 0 builds no intermediate matrix; `+`
and `-` are its two-term cases.  `@` has its own loop, picked by the term
count: one product needs no per-row lcm, and a corpus op makes about 128
of them against 20 sums.  `rref` is the one elimination, and `_eliminate`
its one row-clearing step; a square block is invertible exactly when its
rank is full.  A vector is a one-column
block, which `QMatrix.apply_sparse` multiplies by.  `Subspace._remainder`
is the one reduction against a basis, behind `reduce`, `contains`,
`contains_subspace` and the membership check of `QuotientSpace.class_rows`,
which takes the class coordinates of every row of a block as one product
with the cached solver S^T, or over w = 0 reads them at v's pivots.

`rref` returns one row per pivot, and a `Subspace` is just its unique
RREF basis (the ambient dimension is its column count), so subspace
equality is literal equality of matrices.  Each comes out of one
elimination: `Subspace.spanned` keeps an `rref` output as it is, `kernel`
reads the free vectors of one last-column-pivot `rref` of its own block
in place, and the quotient complement and
`subspace_intersect` read theirs off a kernel or a Zassenhaus block.
All values are immutable after construction, apart from data their
owner derives on first use (a quotient's complement and solver), and all
functions are pure; nothing here keeps shared mutable state.

Degenerate inputs (a zero quotient over w != 0, a meet with the zero
space) take the general path.  A fast path stays where replaying the
inputs of one corpus and one verify6 cycle showed it paying, in ms per
op: `class_rows` over w = 0 reads v's pivots instead of building and
applying S^T (0.19-0.35 vs 0.35-0.62, 0.38-0.72 vs 0.80-1.49), a
numerator of all of Q^N skips the membership checks of `class_rows` and
`contains_subspace` (0.01 vs 0.20-0.36, 0.01-0.02 vs 0.33-0.62), `kernel`
and `image` of a zero block (0.09-0.15 vs 0.32-0.57, 0.02-0.04 vs
0.07-0.14), `QuotientSpace.complement` with w = 0 (0.01 vs 0.19-0.29),
`transpose` of integer rows without `from_ints` (0.40-0.86 vs 0.61-1.30)
and `from_ints` on an empty row (7% on verify6).  Integer rows skip a
rescaling pass that cannot change them: `kernel` wraps free vectors over
denominator 1 without `from_ints` (0.58-0.62 vs 0.66-0.71 on corpus,
1.80-1.91 vs 1.84-2.01 on verify6), and `Subspace._remainder` copies a
vector when the hit rows' lcm is 1 (0.24-0.25 vs 0.28-0.29, 0.44 vs
0.50).  `@` skips a row with no
terms, and `rref` takes a one-entry row that meets no pivot as a unit row:
13% and 15% of their time on one corpus cycle's inputs.  `Subspace._remainder`
walks the shorter of the vector and the pivots, as one order slowed the
nil12 and generic nil10 reports.  `rref` has no full-rank exit: on the
inputs of a nil10 report, a nil12 report and the seed-0 dim-10 verify it
took 39.7, 349 and 1201 ms with one, 39.6, 349 and 1205 ms without.

Canonical entries: input values go through `_exact`, which the exterior
module shares.  A plain `Fraction` (``type(x) is Fraction``) already is
canonical, since CPython keeps it in lowest terms with a positive
denominator; anything else (int, bool, str, a Fraction subclass) is
converted once with ``Fraction(x)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from ._value import Frozen
from .errors import AmbientMismatch, NotInSubspace, NotSubspace

__all__ = [
    "Rational",
    "Vector",
    "SparseRow",
    "IntRow",
    "QMatrix",
    "Subspace",
    "QuotientSpace",
    "combination",
    "rref",
    "kernel",
    "image",
    "solve",
    "inverse",
    "subspace_sum",
    "subspace_intersect",
    "image_meet_kernel",
    "quotient_structure",
    "as_vector",
]

Rational = Fraction
Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]  # column -> nonzero entry
IntRow = tuple[dict[int, int], int]  # (column -> nonzero numerator, denominator)

_ZERO = Fraction(0)


def _exact(x) -> Fraction:
    """*x* as a canonical Fraction; a plain Fraction already is one."""
    return x if type(x) is Fraction else Fraction(x)


def as_vector(values: Iterable) -> Vector:
    return tuple(map(_exact, values))


def _nonzero(vec: Vector) -> SparseRow:
    """The nonzero entries of a canonical dense vector."""
    return {j: x for j, x in enumerate(vec) if x}


def _int_row(row: SparseRow) -> IntRow:
    """Integer form of a Fraction row: its entries over their lcm."""
    den = lcm(*[x.denominator for x in row.values()])
    return {c: x.numerator * (den // x.denominator) for c, x in row.items()}, den


def _over_lcm(rows: Sequence[IntRow]) -> tuple[list[dict[int, int]], int]:
    """Integer rows (nums, den) brought over the lcm D of their denominators.

    Returns the numerators over D, one dict per row, and D.
    """
    den = lcm(*[d for _, d in rows])
    return [{c: x * (den // d) for c, x in nums.items()} for nums, d in rows], den


def _fraction_row(row: IntRow) -> SparseRow:
    nums, den = row
    if den == 1:
        return {c: Fraction(x) for c, x in nums.items()}
    return {c: Fraction(x, den) for c, x in nums.items()}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """*row* divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _sub_multiple(target: dict[int, int], f: int, source: dict[int, int]) -> None:
    """target -= f * source, in place, storing no zeros."""
    for c, x in source.items():
        v = target.get(c, 0) - f * x
        if v:
            target[c] = v
        else:
            del target[c]


class QMatrix:
    """Immutable sparse matrix over the rationals, held as integer rows."""

    __slots__ = ("int_rows", "nrows", "ncols", "_sparse", "_dense")

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
        self.int_rows: tuple[IntRow, ...] = tuple(_int_row(_nonzero(row)) for row in frozen)
        self.nrows: int = len(self.int_rows)
        self.ncols: int = ncols
        self._sparse = self._dense = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _wrap(cls, rows: Sequence[IntRow], ncols: int) -> QMatrix:
        """Matrix over rows already in canonical integer form."""
        m = cls.__new__(cls)
        m.int_rows = rows = tuple(rows)
        m.nrows = len(rows)
        m.ncols = ncols
        m._sparse = m._dense = None
        return m

    @classmethod
    def from_sparse(cls, rows: Iterable[SparseRow], ncols: int) -> QMatrix:
        """Matrix over rows {column: nonzero Fraction}, converted once; none is kept."""
        return cls._wrap([_int_row(row) for row in rows], ncols)

    @classmethod
    def from_ints(cls, rows: Iterable[IntRow], ncols: int) -> QMatrix:
        """Rows nums / den, each nums without zeros and den > 0; the dicts are taken over.

        Each row is brought to lowest terms; a row already there is kept as is.
        """
        out = []
        for nums, den in rows:
            if not nums:
                out.append(({}, 1))
                continue
            g = gcd(den, *nums.values())
            out.append((nums, den) if g == 1 else ({c: x // g for c, x in nums.items()}, den // g))
        return cls._wrap(out, ncols)

    @classmethod
    def identity(cls, n: int, weight: int = 1) -> QMatrix:
        return cls._wrap([({i: weight}, 1) if weight else ({}, 1) for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> QMatrix:
        return cls._wrap([({}, 1) for _ in range(nrows)], ncols)

    @classmethod
    def stacked(cls, blocks: Sequence[QMatrix]) -> QMatrix:
        """The blocks one above the other; they must share a column count."""
        if not blocks:
            raise ValueError("stacked of no blocks")
        ncols = blocks[0].ncols
        if any(b.ncols != ncols for b in blocks):
            raise ValueError("stacked blocks differ in column count")
        return cls._wrap([row for b in blocks for row in b.int_rows], ncols)

    # -- shape / access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def sparse_rows(self) -> tuple[SparseRow, ...]:
        """Read-only view: each row as {column: nonzero Fraction}, built on first use."""
        if self._sparse is None:
            self._sparse = tuple(map(_fraction_row, self.int_rows))
        return self._sparse

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

    def transpose(self) -> QMatrix:
        rows = self.int_rows
        den = lcm(*[d for _, d in rows])
        out: list[dict[int, int]] = [{} for _ in range(self.ncols)]
        for i, (nums, d) in enumerate(rows):
            f = den // d
            for j, x in nums.items():
                out[j][i] = x * f
        columns = [(col, den) for col in out]
        if den == 1:  # integer columns already are in lowest terms
            return QMatrix._wrap(columns, self.nrows)
        return QMatrix.from_ints(columns, self.nrows)

    def is_zero(self) -> bool:
        return not any(nums for nums, _ in self.int_rows)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: QMatrix) -> QMatrix:
        """A @ B; B's rows are read in place, and an A entry is rescaled only when needed."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        brows, bden = other.int_rows, lcm(*[d for _, d in other.int_rows])
        out: list[IntRow] = []
        for anums, aden in self.int_rows:
            acc: dict[int, int] = {}
            for k, x in anums.items():
                bnums, d = brows[k]
                if d != bden:
                    x *= bden // d
                for c, y in bnums.items():
                    acc[c] = acc.get(c, 0) + x * y
            if not acc:
                out.append(({}, 1))
                continue
            den = aden * bden
            g = gcd(den, *acc.values()) if den != 1 else 1
            row = {c: v // g for c, v in acc.items() if v}
            out.append((row, den // g) if row else ({}, 1))
        return QMatrix._wrap(out, other.ncols)

    def apply_sparse(self, vec: Mapping[int, Fraction]) -> SparseRow:
        """Matrix times a column vector given by its nonzero entries, as {row: Fraction}.

        The one-column case of `@`: *vec* becomes a one-column block.
        """
        column = QMatrix.from_sparse([vec], self.ncols).transpose()
        out = (self @ column).int_rows
        return {i: Fraction(nums[0], den) for i, (nums, den) in enumerate(out) if nums}

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times column vector."""
        v = as_vector(vec)
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != {self.ncols} columns")
        out = self.apply_sparse(_nonzero(v))
        return tuple(out.get(i, _ZERO) for i in range(self.nrows))

    def __add__(self, other: QMatrix) -> QMatrix:
        return combination([(1, self), (1, other)])

    def __sub__(self, other: QMatrix) -> QMatrix:
        return combination([(1, self), (-1, other)])

    def __neg__(self) -> QMatrix:
        return combination([(-1, self)])

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.shape == other.shape and self.int_rows == other.int_rows

    def __hash__(self) -> int:
        rows = tuple((frozenset(nums.items()), den) for nums, den in self.int_rows)
        return hash((self.nrows, self.ncols, rows))

    def __repr__(self) -> str:
        return f"QMatrix({[list(map(str, row)) for row in self.rows]})"


def combination(terms: Sequence[tuple]) -> QMatrix:
    """The sum of c * (A @ B) over terms (c, A, B), or of c * A over terms (c, A).

    One integer product over whole blocks: each output row is
    accumulated once, over the lcm of its live terms' row denominators,
    and brought to lowest terms once, so no intermediate product or
    difference is built.  Every term must give the same shape, and
    A.ncols must equal B.nrows; a mismatch raises ValueError, as `@` and
    `+` do.  A lone product with coefficient 1 takes the loop of `@`.
    """
    if len(terms) == 1 and len(terms[0]) == 3 and terms[0][0] == 1:
        return terms[0][1] @ terms[0][2]
    prepared = []
    shape = None
    for term in terms:
        coeff, a, *rest = term
        if rest:
            (b,) = rest
            if a.ncols != b.nrows:
                raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
            # B's rows are read in place, each scaled to the lcm of their
            # denominators as it is used.
            brows, bden = b.int_rows, lcm(*[d for _, d in b.int_rows])
            term_shape = (a.nrows, b.ncols)
        else:
            brows, bden = None, 1
            term_shape = a.shape
        if shape is None:
            shape = term_shape
        elif term_shape != shape:
            raise ValueError(f"shape mismatch {shape} + {term_shape}")
        if type(coeff) is int:
            p, q = coeff, 1
        else:
            f = _exact(coeff)
            p, q = f.numerator, f.denominator
        if p:
            prepared.append((p, q * bden, a.int_rows, brows, bden))
    if shape is None:
        raise ValueError("combination of no terms")
    out: list[IntRow] = []
    for i in range(shape[0]):
        # Term t contributes p_t nums / (q_t aden), q_t including B's denominator.
        live = []
        den = 1
        for p, q, arows, brows, bden in prepared:
            anums, aden = arows[i]
            if anums:
                live.append((p, q * aden, anums, brows, bden))
                den = lcm(den, q * aden)
        acc: dict[int, int] = {}
        for p, q, anums, brows, bden in live:
            f = p * (den // q)
            if brows is None:
                for c, x in anums.items():
                    acc[c] = acc.get(c, 0) + f * x
                continue
            for k, x in anums.items():
                bnums, d = brows[k]
                if bnums:
                    g = f * x * (bden // d)
                    for c, y in bnums.items():
                        acc[c] = acc.get(c, 0) + g * y
        # Lowest terms in one pass: zeros do not change the gcd.
        g = gcd(den, *acc.values()) if den != 1 else 1
        if g == 1:
            row = {c: v for c, v in acc.items() if v}
        else:
            row = {c: v // g for c, v in acc.items() if v}
        out.append((row, den // g) if row else ({}, 1))
    return QMatrix._wrap(out, shape[1])


def rref(m: QMatrix, *, last: bool = False) -> tuple[QMatrix, tuple[int, ...], int]:
    """Unique reduced row echelon form of *m*.

    Returns ``(reduced, pivot_columns, rank)``.  The reduced matrix has
    one row per pivot (``reduced.nrows == rank``, no zero rows), the
    input's columns, unit pivots, and zeros above and below every pivot.
    Each row's pivot is its first nonzero column, and the rows come in
    increasing pivot order.  With ``last=True`` each row's pivot is its
    last nonzero column and the rows come in decreasing pivot order:
    the RREF of *m* with its columns reversed, read back in the original
    column indices.

    Fraction-free sparse Gauss-Jordan, one input row at a time.  Only
    the line a row spans matters, so rows are integer vectors, kept
    primitive (content 1).  The rows found so far are kept fully
    reduced, each keyed by its pivot column, so a new row is cleared of
    every known pivot in one pass: with prow's pivot a and the row's
    entry b there, `_eliminate` sets row <- (a/g) row - (b/g) prow for
    g = gcd(a, b).  If anything is left, its first column (its last, with
    ``last=True``) is a new pivot, which `_eliminate` then clears from
    the earlier rows.
    Each output row is the primitive row over its pivot entry.  Every
    input is eliminated.
    """
    found: dict[int, dict[int, int]] = {}
    for source, _ in m.int_rows:
        if not source:
            continue
        hits = [c for c in source if c in found] if found else ()
        if not hits and len(source) == 1:
            (pc,) = source
            row = {pc: 1}
        else:
            row = dict(source)
            for p in hits:
                row = _eliminate(row, p, found[p])
            if not row:
                continue
            row = _primitive(row)
            pc = max(row) if last else min(row)
        for q, prow in found.items():
            if pc in prow:
                found[q] = _primitive(_eliminate(prow, pc, row))
        found[pc] = row
    pivots = tuple(sorted(found, reverse=last))
    rows: list[IntRow] = []
    for p in pivots:
        row = found[p]
        lead = row[p]
        rows.append((row, lead) if lead > 0 else ({c: -x for c, x in row.items()}, -lead))
    return QMatrix._wrap(rows, m.ncols), pivots, len(pivots)


def _eliminate(row: dict[int, int], p: int, prow: dict[int, int]) -> dict[int, int]:
    """row (in place, or rescaled) minus the multiple of prow that clears column p."""
    a, b = prow[p], row[p]
    if b % a:
        g = gcd(a, b)
        s, b = a // g, b // g
        row = {c: s * x for c, x in row.items()}
    else:
        b //= a
    _sub_multiple(row, b, prow)
    return row


def kernel(m: QMatrix) -> "Subspace":
    """Null space { v : m v = 0 } as a canonical subspace of Q^ncols.

    One elimination, ``rref(m, last=True)``, whose free vectors already
    are the RREF basis.  A row pivoting on its last nonzero column has
    entries only at free columns before its pivot.  The free vector of a
    free column f is 1 at f and minus the pivot rows' entries in f at
    their pivots, which all lie after f: its lead is f, with entry 1,
    and it is zero at every other free column, the other vectors' leads.
    Over a common denominator of 1 that 1 makes each vector primitive,
    so the vectors are taken as they are.
    """
    if m.is_zero():  # all-zero or empty-shape block: no elimination needed
        return Subspace.full(m.ncols)
    reduced, pivots, _ = rref(m, last=True)
    den = lcm(*[d for _, d in reduced.int_rows])
    pivot_set = set(pivots)
    # Free vector of f over den: 1 at f, -reduced[p][f] at pivot p.
    vectors = {f: {f: den} for f in range(m.ncols) if f not in pivot_set}
    for p, (nums, d) in zip(pivots, reduced.int_rows):
        scale = den // d
        for c, x in nums.items():
            if c != p:
                vectors[c][p] = -x * scale
    rows = [(v, den) for v in vectors.values()]
    if den == 1:
        return Subspace(QMatrix._wrap(rows, m.ncols))
    return Subspace(QMatrix.from_ints(rows, m.ncols))


def image(m: QMatrix) -> "Subspace":
    """Column space of *m* as a canonical subspace of Q^nrows."""
    if m.is_zero():
        return Subspace.zero(m.nrows)
    return Subspace.spanned(m.transpose())


def solve(m: QMatrix, b: Sequence) -> Vector | None:
    """One solution of m x = b, or None when the system is inconsistent."""
    rhs = as_vector(b)
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    n = m.ncols
    augmented = []
    for (nums, den), x in zip(m.int_rows, rhs):
        if x:
            q = x.denominator
            nums = {c: v * q for c, v in nums.items()}
            nums[n] = x.numerator * den
            den *= q
        augmented.append((nums, den))
    reduced, pivots, rank = rref(QMatrix.from_ints(augmented, n + 1))
    if n in pivots:
        return None
    x = [_ZERO] * n
    for p, (nums, den) in zip(pivots, reduced.int_rows):
        x[p] = Fraction(nums.get(n, 0), den)
    return tuple(x)


def inverse(m: QMatrix) -> QMatrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    # Row i scaled by its denominator: [den A_i | den e_i] spans the same line.
    augmented = [({**nums, n + i: den}, 1) for i, (nums, den) in enumerate(m.int_rows)]
    reduced, pivots, _ = rref(QMatrix._wrap(augmented, 2 * n))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return QMatrix.from_ints(
        [({c - n: x for c, x in nums.items() if c >= n}, den) for nums, den in reduced.int_rows],
        n,
    )


class Subspace(Frozen):
    """Linear subspace of Q^ambient_dim, held as its canonical RREF basis.

    Two subspaces are equal exactly when their bases are identical;
    `from_vectors` canonicalizes any generating set.
    """

    _fields = ("basis",)

    def __init__(self, basis: QMatrix):
        self.__dict__["basis"] = basis  # rows = basis vectors, in RREF, no zero rows

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
        rows = [as_vector(vec) for vec in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vectors of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return cls.spanned(QMatrix(rows, ambient_dim))

    @classmethod
    def spanned(cls, m: QMatrix) -> Subspace:
        """Span of the rows of *m*, in Q^ncols."""
        return cls(rref(m)[0])

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(QMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(QMatrix.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row: its first nonzero entry."""
        return tuple(min(nums) for nums, _ in self.basis.int_rows)

    @cached_property
    def _pivot_rows(self) -> dict[int, IntRow]:
        """Each basis row, keyed by its pivot column."""
        return dict(zip(self.pivots, self.basis.int_rows))

    def _remainder(self, nums: dict[int, int]) -> IntRow:
        """Remainder of the integer vector *nums* after eliminating all basis pivots.

        RREF rows vanish on each other's pivots: one pass, any order.  Over
        the lcm den of the hit rows' denominators, nums - sum_p nums_p row_p
        is (nums den - sum_p nums_p (den / d_p) pnums_p) / den.
        """
        rows = self._pivot_rows
        if len(nums) <= len(rows):
            hits = [c for c in nums if c in rows]
        else:
            hits = [p for p in rows if p in nums]
        den = lcm(*[rows[p][1] for p in hits])
        out = dict(nums) if den == 1 else {c: x * den for c, x in nums.items()}
        for p in hits:
            pnums, d = rows[p]
            _sub_multiple(out, nums[p] * (den // d), pnums)
        return out, den

    def _reduces_to_zero(self, nums: dict[int, int]) -> bool:
        """Whether the integer vector *nums* lies in this subspace."""
        return not self._remainder(nums)[0]

    def reduce_sparse(self, vec: Mapping[int, Fraction]) -> SparseRow:
        """Remainder of a sparse vector after eliminating all basis pivots."""
        nums, vden = _int_row(vec)
        out, den = self._remainder(nums)
        return _fraction_row((out, vden * den))

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
        if self.dim == self.ambient_dim:  # all of Q^N
            return True
        return all(self._reduces_to_zero(nums) for nums, _ in other.basis.int_rows)


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.spanned(QMatrix.stacked([a.basis, b.basis]))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick on [[A A],[B 0]].

    The rows of the block's RREF whose pivot is at column n or later
    vanish on the left half, and their right halves span the
    intersection.  Those rows of an RREF are themselves in RREF, so
    their right halves already are the canonical basis.
    """
    _check_ambient(a, b)
    n = a.ambient_dim
    block = [
        ({**nums, **{c + n: x for c, x in nums.items()}}, den) for nums, den in a.basis.int_rows
    ]
    block += b.basis.int_rows
    reduced, pivots, rank = rref(QMatrix._wrap(block, 2 * n))
    inter_rows = [
        ({c - n: x for c, x in nums.items()}, den)
        for p, (nums, den) in zip(pivots, reduced.int_rows)
        if p >= n
    ]
    return Subspace(QMatrix._wrap(inter_rows, n))


def image_meet_kernel(m: QMatrix, a: QMatrix) -> Subspace:
    """im m meet ker a, as m ker(a m): one elimination of a (rows a) x (cols m) block."""
    return Subspace.spanned(kernel(a @ m).basis @ m.transpose())


class QuotientSpace(Frozen):
    """Quotient v / w with orthogonal-complement representatives.

    `QuotientSpace(v, w)` checks w <= v (NotSubspace), and `dim` is
    dim v - dim w.  Representatives are the canonical basis of v
    intersected with the orthogonal complement of w under the standard
    dot product on coefficient vectors; `class_rows` writes each row x of
    a block in v as (representative part, w part) and returns the
    representative coordinates, which vanish exactly when x lies in w.

    Every row of the complement C is orthogonal to every row of the
    basis W of w, so the Gram matrix of [C; W] is block diagonal, and
    the rows of its inverse that write x = C^T a + W^T b as a are those
    of (C C^T)^{-1}: a = x S^T for S^T = C^T (C C^T)^{-1}, cached with
    the c x c Gram block inverted once, on the first class coordinates
    asked for.  Over w = 0, `class_rows` reads them at v's pivots
    instead; a zero quotient over w != 0 uses S^T over a 0 x 0 Gram block.
    """

    _fields = ("total", "sub")

    def __init__(self, total: Subspace, sub: Subspace):
        if not total.contains_subspace(sub):
            raise NotSubspace("the denominator is not contained in the numerator")
        self.__dict__.update(total=total, sub=sub)

    @property
    def dim(self) -> int:
        return self.total.dim - self.sub.dim

    @cached_property
    def complement(self) -> Subspace:
        """v meet the orthogonal complement of w; its basis rows are the representatives.

        The representatives C span v meet the orthogonal complement of w,
        taken as K V for the basis rows V of v and W of w and the RREF basis
        K of ker(W V^T) (C = V when w = 0).  K V already is in RREF.  Row i
        of K is 1 at its lead q_i, zero at the other leads q_j, and nonzero
        elsewhere only after q_i; row q of V is 1 at its lead p_q and zero at
        the other leads.  So row i of K V is V's row q_i plus rows whose
        leads come after p_{q_i}: its lead is 1 at p_{q_i}, and it is zero
        at every other p_{q_j}.
        """
        v, w = self.total, self.sub
        if not w.dim:
            return v  # every vector is orthogonal to the zero space
        return Subspace(kernel(w.basis @ v.basis.transpose()).basis @ v.basis)

    @cached_property
    def _solver(self) -> QMatrix:
        ct = self.complement.basis.transpose()
        return ct @ inverse(self.complement.basis @ ct)

    def class_rows(self, vectors: QMatrix) -> QMatrix:
        """vectors @ S^T, after checking each row's integer form is in v (NotInSubspace).

        A row of all of Q^N needs no check.  Over w = 0 the representatives
        are v's RREF basis V, 1 at its own pivot and 0 at the others', so
        x = a V has a = x read at V's pivots, and S^T is never built.
        """
        v = self.total
        if vectors.ncols != v.ambient_dim:
            raise AmbientMismatch(f"vectors of length {vectors.ncols} != ambient {v.ambient_dim}")
        if v.dim < v.ambient_dim and not all(
            v._reduces_to_zero(nums) for nums, _ in vectors.int_rows
        ):
            raise NotInSubspace("vector is not in the total space of the quotient")
        if self.sub.dim:
            return vectors @ self._solver
        pivots = v.pivots
        return QMatrix.from_ints(
            [({i: nums[p] for i, p in enumerate(pivots) if p in nums}, den)
             for nums, den in vectors.int_rows],
            v.dim,
        )


def quotient_structure(w: Subspace, v: Subspace) -> QuotientSpace:
    """Quotient structure for v / w (requires w <= v, else NotSubspace)."""
    return QuotientSpace(v, w)
