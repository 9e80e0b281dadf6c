"""Graded exterior algebra over the dual of an m-dimensional space.

Sparse multivectors with exact rational coefficients in the lexicographic
monomial basis, wedge products, contraction with a bivector, and graded
linear operators as exact matrices.  The blocks of d, L and Lambda and
the compounds read the sign of e^c ^ e^K from one table per dimension
and degree (`_wedge_table`); the compounds of a matrix come from one
walk, `_compounds`, that builds each from the one before.  A Form-level
action gives blocks too (`GradedOperator.materialize`,
`operator_matrix`).

Conventions (normative for the whole package):

* the basis of the degree-k component is the list of strictly increasing
  k-tuples of indices 1..dim in lexicographic order; every matrix in
  every module uses this ordering;
* wedge of monomials carries the parity sign of the merge permutation;
* contraction with a decomposable bivector x ^ y is iota_x o iota_y,
  where iota_x is the standard degree-(-1) interior product.  The sign
  of this convention is pinned operationally by the symplectic module,
  which checks Lambda(omega) = n at construction time.

Coefficients follow the canonical-entry rule of the linalg module: a
stored coefficient is a plain, normalized `Fraction`, and any other
value is converted once on the way in (`Form`, `Form.monomial`, scalar
multiplication, `Bivector`).
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._value import Frozen
from .errors import DimMismatch, MixedDegree
from .linalg import IntRow, QMatrix, SparseRow, Vector, _exact, _int_row

__all__ = [
    "MAX_DIM",
    "MultiIndex",
    "monomial_basis",
    "basis_position",
    "sort_with_sign",
    "merge_with_sign",
    "Form",
    "wedge",
    "interior",
    "contract",
    "top_coefficient",
    "wedge_pairing",
    "Bivector",
    "GradedOperator",
    "operator_matrix",
    "nonzero_columns",
    "render_form",
    "render_row",
]

MultiIndex = tuple[int, ...]

MAX_DIM = 14
"""Largest dimension of a `Form` and of any structure read from text.

The middle-degree blocks grow like C(dim, dim/2): the full report of
nil14 (nil10 plus four abelian directions), the largest model measured,
takes 3.1-4.8 s and 88 MB on a 2-core x86-64 VM with d and omega in
a nice basis (sparse index patterns; a generic coframe costs far more),
and each further pair of dimensions multiplies the middle block sizes
by about four.  `Form` checks it before it builds the C(dim, degree) basis of its
degree; the text parsers re-export it as `parsing.MAX_DIM`.
"""

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def monomial_basis(dim: int, k: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing k-tuples in 1..dim, lexicographically ordered."""
    if k < 0 or k > dim:
        return ()
    return tuple(combinations(range(1, dim + 1), k))


@lru_cache(maxsize=None)
def _positions(dim: int, k: int) -> dict[MultiIndex, int]:
    return {key: i for i, key in enumerate(monomial_basis(dim, k))}


def basis_position(dim: int, key: MultiIndex) -> int:
    return _positions(dim, len(key))[key]


@lru_cache(maxsize=None)
def _wedge_table(dim: int, k: int) -> tuple[array, ...]:
    """Where e^c ^ e^K lands: entry c - 1 is an array over the degree-k lex positions i.

    It holds +-(p + 1) for e^c ^ e^{K_i} = +-e^{K'}, K' at degree-(k + 1)
    position p, with the sign (-1)^j for the j indices of K_i below c, and
    0 when c is in K_i.  Cached and shared, so read only; all degrees of
    dimension 14 take about 1 MB.
    """
    positions = _positions(dim, k)
    table = tuple(array("i", bytes(4 * len(positions))) for _ in range(dim))
    for p, key in enumerate(monomial_basis(dim, k + 1), 1):
        for j, c in enumerate(key):
            table[c - 1][positions[key[:j] + key[j + 1 :]]] = -p if j % 2 else p
    return table


def _wedge_columns(dim: int, k: int, pairs: Iterable, den: int) -> QMatrix:
    """The degree-k block of wedge with the 2-form sum (c / den) e^{ab}, transposed.

    *pairs* holds the terms ((a, b), c), 1-based with a < b and c != 0; row
    i is the image of the i-th monomial K, sum c e^a ^ (e^b ^ e^K) / den,
    in which each term lands on its own monomial K + {a, b}.
    """
    inner, outer = _wedge_table(dim, k), _wedge_table(dim, k + 1)
    columns: list[dict[int, int]] = [{} for _ in range(comb(dim, k))]
    for (a, b), c in pairs:
        for column, t in zip(columns, inner[b - 1]):
            u = outer[a - 1][abs(t) - 1] if t else 0
            if u:
                column[abs(u) - 1] = c if t * u > 0 else -c
    return QMatrix.from_ints([(column, den) for column in columns], comb(dim, k + 2))


def sort_with_sign(indices: Sequence[int]) -> tuple[int, MultiIndex | None]:
    """Sort an index tuple, returning (parity sign, sorted tuple).

    Returns (0, None) when an index repeats (the monomial vanishes).
    """
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return 0, None
    return sign, tuple(items)


def merge_with_sign(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex | None]:
    """Merge two strictly increasing tuples with the permutation parity.

    Returns (0, None) when the tuples overlap.
    """
    i = j = 0
    sign = 1
    out: list[int] = []
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (la - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class Form:
    """Sparse degree-k element of the exterior algebra over Q."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: Mapping[MultiIndex, object] | None = None):
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds MAX_DIM = {MAX_DIM}")
        if degree < 0 or degree > dim:
            raise ValueError(f"degree {degree} outside 0..{dim}")
        clean: dict[MultiIndex, Fraction] = {}
        if coeffs:
            # The lex basis holds exactly the valid keys of this degree.
            valid = _positions(dim, degree)
            for key, value in coeffs.items():
                c = _exact(value)
                if not c:
                    continue
                if key not in valid:
                    if len(key) != degree:
                        raise ValueError(f"monomial {key} has wrong degree (expected {degree})")
                    raise ValueError(f"bad monomial {key} for dim {dim}")
                clean[key] = c
        self.dim = dim
        self.degree = degree
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int = 0) -> Form:
        return cls(dim, degree, None)

    @classmethod
    def monomial(cls, dim: int, indices: Sequence[int], coeff=1) -> Form:
        """c * e^{indices}; indices may come unsorted and pick up the sign."""
        sign, key = sort_with_sign(tuple(indices))
        if sign == 0:
            return cls.zero(dim, 0)
        return cls(dim, len(key), {key: _exact(coeff) * sign})

    @classmethod
    def unit(cls, dim: int) -> Form:
        return cls(dim, 0, {(): _ONE})

    @classmethod
    def from_vector(cls, dim: int, degree: int, vec: Sequence) -> Form:
        basis = monomial_basis(dim, degree)
        if len(vec) != len(basis):
            raise ValueError(f"vector length {len(vec)} != {len(basis)}")
        return cls(dim, degree, dict(zip(basis, vec)))

    @classmethod
    def from_sparse(cls, dim: int, degree: int, vec: Mapping[int, object]) -> Form:
        """The form whose lex-basis coordinates are {position: coefficient}."""
        basis = monomial_basis(dim, degree)
        return cls(dim, degree, {basis[i]: c for i, c in vec.items()})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- linear structure -------------------------------------------------

    def _check_compatible(self, other: Form) -> int:
        if self.dim != other.dim:
            raise DimMismatch(f"forms over dims {self.dim} and {other.dim}")
        if self.is_zero():
            return other.degree
        if other.is_zero():
            return self.degree
        if self.degree != other.degree:
            raise MixedDegree(
                f"cannot mix degrees {self.degree} and {other.degree}"
            )
        return self.degree

    def __add__(self, other: Form) -> Form:
        if not isinstance(other, Form):
            return NotImplemented
        degree = self._check_compatible(other)
        acc = dict(self.coeffs)
        for key, c in other.coeffs.items():
            acc[key] = acc.get(key, _ZERO) + c
        return Form(self.dim, degree, acc)

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.dim, self.degree, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, scalar) -> Form:
        f = _exact(scalar)
        return Form(self.dim, self.degree, {k: f * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # The keys give a nonzero form's degree, and zero forms of every
        # degree are equal, so the degree stays out of the hash.
        return hash((self.dim, frozenset(self.coeffs.items())))

    # -- multiplicative structure ----------------------------------------

    def wedge(self, other: Form) -> Form:
        if self.dim != other.dim:
            raise DimMismatch(f"forms over dims {self.dim} and {other.dim}")
        target = self.degree + other.degree
        if target > self.dim:
            return Form.zero(self.dim, 0)
        acc: dict[MultiIndex, Fraction] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                sign, merged = merge_with_sign(ka, kb)
                if sign:
                    acc[merged] = acc.get(merged, _ZERO) + sign * ca * cb
        return Form(self.dim, target, acc)

    def coeff_vector(self) -> Vector:
        return tuple(
            self.coeffs.get(key, _ZERO) for key in monomial_basis(self.dim, self.degree)
        )

    def sparse_vector(self) -> SparseRow:
        """Nonzero lex-basis coordinates as {position: coefficient}."""
        positions = _positions(self.dim, self.degree)
        return {positions[key]: c for key, c in self.coeffs.items()}

    def terms(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self.coeffs.items())

    def render(self, prefix: str = "e") -> str:
        return render_form(self, prefix)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Form({self.dim}, {self.degree}, {self.render()!r})"


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def interior(index: int, form: Form) -> Form:
    """Interior product iota with the basis vector numbered *index*."""
    if form.degree == 0:
        return Form.zero(form.dim, 0)
    acc: dict[MultiIndex, Fraction] = {}
    for key, c in form.coeffs.items():
        for p, idx in enumerate(key):
            if idx == index:
                reduced = key[:p] + key[p + 1 :]
                value = -c if p % 2 else c
                acc[reduced] = acc.get(reduced, _ZERO) + value
                break
            if idx > index:
                break
    return Form(form.dim, form.degree - 1, acc)


def top_coefficient(a: Form) -> Fraction:
    """Coefficient of the top monomial e^{1..dim}; requires degree = dim."""
    if a.degree != a.dim and not a.is_zero():
        raise ValueError(f"top_coefficient needs degree {a.dim}, got {a.degree}")
    return a.coeffs.get(tuple(range(1, a.dim + 1)), _ZERO)


@lru_cache(maxsize=None)
def wedge_pairing(dim: int, k: int) -> QMatrix:
    """The wedge pairing of degrees k and dim - k in the lex bases.

    Entry (a, b) is top_coefficient(e^a ^ e^b): the sign of the merge
    when b is the complement of a, and zero otherwise, so the matrix is
    a signed permutation.  Cached and shared, so read only.
    """
    everything = range(1, dim + 1)
    rows = []
    for a in monomial_basis(dim, k):
        complement = tuple(i for i in everything if i not in a)
        sign, _ = merge_with_sign(a, complement)
        rows.append(({basis_position(dim, complement): sign}, 1))
    return QMatrix.from_ints(rows, comb(dim, dim - k))


def _compounds(top: list[dict[int, int]], dim: int) -> Iterator[list[dict[int, int]]]:
    """Rows of the compounds C_0, C_1, ..., C_dim of an integer dim x dim matrix M, in turn.

    C_k[a][b] = det M[a, b] is the matrix of the k-th exterior power of M
    in the lex bases: the star's Gram blocks and the coframe change of
    forms are compounds.  *top* holds the rows of M = C_1; every row is
    {column: nonzero entry} over 0-based lex positions.  C_0 is the 1 x 1
    identity, and each C_k is built from C_{k-1} by Laplace expansion
    along the first row, over the nonzero entries only:
        C_k[a][b] = sum_j (-1)^j M[a_1][b_j] C_{k-1}[a - a_1][b - b_j].
    Only the last compound is kept.
    """
    minors = [{0: 1}]
    yield minors
    for k in range(1, dim + 1):
        table, out = _wedge_table(dim, k - 1), []
        for a in monomial_basis(dim, k):
            first = top[a[0] - 1]
            acc: dict[int, int] = {}
            for i, minor in minors[basis_position(dim, a[1:])].items():
                for c, x in first.items():
                    t = table[c][i]
                    if t:
                        b = abs(t) - 1
                        acc[b] = acc.get(b, 0) + (x * minor if t > 0 else -x * minor)
            out.append({b: v for b, v in acc.items() if v})
        minors = out
        yield minors


class Bivector(Frozen):
    """Element of the second exterior power of the primal space."""

    _fields = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Mapping[tuple[int, int], Fraction] | None = None):
        clean = {}
        for (i, j), value in (coeffs or {}).items():
            c = _exact(value)
            if not c:
                continue
            if not (1 <= i < j <= dim):
                raise ValueError(f"bad bivector key ({i}, {j}) for dim {dim}")
            clean[(i, j)] = c
        self.__dict__.update(dim=dim, coeffs=clean)

    @classmethod
    def from_matrix(cls, m: QMatrix) -> Bivector:
        """Bivector with coefficient m[i][j] on e_i ^ e_j (i < j, 1-based)."""
        rows = enumerate(m.sparse_rows)
        coeffs = {(i + 1, j + 1): x for i, row in rows for j, x in row.items() if j > i}
        return cls(m.nrows, coeffs)


def contract(xi: Bivector, a: Form) -> Form:
    """iota_xi a, extending iota_{x^y} = iota_x o iota_y bilinearly."""
    if xi.dim != a.dim:
        raise DimMismatch(f"bivector dim {xi.dim} vs form dim {a.dim}")
    if a.degree < 2:
        return Form.zero(a.dim, 0)
    total = Form.zero(a.dim, a.degree - 2)
    for (i, j), c in xi.coeffs.items():
        inner = interior(i, interior(j, a))
        if not inner.is_zero():
            total = total + c * inner
    return total


def operator_matrix(
    action: Callable[[Form], Form], dim: int, k: int, target_degree: int
) -> QMatrix:
    """Matrix of a linear map on degree-k forms in lexicographic bases.

    The map is given by its action on basis monomials; the resulting
    matrix satisfies  matrix @ coeff_vector(v) = coeff_vector(action(v))
    for every degree-k form v.
    """
    target_len = comb(dim, target_degree) if 0 <= target_degree <= dim else 0
    source = monomial_basis(dim, k)
    rows: list[SparseRow] = [{} for _ in range(target_len)]
    for j, key in enumerate(source):
        img = action(Form.monomial(dim, key))
        if img.is_zero():
            continue
        if img.degree != target_degree:
            raise ValueError(
                f"action returned degree {img.degree}, expected {target_degree}"
            )
        for i, c in img.sparse_vector().items():
            rows[i][j] = c
    return QMatrix.from_sparse(rows, len(source))


class GradedOperator(Frozen):
    """Graded linear operator stored as one exact matrix per source degree.

    `shift` is the degree shift; `shift=None` marks a degree-reversing
    operator (k -> dim - k), which is what the symplectic star needs.
    Absent blocks act as zero; blocks whose source or target degree
    falls outside 0..dim are zero-shaped so kernels and images of edge
    blocks come out right without special cases.
    """

    _fields = ("dim", "shift", "blocks")

    def __init__(self, dim: int, shift: int | None, blocks: Mapping[int, QMatrix]):
        self.__dict__.update(dim=dim, shift=shift, blocks=blocks)

    def target_degree(self, k: int) -> int:
        return self.dim - k if self.shift is None else k + self.shift

    def block(self, k: int) -> QMatrix:
        stored = self.blocks.get(k)
        if stored is not None:
            return stored
        cols = comb(self.dim, k) if 0 <= k <= self.dim else 0
        t = self.target_degree(k)
        rows = comb(self.dim, t) if 0 <= t <= self.dim else 0
        return QMatrix.zeros(rows, cols)

    def apply(self, form: Form) -> Form:
        if form.dim != self.dim:
            raise DimMismatch(f"operator over dim {self.dim} applied to a form over dim {form.dim}")
        k = form.degree
        t = self.target_degree(k)
        if form.is_zero() or not 0 <= t <= self.dim:
            return Form.zero(self.dim, 0)
        return Form.from_sparse(self.dim, t, self.block(k).apply_sparse(form.sparse_vector()))

    @classmethod
    def materialize(
        cls, dim: int, shift: int | None, action: Callable[[Form], Form]
    ) -> GradedOperator:
        """Blocks of the operator whose action on basis monomials is *action*."""
        blocks = {}
        for k in range(dim + 1):
            t = dim - k if shift is None else k + shift
            if 0 <= t <= dim:
                blocks[k] = operator_matrix(action, dim, k, t)
        return cls(dim, shift, blocks)


def nonzero_columns(
    block: QMatrix, dim: int, k: int, target_degree: int
) -> list[tuple[MultiIndex, Form]]:
    """The columns of a degree-k block that are not zero, in lex order.

    Each comes as (source monomial, image form); a block equation holds
    exactly when its residual block gives an empty list.
    """
    source = monomial_basis(dim, k)
    columns = block.transpose().sparse_rows
    return [
        (source[j], Form.from_sparse(dim, target_degree, col))
        for j, col in enumerate(columns)
        if col
    ]


@lru_cache(maxsize=None)
def _monomial_names(dim: int, degree: int, prefix: str) -> tuple[str, ...]:
    """Text of each lex basis monomial; indices are bracketed above dim 9."""
    keys = monomial_basis(dim, degree)
    if dim <= 9:
        return tuple(prefix + "".join(map(str, key)) for key in keys)
    return tuple(prefix + "[" + ",".join(map(str, key)) + "]" for key in keys)


def render_row(dim: int, degree: int, row: IntRow, prefix: str = "e") -> str:
    """Canonical text of the form over *dim* whose lex degree-*degree* row is (nums, den).

    A signed sum of c*e{indices} terms in lex order, each c written as
    str(Fraction(x, den)) writes it; "0" for the zero form and the bare
    value for a degree-0 form.
    """
    nums, den = row
    if not nums:
        return "0"
    if degree == 0:
        x = nums[0]
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"
    names = _monomial_names(dim, degree, prefix)
    parts: list[str] = []
    for c in sorted(nums):
        x = nums[c]
        a = -x if x < 0 else x
        if a == den:
            body = names[c]
        else:
            g = gcd(a, den)
            body = f"{a // g}*{names[c]}" if g == den else f"{a // g}/{den // g}*{names[c]}"
        parts.append(("-" if x < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


def render_form(a: Form, prefix: str = "e") -> str:
    """Canonical text of *a*: `render_row` of its lex coordinates."""
    return render_row(a.dim, a.degree, _int_row(a.sparse_vector()), prefix)
