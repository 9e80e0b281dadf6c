"""Lie algebras from structure equations and their Chevalley-Eilenberg complex.

The input is the tuple of coframe differentials d e^k (degree-2 forms).
Their coefficients are held once as integers over one denominator.  The
differential is built once as exact blocks d_k of the odd derivation
sum_c (d e^c) ^ iota_c, read off the exterior wedge table, and every
later application of d goes through them.  The constructor checks the
block equation d_{k+1} d_k = 0 in every degree, which is the Jacobi
identity.  The lower central and derived series and the unimodularity
traces read the integer coefficients; `bracket` and `bracket_basis`
give Fraction values.
Structure constants follow the convention

    d e^k = - sum_{i<j} c^k_{ij} e^i ^ e^j,      [e_i, e_j] = sum_k c^k_{ij} e_k,

the sign coming from (d a)(x, y) = -a([x, y]).  Downstream computations
only ever consume d, so any consistent choice gives the same cohomology.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb

from ._value import Frozen
from .errors import JacobiViolation
from .exterior import Form, GradedOperator, _wedge_table, nonzero_columns
from .linalg import QMatrix, Subspace, Vector, _int_row, _over_lcm, as_vector, combination
from .parsing import StructureEquations

__all__ = [
    "LieAlgebra",
    "AlgebraProperties",
    "build_lie_algebra",
    "check_properties",
]


class LieAlgebra:
    """Finite-dimensional Lie algebra with its full exterior differential."""

    def __init__(self, structure: StructureEquations):
        self.structure = structure
        self.dim = structure.dim
        differentials = structure.differentials
        # d e^k = sum_{i<j} n^k_ij e^ij / den, and c^k_ij = -n^k_ij / den.
        nums, den = _over_lcm([_int_row(f.coeffs) for f in differentials])
        # The integer constants den * c^k_ij, 0-based and for both orders of
        # (i, j): [e_i, e_j] = sum_k brackets[i, j][k] e_k / den.
        self._brackets: dict[tuple[int, int], dict[int, int]] = {}
        self._den = den
        for k, row in enumerate(nums):
            for (i, j), n in row.items():
                self._brackets.setdefault((i - 1, j - 1), {})[k] = -n
                self._brackets.setdefault((j - 1, i - 1), {})[k] = n

        # d = sum_c (d e^c) ^ iota_c, and iota_c is the transpose of e^c ^ (-): a face
        # e^R of e^{K_i} (faces[c][R] = +-(i + 1)) adds +-n e^a ^ e^b ^ e^R to column i
        # for each term n e^{ab} of d e^c.
        blocks = {}
        for k in range(1, self.dim):
            faces, upper = _wedge_table(self.dim, k - 1), _wedge_table(self.dim, k)
            rows: list[dict[int, int]] = [{} for _ in range(comb(self.dim, k + 1))]
            for c, row in enumerate(nums):
                for (a, b), n in row.items():
                    for t, u in zip(faces[c], faces[b - 1]):
                        v = upper[a - 1][abs(u) - 1] if t and u else 0
                        if v:
                            i, p = abs(t) - 1, abs(v) - 1
                            rows[p][i] = rows[p].get(i, 0) + (n if t * u * v > 0 else -n)
            rows = [({i: x for i, x in row.items() if x}, den) for row in rows]
            blocks[k] = QMatrix.from_ints(rows, comb(self.dim, k))
        self.d_op = GradedOperator(self.dim, +1, blocks)
        self._verify_d_squared()

    def _verify_d_squared(self) -> None:
        for k in range(self.dim + 1):
            dd = combination([(1, self.d_block(k + 1), self.d_block(k))])
            if not dd.is_zero():
                key, image = nonzero_columns(dd, self.dim, k, k + 2)[0]
                monomial = Form.monomial(self.dim, key)
                raise JacobiViolation(k, key, f"d(d({monomial})) = {image}")

    # -- differential ----------------------------------------------------

    def d(self, form: Form) -> Form:
        return self.d_op.apply(form)

    def d_block(self, k: int) -> QMatrix:
        return self.d_op.block(k)

    # -- bracket ----------------------------------------------------------

    @cached_property
    def structure_constants(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """c^k_{ij} for i < j, keyed as (i, j) -> {k: value}."""
        return {
            (i + 1, j + 1): {k + 1: Fraction(c, self._den) for k, c in comps.items()}
            for (i, j), comps in self._brackets.items()
            if i < j
        }

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        out = [Fraction(0)] * self.dim
        if i == j:
            return tuple(out)
        sign = 1
        if i > j:
            i, j = j, i
            sign = -1
        for k, value in self.structure_constants.get((i, j), {}).items():
            out[k - 1] = sign * value
        return tuple(out)

    def bracket(self, u, v) -> Vector:
        """Bracket of two coordinate vectors."""
        uu, vv = as_vector(u), as_vector(v)
        out = [Fraction(0)] * self.dim
        for (i, j), comps in self.structure_constants.items():
            factor = uu[i - 1] * vv[j - 1] - uu[j - 1] * vv[i - 1]
            if factor:
                for k, value in comps.items():
                    out[k - 1] += factor * value
        return tuple(out)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, structure={self.structure.source_text!r})"


class AlgebraProperties(Frozen):
    _fields = ("nilpotent", "solvable", "unimodular")

    def __init__(self, nilpotent: bool, solvable: bool, unimodular: bool):
        self.__dict__.update(nilpotent=nilpotent, solvable=solvable, unimodular=unimodular)


def build_lie_algebra(structure: StructureEquations) -> LieAlgebra:
    """Validated Lie algebra (raises JacobiViolation when d^2 != 0)."""
    return LieAlgebra(structure)


def _bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """span [a, b], from integer basis rows and the integer structure constants."""
    brackets = g._brackets
    rows = []
    for u, _ in a.basis.int_rows:
        for v, _ in b.basis.int_rows:
            # [u, v] = sum_{i,j} u_i v_j [e_i, e_j]; the common denominator of
            # u, v and the constants does not change the span.
            acc: dict[int, int] = {}
            for i, x in u.items():
                for j, y in v.items():
                    comps = brackets.get((i, j))
                    if comps:
                        f = x * y
                        for k, c in comps.items():
                            acc[k] = acc.get(k, 0) + f * c
            rows.append(({k: c for k, c in acc.items() if c}, 1))
    return Subspace.spanned(QMatrix.from_ints(rows, g.dim))


def _descending_series(g: LieAlgebra, next_term) -> list[Subspace]:
    series = [Subspace.full(g.dim)]
    while True:
        new = next_term(series[-1])
        if new == series[-1]:
            break
        series.append(new)
        if new.dim == 0:
            break
    return series


def check_properties(g: LieAlgebra) -> AlgebraProperties:
    """Nilpotency, solvability, unimodularity from the structure constants."""
    full = Subspace.full(g.dim)
    lower_central = _descending_series(g, lambda s: _bracket_span(g, full, s))
    derived = _descending_series(g, lambda s: _bracket_span(g, s, s))
    nilpotent = lower_central[-1].dim == 0
    solvable = derived[-1].dim == 0

    # tr ad(e_i) = sum_k c^k_{ik}, read from the same integer table.
    traces = [0] * g.dim
    for (i, j), comps in g._brackets.items():
        traces[i] += comps.get(j, 0)
    unimodular = not any(traces)
    return AlgebraProperties(nilpotent, solvable, unimodular)
