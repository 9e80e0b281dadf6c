"""Lie algebras from structure equations and their Chevalley-Eilenberg complex.

The input is the tuple of coframe differentials d e^k (degree-2 forms);
the differential extends to all degrees as an odd derivation, is
materialized once as exact blocks d_k, and every later application of d
goes through those blocks.  The constructor checks the block equation
d_{k+1} d_k = 0 in every degree, which is the Jacobi identity.
Structure constants follow the convention

    d e^k = - sum_{i<j} c^k_{ij} e^i ^ e^j,      [e_i, e_j] = sum_k c^k_{ij} e_k,

the sign coming from (d a)(x, y) = -a([x, y]).  Downstream computations
only ever consume d, so any consistent choice gives the same cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import JacobiViolation
from .exterior import Form, GradedOperator, nonzero_columns
from .linalg import QMatrix, Subspace, Vector, as_vector
from .parsing import StructureEquations

__all__ = [
    "LieAlgebra",
    "AlgebraProperties",
    "build_lie_algebra",
    "check_properties",
]


def _d_monomial(structure: StructureEquations, key: tuple[int, ...]) -> Form:
    """Odd-derivation extension of d to the basis monomial e^{key}."""
    dim = structure.dim
    total = Form.zero(dim, min(len(key) + 1, dim))
    for p, idx in enumerate(key):
        dgen = structure.differentials[idx - 1]
        if dgen.is_zero():
            continue
        rest = Form.monomial(dim, key[:p] + key[p + 1 :])
        term = dgen.wedge(rest)
        total = total + (term if p % 2 == 0 else -term)
    return total


class LieAlgebra:
    """Finite-dimensional Lie algebra with its full exterior differential."""

    def __init__(self, structure: StructureEquations):
        self.structure = structure
        self.dim = structure.dim
        self.d_op = GradedOperator.materialize(
            self.dim, +1, lambda m: _d_monomial(structure, next(iter(m.coeffs)))
        )
        self._verify_d_squared()

    def _verify_d_squared(self) -> None:
        for k in range(self.dim + 1):
            dd = self.d_block(k + 1) @ self.d_block(k)
            bad = nonzero_columns(dd, self.dim, k, k + 2)
            if bad:
                key, image = bad[0]
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
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for k in range(1, self.dim + 1):
            for (i, j), value in self.structure.differentials[k - 1].coeffs.items():
                table.setdefault((i, j), {})[k] = -value
        return table

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


@dataclass(frozen=True)
class AlgebraProperties:
    nilpotent: bool
    solvable: bool
    unimodular: bool


def build_lie_algebra(structure: StructureEquations) -> LieAlgebra:
    """Validated Lie algebra (raises JacobiViolation when d^2 != 0)."""
    return LieAlgebra(structure)


def _bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vectors = [
        g.bracket(u, v) for u in a.basis.rows for v in b.basis.rows
    ]
    return Subspace.from_vectors(g.dim, vectors)


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

    unimodular = True
    for i in range(1, g.dim + 1):
        trace = Fraction(0)
        for k in range(1, g.dim + 1):
            trace += g.bracket_basis(i, k)[k - 1]
        if trace:
            unimodular = False
            break
    return AlgebraProperties(nilpotent, solvable, unimodular)
