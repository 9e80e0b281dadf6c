"""Symplectic linear algebra on the invariant complex.

Validation of a symplectic form, the sl(2;R) triple (L, Lambda, H), the
symplectic star operator, the adjoint differential d^Lambda, primitive
subspaces, and the explicit Lefschetz decomposition with its closed-form
coefficients.

Every operator has one exact representation: a `GradedOperator` of
blocks.  L is wedge with omega and Lambda_k, minus contraction with the
Poisson bivector, the transposed degree-(k - 2) wedge block of the
pairing's 2-form, both read off the exterior wedge table over one
denominator; H is (n - k) I, d^Lambda is the block commutator
d_{k-2} Lambda_k - Lambda_{k+1} d_k, d d^Lambda is d_{k-1} d^Lambda_k,
and every Form-level operator applies those blocks.  Each identity is
checked as a block equation, one per degree: its residual is one
`linalg.combination` of the blocks, tested with `is_zero`, and only a
failing residual is searched for the monomial that the error names.
The Lefschetz projectors are checked the same way on every call, on the
Darboux model of the dimension, and applied to the form as a one-column
block.  omega^n is the 1 x 1 block L^n from degree 0.  The star's Gram
blocks come from one walk of `exterior._compounds`, and none is kept.

Sign conventions are pinned operationally: construction asserts
Lambda(omega) = n and Lambda_{k+2} L_k - L_{k-2} Lambda_k = H_k in every
degree, so a flipped contraction or Poisson-bivector sign fails loudly
instead of corrupting results.  The star operator and its identities
(star star = id, Lambda = star L star, the star route to d^Lambda) are
materialized and checked on first use, because the cohomological
decision procedures do not need them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from itertools import islice
from math import comb, factorial, prod
from typing import Iterator, Mapping

from ._value import Frozen
from .errors import (
    Degenerate,
    DimMismatch,
    InternalInconsistencyError,
    NotClosed,
    OddDimension,
)
from .exterior import (
    Bivector,
    Form,
    GradedOperator,
    _compounds,
    _wedge_columns,
    nonzero_columns,
    wedge_pairing,
)
from .lie import LieAlgebra
from .linalg import (
    QMatrix,
    Subspace,
    _int_row,
    _over_lcm,
    combination,
    inverse,
    kernel,
    solve,
)
from .parsing import StructureEquations

__all__ = [
    "SymplecticStructure",
    "validate_symplectic",
    "lefschetz_coefficient",
    "LefschetzComponents",
]


def _memo(method):
    """Memoize *method* per instance, keyed by its positional arguments.

    Each memoized method keeps one dict in the instance ``__dict__``, so
    its entries live as long as the instance does (a class-level
    ``functools.cache`` would keep every instance alive).  A call that
    raises stores nothing, and a retry runs the method again.
    """
    slot = "_memo_" + method.__name__

    @wraps(method)
    def memoized(self, *args):
        cache = self.__dict__.setdefault(slot, {})
        if args not in cache:
            cache[args] = method(self, *args)
        return cache[args]

    return memoized


def lefschetz_coefficient(r: int, ell: int, n: int, k: int) -> Fraction:
    """The closed-form Lefschetz projector coefficient a_{r,ell,(n,k)}.

    Defined for r >= max(k - n, 0) and ell >= 0 as

        (-1)^ell (n-k+2r+1)^2  prod_{i=0..r} 1/(n-k+2r+1-i)
                               prod_{j=0..ell} 1/(n-k+2r+1+j).

    Every factor of the denominators is at least m - r = n - k + r + 1 >= 1.
    """
    if r < max(k - n, 0) or ell < 0:
        raise ValueError(f"invalid (r, ell) = ({r}, {ell}) for (n, k) = ({n}, {k})")
    m = n - k + 2 * r + 1
    sign = -1 if ell % 2 else 1
    return Fraction(sign * m * m, prod(range(m - r, m + 1)) * prod(range(m, m + ell + 1)))


class LefschetzComponents(Frozen):
    """Primitive components B^{(k-2r)} of a degree-k form.

    The decomposed form equals  sum_r (1/r!) L^r B^{(k-2r)}  exactly.
    """

    _fields = ("degree", "half_dim", "components")

    def __init__(self, degree: int, half_dim: int, components: Mapping[int, Form]):
        self.__dict__.update(degree=degree, half_dim=half_dim, components=components)

    def component(self, r: int) -> Form:
        form = self.components.get(r)
        if form is None:
            raise KeyError(f"no Lefschetz component for r = {r}")
        return form

    def reassemble(self, s: "SymplecticStructure") -> Form:
        k = self.degree
        total = Form.zero(s.dim, k)
        for r, b in self.components.items():
            lifted = s.L_power_block(r, k - 2 * r).apply_sparse(b.sparse_vector())
            total = total + Form.from_sparse(s.dim, k, lifted) * Fraction(1, factorial(r))
        return total


class SymplecticStructure:
    """Validated symplectic form on a Lie algebra, with operator blocks.

    Eagerly materialized: L, Lambda, H, d^Lambda (as the commutator
    [d, Lambda]), d d^Lambda and the pairing matrix.  The star blocks live
    in a cached property and carry their own identity checks; powers of L
    and the primitive subspaces are memoized per degree.
    """

    def __init__(self, g: LieAlgebra, omega: Form):
        if g.dim % 2:
            raise OddDimension(f"dimension {g.dim} is odd")
        if omega.dim != g.dim:
            raise ValueError("omega lives over a different dimension")
        if omega.is_zero() or omega.degree != 2:
            raise Degenerate("omega must be a nonzero 2-form")
        self.g = g
        self.dim = g.dim
        self.n = g.dim // 2
        self.omega = omega

        d_omega = g.d(omega)
        if not d_omega.is_zero():
            raise NotClosed(f"d(omega) = {d_omega} != 0")

        self.L_op = _wedge_operator(omega)
        # omega^n = L^n 1, a 1 x 1 block that primitive_subspace(0) reuses.
        (self.volume_coeff,) = self.L_power_block(self.n, 0).column(0)
        if not self.volume_coeff:
            raise Degenerate("omega^n = 0")
        self.omega_top = Form.monomial(self.dim, range(1, self.dim + 1), self.volume_coeff)

        # Pairing of 1-forms: omega^{-1}(e^i, e^j) = (W^{-1})^T[i][j] for the
        # coefficient matrix W of omega; the Poisson bivector Pi has the same
        # coefficient matrix.
        self.pairing = inverse(_coefficient_matrix(omega)).transpose()

        self.Lambda_op = _contraction_operator(self.pairing)
        degrees = range(self.dim + 1)
        weights = {k: QMatrix.identity(comb(self.dim, k), self.n - k) for k in degrees}
        self.H_op = GradedOperator(self.dim, 0, weights)
        d, lam = self.d_block, self.lambda_block
        commutators = {
            k: combination([(1, d(k - 2), lam(k)), (-1, lam(k + 1), d(k))]) for k in degrees[1:]
        }
        self.dLambda_op = GradedOperator(self.dim, -1, commutators)
        self.ddLambda_op = GradedOperator(
            self.dim, 0, {k: d(k - 1) @ self.d_lambda_block(k) for k in degrees[1:]}
        )

        self._validate_sl2()

    @cached_property
    def pi(self) -> Bivector:
        """The Poisson bivector, whose contraction is -Lambda."""
        return Bivector.from_matrix(self.pairing)

    # -- the sl(2;R) triple and differentials --------------------------------

    def L(self, form: Form) -> Form:
        """Wedge with omega (degree +2)."""
        return self.L_op.apply(form)

    def lam(self, form: Form) -> Form:
        """Dual Lefschetz operator: minus contraction with the Poisson bivector."""
        return self.Lambda_op.apply(form)

    def h(self, form: Form) -> Form:
        """Weight operator: multiplication by (n - k) on degree k."""
        return self.H_op.apply(form)

    def d(self, form: Form) -> Form:
        return self.g.d(form)

    def d_lambda(self, form: Form) -> Form:
        """Normative route: d^Lambda = [d, Lambda] = d Lambda - Lambda d."""
        return self.dLambda_op.apply(form)

    def d_lambda_star_route(self, form: Form) -> Form:
        """Cross-check route: (-1)^k star d star on degree k.

        The parity matches the commutator route under this package's
        conventions (Lambda = -iota_Pi with Lambda(omega) = n); it is
        validated as an exact identity when the star blocks materialize.
        """
        result = self.star(self.d(self.star(form)))
        return -result if form.degree % 2 else result

    def dd_lambda(self, form: Form) -> Form:
        return self.ddLambda_op.apply(form)

    # -- block accessors ------------------------------------------------------

    def d_block(self, k: int) -> QMatrix:
        return self.g.d_op.block(k)

    def L_block(self, k: int) -> QMatrix:
        return self.L_op.block(k)

    def lambda_block(self, k: int) -> QMatrix:
        return self.Lambda_op.block(k)

    def h_block(self, k: int) -> QMatrix:
        return self.H_op.block(k)

    def d_lambda_block(self, k: int) -> QMatrix:
        return self.dLambda_op.block(k)

    def dd_lambda_block(self, k: int) -> QMatrix:
        """d d^Lambda as an endomorphism of the degree-k component."""
        return self.ddLambda_op.block(k)

    @_memo
    def L_power_block(self, r: int, k: int) -> QMatrix:
        """L^r from degree k to degree k + 2r."""
        if r <= 1:
            return self.L_block(k) if r else QMatrix.identity(comb(self.dim, k))
        return self.L_block(k + 2 * r - 2) @ self.L_power_block(r - 1, k)

    def lift(self, rows: QMatrix, r: int, k: int) -> QMatrix:
        """L^r of every degree-k row of *rows*, as rows: *rows* itself when r = 0."""
        return rows @ self.L_power_block(r, k).transpose() if r else rows

    # -- construction-time validation ----------------------------------------

    def _validate_sl2(self) -> None:
        lam_omega = self.lam(self.omega)
        expected = Form.unit(self.dim) * self.n
        if lam_omega != expected:
            raise InternalInconsistencyError(
                f"Lambda(omega) = {lam_omega}, expected {self.n}; "
                "contraction sign convention is broken"
            )
        L, lam = self.L_block, self.lambda_block
        for k in range(self.dim + 1):
            residual = combination(
                [(1, lam(k + 2), L(k)), (-1, L(k - 2), lam(k)), (-1, self.h_block(k))]
            )
            self._require(residual, k, k, "[Lambda, L] != H")

    def _require(self, residual: QMatrix, k: int, target: int, what: str) -> None:
        """Raise at the first failing monomial unless the degree-k residual is zero."""
        if not residual.is_zero():
            key, _ = nonzero_columns(residual, self.dim, k, target)[0]
            raise InternalInconsistencyError(f"{what} on degree {k} at e{key}")

    # -- symplectic star ------------------------------------------------------

    def _gram_blocks(self) -> Iterator[QMatrix]:
        """Gram matrices of the degree-k pairings (omega^{-1})^k, k = 0..dim, in turn.

        Entries are the k-minors det(omega^{-1}(e^{a_i}, e^{b_j})) in the
        lex basis.  With P the pairing matrix and D the lcm of its
        denominators, block k is C_k / D^k for C_k the k-th compound of the
        integer matrix D P, from one walk of `_compounds`.
        """
        top, den = _over_lcm(self.pairing.int_rows)
        for k, minors in enumerate(_compounds(top, self.dim)):
            yield QMatrix.from_ints([(row, den**k) for row in minors], len(minors))

    def pairing_matrix(self, k: int) -> QMatrix:
        """Gram matrix of the degree-k pairing (omega^{-1})^k in the lex basis."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"degree {k} outside 0..{self.dim}")
        return next(islice(self._gram_blocks(), k, None))

    @cached_property
    def star_op(self) -> GradedOperator:
        """Symplectic star, materialized from the defining wedge relation.

        For beta of degree k, star(beta) is the unique (2n-k)-form with
        alpha ^ star(beta) = (omega^{-1})^k(alpha, beta) omega^n / n!
        for all alpha.  The Liouville normalization omega^n / n! is what
        makes star an involution (star star = id fails by a factor n!^2
        with the bare top power).  The wedge pairing of complementary
        monomials is a signed permutation S_k (`wedge_pairing`), so block
        k is c S_k^T G_k for the Gram matrix G_k and the Liouville volume
        coefficient c: when row i of S_k is sign e_j, row j of the block
        is c sign G_k[i], moved and scaled with no product.
        """
        c, m, walk = self.volume_coeff / factorial(self.n), self.dim, self._gram_blocks()
        p, q = c.numerator, c.denominator
        blocks = {}
        for k in range(m + 1):
            # next(walk), not a loop variable, so each Gram block is freed before the next is built.
            gram, rows = next(walk), [({}, 1)] * comb(m, k)
            for (perm, _), (nums, den) in zip(wedge_pairing(m, k).int_rows, gram.int_rows):
                ((j, sign),) = perm.items()
                f = sign * p
                rows[j] = ({col: f * x for col, x in nums.items()}, q * den)
            blocks[k] = QMatrix.from_ints(rows, gram.ncols)
        op = GradedOperator(self.dim, None, blocks)
        self._validate_star(op)
        return op

    def star(self, form: Form) -> Form:
        return self.star_op.apply(form)

    def _validate_star(self, op: GradedOperator) -> None:
        """Involution, intertwining with the sl(2) triple, and the d^Lambda route.

        The involution star_{m-k} star_k = I is checked for k <= n only:
        each star_k is square, C(m, k) x C(m, k), so star_{m-k} star_k = I
        forces star_k star_{m-k} = I, the involution on degree m - k.  The
        accepted stars are the same as with every degree checked, and a
        block corrupted on a degree j > n fails on degree m - j, which
        the upward run reaches first in either case.
        With Lambda = -iota_Pi pinned by Lambda(omega) = n, the star
        identities come out as Lambda = star L star and
        d^Lambda = (-1)^k star d star; no choice of per-degree signs for
        star can produce the opposite composite signs, so these are the
        ones checked, as block equations on every degree k.  The degrees
        run upwards, so the involutions have made star_{k-2} and star_{k-1}
        invertible (star_j for j <= n by its own check, for j > n by that
        of m - j < j), and the two are checked with one product per term as
        star_{k-2} Lambda_k = L_{m-k} star_k and star_{k-1} d^Lambda_k =
        (-1)^k d_{m-k} star_k: each residual is that star times the triple
        product's, with the same zero columns and first failing monomial.
        """
        star, m = op.block, self.dim
        for k in range(m + 1):
            if k <= self.n:
                involution = combination(
                    [(1, star(m - k), star(k)), (-1, QMatrix.identity(comb(m, k)))]
                )
                self._require(involution, k, k, "star star != id")
            conjugate = combination(
                [(1, self.L_block(m - k), star(k)), (-1, star(k - 2), self.lambda_block(k))]
            )
            self._require(conjugate, k, m - k + 2, "Lambda != star L star")
            route = combination(
                [
                    (-1 if k % 2 else 1, self.d_block(m - k), star(k)),
                    (-1, star(k - 1), self.d_lambda_block(k)),
                ]
            )
            self._require(route, k, m - k + 1, "star route to d^Lambda disagrees")

    # -- primitive forms ------------------------------------------------------

    @_memo
    def primitive_subspace(self, k: int) -> Subspace:
        """Primitive degree-k forms: ker Lambda, cross-checked as ker L^{n-k+1}."""
        space = kernel(self.lambda_block(k))
        if k > self.n:
            if space.dim != 0:
                raise InternalInconsistencyError(
                    f"primitive forms of degree {k} > n = {self.n} should vanish"
                )
        else:
            power = self.n - k + 1
            if kernel(self.L_power_block(power, k)) != space:
                raise InternalInconsistencyError(
                    f"ker Lambda != ker L^{power} on degree {k}"
                )
        return space

    # -- Lefschetz decomposition ----------------------------------------------

    def lefschetz_decompose(self, form: Form) -> LefschetzComponents:
        """Primitive components of *form* via the closed-form projectors.

        The projectors are checked on the Darboux model `_darboux(n)`:
        its blocks P_{k,r} must satisfy Lambda P_{k,r} = 0 and
        sum_r (1/r!) L^r P_{k,r} = I, each failure raising
        InternalInconsistencyError at a monomial.  Each P_{k,r} is a fixed
        polynomial in L and Lambda, and construction checks
        [Lambda, L] = H, so these identities carry over to every omega:
        a finite-dimensional sl(2) representation is fixed by its
        H-weights, which are C(2n, k) for every omega.  On this structure
        the projectors are applied to the one-column block of *form*.
        The comparison with the independent linear-solve route
        (`lefschetz_decompose_by_projection`) runs in verify.
        """
        if form.dim != self.dim:
            raise DimMismatch(f"structure over dim {self.dim}, form over dim {form.dim}")
        k, model = form.degree, _darboux(self.n)
        identity = QMatrix.identity(comb(self.dim, k))
        reassembly = [(-1, identity)]
        for r, p in model._projected(k, identity).items():
            primitive = model.lambda_block(k - 2 * r) @ p
            model._require(primitive, k, k - 2 * r - 2, f"Lefschetz projector r={r} not primitive")
            c = Fraction(1, factorial(r))  # L^0 = I: the r = 0 term is P itself
            reassembly.append((c, model.L_power_block(r, k - 2 * r), p) if r else (c, p))
        model._require(
            combination(reassembly), k, k, "Lefschetz projectors do not sum to the identity"
        )
        column = QMatrix.from_sparse([form.sparse_vector()], identity.ncols).transpose()
        components = {
            r: Form.from_sparse(self.dim, k - 2 * r, p.transpose().sparse_rows[0])
            for r, p in self._projected(k, column).items()
        }
        return LefschetzComponents(k, self.n, components)

    def _projected(self, k: int, start: QMatrix) -> dict[int, QMatrix]:
        """P_{k,r} @ start for every r, start a block with C(2n, k) rows.

        P_{k,r} = sum_ell a_{r,ell,(n,k)} / ell! L^ell Lambda^{r+ell}, one
        `combination` per r over the chain Lambda^j start.
        """
        n, chain = self.n, [start]  # Lambda^j start lands on degree k - 2j
        for j in range(1, k // 2 + 1):
            chain.append(self.lambda_block(k - 2 * j + 2) @ chain[-1])
        projected = {}
        for r in _r_range(k, n):
            # L^0 = I, so the ell = 0 term is a_{r,0} Lambda^r start itself.
            terms = [(lefschetz_coefficient(r, 0, n, k), chain[r])]
            for ell, v in enumerate(chain[r + 1 :], 1):
                a = lefschetz_coefficient(r, ell, n, k) / factorial(ell)
                terms.append((a, self.L_power_block(ell, k - 2 * (r + ell)), v))
            projected[r] = combination(terms)
        return projected

    def lefschetz_decompose_by_projection(self, form: Form) -> LefschetzComponents:
        """Independent route: solve over the direct sum of L^r P^(k-2r)."""
        k = form.degree
        n = self.n
        prims = {r: self.primitive_subspace(k - 2 * r) for r in _r_range(k, n)}
        # One row per primitive basis vector B: L^r B, block by block in r.
        lifted = [self.lift(prim.basis, r, k - 2 * r) for r, prim in prims.items()]
        solution = solve(QMatrix.stacked(lifted).transpose(), form.coeff_vector())
        if solution is None:
            raise InternalInconsistencyError(
                f"degree-{k} form is not in the span of the Lefschetz summands"
            )
        components: dict[int, Form] = {}
        start = 0
        for r, prim in prims.items():
            coeffs = [x * factorial(r) for x in solution[start : start + prim.dim]]
            start += prim.dim
            (row,) = (QMatrix([coeffs], prim.dim) @ prim.basis).sparse_rows
            components[r] = Form.from_sparse(self.dim, k - 2 * r, row)
        return LefschetzComponents(k, n, components)


def _wedge_operator(omega: Form) -> GradedOperator:
    """L = omega ^ (-), from omega's integer coefficients over their lcm."""
    (nums, den), dim = _int_row(omega.coeffs), omega.dim
    blocks = {k: _wedge_columns(dim, k, nums.items(), den).transpose() for k in range(dim - 1)}
    return GradedOperator(dim, +2, blocks)


def _contraction_operator(pairing: QMatrix) -> GradedOperator:
    """Lambda = -iota_Pi, Pi the bivector with coefficient matrix *pairing* P.

    In the lex bases -iota_{e_a ^ e_b} is the transpose of e^{ab} ^ (-), so
    Lambda_k is the transposed degree-(k - 2) block of wedge with
    sum_{a<b} P_ab e^{ab}, over the lcm of the pairing's denominators.
    """
    (rows, den), dim = _over_lcm(pairing.int_rows), pairing.nrows
    pairs = [((i + 1, j + 1), x) for i, nums in enumerate(rows) for j, x in nums.items() if i < j]
    blocks = {k: _wedge_columns(dim, k - 2, pairs, den) for k in range(2, dim + 1)}
    return GradedOperator(dim, -2, blocks)


def _r_range(k: int, n: int) -> range:
    return range(max(k - n, 0), k // 2 + 1)


def _coefficient_matrix(omega: Form) -> QMatrix:
    """The antisymmetric matrix W of a 2-form: W[i][j] is the coefficient of e^{i+1, j+1}."""
    nums, den = _int_row(omega.coeffs)
    rows: list[dict[int, int]] = [{} for _ in range(omega.dim)]
    for (i, j), x in nums.items():
        rows[i - 1][j - 1], rows[j - 1][i - 1] = x, -x
    return QMatrix.from_ints([(row, den) for row in rows], omega.dim)


@lru_cache(maxsize=1)
def _darboux(n: int) -> SymplecticStructure:
    """The Darboux model, abelian R^{2n} with omega_0 = sum_i e^{2i-1,2i}; only the last is kept."""
    dim = 2 * n
    g = LieAlgebra(StructureEquations(dim, (Form.zero(dim, 2),) * dim))
    return SymplecticStructure(g, Form(dim, 2, {(2 * i - 1, 2 * i): 1 for i in range(1, n + 1)}))


def validate_symplectic(g: LieAlgebra, omega: Form) -> SymplecticStructure:
    """Validate (g, omega) and return the fully materialized structure."""
    return SymplecticStructure(g, omega)
