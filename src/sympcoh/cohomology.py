"""Cohomology of the invariant complex and the symplectic decision procedures.

De Rham (Chevalley-Eilenberg), d^Lambda, (d + d^Lambda), d d^Lambda and
the primitive cohomologies, all as exact finite quotients; the subgroups
of classes representable as omega^r wedge (primitive s-form); fullness
and directness of the induced decompositions; the Hard Lefschetz and
d d^Lambda-lemma decisions; and the top-degree cup pairing.

Class representatives follow the harmonic convention: the canonical
basis of the orthogonal complement of the exact forms inside the closed
forms, with respect to the standard inner product on coefficient
vectors (the one induced by declaring the coframe orthonormal).

Every cohomology is a `CohomologySpace`: numerator, denominator and a
label over one `linalg.QuotientSpace`, which checks the inclusion on
construction and builds its representatives on first use.  Each decision
asks which classes a block of closed forms spans in a target cohomology;
`CohomologySpace.classes_of` answers with one `class_rows` product and
one elimination.  H^(r,s) for r >= 1 is the span of M ker(d M), a basis
of the closed part of L^r P^s = im M; H^(0,s) that of the closed
primitive forms; and L^r H^(0,s) that of L^r of the H^(0,s)
representatives.  Hard Lefschetz (of H_dR and of H_(d+d^Lambda))
holds at k when L^k of the H^(n-k) representatives spans dim H^(n-k) =
dim H^(n+k) classes, and the dd^Lambda-lemma in degree k when the
H_(d+d^Lambda) representatives span as many de Rham classes as there are
of them.  The H^(r,s) of one degree are summed by one elimination of
their stacked class bases, and the cup pairing is V S W^T for the
representative bases V, W and the signed permutation S of
`exterior.wedge_pairing`.  Kernels and images that two cohomologies
share are computed once per engine: ker [d; d^Lambda; Lambda] for both
primitive cohomologies and H^(0,s) (on ker d meet ker Lambda, d^Lambda
vanishes), im d^Lambda for the d^Lambda and d d^Lambda cohomologies,
the RREF basis of im d d^Lambda for H_(d+d^Lambda) and im d d^Lambda
meet P, and im d from de Rham.

Checks backed by theorems run in assert mode: a failure raises
InternalInconsistencyError, an implementation bug and never a
mathematical discovery.  They are every quotient's inclusion and class
coordinates, H^(r,s) = L^r H^(0,s) in low total degree, the HLC /
dd^Lambda-lemma equivalence and, on unimodular algebras (where
[omega]^n != 0), the degree-2 decomposition, H^(k,0) meet H^(0,2k) = 0
and full-implies-dual-direct; elsewhere these raise NotUnimodular.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Mapping, Sequence

from ._value import Frozen
from .errors import (
    AmbientMismatch, InternalInconsistencyError, NotInSubspace, NotSubspace, NotUnimodular,
)
from .exterior import Form, wedge_pairing
from .lie import AlgebraProperties, LieAlgebra, check_properties
from .linalg import (
    QMatrix,
    QuotientSpace,
    Subspace,
    Vector,
    image,
    kernel,
    subspace_sum,
)
from .symplectic import SymplecticStructure, _memo, _r_range

__all__ = [
    "CohomologySpace",
    "HrsGroup",
    "DecompositionVerdict",
    "HlcResult",
    "de_rham_cohomology",
    "SymplecticCohomology",
    "is_abelian",
]


class CohomologySpace:
    """One degree of a ker/im quotient with harmonic representatives.

    *ambient_dim* is the algebra's dimension; a coordinate row has length
    C(ambient_dim, degree), the numerator's `ambient_dim`.  The
    constructor builds the `QuotientSpace`, which checks that the
    denominator lies in the numerator; its representatives are built on
    first use.  *label* names the cohomology in the errors.

    Two failure policies, split by who supplies the rows.  `classes_of`
    and `class_matrix` take rows the engine built, each closed by a
    theorem (d^2 = 0 and its relatives), so a row outside the numerator
    is a bug and raises InternalInconsistencyError, as a failed inclusion
    on construction does.  `class_of` takes a caller's form, which may
    simply not be closed: it lets the bare NotInSubspace through.
    """

    def __init__(
        self, dim_forms: int, degree: int, numerator: Subspace, denominator: Subspace,
        label: str = "cohomology",
    ):
        self.ambient_dim = dim_forms
        self.degree = degree
        self.numerator = numerator
        self.denominator = denominator
        self.label = label
        try:
            self.quotient = QuotientSpace(numerator, denominator)
        except NotSubspace as exc:
            raise self._error(str(exc)) from None

    def _error(self, what: str) -> InternalInconsistencyError:
        return InternalInconsistencyError(f"{self.label} in degree {self.degree}: {what}")

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def representative_rows(self) -> QMatrix:
        """The representatives as lex coordinate rows, one per basis class."""
        return self.quotient.complement.basis

    @cached_property
    def representatives(self) -> tuple[Form, ...]:
        return _forms(self.ambient_dim, self.degree, self.representative_rows)

    def class_matrix(self, rows: QMatrix) -> QMatrix:
        """Class coordinates of every row of *rows*, one column per row."""
        return self._class_rows(rows).transpose()

    def _class_rows(self, rows: QMatrix) -> QMatrix:
        try:
            return self.quotient.class_rows(rows)
        except NotInSubspace as exc:
            raise self._error(str(exc)) from None

    def classes_of(self, rows: QMatrix) -> Subspace:
        """Span of the classes of the closed rows *rows*, in class coordinates."""
        return Subspace.spanned(self._class_rows(rows))

    def class_of(self, form: Form | Sequence) -> Vector:
        """Class coordinates of a cocycle; NotInSubspace if it is not closed."""
        if not isinstance(form, Form):
            row = QMatrix([form])
        elif (form.dim, form.degree) != (self.ambient_dim, self.degree):
            raise AmbientMismatch(
                f"degree-{form.degree} form over dim {form.dim} in the degree-"
                f"{self.degree} cohomology over dim {self.ambient_dim}"
            )
        else:
            row = QMatrix.from_sparse([form.sparse_vector()], self.numerator.ambient_dim)
        return self.quotient.class_rows(row).rows[0]


def de_rham_cohomology(g: LieAlgebra) -> tuple[CohomologySpace, ...]:
    """H^k(g) = ker d_k / im d_{k-1} for every degree, with representatives."""
    spaces = []
    for k in range(g.dim + 1):
        closed = kernel(g.d_op.block(k))
        exact = image(g.d_op.block(k - 1))
        spaces.append(CohomologySpace(g.dim, k, closed, exact, "H_dR"))
    return tuple(spaces)


def is_abelian(g: LieAlgebra) -> bool:
    return all(entry.is_zero() for entry in g.structure.differentials)


def _forms(dim: int, degree: int, rows: QMatrix) -> tuple[Form, ...]:
    return tuple(Form.from_sparse(dim, degree, row) for row in rows.sparse_rows)


class HrsGroup(Frozen):
    """Classes of omega^r wedge (closed primitive s-form) inside H^{2r+s}.

    *representative_rows* holds one lex coordinate row per basis class,
    forms over dimension *ambient_dim*; `representatives` builds their
    Forms on first read.
    """

    _fields = ("r", "s", "degree", "dim", "classes", "representative_rows", "ambient_dim")

    def __init__(self, r: int, s: int, degree: int, dim: int, classes: Subspace,
                 representative_rows: QMatrix, ambient_dim: int):
        self.__dict__.update(r=r, s=s, degree=degree, dim=dim, classes=classes,
                             representative_rows=representative_rows, ambient_dim=ambient_dim)

    @cached_property
    def representatives(self) -> tuple[Form, ...]:
        return _forms(self.ambient_dim, self.degree, self.representative_rows)


class DecompositionVerdict(Frozen):
    _fields = ("degree", "summand_dims", "sum_dim", "direct", "full")

    def __init__(self, degree: int, summand_dims: Mapping[tuple[int, int], int], sum_dim: int,
                 direct: bool, full: bool):
        self.__dict__.update(degree=degree, summand_dims=summand_dims, sum_dim=sum_dim,
                             direct=direct, full=full)


class HlcResult(Frozen):
    _fields = ("per_degree", "overall")

    def __init__(self, per_degree: tuple[bool, ...], overall: bool):
        # per_degree[k]: L^k is an isomorphism from H^{n-k} to H^{n+k}
        self.__dict__.update(per_degree=per_degree, overall=overall)


class SymplecticCohomology:
    """All cohomological invariants of one symplectic structure, memoized."""

    def __init__(self, s: SymplecticStructure):
        self.s = s

    # -- the four cohomologies -------------------------------------------

    @cached_property
    def properties(self) -> AlgebraProperties:
        return check_properties(self.s.g)

    @cached_property
    def de_rham(self) -> tuple[CohomologySpace, ...]:
        return de_rham_cohomology(self.s.g)

    @cached_property
    def betti(self) -> tuple[int, ...]:
        return tuple(space.dim for space in self.de_rham)

    @_memo
    def _dlambda_image(self, k: int) -> Subspace:
        """im d^Lambda_k, shared by the d^Lambda and d d^Lambda cohomologies."""
        return image(self.s.d_lambda_block(k))

    @_memo
    def _ddlambda_image(self, k: int) -> Subspace:
        """im d d^Lambda_k, shared by H_(d+d^Lambda) and the primitive (d+d^Lambda)-cohomology."""
        return image(self.s.dd_lambda_block(k))

    @cached_property
    def dlambda_dims(self) -> tuple[int, ...]:
        return tuple(
            CohomologySpace(
                self.s.dim, k, kernel(self.s.d_lambda_block(k)), self._dlambda_image(k + 1),
                "H_dLambda",
            ).dim
            for k in range(self.s.dim + 1)
        )

    @cached_property
    def d_plus_dlambda(self) -> tuple[CohomologySpace, ...]:
        """ker [d; d^Lambda] / im(d d^Lambda), degree by degree."""
        spaces = []
        for k in range(self.s.dim + 1):
            numerator = kernel(QMatrix.stacked([self.s.d_block(k), self.s.d_lambda_block(k)]))
            spaces.append(
                CohomologySpace(self.s.dim, k, numerator, self._ddlambda_image(k), "H_(d+dLambda)")
            )
        return tuple(spaces)

    @cached_property
    def ddlambda_dims(self) -> tuple[int, ...]:
        """ker(d d^Lambda) / (im d + im d^Lambda), dimensions only."""
        return tuple(
            CohomologySpace(
                self.s.dim, k, kernel(self.s.dd_lambda_block(k)),
                subspace_sum(self.de_rham[k].denominator, self._dlambda_image(k + 1)),
                "H_ddLambda",
            ).dim
            for k in range(self.s.dim + 1)
        )

    # -- primitive cohomologies --------------------------------------------

    @_memo
    def primitive_ph_plus(self, sdeg: int) -> CohomologySpace:
        """Primitive (d + d^Lambda)-cohomology in degree sdeg.

        Computed both as
          ker [d; d^Lambda; Lambda] / (im d d^Lambda meet P)   and
          ker [d; Lambda] / d d^Lambda(P),
        where P = ker Lambda is the primitive subspace; the two dimensions
        are asserted equal, and the first quotient is returned.  The meet
        comes from the RREF basis B of im d d^Lambda that H_(d+d^Lambda)
        shares, as K B for the RREF basis K of ker(Lambda B^T); K B is in
        RREF already, by the argument of `QuotientSpace.complement`.
        """
        s = self.s
        prim = s.primitive_subspace(sdeg)
        d, lam, ddl = s.d_block(sdeg), s.lambda_block(sdeg), s.dd_lambda_block(sdeg)
        image_basis = self._ddlambda_image(sdeg).basis
        meet = Subspace(kernel(lam @ image_basis.transpose()).basis @ image_basis)
        space = CohomologySpace(s.dim, sdeg, self._closed_primitive(sdeg), meet, "PH_(d+dLambda)")
        second = CohomologySpace(
            s.dim, sdeg, kernel(QMatrix.stacked([d, lam])),
            Subspace.spanned(prim.basis @ ddl.transpose()),
            "PH_(d+dLambda) as ker [d; Lambda] / d dLambda(P)",
        )
        if space.dim != second.dim:
            raise InternalInconsistencyError(
                f"the two primitive (d+d^Lambda) formulas disagree in degree {sdeg}: "
                f"{space.dim} vs {second.dim}"
            )
        return space

    @_memo
    def _closed_primitive(self, sdeg: int) -> Subspace:
        """ker [d; d^Lambda; Lambda] in degree sdeg: both primitive cohomologies and H^(0,sdeg)."""
        s = self.s
        blocks = [s.d_block(sdeg), s.d_lambda_block(sdeg), s.lambda_block(sdeg)]
        return kernel(QMatrix.stacked(blocks))

    def primitive_ph_d(self, sdeg: int) -> int:
        """dim of the primitive d-cohomology in degree sdeg.

        ker [d; d^Lambda; Lambda] / d(ker [Lambda; d^Lambda] one degree down).
        """
        s = self.s
        # The primitive subspaces are not needed here, but building them
        # runs the ker Lambda = ker L^{n-k+1} cross-check on both degrees.
        s.primitive_subspace(sdeg)
        numerator = self._closed_primitive(sdeg)
        if sdeg == 0:
            return numerator.dim
        s.primitive_subspace(sdeg - 1)
        source = kernel(
            QMatrix.stacked([s.lambda_block(sdeg - 1), s.d_lambda_block(sdeg - 1)])
        )
        denominator = Subspace.spanned(source.basis @ s.d_block(sdeg - 1).transpose())
        return CohomologySpace(s.dim, sdeg, numerator, denominator, "PH_d").dim

    # -- the (r, s) subgroups ------------------------------------------------

    @_memo
    def hrs_group(self, r: int, s: int) -> HrsGroup:
        degree = 2 * r + s
        dim = self.s.dim
        if r < 0 or s < 0 or degree > dim or s > dim:
            return HrsGroup(r, s, degree, 0, Subspace.zero(0), QMatrix.zeros(0, 0), dim)
        prim = self.s.primitive_subspace(s)
        if not prim.dim or r + s > self.s.n:
            # Zero by degree: L^r kills primitive s-forms once r + s > n.
            return HrsGroup(
                r, s, degree, 0, Subspace.zero(self.betti[degree]),
                QMatrix.zeros(0, comb(dim, degree)), dim,
            )
        space = self.de_rham[degree]
        if r:
            # L^r P^s is the image of M = L^r_s P^T, injective as r + s <= n, so
            # M ker(d M) is a basis of its closed part.
            lifted = self.s.lift(prim.basis, r, s)  # the rows of M^T
            closed_part = kernel(self.s.d_block(degree) @ lifted.transpose()).basis @ lifted
        else:
            # ker d meet ker Lambda: d^Lambda = d Lambda - Lambda d vanishes on it.
            closed_part = self._closed_primitive(s).basis
        classes = space.classes_of(closed_part)
        rows = classes.basis @ space.representative_rows
        return HrsGroup(r, s, degree, classes.dim, classes, rows, dim)

    @_memo
    def decomposition(self, degree: int) -> DecompositionVerdict:
        """Sum of all H^(r,s) with 2r+s = degree: directness and fullness."""
        groups = [self.hrs_group(r, degree - 2 * r) for r in range(degree // 2 + 1)]
        summands = {(group.r, group.s): group.dim for group in groups}
        sum_dim = Subspace.spanned(QMatrix.stacked([group.classes.basis for group in groups])).dim
        return DecompositionVerdict(
            degree=degree,
            summand_dims=summands,
            sum_dim=sum_dim,
            direct=sum_dim == sum(summands.values()),
            full=sum_dim == self.betti[degree],
        )

    # -- maps induced on cohomology -------------------------------------------

    def l_cohomology_matrix(self, power: int, from_degree: int) -> QMatrix:
        """Matrix of L^power from H^from_degree to H^{from_degree + 2 power}.

        The `class_matrix` of L^power of the representatives, well-defined
        because [d, L] = 0.  The decisions take `classes_of` instead.
        """
        lifted = self.s.lift(self.de_rham[from_degree].representative_rows, power, from_degree)
        return self.de_rham[from_degree + 2 * power].class_matrix(lifted)

    def _lefschetz_iso(self, spaces: Sequence[CohomologySpace], k: int) -> bool:
        """Whether L^k maps spaces[n - k] isomorphically onto spaces[n + k]."""
        n = self.s.n
        low, high = spaces[n - k], spaces[n + k]
        if low.dim != high.dim:
            return False
        return high.classes_of(self.s.lift(low.representative_rows, k, n - k)).dim == low.dim

    @_memo
    def hlc(self) -> HlcResult:
        """Hard Lefschetz: L^k iso on cohomology for every k in 0..n."""
        per_degree = tuple(self._lefschetz_iso(self.de_rham, k) for k in range(self.s.n + 1))
        return HlcResult(per_degree, all(per_degree))

    @_memo
    def dd_lemma_per_degree(self) -> tuple[bool, ...]:
        """Injectivity of H_{d+d^Lambda} -> H_dR, degree by degree."""
        return tuple(
            self.de_rham[k].classes_of(space.representative_rows).dim == space.dim
            for k, space in enumerate(self.d_plus_dlambda)
        )

    def dd_lemma(self) -> bool:
        return all(self.dd_lemma_per_degree())

    # -- pairings ----------------------------------------------------------------

    def cup_pairing(self, class_a: Sequence, k: int, class_b: Sequence) -> Fraction:
        """a M b^T for the classes a in H^k, b in H^{2n-k} and M = `cup_matrix(k)`.

        Well-defined on classes only for unimodular algebras (top-degree
        exact forms vanish); checked.
        """
        a, b = QMatrix([class_a], len(class_a)), QMatrix([class_b], len(class_b))
        return (a @ self.cup_matrix(k) @ b.transpose()).sparse_rows[0].get(0, Fraction(0))

    def cup_matrix(self, k: int) -> QMatrix:
        """Pairing matrix H^k x H^{2n-k} in representative bases: V S W^T."""
        self._require_unimodular("cup pairing on classes")
        low = self.de_rham[k].representative_rows
        high = self.de_rham[self.s.dim - k].representative_rows
        return low @ wedge_pairing(self.s.dim, k) @ high.transpose()

    def _require_unimodular(self, what: str) -> None:
        if not self.betti[-1]:  # H^top(g) = 0 exactly when tr ad != 0
            raise NotUnimodular(f"{what} needs a unimodular algebra")

    # -- theorem-backed consistency checks (assert mode) --------------------------

    def h2_decomposition_check(self) -> DecompositionVerdict:
        """H^2 = H^(1,0) + H^(0,2), full and direct: a theorem when unimodular."""
        self._require_unimodular("the H^2 decomposition")
        verdict = self.decomposition(2)
        if not (verdict.full and verdict.direct):
            raise InternalInconsistencyError(f"H^2 decomposition failed: {verdict}")
        return verdict

    def intersection_remark_check(self) -> dict[int, bool]:
        """H^(k,0) meet H^(0,2k) = 0 for k in 1..floor(n/2), when unimodular."""
        self._require_unimodular("the intersection remark")
        results = {}
        for k in range(1, self.s.n // 2 + 1):
            a = self.hrs_group(k, 0)
            b = self.hrs_group(0, 2 * k)
            # dim(a meet b) = dim a + dim b - dim(a + b)
            meet = a.dim + b.dim - subspace_sum(a.classes, b.classes).dim
            if meet:
                raise InternalInconsistencyError(
                    f"H^({k},0) meet H^(0,{2 * k}) is {meet}-dimensional"
                )
            results[k] = True
        return results

    def lr_equals_hr_check(self) -> dict[tuple[int, int], bool]:
        """H^(r,s) = L^r H^(0,s) whenever 2r + s <= n."""
        results = {}
        n = self.s.n
        for s in range(n + 1):
            for r in range((n - s) // 2 + 1):
                if r == 0:
                    results[(0, s)] = True
                    continue
                lifted = self.s.lift(self.hrs_group(0, s).representative_rows, r, s)
                pushed = self.de_rham[2 * r + s].classes_of(lifted)
                if pushed != self.hrs_group(r, s).classes:
                    raise InternalInconsistencyError(
                        f"H^({r},{s}) != L^{r} H^(0,{s})"
                    )
                results[(r, s)] = True
        return results

    def hlc_equals_dd_lemma_check(self) -> bool:
        hlc = self.hlc().overall
        lemma = self.dd_lemma()
        if hlc != lemma:
            raise InternalInconsistencyError(
                f"HLC ({hlc}) and dd^Lambda-lemma ({lemma}) verdicts disagree"
            )
        return hlc

    def d_plus_dlambda_lefschetz_check(self) -> bool:
        """Own Hard Lefschetz of H_{d+d^Lambda}: L^k iso and primitive dims.

        Both hold unconditionally (the sl(2;R) action descends), so a
        failure raises.
        """
        n = self.s.n
        for k in range(n + 1):
            if not self._lefschetz_iso(self.d_plus_dlambda, k):
                raise InternalInconsistencyError(
                    f"L^{k} is not an isomorphism from H^{n - k}_(d+d^Lambda) "
                    f"to H^{n + k}_(d+d^Lambda)"
                )
        for k in range(self.s.dim + 1):
            # Summands with r < k - n vanish: L^r kills primitives of
            # degree s once r + s > n, exactly as for forms.
            primitive_total = sum(self.primitive_ph_plus(k - 2 * r).dim for r in _r_range(k, n))
            if primitive_total != self.d_plus_dlambda[k].dim:
                raise InternalInconsistencyError(
                    f"H^{k}_(d+d^Lambda) != direct sum of L^r PH^(k-2r) ({primitive_total})"
                )
        return True

    def full_implies_dual_direct_check(self) -> dict[int, bool]:
        """If the degree-k sum is full, the degree-(2n-k) sum is direct (unimodular)."""
        self._require_unimodular("full-implies-dual-direct")
        results = {}
        for k in range(self.s.dim + 1):
            verdict = self.decomposition(k)
            if verdict.full:
                dual = self.decomposition(self.s.dim - k)
                if not dual.direct:
                    raise InternalInconsistencyError(
                        f"degree-{k} sum full but degree-{self.s.dim - k} sum not direct"
                    )
            results[k] = True
        return results
