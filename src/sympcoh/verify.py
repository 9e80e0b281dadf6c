"""Seeded property verification across corpus and randomized structures.

Three suites, all exact:

* operator identities: the sl(2;R) commutators, the nine-entry
  commutation table of (d, d^Lambda, d d^Lambda) against (L, Lambda, H)
  and the squares and anticommutators of the differentials, each a
  block equation per degree whose residual is one
  `linalg.combination`, recorded one source monomial (column) at a
  time: a zero residual records its C(dim, k) passes in one step, and
  only a nonzero one is split into columns; the star identities on
  every structure; and the Lefschetz decomposition of seeded random
  forms, checked against the linear-solve route;
* theorems: the degree-2 decomposition, the vanishing intersection
  H^(k,0) meet H^(0,2k), H^(r,s) = L^r H^(0,s) in low total degree, and
  the one-dimensionality of H^(r,0);
* equivalences: HLC vs the dd^Lambda-lemma, the star dualities between
  the four cohomologies, the Lefschetz structure of H_(d+d^Lambda), the
  full-implies-dual-direct implication, cup-pairing non-degeneracy, and
  the torus rigidity of HLC among nilpotent algebras.

Random symplectic structures are produced by drawing a random closed
non-degenerate 2-form on a catalog algebra (each built once per
process) and applying a random invertible change of coframe, so validity
is guaranteed by construction while coefficients become generic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb

from .cohomology import SymplecticCohomology, is_abelian
from .errors import InternalInconsistencyError, SympcohError
from .exterior import Form, _compounds, monomial_basis, nonzero_columns
from .lie import LieAlgebra, build_lie_algebra
from .linalg import (
    QMatrix,
    Subspace,
    _over_lcm,
    combination,
    inverse,
    kernel,
    rref,
    subspace_intersect,
    subspace_sum,
)
from .parsing import StructureEquations, parse_structure_equations, render_structure
from .symplectic import SymplecticStructure, _coefficient_matrix, _r_range, validate_symplectic

__all__ = [
    "CheckResult",
    "VerifySummary",
    "random_symplectic_structure",
    "random_form",
    "transform_coframe",
    "verify_structure",
    "run_verify",
    "BASE_STRUCTURES",
]

# Catalog of symplectic-capable algebras used as seeds for randomization.
BASE_STRUCTURES: dict[int, tuple[str, ...]] = {
    2: ("0,0",),
    4: ("0,0,0,0", "0,0,0,12", "0,0,12,13", "14,-24,0,0"),
    6: (
        "0^6",
        "0,0,0,12,14-23,15+34",
        "-13,23,0,-56,46,0",
        "-23,0,0,-46,56,0",
        "0,12-45,-13+46,0,15-24,-16+34",
        "0,0,0,12,13,23",
    ),
    8: (
        "0^8",
        "0,0,0,12,14-23,15+34,0,0",
        "0,0,0,0,12,13,14,23",
        "-13,23,0,-56,46,0,0,0",
    ),
    10: ("0,0,0,[1,2],[1,4]-[2,3],[1,5]+[3,4],0,0,0,0",),
}


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, context: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(context)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class VerifySummary:
    seed: int
    structures: list[str]
    results: dict[str, CheckResult]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results.values())

    def format_text(self) -> str:
        lines = [
            f"verify: seed={self.seed}, structures={len(self.structures)}",
        ]
        width = max((len(name) for name in self.results), default=0)
        for name in sorted(self.results):
            result = self.results[name]
            status = "ok" if result.ok else "FAIL"
            lines.append(
                f"  {name.ljust(width)}  {result.passed:5d} pass  {result.failed:3d} fail  [{status}]"
            )
            for ctx in result.failures:
                lines.append(f"      failure: {ctx}")
        lines.append("all checks passed" if self.ok else "FAILURES DETECTED")
        return "\n".join(lines)


class _Recorder:
    def __init__(self):
        self.results: dict[str, CheckResult] = {}

    def __call__(self, name: str, ok: bool, context: str = "") -> None:
        self.results.setdefault(name, CheckResult(name)).record(ok, context)

    def passes(self, name: str, count: int) -> None:
        """Record *count* passes of one check in a single step."""
        self.results.setdefault(name, CheckResult(name)).passed += count

    def guard(self, name: str, context: str, thunk) -> None:
        """Run a check that raises on failure; record either way."""
        try:
            thunk()
        except SympcohError as exc:
            self(name, False, f"{context}: {exc}")
        else:
            self(name, True)


# ---------------------------------------------------------------------------
# random structures
# ---------------------------------------------------------------------------


def random_form(dim: int, degree: int, rng: random.Random, sparsity: int = 4) -> Form:
    """Seeded random form with small rational coefficients."""
    basis = monomial_basis(dim, degree)
    picks = rng.sample(range(len(basis)), min(sparsity, len(basis)))
    coeffs = {}
    for i in picks:
        num = rng.randint(-3, 3)
        den = rng.choice((1, 1, 2, 3))
        if num:
            coeffs[basis[i]] = Fraction(num, den)
    return Form(dim, degree, coeffs)


def transform_coframe(
    structure: StructureEquations, omega: Form, change: QMatrix
) -> tuple[StructureEquations, Form]:
    """Rewrite structure equations and omega in the coframe f^i = sum_j M_ij e^j.

    The result presents the same algebra and the same symplectic form in
    a new basis, so Jacobi, closedness, and non-degeneracy come for free.
    Under e = M^{-1} f a 2-form's row of coordinates is multiplied by the
    second compound C_2(M^{-1}), and d f = M d e, so the differentials are
    M D C_2(M^{-1}) for the matrix D whose rows are the d e^j.
    """
    dim, width = structure.dim, comb(structure.dim, 2)
    top, den = _over_lcm(inverse(change).int_rows)  # the integer matrix den * M^{-1}
    minors = next(islice(_compounds(top, dim), 2, None))  # and its C_2
    second = QMatrix.from_ints([(row, den * den) for row in minors], width)
    diffs = QMatrix.from_sparse([d.sparse_vector() for d in structure.differentials], width)
    rows = (change @ diffs @ second).sparse_rows
    new_diffs = tuple(Form.from_sparse(dim, 2, row) for row in rows)
    new_structure = StructureEquations(dim, new_diffs, "")
    new_structure = StructureEquations(dim, new_diffs, render_structure(new_structure))
    (new_omega,) = (QMatrix.from_sparse([omega.sparse_vector()], width) @ second).sparse_rows
    return new_structure, Form.from_sparse(dim, 2, new_omega)


def _random_change(dim: int, rng: random.Random) -> QMatrix:
    rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(2, 4)):
        op = rng.choice(("shear", "swap", "negate"))
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            c = Fraction(rng.choice((-2, -1, 1, 2)))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return QMatrix(rows)


def _random_closed_nondegenerate(g: LieAlgebra, rng: random.Random) -> Form | None:
    basis = kernel(g.d_op.block(2)).basis
    if not basis.nrows:
        return None
    for attempt in range(120):
        spread = 2 if attempt < 60 else 3
        draws = [rng.randint(-spread, spread) for _ in range(basis.nrows)]
        (row,) = (QMatrix([draws]) @ basis).sparse_rows
        candidate = Form.from_sparse(g.dim, 2, row)
        # omega^n = n! Pf(W) e^{1..2n}, and Pf(W)^2 = det W is nonzero when W has full rank.
        if rref(_coefficient_matrix(candidate))[2] == g.dim:
            return candidate
    return None


@lru_cache(maxsize=None)
def _catalog_algebra(text: str) -> LieAlgebra:
    """The parsed, Jacobi-checked algebra of a catalog text; cached and shared, so read only.

    A random structure is built on its own coframe-changed algebra, never on this one.
    """
    return build_lie_algebra(parse_structure_equations(text))


def random_symplectic_structure(
    dim: int, rng: random.Random, nilpotent_only: bool = False
) -> SymplecticStructure:
    """Seeded random valid symplectic structure on a dim-dimensional algebra."""
    from .lie import check_properties

    bases = list(BASE_STRUCTURES[dim])
    while True:
        text = rng.choice(bases)
        g = _catalog_algebra(text)
        if nilpotent_only and not check_properties(g).nilpotent:
            continue
        omega = _random_closed_nondegenerate(g, rng)
        if omega is None:
            continue
        structure, omega = transform_coframe(g.structure, omega, _random_change(dim, rng))
        return validate_symplectic(build_lie_algebra(structure), omega)


# ---------------------------------------------------------------------------
# per-structure suites
# ---------------------------------------------------------------------------


def operator_identity_suite(
    s: SymplecticStructure,
    check: _Recorder,
    rng: random.Random,
    label: str = "",
) -> None:
    dim, n = s.dim, s.n
    d, lam, L, h = s.d_block, s.lambda_block, s.L_block, s.h_block
    dl, ddl = s.d_lambda_block, s.dd_lambda_block

    # Each identity is a block equation: name -> (degree shift, the terms
    # of its residual on degree k, summed by `combination`).  The sign of
    # [d^Lambda, L] is forced by the others: from [d, L] = 0,
    # [d, Lambda] = d^Lambda and [Lambda, L] = H, the Jacobi identity
    # gives [d^Lambda, L] = [d, H] = d under this package's Lambda sign.
    table = {
        "commute_d_L": (3, lambda k: [(1, d(k + 2), L(k)), (-1, L(k + 1), d(k))]),
        "commute_dl_L_is_d": (
            1, lambda k: [(1, dl(k + 2), L(k)), (-1, L(k - 1), dl(k)), (-1, d(k))]
        ),
        "commute_ddl_L": (2, lambda k: [(1, ddl(k + 2), L(k)), (-1, L(k), ddl(k))]),
        "commute_d_Lambda_is_dl": (
            -1, lambda k: [(1, d(k - 2), lam(k)), (-1, lam(k + 1), d(k)), (-1, dl(k))]
        ),
        "commute_dl_Lambda": (-3, lambda k: [(1, dl(k - 2), lam(k)), (-1, lam(k - 1), dl(k))]),
        "commute_ddl_Lambda": (-2, lambda k: [(1, ddl(k - 2), lam(k)), (-1, lam(k), ddl(k))]),
        "commute_d_H_is_d": (1, lambda k: [(1, d(k), h(k)), (-1, h(k + 1), d(k)), (-1, d(k))]),
        "commute_dl_H_is_minus_dl": (
            -1, lambda k: [(1, dl(k), h(k)), (-1, h(k - 1), dl(k)), (1, dl(k))]
        ),
        "commute_ddl_H": (0, lambda k: [(1, ddl(k), h(k)), (-1, h(k), ddl(k))]),
        "sl2_lambda_L": (0, lambda k: [(1, lam(k + 2), L(k)), (-1, L(k - 2), lam(k)), (-1, h(k))]),
        "sl2_H_L": (2, lambda k: [(1, h(k + 2), L(k)), (-1, L(k), h(k)), (2, L(k))]),
        "sl2_H_Lambda": (-2, lambda k: [(1, h(k - 2), lam(k)), (-1, lam(k), h(k)), (-2, lam(k))]),
        "d_squared": (2, lambda k: [(1, d(k + 1), d(k))]),
        "d_lambda_squared": (-2, lambda k: [(1, dl(k - 1), dl(k))]),
        "anticommute_d_dl": (0, lambda k: [(1, d(k - 1), dl(k)), (1, dl(k + 1), d(k))]),
    }
    for k in range(dim + 1):
        width = comb(dim, k)
        for name, (shift, terms) in table.items():
            residual = combination(terms(k))
            if residual.is_zero():
                check.passes(name, width)
                continue
            bad = dict(nonzero_columns(residual, dim, k, k + shift))
            for key in monomial_basis(dim, k):
                if key in bad:
                    m = Form.monomial(dim, key)
                    check(name, False, f"{label} degree {k} at {m}: {bad[key]}")
                else:
                    check(name, True)

    check.guard("star_identities", label, lambda: s.star_op)

    for k in range(dim + 1):
        form = random_form(dim, k, rng, sparsity=3)
        check.guard(
            "lefschetz_reassembly",
            f"{label} degree {k}",
            lambda form=form: _lefschetz_against_projection(s, form),
        )

    for k in range(dim + 1):
        total = sum(s.primitive_subspace(k - 2 * r).dim for r in _r_range(k, n))
        check(
            "lefschetz_direct_sum_dims",
            total == comb(dim, k),
            f"{label} degree {k}: {total} != C({dim},{k})",
        )

    for k in range(n):
        check(
            "L_injective_below_middle",
            kernel(s.L_op.block(k)).dim == 0,
            f"{label} degree {k}",
        )
    for k in range(n + 1):
        _, _, rank = rref(s.L_power_block(k, n - k))
        check(
            "L_power_form_isomorphism",
            rank == comb(dim, n - k),
            f"{label} L^{k} on degree {n - k}",
        )


def _lefschetz_against_projection(s: SymplecticStructure, form: Form) -> None:
    """Decompose *form* by the closed-form projectors and by the linear solve."""
    parts = s.lefschetz_decompose(form)
    if parts.components != s.lefschetz_decompose_by_projection(form).components:
        raise InternalInconsistencyError(
            "closed-form Lefschetz projectors disagree with the linear-solve "
            f"decomposition of the degree-{form.degree} input"
        )


def theorem_suite(coh: SymplecticCohomology, check: _Recorder, label: str = "") -> None:
    check.guard("theorem_lr_equals_hr", label, coh.lr_equals_hr_check)
    # The rest needs [omega]^n != 0, which holds exactly on unimodular algebras.
    if not coh.properties.unimodular:
        return
    check.guard("theorem_h2_full_direct", label, coh.h2_decomposition_check)
    check.guard("theorem_hk0_meets_h02k", label, coh.intersection_remark_check)

    s = coh.s
    for r in range(1, s.n // 2 + 1):
        group = coh.hrs_group(r, 0)
        cls = coh.de_rham[2 * r].class_of(s.L_power_block(r, 0).column(0))
        ok = group.dim == 1 and group.classes.contains(cls)
        check("theorem_hr0_spanned_by_omega_r", ok, f"{label} r={r}: dim {group.dim}")


def equivalence_suite(
    coh: SymplecticCohomology, check: _Recorder, label: str = ""
) -> None:
    s = coh.s
    dim = s.dim
    check.guard("equiv_hlc_iff_dd_lemma", label, coh.hlc_equals_dd_lemma_check)

    dl_dual = all(coh.dlambda_dims[k] == coh.betti[dim - k] for k in range(dim + 1))
    check("equiv_dlambda_dual_de_rham", dl_dual, f"{label} {coh.dlambda_dims}")

    check.guard(
        "equiv_d_plus_dlambda_lefschetz", label, coh.d_plus_dlambda_lefschetz_check
    )

    for sdeg in range(s.n + 1):
        check.guard(
            "primitive_ph_formulas_agree",
            f"{label} degree {sdeg}",
            lambda sdeg=sdeg: coh.primitive_ph_plus(sdeg),
        )

    # Dualities need exact top-degree forms to vanish, which holds on unimodular algebras.
    if coh.properties.unimodular:
        ddl_dual = all(
            coh.ddlambda_dims[k] == coh.d_plus_dlambda[dim - k].dim for k in range(dim + 1)
        )
        check("equiv_ddlambda_dual_d_plus_dlambda", ddl_dual, f"{label} {coh.ddlambda_dims}")
        check.guard("prop_full_implies_dual_direct", label, coh.full_implies_dual_direct_check)
        for k in range(dim + 1):
            matrix = coh.cup_matrix(k)
            _, _, rank = rref(matrix)
            check(
                "cup_pairing_nondegenerate",
                rank == coh.betti[k] == coh.betti[dim - k],
                f"{label} degree {k}",
            )

    if coh.properties.nilpotent:
        check(
            "nilpotent_hlc_torus_rigidity",
            coh.hlc().overall == is_abelian(s.g),
            f"{label} nilpotent: hlc={coh.hlc().overall}",
        )

    if coh.hlc().overall:
        for k in range(dim + 1):
            verdict = coh.decomposition(k)
            check(
                "hlc_implies_full_direct",
                verdict.full and verdict.direct,
                f"{label} degree {k}: {verdict}",
            )
            # L^r is injective on H^(0,s) exactly while r + s <= n, so the
            # surviving summands start at r = max(k - n, 0).
            primitive_total = sum(coh.hrs_group(0, k - 2 * r).dim for r in _r_range(k, s.n))
            check(
                "hlc_implies_primitive_dims",
                primitive_total == coh.betti[k],
                f"{label} degree {k}: {primitive_total} != b_{k}",
            )


def verify_structure(
    s: SymplecticStructure, check: _Recorder, rng: random.Random, label: str = ""
) -> None:
    coh = SymplecticCohomology(s)
    operator_identity_suite(s, check, rng, label=label)
    theorem_suite(coh, check, label=label)
    equivalence_suite(coh, check, label=label)


# ---------------------------------------------------------------------------
# generic linear-algebra property checks
# ---------------------------------------------------------------------------


def _random_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(n)]


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> QMatrix:
    return QMatrix([_random_vector(rng, ncols) for _ in range(nrows)], ncols)


def linalg_suite(check: _Recorder, rng: random.Random) -> None:
    from .linalg import image

    for i in range(12):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = _random_matrix(rng, nrows, ncols)
        reduced, _, rank = rref(m)
        again, _, rank2 = rref(reduced)
        check("rref_idempotent", again == reduced and rank == rank2, f"round {i}")
        nullity = kernel(m).dim
        check("rank_nullity", nullity + rank == ncols, f"round {i}: {nullity} + {rank} != {ncols}")
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        check("image_contains_products", image(m).contains(m.apply(x)), f"round {i}")

        ambient = rng.randint(2, 6)
        a = Subspace.from_vectors(
            ambient, [_random_vector(rng, ambient) for _ in range(rng.randint(0, 3))]
        )
        b = Subspace.from_vectors(
            ambient, [_random_vector(rng, ambient) for _ in range(rng.randint(0, 3))]
        )
        lhs = a.dim + b.dim
        rhs = subspace_sum(a, b).dim + subspace_intersect(a, b).dim
        check("subspace_modular_law", lhs == rhs, f"round {i}: {lhs} != {rhs}")


def exterior_suite(check: _Recorder, rng: random.Random) -> None:
    for i in range(10):
        dim = rng.choice((4, 5, 6))
        ka = rng.randint(0, dim)
        kb = rng.randint(0, dim)
        a = random_form(dim, ka, rng)
        b = random_form(dim, kb, rng)
        sign = -1 if (ka * kb) % 2 else 1
        check(
            "wedge_graded_commutative",
            a.wedge(b) == b.wedge(a) * sign,
            f"round {i}: degrees {ka},{kb}",
        )
        kc = rng.randint(0, dim)
        c = random_form(dim, kc, rng)
        check(
            "wedge_associative",
            a.wedge(b).wedge(c) == a.wedge(b.wedge(c)),
            f"round {i}",
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_verify(
    seed: int = 0,
    dims: tuple[int, ...] = (4, 6),
    count_per_dim: int = 4,
    include_corpus: bool = True,
) -> VerifySummary:
    """Run every suite over the corpus and seeded random structures."""
    from .models import corpus
    from .report import structure_from_model

    rng = random.Random(seed)
    check = _Recorder()
    labels: list[str] = []

    linalg_suite(check, rng)
    exterior_suite(check, rng)

    jobs: list[tuple[str, SymplecticStructure]] = []
    if include_corpus:
        for model in corpus():
            jobs.append((model.name, structure_from_model(model)))
    for dim in dims:
        for i in range(count_per_dim):
            jobs.append((f"random-{dim}d-{i}", random_symplectic_structure(dim, rng)))

    for label, s in jobs:
        labels.append(label)
        verify_structure(s, check, rng, label=label)

    return VerifySummary(seed=seed, structures=labels, results=check.results)
