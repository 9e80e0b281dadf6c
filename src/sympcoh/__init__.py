"""Exact symplectic Hodge theory on Lie algebras.

Given a Lie algebra presented by structure equations and an invariant
symplectic form, this package computes -- in exact rational arithmetic --
the Lefschetz decomposition, the symplectic star and d^Lambda, the de
Rham / d^Lambda / (d+d^Lambda) / dd^Lambda cohomologies with their
primitive variants, the subgroups of classes represented by
omega^r wedge (primitive s-form), and the Hard Lefschetz and
dd^Lambda-lemma decisions.
"""

from .cohomology import (
    CohomologySpace,
    DecompositionVerdict,
    HlcResult,
    HrsGroup,
    SymplecticCohomology,
    de_rham_cohomology,
    is_abelian,
)
from .errors import (
    AmbientMismatch,
    Degenerate,
    DimMismatch,
    EntryCountMismatch,
    IndexOutOfRange,
    InputError,
    InternalInconsistencyError,
    JacobiViolation,
    MathValidationError,
    MixedDegree,
    ModelFileError,
    NotClosed,
    NotInSubspace,
    NotSubspace,
    NotUnimodular,
    OddDimension,
    ParseError,
    SympcohError,
)
from .exterior import (
    Bivector,
    Form,
    GradedOperator,
    contract,
    interior,
    merge_with_sign,
    monomial_basis,
    operator_matrix,
    render_form,
    sort_with_sign,
    top_coefficient,
    wedge,
)
from .lie import AlgebraProperties, LieAlgebra, build_lie_algebra, check_properties
from .linalg import (
    QMatrix,
    QuotientSpace,
    Rational,
    Subspace,
    image,
    inverse,
    kernel,
    quotient_structure,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
)
from .models import ModelFile, corpus, corpus_model, corpus_names, load_model, parse_model_text
from .parsing import (
    MAX_DIM,
    StructureEquations,
    parse_form,
    parse_structure_equations,
    render_structure,
)
from .report import Report, run_compute, structure_from_model
from .symplectic import (
    LefschetzComponents,
    SymplecticStructure,
    lefschetz_coefficient,
    validate_symplectic,
)


def _on_first_use(name: str):
    """Submodule *name*, registered in sys.modules; its code runs on first attribute access."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# No `run_compute` caller needs `verify`, so it is compiled and run on first use.
# `import sympcoh` still lists it in sys.modules, and its public names resolve
# through __getattr__.
verify = _on_first_use("verify")
_VERIFY_NAMES = frozenset(
    {"VerifySummary", "random_form", "random_symplectic_structure", "run_verify",
     "transform_coframe"}
)


def __getattr__(name: str):
    """A public name of `verify`, loaded and cached on first access (PEP 562)."""
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(verify, name)
    return value


__version__ = "0.1.0"

__all__ = [
    "AlgebraProperties",
    "AmbientMismatch",
    "Bivector",
    "CohomologySpace",
    "DecompositionVerdict",
    "Degenerate",
    "DimMismatch",
    "EntryCountMismatch",
    "Form",
    "GradedOperator",
    "HlcResult",
    "HrsGroup",
    "IndexOutOfRange",
    "InputError",
    "InternalInconsistencyError",
    "JacobiViolation",
    "LefschetzComponents",
    "LieAlgebra",
    "MAX_DIM",
    "MathValidationError",
    "MixedDegree",
    "ModelFile",
    "ModelFileError",
    "NotClosed",
    "NotInSubspace",
    "NotSubspace",
    "NotUnimodular",
    "OddDimension",
    "ParseError",
    "QMatrix",
    "QuotientSpace",
    "Rational",
    "Report",
    "StructureEquations",
    "Subspace",
    "SympcohError",
    "SymplecticCohomology",
    "SymplecticStructure",
    "VerifySummary",
    "build_lie_algebra",
    "check_properties",
    "contract",
    "corpus",
    "corpus_model",
    "corpus_names",
    "de_rham_cohomology",
    "image",
    "interior",
    "inverse",
    "is_abelian",
    "kernel",
    "lefschetz_coefficient",
    "load_model",
    "merge_with_sign",
    "monomial_basis",
    "operator_matrix",
    "parse_form",
    "parse_model_text",
    "parse_structure_equations",
    "quotient_structure",
    "random_form",
    "random_symplectic_structure",
    "render_form",
    "render_structure",
    "rref",
    "run_compute",
    "run_verify",
    "solve",
    "sort_with_sign",
    "structure_from_model",
    "subspace_intersect",
    "subspace_sum",
    "top_coefficient",
    "transform_coframe",
    "validate_symplectic",
    "wedge",
]
