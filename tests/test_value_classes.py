"""The package's value classes compare, hash and print field by field.

They are plain classes on `sympcoh._value`.  The reprs below were printed
by the `@dataclass` versions they replace, and error messages embed them
(`H^2 decomposition failed: DecompositionVerdict(...)`), so they must not
change.  A frozen class hashes by field and refuses assignment; a mutable
one is unhashable.
"""

from fractions import Fraction
from inspect import signature

import pytest

from sympcoh import (
    AlgebraProperties,
    Bivector,
    DecompositionVerdict,
    Form,
    GradedOperator,
    HlcResult,
    HrsGroup,
    LefschetzComponents,
    ModelFile,
    ModelFileError,
    QMatrix,
    QuotientSpace,
    Report,
    StructureEquations,
    Subspace,
)
from sympcoh.parsing import _RawTerm
from sympcoh.verify import CheckResult, VerifySummary


def _instances():
    return {
        HrsGroup: HrsGroup(1, 0, 2, 0, Subspace.zero(1), QMatrix.zeros(0, 1), 2),
        DecompositionVerdict: DecompositionVerdict(3, {(0, 3): 2, (1, 1): 2}, 2, False, False),
        HlcResult: HlcResult((True, False, False, True), False),
        Bivector: Bivector(4, {(1, 2): Fraction(1, 2), (2, 3): 0}),
        GradedOperator: GradedOperator(2, 1, {}),
        AlgebraProperties: AlgebraProperties(True, True, False),
        Subspace: Subspace(QMatrix([[1, 0, 2]])),
        QuotientSpace: QuotientSpace(Subspace.full(2), Subspace.zero(2)),
        ModelFile: ModelFile("m", "0,0", omega="12"),
        StructureEquations: StructureEquations(2, (Form.zero(2, 2), Form.zero(2, 2)), "0,0"),
        _RawTerm: _RawTerm(Fraction(3), (1, 2), 0, False),
        Report: Report({"model": {"name": "m"}}),
        LefschetzComponents: LefschetzComponents(2, 1, {}),
        CheckResult: CheckResult("x"),
        VerifySummary: VerifySummary(0, ["s"], {"x": CheckResult("x", 1)}),
    }


# Printed by the @dataclass classes for the instances above.
DATACLASS_REPRS = {
    HrsGroup: "HrsGroup(r=1, s=0, degree=2, dim=0, classes=Subspace(basis=QMatrix([])), "
              "representative_rows=QMatrix([]), ambient_dim=2)",
    DecompositionVerdict: "DecompositionVerdict(degree=3, summand_dims={(0, 3): 2, (1, 1): 2}, "
                          "sum_dim=2, direct=False, full=False)",
    HlcResult: "HlcResult(per_degree=(True, False, False, True), overall=False)",
    Bivector: "Bivector(dim=4, coeffs={(1, 2): Fraction(1, 2)})",
    GradedOperator: "GradedOperator(dim=2, shift=1, blocks={})",
    AlgebraProperties: "AlgebraProperties(nilpotent=True, solvable=True, unimodular=False)",
    Subspace: "Subspace(basis=QMatrix([['1', '0', '2']]))",
    QuotientSpace: "QuotientSpace(total=Subspace(basis=QMatrix([['1', '0'], ['0', '1']])), "
                   "sub=Subspace(basis=QMatrix([])))",
    ModelFile: "ModelFile(name='m', structure='0,0', dim=None, omega='12', flags=frozenset(), "
               "extra_forms=())",
    StructureEquations: "StructureEquations(dim=2, differentials=(Form(2, 2, '0'), "
                        "Form(2, 2, '0')), source_text='0,0')",
    _RawTerm: "_RawTerm(coeff=Fraction(3, 1), indices=(1, 2), position=0, digit_run=False)",
    Report: "Report(data={'model': {'name': 'm'}})",
    LefschetzComponents: "LefschetzComponents(degree=2, half_dim=1, components={})",
    CheckResult: "CheckResult(name='x', passed=0, failed=0, failures=[])",
    VerifySummary: "VerifySummary(seed=0, structures=['s'], "
                   "results={'x': CheckResult(name='x', passed=1, failed=0, failures=[])})",
}

# Frozen classes whose fields are all hashable in the instances above; the
# other frozen ones hold a dict, and hashing them raises as it did before.
HASHABLE = {HrsGroup, HlcResult, AlgebraProperties, Subspace, QuotientSpace, ModelFile,
            StructureEquations}
FROZEN_HOLDING_A_DICT = {DecompositionVerdict, Bivector, GradedOperator, Report,
                         LefschetzComponents}
MUTABLE = {_RawTerm, CheckResult, VerifySummary}
CLASSES = list(DATACLASS_REPRS)


def test_every_former_dataclass_is_covered():
    assert set(CLASSES) == HASHABLE | FROZEN_HOLDING_A_DICT | MUTABLE == set(_instances())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(_instances()[cls]) == DATACLASS_REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_in_order(cls):
    assert list(signature(cls).parameters) == list(cls._fields)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_field_by_field_within_one_class(cls):
    one, twin = _instances()[cls], _instances()[cls]
    assert one is not twin and one == twin and not one != twin
    assert one != object() and one != "x"
    # Any other value in the first field breaks equality.
    fields = dict(vars(twin))
    name = cls._fields[0]
    vars(twin)[name] = object()
    assert one != twin
    vars(twin).update(fields)
    assert one == twin


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hashing(cls):
    one, twin = _instances()[cls], _instances()[cls]
    if cls in HASHABLE:
        assert hash(one) == hash(twin) == hash(tuple(getattr(one, f) for f in cls._fields))
        assert len({one, twin}) == 1
    elif cls in FROZEN_HOLDING_A_DICT:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(one)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
            hash(one)


@pytest.mark.parametrize("cls", sorted(HASHABLE | FROZEN_HOLDING_A_DICT, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_frozen_classes_refuse_assignment_and_deletion(cls):
    obj = _instances()[cls]
    before = repr(obj)
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{cls._fields[0]}'"):
        delattr(obj, cls._fields[0])
    assert repr(obj) == before


@pytest.mark.parametrize("cls", sorted(MUTABLE, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_mutable_classes_take_assignment(cls):
    obj = _instances()[cls]
    setattr(obj, cls._fields[0], "changed")
    assert getattr(obj, cls._fields[0]) == "changed"


def test_cached_properties_fill_frozen_instances_and_stay_out_of_equality():
    space = Subspace.spanned(QMatrix([[0, 1, 2], [1, 0, 0]]))
    assert space.pivots == (0, 1)
    assert vars(space)["pivots"] == (0, 1)
    assert space == Subspace.spanned(QMatrix([[1, 0, 0], [0, 1, 2]]))
    assert repr(space) == "Subspace(basis=QMatrix([['1', '0', '0'], ['0', '1', '2']]))"


def test_defaults_are_kept_and_fresh_per_instance():
    assert Bivector(3).coeffs == {} and Bivector(3).coeffs is not Bivector(3).coeffs
    assert CheckResult("a").failures == [] and CheckResult("a").failures is not CheckResult("a").failures
    model = ModelFile("m", "0,0")
    assert (model.dim, model.omega, model.flags, model.extra_forms) == (None, None, frozenset(), ())
    assert ModelFile(name="m", structure="0,0", flags=frozenset({"assert-lattice"})).flags


def test_construction_checks_run_in_init():
    with pytest.raises(ModelFileError, match="unknown flags"):
        ModelFile("m", "0,0", flags=frozenset({"bogus"}))
    with pytest.raises(ValueError, match="bad bivector key"):
        Bivector(2, {(2, 1): 1})
    with pytest.raises(ValueError, match="one differential per generator"):
        StructureEquations(2, (Form.zero(2, 2),))
