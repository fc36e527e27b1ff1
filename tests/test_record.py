"""The contract of the package's value classes (gitstab.record).

Every result class keeps what it had as a dataclass: positional and keyword
construction, `__post_init__`, equality within one class only, hashing, the
`Name(field=value, ...)` repr, refusal of assignment, and `__match_args__`.
Every field is required; values that follow from the fields are properties.
"""

from fractions import Fraction

import pytest

from gitstab.boxscan import BoxScanResult
from gitstab.degeneration import (
    CrosscheckReport,
    CrosscheckViolation,
    DegenerationFamily,
    DegenerationReport,
)
from gitstab.futaki import FutakiValue
from gitstab.lp import LinearProgram, LPOutcome
from gitstab.poly import parse_poly
from gitstab.record import record
from gitstab.stability import StabilityVerdict
from gitstab.vfield import LinearVectorField
from gitstab.weights import WeightVector

F = parse_poly("z0^3 + z1^3 + z2^3 + z3^3", 4)
LAM = WeightVector((Fraction(-7), Fraction(5), Fraction(1), Fraction(1)))
FAMILY = DegenerationFamily(F, LAM, 2, {0: F})
VERDICT = StabilityVerdict("not_weakly_stable", LAM, 0, Fraction(3))

# One sample per class: (class, field names, field values).
SAMPLES = [
    (
        BoxScanResult,
        ("scanned", "strict", "semi", "fixing_basis"),
        (81, (1, -1, 0, 0), None, ()),
    ),
    (DegenerationFamily, ("base_poly", "generator", "s_rescale", "strata"), (F, LAM, 2, {0: F})),
    (
        DegenerationReport,
        ("family", "futaki", "normalized_trace_zero_generator", "basis_change"),
        (FAMILY, None, LAM, None),
    ),
    (
        CrosscheckViolation,
        ("generator", "futaki", "trivial", "kind"),
        ((1, -1, 0, 0), Fraction(-8), False, "negative_futaki"),
    ),
    (
        CrosscheckReport,
        ("verdict", "enumerated", "bound", "violations"),
        (VERDICT, 64, 2, ()),
    ),
    (FutakiValue, ("value", "n", "d", "kappa"), (Fraction(-8), 3, 3, Fraction(3))),
    (
        LinearProgram,
        ("objective", "constraints"),
        ((Fraction(1),), (((Fraction(1),), "<=", Fraction(1)),)),
    ),
    (LPOutcome, ("status", "value", "witness"), ("optimal", Fraction(1), (Fraction(1),))),
    (
        StabilityVerdict,
        ("classification", "destabilizer", "fixing_subspace_dim", "certificate_mu"),
        ("not_weakly_stable", LAM, 0, Fraction(3)),
    ),
    (LinearVectorField, ("rows",), (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),)),
    (WeightVector, ("values",), ((Fraction(1), Fraction(-1)),)),
]

# Classes whose sample holds a dict, so hashing it fails like hashing the dict.
HOLDS_DICT = {DegenerationFamily, DegenerationReport}

IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def test_every_value_class_is_sampled():
    assert len(SAMPLES) == 11 and len(set(IDS)) == 11


@pytest.mark.parametrize("cls, names, values", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values):
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    c = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert a == b == c
    assert tuple(getattr(a, n) for n in names) == values
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values", SAMPLES, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, names, values):
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_derived_values_follow_their_fields():
    report = DegenerationReport(FAMILY, None, LAM, None)
    assert report.special_fiber == F and report.trivial
    two = DegenerationFamily(F, LAM, 2, {0: F, 3: F})
    assert not DegenerationReport(two, None, LAM, None).trivial
    stable = StabilityVerdict("stable", None, 0, None)
    violation = CrosscheckViolation((1, -1, 0, 0), Fraction(-8), False, "negative_futaki")
    for verdict, violations, weakly, consistent in (
        (VERDICT, (violation,), False, False),
        (VERDICT, (), False, True),
        (stable, (), True, True),
        (stable, (violation,), True, False),
    ):
        r = CrosscheckReport(verdict, 64, 2, violations)
        assert (r.weakly_stable, r.box_consistent) == (weakly, consistent)
        assert r.agreement == (weakly == consistent)
    assert LinearProgram.maximize((1, 0, -1), [((1, 1, 1), "<=", 1)]).n_vars == 3


def test_linear_vector_field_post_init():
    v = LinearVectorField(((1, "1/2"), (0, 2)))
    assert v.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(2)))
    assert all(type(x) is Fraction for row in v.rows for x in row)
    assert v == LinearVectorField(rows=((Fraction(1), Fraction(1, 2)), (0, 2)))
    with pytest.raises(ValueError):
        LinearVectorField(((1, 2), (3,)))
    with pytest.raises(ValueError):
        LinearVectorField(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        LinearVectorField(())


@pytest.mark.parametrize("cls, names, values", SAMPLES, ids=IDS)
def test_equality_and_hash(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    changed = ((0,),) if cls is LinearVectorField else "changed"
    assert a != cls(*values[:-1], changed)
    if cls in HOLDS_DICT:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, names, values", SAMPLES, ids=IDS)
def test_no_equality_across_classes(cls, names, values):
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(names)}))
    a, b = cls(*values), twin(*values)
    assert a.__eq__(b) is NotImplemented
    assert a != b and b != a
    assert a != values and a != None  # noqa: E711


@pytest.mark.parametrize("cls, names, values", SAMPLES, ids=IDS)
def test_repr_names_every_field(cls, names, values):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"


def test_repr_text():
    assert repr(WeightVector((Fraction(1), Fraction(-1, 2)))) == (
        "WeightVector(values=(Fraction(1, 1), Fraction(-1, 2)))"
    )
    assert repr(StabilityVerdict("stable", None, 0, None)) == (
        "StabilityVerdict(classification='stable', destabilizer=None, "
        "fixing_subspace_dim=0, certificate_mu=None)"
    )


@pytest.mark.parametrize("cls, names, values", SAMPLES, ids=IDS)
def test_frozen_classes_refuse_assignment(cls, names, values):
    a = cls(*values)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(a, n, None)
        with pytest.raises(AttributeError):
            delattr(a, n)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == cls(*values)


def test_match_statement_destructures():
    match LPOutcome("optimal", Fraction(1), (Fraction(1),)):
        case LPOutcome(status, value, witness):
            assert (status, value, witness) == ("optimal", 1, (1,))
        case _:
            pytest.fail("positional pattern did not match")

