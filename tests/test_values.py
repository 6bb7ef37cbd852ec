"""Value semantics of the toolkit's immutable classes: equality by class and
fields, hashing, the `Name(field=value, ...)` repr, read-only fields and
pickling."""
import pickle
from fractions import Fraction

import pytest

import echelon
from echelon import (
    QQ,
    Affine,
    Axpy,
    FieldSpec,
    GaucheResult,
    GraphRelations,
    Inconsistent,
    Keeper,
    LinearSystem,
    Matrix,
    NullBasis,
    ReductionResult,
    Scalar,
    Scale,
    Subordinate,
    Swap,
    Vector,
    gauss_jordan,
)
from echelon.scalars import Frozen

from helpers import GF7, sc

M = Matrix(1, 2, (1, Fraction(1, 2)), QQ)
V = Vector((1, 2), QQ)
W = Vector((3, 4), QQ)
NB = NullBasis((2,), (V,))
M_TEXT = "Matrix(rows=1, cols=2, values=(1, Fraction(1, 2)), field=FieldSpec(modulus=None))"
V_TEXT = "Vector(values=(1, 2), field=FieldSpec(modulus=None))"
NB_TEXT = f"NullBasis(free_indices=(2,), basis=({V_TEXT},))"

# (build a fresh instance, one other value per field, the expected repr)
CASES = {
    "FieldSpec": (lambda: FieldSpec(7), (5,), "FieldSpec(modulus=7)"),
    "Scalar": (lambda: Scalar(QQ, Fraction(3, 4)), (GF7, 5), "Scalar(Q, 3/4)"),
    "Vector": (lambda: Vector((1, 2), QQ), ((1, 3), GF7), V_TEXT),
    "Matrix": (lambda: Matrix(1, 2, (1, "1/2"), QQ), (2, 1, (1, 2), GF7), M_TEXT),
    "Keeper": (Keeper, (), "Keeper()"),
    "Subordinate": (
        lambda: Subordinate((3, 1), QQ),
        ((3, 2), GF7),
        "Subordinate(values=(3, 1), field=FieldSpec(modulus=None))",
    ),
    "GaucheResult": (
        lambda: GaucheResult(M, (1,)),
        (M.with_entry(1, 2, 0), (2,)),
        f"GaucheResult(rref={M_TEXT}, pivot_set=(1,))",
    ),
    "Swap": (lambda: Swap(1, 2), (3, 3), "Swap(i=1, j=2)"),
    "Scale": (lambda: Scale(1, sc(2)), (2, sc(3)), "Scale(i=1, c=Scalar(Q, 2))"),
    "Axpy": (
        lambda: Axpy(2, 1, sc(-3)), (3, 3, sc(3)), "Axpy(target=2, source=1, c=Scalar(Q, -3))"
    ),
    "ReductionResult": (
        lambda: ReductionResult(M, (Swap(1, 2),), (1,)),
        (M.with_entry(1, 1, 2), (), (2,)),
        f"ReductionResult(rref={M_TEXT}, ops=(Swap(i=1, j=2),), pivot_set=(1,))",
    ),
    "NullBasis": (lambda: NullBasis((2,), (V,)), ((1,), (W,)), NB_TEXT),
    "GraphRelations": (
        lambda: GraphRelations((2,), ((1, (-2,)),), QQ),
        ((3,), ((1, (2,)),), GF7),
        "GraphRelations(free_indices=(2,), pivot_exprs=((1, (-2,)),),"
        " field=FieldSpec(modulus=None))",
    ),
    "LinearSystem": (
        lambda: LinearSystem(M.take_columns([1]), Vector((4,), QQ)),
        (M.take_columns([2]), Vector((5,), QQ)),
        "LinearSystem(coeff=Matrix(rows=1, cols=1, values=(1,), field=FieldSpec(modulus=None)),"
        " rhs=Vector(values=(4,), field=FieldSpec(modulus=None)))",
    ),
    "Inconsistent": (Inconsistent, (), "Inconsistent()"),
    "Affine": (
        lambda: Affine(V, NB),
        (W, NullBasis((), ())),
        f"Affine(particular={V_TEXT}, homogeneous={NB_TEXT})",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_semantics(name):
    make, others, text = CASES[name]
    a, b = make(), make()
    cls = type(a)
    assert cls.__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text

    # built unchecked from its fields, the value is the same
    fields = [getattr(a, field) for field in cls.__slots__]
    rebuilt = cls._raw(*fields)
    assert type(rebuilt) is cls and rebuilt == a and repr(rebuilt) == text

    # each variant is built unchecked, so it differs from a in that field only
    assert len(others) == len(fields)
    for k, other in enumerate(others):
        variant = cls._raw(*fields[:k], other, *fields[k + 1 :])
        assert variant != a and a != variant, cls.__slots__[k]

    # another class with the same fields is a different value
    twin = type("Twin", (Frozen,), {"__slots__": cls.__slots__})._raw(*fields)
    assert twin != a and a != twin

    for field in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and repr(a) == text

    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and copy == a and hash(copy) == hash(a)


def test_subclass_builds_its_own_values():
    """A subclass that adds no fields inherits them, and _raw builds an
    instance of the subclass."""

    class Tagged(Axpy):
        pass

    op = Tagged._raw(2, 1, sc(-3))
    assert type(op) is Tagged and op == Tagged(2, 1, sc(-3)) and op != Axpy(2, 1, sc(-3))


def test_classes_with_the_same_fields_differ():
    assert Keeper() != Inconsistent()
    assert Vector((3, 1), QQ) != Subordinate((3, 1), QQ)


def test_logged_coefficients_are_read_only():
    """A coefficient in the op log of gauss_jordan is a value too: writing
    or deleting its fields fails, and the op and its hash stay as they were."""
    op = gauss_jordan(Matrix.from_rows([[2, 4], [1, 3]], QQ)).ops[0]
    key = hash(op)
    for field, value in (("value", 99), ("spec", GF7)):
        with pytest.raises(AttributeError):
            setattr(op.c, field, value)
        with pytest.raises(AttributeError):
            delattr(op.c, field)
    assert repr(op) == "Scale(i=1, c=Scalar(Q, 1/2))" and hash(op) == key


def test_every_value_class_is_covered():
    """Every Frozen class the package exports has a case above."""
    exported = {
        name
        for name in echelon.__all__
        if isinstance(getattr(echelon, name), type) and issubclass(getattr(echelon, name), Frozen)
    }
    assert exported == set(CASES)
