"""The library's records behave as the frozen dataclasses they replace.

Each record class is compared with a frozen dataclass of the same name and
fields, built here by :func:`dataclasses.make_dataclass`.
"""

from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from ultrametric.amalgam import ChainGlueResult, GlueSpec, chain_glue
from ultrametric.builders import QuotientSpace, closed_quotient
from ultrametric.certificates import Certificate
from ultrametric.dendrogram import Leaf, Merge
from ultrametric.generators import (
    Membership,
    SpectrumConstraint,
    in_uk,
    spectrum_constraint,
    two_point_space,
)
from ultrametric.gromov import UghResult, certificate, ugh_distance
from ultrametric.spaces import UltrametricSpace

X = two_point_space(1)
Y = two_point_space(Fraction(1, 2))

# Class, the fields of the dataclass it replaces, and one instance.
RECORDS = [
    (UltrametricSpace, ("labels", "values", "ranks"), X),
    (QuotientSpace, ("scale", "blocks", "quotient"), closed_quotient(X, 0)),
    (Leaf, ("label",), Leaf("a")),
    (Merge, ("height", "children"), Merge(Fraction(1), (Leaf("a"), Leaf("b")))),
    (UghResult, ("value", "block_map"), ugh_distance(X, Y)),
    (Certificate, ("space", "embed_left", "embed_right", "achieved"), certificate(X, Y, ugh_distance(X, Y))),
    (GlueSpec, ("x1", "x2", "identify"), GlueSpec(X, Y, (("p", "q"),))),
    (ChainGlueResult, ("space", "embeddings"), chain_glue([X, Y], [[("p", "q")]])),
    (SpectrumConstraint, ("values",), spectrum_constraint([0, 1])),
    (Membership, ("member", "witness"), in_uk(X, spectrum_constraint([0, Fraction(1, 2)]))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def field_values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def reference(cls, fields, obj):
    """The frozen dataclass ``cls`` replaced, holding ``obj``'s field values."""
    return make_dataclass(cls.__name__, fields, frozen=True)(*field_values(obj, fields))


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_fields_are_the_annotations_in_order(cls, fields, obj):
    assert cls._fields == fields
    assert type(obj) is cls


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_equal_only_within_the_class(cls, fields, obj):
    values = field_values(obj, fields)
    twin = cls(*values)
    assert twin == obj and not twin != obj
    assert obj != values
    assert obj != reference(cls, fields, obj)


def test_records_of_other_classes_with_equal_fields_differ():
    assert Leaf("a") != ("a",)
    assert Leaf("a") != SpectrumConstraint("a")
    assert SpectrumConstraint("a") != Leaf("a")


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, obj):
    values = field_values(obj, fields)
    if cls is Merge:  # hashed as its pre-order tuple, so deep trees need no recursion
        assert hash(obj) == hash(((Fraction(1), 2), "a", "b")) == hash(cls(*values))
        return
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected == hash(reference(cls, fields, obj))


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_repr_matches_the_dataclass(cls, fields, obj):
    if cls is UltrametricSpace:
        assert repr(obj) == "UltrametricSpace(2 points: p, q)"
    elif cls is Merge:
        assert repr(obj) == "Merge(height 1, 2 leaves: a, b)"
    else:
        assert repr(obj) == repr(reference(cls, fields, obj))


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_fields_are_frozen(cls, fields, obj):
    before = field_values(obj, fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert field_values(obj, fields) == before


@pytest.mark.parametrize("cls, fields, obj", RECORDS, ids=IDS)
def test_wrong_arity_is_a_type_error(cls, fields, obj):
    values = field_values(obj, fields)
    with pytest.raises(TypeError):
        cls(*values, None)
    if cls is not Membership:  # its witness has a default
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_glue_spec_makes_identify_a_tuple_of_tuples():
    spec = GlueSpec(X, Y, [["p", "q"], ["q", "p"]])
    assert spec.identify == (("p", "q"), ("q", "p"))
    assert spec == GlueSpec(X, Y, (("p", "q"), ("q", "p")))


def test_membership_witness_defaults_to_none():
    assert Membership(True).witness is None
    assert Membership(True) == Membership(True, None)
    assert not Membership(False, ("p", "q", Fraction(1)))


def test_dist_is_cached_and_left_out_of_equality():
    space = two_point_space(1)
    assert space.dist is space.dist
    assert "dist" in vars(space)
    assert space == X and hash(space) == hash(X)
