"""The value records: equality, hashing, repr and immutability as frozen
dataclasses gave them, and their validation errors."""
import pytest

from clusteraut import cli, geom
from clusteraut.autgroup import GroupElement, GroupStructure, structure_of
from clusteraut.cluster import ClusterVar
from clusteraut.errors import SwapRequiresEqualParams
from clusteraut.poly import LaurentPoly, Params
from clusteraut.rings import CoeffRing
from clusteraut.surface import EndoMap

P22 = Params(2, 2)
ST22 = structure_of(P22)
LATTICE = geom.PicardLattice("quadric", 3, (-2, -2, 1))
CLASS = geom.DivisorClass(LATTICE, (1, 0, -1))


def _fields_of(st):
    names = ("params", "case", "dihedral_order", "mu_order", "has_swap",
             "s2_table", "s3_table", "h_table")
    return {name: getattr(st, name) for name in names}


# (class, its fields in order, as keywords)
RECORDS = [
    (Params, {"a": 2, "b": 3}),
    (CoeffRing, {"m": 4}),
    (ClusterVar, {"params": P22, "n": 3, "value": LaurentPoly.variable(2)}),
    (EndoMap, {
        "params": P22,
        "images": tuple(LaurentPoly.variable(i) for i in (4, 3, 2, 1)),
        "_verified": True,
    }),
    (GroupStructure, _fields_of(ST22)),
    (GroupElement, {"structure": ST22, "r_exp": 3, "s": 1, "mu": (1, 0), "h": 1}),
    (geom.PicardLattice, {"origin": "quadric", "rank": 3, "k": (-2, -2, 1)}),
    (geom.DivisorClass, {"lattice": LATTICE, "coeffs": (1, 0, -1)}),
    (geom.BoundaryCycle, {"lattice": LATTICE, "curves": (CLASS,), "extras": (CLASS,)}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_semantics(cls, fields):
    x = cls(**fields)
    y = cls(*fields.values())
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != tuple(fields.values()) and tuple(fields.values()) != x
    for other_cls, other_fields in RECORDS:
        if other_cls is not cls:
            assert x != other_cls(**other_fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(x, name, fields[name])
    with pytest.raises(AttributeError):
        x.undeclared = 1
    assert getattr(x, name) is fields[name]
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(x) == f"{cls.__name__}({shown})"


def test_records_differ_by_field():
    assert Params(2, 2) != Params(2, 3) and Params(2, 2) == Params(a=2, b=2)
    assert Params(2, 2) != (2, 2)
    assert CoeffRing() == CoeffRing(0) != CoeffRing(1)
    assert geom.PicardLattice("plane", 1, (-3,)) != geom.PicardLattice("quadric", 1, (-3,))
    assert geom.BoundaryCycle(LATTICE, (CLASS,)).extras == ()
    assert EndoMap(P22, RECORDS[3][1]["images"]).verified is True


def test_record_error_texts():
    with pytest.raises(ValueError, match="^a and b must be positive$"):
        Params(0, 1)
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        CoeffRing(-1)
    with pytest.raises(ValueError, match="^unknown origin 'cone'$"):
        geom.PicardLattice("cone", 1, (-3,))
    with pytest.raises(ValueError, match="^canonical class length does not match rank$"):
        geom.PicardLattice("plane", 2, (-3,))
    with pytest.raises(ValueError, match="^coefficient length does not match lattice rank$"):
        geom.DivisorClass(LATTICE, (1, 0))


def test_group_element_normalizes():
    st = structure_of(Params(2, 1))
    assert st.r_order == 3
    e = GroupElement(st, 7, 3, (5, 4))
    assert (e.r_exp, e.s, e.mu, e.h) == (1, 1, (1, 0), 0)
    assert e == GroupElement(st, r_exp=1, s=1, mu=(1, 0))
    assert GroupElement(st) == GroupElement(st, 0, 0, (0, 0), 0)
    with pytest.raises(SwapRequiresEqualParams, match=r"^no reversal factor in the group for \(2,1\)$"):
        GroupElement(st, h=1)
    assert GroupElement(ST22, r_exp=-5, h=3).r_exp == -5
    assert GroupElement(ST22, h=3).h == 1


def test_origin_choices_are_geom_constants():
    ap = cli.build_parser(["geom-boundary"])
    sub = next(a for a in ap._actions if a.dest == "command")
    origin = next(a for a in sub.choices["geom-boundary"]._actions if a.dest == "origin")
    assert tuple(origin.choices) == (geom.PLANE, geom.QUADRIC)
    assert origin.default == geom.PLANE
