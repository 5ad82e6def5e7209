"""Text grammars: polynomial expressions and automorphism words.

Round trips, canonical printing, and error positions."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteraut.errors import ParseError
from clusteraut.poly import LaurentPoly, Params
from clusteraut.rings import ZZ, root_surrogate
from clusteraut.textio import parse_poly, parse_word, print_poly, print_word


def random_poly(rng, ring, max_terms=5, span=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(-span, span + 1) for _ in range(4))
        if ring is ZZ:
            terms[exps + (0,)] = rng.randrange(-9, 10) or 1
        else:
            # a coefficient vector: one term per power of t
            for k in range(ring.m):
                terms[exps + (k,)] = rng.randrange(-4, 5)
    return LaurentPoly.from_terms(ring, terms)


def test_poly_round_trip_integer_ring():
    rng = random.Random(20)
    params = Params(2, 3)
    for _ in range(200):
        p = random_poly(rng, ZZ)
        text = print_poly(p, params)
        back = parse_poly(text, ZZ)
        assert back == p
        assert print_poly(back, params) == text


def test_poly_round_trip_surrogate_ring():
    rng = random.Random(21)
    params = Params(3, 2)
    ring = root_surrogate(3)
    for _ in range(200):
        p = random_poly(rng, ring)
        text = print_poly(p, params)
        back = parse_poly(text, ring)
        assert back == p
        assert print_poly(back, params) == text


def test_poly_parse_examples():
    params = Params(2, 2)
    p = parse_poly("y1^2*y3 - 3*y2 + 1", ZZ)
    assert p.term_map() == {(2, 0, 1, 0, 0): 1, (0, 1, 0, 0, 0): -3, (0, 0, 0, 0, 0): 1}
    q = parse_poly("y1 y2 + y1y2", ZZ)  # juxtaposition multiplies
    assert q.term_map() == {(1, 1, 0, 0, 0): 2}
    r = parse_poly("-y4^-2", ZZ)
    assert r.term_map() == {(0, 0, 0, -2, 0): -1}
    ring = root_surrogate(2)
    s = parse_poly("t*y1 - 2t^3 + t^-1 y1", ring)  # t^3 = t^-1 = t
    assert s.term_map() == {(1, 0, 0, 0, 1): 2, (0, 0, 0, 0, 1): -2}
    assert parse_poly("0", ZZ).is_zero()


def test_poly_print_canonical():
    params = Params(2, 2)
    ring = root_surrogate(2)
    assert print_poly(LaurentPoly.zero(ZZ), params) == "0"
    one = LaurentPoly.one(ZZ)
    assert print_poly(one, params) == "1"
    p = LaurentPoly.from_terms(ZZ, {(0, 1, 0, 0, 0): -1, (1, 0, 0, 0, 0): 1})
    text = print_poly(p, params)
    assert text in ("y1 - y2", "y2*-1 + y1") and text == "y1 - y2"
    mixed = LaurentPoly.from_terms(ring, {(1, 0, 0, 0, 1): -1, (1, 0, 0, 0, 0): 2})
    assert print_poly(mixed, params) == "2*y1 - t*y1"


def test_poly_parse_errors_with_positions():
    params = Params(2, 2)
    cases = [
        ("y5 + 1", 1, 0),
        ("y1 + y12", 1, 5),
        ("y1 +\n* y2", 2, 0),
        ("y1 ^", 1, 4),
        ("t*y1", 1, 0),  # t needs a surrogate ring
        # only 0-9 are digits, not superscripts or other scripts' digits
        ("y1^\u00b2", 1, 3),
        ("\u0663*y1", 1, 0),
        ("y1 + y\u0663", 1, 5),
        ("y1\u00b2", 1, 2),
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as info:
            parse_poly(text, ZZ)
        assert info.value.line == line
        assert info.value.column == col
    with pytest.raises(ParseError):
        parse_poly("", ZZ)


def test_word_round_trip():
    rng = random.Random(22)
    atom_pool = [
        ("s2",), ("s3",), ("h",), ("m", 2, 3), ("sp", 1), ("m", -1, 4), ("r", 1), ("r", -3)
    ]
    for _ in range(100):
        atoms = [atom_pool[rng.randrange(len(atom_pool))] for _ in range(rng.randrange(0, 7))]
        text = print_word(atoms)
        assert parse_word(text) == atoms
    assert print_word([]) == "id"
    assert parse_word("id") == []


def test_word_rotation_shorthand():
    assert parse_word("r") == [("r", 1)]
    assert parse_word("r^3") == [("r", 3)]
    assert parse_word("r^-2") == [("r", -2)]
    assert parse_word("r^0") == []
    assert parse_word("s2 r h") == [("s2",), ("r", 1), ("h",)]
    huge = 10 ** 20
    assert parse_word(f"r^{huge} s2") == [("r", huge), ("s2",)]
    assert print_word([("r", 1), ("r", -2), ("r", huge)]) == f"r r^-2 r^{huge}"


def test_word_parse_errors():
    superscript_two, arabic_three = "\u00b2", "\u0663"
    for text in ("s4", "m(1)", "sp", "m(2,3", "q", "m(a,b)", f"sp({superscript_two})",
                 f"r^{superscript_two}", f"sp({arabic_three})", f"m(1,{arabic_three})"):
        with pytest.raises(ParseError):
            parse_word(text)


# -- property round trips -----------------------------------------------------

huge_ints = st.integers(-(10 ** 30), 10 ** 30) | st.integers(-5, 5)

canonical_atoms = st.one_of(
    st.sampled_from([("s2",), ("s3",), ("h",)]),
    st.tuples(st.just("r"), huge_ints.filter(lambda k: k != 0)),
    st.tuples(st.just("sp"), huge_ints),
    st.tuples(st.just("m"), huge_ints, huge_ints),
)


@settings(max_examples=300, deadline=None)
@given(atoms=st.lists(canonical_atoms, max_size=8))
def test_word_round_trip_property(atoms):
    """Every canonical atom list, r^k with huge and negative k included,
    reads back from its printed word."""
    assert parse_word(print_word(atoms)) == atoms


@st.composite
def polys_and_params(draw):
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    params = Params(a, b)
    ring = draw(st.sampled_from([ZZ, root_surrogate(params.m)]))
    keys = st.tuples(
        *[st.integers(-6, 6)] * 4, st.integers(0, max(ring.m - 1, 0))
    )
    terms = draw(st.dictionaries(keys, st.integers(-(10 ** 12), 10 ** 12), max_size=8))
    return params, LaurentPoly.from_terms(ring, terms)


@settings(max_examples=300, deadline=None)
@given(case=polys_and_params())
def test_poly_round_trip_property(case):
    """Every polynomial over Z or Z[t]/(t^m - 1), with negative exponents
    and zero coefficients dropped, reads back from its canonical text."""
    params, p = case
    assert parse_poly(print_poly(p, params), p.ring) == p
