"""Surface elements and endomorphisms: normal-form confluence against an
independent rewriter, composition against rational-point evaluation, word
algebra, factorization, and serialization."""
import itertools
import json
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteraut import autgroup, cluster, surface
from clusteraut.budget import current_max_terms, limit
from clusteraut.cluster import clear_walk_cache, cluster_var, laurent_expand, surface_var
from clusteraut.errors import (
    BudgetExceeded,
    FactorizationFailed,
    ParamsMismatch,
    ParseError,
    SwapRequiresEqualParams,
)
from clusteraut.poly import LaurentPoly, Params
from clusteraut.rings import ZZ
from clusteraut.surface import (
    EndoMap,
    compose,
    compose_letters,
    compose_word,
    endo_from_json,
    endo_from_obj,
    endo_to_obj,
    equal,
    factorize,
    fold_word,
    identity,
    is_endomorphism,
    make_generator,
    normal_form,
    order_of,
    scaling,
    sigma2,
    sigma3,
    swap,
    total_degree,
    y0_expression,
    y5_expression,
)
from test_surface_reference import reference_surface_var

ALL_PARAMS = [Params(a, b) for a in range(1, 4) for b in range(1, 4)]


def naive_normal_form(params, p, rng):
    """Reduce with the two rewrite rules applied in random order — an
    independent strategy for the confluence check (integer coefficients)."""
    a, b = params.a, params.b

    def add_to(terms, exps, c):
        c += terms.pop(exps, 0)
        if c:
            terms[exps] = c

    terms = {e[:4]: c for e, c in p.term_map().items()}
    while True:
        candidates = [
            e
            for e in terms
            if (e[0] > 0 and e[2] > 0) or (e[1] > 0 and e[3] > 0)
        ]
        if not candidates:
            return LaurentPoly.from_terms(ZZ, {e + (0,): c for e, c in terms.items()})
        e = rng.choice(candidates)
        c = terms.pop(e)
        rules = []
        if e[0] > 0 and e[2] > 0:
            rules.append(0)
        if e[1] > 0 and e[3] > 0:
            rules.append(1)
        if rng.choice(rules) == 0:
            base = (e[0] - 1, e[1], e[2] - 1, e[3])
            add_to(terms, (base[0], base[1] + a, base[2], base[3]), c)
            add_to(terms, base, c)
        else:
            base = (e[0], e[1] - 1, e[2], e[3] - 1)
            add_to(terms, (base[0], base[1], base[2] + b, base[3]), c)
            add_to(terms, base, c)


def random_positive_poly(rng, n_terms=5, span=3):
    terms = {}
    for _ in range(rng.randrange(1, n_terms + 1)):
        exps = tuple(rng.randrange(0, span + 1) for _ in range(4)) + (0,)
        terms[exps] = rng.randrange(-6, 7)
    return LaurentPoly.from_terms(ZZ, terms)


def test_normal_form_confluent_with_random_strategy():
    rng = random.Random(321)
    for a, b in ((2, 2), (3, 2), (4, 1)):
        params = Params(a, b)
        for _ in range(120):
            p = random_positive_poly(rng)
            engine = normal_form(params, p)
            independent = naive_normal_form(params, p, rng)
            assert engine == independent


def test_normal_form_kills_ideal_multiples():
    rng = random.Random(33)
    for params in (Params(2, 2), Params(3, 1)):
        a, b = params.a, params.b
        y = [LaurentPoly.variable(i) for i in (1, 2, 3, 4)]
        rel1 = y[0] * y[2] - y[1] ** a - LaurentPoly.one()
        rel2 = y[1] * y[3] - y[2] ** b - LaurentPoly.one()
        for _ in range(60):
            p = random_positive_poly(rng)
            m1 = random_positive_poly(rng, n_terms=2, span=2)
            m2 = random_positive_poly(rng, n_terms=2, span=2)
            q = p + m1 * rel1 + m2 * rel2
            assert normal_form(params, p) == normal_form(params, q)
            assert normal_form(params, m1 * rel1 + m2 * rel2).is_zero()


def test_normal_form_is_reduced():
    rng = random.Random(9)
    params = Params(3, 2)
    for _ in range(80):
        nf = normal_form(params, random_positive_poly(rng))
        for e, _ in nf.terms():
            assert not (e[0] > 0 and e[2] > 0)
            assert not (e[1] > 0 and e[3] > 0)


def test_sigma_images_are_the_boundary_expressions():
    """sigma2 and sigma3 build their new image in normal form from the
    hockey-stick identity; it is the normal form of the paper's y0 and y5,
    the literal variant included, term for term and in the same order, at
    every a, b <= 12."""
    assert cluster.y0_expression is y0_expression
    assert cluster.y5_expression is y5_expression
    y1, y2, y3, y4 = (LaurentPoly.variable(i) for i in (1, 2, 3, 4))

    def items(images):
        return [(e.ring, list(e.terms())) for e in images]

    for a in range(1, 13):
        for b in range(1, 13):
            params = Params(a, b)
            y0 = normal_form(params, y0_expression(params))
            assert items(sigma2(params).images) == items((y3, y2, y1, y0))
            for literal in (False, True):
                y5 = normal_form(params, y5_expression(params, literal))
                assert items(sigma3(params, literal).images) == items((y5, y4, y3, y2))


def test_maps_hash_like_equality():
    """Maps equal over different coefficient rings hash alike."""
    params = Params(2, 2)
    one = scaling(params, 0, 0)
    assert one.ring != identity(params).ring
    assert one == identity(params)
    assert hash(one) == hash(identity(params))
    assert len({one, identity(params)}) == 1
    s2 = compose(sigma2(params), one)
    assert s2.ring != sigma2(params).ring
    assert len({s2, sigma2(params), sigma3(params)}) == 2
    assert one != identity(Params(2, 1))


def test_generators_preserve_relations():
    for params in ALL_PARAMS:
        assert sigma2(params).verified
        assert sigma3(params).verified
        for i in range(params.a):
            for j in range(params.b):
                assert scaling(params, i, j).verified
        if params.a == params.b:
            assert swap(params).verified
        assert is_endomorphism(identity(params))


def surface_point(params, v1, v2):
    a, b = params.a, params.b
    v3 = (v2 ** a + 1) / v1
    v4 = (v3 ** b + 1) / v2
    return (v1, v2, v3, v4)


def evaluate(poly, point):
    total = Fraction(0)
    for exps, c in poly.terms():
        v = Fraction(c)
        for e, x in zip(exps, point):
            v *= Fraction(x) ** e
        total += v
    return total


def test_composition_against_point_evaluation():
    """compose(f, g) evaluated on surface points must equal f after g."""
    rng = random.Random(404)
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2)):
        params = Params(a, b)
        gens = [sigma2(params), sigma3(params), identity(params)]
        if params.a == params.b:
            gens.append(swap(params))
        for _ in range(12):
            f, g = rng.choice(gens), rng.choice(gens)
            fg = compose(f, g)
            for _ in range(3):
                pt = surface_point(
                    params,
                    Fraction(rng.randrange(1, 5)),
                    Fraction(rng.randrange(1, 5)),
                )
                # on points, the ring map f o g acts through f first:
                # (f o g)(y_i) evaluated at P is g(y_i) at (f(y_j) at P)_j
                f_pt = tuple(evaluate(e, pt) for e in f.images)
                want = tuple(evaluate(e, f_pt) for e in g.images)
                got = tuple(evaluate(e, pt) for e in fg.images)
                assert got == want


def test_composition_associative_and_unital():
    rng = random.Random(71)
    for params in (Params(2, 2), Params(3, 1)):
        atoms = [("s2",), ("s3",)]
        if params.a == params.b:
            atoms.append(("h",))
        for _ in range(8):
            f = make_generator(params, rng.choice(atoms))
            g = make_generator(params, rng.choice(atoms))
            h = make_generator(params, rng.choice(atoms))
            assert equal(compose(compose(f, g), h), compose(f, compose(g, h)))
            assert equal(compose(identity(params), f), f)
            assert equal(compose(f, identity(params)), f)


def test_generator_orders():
    for params in ALL_PARAMS:
        assert order_of(sigma2(params), cap=2) == 2
        assert order_of(sigma3(params), cap=2) == 2
        if params.a == params.b:
            assert order_of(swap(params), cap=2) == 2
    for (a, b), r_order in (((1, 1), 5), ((2, 1), 3), ((1, 2), 3), ((3, 1), 4), ((1, 3), 4)):
        params = Params(a, b)
        r = compose(sigma2(params), sigma3(params))
        assert order_of(r, cap=8) == r_order
    params = Params(2, 2)
    r = compose(sigma2(params), sigma3(params))
    assert order_of(r, cap=6) is None


def test_scalings_form_a_group():
    params = Params(3, 2)
    for i in range(3):
        for j in range(2):
            m = scaling(params, i, j)
            inv = scaling(params, (-i) % 3, (-j) % 2)
            assert equal(compose(m, inv), identity(params))
            for k in range(3):
                for l in range(2):
                    assert equal(
                        compose(m, scaling(params, k, l)),
                        scaling(params, (i + k) % 3, (j + l) % 2),
                    )


def test_swap_needs_equal_params():
    with pytest.raises(SwapRequiresEqualParams):
        swap(Params(2, 3))


def test_params_mismatch_rejected():
    with pytest.raises(ParamsMismatch):
        compose(sigma2(Params(2, 2)), sigma2(Params(2, 1)))
    with pytest.raises(ParamsMismatch):
        equal(sigma2(Params(2, 2)), sigma2(Params(3, 2)))


def test_shift_words_shift_cluster_indices():
    """The word for y_n -> y_{2p-n} must expand each y_i to y_{2p-i} in the
    seed cluster — checked against the cluster walk."""
    for a, b in ((2, 2), (2, 1)):
        params = Params(a, b)
        for p in (0, 1, 2, 3, 4):
            f = compose_word(params, [("sp", p)])
            assert f.verified
            for i in (1, 2, 3, 4):
                assert laurent_expand(params, f.images[i - 1]) == cluster_var(
                    params, 2 * p - i
                ).value


def test_reversal_equals_five_letter_word():
    params = Params(1, 1)
    f = compose_word(params, [("s2",), ("s3",), ("s2",), ("s3",), ("s2",)])
    want = EndoMap.make(
        params, [LaurentPoly.variable(i) for i in (4, 3, 2, 1)]
    )
    assert equal(f, want)


def test_factorize_round_trip_small():
    rng = random.Random(88)
    for a, b in ((1, 1), (2, 1), (3, 1), (2, 2)):
        params = Params(a, b)
        atoms = [("s2",), ("s3",), ("m", 1 % a, 1 % b)]
        if a == b and a >= 2:
            atoms.append(("h",))
        for _ in range(10):
            word = [rng.choice(atoms) for _ in range(rng.randrange(0, 6))]
            f = compose_word(params, word)
            back = factorize(f, max_word=12)
            assert equal(compose_word(params, back), f)


def test_factorize_rejects_when_capped():
    params = Params(2, 2)
    f = compose_word(params, [("s2",), ("s3",)] * 6)
    with pytest.raises(FactorizationFailed):
        factorize(f, max_word=2)


def test_degree_growth_measure():
    params = Params(2, 2)
    r = compose(sigma2(params), sigma3(params))
    f = r
    degrees = [total_degree(f)]
    for _ in range(3):
        f = compose(r, f)
        degrees.append(total_degree(f))
    assert degrees == sorted(degrees) and len(set(degrees)) == len(degrees)


def test_budget_limits_composition():
    params = Params(3, 3)
    r = compose(sigma2(params), sigma3(params))
    with limit(60):
        with pytest.raises(BudgetExceeded):
            f = r
            for _ in range(10):
                f = compose(r, f)


def endo_to_json(f: EndoMap) -> str:
    """Canonical JSON text of a map: its plain-data form, keys sorted."""
    return json.dumps(endo_to_obj(f), sort_keys=True, separators=(",", ":"))


def test_serialization_round_trip():
    for a, b in ((2, 2), (3, 2), (4, 1)):
        params = Params(a, b)
        maps = [
            identity(params),
            sigma2(params),
            compose(sigma3(params), scaling(params, a - 1, b - 1)),
        ]
        if a == b:
            maps.append(swap(params))
        for f in maps:
            blob = endo_to_json(f)
            g = endo_from_json(blob)
            assert equal(f, g)
            assert endo_to_json(g) == blob
            obj = endo_to_obj(f)
            assert endo_to_obj(endo_from_obj(obj)) == obj


def test_serialization_rejects_malformed():
    for blob in (
        "[]",
        '{"a": 2, "b": 2}',
        '{"a": 2, "b": 0, "images": [[], [], [], []]}',
        '{"a": 2, "b": 2, "images": [[], [], []]}',
        '{"a": 2, "b": 2, "images": [[[[0,0,0,0],[1,0]],[[1,0,0,0],[1,0,0]]], [], [], []]}',
        "no",
        # booleans are not integers, exponents are not negative, and a
        # coefficient vector has length 1 or m = lcm(a, b)
        '{"a": true, "b": 1, "images": [[], [], [], []]}',
        '{"a": 2, "b": false, "images": [[], [], [], []]}',
        '{"a": 2, "b": 2, "images": [[[[1,0,0,false],[1]]], [], [], []]}',
        '{"a": 2, "b": 2, "images": [[[[1,0,0,0],[true]]], [], [], []]}',
        '{"a": 2, "b": 2, "images": [[[[1,0,0,-1],[1]]], [], [], []]}',
        '{"a": 2, "b": 2, "images": [[[[1,0,0,0],[1,0,0]]], [], [], []]}',
        '{"a": 2, "b": 3, "images": [[[[1,0,0,0],[1,0]]], [], [], []]}',
        '{"a": 1, "b": 1, "images": [[[[1,0,0,0],[1,0]]], [], [], []]}',
    ):
        with pytest.raises(ParseError):
            endo_from_json(blob)


def _json_values():
    scalars = st.one_of(
        st.booleans(), st.none(), st.integers(-3, 4), st.floats(allow_nan=False),
        st.text(max_size=3),
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=5)
        | st.dictionaries(st.sampled_from(["a", "b", "images", "x"]), inner, max_size=4),
        max_leaves=30,
    )


@st.composite
def _broken_map_objects(draw):
    """A well-formed map object with exactly one fault put in."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = Params(a, b).m
    row = st.tuples(
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
        st.lists(st.integers(-2, 2), min_size=1, max_size=1)
        | st.lists(st.integers(-2, 2), min_size=m, max_size=m),
    ).map(list)
    images = draw(st.lists(st.lists(row, min_size=1, max_size=3), min_size=4, max_size=4))
    obj = {"a": a, "b": b, "images": images}
    bad = st.sampled_from([True, False, 1.0, "1", None, [], {}])
    i = draw(st.integers(0, 3))
    terms = images[i]
    j = draw(st.integers(0, len(terms) - 1))
    fault = draw(st.sampled_from(
        ["a", "b", "drop", "images", "image", "row", "exponent", "negative",
         "coefficient", "length"]
    ))
    if fault in ("a", "b"):
        obj[fault] = draw(bad | st.integers(-2, 0))
    elif fault == "drop":
        del obj[draw(st.sampled_from(["a", "b", "images"]))]
    elif fault == "images":
        obj["images"] = draw(st.sampled_from([images[:3], images + [[]], {}, 4]))
    elif fault == "image":
        images[i] = draw(bad.filter(lambda v: v != []))
    elif fault == "row":
        terms[j] = draw(st.sampled_from([terms[j][:1], terms[j] + [[1]], 5, True]))
    elif fault in ("exponent", "negative"):
        terms[j][0][draw(st.integers(0, 3))] = -1 if fault == "negative" else draw(bad)
    elif fault == "coefficient":
        terms[j][1][draw(st.integers(0, len(terms[j][1]) - 1))] = draw(bad)
    else:
        n = draw(st.sampled_from([0, m + 1, m + 2]).filter(lambda n: n not in (1, m)))
        terms[j][1] = [1] * n
    return obj


@settings(max_examples=200, deadline=None)
@given(obj=_broken_map_objects())
def test_broken_map_objects_raise_parse_error(obj):
    with pytest.raises(ParseError):
        endo_from_json(json.dumps(obj))


@settings(max_examples=100, deadline=None)
@given(obj=_json_values())
def test_any_json_value_maps_or_raises_parse_error(obj):
    try:
        f = endo_from_json(json.dumps(obj))
    except ParseError:
        return
    assert isinstance(f, EndoMap)


def _read_row_by_row(obj) -> EndoMap:
    """``endo_from_obj`` as it was before its terms were built one image at
    a time: every row is validated and turned into terms in one pass, and a
    repeated exponent is reported once every row has its shape."""
    from clusteraut import _kernel as K
    from clusteraut.budget import current_max_terms
    from clusteraut.rings import root_surrogate

    error = surface._obj_error
    if not isinstance(obj, dict):
        raise error("expected an object")
    for field in ("a", "b", "images"):
        if field not in obj:
            raise error(f"missing field {field!r}")
    a, b = obj["a"], obj["b"]
    if not (surface._is_int(a) and surface._is_int(b)) or a < 1 or b < 1:
        raise error("a and b must be positive integers")
    params = Params(a, b)
    m = params.m
    images_obj = obj["images"]
    if not isinstance(images_obj, list) or len(images_obj) != 4:
        raise error("images must be a list of four polynomials")
    wide, duplicate, term_maps = False, None, []
    for rows in images_obj:
        if not isinstance(rows, list):
            raise error("each image must be a list of terms")
        seen, terms = set(), {}
        for row in rows:
            if (
                not isinstance(row, list)
                or len(row) != 2
                or not isinstance(row[0], list)
                or len(row[0]) != 4
                or not all(surface._is_int(v) for v in row[0])
                or not isinstance(row[1], list)
                or not row[1]
                or not all(surface._is_int(v) for v in row[1])
            ):
                raise error(f"bad term entry {row!r}")
            exps, vec = tuple(row[0]), row[1]
            if any(v < 0 for v in exps):
                raise error(f"negative exponent in term entry {row!r}")
            if len(vec) not in (1, m):
                raise error(f"coefficient vector {vec!r} must have length 1 or {m}")
            if exps in seen and duplicate is None:
                duplicate = exps
            seen.add(exps)
            wide = wide or len(vec) > 1
            terms.update((exps + (k,), c) for k, c in enumerate(vec) if c)
        term_maps.append(terms)
    if duplicate is not None:
        raise error(f"duplicate exponent {duplicate}")
    ring = root_surrogate(m) if wide else ZZ
    images = tuple(
        LaurentPoly(ring, K.normal_form_terms(tp, a, b, ring.m, current_max_terms()))
        for tp in term_maps
    )
    return EndoMap(params, images)


class _Int(int):
    """An int subclass, which a map may hold as an exponent or coefficient."""


class _List(list):
    """A list subclass, which a map may hold as a row."""


#: the faults put into valid maps; "subclass" puts in no fault
_FAULTS = (
    "value", "negative", "empty", "length", "short", "not a list", "image",
    "duplicate then bad", "subclass",
)


@st.composite
def _mutated_maps(draw):
    """(the plain-data form of a word's map with one to three faults put in,
    whether every fault was an int or list subclass)."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    params = Params(a, b)
    m = params.m
    letters = st.sampled_from([("s2",), ("s3",), ("m", 1, 1), ("m", 0, 1)])
    images = endo_to_obj(compose_word(params, draw(st.lists(letters, max_size=3))))["images"]
    faults = draw(st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=3))
    for fault in faults:
        i = draw(st.integers(0, 3))
        rows = images[i]
        if not isinstance(rows, list) or not rows:
            continue
        j = draw(st.integers(0, len(rows) - 1))
        row = rows[j]
        if not (isinstance(row, list) and len(row) == 2
                and isinstance(row[0], list) and isinstance(row[1], list)):
            continue
        exps, vec = row
        if fault == "value":
            entries = draw(st.sampled_from([exps, vec])) if exps and vec else exps or vec
            if entries:
                entries[draw(st.integers(0, len(entries) - 1))] = draw(
                    st.sampled_from([True, False, 1.5, "1", None])
                )
        elif fault == "negative" and len(exps) == 4:
            exps[draw(st.integers(0, 3))] = -draw(st.integers(1, 3))
        elif fault == "empty":
            row[1] = []
        elif fault == "length":
            row[1] = [1] * draw(st.integers(2, m + 2).filter(lambda n: n != m))
        elif fault == "short":
            rows[j] = row[:1]
        elif fault == "not a list":
            rows[j] = draw(st.sampled_from([5, "row", None, (exps, vec), {}]))
        elif fault == "image":
            images[i] = draw(st.sampled_from([None, {}, "image", 3]))
        elif fault == "duplicate then bad":
            rows.append([list(exps), [1]])
            if i < 3 and isinstance(images[3], list) and images[3]:
                images[3][0] = [[0, 0, 0, -1], [1]]
        elif all(type(v) is int for v in exps + vec):
            rows[j] = _List([[_Int(v) for v in exps], [_Int(v) for v in vec]])
    return {"a": a, "b": b, "images": images}, set(faults) == {"subclass"}


def _read(loader, obj):
    """("map", plain-data form) or ("error", message) of ``loader(obj)``."""
    try:
        return ("map", endo_to_obj(loader(obj)))
    except ParseError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(case=_mutated_maps())
def test_map_reading_matches_the_row_by_row_loader(case):
    """``endo_from_obj``, which checks the rows of each image and then
    builds its terms with one dict comprehension, and the loader that did
    both row by row give the same map, or the same ParseError text with the
    same precedence, on valid maps with wrong types (bool, float, str,
    None), negative exponents, empty vectors and vectors of a length other
    than 1 and m, short and non-list rows, non-list images, a duplicate
    exponent followed by a bad row in a later image, and int and list
    subclasses, which are accepted."""
    obj, subclasses_only = case
    got = _read(endo_from_obj, obj)
    assert got == _read(_read_row_by_row, obj)
    if subclasses_only:
        assert got[0] == "map"


def test_serialization_verify_flag():
    params = Params(2, 2)
    obj = endo_to_obj(sigma2(params))
    obj["images"][0] = [[[9, 0, 0, 0], [1]]]
    f = endo_from_obj(obj)
    assert not f.verified
    assert endo_from_obj(endo_to_obj(sigma2(params))).verified


@pytest.fixture
def relation_checks(monkeypatch):
    """The maps whose relations ``is_endomorphism`` checks, in call order."""
    checked = []
    real = surface.is_endomorphism

    def counting(f):
        checked.append(f)
        return real(f)

    monkeypatch.setattr(surface, "is_endomorphism", counting)
    return checked


def test_verified_is_checked_once_on_first_read(relation_checks):
    params = Params(2, 2)
    good = endo_from_obj(endo_to_obj(compose_word(params, [("s2",), ("s3",)])))
    obj = endo_to_obj(sigma2(params))
    obj["images"][0] = [[[9, 0, 0, 0], [1]]]  # y1 -> y1^9 breaks y1*y3 = y2^2 + 1
    bad = endo_from_obj(obj)
    assert relation_checks == []
    assert good.verified and good.verified
    assert relation_checks == [good]
    assert not bad.verified and not bad.verified
    assert relation_checks == [good, bad]


def test_compose_combines_known_flags_without_checking(relation_checks):
    params = Params(2, 1)
    word = compose_word(params, [("s2",), ("m", 1, 0)])
    literal = sigma3(params, paper_literal=True)
    f = endo_from_obj(endo_to_obj(word))
    g = endo_from_obj(endo_to_obj(sigma2(params)))
    assert compose(word, word)._verified is True
    assert compose(word, literal)._verified is False
    assert compose(f, literal)._verified is False
    assert compose(f, word)._verified is None
    unforced = compose(f, g)
    assert unforced._verified is None
    assert relation_checks == []
    assert unforced.verified and relation_checks == [unforced]
    assert f._verified is None and g._verified is None


# -- the table of surface variables -----------------------------------------


def fold(params, word, paper_literal=False):
    """A word of letters composed left to right, one letter at a time."""
    f = identity(params)
    for atom in word:
        f = compose(f, make_generator(params, atom, paper_literal))
    return f


def same_terms(f, g):
    """Equal maps with the same term maps in the same dict order."""
    return (f.params, f.verified) == (g.params, g.verified) and all(
        p.ring == q.ring and list(p.terms()) == list(q.terms())
        for p, q in zip(f.images, g.images)
    )


def outcome(fn, params, word):
    """(verified, (ring, term map) per image) of a word's map, or the
    class and text of the error it raises."""
    try:
        f = fn(params, word)
    except SwapRequiresEqualParams as exc:
        return ("error", type(exc).__name__, str(exc))
    return (f.verified, tuple((e.ring, e.term_map()) for e in f.images))


def random_letters(rng, params, max_len):
    atoms = [("s2",), ("s3",), ("m", rng.randrange(params.a), rng.randrange(params.b))]
    if params.a == params.b and params.a >= 2:
        atoms.append(("h",))
    return [rng.choice(atoms) for _ in range(rng.randrange(0, max_len + 1))]


def surface_entries():
    """{(params, n): value} for every surface variable in the walk cache."""
    return {
        (key[0], key[2]): value
        for key, (value, _) in cluster._walks.entries.items()
        if key[1:2] == ("surface",)
    }


def check_cache_consistent():
    walks = cluster._walks
    entries = walks.entries.values()
    assert walks.terms == sum(size for _, size in entries) <= cluster.WALK_CACHE_TERMS
    for value, size in entries:
        values = value.values if isinstance(value, cluster._Prefix) else [value]
        assert size == sum(v.num_terms for v in values)


def test_fold_matches_letters_on_short_words():
    """Every word of up to four letters over s2, s3, h and the scalings maps
    to the letter-by-letter composition, as term maps and ring; h at a != b
    raises the same error on both paths."""
    for a, b in ((1, 1), (2, 1), (2, 2)):
        params = Params(a, b)
        letters = [("s2",), ("s3",), ("h",)]
        letters += [("m", i, j) for i in range(a) for j in range(b)]
        for n in range(5):
            for word in itertools.product(letters, repeat=n):
                want = outcome(compose_letters, params, word)
                assert outcome(compose_word, params, word) == want, (a, b, word)


def test_fold_matches_letters_on_random_words_with_powers():
    rng = random.Random(12)
    # (pair, largest |k| of r^k and |2 - p| of sp(p), longest word): the
    # wild pair keeps its indices where y_n has at most a few hundred terms
    for (a, b), reach, longest in (((3, 1), 9, 6), ((4, 1), 2, 4), ((3, 2), 1, 3)):
        params = Params(a, b)
        for _ in range(25):
            atoms = [
                ("s2",), ("s3",), ("m", rng.randrange(a), rng.randrange(b)),
                ("r", rng.randint(-reach, reach)), ("sp", 2 + rng.randint(-reach, reach)),
            ]
            word = [rng.choice(atoms) for _ in range(rng.randint(0, longest))]
            want = outcome(compose_letters, params, word)
            assert outcome(compose_word, params, word) == want, (a, b, word)


def test_an_unknown_atom_is_refused_by_the_fold():
    """The fold names an atom it does not know, as ``make_generator`` does,
    and so do the maps and group elements of words."""
    params = Params(2, 2)
    for word, bad in (
        ([("x",)], ("x",)), ([("s2",), ("q", 1)], ("q", 1)), ([("x",), ("m", 1, 0)], ("x",)),
    ):
        want = f"unknown generator atom {bad!r}"
        for fold in (
            lambda: fold_word(params, word),
            lambda: compose_word(params, word),
            lambda: autgroup.from_word(autgroup.structure_of(params), word),
        ):
            with pytest.raises(ValueError) as exc:
                fold()
            assert str(exc.value) == want
    with pytest.raises(ValueError) as exc:
        make_generator(params, ("x",))
    assert str(exc.value) == "unknown generator atom ('x',)"


def point_value(params, y):
    """y at the F_p point that ``autgroup.identify`` reads maps at."""
    _, point, _ = autgroup._reading(params)
    p1, p2, p3, p4 = point
    q = autgroup.PRIME
    value = 0
    for (i, j, k, l, _), c in y.terms():
        value += c * pow(p1, i, q) * pow(p2, j, q) * pow(p3, k, q) * pow(p4, l, q)
    return value % q


def test_every_surface_variable_is_checked_three_ways():
    """Each table entry built here through words equals the substitution
    walk's y_n and, expanded in the Laurent ring of (y1, y2), the cluster
    walk's y_n at (a, b) (the table reads the walk at (b, a) in (y2, y3));
    it takes the value of y_n in the orbit of the F_p point; and each takes
    part in an exchange relation y_(n-1) y_(n+1) = y_n^c + 1, checked in
    normal form."""
    rng = random.Random(5)
    clear_walk_cache()
    for a, b, reach in ((1, 1, 6), (2, 1, 6), (1, 3, 6), (2, 2, 4), (4, 1, 3), (1, 4, 3), (3, 2, 1)):
        params = Params(a, b)
        for _ in range(10):
            compose_word(params, random_letters(rng, params, 4))
        for k in range(-reach, reach + 1):
            compose_word(params, [("r", k)])
    entries = surface_entries()
    assert len(entries) >= 50
    related = set()
    for (params, n), y in entries.items():
        assert y is surface_var(params, n)
        assert y.term_map() == reference_surface_var(params, n).term_map(), (params, n)
        assert laurent_expand(params, y) == cluster_var(params, n).value, (params, n)
        period = cluster.expected_period(params)
        _, _, orbit = autgroup._reading(params)
        assert orbit[point_value(params, y)] == ((n - 1) % period + 1 if period else n)
        if period is None and not all(
            (params, m) in entries or 1 <= m <= 4 for m in (n - 1, n + 1)
        ):
            continue  # an end of its walk: checked as a neighbour
        c = params.a if n % 2 == 0 else params.b
        lo, hi = surface_var(params, n - 1), surface_var(params, n + 1)
        assert normal_form(params, lo * hi - y ** c - LaurentPoly.one()).is_zero()
        related |= {(params, n - 1), (params, n), (params, n + 1)}
    assert set(entries) <= related


def test_surface_table_warm_and_cold_agree():
    rng = random.Random(7)
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2), (1, 3)):
        params = Params(a, b)
        ns = range(-3, 9) if a * b < 6 else range(-2, 8)
        clear_walk_cache()
        warm = {n: surface_var(params, n) for n in ns}
        for n, y in warm.items():
            assert surface_var(params, n) is y
        for n, y in warm.items():
            clear_walk_cache()
            assert list(surface_var(params, n).terms()) == list(y.terms())
        check_cache_consistent()
        # a word's map is built from the entries, whether they were cached or not
        words = [random_letters(rng, params, 5) for _ in range(12)]
        warm_maps = [compose_word(params, w) for w in words]
        for word, f in zip(words, warm_maps):
            clear_walk_cache()
            assert same_terms(compose_word(params, word), f)
            assert outcome(compose_word, params, word) == outcome(compose_letters, params, word)
    clear_walk_cache()
    assert cluster._walks.terms == 0 and not surface_entries()


def test_surface_table_is_keyed_by_budget():
    params = Params(3, 2)
    word = [("s2",), ("s3",), ("s2",)]  # y1, y0, y-1 and y-2: 43 terms
    clear_walk_cache()
    want = compose_word(params, word + [("s3",)])
    with limit(20):
        for w in (word, word + [("s3",)], [("sp", 0)], [("r", 2)]):
            with pytest.raises(BudgetExceeded):
                compose_word(params, w)
    with limit(200):
        f = compose_word(params, word)
        assert outcome(compose_word, params, word) == outcome(compose_letters, params, word)
    budgets = {key[3] for key in cluster._walks.entries if key[1:2] == ("surface",)}
    assert budgets == {20, 200, current_max_terms()}
    # the default budget's entries were kept through the refusals
    assert all(
        p is q for p, q in zip(compose_word(params, word + [("s3",)]).images, want.images)
    )
    assert not any(p is q for p, q in zip(compose_word(params, word).images[1:], f.images[1:]))


def test_paper_literal_words_take_the_letter_path():
    params = Params(2, 3)
    word = [("s3",), ("s2",)]
    clear_walk_cache()
    literal = compose_word(params, word, True)
    assert not surface_entries()
    assert same_terms(literal, fold(params, word, True))
    assert same_terms(literal, compose_letters(params, word, True))
    group = compose_word(params, word)
    assert outcome(compose_word, params, word) == outcome(fold, params, word)
    assert group.verified and not literal.verified
    assert not equal(group, literal)


def test_literal_words_at_equal_params_are_folded(monkeypatch):
    """At a = b the literal sigma3 is the corrected one, so a literal word is
    folded like any word, and its map is the one its letters compose to."""
    rng = random.Random(20)

    def no_letters(*args):
        raise AssertionError("composed one letter at a time")

    monkeypatch.setattr(surface, "compose_letters", no_letters)
    for a in (1, 2, 3):
        params = Params(a, a)
        words = [[("s3",)], [("s2",), ("s3",)], [("r", -2)], [("sp", 3)], [("m", 1, 0), ("s3",)]]
        words += [random_letters(rng, params, 4) for _ in range(6)]
        for word in words:
            want = outcome(lambda p, w: compose_letters(p, w, True), params, word)
            assert outcome(lambda p, w: compose_word(p, w, True), params, word) == want
    with pytest.raises(AssertionError, match="one letter at a time"):
        compose_word(Params(2, 3), [("s3",)], True)


def test_surface_table_stays_within_its_bound(monkeypatch):
    bound = 250
    params = Params(2, 2)
    cold = {n: cluster_var(params, n).value for n in range(-12, 17)}
    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", bound)
    budget = current_max_terms()
    # at (2,2) every surface value is read from the one walk up at (2,2):
    # y_n and y_(5-n) both from its y_(n-1), so the two signs evict alike
    walk = (params, budget)
    for sign in (1, -1):
        clear_walk_cache()
        values = []
        for i in range(5, 17):
            n = i if sign == 1 else 5 - i
            assert laurent_expand(params, surface_var(params, n)) == cold[n]
            check_cache_consistent()
            values.append((params, "surface", n, budget))
            keys = list(cluster._walks.entries)
            if i <= 11:
                # y5..y11 (115 terms) fit beside the Laurent walk through y10
                assert keys == values[:-1] + [walk, values[-1]]
            elif i == 12:
                # the walk's step to y11 evicts the values, least recent first
                assert keys == [walk, values[-1]]
            else:
                # each value evicts the walk, which was used before it
                assert keys == values[-1:]
    # a value larger than the bound is handed out and not cached
    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", 90)
    clear_walk_cache()
    assert surface_var(params, -12).num_terms == 98
    assert laurent_expand(params, surface_var(params, -12)) == cold[-12]
    assert not surface_entries()
    check_cache_consistent()


def test_threads_share_the_surface_table_safely(monkeypatch):
    # A small bound and frequent clears make the threads evict, extend and
    # look up the walks of the same pairs at the same time.
    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", 120)
    rng = random.Random(3)
    cases = []
    for a, b in ((1, 1), (2, 1), (2, 2), (1, 3)):
        params = Params(a, b)
        for _ in range(8):
            word = random_letters(rng, params, 4) + [("r", rng.randint(-2, 2))]
            cases.append((params, word, outcome(compose_letters, params, word)))
    errors = []

    def worker(seed):
        r = random.Random(seed)
        try:
            for _ in range(250):
                if r.random() < 0.05:
                    clear_walk_cache()
                params, word, want = r.choice(cases)
                assert outcome(compose_word, params, word) == want
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_walk_cache()
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    check_cache_consistent()
    for (params, n), y in surface_entries().items():
        assert laurent_expand(params, y) == cluster_var(params, n).value


def test_rotation_atoms_match_their_letters():
    """('r', k) and ('sp', p) map as their expanded words, and at the finite
    pairs k is reduced modulo the order of r."""
    for a, b in ((1, 1), (2, 1), (3, 1), (2, 2)):
        params = Params(a, b)
        for k in range(-5, 6):
            pair = [("s2",), ("s3",)] if k >= 0 else [("s3",), ("s2",)]
            letters = pair * abs(k)
            for word, expanded in (
                ([("r", k)], letters),
                ([("s3",), ("r", k)], [("s3",)] + letters),
                ([("sp", 2 - k)], letters + [("s2",)]),
            ):
                want = outcome(fold, params, expanded)
                assert outcome(compose_word, params, word) == want
                assert outcome(compose_letters, params, word) == want
    huge = 10 ** 20
    for a, b, order in ((1, 1, 5), (2, 1, 3), (1, 3, 4)):
        params = Params(a, b)
        for k in (huge, -huge):
            for fn in (compose_word, compose_letters):
                assert equal(fn(params, [("r", k)]), fn(params, [("r", k % order)]))
        assert equal(compose_word(params, [("sp", huge)]), compose_word(params, [("sp", 2 - (2 - huge) % order)]))


def test_generator_caches_are_bounded():
    caches = (
        surface.identity, surface.sigma2, surface.sigma3, surface.scaling,
        surface.swap, autgroup.structure_of, autgroup._reading,
    )
    for fn in caches:
        fn.cache_clear()
    pairs = [Params(a, 1) for a in range(1, surface._PAIRS + 2)]
    for params in pairs:
        identity(params)
        sigma2(params)
        sigma3(params)
        swap(Params(params.a, params.a))
    for i in range(surface._SCALINGS + 1):
        scaling(Params(1, 1), i, 0)
    # the group's point readings are kept per pair, as the structures are
    for a in range(1, autgroup.structure_of.cache_info().maxsize + 2):
        autgroup.structure_of(Params(a, 1))
        autgroup._reading(Params(a, 1))
    for fn in caches:
        info = fn.cache_info()
        assert info.currsize == info.maxsize, fn.__name__
    # each entry is kept per term budget: a second budget adds as many
    # entries for the same calls
    for fn in caches:
        fn.cache_clear()
    sizes = []
    for budget in (500, current_max_terms()):
        with limit(budget):
            for fn in caches:
                args = (Params(2, 2), 1, 1) if fn is surface.scaling else (Params(2, 2),)
                assert fn(*args) is fn(*args)
        sizes.append([fn.cache_info().currsize for fn in caches])
    assert sizes[1] == [2 * n for n in sizes[0]] and min(sizes[0]) >= 1
