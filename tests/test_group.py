"""Abstract group layer: normal forms, the word homomorphism onto surface
maps, derived conjugation tables, enumeration, and inverses."""
import random

import pytest

from clusteraut import autgroup
from clusteraut.autgroup import (
    GroupElement,
    enumerate_finite,
    from_word,
    ginv,
    gmul,
    identity_element,
    structure_of,
    to_endo,
)
from clusteraut.budget import limit
from clusteraut.errors import (
    BudgetExceeded,
    ConjugationNotScaling,
    EngineError,
    NotFiniteType,
    StructureMismatch,
    SwapRequiresEqualParams,
)
from clusteraut.poly import LaurentPoly, Params
from clusteraut.surface import (
    EndoMap,
    compose,
    compose_letters,
    compose_word,
    equal,
    identity,
    scaling,
    sigma2,
    sigma3,
    swap,
)
from clusteraut.textio import parse_word


def expanded(atom):
    """The alternating s2/s3 word that an ('r', k) or ('sp', p) atom stands for."""
    if atom[0] == "r":
        k = atom[1]
        return ([("s2",), ("s3",)] if k >= 0 else [("s3",), ("s2",)]) * abs(k)
    return expanded(("r", 2 - atom[1])) + [("s2",)]


def random_word(rng, params, max_len, allow_sp=False):
    atoms = [("s2",), ("s3",)]
    atoms.append(("m", rng.randrange(params.a), rng.randrange(params.b)))
    if params.a == params.b and params.a >= 2:
        atoms.append(("h",))
    if allow_sp:
        atoms.append(("sp", rng.randrange(-1, 4)))
    return [rng.choice(atoms) for _ in range(rng.randrange(0, max_len + 1))]


def test_structure_cases():
    expect = {
        (1, 1): ("A2", 10, 1, False),
        (2, 1): ("B2-like", 6, 2, False),
        (1, 2): ("B2-like", 6, 2, False),
        (3, 1): ("G2-like", 8, 3, False),
        (1, 3): ("G2-like", 8, 3, False),
        (2, 2): ("EqualGE2", None, 4, True),
        (3, 3): ("EqualGE2", None, 9, True),
        (3, 2): ("GenericInfinite", None, 6, False),
        (4, 1): ("GenericInfinite", None, 4, False),
    }
    for (a, b), (case, dihedral, mu, has_swap) in expect.items():
        st = structure_of(Params(a, b))
        assert st.case == case
        assert st.dihedral_order == dihedral
        assert st.mu_order == mu
        assert st.has_swap == has_swap
        assert st.is_finite == (dihedral is not None)
        assert st.describe()


def test_enumeration_counts():
    for (a, b), count in (((1, 1), 10), ((2, 1), 12), ((1, 2), 12), ((3, 1), 24), ((1, 3), 24)):
        st = structure_of(Params(a, b))
        elements = enumerate_finite(st)
        assert len(elements) == count
        assert len(set(elements)) == count


def test_enumeration_distinct_as_surface_maps():
    for a, b in ((1, 1), (2, 1), (3, 1)):
        st = structure_of(Params(a, b))
        enumerate_finite(st)


def test_enumeration_is_checked_once_and_handed_out_fresh():
    finite = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]
    autgroup._finite_elements.cache_clear()
    warm = {ab: enumerate_finite(structure_of(Params(*ab))) for ab in finite}
    for ab, elements in warm.items():
        st = structure_of(Params(*ab))
        want = list(elements)
        elements.append(identity_element(st))
        elements.reverse()
        assert enumerate_finite(st) == want
        autgroup._finite_elements.cache_clear()
        assert enumerate_finite(st) == want
    assert autgroup._finite_elements.cache_info().currsize == 1
    # the check's maps are refused under a small budget, cached or not
    st = structure_of(Params(3, 1))
    enumerate_finite(st)
    for _ in range(2):
        with limit(5), pytest.raises(BudgetExceeded):
            enumerate_finite(st)


def test_enumeration_requires_finite():
    with pytest.raises(NotFiniteType):
        enumerate_finite(structure_of(Params(2, 2)))


def test_word_homomorphism_random():
    rng = random.Random(606)
    for a, b in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 2)):
        params = Params(a, b)
        st = structure_of(params)
        finite = st.is_finite
        # long alternating words grow fast in the infinite cases; the full
        # 100-word battery lives in the acceptance tests
        max_len = 5 if finite else 4
        for _ in range(20):
            word = random_word(rng, params, max_len, allow_sp=finite)
            x = from_word(st, word)
            assert equal(to_endo(x), compose_letters(params, word))


def test_gmul_matches_composition_on_finite_groups():
    for a, b in ((1, 1), (2, 1)):
        st = structure_of(Params(a, b))
        elements = enumerate_finite(st)
        endos = {e: to_endo(e) for e in elements}
        for x in elements:
            for y in elements:
                assert equal(to_endo(gmul(x, y)), compose(endos[x], endos[y]))


def test_gmul_matches_composition_random_infinite():
    rng = random.Random(17)
    for a, b in ((2, 2), (3, 2)):
        params = Params(a, b)
        st = structure_of(params)
        for _ in range(15):
            wx = random_word(rng, params, 2)
            wy = random_word(rng, params, 2)
            x, y = from_word(st, wx), from_word(st, wy)
            assert equal(to_endo(gmul(x, y)), compose_letters(params, wx + wy))


def test_group_axioms_abstract():
    rng = random.Random(99)
    for a, b in ((2, 1), (2, 2), (3, 2), (3, 3)):
        params = Params(a, b)
        st = structure_of(params)
        e = identity_element(st)
        for _ in range(40):
            x = from_word(st, random_word(rng, params, 6))
            y = from_word(st, random_word(rng, params, 6))
            z = from_word(st, random_word(rng, params, 6))
            assert gmul(gmul(x, y), z) == gmul(x, gmul(y, z))
            assert gmul(x, e) == x
            assert gmul(e, x) == x
            assert gmul(x, ginv(x)) == e
            assert gmul(ginv(x), x) == e
            assert ginv(ginv(x)) == x


def test_conjugation_tables_match_surface_maps():
    """The derived scaling-action tables must reproduce conjugation:
    m(i,j) . g == g . m(table(i,j)) as surface maps."""
    for a, b in ((2, 1), (3, 2), (2, 2), (3, 3)):
        params = Params(a, b)
        st = structure_of(params)
        gens = [("s2", sigma2(params), st.s2_table), ("s3", sigma3(params), st.s3_table)]
        if st.has_swap:
            gens.append(("h", swap(params), st.h_table))
        for _, g, table in gens:
            (m00, m01), (m10, m11) = table
            for i in range(a):
                for j in range(b):
                    ti = (m00 * i + m01 * j) % a
                    tj = (m10 * i + m11 * j) % b
                    lhs = compose(scaling(params, i, j), g)
                    rhs = compose(g, scaling(params, ti, tj))
                    assert equal(lhs, rhs)


def test_normal_form_strings_round_trip():
    rng = random.Random(3)
    for a, b in ((2, 1), (3, 1), (2, 2), (4, 1)):
        params = Params(a, b)
        st = structure_of(params)
        assert str(identity_element(st)) == "id"
        for _ in range(25):
            x = from_word(st, random_word(rng, params, 6))
            assert from_word(st, parse_word(str(x))) == x


def test_finite_rotation_exponent_wraps():
    st = structure_of(Params(1, 1))
    assert GroupElement(st, r_exp=7).r_exp == 2
    assert GroupElement(st, r_exp=-1).r_exp == 4
    big = from_word(st, [("s2",), ("s3",)] * 7)
    assert big.r_exp == 2 and big.s == 0


def test_swap_flag_requires_equal_params():
    st = structure_of(Params(2, 3))
    with pytest.raises(SwapRequiresEqualParams):
        GroupElement(st, h=1)
    with pytest.raises(SwapRequiresEqualParams):
        from_word(st, [("h",)])


def test_structure_mismatch_rejected():
    x = identity_element(structure_of(Params(2, 2)))
    y = identity_element(structure_of(Params(2, 1)))
    with pytest.raises(StructureMismatch):
        gmul(x, y)


def test_swap_relations_at_equal_params():
    """h conjugates the two involutions into each other and transposes the
    scaling indices; h^2 = id."""
    for a in (2, 3):
        params = Params(a, a)
        st = structure_of(params)
        h = from_word(st, [("h",)])
        s2 = from_word(st, [("s2",)])
        s3 = from_word(st, [("s3",)])
        assert gmul(h, h) == identity_element(st)
        assert gmul(gmul(h, s2), h) == s3
        for i in range(a):
            for j in range(a):
                m = from_word(st, [("m", i, j)])
                swapped = from_word(st, [("m", j, i)])
                assert gmul(gmul(h, m), h) == swapped


def test_pentagon_case_special_relation():
    """At (1,1) the coordinate reversal is itself a sigma-word."""
    from clusteraut.poly import LaurentPoly
    from clusteraut.surface import EndoMap

    params = Params(1, 1)
    st = structure_of(params)
    w = from_word(st, [("s2",), ("s3",), ("s2",), ("s3",), ("s2",)])
    reversal = EndoMap.make(
        params, [LaurentPoly.variable(i) for i in (4, 3, 2, 1)]
    )
    assert equal(to_endo(w), reversal)
    assert equal(to_endo(from_word(st, [("sp", 3)])), compose_letters(params, [("sp", 3)]))


def test_scaling_commutes_in_b2_case():
    params = Params(2, 1)
    st = structure_of(params)
    m = from_word(st, [("m", 1, 0)])
    for word in ([("s2",)], [("s3",)], [("s2",), ("s3",)]):
        g = from_word(st, word)
        assert gmul(m, g) == gmul(g, m)


def test_to_endo_of_identity():
    for a, b in ((1, 1), (2, 2), (3, 2)):
        params = Params(a, b)
        st = structure_of(params)
        assert equal(to_endo(identity_element(st)), identity(params))


def test_sp_atom_folds_as_rotation_then_s2():
    """('sp', p) folds as r^(2-p) s2, the same element as its expanded word,
    and a huge p costs no more than a small one."""
    for a, b in ((1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (3, 3)):
        st = structure_of(Params(a, b))
        prefixes = [[], [("s3",)], [("m", a - 1, b - 1), ("s2",)]]
        if a == b:
            prefixes.append([("h",)])
        for p in range(-12, 15):
            for prefix in prefixes:
                for suffix in ([], [("s3",)]):
                    folded = from_word(st, prefix + [("sp", p)] + suffix)
                    unfolded = from_word(st, prefix + expanded(("sp", p)) + suffix)
                    assert folded == unfolded
    st = structure_of(Params(2, 2))
    huge = 10 ** 20
    assert from_word(st, [("sp", huge)]) == GroupElement(st, 2 - huge, 1)
    assert from_word(st, [("sp", huge), ("s2",)]) == GroupElement(st, 2 - huge)


def test_r_atom_folds_as_one_power():
    """('r', k) folds as one shift of every index by -2k, the same element
    as its expanded word, and a huge k costs no more than a small one."""
    for a, b in ((1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (3, 3)):
        st = structure_of(Params(a, b))
        prefixes = [[], [("s3",)], [("m", a - 1, b - 1), ("s2",)]]
        if a == b:
            prefixes.append([("h",)])
        for k in range(-12, 13):
            for prefix in prefixes:
                for suffix in ([], [("s3",)], [("m", 1, 0)]):
                    folded = from_word(st, prefix + [("r", k)] + suffix)
                    unfolded = from_word(st, prefix + expanded(("r", k)) + suffix)
                    assert folded == unfolded
    st = structure_of(Params(2, 2))
    huge = 10 ** 20
    assert from_word(st, [("r", huge), ("s2",)]) == GroupElement(st, huge, 1)
    assert from_word(st, parse_word(f"r^-{huge} h")) == GroupElement(st, -huge, h=1)


def reference_conjugate(params, g, basis):
    """(i, j) with g o scaling(basis) o g == scaling(i, j), found by composing
    the maps and matching the conjugate against every scaling in turn, or
    None when the conjugate is no scaling."""
    conj = compose(compose(g, scaling(params, *basis)), g)
    hits = [
        (i, j) for i in range(params.a) for j in range(params.b)
        if equal(conj, scaling(params, i, j))
    ]
    return hits[0] if hits else None


def reference_action_tables(params):
    """The tables as they were first derived, by composing maps."""

    def table(g):
        cols = [reference_conjugate(params, g, basis) for basis in ((1, 0), (0, 1))]
        return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))

    return {
        "s2": table(sigma2(params)),
        "s3": table(sigma3(params)),
        "h": table(swap(params)) if params.a == params.b else None,
    }


def test_action_tables_match_the_scaling_search():
    """The tables read from the word folds and checked on the generators'
    images equal those the search over every scaling finds, at every pair
    with a, b <= 6 and at a few larger ones."""
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7)]
    for a, b in pairs + [(7, 3), (3, 7), (5, 8), (10, 10), (12, 5)]:
        params = Params(a, b)
        assert autgroup.derive_action_tables(params) == reference_action_tables(params)


def test_a_conjugate_that_is_no_scaling_is_refused():
    # the literal s3 at (2,1) does not normalize the scalings
    params = Params(2, 1)
    assert reference_conjugate(params, sigma3(params, True), (1, 0)) is None
    assert reference_conjugate(params, sigma3(params), (1, 0)) == (1, 0)
    # the fold of s3 m(1,0) s3 at (3,2) is m(2,0), which sigma2's images refute
    params = Params(3, 2)
    assert autgroup._conjugation_table(params, sigma3(params), "s3") == ((2, 0), (0, 1))
    with pytest.raises(ConjugationNotScaling) as exc:
        autgroup._conjugation_table(params, sigma2(params), "s3")
    assert str(exc.value) == "conjugate of scaling(1, 0) by s3 is not a scaling"


def test_h_conjugate_by_renaming_equals_the_composition():
    """h o f o h read by renaming is the composed map, term for term and in
    the same order, for sigma2 and sigma3 at every a = b <= 12."""
    for a in range(1, 13):
        params = Params(a, a)
        h = swap(params)
        for f in (sigma2(params), sigma3(params)):
            got = autgroup._h_conjugate(f)
            want = compose(compose(h, f), h)
            assert equal(got, want)
            assert [list(e.terms()) for e in got.images] == [
                list(e.terms()) for e in want.images
            ]


def test_a_wrong_sigma2_fails_the_h_check(monkeypatch):
    """A sigma2 with one coefficient of y0 off by one keeps the supports that
    its action table is checked on, and is refused by h o s2 o h = s3."""
    params = Params(3, 3)
    s2 = sigma2(params)
    y0 = s2.images[3]
    terms = y0.term_map()
    key = list(terms)[-1]
    terms[key] += 1
    bad = EndoMap(params, s2.images[:3] + (LaurentPoly(y0.ring, terms),))
    monkeypatch.setattr(autgroup, "sigma2", lambda _: bad)
    with pytest.raises(ConjugationNotScaling) as exc:
        autgroup.derive_action_tables(params)
    assert str(exc.value) == "h o s2 o h does not equal s3; conjugation model is unsound"


def test_a_collision_in_the_enumeration_is_refused(monkeypatch):
    """The collision check groups the maps by hash; two elements that share
    a map still meet in one group."""
    st = structure_of(Params(2, 1))
    clash = GroupElement(st, 1, 1, (1, 0))
    real = autgroup.to_endo
    monkeypatch.setattr(
        autgroup, "to_endo", lambda x: real(identity_element(st) if x == clash else x)
    )
    autgroup._finite_elements.cache_clear()
    with pytest.raises(EngineError) as exc:
        enumerate_finite(st)
    assert str(exc.value) == "distinct normal forms evaluate to the same map"
    monkeypatch.undo()
    autgroup._finite_elements.cache_clear()
    assert len(enumerate_finite(st)) == 12


def test_equal_maps_over_two_rings_hash_alike():
    for a, b in ((1, 1), (2, 1), (3, 2), (2, 2)):
        params = Params(a, b)
        for word in ([("s2",)], [("s3",), ("s2",)], [("r", 1)]):
            over_z = compose_word(params, word)
            wide = compose_word(params, word + [("m", 0, 0)])
            assert over_z.ring != wide.ring and over_z == wide
            assert hash(over_z) == hash(wide)
