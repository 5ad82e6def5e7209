"""The group law read from word folds against the table-driven law it
replaces.

``reference_from_word``, ``reference_gmul`` and ``reference_ginv`` are the
earlier implementation, kept here as it was: normal forms r^k s2^s m(i, j)
h^e multiplied one generator at a time, with each scaling pushed through
s2, s3 and h by the 2x2 conjugation tables of the group structure.  The
elements and error texts of ``autgroup.from_word``, ``gmul`` and ``ginv``
must match theirs.
"""
import random

import pytest

from clusteraut.autgroup import GroupElement, from_word, ginv, gmul, structure_of
from clusteraut.errors import EngineError, SwapRequiresEqualParams
from clusteraut.poly import Params


# -- the earlier implementation --------------------------------------------


def _apply_table(table, mu, params):
    (m00, m01), (m10, m11) = table
    i, j = mu
    return ((m00 * i + m01 * j) % params.a, (m10 * i + m11 * j) % params.b)


def _r_conj_once(structure, mu, inverse):
    p = structure.params
    if inverse:
        # r * m * r^-1: pass through s3 first, then s2
        return _apply_table(
            structure.s2_table, _apply_table(structure.s3_table, mu, p), p
        )
    # r^-1 * m * r: pass through s2 first, then s3
    return _apply_table(
        structure.s3_table, _apply_table(structure.s2_table, mu, p), p
    )


def _r_conj(structure, t, mu):
    """Index pair of r^-t * scaling(mu) * r^t."""
    if mu == (0, 0) or t == 0:
        return mu
    inverse = t < 0
    # the conjugation is an automorphism of a finite group, so it cycles;
    # find the small period instead of iterating |t| times
    seen = [mu]
    cur = mu
    for _ in range(abs(t)):
        cur = _r_conj_once(structure, cur, inverse)
        if cur == mu:
            return seen[abs(t) % len(seen)]
        seen.append(cur)
        if len(seen) > 64:
            raise EngineError("conjugation action failed to cycle")
    return cur


def _append_r_power(e, t):
    """e * r^t in normal form."""
    if t == 0:
        return e
    # passing r^t through the reversal flips its exponent before it meets mu
    t_inner = -t if e.h else t
    sign = -1 if (e.s + e.h) & 1 else 1
    return GroupElement(
        e.structure,
        e.r_exp + sign * t,
        e.s,
        _r_conj(e.structure, t_inner, e.mu),
        e.h,
    )


def _append_s2(e):
    """e * s2 in normal form."""
    st = e.structure
    p = st.params
    if e.h == 0:
        return GroupElement(
            st, e.r_exp, e.s ^ 1, _apply_table(st.s2_table, e.mu, p), 0
        )
    # m h s2 = m s3 h = s2 r m' h with m' the s3-conjugate of m
    sign = -1 if e.s == 0 else 1
    return GroupElement(
        st, e.r_exp + sign, e.s ^ 1, _apply_table(st.s3_table, e.mu, p), 1
    )


def _append_s3(e):
    """e * s3 = (e * s2) * r."""
    return _append_r_power(_append_s2(e), 1)


def _append_scaling(e, i, j):
    st = e.structure
    p = st.params
    if e.h:
        i, j = _apply_table(st.h_table, (i, j), p)
    return GroupElement(st, e.r_exp, e.s, (e.mu[0] + i, e.mu[1] + j), e.h)


def _append_h(e):
    st = e.structure
    if st.params == Params(1, 1):
        # the reversal exists but coincides with r^2 s2 (order-10 dihedral)
        return _append_s2(_append_r_power(e, 2))
    if not st.has_swap:
        raise SwapRequiresEqualParams(
            f"no reversal generator for {st.params}"
        )
    return GroupElement(st, e.r_exp, e.s, e.mu, e.h ^ 1)


def reference_gmul(x, y):
    """Product x * y in normal form."""
    e = _append_r_power(x, y.r_exp)
    if y.s:
        e = _append_s2(e)
    if y.mu != (0, 0):
        e = _append_scaling(e, *y.mu)
    if y.h:
        e = _append_h(e)
    return e


def reference_ginv(x):
    """Inverse element: reference_gmul(x, reference_ginv(x)) is the identity."""
    e = GroupElement(x.structure)
    if x.h:
        e = _append_h(e)
    if x.mu != (0, 0):
        e = _append_scaling(e, -x.mu[0], -x.mu[1])
    if x.s:
        e = _append_s2(e)
    return _append_r_power(e, -x.r_exp)


def reference_from_word(structure, word):
    """Fold a word of generator atoms, leftmost acting last."""
    e = GroupElement(structure)
    for atom in word:
        kind = atom[0]
        if kind == "s2":
            e = _append_s2(e)
        elif kind == "s3":
            e = _append_s3(e)
        elif kind == "m":
            e = _append_scaling(e, atom[1], atom[2])
        elif kind == "h":
            e = _append_h(e)
        elif kind == "r":
            e = _append_r_power(e, atom[1])
        elif kind == "sp":
            # sigma_p = (s3 s2)^(p-2) s2 = r^(2-p) s2
            e = _append_s2(_append_r_power(e, 2 - atom[1]))
        else:
            raise ValueError(f"unknown generator atom {atom!r}")
    return e


# -- comparisons -----------------------------------------------------------


PAIRS = [(a, b) for a in range(1, 7) for b in range(1, 7)] + [
    (7, 3), (12, 5), (10, 10), (60, 60),
]


def random_index(rng):
    return rng.choice((rng.randint(-30, 30), rng.randint(-10**20, 10**20)))


def random_atom(rng, params):
    kind = rng.choice(("s2", "s3", "h", "sp", "m", "r") if params.a == params.b
                      else ("s2", "s3", "sp", "m", "r"))
    if kind == "m":
        return ("m", random_index(rng), random_index(rng))
    if kind in ("r", "sp"):
        return (kind, random_index(rng))
    return (kind,)


def random_word(rng, params):
    return [random_atom(rng, params) for _ in range(rng.randint(0, 8))]


@pytest.mark.parametrize("a,b", PAIRS)
def test_the_folded_group_law_matches_the_tables(a, b):
    """from_word, gmul and ginv give the reference's elements on random words
    over s2, s3, h, sp(p), m(i, j) and r^k, with negative and huge i, j, k
    and p."""
    params = Params(a, b)
    st = structure_of(params)
    rng = random.Random(1000 * a + b)
    for _ in range(40):
        wx, wy = random_word(rng, params), random_word(rng, params)
        x = from_word(st, wx)
        assert x == reference_from_word(st, wx), wx
        y = from_word(st, wy)
        assert gmul(x, y) == reference_gmul(x, y), (wx, wy)
        assert ginv(x) == reference_ginv(x), wx


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (3, 3)])
def test_every_small_product_matches_the_tables(a, b):
    """Every product and inverse of the elements with |k| <= 2 (every
    element in the finite cases)."""
    st = structure_of(Params(a, b))
    ks = range(st.r_order) if st.is_finite else range(-2, 3)
    elements = [
        GroupElement(st, k, s, (i, j), h)
        for k in ks for s in (0, 1) for i in range(a) for j in range(b)
        for h in ((0, 1) if st.has_swap else (0,))
    ]
    for x in elements:
        assert ginv(x) == reference_ginv(x)
        for y in elements:
            assert gmul(x, y) == reference_gmul(x, y)


def test_words_the_group_refuses_give_the_reference_errors():
    for a, b, word in (
        (2, 1, [("h",)]),
        (2, 3, [("s2",), ("m", 1, 2), ("h",)]),
        (2, 2, [("x",)]),
        (3, 2, [("s2",), ("q", 1)]),
    ):
        st = structure_of(Params(a, b))
        with pytest.raises(Exception) as want:
            reference_from_word(st, word)
        with pytest.raises(want.type) as got:
            from_word(st, word)
        assert str(got.value) == str(want.value)

