"""Sparse Laurent polynomials: arithmetic axioms, division, substitution,
the packed monomial keys, and agreement between the kernel and plain
references that keep the surrogate coefficients as vectors (``RSOps``)."""
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteraut import _kernel as K
from clusteraut.budget import WORK_FACTOR
from clusteraut.errors import (
    BudgetExceeded,
    DivisionByZero,
    NegativeExponent,
    NegativePower,
    NotDivisible,
    RingMismatch,
)
from clusteraut.poly import (
    LaurentPoly,
    Params,
    embed,
    exact_div,
    substitute,
    weighted_degree,
)
from clusteraut.rings import ZZ, RSOps, root_surrogate


def random_poly(rng, ring, n_terms=5, span=4, negatives=True):
    """Random terms; over a surrogate ring each monomial gets a random
    coefficient vector, one term per power of t."""
    lo = -span if negatives else 0
    terms = {}
    for _ in range(rng.randrange(1, n_terms + 1)):
        exps = tuple(rng.randrange(lo, span + 1) for _ in range(4))
        if ring.is_integers:
            terms[exps + (0,)] = rng.randrange(-6, 7)
        else:
            for k in range(ring.m):
                terms[exps + (k,)] = rng.randrange(-6, 7)
    return LaurentPoly.from_terms(ring, terms)


def split(tv: dict) -> dict:
    """A term map with int or vector coefficients and exponent 4-tuples as
    the kernel's term map: one term per nonzero power of t."""
    out = {}
    for exps, v in tv.items():
        for k, c in enumerate([v] if isinstance(v, int) else v):
            if c:
                out[exps + (k,)] = c
    return out


def regroup(tp: dict, m: int) -> dict:
    """The kernel's term map with int coefficients (m = 0) or coefficient
    vectors of length m (powers of t taken mod m) and exponent 4-tuples,
    dict order kept."""
    if not m:
        assert all(key[4] == 0 for key in tp)
        return {key[:4]: c for key, c in tp.items()}
    out = {}
    for key, c in tp.items():
        out.setdefault(key[:4], [0] * m)[key[4] % m] += c
    return {exps: tuple(v) for exps, v in out.items() if any(v)}


def test_poly_ring_axioms_random():
    rng = random.Random(23)
    for ring in (ZZ, root_surrogate(3)):
        zero = LaurentPoly.zero(ring)
        one = LaurentPoly.one(ring)
        for _ in range(150):
            p = random_poly(rng, ring)
            q = random_poly(rng, ring)
            r = random_poly(rng, ring)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + zero == p
            assert p * one == p
            assert p - p == zero
            assert -(-p) == p


def test_pow_matches_repeated_multiplication():
    rng = random.Random(5)
    for ring in (ZZ, root_surrogate(2)):
        for _ in range(40):
            p = random_poly(rng, ring, n_terms=3, span=2)
            acc = LaurentPoly.one(ring)
            for k in range(5):
                assert p ** k == acc
                acc = acc * p
    with pytest.raises(NegativePower):
        LaurentPoly.one(ZZ) ** -1


def test_pow_of_zero():
    for ring in (ZZ, root_surrogate(3)):
        zero = LaurentPoly.zero(ring)
        assert zero ** 0 == LaurentPoly.one(ring)
        for k in (1, 2, 5):
            assert zero ** k == zero
    assert K.pow_terms({}, 2) == {} == K.pow_terms({}, 5, 10)


def test_exact_div_multiply_back():
    rng = random.Random(101)
    params = Params(2, 3)
    hits = 0
    for _ in range(200):
        q = random_poly(rng, ZZ, n_terms=4, span=3, negatives=False)
        d = random_poly(rng, ZZ, n_terms=3, span=3, negatives=False)
        if d.is_zero() or q.is_zero():
            continue
        p = q * d
        got = exact_div(p, d, params)
        assert got == q
        hits += 1
    assert hits > 150


def test_exact_div_rejects_non_multiples():
    rng = random.Random(55)
    params = Params(3, 1)
    one = LaurentPoly.one(ZZ)
    eligible = 0
    rejections = 0
    for _ in range(100):
        q = random_poly(rng, ZZ, n_terms=3, span=2, negatives=False)
        d = random_poly(rng, ZZ, n_terms=3, span=2, negatives=False)
        if d.num_terms < 2 or q.is_zero():
            continue
        eligible += 1
        # d is not a unit, so q*d + 1 is never a multiple of d
        p = q * d + one
        with pytest.raises(NotDivisible):
            exact_div(p, d, params)
        rejections += 1
    assert eligible > 40 and rejections == eligible


def test_exact_div_edge_cases():
    params = Params(2, 2)
    p = LaurentPoly.from_terms(ZZ, {(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): 4})
    with pytest.raises(DivisionByZero):
        exact_div(p, LaurentPoly.zero(ZZ), params)
    assert exact_div(LaurentPoly.zero(ZZ), p, params) == LaurentPoly.zero(ZZ)
    two = LaurentPoly.const(2)
    assert exact_div(p, two, params) == LaurentPoly.from_terms(
        ZZ, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2}
    )
    three = LaurentPoly.const(3)
    with pytest.raises(NotDivisible):
        exact_div(p, three, params)
    # (y1^n - y2^n) / (y1 - y2): every leading term after the first is a
    # monomial that the dividend does not have
    d = LaurentPoly.from_terms(ZZ, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): -1})
    for n in range(2, 7):
        p = LaurentPoly.from_terms(ZZ, {(n, 0, 0, 0, 0): 1, (0, n, 0, 0, 0): -1})
        want = LaurentPoly.from_terms(ZZ, {(i, n - 1 - i, 0, 0, 0): 1 for i in range(n)})
        assert exact_div(p, d, params) == want


def test_substitution_matches_integer_evaluation():
    rng = random.Random(77)

    def evaluate(poly, point):
        total = 0
        for exps, c in poly.terms():
            v = c
            for e, x in zip(exps, point):
                v *= x ** e
            total += v
        return total

    for _ in range(60):
        p = random_poly(rng, ZZ, n_terms=4, span=3, negatives=False)
        images = [
            random_poly(rng, ZZ, n_terms=2, span=2, negatives=False)
            for _ in range(4)
        ]
        composed = substitute(p, images)
        for _ in range(4):
            point = [rng.randrange(-3, 4) for _ in range(4)]
            inner = [evaluate(im, point) for im in images]
            assert evaluate(composed, point) == evaluate(p, inner)


def test_substitution_rejects_negative_exponents():
    p = LaurentPoly.from_terms(ZZ, {(-1, 0, 0, 0, 0): 1})
    images = [LaurentPoly.variable(i) for i in (1, 2, 3, 4)]
    with pytest.raises(NegativeExponent):
        substitute(p, images)


def leading_term(p: LaurentPoly, params: Params) -> tuple:
    """The order-maximal (key, coefficient) pair of a nonzero p."""
    return max(p.terms(), key=lambda term: K.order_key(term[0], params.weights))


def test_weighted_degree_and_leading_term():
    params = Params(3, 2)
    rng = random.Random(13)
    for _ in range(100):
        p = random_poly(rng, ZZ, n_terms=5, span=4)
        if p.is_zero():
            continue
        exps, coeff = leading_term(p, params)
        key = K.order_key(exps, params.weights)
        for e2, _ in p.terms():
            assert K.order_key(e2, params.weights) <= key
        assert weighted_degree(p, params) == sum(
            w * e for w, e in zip(params.weights, exps)
        )


def test_from_terms_accumulates_and_drops_zeros():
    p = LaurentPoly.from_terms(
        ZZ, [((1, 0, 0, 0, 0), 2), ((1, 0, 0, 0, 0), -2), ((0, 1, 0, 0, 0), 3)]
    )
    assert p.term_map() == {(0, 1, 0, 0, 0): 3}
    r3 = root_surrogate(3)
    # t^4 = t and t^-3 = 1 in Z[t]/(t^3 - 1)
    q = LaurentPoly.from_terms(
        r3,
        [((0, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 1), 1), ((0, 0, 0, 0, -3), -1),
         ((0, 0, 0, 0, 4), -1)],
    )
    assert q.is_zero()
    # coefficients are ints, and the integers have no t
    for ring, key, value in [
        (r3, (0, 0, 0, 0, 0), (1, 0, 0)), (ZZ, (0, 0, 0, 0, 0), True), (ZZ, (0, 0, 0, 0, 1), 1)
    ]:
        with pytest.raises(RingMismatch):
            LaurentPoly.from_terms(ring, [(key, value)])
    # a key is the four exponents and the power of t
    with pytest.raises(ValueError):
        LaurentPoly.from_terms(ZZ, [((0, 0, 0, 0), 1)])


def test_mixed_ring_arithmetic_promotes():
    r2 = root_surrogate(2)
    p = LaurentPoly.variable(1)
    q = LaurentPoly.monomial((0, 1, 0, 0, 1), 1, r2)
    s = p + q
    assert s.ring == r2
    assert s.term_map() == {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 1): 1}
    with pytest.raises(RingMismatch):
        q + LaurentPoly.one(root_surrogate(3))
    assert embed(p, r2).term_map() == {(1, 0, 0, 0, 0): 1}
    with pytest.raises(RingMismatch):
        embed(q, root_surrogate(4))


# -- reference kernels --------------------------------------------------------
# Tuple-key product and leading-term division that rescans the remainder, with
# the kernel's budget rules, on exponent 4-tuples with int or coefficient-vector
# values; the kernel must agree with them term for term (after ``regroup``) and
# refuse in the same call.


class ZZ_OPS:
    """Integer arithmetic in the shape of a surrogate ring's ops."""

    mul = staticmethod(lambda x, y: x * y)
    add = staticmethod(lambda x, y: x + y)
    is_zero = staticmethod(lambda x: x == 0)


def ref_mul(ta, tb, ops=None, max_terms=0):
    if ops is None:
        ops = ZZ_OPS
    if len(ta) == 1 or len(tb) == 1:
        max_terms = 0  # the kernel scales by a single term without checks
    elif max_terms and len(ta) * len(tb) > max_terms * WORK_FACTOR:
        raise BudgetExceeded("work")
    out = {}
    for ea, va in ta.items():
        for eb, vb in tb.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            s = ops.mul(va, vb)
            if k in out:
                s = ops.add(out.pop(k), s)
            if not ops.is_zero(s):
                out[k] = s
    if max_terms and len(out) > max_terms:
        raise BudgetExceeded("terms")
    return out


def ref_pow(ta, k, ops=None, max_terms=0):
    result = {(0, 0, 0, 0): 1 if ops is None else ops.one}
    base = dict(ta)
    while k:
        if k & 1:
            result = ref_mul(result, base, ops, max_terms)
        k >>= 1
        if k:
            base = ref_mul(base, base, ops, max_terms)
    return result


def ref_div(tp, td, weights, max_terms=0):
    def key(e):
        return K.order_key(e + (0,), weights)

    if not tp:
        return {}
    lead_d = max(td, key=key)
    q_lo = [min(e[i] for e in tp) - min(e[i] for e in td) for i in range(4)]
    q_hi = [max(e[i] for e in tp) - max(e[i] for e in td) for i in range(4)]
    r, q, work = dict(tp), {}, 0
    work_cap = max_terms * WORK_FACTOR
    while r:
        lead_r = max(r, key=key)
        t = tuple(x - y for x, y in zip(lead_r, lead_d))
        if key(t) < key(tuple(q_lo)) or not all(
            lo <= e <= hi for e, lo, hi in zip(t, q_lo, q_hi)
        ):
            raise NotDivisible("order floor or box")
        c, rem = divmod(r[lead_r], td[lead_d])
        if rem:
            raise NotDivisible("coefficient")
        q[t] = c
        for e, v in td.items():
            k = tuple(x + y for x, y in zip(e, t))
            s = r.get(k, 0) - c * v
            if s:
                r[k] = s
            else:
                r.pop(k, None)
        work += len(td)
        if max_terms and (len(q) > max_terms or len(r) > max_terms or work > work_cap):
            raise BudgetExceeded("division")
    return q


def outcome(fn, *args):
    """The result, or the class of the engine error the call raised."""
    try:
        return fn(*args)
    except (BudgetExceeded, NotDivisible) as exc:
        return type(exc)


def kernel_outcome(m, fn, *args):
    """outcome of a kernel call, its term map regrouped for the reference."""
    got = outcome(fn, *args)
    return regroup(got, m) if isinstance(got, dict) else got


def test_kernels_agree_on_random_inputs():
    """Products, powers and divisions match the reference, and a tight budget
    or a non-multiple is refused by the same call.  Over Z[t]/(t^3 - 1) the
    coefficients spread over several powers of t: the budget counts each
    y-monomial once, as the reference counts each coefficient vector."""
    rng = random.Random(2024)
    r3 = root_surrogate(3)
    refusals = {("pow", BudgetExceeded): 0, ("div", BudgetExceeded): 0, ("div", NotDivisible): 0}
    packed_pows = 0
    for trial in range(300):
        ring = r3 if trial % 3 == 0 else ZZ
        m = ring.m
        ops = RSOps(m) if m else None
        cap = rng.choice([0, 4, 12, 40, 10**6])
        a = random_poly(rng, ring, n_terms=rng.choice([5, 20]), span=3).term_map()
        b = random_poly(rng, ring, n_terms=5, span=3).term_map()
        ta, tb = regroup(a, m), regroup(b, m)
        assert kernel_outcome(m, K.mul_terms, a, b, cap, m) == outcome(ref_mul, ta, tb, ops, cap)
        k = rng.randrange(0, 5)
        got = kernel_outcome(m, K.pow_terms, a, k, cap, m)
        assert got == outcome(ref_pow, ta, k, ops, cap)
        refusals["pow", BudgetExceeded] += got is BudgetExceeded
        packed_pows += not m and k > 1
        if m or not tb:
            continue
        weights = (rng.randrange(1, 5), 1, 1, rng.randrange(1, 5))
        prod = ref_mul(ta, tb)
        if trial % 2:  # q*d + one more term is not a multiple of d when d is no unit
            prod = K.add_terms(prod, regroup(random_poly(rng, ZZ, n_terms=1, span=4).term_map(), 0))
        want = outcome(ref_div, prod, tb, weights, cap)
        assert kernel_outcome(0, K.exact_div_terms, split(prod), b, weights, cap) == want
        if isinstance(want, dict):
            assert trial % 2 or want == ta
        else:
            refusals["div", want] += 1
    assert min(refusals.values()) >= 10 and packed_pows >= 10


def test_kernels_agree_outside_packed_range():
    """Exponents far past any fixed field width (here 2^50) need no fallback:
    the packing width is chosen per call."""
    huge = 1 << 50
    assert K.pow_terms({(1, 0, 0, 0, 0): 1}, huge) == {(huge, 0, 0, 0, 0): 1}
    assert K.pow_terms({(0, 0, 0, 0, -1): 1}, huge) == {(0, 0, 0, 0, -huge): 1}
    ta = {(huge, 0, 0, 0): 3, (0, -huge, 0, 0): 2}
    tb = {(huge, 1, 0, 0): 5, (0, 0, 0, 0): 1}
    assert K.mul_terms(split(ta), split(tb), 10**6) == split(ref_mul(ta, tb))
    assert K.pow_terms(split(ta), 3, 10**6) == split(ref_pow(ta, 3))
    wide = {(huge * i, -huge * j, i, j): i + j + 1 for i in range(4) for j in range(5)}
    assert K.pow_terms(split(wide), 3, 10**6) == split(ref_pow(wide, 3))
    weights = Params(2, 2).weights
    y1_huge = {(huge, 0, 0, 0, 0): 1}
    assert K.exact_div_terms(y1_huge, {(1, 0, 0, 0, 0): 1}, weights) == {(huge - 1, 0, 0, 0, 0): 1}
    q = {(huge, 0, 0, 0): 1, (0, 0, 0, -huge): 7}
    d = {(huge, 0, 0, 0): 2, (0, 1, 0, 0): 1}
    prod = ref_mul(q, d)
    assert K.exact_div_terms(split(prod), split(d), weights, 10**6) == split(q)
    assert q == ref_div(prod, d, weights)
    with pytest.raises(NotDivisible):
        K.exact_div_terms(K.add_terms(split(prod), {(0, 0, 0, 0, 0): 1}), split(d), weights, 10**6)
    # the power of t has its box too: 1 / (1 + t) is refused, not expanded
    # into quotient terms 1 - t + t^2 - ... until the budget runs out
    with pytest.raises(NotDivisible):
        K.exact_div_terms({(0,) * 5: 1}, {(0,) * 5: 1, (0, 0, 0, 0, 1): 1}, weights, 1000)
    # quotient exponents twice as large as any exponent of the inputs
    d = {(-huge,) * 4: 1, (-huge - 1, -huge, -huge, -huge): 3}
    q = {(2 * huge,) * 4: 5}
    assert K.exact_div_terms(split(ref_mul(q, d)), split(d), weights, 10**6) == split(q)


exponents = st.tuples(*[st.integers(-(1 << 45), 1 << 45)] * 5)
weight_tuples = st.tuples(*[st.integers(0, 6)] * 4)


@given(exponents, exponents, weight_tuples)
def test_packed_keys_round_trip_order_and_add(e, f, weights):
    bound = max(abs(x) for x in e + f) * 2
    packing = K.Packing(weights, bound)
    pe, pf = packing.pack(e), packing.pack(f)
    assert packing.unpack(pe) == e and packing.unpack(pf) == f
    assert (pe < pf) == (K.order_key(e, weights) < K.order_key(f, weights))
    assert (pe == pf) == (e == f)
    e_plus_f = tuple(x + y for x, y in zip(e, f))
    assert packing.pack(e_plus_f) == pe + pf
    assert packing.unpack(pe + pf) == e_plus_f


# -- reference rewriter --------------------------------------------------------
# The level-by-level normal form as it was before the kernel took its
# binomial coefficients from rows and scaled surrogate coefficients without
# ring calls, kept verbatim; the kernel must give the same term maps, in the
# same dict order, and refuse in the same calls with the same text.


def ref_normal_form(tp: dict, a: int, b: int, ops=None, max_terms: int = 0) -> dict:
    out = {}
    pending: dict = {}  # weighted degree -> merged term map awaiting reduction
    for exps, c in tp.items():
        e1, e2, e3, e4 = exps
        d = a * e1 + e2 + e3 + b * e4
        pending.setdefault(d, {})[exps] = c
    processed = 0
    work_cap = max_terms * WORK_FACTOR if max_terms else 0

    def absorb(bucket: dict, key: tuple, value) -> None:
        if ops is None:
            s = bucket.get(key, 0) + value
            if s:
                bucket[key] = s
            else:
                bucket.pop(key, None)
        else:
            cur = bucket.get(key)
            s = value if cur is None else ops.add(cur, value)
            if ops.is_zero(s):
                bucket.pop(key, None)
            else:
                bucket[key] = s

    while pending:
        level = max(pending)
        layer = pending.pop(level)
        for (e1, e2, e3, e4), c in layer.items():
            m13 = e1 if e1 < e3 else e3
            m24 = e2 if e2 < e4 else e4
            if m13 <= 0 and m24 <= 0:
                absorb(out, (e1, e2, e3, e4), c)
                continue
            if m13 > 0:
                # y1^m13 y3^m13 -> (y2^a + 1)^m13, expanded binomially
                children = (
                    ((e1 - m13, e2 + a * i, e3 - m13, e4), comb(m13, i))
                    for i in range(m13 + 1)
                )
            else:
                children = (
                    ((e1, e2 - m24, e3 + b * i, e4 - m24), comb(m24, i))
                    for i in range(m24 + 1)
                )
            for key, w in children:
                k1, k2, k3, k4 = key
                d = a * k1 + k2 + k3 + b * k4
                cc = c * w if ops is None else ops.mul(c, (w,) + (0,) * (ops.m - 1))
                absorb(pending.setdefault(d, {}), key, cc)
            processed += m13 + m24 + 1
        if max_terms:
            size = len(out) + sum(len(v) for v in pending.values())
            if size > max_terms or processed > work_cap + len(tp):
                raise BudgetExceeded("normal form budget exhausted")
    return out


def nf_outcome(fn, tp, a, b, m, cap):
    """The term map as a list (so that dict order counts), or the refusal.
    ``tp`` is in the reference's form; the kernel gets it split into powers
    of t and its answer is regrouped."""
    try:
        if fn is ref_normal_form:
            return list(ref_normal_form(tp, a, b, RSOps(m) if m else None, cap).items())
        return list(regroup(fn(split(tp), a, b, m, cap), m).items())
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


def assert_nf_agrees(tp, a, b, m=0, cap=0):
    """The kernel's answer is the reference's, in the same dict order.  With
    coefficients spread over several powers of t the kernel keeps the terms
    of one monomial apart, and a cancellation in one of them can move the
    monomial within its level; the levels then come out in the same order."""
    want = nf_outcome(ref_normal_form, dict(tp), a, b, m, cap)
    got = nf_outcome(K.normal_form_terms, dict(tp), a, b, m, cap)
    powers = {k for v in tp.values() if not isinstance(v, int) for k, c in enumerate(v) if c}
    if len(powers) > 1 and isinstance(want, list):
        def levels(terms):
            return [a * e1 + e2 + e3 + b * e4 for (e1, e2, e3, e4), _ in terms]

        assert dict(got) == dict(want) and levels(got) == levels(want)
    else:
        assert got == want
    return want


def is_normal(tp):
    return all(not (e1 > 0 and e3 > 0 or e2 > 0 and e4 > 0) for e1, e2, e3, e4 in tp)


def random_terms(rng, ring, n_terms, span):
    """Random terms in the reference's form (coefficient vectors)."""
    p = random_poly(rng, ring, n_terms=n_terms, span=span, negatives=False)
    return regroup(p.term_map(), ring.m)


NF_RINGS = [ZZ] + [root_surrogate(m) for m in (1, 2, 3, 4, 6)]


def test_normal_form_matches_reference():
    """Over Z and Z[t]/(t^m - 1), m in {1, 2, 3, 4, 6}, and every a, b in 1..4."""
    rng = random.Random(5150)
    reduced = 0
    for ring in NF_RINGS:
        for a in range(1, 5):
            for b in range(1, 5):
                for _ in range(6):
                    tp = random_terms(rng, ring, rng.choice([1, 4, 12]), 4)
                    want = assert_nf_agrees(tp, a, b, ring.m, rng.choice([0, 10**6]))
                    reduced += not is_normal(tp)
                    assert is_normal(dict(want))
    assert reduced > 300


def test_normal_form_short_cut_and_edge_cases():
    rng = random.Random(77)
    for ring in NF_RINGS:
        assert_nf_agrees({}, 2, 3, ring.m, 5)
        for _ in range(30):
            # already normal: no term divisible by y1*y3 or y2*y4
            tp = {
                exps: c for exps, c in random_terms(rng, ring, 10, 5).items()
                if is_normal([exps])
            }
            a, b = rng.randrange(1, 5), rng.randrange(1, 5)
            want = assert_nf_agrees(tp, a, b, ring.m, rng.choice([0, 10**6]))
            assert sorted(want) == sorted(tp.items())
    # (y1*y3)^300 and y1*(y2*y4)^250 need rows far beyond the usual ones
    for tp, m in [
        ({(300, 0, 0, 0): 1, (300, 1, 300, 0): -2}, 0),
        ({(1, 250, 0, 250): 3}, 0),
        ({(300, 0, 300, 0): (1, 0, -1, 0, 0, 2)}, 6),
    ]:
        want = assert_nf_agrees(tp, 2, 3, m, 10**6)
        assert len(want) > 250
    for m in (0, 1, 2, 7, 300, 301):
        assert K.binomial_row(m) == tuple(comb(m, i) for i in range(m + 1))
    maxsize = K.binomial_row.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 256


def test_normal_form_refuses_like_reference():
    """Under tight budgets the kernel refuses in the same calls as the
    reference, already-normal input included, and with the same text."""
    rng = random.Random(31337)
    refused = {"normal": 0, "reduced": 0}
    accepted_near_cap = 0
    for trial in range(600):
        ring = NF_RINGS[trial % 3]
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        tp = random_terms(rng, ring, rng.choice([3, 8, 20]), rng.choice([2, 4]))
        if trial % 4 == 0:
            tp = {e: c for e, c in tp.items() if is_normal([e])}
        free = nf_outcome(ref_normal_form, dict(tp), a, b, ring.m, 0)
        cap = max(1, len(free) + rng.randrange(-8, 3))
        want = assert_nf_agrees(tp, a, b, ring.m, cap)
        if isinstance(want, tuple):
            refused["normal" if is_normal(tp) else "reduced"] += 1
        elif len(want) >= cap - 2 and not is_normal(tp):
            accepted_near_cap += 1
    assert min(refused.values()) >= 30 and accepted_near_cap >= 30


def test_budget_counts_y_monomials():
    """A coefficient spread over several powers of t is one term under the
    budget, as one coefficient vector is in the references: a factor of one
    y-monomial scales the other without checks, and the rewrite of one
    monomial is counted once however many powers of t it carries."""
    m = 40
    ops = RSOps(m)
    ones = (1,) * m
    # (1 + t) y1 times 40 terms, under a budget of one term
    ta = {(1, 0, 0, 0): (1, 1) + (0,) * (m - 2)}
    tb = {(0, i, j, 0): ops.one for i in range(8) for j in range(5)}
    got = kernel_outcome(m, K.mul_terms, split(ta), split(tb), 1, m)
    assert got == outcome(ref_mul, ta, tb, ops, 1) == ref_mul(ta, tb, ops)
    # (1 + t + ... + t^39) ((y1 y3)^2 - (y2 + 1)^2) is 0 after one rewrite of
    # three units of work; counted per power of t it would be 120 > 32 + 4
    tp = {
        (2, 0, 2, 0): ones,
        (0, 2, 0, 0): ops.neg(ones),
        (0, 1, 0, 0): tuple(-2 * c for c in ones),
        (0, 0, 0, 0): ops.neg(ones),
    }
    assert assert_nf_agrees(tp, 1, 2, m, 1) == []
    # y1 -> (1 + t)(y2 + y3 + y4) over Z[t]/(t^2 - 1): the image of (1 - t) y1
    # is 0, as (1 - t)(1 + t) = 0, and fits a budget of one term
    ops = RSOps(2)
    tp = {(1, 0, 0, 0): (1, -1)}
    images = [{(0, 1, 0, 0): (1, 1), (0, 0, 1, 0): (1, 1), (0, 0, 0, 1): (1, 1)}]
    images += [{exps: ops.one} for exps in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    got = kernel_outcome(2, K.substitute_terms, split(tp), [split(t) for t in images], 1, None, None, 2)
    assert got == outcome(ref_substitute, tp, images, ops, 1) == {}
    # ((1 + t) y1 + (1 - t) y2)^4: the mixed term of each square is 0, so a
    # budget of two terms holds
    base = {(1, 0, 0, 0): (1, 1), (0, 1, 0, 0): (1, -1)}
    got = kernel_outcome(2, K.pow_terms, split(base), 4, 2, 2)
    assert got == outcome(ref_pow, base, 4, ops, 2) == ref_pow(base, 4, ops)


nf_exps = st.tuples(*[st.integers(0, 5)] * 4)


@given(
    st.sampled_from([0, 1, 2, 3, 4, 6]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.tuples(nf_exps, st.integers(-3, 3)), max_size=10),
    st.one_of(st.just(0), st.integers(1, 60)),
)
def test_normal_form_matches_reference_hypothesis(m, a, b, rows, cap):
    """The coefficient c + (1 - c)(t + ... + t^(m-1)) on every monomial."""
    ring = root_surrogate(m) if m else ZZ
    terms = [(e + (0,), c) for e, c in rows]
    terms += [(e + (k,), 1 - c) for e, c in rows for k in range(1, m)]
    tp = regroup(LaurentPoly.from_terms(ring, terms).term_map(), m)
    assert_nf_agrees(tp, a, b, m, cap)


# -- the kernel against the coefficient-vector reference ---------------------
# Coefficients spread over several powers of t (which no group element has),
# and powers of t outside 0 .. m - 1, negative ones included (as after a
# division by t^k): the kernel's answers, regrouped, equal the references'.


def ref_add(ta, tb, ops):
    out = dict(ta)
    for e, v in tb.items():
        s = ops.add(out[e], v) if e in out else v
        if ops.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_substitute(tp, images, ops, max_terms=0, nf=None):
    """Substitution as the kernel does it, with the kernel's budget rules:
    each image's powers built one factor at a time and kept, and with
    nf=(a, b) every partial product reduced."""
    def reduce_(t):
        return t if nf is None else ref_normal_form(t, *nf, ops, max_terms)

    powers = [{0: {(0, 0, 0, 0): ops.one}} for _ in images]

    def power(i, e):
        cache = powers[i]
        best = max(k for k in cache if k <= e)
        while best < e:
            cache[best + 1] = reduce_(ref_mul(cache[best], images[i], ops, max_terms))
            best += 1
        return cache[e]

    out = {}
    for exps, c in tp.items():
        prod = {(0, 0, 0, 0): c}
        for i, e in enumerate(exps):
            if e:
                prod = reduce_(ref_mul(prod, power(i, e), ops, max_terms))
        out = ref_add(out, prod, ops)
        if max_terms and len(out) > max_terms:
            raise BudgetExceeded("substitution")
    return out


@st.composite
def vector_maps(draw, m, max_terms=4, span=2):
    """({exps: coefficient vector}, the same as a kernel term map whose
    powers of t are moved by random multiples of m)."""
    rows = draw(st.dictionaries(
        st.tuples(*[st.integers(0, span)] * 4),
        st.lists(st.integers(-3, 3), min_size=m, max_size=m),
        max_size=max_terms,
    ))
    tv = {exps: tuple(vec) for exps, vec in rows.items() if any(vec)}
    tp = {}
    for key, c in split(tv).items():
        tp[key[:4] + (key[4] + m * draw(st.integers(-2, 1)),)] = c
    return tv, tp


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 4), st.integers(1, 4))
def test_kernel_matches_the_vector_reference(data, m, a, b):
    """Without a budget the answers agree; under one, the same calls are
    refused."""
    ops = RSOps(m)
    ta, ka = data.draw(vector_maps(m))
    tb, kb = data.draw(vector_maps(m))
    cap = data.draw(st.sampled_from([0, 1, 2, 3, 5, 8, 13]))
    assert regroup(K.add_terms(ka, kb), m) == ref_add(ta, tb, ops)
    assert regroup(K.mul_terms(ka, kb), m) == ref_mul(ta, tb, ops)
    assert kernel_outcome(m, K.mul_terms, ka, kb, cap, m) == outcome(ref_mul, ta, tb, ops, cap)
    k = data.draw(st.integers(0, 3))
    assert regroup(K.pow_terms(ka, k), m) == ref_pow(ta, k, ops)
    assert kernel_outcome(m, K.pow_terms, ka, k, cap, m) == outcome(ref_pow, ta, k, ops, cap)
    # division by the unit monomial +-t^j y^e undoes the product
    unit = {data.draw(st.tuples(*[st.integers(-2, 2)] * 5)): data.draw(st.sampled_from([1, -1]))}
    weights = (a, 1, 1, b)
    prod = K.mul_terms(ka, unit)
    assert regroup(K.exact_div_terms(prod, unit, weights), m) == ta
    ring = root_surrogate(m)
    p, d = (LaurentPoly(ring, K.wrap_t(t, m)) for t in (prod, unit))
    assert regroup(exact_div(p, d, Params(a, b)).term_map(), m) == ta
    nf = K.normal_form_terms(ka, a, b, m)
    assert all(0 <= key[4] < m for key in nf)
    assert regroup(nf, m) == ref_normal_form(ta, a, b, ops)
    assert_nf_agrees(ta, a, b, m, cap)
    images = [data.draw(vector_maps(m, 3, 1)) for _ in range(4)]
    vectors = [tv for tv, _ in images]
    want = ref_substitute(ta, vectors, ops)
    assert regroup(K.substitute_terms(ka, [tp for _, tp in images]), m) == want
    got = kernel_outcome(m, K.substitute_terms, ka, [tp for _, tp in images], cap, None, None, m)
    assert got == outcome(ref_substitute, ta, vectors, ops, cap)
    # with nf=(a, b) the images must be normal forms, and so is the answer
    normal = [K.normal_form_terms(tp, a, b, m) for _, tp in images]
    got = K.normal_form_terms(K.substitute_terms(ka, normal, nf=(a, b), m=m), a, b, m)
    assert regroup(got, m) == ref_normal_form(want, a, b, ops)
    normal_vectors = [regroup(tp, m) for tp in normal]
    got = kernel_outcome(m, K.substitute_terms, ka, normal, cap, None, (a, b), m)
    assert got == outcome(ref_substitute, ta, normal_vectors, ops, cap, (a, b))
