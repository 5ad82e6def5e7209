"""Coefficient rings: the coefficient-vector reference, units of the
surrogate ring as term maps, and ring joins."""
import operator
import random

import pytest

from clusteraut.errors import NotDivisible, RingMismatch
from clusteraut.poly import LaurentPoly, Params, embed, exact_div
from clusteraut.rings import ZZ, CoeffRing, RSOps, join, root_surrogate


def random_value(rng, m):
    if not m:
        return rng.randrange(-9, 10)
    return tuple(rng.randrange(-9, 10) for _ in range(m))


def arithmetic(m):
    """(add, mul, neg, zero, one) on raw values: Python ints over the
    integers (m = 0), ``RSOps`` coefficient vectors over Z[t]/(t^m - 1)."""
    if not m:
        return operator.add, operator.mul, operator.neg, 0, 1
    ops = RSOps(m)
    return ops.add, ops.mul, ops.neg, (0,) * m, ops.one


def t_power(ring, k, coeff=1):
    """coeff * t^k as a polynomial over ring."""
    return LaurentPoly.monomial((0, 0, 0, 0, k), coeff, ring)


def test_ring_axioms_random():
    rng = random.Random(11)
    for m in (0, 2, 3, 6):
        add, mul, neg, zero, one = arithmetic(m)
        for _ in range(300):
            x = random_value(rng, m)
            y = random_value(rng, m)
            z = random_value(rng, m)
            assert add(x, y) == add(y, x)
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(x, y) == mul(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert add(x, zero) == x
            assert mul(x, one) == x
            assert add(x, neg(x)) == zero
            assert m == 0 or RSOps(m).is_zero(add(x, neg(x)))


def test_surrogate_t_is_a_root_of_unity():
    for m in (1, 2, 3, 4, 6, 12):
        ops = RSOps(m)
        t = (0, 1) + (0,) * (m - 2) if m > 1 else (1,)
        power = ops.one
        for _ in range(m):
            power = ops.mul(power, t)
        assert power == ops.one
        # the same in the term maps, where the power of t is part of the key
        ring = root_surrogate(m)
        one = LaurentPoly.one(ring)
        assert t_power(ring, 1) ** m == one
        assert t_power(ring, m) == t_power(ring, 0) == one
        assert t_power(ring, -1) == t_power(ring, m - 1)
        assert t_power(ring, -1).term_map() == {(0, 0, 0, 0, m - 1): 1}


def test_monomial_units_and_inverses():
    """The units +-t^k y^e are inverted by exact division; other divisors
    are refused over the surrogate ring."""
    ring = root_surrogate(4)
    params = Params(2, 2)
    one = LaurentPoly.one(ring)
    for k in range(4):
        for sign in (1, -1):
            v = LaurentPoly.monomial((1, 0, -2, 0, k), sign, ring)
            inv = exact_div(one, v, params)
            assert inv.term_map() == {(-1, 0, 2, 0, -k % 4): sign}
            assert v * inv == one
    for divisor in (LaurentPoly.const(2, ring), t_power(ring, 0) + t_power(ring, 1)):
        with pytest.raises(NotDivisible):
            exact_div(one, divisor, params)
    minus = LaurentPoly.const(-1)
    assert exact_div(LaurentPoly.one(), minus, params) == minus


def test_coerce_validates():
    """Coefficients are ints in every ring, and the integers have no t."""
    with pytest.raises(RingMismatch):
        LaurentPoly.const((1, 0))
    with pytest.raises(RingMismatch):
        LaurentPoly.const(True)
    with pytest.raises(RingMismatch):
        LaurentPoly.const((1, 0, 0), root_surrogate(3))
    assert LaurentPoly.const(5, root_surrogate(3)).term_map() == {(0, 0, 0, 0, 0): 5}
    with pytest.raises(ValueError):
        root_surrogate(0)
    with pytest.raises(ValueError):
        CoeffRing(-1)


def test_join_and_promote():
    r3 = root_surrogate(3)
    assert join(ZZ, ZZ) == ZZ
    assert join(ZZ, r3) == r3
    assert join(r3, ZZ) == r3
    assert join(r3, r3) == r3
    with pytest.raises(RingMismatch):
        join(r3, root_surrogate(2))
    seven = LaurentPoly.const(7)
    assert embed(seven, r3) == LaurentPoly.const(7, r3)
    assert embed(seven, r3).term_map() == seven.term_map()
    assert embed(t_power(r3, 2), r3) == t_power(r3, 2)
    with pytest.raises(RingMismatch):
        embed(LaurentPoly.one(root_surrogate(2)), r3)


def test_t_power_needs_surrogate():
    with pytest.raises(RingMismatch):
        t_power(ZZ, 1)
