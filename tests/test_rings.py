"""Coefficient rings: axioms, units, and ring joins."""
import operator
import random

import pytest

from clusteraut.errors import RingMismatch
from clusteraut.rings import ZZ, CoeffRing, join, promote_value, root_surrogate


def random_value(rng, ring):
    if ring.is_integers:
        return rng.randrange(-9, 10)
    return tuple(rng.randrange(-9, 10) for _ in range(ring.m))


def arithmetic(ring):
    """(add, mul, neg, zero, one) on raw values, as the kernel computes them:
    Python ints over the integers, ``RSOps`` over a surrogate ring."""
    ops = ring.ops()
    if ops is None:
        return operator.add, operator.mul, operator.neg, 0, 1
    return ops.add, ops.mul, ops.neg, ring.coerce(0), ops.one


def test_ring_axioms_random():
    rng = random.Random(11)
    for ring in (ZZ, root_surrogate(2), root_surrogate(3), root_surrogate(6)):
        add, mul, neg, zero, one = arithmetic(ring)
        for _ in range(300):
            x = random_value(rng, ring)
            y = random_value(rng, ring)
            z = random_value(rng, ring)
            assert add(x, y) == add(y, x)
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(x, y) == mul(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert add(x, zero) == x
            assert mul(x, one) == x
            assert add(x, neg(x)) == zero
            assert ring.is_zero(add(x, neg(x)))


def test_surrogate_t_is_a_root_of_unity():
    for m in (1, 2, 3, 4, 6, 12):
        ring = root_surrogate(m)
        mul = ring.ops().mul
        power = ring.one
        for _ in range(m):
            power = mul(power, ring.t_power(1))
        assert power == ring.one
        assert ring.t_power(m) == ring.t_power(0)
        assert ring.t_power(-1) == ring.t_power(m - 1)


def test_monomial_units_and_inverses():
    ring = root_surrogate(4)
    for k in range(4):
        for sign in (1, -1):
            v = tuple(sign * c for c in ring.t_power(k))
            assert ring.is_monomial_unit(v)
            inv = ring.unit_inverse(v)
            prod = ring.ops().mul(v, inv)
            assert prod == ring.coerce(1)
    assert not ring.is_monomial_unit(ring.coerce(2))
    assert not ring.is_monomial_unit(ring.ops().add(ring.t_power(0), ring.t_power(1)))
    with pytest.raises(RingMismatch):
        ring.unit_inverse(ring.coerce(2))
    assert ZZ.is_monomial_unit(1) and ZZ.is_monomial_unit(-1)
    assert not ZZ.is_monomial_unit(2)
    assert ZZ.unit_inverse(-1) == -1


def test_coerce_validates():
    with pytest.raises(RingMismatch):
        ZZ.coerce((1, 0))
    with pytest.raises(RingMismatch):
        ZZ.coerce(True)
    with pytest.raises(RingMismatch):
        root_surrogate(3).coerce((1, 0))
    assert root_surrogate(3).coerce(5) == (5, 0, 0)
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
    assert promote_value(7, ZZ, r3) == (7, 0, 0)
    assert promote_value((1, 2, 3), r3, r3) == (1, 2, 3)
    with pytest.raises(RingMismatch):
        promote_value((1, 0), root_surrogate(2), r3)


def test_t_power_needs_surrogate():
    with pytest.raises(RingMismatch):
        ZZ.t_power(1)
