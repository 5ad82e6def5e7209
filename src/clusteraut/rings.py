"""Exact coefficient rings.

Two rings are supported:

* the integers, with plain Python ``int`` values;
* the root-of-unity surrogate ring Z[t]/(t^m - 1), whose values are integer
  tuples of length m (the coefficients of 1, t, ..., t^(m-1)).

The surrogate ring stands in for the cyclotomic scalars needed by diagonal
scaling maps: t behaves as an abstract m-th root of unity, and unlike a float
approximation the arithmetic is exact.  It has zero divisors for composite m,
which is fine because the engine only ever inverts the units +-t^k.

Integers embed canonically into any surrogate ring; any other mixing of rings
raises RingMismatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import RingMismatch

Value = Union[int, tuple]


class RSOps:
    """Value-level arithmetic for Z[t]/(t^m - 1) on raw tuples."""

    __slots__ = ("m", "one")

    def __init__(self, m: int):
        self.m = m
        self.one = (1,) + (0,) * (m - 1)

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(u + v for u, v in zip(x, y))

    def neg(self, x: tuple) -> tuple:
        return tuple(-u for u in x)

    def mul(self, x: tuple, y: tuple) -> tuple:
        m = self.m
        out = [0] * m
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    if v:
                        k = i + j
                        if k >= m:
                            k -= m
                        out[k] += u * v
        return tuple(out)

    def is_zero(self, x: tuple) -> bool:
        return not any(x)


@lru_cache(maxsize=64)
def _rs_ops(m: int) -> RSOps:
    return RSOps(m)


@dataclass(frozen=True)
class CoeffRing:
    """Coefficient ring tag.  m == 0 means the integers, m >= 1 the surrogate ring."""

    m: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")

    @property
    def is_integers(self) -> bool:
        return self.m == 0

    def ops(self) -> RSOps | None:
        """Kernel arithmetic adapter; None selects the native int fast path."""
        return None if self.m == 0 else _rs_ops(self.m)

    @property
    def one(self) -> Value:
        return 1 if self.m == 0 else _rs_ops(self.m).one

    def t_power(self, k: int) -> Value:
        """The unit t^k (k taken mod m).  Not defined over the integers."""
        if self.m == 0:
            raise RingMismatch("the integer ring has no t")
        out = [0] * self.m
        out[k % self.m] = 1
        return tuple(out)

    def coerce(self, value) -> Value:
        """Validate and normalize a raw coefficient value for this ring."""
        if self.m == 0:
            if not isinstance(value, int) or isinstance(value, bool):
                raise RingMismatch(f"integer ring got {value!r}")
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return (value,) + (0,) * (self.m - 1)
        if isinstance(value, tuple) and len(value) == self.m and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            return value
        raise RingMismatch(f"surrogate ring of degree {self.m} got {value!r}")

    def is_zero(self, value: Value) -> bool:
        if self.m == 0:
            return value == 0
        return not any(value)

    def is_monomial_unit(self, value: Value) -> bool:
        """True for the units +-1 (integers) or +-t^k (surrogate)."""
        if self.m == 0:
            return value in (1, -1)
        nonzero = [(k, v) for k, v in enumerate(value) if v]
        return len(nonzero) == 1 and nonzero[0][1] in (1, -1)

    def unit_inverse(self, value: Value) -> Value:
        """Inverse of a monomial unit."""
        if not self.is_monomial_unit(value):
            raise RingMismatch(f"{value!r} is not a monomial unit")
        if self.m == 0:
            return value
        k, v = next((k, v) for k, v in enumerate(value) if v)
        out = [0] * self.m
        out[(-k) % self.m] = v
        return tuple(out)


ZZ = CoeffRing(0)


def root_surrogate(m: int) -> CoeffRing:
    """The ring Z[t]/(t^m - 1) for m >= 1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return CoeffRing(m)


def join(r1: CoeffRing, r2: CoeffRing) -> CoeffRing:
    """Smallest common ring, or RingMismatch for distinct surrogate degrees."""
    if r1 == r2:
        return r1
    if r1.is_integers:
        return r2
    if r2.is_integers:
        return r1
    raise RingMismatch(f"cannot mix surrogate rings of degree {r1.m} and {r2.m}")


def promote_value(value: Value, src: CoeffRing, dst: CoeffRing) -> Value:
    """Embed a value of ``src`` into ``dst`` (must be ``src`` itself or a widening)."""
    if src == dst:
        return value
    if src.is_integers:
        return dst.coerce(value)
    raise RingMismatch(f"no embedding of degree {src.m} into {dst}")

