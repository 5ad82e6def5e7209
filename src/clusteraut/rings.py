"""Exact coefficient rings.

Two rings are supported, told apart by a tag:

* the integers (m = 0);
* the root-of-unity surrogate ring Z[t]/(t^m - 1), m >= 1.

The surrogate ring stands in for the cyclotomic scalars needed by diagonal
scaling maps: t behaves as an abstract m-th root of unity, and unlike a float
approximation the arithmetic is exact.  Coefficients are Python ints in both
rings: a term map carries the power of t in its key, next to the exponents
of y1..y4 (see ``clusteraut._kernel``).

Integers embed canonically into any surrogate ring; any other mixing of rings
raises RingMismatch.
"""
from __future__ import annotations

from .errors import RingMismatch
from .record import Record


class RSOps:
    """Arithmetic of Z[t]/(t^m - 1) on coefficient vectors (c_0, ..., c_(m-1)).

    The engine does not use it: it is the reference the tests compare the
    term-map kernel against, and the benchmark's traced mode wraps ``mul``
    and ``add`` by name.
    """

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


class CoeffRing(Record):
    """Coefficient ring tag.  m == 0 means the integers, m >= 1 the surrogate ring."""

    __slots__ = ("m",)

    def __init__(self, m: int = 0):
        object.__setattr__(self, "m", m)
        if m < 0:
            raise ValueError("m must be nonnegative")

    # joined and compared by every polynomial operation
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m

    __hash__ = Record.__hash__  # defining __eq__ would unset it

    @property
    def is_integers(self) -> bool:
        return self.m == 0


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
