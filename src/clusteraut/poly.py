"""Laurent polynomials in y1..y4 with exact coefficients.

A LaurentPoly is an immutable sparse polynomial: a coefficient ring plus a
term map from keys (e1, e2, e3, e4, k) to nonzero ints, the term
c * t^k * y1^e1 y2^e2 y3^e3 y4^e4.  Over the integers k is 0; over the
surrogate ring Z[t]/(t^m - 1), 0 <= k < m.  Arithmetic goes through the
kernel module, which enforces the term budget from :mod:`clusteraut.budget`.

The weighted order used everywhere gives y1, y2, y3, y4 the weights
(a, 1, 1, b); ties are broken lexicographically on (e1, e4, e2, e3), then
by the lower power of t.
"""
from __future__ import annotations

from math import lcm
from typing import Iterator

from . import _kernel as K
from .budget import current_max_terms
from .errors import (
    DivisionByZero,
    NegativeExponent,
    NegativePower,
    NotDivisible,
    RingMismatch,
    ZeroPolynomial,
)
from .record import Record
from .rings import ZZ, CoeffRing, join

Exponents = tuple[int, int, int, int]
#: (e1, e2, e3, e4, k): the exponents of y1..y4 and the power of t
Key = tuple[int, int, int, int, int]


class Params(Record):
    """The pair (a, b) of positive exchange exponents."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a < 1 or b < 1:
            raise ValueError("a and b must be positive")

    # every cache key holds a Params: compare the two fields directly
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    @property
    def m(self) -> int:
        """Order of the surrogate root of unity: lcm(a, b)."""
        return lcm(self.a, self.b)

    @property
    def weights(self) -> Exponents:
        return (self.a, 1, 1, self.b)

    @property
    def product(self) -> int:
        return self.a * self.b

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


class LaurentPoly(Record):
    """Immutable sparse Laurent polynomial over an exact coefficient ring."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: CoeffRing, terms: dict):
        """Build from a raw term map: int coefficients, no zeros, and powers
        of t in 0 .. m - 1 (use from_terms for unvalidated input)."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, ring: CoeffRing, terms) -> "LaurentPoly":
        """Validating constructor from any (key, int coefficient) mapping.

        A key is (e1, e2, e3, e4, k); k is taken mod m, and must be 0 over
        the integers.  Like terms are added and zeros dropped.
        """
        clean: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, value in items:
            key = tuple(key)
            if len(key) != 5 or not all(isinstance(e, int) for e in key):
                raise ValueError(f"bad key {key!r}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise RingMismatch(f"coefficient {value!r} is not an integer")
            if ring.is_integers and key[4]:
                raise RingMismatch("the integer ring has no t")
            s = clean.get(key, 0) + value
            if s:
                clean[key] = s
            else:
                clean.pop(key, None)
        return cls(ring, K.wrap_t(clean, ring.m))

    @classmethod
    def zero(cls, ring: CoeffRing = ZZ) -> "LaurentPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, value: int, ring: CoeffRing = ZZ) -> "LaurentPoly":
        return cls.from_terms(ring, [((0, 0, 0, 0, 0), value)])

    @classmethod
    def one(cls, ring: CoeffRing = ZZ) -> "LaurentPoly":
        return cls(ring, {(0, 0, 0, 0, 0): 1})

    @classmethod
    def variable(cls, i: int, ring: CoeffRing = ZZ) -> "LaurentPoly":
        """The generator y_i, i in 1..4."""
        if i not in (1, 2, 3, 4):
            raise ValueError("variable index must be 1..4")
        key = tuple(1 if j == i - 1 else 0 for j in range(5))
        return cls(ring, {key: 1})

    @classmethod
    def monomial(cls, key, coeff: int = 1, ring: CoeffRing = ZZ) -> "LaurentPoly":
        """coeff * t^k * y^e for a key (e1, e2, e3, e4, k)."""
        return cls.from_terms(ring, [(key, coeff)])

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Key, int]]:
        """Iterate (key, coefficient) pairs (unspecified order)."""
        return iter(self._terms.items())

    def term_map(self) -> dict:
        """A copy of the raw term map."""
        return dict(self._terms)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def has_negative_exponents(self) -> bool:
        # powers of t are never negative
        return any(e < 0 for key in self._terms for e in key)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.ring!r}, {self._terms!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ring = join(self.ring, other.ring)
        return LaurentPoly(ring, K.add_terms(self._terms, other._terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ring = join(self.ring, other.ring)
        return LaurentPoly(
            ring, K.add_terms(self._terms, K.neg_terms(other._terms))
        )

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, K.neg_terms(self._terms))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ring = join(self.ring, other.ring)
        terms = K.mul_terms(self._terms, other._terms, current_max_terms(), ring.m)
        return LaurentPoly(ring, terms)

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise NegativePower(f"power {k} is negative")
        terms = K.pow_terms(self._terms, k, current_max_terms(), self.ring.m)
        return LaurentPoly(self.ring, terms)


# canonical generators over the integers
Y1 = LaurentPoly.variable(1)
Y2 = LaurentPoly.variable(2)
Y3 = LaurentPoly.variable(3)
Y4 = LaurentPoly.variable(4)


def embed(p: LaurentPoly, ring: CoeffRing) -> LaurentPoly:
    """Reinterpret p in a larger ring (integers embed into any surrogate ring)."""
    if p.ring == ring:
        return p
    if not p.ring.is_integers:
        raise RingMismatch(f"no embedding of degree {p.ring.m} into {ring}")
    return LaurentPoly(ring, p._terms)


def weighted_degree(p: LaurentPoly, params: Params) -> int:
    """Maximum weighted degree of the terms of p; undefined for 0."""
    if p.is_zero():
        raise ZeroPolynomial("weighted degree of the zero polynomial")
    return K.max_weighted_degree(p._terms, params.weights)


def descending_keys(p: LaurentPoly, params: Params) -> list:
    """The keys of p in descending weighted order."""
    w = params.weights
    return sorted(p._terms, key=lambda e: K.order_key(e, w), reverse=True)


def exact_div(p: LaurentPoly, q: LaurentPoly, params: Params) -> LaurentPoly:
    """The unique r with p == q * r, or raise NotDivisible.

    Over the integers any divisor works; over a surrogate ring the divisor
    must be a single term with unit coefficient +-t^k.
    """
    if q.is_zero():
        raise DivisionByZero("exact division by zero")
    ring = join(p.ring, q.ring)
    if ring.is_integers:
        terms = K.exact_div_terms(p._terms, q._terms, params.weights, current_max_terms())
        return LaurentPoly(ring, terms)
    if len(q._terms) == 1:
        (key, coeff), = q._terms.items()
        if coeff in (1, -1):
            back = tuple(-e for e in key)
            return LaurentPoly(ring, K.wrap_t(K.scale_terms(p._terms, back, coeff), ring.m))
    raise NotDivisible(
        "surrogate-ring division supports only unit monomial divisors"
    )


def substitute(p: LaurentPoly, images) -> LaurentPoly:
    """Evaluate p at images = (q1, q2, q3, q4), one polynomial per generator.

    p must have nonnegative exponents (substitution into Laurent negatives is
    not defined here).
    """
    if len(images) != 4:
        raise ValueError("substitute needs exactly four images")
    if p.has_negative_exponents():
        raise NegativeExponent("substitution requires nonnegative exponents")
    ring = p.ring
    for q in images:
        ring = join(ring, q.ring)
    tis = tuple(q._terms for q in images)
    terms = K.substitute_terms(p._terms, tis, current_max_terms(), m=ring.m)
    return LaurentPoly(ring, terms)


def parity_exponent(params: Params, middle: int) -> int:
    """Exchange exponent of the relation with middle index ``middle``:
    y_{n-1} y_{n+1} = y_n^a + 1 for even n, y_n^b + 1 for odd n."""
    return params.a if middle % 2 == 0 else params.b
