"""Laurent polynomials in y1..y4 with exact coefficients.

A LaurentPoly is an immutable sparse polynomial: a coefficient ring plus a
term map from exponent 4-tuples to nonzero values.  Arithmetic goes through
the kernel module, which enforces the term budget from
:mod:`clusteraut.budget`.

The weighted order used everywhere gives y1, y2, y3, y4 the weights
(a, 1, 1, b); ties are broken lexicographically on (e1, e4, e2, e3).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterator

from . import _kernel as K
from .budget import current_max_terms
from .errors import (
    DivisionByZero,
    NegativeExponent,
    NegativePower,
    NotDivisible,
    ZeroPolynomial,
)
from .rings import ZZ, CoeffRing, join, promote_value

Exponents = tuple[int, int, int, int]


@dataclass(frozen=True)
class Params:
    """The pair (a, b) of positive exchange exponents."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("a and b must be positive")

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


class LaurentPoly:
    """Immutable sparse Laurent polynomial over an exact coefficient ring."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: CoeffRing, terms: dict):
        """Build from a raw term map; zero coefficients are dropped.

        Values must already be valid for ``ring`` (use from_terms for
        unvalidated input).
        """
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, ring: CoeffRing, terms) -> "LaurentPoly":
        """Validating constructor from any (exponents, coefficient) mapping."""
        clean: dict = {}
        ops = ring.ops()
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, value in items:
            exps = tuple(exps)
            if len(exps) != 4 or not all(isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            value = ring.coerce(value)
            if exps in clean:
                value = (
                    clean[exps] + value if ops is None else ops.add(clean[exps], value)
                )
            if ring.is_zero(value):
                clean.pop(exps, None)
            else:
                clean[exps] = value
        return cls(ring, clean)

    @classmethod
    def zero(cls, ring: CoeffRing = ZZ) -> "LaurentPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, value, ring: CoeffRing = ZZ) -> "LaurentPoly":
        value = ring.coerce(value)
        if ring.is_zero(value):
            return cls(ring, {})
        return cls(ring, {(0, 0, 0, 0): value})

    @classmethod
    def one(cls, ring: CoeffRing = ZZ) -> "LaurentPoly":
        return cls.const(1, ring)

    @classmethod
    def variable(cls, i: int, ring: CoeffRing = ZZ) -> "LaurentPoly":
        """The generator y_i, i in 1..4."""
        if i not in (1, 2, 3, 4):
            raise ValueError("variable index must be 1..4")
        exps = tuple(1 if j == i - 1 else 0 for j in range(4))
        return cls(ring, {exps: ring.one})

    @classmethod
    def monomial(
        cls, exps, coeff=1, ring: CoeffRing = ZZ
    ) -> "LaurentPoly":
        return cls.from_terms(ring, [(tuple(exps), coeff)])

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, object]]:
        """Iterate (exponents, raw coefficient value) pairs (unspecified order)."""
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
        return any(e < 0 for exps in self._terms for e in exps)

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

    def _coerce_pair(self, other: "LaurentPoly"):
        ring = join(self.ring, other.ring)
        return ring, embed(self, ring)._terms, embed(other, ring)._terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ring, ta, tb = self._coerce_pair(other)
        return LaurentPoly(ring, K.add_terms(ta, tb, ring.ops()))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ring, ta, tb = self._coerce_pair(other)
        ops = ring.ops()
        return LaurentPoly(ring, K.add_terms(ta, K.neg_terms(tb, ops), ops))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, K.neg_terms(self._terms, self.ring.ops()))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ring, ta, tb = self._coerce_pair(other)
        return LaurentPoly(
            ring, K.mul_terms(ta, tb, ring.ops(), current_max_terms())
        )

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise NegativePower(f"power {k} is negative")
        return LaurentPoly(
            self.ring,
            K.pow_terms(self._terms, k, self.ring.ops(), current_max_terms()),
        )


# canonical generators over the integers
Y1 = LaurentPoly.variable(1)
Y2 = LaurentPoly.variable(2)
Y3 = LaurentPoly.variable(3)
Y4 = LaurentPoly.variable(4)


def embed(p: LaurentPoly, ring: CoeffRing) -> LaurentPoly:
    """Reinterpret p in a larger ring (integers embed into any surrogate ring)."""
    if p.ring == ring:
        return p
    terms = {
        exps: promote_value(v, p.ring, ring) for exps, v in p._terms.items()
    }
    return LaurentPoly(ring, terms)


def weighted_degree(p: LaurentPoly, params: Params) -> int:
    """Maximum weighted degree of the terms of p; undefined for 0."""
    if p.is_zero():
        raise ZeroPolynomial("weighted degree of the zero polynomial")
    return K.max_weighted_degree(p._terms, params.weights)


def leading_term(p: LaurentPoly, params: Params) -> tuple[Exponents, object]:
    """The order-maximal (exponents, coefficient) pair of p; undefined for 0."""
    if p.is_zero():
        raise ZeroPolynomial("leading term of the zero polynomial")
    w = params.weights
    exps = max(p._terms, key=lambda e: K.order_key(e, w))
    return exps, p._terms[exps]


def exact_div(p: LaurentPoly, q: LaurentPoly, params: Params) -> LaurentPoly:
    """The unique r with p == q * r, or raise NotDivisible.

    Over the integers any divisor works; over a surrogate ring the divisor
    must be a single term with unit coefficient +-t^k.
    """
    if q.is_zero():
        raise DivisionByZero("exact division by zero")
    ring = join(p.ring, q.ring)
    tp = embed(p, ring)._terms
    tq = embed(q, ring)._terms
    if ring.is_integers:
        terms = K.exact_div_terms(tp, tq, params.weights, current_max_terms())
        return LaurentPoly(ring, terms)
    if len(tq) == 1:
        (exps, coeff), = tq.items()
        if ring.is_monomial_unit(coeff):
            inv = ring.unit_inverse(coeff)
            back = tuple(-e for e in exps)
            return LaurentPoly(ring, K.scale_terms(tp, back, inv, ring.ops()))
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
    tp = embed(p, ring)._terms
    tis = tuple(embed(q, ring)._terms for q in images)
    terms = K.substitute_terms(tp, tis, ring.ops(), current_max_terms())
    return LaurentPoly(ring, terms)


def parity_exponent(params: Params, middle: int) -> int:
    """Exchange exponent of the relation with middle index ``middle``:
    y_{n-1} y_{n+1} = y_n^a + 1 for even n, y_n^b + 1 for odd n."""
    return params.a if middle % 2 == 0 else params.b
