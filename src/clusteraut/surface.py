"""Elements and endomorphisms of the affine surface algebra.

The algebra is Z[y1, y2, y3, y4] modulo the two exchange relations

    y1*y3 = y2^a + 1        y2*y4 = y3^b + 1.

Reduction with the oriented rules y1*y3 -> y2^a + 1 and y2*y4 -> y3^b + 1
strictly lowers the (a, 1, 1, b)-weighted degree and the rule leading terms
are coprime, so every element has a unique normal form: a polynomial in
which no term contains both y1 and y3, nor both y2 and y4.

An EndoMap stores the images of the four generators in normal form.
compose(f, g) is the ring-map composition f after g:

    compose(f, g)(y_i) = normal_form(substitute(g.images[i], f.images))

so, for instance, compose(sigma3, sigma2) sends y1..y4 to the expressions
for y3, y4, y5, y6 (an index shift by 2).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import _kernel as K
from .budget import current_max_terms
from .errors import (
    NegativeExponent,
    ParamsMismatch,
    ParseError,
    FactorizationFailed,
    SwapRequiresEqualParams,
)
from .poly import LaurentPoly, Params, embed, weighted_degree
from .rings import ZZ, CoeffRing, join, root_surrogate


def normal_form(params: Params, p: LaurentPoly) -> LaurentPoly:
    """Reduce p to its unique normal form modulo the exchange relations."""
    if p.has_negative_exponents():
        raise NegativeExponent("normal form requires nonnegative exponents")
    terms = K.normal_form_terms(
        p.term_map(), params.a, params.b, p.ring.ops(), current_max_terms()
    )
    return LaurentPoly(p.ring, terms)


@dataclass(frozen=True)
class EndoMap:
    """An algebra endomorphism given by generator images in normal form,
    all four over one coefficient ring."""

    params: Params
    images: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]
    verified: bool

    @classmethod
    def make(
        cls, params: Params, images, verify: bool = True
    ) -> "EndoMap":
        """Build from four polynomials (normalized here); verify the relations
        unless told not to.  ``verified`` records the outcome of the check."""
        ring = ZZ
        for p in images:
            ring = join(ring, p.ring)
        elems = tuple(embed(normal_form(params, p), ring) for p in images)
        f = cls(params, elems, False)
        if verify and is_endomorphism(f):
            f = cls(params, elems, True)
        return f

    @property
    def ring(self) -> CoeffRing:
        return self.images[0].ring

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoMap):
            return NotImplemented
        return self.params == other.params and equal(self, other)

    def __hash__(self) -> int:
        # equal maps over different rings share their exponent supports
        supports = tuple(frozenset(e.term_map()) for e in self.images)
        return hash((self.params, supports))


def is_endomorphism(f: EndoMap) -> bool:
    """Do the images satisfy both exchange relations?"""
    a, b = f.params.a, f.params.b
    i1, i2, i3, i4 = f.images
    one = LaurentPoly.one(i1.ring)
    r1 = normal_form(f.params, i1 * i3 - i2 ** a - one)
    if not r1.is_zero():
        return False
    r2 = normal_form(f.params, i2 * i4 - i3 ** b - one)
    return r2.is_zero()


def equal(f: EndoMap, g: EndoMap) -> bool:
    """Image-wise equality after embedding into a common coefficient ring."""
    if f.params != g.params:
        raise ParamsMismatch(f"maps for {f.params} and {g.params}")
    ring = join(f.ring, g.ring)
    return all(
        embed(p, ring) == embed(q, ring) for p, q in zip(f.images, g.images)
    )


def total_degree(f: EndoMap) -> int:
    """Sum of the weighted degrees of the four images (the descent measure)."""
    return sum(weighted_degree(e, f.params) for e in f.images)


# -- generators ------------------------------------------------------------


@lru_cache(maxsize=None)
def identity(params: Params) -> EndoMap:
    images = [LaurentPoly.variable(i) for i in (1, 2, 3, 4)]
    return EndoMap.make(params, images)


def y0_expression(params: Params) -> LaurentPoly:
    """y0 = y1^b * y4 - y2^(a-1) * sum_{i<b} (y1*y3)^i as a 4-variable polynomial."""
    a, b = params.a, params.b
    y1, y2, y3, y4 = (LaurentPoly.variable(i) for i in (1, 2, 3, 4))
    acc = LaurentPoly.zero()
    for i in range(b):
        acc = acc + (y1 * y3) ** i
    return y1 ** b * y4 - y2 ** (a - 1) * acc


def y5_expression(params: Params, paper_literal: bool = False) -> LaurentPoly:
    """y5 = y4^a * y1 - y3^(b-1) * sum_{i<a} (y2*y4)^i.

    The upper summation bound is a; ``paper_literal`` uses b instead, which
    breaks the identity whenever a != b.
    """
    a, b = params.a, params.b
    y1, y2, y3, y4 = (LaurentPoly.variable(i) for i in (1, 2, 3, 4))
    bound = b if paper_literal else a
    acc = LaurentPoly.zero()
    for i in range(bound):
        acc = acc + (y2 * y4) ** i
    return y4 ** a * y1 - y3 ** (b - 1) * acc


@lru_cache(maxsize=None)
def sigma2(params: Params) -> EndoMap:
    """The reflection fixing y2: y_n -> y_{4-n}.

    Images: (y3, y2, y1, y0), with y0 from ``y0_expression``.
    """
    y1, y2, y3 = (LaurentPoly.variable(i) for i in (1, 2, 3))
    return EndoMap.make(params, [y3, y2, y1, y0_expression(params)])


@lru_cache(maxsize=None)
def sigma3(params: Params, paper_literal: bool = False) -> EndoMap:
    """The reflection fixing y3: y_n -> y_{6-n}.

    Images: (y5, y4, y3, y2), with y5 from ``y5_expression``.  The
    ``paper_literal`` variant violates the relations whenever a != b and is
    kept only so verification reports can exhibit the discrepancy.
    """
    y2, y3, y4 = (LaurentPoly.variable(i) for i in (2, 3, 4))
    y5 = y5_expression(params, paper_literal)
    return EndoMap.make(params, [y5, y4, y3, y2], verify=not paper_literal)


@lru_cache(maxsize=None)
def scaling(params: Params, i: int, j: int) -> EndoMap:
    """Diagonal scaling by the root-of-unity pair (mu, nu) = (t^(m/a*i), t^(m/b*j)).

    Images: (nu^-1 * y1, mu * y2, nu * y3, mu^-1 * y4) over the surrogate ring
    Z[t]/(t^m - 1) with m = lcm(a, b).
    """
    a, b, m = params.a, params.b, params.m
    ring = root_surrogate(m)
    mu_k = (m // a) * (i % a)
    nu_k = (m // b) * (j % b)
    images = [
        LaurentPoly.monomial((1, 0, 0, 0), ring.t_power(-nu_k), ring),
        LaurentPoly.monomial((0, 1, 0, 0), ring.t_power(mu_k), ring),
        LaurentPoly.monomial((0, 0, 1, 0), ring.t_power(nu_k), ring),
        LaurentPoly.monomial((0, 0, 0, 1), ring.t_power(-mu_k), ring),
    ]
    return EndoMap.make(params, images)


@lru_cache(maxsize=None)
def swap(params: Params) -> EndoMap:
    """The coordinate reversal (y1,y2,y3,y4) -> (y4,y3,y2,y1); needs a == b."""
    if params.a != params.b:
        raise SwapRequiresEqualParams(f"swap undefined for {params}")
    images = [LaurentPoly.variable(i) for i in (4, 3, 2, 1)]
    return EndoMap.make(params, images)


def sigma_word(p: int) -> list:
    """Word for the reflection y_n -> y_{2p-n} in terms of s2 and s3.

    The shift y_n -> y_{n+2} is compose(sigma3, sigma2), and
    sigma_p = shift^(p-2) o sigma2.
    """
    k = p - 2
    if k >= 0:
        prefix = [("s3",), ("s2",)] * k
    else:
        prefix = [("s2",), ("s3",)] * (-k)
    return prefix + [("s2",)]


def make_generator(params: Params, atom, paper_literal: bool = False) -> EndoMap:
    """Build one generator from a word atom: ('s2',), ('s3',), ('m', i, j),
    ('h',) or ('sp', p)."""
    kind = atom[0]
    if kind == "s2":
        return sigma2(params)
    if kind == "s3":
        return sigma3(params, paper_literal)
    if kind == "m":
        return scaling(params, atom[1], atom[2])
    if kind == "h":
        return swap(params)
    if kind == "sp":
        return compose_word(params, sigma_word(atom[1]), paper_literal)
    raise ValueError(f"unknown generator atom {atom!r}")


# -- composition and factorization ----------------------------------------


def compose(f: EndoMap, g: EndoMap, caches=None) -> EndoMap:
    """The ring-map composition f o g (g's images rewritten through f).

    ``caches`` may hold power caches from a previous compose with the same
    left factor f (same ring), to share work across a chain of calls.
    """
    if f.params != g.params:
        raise ParamsMismatch(f"maps for {f.params} and {g.params}")
    params = f.params
    ring = join(f.ring, g.ring)
    ops = ring.ops()
    f_maps = tuple(embed(e, ring).term_map() for e in f.images)
    if caches is None:
        caches = K.new_power_caches(ops)
    cap = current_max_terms()
    out = []
    ab = (params.a, params.b)
    for e in g.images:
        tp = embed(e, ring).term_map()
        sub = K.substitute_terms(tp, f_maps, ops, cap, caches, nf=ab)
        nf = K.normal_form_terms(sub, params.a, params.b, ops, cap)
        out.append(LaurentPoly(ring, nf))
    return EndoMap(params, tuple(out), f.verified and g.verified)


def compose_word(
    params: Params, word, paper_literal: bool = False
) -> EndoMap:
    """Compose a word of atoms left to right (leftmost acts last)."""
    result = identity(params)
    for atom in word:
        result = compose(result, make_generator(params, atom, paper_literal))
    return result


def order_of(f: EndoMap, cap: int = 16) -> int | None:
    """Smallest k in 1..cap with f^k = id, or None if there is none."""
    g = f
    for k in range(1, cap + 1):
        if equal(g, identity(f.params)):
            return k
        if k < cap:
            g = compose(g, f)
    return None


@lru_cache(maxsize=None)
def _residue_candidates(params: Params) -> tuple:
    """All products (alternating sigma word of length <= 5) o scaling o swap^e,
    paired with their words.  Covers every finite-type group element and every
    local-minimum residue of the descent in the infinite cases."""
    dihedral: list[tuple[tuple, EndoMap]] = [((), identity(params))]
    for start in ("s2", "s3"):
        word: list = []
        endo = identity(params)
        letter = start
        for _ in range(5):
            word = word + [(letter,)]
            endo = compose(endo, make_generator(params, (letter,)))
            dihedral.append((tuple(word), endo))
            letter = "s3" if letter == "s2" else "s2"
    candidates = []
    swaps: list[tuple[tuple, EndoMap]] = [((), identity(params))]
    if params.a == params.b:
        swaps.append(((("h",),), swap(params)))
    for dword, dend in dihedral:
        for i in range(params.a):
            for j in range(params.b):
                if i == 0 and j == 0:
                    mword: tuple = ()
                    mend = identity(params)
                else:
                    mword = (("m", i, j),)
                    mend = scaling(params, i, j)
                for hword, hend in swaps:
                    word = dword + mword + hword
                    endo = compose(dend, compose(mend, hend))
                    candidates.append((word, endo))
    return tuple(candidates)


def factorize(f: EndoMap, max_word: int = 16) -> list:
    """Express f as a word in s2, s3, m(i, j) and h.

    Greedy descent: pre-compose with whichever of sigma2/sigma3 strictly
    lowers the total weighted degree of the images; at a local minimum match
    the residue against the finite candidate set.  The returned word composes
    back to f (it need not equal any word f was built from).
    """
    params = f.params
    prefix: list = []
    g = f
    for _ in range(max_word + 1):
        for word, endo in _residue_candidates(params):
            if equal(g, endo):
                return prefix + list(word)
        best = None
        cur = total_degree(g)
        for letter in ("s2", "s3"):
            cand = compose(make_generator(params, (letter,)), g)
            d = total_degree(cand)
            if d < cur and (best is None or d < best[0]):
                best = (d, letter, cand)
        if best is None:
            raise FactorizationFailed(
                f"no descent and no residue match at measure {cur}"
            )
        _, letter, g = best
        prefix.append((letter,))
    raise FactorizationFailed(f"descent exceeded {max_word} steps")


# -- serialization ---------------------------------------------------------


def term_rows(p: LaurentPoly, params: Params) -> list:
    """p as a list of [[e1, e2, e3, e4], coefficient-vector] pairs in
    descending weighted order.  Integer coefficients become length-1
    vectors; coefficients over the degree-m surrogate ring keep their full
    length-m vector."""
    tp = p.term_map()
    weights = params.weights
    rows = []
    for key in sorted(tp, key=lambda k: K.order_key(k, weights), reverse=True):
        c = tp[key]
        rows.append([list(key), [c] if isinstance(c, int) else list(c)])
    return rows


def endo_to_obj(f: EndoMap) -> dict:
    """Plain-data form: {"a", "b", "images"} where each image is the
    ``term_rows`` list of its polynomial."""
    images = [term_rows(e, f.params) for e in f.images]
    return {"a": f.params.a, "b": f.params.b, "images": images}


def endo_to_json(f: EndoMap) -> str:
    return json.dumps(endo_to_obj(f), sort_keys=True, separators=(",", ":"))


def _obj_error(detail: str) -> ParseError:
    return ParseError(f"bad map object: {detail}")


def endo_from_obj(obj) -> EndoMap:
    """Rebuild a map from its plain-data form (inverse of endo_to_obj).

    Vector lengths fix the coefficient ring: all length 1 means integers,
    length m >= 2 means the degree-m surrogate ring (length-1 vectors mixed
    in are read as integer constants of that ring).  Raises ParseError on
    malformed input.  The relations are always rechecked; ``verified``
    records the outcome.
    """
    if not isinstance(obj, dict):
        raise _obj_error("expected an object")
    for field in ("a", "b", "images"):
        if field not in obj:
            raise _obj_error(f"missing field {field!r}")
    a, b = obj["a"], obj["b"]
    if not (isinstance(a, int) and isinstance(b, int)) or a < 1 or b < 1:
        raise _obj_error("a and b must be positive integers")
    params = Params(a, b)
    images_obj = obj["images"]
    if not isinstance(images_obj, list) or len(images_obj) != 4:
        raise _obj_error("images must be a list of four polynomials")

    def check_row(row):
        if (
            not isinstance(row, list)
            or len(row) != 2
            or not isinstance(row[0], list)
            or len(row[0]) != 4
            or not all(isinstance(v, int) for v in row[0])
            or not isinstance(row[1], list)
            or not row[1]
            or not all(isinstance(v, int) for v in row[1])
        ):
            raise _obj_error(f"bad term entry {row!r}")

    lengths = set()
    for rows in images_obj:
        if not isinstance(rows, list):
            raise _obj_error("each image must be a list of terms")
        for row in rows:
            check_row(row)
            lengths.add(len(row[1]))
    widths = lengths - {1}
    if len(widths) > 1:
        raise _obj_error(f"mixed coefficient-vector lengths {sorted(lengths)}")
    ring = root_surrogate(widths.pop()) if widths else ZZ
    images = []
    for rows in images_obj:
        terms = {}
        for exps, vec in rows:
            key = tuple(exps)
            if key in terms:
                raise _obj_error(f"duplicate exponent {key}")
            terms[key] = ring.coerce(vec[0] if len(vec) == 1 else tuple(vec))
        images.append(LaurentPoly.from_terms(ring, terms))
    return EndoMap.make(params, images)


def endo_from_json(src: str) -> EndoMap:
    try:
        obj = json.loads(src)
    except ValueError as exc:
        raise _obj_error(f"invalid JSON ({exc})") from None
    return endo_from_obj(obj)
