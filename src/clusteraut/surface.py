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
from math import gcd

from . import _kernel as K
from .budget import WORK_FACTOR, cache_per_budget, current_max_terms
from .errors import (
    BudgetExceeded,
    NegativeExponent,
    ParamsMismatch,
    ParseError,
    FactorizationFailed,
    SwapRequiresEqualParams,
)
from .poly import LaurentPoly, Params, descending_keys, embed, weighted_degree
from .record import Record
from .rings import ZZ, CoeffRing, join, root_surrogate


def normal_form(params: Params, p: LaurentPoly) -> LaurentPoly:
    """Reduce p to its unique normal form modulo the exchange relations."""
    if p.has_negative_exponents():
        raise NegativeExponent("normal form requires nonnegative exponents")
    terms = K.normal_form_terms(
        p.term_map(), params.a, params.b, p.ring.m, current_max_terms()
    )
    return LaurentPoly(p.ring, terms)


class EndoMap(Record):
    """An algebra endomorphism given by generator images in normal form,
    all four over one coefficient ring.

    ``verified`` says whether the images satisfy both exchange relations.
    A constructor that knows the answer passes it; otherwise it is left
    None and ``is_endomorphism`` computes it on first read.
    """

    __slots__ = ("params", "images", "_verified")

    def __init__(
        self,
        params: Params,
        images: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly],
        _verified: bool | None = None,
    ):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_verified", _verified)

    @classmethod
    def make(
        cls, params: Params, images, verified: bool | None = None
    ) -> "EndoMap":
        """Build from four polynomials (normalized here).  The relations are
        not checked here: ``verified`` is the answer when the caller knows
        it, and is otherwise checked on first read."""
        ring = ZZ
        for p in images:
            ring = join(ring, p.ring)
        elems = tuple(embed(normal_form(params, p), ring) for p in images)
        return cls(params, elems, verified)

    @property
    def verified(self) -> bool:
        if self._verified is None:
            object.__setattr__(self, "_verified", is_endomorphism(self))
        return self._verified

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

#: Bounds on the generator caches, in entries.  The generators hold every
#: pair with a, b <= 6 (72 keys for sigma3 and its literal variant), the
#: scalings every (pair, i, j) of those pairs (441), per term budget.
_PAIRS = 128
_SCALINGS = 1024


@cache_per_budget(_PAIRS)
def identity(params: Params) -> EndoMap:
    images = [LaurentPoly.variable(i) for i in (1, 2, 3, 4)]
    return EndoMap.make(params, images)


def y0_expression(params: Params) -> LaurentPoly:
    """y0 = y1^b * y4 - y2^(a-1) * sum_{i<b} (y1*y3)^i, the paper's formula
    as a 4-variable polynomial, not in normal form.  ``verify --suite
    identities`` checks it; ``sigma2`` builds its normal form directly, and
    the tests check the two against each other."""
    a, b = params.a, params.b
    y1, y2, y3, y4 = (LaurentPoly.variable(i) for i in (1, 2, 3, 4))
    acc = LaurentPoly.zero()
    for i in range(b):
        acc = acc + (y1 * y3) ** i
    return y1 ** b * y4 - y2 ** (a - 1) * acc


def y5_expression(params: Params, paper_literal: bool = False) -> LaurentPoly:
    """y5 = y4^a * y1 - y3^(b-1) * sum_{i<a} (y2*y4)^i, the paper's formula
    as a 4-variable polynomial, not in normal form.  ``verify --suite
    identities`` checks it; ``sigma3`` builds its normal form directly, and
    the tests check the two against each other.

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


def _reflected_image(top: tuple, n: int, var: int, c: int) -> LaurentPoly:
    """y^top - sum_{j<n} C(n, j+1) * y_var^(c*j + c - 1): the normal form of
    y^top - y_var^(c-1) * sum_{i<n} (1 + y_var^c)^i, by the hockey-stick
    identity sum_{i<n} (1 + z)^i = sum_{j<n} C(n, j+1) * z^j.

    The row C(n, *) has only n + 1 terms but about 0.72 * n^2 bits, so it is
    refused, before it is built, once n^2 bits pass ``WORK_FACTOR`` times
    the term budget in 64-bit words."""
    if n * n > 64 * WORK_FACTOR * current_max_terms():
        raise BudgetExceeded(f"binomial row {n} exceeds budget")
    terms = {top + (0,): 1}
    for j, coeff in enumerate(K.binomial_row(n)[1:]):
        key = [0, 0, 0, 0, 0]
        key[var - 1] = c * j + c - 1
        terms[tuple(key)] = -coeff
    return LaurentPoly(ZZ, terms)


@cache_per_budget(_PAIRS)
def sigma2(params: Params) -> EndoMap:
    """The reflection fixing y2: y_n -> y_{4-n}.

    Images: (y3, y2, y1, y0).  y0 is ``y0_expression`` with y1*y3 = 1 + y2^a,
    built in normal form: y1^b * y4 - sum_{j<b} C(b, j+1) * y2^(aj + a - 1).
    """
    a, b = params.a, params.b
    y1, y2, y3 = (LaurentPoly.variable(i) for i in (1, 2, 3))
    y0 = _reflected_image((b, 0, 0, 1), b, 2, a)
    return EndoMap.make(params, [y3, y2, y1, y0])


@cache_per_budget(_PAIRS)
def sigma3(params: Params, paper_literal: bool = False) -> EndoMap:
    """The reflection fixing y3: y_n -> y_{6-n}.

    Images: (y5, y4, y3, y2).  y5 is ``y5_expression`` with y2*y4 = 1 + y3^b,
    built in normal form: y1 * y4^a - sum_{j<N} C(N, j+1) * y3^(bj + b - 1)
    with N = a, or N = b for ``paper_literal``.  That variant violates the
    relations whenever a != b and is kept only so verification reports can
    exhibit the discrepancy, so it is marked unverified there.  At a = b its
    y5 is the corrected one, and ``verified`` is left to the relation check
    on first read, as for the corrected variant.
    """
    a, b = params.a, params.b
    y2, y3, y4 = (LaurentPoly.variable(i) for i in (2, 3, 4))
    y5 = _reflected_image((1, 0, 0, a), b if paper_literal else a, 3, b)
    known_bad = paper_literal and a != b
    return EndoMap.make(params, [y5, y4, y3, y2], verified=False if known_bad else None)


@cache_per_budget(_SCALINGS)
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
        LaurentPoly.monomial((1, 0, 0, 0, -nu_k), ring=ring),
        LaurentPoly.monomial((0, 1, 0, 0, mu_k), ring=ring),
        LaurentPoly.monomial((0, 0, 1, 0, nu_k), ring=ring),
        LaurentPoly.monomial((0, 0, 0, 1, -mu_k), ring=ring),
    ]
    return EndoMap.make(params, images)


@cache_per_budget(_PAIRS)
def swap(params: Params) -> EndoMap:
    """The coordinate reversal (y1,y2,y3,y4) -> (y4,y3,y2,y1); needs a == b."""
    if params.a != params.b:
        raise SwapRequiresEqualParams(f"swap undefined for {params}")
    images = [LaurentPoly.variable(i) for i in (4, 3, 2, 1)]
    return EndoMap.make(params, images)


def make_generator(params: Params, atom, paper_literal: bool = False) -> EndoMap:
    """Build one generator from a letter: ('s2',), ('s3',), ('m', i, j) or
    ('h',)."""
    kind = atom[0]
    if kind == "s2":
        return sigma2(params)
    if kind == "s3":
        return sigma3(params, paper_literal)
    if kind == "m":
        return scaling(params, atom[1], atom[2])
    if kind == "h":
        return swap(params)
    raise ValueError(f"unknown generator atom {atom!r}")


# -- composition and factorization ----------------------------------------


def compose(f: EndoMap, g: EndoMap, caches=None) -> EndoMap:
    """The ring-map composition f o g (g's images rewritten through f).

    ``caches`` may hold power caches from a previous compose with the same
    left factor f (same ring), to share work across a chain of calls.
    The result is verified when both factors are known to be and
    unverified when either is known not to be; otherwise it is checked on
    first read, and neither factor is checked here.
    """
    if f.params != g.params:
        raise ParamsMismatch(f"maps for {f.params} and {g.params}")
    params = f.params
    ring = join(f.ring, g.ring)
    f_maps = tuple(e.term_map() for e in f.images)
    if caches is None:
        caches = K.new_power_caches()
    cap = current_max_terms()
    out = []
    a, b, m = params.a, params.b, ring.m
    for e in g.images:
        sub = K.substitute_terms(e.term_map(), f_maps, cap, caches, (a, b), m)
        out.append(LaurentPoly(ring, K.normal_form_terms(sub, a, b, m, cap)))
    known = (f._verified, g._verified)
    verified = False if False in known else (True if known == (True, True) else None)
    return EndoMap(params, tuple(out), verified)


#: y_n -> y_(c - n) for the reflections among the letters
_REFLECTIONS = {"s2": 4, "s3": 6, "h": 5}


def fold_word(params: Params, word) -> tuple:
    """(exps, ns, wide) for a word of atoms, leftmost acting last: the word
    sends each y_i to t^exps[i] y_ns[i], and ``wide`` says whether it has an
    m atom.

    Each atom sends every y_n to t^e y_n': s2, s3, h and sp(p) to y_(c-n)
    with c = 4, 6, 5 and 2p, r^k to y_(n-2k), and m(i, j) to t^e y_n with
    e = (-u, -v, u, v)[n mod 4], u = (m/a) i, v = (m/b) j.  So the atoms
    are folded right to left over the pairs (e, n) of y1..y4, and each e is
    returned modulo m.
    """
    a, b, m = params.a, params.b, params.m
    exps, ns, wide = [0, 0, 0, 0], [1, 2, 3, 4], False
    for atom in reversed(word):
        kind = atom[0]
        if kind == "m":
            u, v = (m // a) * (atom[1] % a), (m // b) * (atom[2] % b)
            exps = [e + (-u, -v, u, v)[n % 4] for e, n in zip(exps, ns)]
            wide = True
        elif kind == "r":
            ns = [n - 2 * atom[1] for n in ns]
        else:
            if kind == "h" and a != b:
                raise SwapRequiresEqualParams(f"swap undefined for {params}")
            c = 2 * atom[1] if kind == "sp" else _REFLECTIONS.get(kind)
            if c is None:
                raise ValueError(f"unknown generator atom {atom!r}")
            ns = [c - n for n in ns]
    return [e % m for e in exps], ns, wide


def compose_word(
    params: Params, word, paper_literal: bool = False
) -> EndoMap:
    """The map of a word of atoms, leftmost acting last.

    The word is folded (``fold_word``) to the pairs (e, n) of y1..y4, and
    each image is t^e times the Laurent walk's y_n in normal form,
    ``cluster.surface_var(n)``, over Z[t]/(t^m - 1) when the word has an m
    atom.  ``paper_literal`` words at a != b, whose sigma3 is no
    automorphism, go through ``compose_letters``; at a = b the literal
    sigma3 is the corrected one, so they are folded like any word.
    """
    if paper_literal and params.a != params.b:
        return compose_letters(params, word, True)
    from .cluster import surface_var  # cluster imports this module

    exps, ns, wide = fold_word(params, word)
    ring = root_surrogate(params.m) if wide else ZZ
    ys = [embed(surface_var(params, n), ring) for n in ns]
    images = tuple(
        LaurentPoly(ring, K.scale_terms(y.term_map(), (0, 0, 0, 0, e), 1)) if e else y
        for y, e in zip(ys, exps)
    )
    return EndoMap(params, images, True)


def compose_letters(
    params: Params, word, paper_literal: bool = False
) -> EndoMap:
    """The map of a word composed one letter at a time, uncached: the path
    of ``paper_literal`` words at a != b and the tests' reference for
    compose_word.

    ('r', k) is (s2 s3)^k, or (s3 s2)^|k| when k < 0, and ('sp', p) is
    r^(2-p) s2.  At the finite pairs |k| is first reduced modulo the order
    of r, except for literal words at a != b, whose sigma3 differs.
    """
    from .cluster import expected_period  # cluster imports this module

    period = expected_period(params)
    order = None
    if period and not (paper_literal and params.a != params.b):
        order = period // gcd(period, 2)  # r shifts indices by 2
    f = identity(params)
    for atom in word:
        if atom[0] not in ("r", "sp"):
            f = compose(f, make_generator(params, atom, paper_literal))
            continue
        k = atom[1] if atom[0] == "r" else 2 - atom[1]
        first, second = sigma2(params), sigma3(params, paper_literal)
        if k < 0:
            first, second = second, first
        for _ in range(abs(k) % order if order else abs(k)):
            f = compose(compose(f, first), second)
        if atom[0] == "sp":
            f = compose(f, sigma2(params))
    return f


def order_of(f: EndoMap, cap: int = 16) -> int | None:
    """Smallest k in 1..cap with f^k = id, or None if there is none."""
    g = f
    for k in range(1, cap + 1):
        if equal(g, identity(f.params)):
            return k
        if k < cap:
            g = compose(g, f)
    return None


def factorize(f: EndoMap, max_word: int = 16) -> list:
    """Express f as a word in s2, s3, m(i, j) and h.

    The group element of f is read at one point (``autgroup.identify``) and
    its word from the element's normal form (``autgroup.factor_word``); the
    word is accepted only when its ``compose_word`` map, the index action of
    each atom on the exact table of y_n, equals f.  Maps that are no
    group element, or whose reading fails that check, go down the degree
    descent: pre-compose with whichever of sigma2/sigma3 strictly lowers
    the total weighted degree of the images, and read the result again.
    The returned word composes back to f (it need not equal any word f was
    built from).
    """
    from . import autgroup  # autgroup imports this module

    for i, e in enumerate(f.images, 1):
        if e.is_zero():
            raise FactorizationFailed(f"the image of y{i} is zero: no automorphism")
    params = f.params
    prefix: list = []
    g = f
    for _ in range(max_word + 1):
        x = autgroup.identify(g)
        word = None if x is None else autgroup.factor_word(x, max_word - len(prefix))
        if word is not None and equal(compose_word(params, prefix + word), f):
            return prefix + word
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


def term_rows(p: LaurentPoly, params: Params, keys=None) -> list:
    """p as a list of [[e1, e2, e3, e4], coefficient-vector] pairs in
    descending weighted order.  Over the integers the vectors have length
    1; over the degree-m surrogate ring, length m, entry k holding the
    coefficient of t^k.  ``keys`` may give the order, as
    ``descending_keys(p, params)`` does."""
    tp = p._terms  # read, not copied
    if keys is None:
        keys = descending_keys(p, params)
    width = p.ring.m or 1
    rows: dict = {}  # the terms of one monomial are adjacent in the order
    for key in keys:
        mono = key[:4]
        row = rows.get(mono)
        if row is None:
            row = rows[mono] = [list(mono), [0] * width]
        row[1][key[4]] = tp[key]
    return list(rows.values())


def endo_to_obj(f: EndoMap) -> dict:
    """Plain-data form: {"a", "b", "images"} where each image is the
    ``term_rows`` list of its polynomial."""
    images = [term_rows(e, f.params) for e in f.images]
    return {"a": f.params.a, "b": f.params.b, "images": images}


def _obj_error(detail: str) -> ParseError:
    return ParseError(f"bad map object: {detail}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def endo_from_obj(obj) -> EndoMap:
    """Rebuild a map from its plain-data form (inverse of endo_to_obj).

    Vector lengths fix the coefficient ring: all length 1 means integers,
    length m = lcm(a, b) >= 2 means the degree-m surrogate ring (length-1
    vectors mixed in are read as integer constants of that ring).  Raises
    ParseError on malformed input: a missing field, a value of the wrong
    type (booleans are not integers), a negative exponent or a vector of
    any other length, and then a repeated exponent within one image.  Each
    row is validated and turned into terms in one pass.  The images are put
    in normal form; the relations are not checked here, so ``verified`` is
    computed by ``is_endomorphism`` on first read.
    """
    if not isinstance(obj, dict):
        raise _obj_error("expected an object")
    for field in ("a", "b", "images"):
        if field not in obj:
            raise _obj_error(f"missing field {field!r}")
    a, b = obj["a"], obj["b"]
    if not (_is_int(a) and _is_int(b)) or a < 1 or b < 1:
        raise _obj_error("a and b must be positive integers")
    params = Params(a, b)
    m = params.m
    images_obj = obj["images"]
    if not isinstance(images_obj, list) or len(images_obj) != 4:
        raise _obj_error("images must be a list of four polynomials")

    wide, duplicate, term_maps = False, None, []
    for rows in images_obj:
        if not isinstance(rows, list):
            raise _obj_error("each image must be a list of terms")
        seen, terms = set(), {}
        for row in rows:
            if (
                not isinstance(row, list)
                or len(row) != 2
                or not isinstance(row[0], list)
                or len(row[0]) != 4
                or not all(_is_int(v) for v in row[0])
                or not isinstance(row[1], list)
                or not row[1]
                or not all(_is_int(v) for v in row[1])
            ):
                raise _obj_error(f"bad term entry {row!r}")
            exps, vec = tuple(row[0]), row[1]
            if any(v < 0 for v in exps):
                raise _obj_error(f"negative exponent in term entry {row!r}")
            if len(vec) not in (1, m):
                raise _obj_error(
                    f"coefficient vector {vec!r} must have length 1 or {m}"
                )
            if exps in seen and duplicate is None:
                duplicate = exps  # reported once every row has its shape
            seen.add(exps)
            wide = wide or len(vec) > 1
            terms.update((exps + (k,), c) for k, c in enumerate(vec) if c)
        term_maps.append(terms)
    if duplicate is not None:
        raise _obj_error(f"duplicate exponent {duplicate}")
    ring = root_surrogate(m) if wide else ZZ
    cap = current_max_terms()
    images = tuple(
        LaurentPoly(ring, K.normal_form_terms(tp, a, b, ring.m, cap))
        for tp in term_maps
    )
    return EndoMap(params, images)


def endo_from_json(src: str) -> EndoMap:
    try:
        obj = json.loads(src)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise _obj_error(f"invalid JSON ({exc})") from None
    return endo_from_obj(obj)
