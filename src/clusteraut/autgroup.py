"""Abstract automorphism group with normal-form words.

Elements are written d * m * h with d = r^k * s2^s in the dihedral part
(r = s2 s3), m a diagonal scaling and h the coordinate reversal (only
when a = b >= 2).  The group law is the index fold of words
(``surface.fold_word``): every atom sends each y_n to t^e * y_n', and an
element is read back from the four pairs (e, n) of y1..y4 (``_element``).
``from_word`` folds a word, ``gmul`` and ``ginv`` fold normal-form words,
and ``identify`` reads the same pairs from a map at one point.  The action
of the dihedral part on the scaling lattice is not assumed either: the
tables of ``derive_action_tables`` read each conjugate of a basis scaling
from the fold of its word and check it on the generator's own images,
which certifies the fold's m(i, j) rule on the generators' maps.
``factor_word`` reads an element's word from its normal form, with no table
per pair: the dihedral part of each alternating word of at most five
letters is a closed form in its length and first letter.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    ConjugationNotScaling,
    EngineError,
    NotFiniteType,
    StructureMismatch,
    SwapRequiresEqualParams,
)
from .budget import cache_per_budget
from .cluster import expected_period
from .poly import LaurentPoly, Params
from .record import Record
from .surface import (
    EndoMap,
    compose_word,
    equal,
    fold_word,
    identity,
    sigma2,
    sigma3,
    swap,
)

def _case_name(a: int, b: int) -> str:
    if (a, b) == (1, 1):
        return "A2"
    if {a, b} == {2, 1}:
        return "B2-like"
    if {a, b} == {3, 1}:
        return "G2-like"
    if a == b:
        return "EqualGE2"
    return "GenericInfinite"


def _conjugation_table(params: Params, g: EndoMap, label: str):
    """2x2 matrix of the action m -> g o m o g on scaling indices.

    Columns are the images of the basis scalings (1,0) and (0,1); entry
    rows live in Z/a and Z/b respectively.  Each column m' is read from the
    fold of the word ``label`` m ``label`` and checked on g's own images:
    g o m = m' o g holds when every term y^e of the image of y_k has
    e . c' = c_k modulo m, where c and c' are the t-exponents of m and m'.
    As g is an involution, that is g o m o g = m'.
    """
    m = params.m
    cols = []
    for basis in ((1, 0), (0, 1)):
        exps, ns, _ = fold_word(params, [(label,), ("m", *basis), (label,)])
        ij = (exps[1] // (m // params.a), exps[2] // (m // params.b))
        c = _scaling_exponents(params, basis, 0)
        if (
            ns != [1, 2, 3, 4]
            or exps != _scaling_exponents(params, ij, 0)
            or any(
                sum(x * y for x, y in zip(key, exps)) % m != ck
                for image, ck in zip(g.images, c)
                for key in image.term_map()
            )
        ):
            raise ConjugationNotScaling(
                f"conjugate of scaling{basis} by {label} is not a scaling"
            )
        cols.append(ij)
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def _h_conjugate(f: EndoMap) -> EndoMap:
    """h o f o h at a = b, with no composition: h renames each y_i to
    y_(5-i) and keeps normal forms, so the images are those of f in reverse
    order, each key (e1, e2, e3, e4, k) renamed to (e4, e3, e2, e1, k)."""
    images = tuple(
        LaurentPoly(e.ring, {(e4, e3, e2, e1, k): c for (e1, e2, e3, e4, k), c in e.terms()})
        for e in reversed(f.images)
    )
    return EndoMap(f.params, images)


def derive_action_tables(params: Params) -> dict:
    """Conjugation action of s2, s3 (and h when a = b) on the scalings.

    Each table is read from the folds of the conjugation words and checked
    exactly on the images of sigma2, sigma3 and swap
    (``_conjugation_table``); nothing about the action is hard-coded.  At
    a = b, h o s2 o h = s3 is checked exactly on the images, with h o s2 o h
    read from sigma2's images by renaming (``_h_conjugate``), not composed.
    """
    tables = {
        "s2": _conjugation_table(params, sigma2(params), "s2"),
        "s3": _conjugation_table(params, sigma3(params), "s3"),
        "h": None,
    }
    if params.a == params.b:
        h = swap(params)
        tables["h"] = _conjugation_table(params, h, "h")
        if not equal(_h_conjugate(sigma2(params)), sigma3(params)):
            raise ConjugationNotScaling(
                "h o s2 o h does not equal s3; conjugation model is unsound"
            )
        # conjugation by h is a group automorphism, so it swaps every
        # m(i, j) once it swaps the basis scalings, whose conjugates the
        # table has read
        for col, (i, j) in enumerate(((1, 0), (0, 1))):
            hit = (tables["h"][0][col], tables["h"][1][col])
            if hit != (j % params.a, i % params.b):
                raise ConjugationNotScaling(
                    f"h-conjugate of scaling({i},{j}) is not scaling({j},{i})"
                )
    return tables


class GroupStructure(Record):
    """Shape of the group for one parameter pair, with derived tables.
    A ``dihedral_order`` of None encodes the infinite dihedral group."""

    __slots__ = (
        "params", "case", "dihedral_order", "mu_order", "has_swap",
        "s2_table", "s3_table", "h_table",
    )

    def __init__(
        self,
        params: Params,
        case: str,
        dihedral_order: int | None,
        mu_order: int,
        has_swap: bool,
        s2_table: tuple,
        s3_table: tuple,
        h_table: tuple | None,
    ):
        values = (
            params, case, dihedral_order, mu_order, has_swap,
            s2_table, s3_table, h_table,
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def is_finite(self) -> bool:
        return self.dihedral_order is not None

    @property
    def r_order(self) -> int | None:
        return None if self.dihedral_order is None else self.dihedral_order // 2

    def describe(self) -> str:
        if self.case == "A2":
            return "dihedral of order 10"
        if self.case == "B2-like":
            return "dihedral of order 6 times scalings of order 2"
        if self.case == "G2-like":
            return "dihedral of order 8 acting on scalings of order 3"
        if self.case == "EqualGE2":
            return (
                "infinite dihedral acting on scalings of order "
                f"{self.mu_order}, extended by the coordinate reversal"
            )
        return f"infinite dihedral acting on scalings of order {self.mu_order}"


@cache_per_budget(64)
def structure_of(params: Params) -> GroupStructure:
    """Case descriptor for the parameter pair, with action tables filled in."""
    a, b = params.a, params.b
    tables = derive_action_tables(params)
    # r = s2 s3 shifts indices by 2, so in the finite cases its order is
    # the period over gcd(period, 2)
    period = expected_period(params)
    r_order = None if period is None else period // gcd(period, 2)
    return GroupStructure(
        params=params,
        case=_case_name(a, b),
        dihedral_order=None if r_order is None else 2 * r_order,
        mu_order=a * b,
        has_swap=(a == b and a >= 2),
        s2_table=tables["s2"],
        s3_table=tables["s3"],
        h_table=tables["h"],
    )


class GroupElement(Record):
    """Normal form r^r_exp * s2^s * scaling(mu) * h^h."""

    __slots__ = ("structure", "r_exp", "s", "mu", "h")

    def __init__(
        self,
        structure: GroupStructure,
        r_exp: int = 0,
        s: int = 0,
        mu: tuple = (0, 0),
        h: int = 0,
    ):
        p = structure.params
        if structure.r_order is not None:
            r_exp %= structure.r_order
        s &= 1
        mu = (mu[0] % p.a, mu[1] % p.b)
        h &= 1
        if h and not structure.has_swap:
            raise SwapRequiresEqualParams(
                f"no reversal factor in the group for {p}"
            )
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "r_exp", r_exp)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "h", h)

    def __str__(self) -> str:
        parts = []
        if self.r_exp:
            parts.append("r" if self.r_exp == 1 else f"r^{self.r_exp}")
        if self.s:
            parts.append("s2")
        if self.mu != (0, 0):
            parts.append(f"m({self.mu[0]},{self.mu[1]})")
        if self.h:
            parts.append("h")
        return " ".join(parts) if parts else "id"


def identity_element(structure: GroupStructure) -> GroupElement:
    return GroupElement(structure)


# -- the group law: every element is read from a word fold ------------------


#: (s, e, n) for the four shapes r^k s2^s m h^e: with k = 0, the image of
#: y_i is a multiple of y_(n + i - 1) when s = e, of y_(n - i + 1) otherwise.
_WINDOWS = ((0, 0, 1), (1, 0, 3), (0, 1, 4), (1, 1, 0))


def _scaling_exponents(params: Params, mu, h: int) -> list:
    """The t-exponents of the images of y1..y4 under m(mu) h^h."""
    m = params.m
    u, v = (m // params.a) * mu[0], (m // params.b) * mu[1]
    exps = [-v % m, u % m, v % m, -u % m]
    return exps[::-1] if h else exps


def _element(structure: GroupStructure, exps, ns) -> GroupElement | None:
    """The element that sends each y_i to t^exps[i] * y_ns[i], or None when
    there is none.  Each n may be exact or taken modulo the period."""
    params = structure.params
    period = expected_period(params)
    ns = [n % period if period else n for n in ns]
    way = ns[1] - ns[0]
    if period and way % period in (1, period - 1):
        way = 1 if way % period == 1 else -1
    if way not in (1, -1):
        return None
    for s, h, start in _WINDOWS:
        if (s == h) != (way == 1) or (h and not structure.has_swap):
            continue
        # y1 goes to a multiple of y_(start - 2k)
        if period:
            ks = [
                k for k in range(structure.r_order)
                if (start - 2 * k - ns[0]) % period == 0
            ]
        else:
            ks = [(start - ns[0]) // 2] if (start - ns[0]) % 2 == 0 else []
        for k in ks:
            want = [start - 2 * k + way * i for i in range(4)]
            if ns != [n % period if period else n for n in want]:
                continue
            # the images of y2 and y3 carry t^(m/a i) and t^(m/b j) (swapped by h)
            ea, eb = exps[2 if h else 1], exps[1 if h else 2]
            mu = (ea // (params.m // params.a), eb // (params.m // params.b))
            if list(exps) != _scaling_exponents(params, mu, h):
                return None
            return GroupElement(structure, k, s, mu, h)
    return None


def from_word(structure: GroupStructure, word) -> GroupElement:
    """The element of a word of generator atoms, leftmost acting last: the
    word is folded to the pairs (e, n) of y1..y4 (``surface.fold_word``) and
    ``_element`` reads the normal form from them.

    Atoms are ('s2',), ('s3',), ('m', i, j), ('h',), ('r', k) and ('sp', p),
    matching the word grammar used by the command line tools.  At (1,1) the
    reversal h is the element r^2 s2.
    """
    params = structure.params
    if params.a != params.b and any(atom[0] == "h" for atom in word):
        raise SwapRequiresEqualParams(f"no reversal generator for {params}")
    exps, ns, _ = fold_word(params, word)
    x = _element(structure, exps, ns)
    if x is None:
        raise EngineError(f"the fold of {word!r} is no group element")
    return x


def gmul(x: GroupElement, y: GroupElement) -> GroupElement:
    """Product x * y in normal form: the element of the normal-form word of
    x followed by that of y."""
    if x.structure.params != y.structure.params:
        raise StructureMismatch(
            f"elements for {x.structure.params} and {y.structure.params}"
        )
    return from_word(x.structure, normal_word(x) + normal_word(y))


def ginv(x: GroupElement) -> GroupElement:
    """Inverse element, the element of the inverted normal-form word
    h^e m(-i, -j) s2^s r^-k: gmul(x, ginv(x)) is the identity."""
    st, (i, j) = x.structure, x.mu
    return from_word(st, normal_word(GroupElement(st, -x.r_exp, x.s, (-i, -j), x.h))[::-1])


# -- evaluation onto surface maps ------------------------------------------

def to_endo(x: GroupElement) -> EndoMap:
    """The surface map of x: ``compose_word`` of its normal-form word, the
    index action of each atom on four entries of the table of y_n."""
    return compose_word(x.structure.params, normal_word(x))


def element_order(x: GroupElement) -> int | None:
    """The order of x in the group, or None when it is infinite.

    In the infinite cases, x = r^k s2^s m h^e has infinite order exactly when
    its image in the quotient by the scalings does: when s = e = 0 and
    k != 0, or when s = e = 1 (s2 h squares to r).  Otherwise x^2 is a
    scaling, so the order is at most 2ab; a finite group has at most 24
    elements.
    """
    st = x.structure
    if not st.is_finite and (x.s == x.h == 1 or (x.s == x.h == 0 and x.r_exp)):
        return None
    bound = st.dihedral_order * st.mu_order if st.is_finite else 2 * st.mu_order
    one = identity_element(st)
    power = x
    for k in range(1, bound + 1):
        if power == one:
            return k
        power = gmul(power, x)
    raise EngineError(f"{x} has no order within the group bound {bound}")


def _prime_factors(n: int) -> list:
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + ([n] if n > 1 else [])


def normal_word(x: GroupElement) -> list:
    """The atoms of the normal form r^k s2^s m(i, j) h^e of x."""
    word = []
    if x.r_exp:
        word.append(("r", x.r_exp))
    if x.s:
        word.append(("s2",))
    if x.mu != (0, 0):
        word.append(("m", *x.mu))
    if x.h:
        word.append(("h",))
    return word


def word_order(params: Params, word, cap: int) -> int | None:
    """The order of the map f of ``word``, or None when it is infinite or
    above cap.

    The order k is taken in the group and proven on the surface with the
    normal-form word w of the element: w maps to f, w repeated k times maps
    to the identity, and repeated k/q times it does not, for each prime q
    dividing k.  Each map comes from ``compose_word``, four entries of the
    exact table of y_n, so the proof checks the normal form that
    ``_element`` read from the word's fold, and the order that powers in
    ``gmul`` gave, on exact maps.  A failed proof is a fault of the engine
    and raises ``EngineError``.
    """
    x = from_word(structure_of(params), word)
    k = element_order(x)
    if k is None or k > cap:
        return None
    f = compose_word(params, word)
    w = tuple(normal_word(x))
    one = identity(params)

    def is_identity(j: int) -> bool:
        return equal(compose_word(params, w * j), one)

    if (
        equal(compose_word(params, w), f)
        and is_identity(k)
        and not any(is_identity(k // q) for q in _prime_factors(k))
    ):
        return k
    raise EngineError(f"the order {k} of {x} does not hold on the surface")


# -- reading a map's element at one point ----------------------------------

#: Maps are read at one point of X(a, b) over the field of PRIME elements:
#: y1 and y2 are fixed, y3, y4 and every other y_n follow from the exchange
#: relations.  The image of a group element sends each y_i to t^e * y_n, so
#: at the point each image is a single power of t times the value of y_n,
#: and n is found in the point's orbit.
PRIME = (1 << 61) - 1
SEED = (0x6A09E667F3BCC90, 0x3C6EF372FE94F82)
#: The infinite cases index the orbit for n in -_REACH .. _REACH, enough for
#: every element whose dihedral part has at most _REACH - 4 letters.
_REACH = 64


def _point_walk(a: int, b: int, seed: tuple, hi: int) -> dict:
    """{n: y_n at the point} for n = 1 .. hi, from y1, y2 = seed by the rule
    of (a, b); the walk stops where it would divide by zero."""
    p = PRIME
    values = dict(zip((1, 2), seed))
    for n in range(2, hi):  # y_(n+1) = (y_n^c + 1) / y_(n-1)
        if not values[n - 1]:
            break
        c = a if n % 2 == 0 else b
        values[n + 1] = (pow(values[n], c, p) + 1) * pow(values[n - 1], -1, p) % p
    return values


@cache_per_budget(64)
def _reading(params: Params) -> tuple:
    """What ``identify`` needs at one pair: the group structure, y1..y4 at the
    point, and {y_n at the point: n} over one period in the finite cases and
    over -_REACH .. _REACH otherwise, zero values left out.  Below the seed
    y_n is y_(3-n) of the walk at (b, a) from the swapped seed, as in
    ``cluster.cluster_var``."""
    period = expected_period(params)
    values = _point_walk(params.a, params.b, SEED, period or _REACH)
    if not period:
        below = _point_walk(params.b, params.a, SEED[::-1], 3 + _REACH)
        values.update((3 - m, v) for m, v in below.items() if m >= 3)
    point = tuple(values[n] for n in (1, 2, 3, 4))
    return structure_of(params), point, {v: n for n, v in values.items() if v}


class _Powers(dict):
    """y^e mod PRIME by exponent e, each computed on first use."""

    __slots__ = ("y",)

    def __init__(self, y: int):
        super().__init__()
        self.y = y

    def __missing__(self, e: int) -> int:
        value = self[e] = pow(self.y, e, PRIME)
        return value


def _read_images(f: EndoMap, point: tuple, orbit: dict) -> list:
    """For each image e of f, (k, n) when e takes the value t^k * y_n at the
    point, else None."""
    p1, p2, p3, p4 = (_Powers(y) for y in point)
    reads = []
    for e in f.images:
        acc: dict = {}  # power of t -> value of its coefficient at the point
        for (i, j, k, l, s), c in e.terms():
            acc[s] = acc.get(s, 0) + c * p1[i] * p2[j] * p3[k] * p4[l]
        slots = [s for s, v in acc.items() if v % PRIME]
        n = orbit.get(acc[slots[0]] % PRIME) if len(slots) == 1 else None
        reads.append(None if n is None else (slots[0], n))
    return reads


def identify(f: EndoMap) -> GroupElement | None:
    """The group element whose map takes the same values as f at the point,
    or None when there is none; f is then no group element.  Each image is
    read as t^e * y_n at the point (``_read_images``) and ``_element`` reads
    the element from those pairs, as ``from_word`` does from a word's fold.

    A match is evidence, not proof: callers confirm it with one exact
    ``equal``.
    """
    st, point, orbit = _reading(f.params)
    reads = _read_images(f, point, orbit)
    if None in reads:
        return None
    return _element(st, [e for e, _ in reads], [n for _, n in reads])


# -- factor words ----------------------------------------------------------

_LETTERS = (("s2",), ("s3",))
#: The alternating words of at most five letters, shortest first, those that
#: start with s2 before those with s3.
_DIHEDRAL = ((),) + tuple(
    (pair * 3)[:n] for pair in (_LETTERS, _LETTERS[::-1]) for n in range(1, 6)
)
#: (k, s) with r^k s2^s the element of each word in _DIHEDRAL:
#: (s2 s3)^q s2^e is r^q s2^e, and (s3 s2)^q s3^e is r^-(q + e) s2^e, as
#: s3 s2 = r^-1 and s3 = r^-1 s2.
_DIHEDRAL_PARTS = tuple(
    (-(q + e), e) if word[:1] == (("s3",),) else (q, e)
    for word in _DIHEDRAL
    for q, e in [divmod(len(word), 2)]
)


def _dihedral_index(x: GroupElement) -> int | None:
    """The index in _DIHEDRAL of the first word with the dihedral part of x,
    or None when there is none.  In a finite group k is taken modulo the
    order of r."""
    order = x.structure.r_order
    parts = [(k % order, s) for k, s in _DIHEDRAL_PARTS] if order else _DIHEDRAL_PARTS
    part = (x.r_exp, x.s)
    return parts.index(part) if part in parts else None


def _residue_word(x: GroupElement) -> list:
    """The first word d m(i, j) h^e of x in the order (d, i, j, e): for each
    e, d m(i, j) is y = x h^e (one fold), so d is the first word with the
    dihedral part of y and (i, j) is its scaling.  At (1, 1), where h is
    r^2 s2, both e give a word, and h comes before s2 s3 s2 s3 s2."""
    st = x.structure
    best = None
    for e in (0, 1) if st.params.a == st.params.b else (0,):
        y = from_word(st, normal_word(x) + [("h",)]) if e else x
        index = None if y.h else _dihedral_index(y)
        if index is not None and (best is None or (index, y.mu, e) < best):
            best = (index, y.mu, e)
    index, (i, j), e = best
    return list(_DIHEDRAL[index]) + ([("m", i, j)] if i or j else []) + [("h",)] * e


def factor_word(x: GroupElement, steps: int) -> list | None:
    """The word factorize gives for x, or None when it needs more than
    ``steps`` letters in front of its residue word.

    While the dihedral part of x is none of the alternating words of at most
    five letters, its leftmost letter comes off, as the degree descent takes
    it off the map; the residue word of the rest is read from its normal
    form (``_residue_word``).  In a finite group every element has one.
    """
    prefix: list = []
    while _dihedral_index(x) is None:
        if len(prefix) == steps:
            return None
        # r^k s2^s starts with s2 when k > 0, or k = 0 and s = 1
        letter = _LETTERS[0] if x.r_exp > 0 or (x.r_exp == 0 and x.s) else _LETTERS[1]
        prefix.append(letter)
        x = from_word(x.structure, [letter] + normal_word(x))
    return prefix + _residue_word(x)


def enumerate_finite(structure: GroupStructure):
    """All group elements for a finite case, as a new list.

    The surface maps of the elements (``to_endo``) are also compared to
    confirm the enumeration has no collisions: maps are grouped by hash, and
    only maps within one group are compared.  That check runs once per
    structure and term budget.
    """
    if structure.r_order is None:
        raise NotFiniteType(f"group for {structure.params} is infinite")
    return list(_finite_elements(structure))


@cache_per_budget(16)
def _finite_elements(structure: GroupStructure) -> tuple:
    p = structure.params
    elements = tuple(
        GroupElement(structure, k, s, (i, j))
        for k in range(structure.r_order)
        for s in (0, 1)
        for i in range(p.a)
        for j in range(p.b)
    )
    # equal maps hash alike, also over different rings
    buckets: dict = {}
    for f in map(to_endo, elements):
        bucket = buckets.setdefault(hash(f), [])
        if any(equal(f, g) for g in bucket):
            raise EngineError("distinct normal forms evaluate to the same map")
        bucket.append(f)
    return elements
