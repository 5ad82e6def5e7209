"""Abstract automorphism group with normal-form words.

Elements are written d * m * h with d = r^k * s2^s in the dihedral part
(r = s2 s3), m a diagonal scaling and h the coordinate reversal (only
when a = b >= 2).  The action of the dihedral part on the scaling lattice
is not assumed: it is derived once per parameter pair by conjugating the
basis scalings symbolically and matching the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    ConjugationNotScaling,
    EngineError,
    NotFiniteType,
    StructureMismatch,
    SwapRequiresEqualParams,
)
from .poly import Params
from .surface import (
    EndoMap,
    compose,
    equal,
    identity,
    rotation,
    scaling,
    sigma2,
    sigma3,
    swap,
)

# order of r = s2 s3 in the three finite cases, keyed by a*b
_FINITE_R_ORDER = {1: 5, 2: 3, 3: 4}


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


def _match_scaling(params: Params, f: EndoMap):
    """Find (i, j) with f == scaling(i, j), or None."""
    for i, j in product(range(params.a), range(params.b)):
        if equal(f, scaling(params, i, j)):
            return (i, j)
    return None


def _conjugation_table(params: Params, g: EndoMap, label: str):
    """2x2 matrix of the action m -> g o m o g on scaling indices.

    Columns are the images of the basis scalings (1,0) and (0,1); entry
    rows live in Z/a and Z/b respectively.
    """
    cols = []
    for basis in ((1, 0), (0, 1)):
        conj = compose(compose(g, scaling(params, *basis)), g)
        hit = _match_scaling(params, conj)
        if hit is None:
            raise ConjugationNotScaling(
                f"conjugate of scaling{basis} by {label} is not a scaling"
            )
        cols.append(hit)
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def derive_action_tables(params: Params) -> dict:
    """Conjugation action of s2, s3 (and h when a = b) on the scalings.

    Everything is computed by symbolic conjugation and matched against the
    scaling family; nothing about the action is hard-coded.
    """
    tables = {
        "s2": _conjugation_table(params, sigma2(params), "s2"),
        "s3": _conjugation_table(params, sigma3(params), "s3"),
        "h": None,
    }
    if params.a == params.b:
        h = swap(params)
        tables["h"] = _conjugation_table(params, h, "h")
        if not equal(compose(compose(h, sigma2(params)), h), sigma3(params)):
            raise ConjugationNotScaling(
                "h o s2 o h does not equal s3; conjugation model is unsound"
            )
        for i, j in product(range(params.a), range(params.b)):
            conj = compose(compose(h, scaling(params, i, j)), h)
            if not equal(conj, scaling(params, j, i)):
                raise ConjugationNotScaling(
                    f"h-conjugate of scaling({i},{j}) is not scaling({j},{i})"
                )
    return tables


@dataclass(frozen=True)
class GroupStructure:
    """Shape of the group for one parameter pair, with derived tables."""

    params: Params
    case: str
    dihedral_order: int | None  # None encodes the infinite dihedral group
    mu_order: int
    has_swap: bool
    s2_table: tuple
    s3_table: tuple
    h_table: tuple | None

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


@lru_cache(maxsize=64)
def structure_of(params: Params) -> GroupStructure:
    """Case descriptor for the parameter pair, with action tables filled in."""
    a, b = params.a, params.b
    tables = derive_action_tables(params)
    r_order = _FINITE_R_ORDER.get(a * b)
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


def _apply_table(table, mu, params: Params):
    (m00, m01), (m10, m11) = table
    i, j = mu
    return ((m00 * i + m01 * j) % params.a, (m10 * i + m11 * j) % params.b)


@dataclass(frozen=True)
class GroupElement:
    """Normal form r^r_exp * s2^s * scaling(mu) * h^h."""

    structure: GroupStructure
    r_exp: int = 0
    s: int = 0
    mu: tuple = (0, 0)
    h: int = 0

    def __post_init__(self):
        st = self.structure
        p = st.params
        k = self.r_exp
        if st.r_order is not None:
            k %= st.r_order
        object.__setattr__(self, "r_exp", k)
        object.__setattr__(self, "s", self.s & 1)
        object.__setattr__(self, "mu", (self.mu[0] % p.a, self.mu[1] % p.b))
        hflag = self.h & 1
        if hflag and not st.has_swap:
            raise SwapRequiresEqualParams(
                f"no reversal factor in the group for {p}"
            )
        object.__setattr__(self, "h", hflag)

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


# -- right multiplication by generators ------------------------------------


def _r_conj_once(structure: GroupStructure, mu, inverse: bool):
    p = structure.params
    if inverse:
        # r * m * r^-1: pass through s3 first, then s2
        return _apply_table(
            structure.s2_table, _apply_table(structure.s3_table, mu, p), p
        )
    # r^-1 * m * r: pass through s2 first, then s3
    return _apply_table(
        structure.s3_table, _apply_table(structure.s2_table, mu, p), p
    )


def _r_conj(structure: GroupStructure, t: int, mu):
    """Index pair of r^-t * scaling(mu) * r^t."""
    if mu == (0, 0) or t == 0:
        return mu
    inverse = t < 0
    # the conjugation is an automorphism of a finite group, so it cycles;
    # find the small period instead of iterating |t| times
    seen = [mu]
    cur = mu
    for _ in range(abs(t)):
        cur = _r_conj_once(structure, cur, inverse)
        if cur == mu:
            return seen[abs(t) % len(seen)]
        seen.append(cur)
        if len(seen) > 64:
            raise EngineError("conjugation action failed to cycle")
    return cur


def _append_r_power(e: GroupElement, t: int) -> GroupElement:
    """e * r^t in normal form."""
    if t == 0:
        return e
    # passing r^t through the reversal flips its exponent before it meets mu
    t_inner = -t if e.h else t
    sign = -1 if (e.s + e.h) & 1 else 1
    return GroupElement(
        e.structure,
        e.r_exp + sign * t,
        e.s,
        _r_conj(e.structure, t_inner, e.mu),
        e.h,
    )


def _append_s2(e: GroupElement) -> GroupElement:
    """e * s2 in normal form."""
    st = e.structure
    p = st.params
    if e.h == 0:
        return GroupElement(
            st, e.r_exp, e.s ^ 1, _apply_table(st.s2_table, e.mu, p), 0
        )
    # m h s2 = m s3 h = s2 r m' h with m' the s3-conjugate of m
    sign = -1 if e.s == 0 else 1
    return GroupElement(
        st, e.r_exp + sign, e.s ^ 1, _apply_table(st.s3_table, e.mu, p), 1
    )


def _append_s3(e: GroupElement) -> GroupElement:
    """e * s3 = (e * s2) * r."""
    return _append_r_power(_append_s2(e), 1)


def _append_scaling(e: GroupElement, i: int, j: int) -> GroupElement:
    st = e.structure
    p = st.params
    if e.h:
        i, j = _apply_table(st.h_table, (i, j), p)
    return GroupElement(st, e.r_exp, e.s, (e.mu[0] + i, e.mu[1] + j), e.h)


def _append_h(e: GroupElement) -> GroupElement:
    st = e.structure
    if st.params == Params(1, 1):
        # the reversal exists but coincides with r^2 s2 (order-10 dihedral)
        return _append_s2(_append_r_power(e, 2))
    if not st.has_swap:
        raise SwapRequiresEqualParams(
            f"no reversal generator for {st.params}"
        )
    return GroupElement(st, e.r_exp, e.s, e.mu, e.h ^ 1)


def gmul(x: GroupElement, y: GroupElement) -> GroupElement:
    """Product x * y in normal form."""
    if x.structure.params != y.structure.params:
        raise StructureMismatch(
            f"elements for {x.structure.params} and {y.structure.params}"
        )
    e = _append_r_power(x, y.r_exp)
    if y.s:
        e = _append_s2(e)
    if y.mu != (0, 0):
        e = _append_scaling(e, *y.mu)
    if y.h:
        e = _append_h(e)
    return e


def ginv(x: GroupElement) -> GroupElement:
    """Inverse element: gmul(x, ginv(x)) is the identity."""
    e = identity_element(x.structure)
    if x.h:
        e = _append_h(e)
    if x.mu != (0, 0):
        e = _append_scaling(e, -x.mu[0], -x.mu[1])
    if x.s:
        e = _append_s2(e)
    return _append_r_power(e, -x.r_exp)


def from_word(structure: GroupStructure, word) -> GroupElement:
    """Fold a word of generator atoms, leftmost acting last.

    Atoms are ('s2',), ('s3',), ('m', i, j), ('h',), ('r', k) and ('sp', p),
    matching the word grammar used by the command line tools.
    """
    e = identity_element(structure)
    for atom in word:
        kind = atom[0]
        if kind == "s2":
            e = _append_s2(e)
        elif kind == "s3":
            e = _append_s3(e)
        elif kind == "m":
            e = _append_scaling(e, atom[1], atom[2])
        elif kind == "h":
            e = _append_h(e)
        elif kind == "r":
            e = _append_r_power(e, atom[1])
        elif kind == "sp":
            # sigma_p = (s3 s2)^(p-2) s2 = r^(2-p) s2
            e = _append_s2(_append_r_power(e, 2 - atom[1]))
        else:
            raise ValueError(f"unknown generator atom {atom!r}")
    return e


# -- evaluation onto surface maps ------------------------------------------

def to_endo(x: GroupElement) -> EndoMap:
    """Evaluate the normal form as a surface map."""
    params = x.structure.params
    f = identity(params)
    if x.h:
        f = swap(params)
    if x.mu != (0, 0):
        f = compose(scaling(params, *x.mu), f)
    if x.s:
        f = compose(sigma2(params), f)
    if x.r_exp:
        f = compose(rotation(params, x.r_exp), f)
    return f


def enumerate_finite(structure: GroupStructure):
    """All group elements for a finite case, as a list.

    Every pair is also compared as surface maps through to_endo to confirm
    the enumeration has no collisions.
    """
    if structure.r_order is None:
        raise NotFiniteType(f"group for {structure.params} is infinite")
    p = structure.params
    elements = [
        GroupElement(structure, k, s, (i, j))
        for k in range(structure.r_order)
        for s in (0, 1)
        for i in range(p.a)
        for j in range(p.b)
    ]
    maps = [to_endo(e) for e in elements]
    for n, f in enumerate(maps):
        for g in maps[n + 1 :]:
            if equal(f, g):
                raise EngineError("distinct normal forms evaluate to the same map")
    return elements
