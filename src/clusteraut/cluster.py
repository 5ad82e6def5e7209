"""Cluster variables of the rank-2 recurrence.

The family (y_n) is defined by y1, y2 and

    y_{n-1} * y_{n+1} = y_n^a + 1   (n even)
    y_{n-1} * y_{n+1} = y_n^b + 1   (n odd)

computed here as Laurent polynomials in y1, y2: every division in the
recurrence is performed exactly and a failure (which the Laurent phenomenon
rules out) would surface as LaurentViolation.  The family is periodic exactly
when a*b <= 3, with period 5, 6 or 8.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .budget import current_max_terms
from .errors import BudgetExceeded, LaurentViolation, NotDivisible
from .poly import LaurentPoly, Params, Y1, Y2, exact_div, parity_exponent
from .surface import SurfaceElement, normal_form


@dataclass(frozen=True)
class ClusterVar:
    """The n-th cluster variable as a Laurent polynomial in y1, y2."""

    params: Params
    n: int
    value: LaurentPoly

    @property
    def positive(self) -> bool:
        """Do all coefficients come out positive?  (Observed to hold; reported,
        not assumed, by the engine.)"""
        return all(c > 0 for _, c in self.value.terms())


def _step_up(params: Params, prev: LaurentPoly, cur: LaurentPoly, middle: int):
    """From (y_{m-1}, y_m) produce y_{m+1} with m = middle."""
    c = parity_exponent(params, middle)
    one = LaurentPoly.one(cur.ring)
    try:
        return exact_div(cur ** c + one, prev, params)
    except NotDivisible as exc:
        raise LaurentViolation(f"y_{middle + 1} is not Laurent: {exc}") from exc


#: Bound on the walk cache: the number of terms held, summed over every cached
#: value of every walk.  It holds the working set of a process that walks a
#: few dozen (a, b, direction) pairs to moderate n (13.5k terms for the
#: cluster-walk benchmark's 20 walks).
WALK_CACHE_TERMS = 1 << 15


class _Prefix:
    """The first values of one walk, computed under one term budget."""

    __slots__ = ("values", "terms", "exps")

    def __init__(self, seeds: tuple):
        self.values = list(seeds)
        self.terms = sum(v.num_terms for v in seeds)
        self.exps: dict = {}  # exponent tuples of the cached values, interned


class _WalkCache:
    """Prefixes of walks keyed by (params, direction, term budget), least
    recently used first, holding at most WALK_CACHE_TERMS terms in total.

    The budget is part of the key because a step that fits one budget can
    raise BudgetExceeded under a smaller one; a prefix holds only steps that
    succeeded under its own budget, so a cached walk raises exactly where a
    cold one does.  The lock makes each lookup and append atomic, so walks in
    several threads can share the cache; steps are computed outside it.
    """

    def __init__(self):
        self.walks: OrderedDict = OrderedDict()
        self.terms = 0
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.walks.clear()
            self.terms = 0

    def _make_room(self, size: int) -> None:
        while self.walks and self.terms + size > WALK_CACHE_TERMS:
            _, old = self.walks.popitem(last=False)
            self.terms -= old.terms

    def prefix(self, key, seeds: tuple) -> list:
        """The cached values of the walk ``key``, starting one if there is none."""
        with self.lock:
            entry = self.walks.get(key)
            if entry is None:
                entry = _Prefix(seeds)
                self._make_room(entry.terms)
                self.walks[key] = entry
                self.terms += entry.terms
            else:
                self.walks.move_to_end(key)
            return entry.values

    def extend(self, key, index: int, value: LaurentPoly) -> LaurentPoly:
        """Append ``value`` as entry ``index`` of walk ``key`` if it continues
        the cached prefix and fits the bound; return the value to hand out."""
        size = value.num_terms
        with self.lock:
            entry = self.walks.get(key)
            if (
                entry is None
                or len(entry.values) != index
                or entry.terms + size > WALK_CACHE_TERMS
            ):
                return value
            self.walks.move_to_end(key)
            self._make_room(size)  # evicts only other walks: this one fits alone
            intern = entry.exps.setdefault
            value = LaurentPoly(
                value.ring, {intern(e, e): c for e, c in value.terms()}
            )
            entry.values.append(value)
            entry.terms += size
            self.terms += size
            return value


_walks = _WalkCache()


def clear_walk_cache() -> None:
    """Forget every cached walk."""
    _walks.clear()


def cluster_walk(params: Params, direction: int = 1) -> Iterator[ClusterVar]:
    """Yield y1, y2, y3, ... (direction=+1) or y2, y1, y0, ... (direction=-1).

    Values come from the walk cache where it has them; the others are
    computed from the two before and appended to it.  Each step reads the
    term budget in effect when it runs.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    seeds = (Y1, Y2) if direction == 1 else (Y2, Y1)
    n = 1 if direction == 1 else 2
    prev = cur = None
    for index in count():
        key = (params, direction, current_max_terms())
        values = _walks.prefix(key, seeds)
        if index < len(values):
            value = values[index]
        else:
            value = _walks.extend(
                key, index, _step_up(params, prev, cur, n - direction)
            )
        yield ClusterVar(params, n, value)
        prev, cur = cur, value
        n += direction


def cluster_var(params: Params, n: int) -> ClusterVar:
    """The cluster variable y_n, for any integer n.

    Walks from the seed (y1, y2) through the walk cache, computing only the
    steps the cache lacks; a cold walk's cost grows with |n| and the active
    term budget applies to every step.
    """
    walk = cluster_walk(params, 1 if n >= 1 else -1)
    for var in walk:
        if var.n == n:
            return var


def check_relation(params: Params, n: int) -> bool:
    """Does y_{n-1} * y_{n+1} == y_n^c + 1 hold for the computed variables?"""
    lo = cluster_var(params, n - 1).value
    mid = cluster_var(params, n).value
    hi = cluster_var(params, n + 1).value
    c = parity_exponent(params, n)
    return lo * hi == mid ** c + LaurentPoly.one(mid.ring)


def is_finite_type(params: Params) -> bool:
    """Finitely many cluster variables iff a*b <= 3."""
    return params.product <= 3


def expected_period(params: Params) -> int | None:
    """Period h+2 from the finite-type classification: 5, 6, 8 for ab = 1, 2, 3."""
    return {1: 5, 2: 6, 3: 8}.get(params.product)


def detect_period(params: Params, n_max: int = 50) -> int | None:
    """Smallest p <= n_max with y_{n+p} = y_n, found by direct comparison.

    Returns None when no period shows up within n_max steps or within the
    term budget (periodicity cannot be ruled out by search alone).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    seen: list[LaurentPoly] = []
    try:
        for var in cluster_walk(params, 1):
            seen.append(var.value)
            if len(seen) > n_max + 2:
                break
    except BudgetExceeded:
        return None
    for p in range(1, n_max + 1):
        if p + 1 < len(seen) and seen[p] == seen[0] and seen[p + 1] == seen[1]:
            return p
    return None


# -- identities and cross-checks ------------------------------------------


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


def verify_identity_y0(params: Params) -> bool:
    """Check y2 * y0 == y1^b + 1 modulo the relations."""
    y1, y2 = Y1, Y2
    claim = y2 * y0_expression(params) - y1 ** params.b - LaurentPoly.one()
    return normal_form(params, claim).is_zero()


def verify_identity_y5(params: Params, paper_literal: bool = False) -> bool:
    """Check y3 * y5 == y4^a + 1 modulo the relations."""
    y3, y4 = LaurentPoly.variable(3), LaurentPoly.variable(4)
    claim = (
        y3 * y5_expression(params, paper_literal)
        - y4 ** params.a
        - LaurentPoly.one()
    )
    return normal_form(params, claim).is_zero()


def verify_identity_y0_y5(params: Params, paper_literal: bool = False) -> bool:
    """Both boundary identities at once (the y0 one has no variant)."""
    return verify_identity_y0(params) and verify_identity_y5(params, paper_literal)


def laurent_images(params: Params) -> tuple[LaurentPoly, ...]:
    """(y1, y2, y3, y4) as Laurent polynomials in y1, y2."""
    a, b = params.a, params.b
    one = LaurentPoly.one()
    l3 = exact_div(Y2 ** a + one, Y1, params)
    l4 = exact_div(l3 ** b + one, Y2, params)
    return (Y1, Y2, l3, l4)


def laurent_expand(params: Params, x) -> LaurentPoly:
    """Image of a 4-variable element in the Laurent ring of the seed cluster.

    This is the localization embedding, so it is faithful: two elements are
    equal modulo the relations iff their expansions coincide.  Used as an
    independent oracle for normal-form computations.
    """
    from .poly import substitute

    p = x.poly if isinstance(x, SurfaceElement) else x
    return substitute(p, laurent_images(params))
