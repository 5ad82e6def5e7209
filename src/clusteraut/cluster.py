"""Cluster variables of the rank-2 recurrence.

The family (y_n) is defined by y1, y2 and

    y_{n-1} * y_{n+1} = y_n^a + 1   (n even)
    y_{n-1} * y_{n+1} = y_n^b + 1   (n odd)

computed here as Laurent polynomials in y1, y2: every division in the
recurrence is performed exactly and a failure (which the Laurent phenomenon
rules out) would surface as LaurentViolation.  The family is periodic exactly
when a*b <= 3, with period 5, 6 or 8.

The same y_n are elements of the surface algebra of ``surface``:
``surface_var`` gives each as its normal form in y1, y2, y3, y4, read from
the walk at (b, a), which is the Laurent expansion in the seed (y2, y3).
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import count
from typing import Iterator

from . import _kernel as K
from .budget import WORK_FACTOR, cache_per_budget, current_max_terms
from .errors import BudgetExceeded, LaurentViolation, NotDivisible
from .poly import (
    LaurentPoly,
    Params,
    Y1,
    Y2,
    Y3,
    Y4,
    exact_div,
    parity_exponent,
    substitute,
)
from .record import Record
from .rings import ZZ
from .surface import normal_form, y0_expression, y5_expression


class ClusterVar(Record):
    """The n-th cluster variable as a Laurent polynomial in y1, y2."""

    __slots__ = ("params", "n", "value")

    def __init__(self, params: Params, n: int, value: LaurentPoly):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)

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
#: cluster-walk benchmark's 20 walks) and the surface variables of a few pairs.
WALK_CACHE_TERMS = 1 << 15


class _Prefix:
    """The first values of one walk, computed under one term budget."""

    __slots__ = ("values", "terms", "exps")

    def __init__(self):
        self.values: list = []
        self.terms = 0
        self.exps: dict = {}  # exponent tuples of the cached values, interned


class _WalkCache:
    """Prefixes of walks keyed by (params, direction, term budget), and the
    surface variables, each alone under (params, "surface", n, term budget),
    least recently used first, holding at most WALK_CACHE_TERMS terms in
    total.

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

    def prefix(self, key) -> list:
        """The cached values of the walk ``key``."""
        with self.lock:
            if key not in self.walks:
                return []
            self.walks.move_to_end(key)
            return self.walks[key].values

    def extend(self, key, index: int, value: LaurentPoly) -> LaurentPoly:
        """Append ``value`` as entry ``index`` of walk ``key`` (0 starts one) if
        it continues the cached prefix and fits the bound; return the value."""
        size = value.num_terms
        with self.lock:
            entry = self.walks.get(key) or (_Prefix() if index == 0 else None)
            if (
                entry is None
                or len(entry.values) != index
                or entry.terms + size > WALK_CACHE_TERMS
            ):
                return value
            self.walks[key] = entry
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
        values = _walks.prefix(key)
        if index < len(values):
            value = values[index]
        else:
            step = seeds[index] if index < 2 else _step_up(params, prev, cur, n - direction)
            value = _walks.extend(key, index, step)
        yield ClusterVar(params, n, value)
        prev, cur = cur, value
        n += direction


def cluster_var(params: Params, n: int) -> ClusterVar:
    """The cluster variable y_n, for any integer n.

    Walks from the seed (y1, y2) through the walk cache, computing only the
    steps the cache lacks; a cold walk's cost grows with |n| and the active
    term budget applies to every step.  In the finite types the values have
    period p = ``expected_period`` (Fomin and Zelevinsky, "Cluster algebras
    II: Finite type classification", Invent. Math. 2003), and a walk repeats
    its steps exactly, dict order included, once its two seeds come back.
    So n is moved by whole periods into the window of indices just past one
    full period, [p + 2, 2p + 1] (or [2 - 2p, 1 - p] below the seed): the
    shorter walk still takes every step of a period and so refuses under a
    tight budget exactly where the long one would.
    """
    p = expected_period(params)
    target = n
    if p is not None and n > 2 * p + 1:
        target = n - (n - p - 2) // p * p
    elif p is not None and n < 2 - 2 * p:
        target = n + (1 - p - n) // p * p
    for var in cluster_walk(params, 1 if n >= 1 else -1):
        if var.n == target:
            return var if target == n else ClusterVar(params, n, var.value)


def _standard_terms(laurent, a: int, b: int, max_terms: int) -> dict:
    """The normal form of the element with the Laurent expansion in (y2, y3)
    given by the pairs ((u, v, 0, 0, 0), c), the terms c * y2^u y3^v.

    Its monomials are the standard monomials y2^u y3^v y4^g y1^d of the seed,
    g = max(-u, 0), d = max(-v, 0) (Berenstein, Fomin and Zelevinsky,
    "Cluster algebras III", Duke Math. J. 2005), that is y2^u y3^v (1 +
    y3^b)^g (1 + z)^d with z = y2^a.  So the rows of y3^v are peeled from the
    lowest, each divided by (1 + z)^d in each class of u mod a; C(g, j) times
    each quotient term, times (1 + z)^d, comes off row v + b*j.
    LaurentViolation if a row does not divide or a term passes the top row.
    """
    rows: dict = {}  # (v, u mod a) -> {u // a: coefficient}
    for (u, v, _, _, _), c in laurent:
        rows.setdefault((v, u % a), {})[u // a] = c
    top, out = max((v for v, _ in rows), default=0), {}
    work, work_cap = 0, max_terms * WORK_FACTOR
    while rows:
        v, r = min(rows)
        row, d = rows.pop((v, r)), max(-v, 0)
        power = K.binomial_row(d)  # (1 + z)^d
        lo = min(row, default=0)
        p = [row.get(k, 0) for k in range(lo, max(row, default=lo - 1) + 1)]
        for k in range(len(p) - d):
            c = p[k]
            if not c:
                continue
            p[k : k + d + 1] = [y - c * x for y, x in zip(p[k : k + d + 1], power)]
            u = r + a * (lo + k)
            g = max(-u, 0)
            if v + b * g > top:
                raise LaurentViolation(f"row y3^{v}: a term passes the top row")
            out[d, u + g, v + d, g, 0] = c
            work += (g + 1) * (d + 1)
            for j, w in enumerate(K.binomial_row(g)[1:], 1):
                target = rows.setdefault((v + b * j, r), {})
                for i, x in enumerate(power, lo + k):
                    x = target.pop(i, 0) - c * w * x
                    if x:
                        target[i] = x
        if any(p):
            raise LaurentViolation(f"row y3^{v} is not divisible by (1 + y2^{a})^{d}")
        if max_terms and (work > work_cap or len(out) + sum(map(len, rows.values())) > max_terms):
            raise BudgetExceeded("normal form budget exhausted")
    return out


def surface_var(params: Params, n: int) -> LaurentPoly:
    """The cluster variable y_n in the surface algebra, in normal form over
    Z: ``_standard_terms`` of the walk's y_(n-1) at (b, a), which is y_n in
    the seed (y2, y3), kept in the walk cache unless refused.  In the finite
    types n is first moved by whole periods p = ``expected_period`` into the
    p indices nearest the seeds, 3 - p//2 .. 2 + p - p//2.
    """
    p = expected_period(params)
    if p is not None:
        n = (n - 3 + p // 2) % p + 3 - p // 2
    if 1 <= n <= 4:
        return (Y1, Y2, Y3, Y4)[n - 1]
    key = (params, "surface", n, current_max_terms())
    cached = _walks.prefix(key)
    if cached:
        return cached[0]
    laurent = cluster_var(Params(params.b, params.a), n - 1).value
    terms = _standard_terms(laurent.terms(), params.a, params.b, key[3])
    return _walks.extend(key, 0, LaurentPoly(ZZ, terms))


def check_relation(params: Params, n: int) -> bool:
    """Does y_{n-1} * y_{n+1} == y_n^c + 1 hold for the computed variables?"""
    lo = cluster_var(params, n - 1).value
    mid = cluster_var(params, n).value
    hi = cluster_var(params, n + 1).value
    c = parity_exponent(params, n)
    return lo * hi == mid ** c + LaurentPoly.one(mid.ring)


def expected_period(params: Params) -> int | None:
    """Period h+2 from the finite-type classification: 5, 6, 8 for ab = 1, 2, 3."""
    return {1: 5, 2: 6, 3: 8}.get(params.product)


def detect_period(params: Params, n_max: int = 50) -> int | None:
    """Smallest p <= n_max with y_{n+p} = y_n, found by direct comparison.

    Returns None when no period shows up within n_max steps or within the
    term budget (periodicity cannot be ruled out by search alone).  The walk
    stops at the first period: after it the steps repeat, so none of them
    could exceed the budget.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    walk = cluster_walk(params, 1)
    first, second = next(walk).value, next(walk).value
    prev = second
    try:
        for p in range(1, n_max + 1):
            cur = next(walk).value  # y_(p + 2)
            if prev == first and cur == second:
                return p
            prev = cur
    except BudgetExceeded:
        return None
    return None


# -- identities and cross-checks ------------------------------------------


# Each check runs once per process and term budget.


@cache_per_budget(64)
def verify_identity_y0(params: Params) -> bool:
    """Check y2 * y0 == y1^b + 1 modulo the relations."""
    claim = Y2 * y0_expression(params) - Y1 ** params.b - LaurentPoly.one()
    return normal_form(params, claim).is_zero()


@cache_per_budget(64)
def verify_identity_y5(params: Params, paper_literal: bool = False) -> bool:
    """Check y3 * y5 == y4^a + 1 modulo the relations."""
    claim = Y3 * y5_expression(params, paper_literal) - Y4 ** params.a
    return normal_form(params, claim - LaurentPoly.one()).is_zero()


def verify_identity_y0_y5(params: Params) -> bool:
    """Both boundary identities at once."""
    return verify_identity_y0(params) and verify_identity_y5(params)


def laurent_images(params: Params) -> tuple[LaurentPoly, ...]:
    """(y1, y2, y3, y4) as Laurent polynomials in y1, y2."""
    a, b = params.a, params.b
    one = LaurentPoly.one()
    l3 = exact_div(Y2 ** a + one, Y1, params)
    l4 = exact_div(l3 ** b + one, Y2, params)
    return (Y1, Y2, l3, l4)


def laurent_expand(params: Params, p: LaurentPoly) -> LaurentPoly:
    """Image of a 4-variable element in the Laurent ring of the seed cluster.

    This is the localization embedding, so it is faithful: two elements are
    equal modulo the relations iff their expansions coincide.  Used as an
    independent oracle for normal-form computations.
    """
    return substitute(p, laurent_images(params))
