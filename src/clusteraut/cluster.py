"""Cluster variables of the rank-2 recurrence.

The family (y_n) is defined by y1, y2 and

    y_{n-1} * y_{n+1} = y_n^a + 1   (n even)
    y_{n-1} * y_{n+1} = y_n^b + 1   (n odd)

computed here as Laurent polynomials in y1, y2: every division in the
recurrence is performed exactly and a failure (which the Laurent phenomenon
rules out) would surface as LaurentViolation.  The family is periodic exactly
when a*b <= 3, with period 5, 6 or 8.

The same y_n are elements of the surface algebra of ``surface``:
``surface_var`` gives each as its normal form in y1, y2, y3, y4.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import count
from typing import Iterator

from . import _kernel as K
from .budget import cache_per_budget, current_max_terms
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

    def __init__(self, seeds: tuple):
        self.values = list(seeds)
        self.terms = sum(v.num_terms for v in seeds)
        self.exps: dict = {}  # exponent tuples of the cached values, interned


class _WalkCache:
    """Prefixes of walks keyed by (params, direction, term budget), or by
    (params, "surface", direction, term budget) for the surface variables,
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


def _surface_step(params: Params, window: list, n: int) -> LaurentPoly:
    """y_n in normal form from the four values before it in its walk: up,
    ``y5_expression`` of y_(n-4)..y_(n-1) at (a, b) for odd n, (b, a) for
    even; down, ``y0_expression`` of y_(n+1)..y_(n+4) at (a, b) for even n,
    (b, a) for odd.  One reducing substitution and one normal form."""
    a, b = params.a, params.b
    if n > 4:
        expr = y5_expression(params if n % 2 else Params(b, a))
    else:
        expr = y0_expression(Params(b, a) if n % 2 else params)
        window = window[::-1]
    cap = current_max_terms()
    images = tuple(v.term_map() for v in window)
    sub = K.substitute_terms(expr.term_map(), images, cap, None, (a, b), 0)
    return LaurentPoly(ZZ, K.normal_form_terms(sub, a, b, 0, cap))


def surface_var(params: Params, n: int) -> LaurentPoly:
    """The cluster variable y_n in the surface algebra, in normal form over
    Z, from the table of walks up from y1..y4 and down from y4..y1.

    The walks live in the walk cache under (params, "surface", direction,
    term budget), and a lookup computes only the steps it lacks.  In the
    finite types n is first moved by whole periods p = ``expected_period``
    into the p indices nearest the seeds, 3 - p//2 .. 2 + p - p//2.
    """
    p = expected_period(params)
    if p is not None:
        n = (n - 3 + p // 2) % p + 3 - p // 2
    if 1 <= n <= 4:
        return (Y1, Y2, Y3, Y4)[n - 1]
    up = n > 4
    key = (params, "surface", 1 if up else -1, current_max_terms())
    values = _walks.prefix(key, (Y1, Y2, Y3, Y4) if up else (Y4, Y3, Y2, Y1))
    index, done = (n - 1 if up else 4 - n), len(values)
    if index < done:
        return values[index]
    window = values[done - 4 : done]
    for i in range(done, index + 1):
        step = _surface_step(params, window, i + 1 if up else 4 - i)
        window = window[1:] + [_walks.extend(key, i, step)]
    return window[-1]


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
