"""Cluster variables of the rank-2 recurrence.

The family (y_n) is defined by y1, y2 and

    y_{n-1} * y_{n+1} = y_n^a + 1   (n even)
    y_{n-1} * y_{n+1} = y_n^b + 1   (n odd)

computed here as Laurent polynomials in y1, y2: every division in the
recurrence is performed exactly and a failure (which the Laurent phenomenon
rules out) would surface as LaurentViolation.  The family is periodic exactly
when a*b <= 3, with period 5, 6 or 8.

Every y_n comes from one walk upward from the seed: y_n for n <= 0 is
y_(3-n) at (b, a) with y1 and y2 swapped (proof in ``cluster_var``).  The
walks, and every value derived from them, live in one cache keyed by term
budget and bounded by ``WALK_CACHE_TERMS`` terms.

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


#: Bound on the walk cache: the number of terms held, summed over every
#: entry.  It holds the working set of a process that walks a few dozen pairs
#: to moderate n, the surface variables of a few pairs and the replies of
#: repeated ``cluster`` requests: all 6,060 requests of the cluster-walk
#: benchmark (seed 1) hold 10 walks with 6,919 terms and 444 replies whose
#: values have 12,930 terms.
WALK_CACHE_TERMS = 1 << 15


class _Prefix:
    """The first values y1, y2, ... of one walk, computed under one budget,
    and the first step that budget refused, if one was reached."""

    __slots__ = ("values", "exps", "refused")

    def __init__(self):
        self.values: list = []
        self.exps: dict = {}  # exponent tuples of the cached values, interned
        self.refused = None  # (index, BudgetExceeded text) of the refused step


class _WalkCache:
    """Values derived from the walks, least recently used first, holding at
    most WALK_CACHE_TERMS terms in total.  Every entry is [value, size], size
    its term count:

    - the prefix of the walk at one pair, under (params, term budget), with
      the index and text of its first refused step, which counts one term;
    - a surface variable, under (params, "surface", n, term budget), or the
      text of its refusal, sized one term;
    - the stdout of a ``cluster`` request that exited 0, which ``cli`` holds
      under ("reply", params, n, term budget, format), sized by its y_n.

    The budget is part of every key because a step that fits one budget can
    raise BudgetExceeded under a smaller one.  A value or refusal is held
    under the budget that produced it, so a cached answer or refusal is the
    one a cold walk gives.  The lock makes each lookup and insert atomic, so
    threads can share the cache; values are computed outside it.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()  # key -> [value, size]
        self.terms = 0
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.terms = 0

    def _make_room(self, size: int) -> None:
        while self.entries and self.terms + size > WALK_CACHE_TERMS:
            _, (_, old) = self.entries.popitem(last=False)
            self.terms -= old

    def get(self, key):
        """The value held under ``key``, now the most recently used, or None."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, size: int) -> None:
        """Hold ``value`` under ``key``, evicting the least recently used
        entries to make room, unless the key is held or the value alone
        passes the bound."""
        with self.lock:
            if key in self.entries or size > WALK_CACHE_TERMS:
                return
            self._make_room(size)
            self.entries[key] = [value, size]
            self.terms += size

    def extend(self, key, index: int, value: LaurentPoly) -> LaurentPoly:
        """Append ``value`` as entry ``index`` of walk ``key`` (0 starts one) if
        it continues the cached prefix and fits the bound; return the value."""
        size = value.num_terms
        with self.lock:
            entry = self.entries.get(key) or ([_Prefix(), 0] if index == 0 else None)
            if (
                entry is None
                or len(entry[0].values) != index
                or entry[1] + size > WALK_CACHE_TERMS
            ):
                return value
            self.entries[key] = entry
            self.entries.move_to_end(key)
            self._make_room(size)  # evicts only other entries: this one fits alone
            prefix = entry[0]
            intern = prefix.exps.setdefault
            value = LaurentPoly(
                value.ring, {intern(e, e): c for e, c in value.terms()}
            )
            prefix.values.append(value)
            entry[1] += size
            self.terms += size
            return value

    def refuse(self, key, index: int, text: str) -> None:
        """Note that step ``index`` of walk ``key`` raised BudgetExceeded
        with ``text``, at one term, unless a refusal is noted already."""
        with self.lock:
            entry = self.entries.get(key) or [_Prefix(), 0]
            if entry[0].refused is not None or entry[1] + 1 > WALK_CACHE_TERMS:
                return
            self.entries[key] = entry
            self.entries.move_to_end(key)
            self._make_room(1)  # evicts only other entries: this one fits alone
            entry[0].refused = (index, text)
            entry[1] += 1
            self.terms += 1


_walks = _WalkCache()


def clear_walk_cache() -> None:
    """Forget every cached walk, surface variable and ``cluster`` reply."""
    _walks.clear()


def cluster_walk(params: Params) -> Iterator[ClusterVar]:
    """Yield y1, y2, y3, ...

    Values come from the walk cache where it has them; the others are
    computed from the two before and appended to it.  Each step reads the
    term budget in effect when it runs, and a step that budget refused
    before raises the same BudgetExceeded at once.
    """
    prev = cur = None
    for n in count(1):
        key = (params, current_max_terms())
        prefix = _walks.get(key)
        if prefix is not None and n <= len(prefix.values):
            value = prefix.values[n - 1]
        elif prefix is not None and prefix.refused and prefix.refused[0] == n - 1:
            raise BudgetExceeded(prefix.refused[1])
        else:
            try:
                step = (Y1, Y2)[n - 1] if n <= 2 else _step_up(params, prev, cur, n - 1)
            except BudgetExceeded as exc:
                _walks.refuse(key, n - 1, str(exc))
                raise
            value = _walks.extend(key, n - 1, step)
        yield ClusterVar(params, n, value)
        prev, cur = cur, value


def _walk_value(params: Params, n: int) -> LaurentPoly:
    """y_n for n >= 1, read from the walk; in the finite types n is first
    moved by whole periods into [p + 2, 2p + 1] (see ``cluster_var``)."""
    p = expected_period(params)
    if p is not None and n > 2 * p + 1:
        n -= (n - p - 2) // p * p
    for var in cluster_walk(params):
        if var.n == n:
            return var.value


def _size_floor(params: Params, n: int, cap: int) -> int:
    """A lower bound on the term count of the Laurent y_n, n >= 3, ab >= 4:
    d1 + d2 + 1, with (d1, d2) the denominator vector of y_n, or the same
    at the first index m of n's parity where it passes ``cap``.

    The vectors follow d(2) = (0, -1), d(3) = (1, 0) and d(m + 1) = c_m *
    d(m) - d(m - 1), c_m = a for even m, b for odd m (Fomin and Zelevinsky,
    "Cluster algebras IV: Coefficients", Compositio Math. 2007).  On the two
    axes of Lee, Li and Zelevinsky's greedy expansion of y_n ("Greedy
    elements in rank 2 cluster algebras", Selecta Math. 2014) the
    coefficients are C(d2, p) and C(d1, q), so y_n has at least d1 + d2 + 1
    terms.

    Stopping early is sound because s(m) = d1 + d2 does not decrease within
    each parity class.  Adding the one-step rule at m - 1, m and m + 1 gives
    d(m + 2) = (ab - 2) * d(m) - d(m - 2) for m >= 4, so s(m + 2) - s(m) =
    (ab - 4) * s(m) + s(m) - s(m - 2), which is >= 0 by induction from
    s(2) = -1 <= s(4) = b + 1 and s(3) = 1 <= s(5) = ab + a - 1, with s(m) >= 0
    for m >= 3.  Between neighbours s can fall: 7, 5 at m = 5, 6 at (4, 1).

    At ab = 4 the same sum reads s(m + 2) - s(m) = s(m) - s(m - 2), so s is
    arithmetic within each parity class and grows only linearly; there the
    first index past ``cap`` is computed from the class's first two values
    instead of walked to, which would take time linear in ``cap``.
    """
    a, b = params.a, params.b
    first = 4 - n % 2  # the first index of n's parity at or past 3
    p1, p2, d1, d2 = 0, -1, 1, 0  # d(2), d(3)
    for m in range(3, n + 1):  # (d1, d2) = d(m)
        if (n - m) % 2 == 0:
            if m == n or d1 + d2 >= cap:
                return d1 + d2 + 1
            if m == first:
                s0 = d1 + d2
            elif a * b == 4:  # m = first + 2, both below cap and before n
                step = d1 + d2 - s0
                k = min(-((s0 - cap) // step), (n - first) // 2)
                return s0 + k * step + 1
        c = a if m % 2 == 0 else b
        p1, p2, d1, d2 = d1, d2, c * d1 - p1, c * d2 - p2


def refuse_by_size(params: Params, n: int) -> None:
    """Raise BudgetExceeded if ``_size_floor`` of y_n passes the term
    budget, so that ``cluster_var`` would refuse it, before any walk; for
    n <= 0 that is the floor of index 3 - n at (b, a).  A y_n the walk cache
    holds is within the budget and needs no check.  ``cluster_var`` itself
    does not call this: its refusals keep the text of the refused step."""
    pair, m = (params, n) if n >= 1 else (Params(params.b, params.a), 3 - n)
    if pair.product < 4 or m < 3:
        return
    budget = current_max_terms()
    prefix = _walks.get((pair, budget))
    if prefix is not None and len(prefix.values) >= m:
        return
    floor = _size_floor(pair, m, budget)
    if floor > budget:
        raise BudgetExceeded(f"y{n} has at least {floor} terms, budget {budget}")


def cluster_var(params: Params, n: int) -> ClusterVar:
    """The cluster variable y_n, for any integer n.

    Every y_n comes from a walk upward from the seed (y1, y2), through the
    walk cache, computing only the steps the cache lacks; a cold walk's cost
    grows with |n| and the active term budget applies to every step.

    For n <= 0, y_n is y_(3-n) of the walk at (b, a) with y1 and y2 swapped
    (Lee, Li and Zelevinsky, "Greedy elements in rank 2 cluster algebras",
    Selecta Math. 2014).  Proof: put z_m = y_(3-m) with y1 and y2 swapped.
    Then z_(m-1) * z_(m+1) = z_m^c + 1, with c = a when 3 - m is even and b
    when it is odd, which is the rule of (b, a) at m; and z_1 = y1, z_2 = y2
    (y2 and y1 swapped).  The dual walk takes the steps of a downward walk,
    renamed, so it refuses under a budget exactly where that walk would.

    In the finite types the values have period p = ``expected_period``
    (Fomin and Zelevinsky, "Cluster algebras II: Finite type
    classification", Invent. Math. 2003), and a walk repeats its steps
    exactly, dict order included, once its two seeds come back.  So an index
    past 2p + 1 is moved by whole periods into [p + 2, 2p + 1], just past one
    full period: the shorter walk still takes every step of a period and so
    refuses under a tight budget exactly where the long one would.  For
    n <= 0 this applies to the index 3 - n of the dual walk.
    """
    if n >= 1:
        return ClusterVar(params, n, _walk_value(params, n))
    dual = _walk_value(Params(params.b, params.a), 3 - n)
    swapped = {(e2, e1, e3, e4, k): c for (e1, e2, e3, e4, k), c in dual.terms()}
    return ClusterVar(params, n, LaurentPoly(dual.ring, swapped))


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
    the seed (y2, y3), kept in the walk cache; so is the text of a refusal,
    which a repeat raises again at once.  In the finite types n is first
    moved by whole periods p = ``expected_period`` into the p indices
    nearest the seeds, 3 - p//2 .. 2 + p - p//2.
    """
    p = expected_period(params)
    if p is not None:
        n = (n - 3 + p // 2) % p + 3 - p // 2
    if 1 <= n <= 4:
        return (Y1, Y2, Y3, Y4)[n - 1]
    key = (params, "surface", n, current_max_terms())
    held = _walks.get(key)
    if isinstance(held, str):  # a refusal
        raise BudgetExceeded(held)
    if held is not None:
        return held
    try:
        laurent = cluster_var(Params(params.b, params.a), n - 1).value
        value = LaurentPoly(ZZ, _standard_terms(laurent.terms(), params.a, params.b, key[3]))
    except BudgetExceeded as exc:
        _walks.put(key, str(exc), 1)
        raise
    _walks.put(key, value, value.num_terms)
    return value


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
    walk = cluster_walk(params)
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
