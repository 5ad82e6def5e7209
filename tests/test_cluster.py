"""Cluster variables: frozen values, the recurrence over exact rationals as
an independent oracle, periodicity, and the boundary identities."""
import random
import sys
import threading
from fractions import Fraction

import pytest

from clusteraut import _kernel as K
from clusteraut import cluster
from clusteraut.budget import current_max_terms, limit
from clusteraut.cluster import (
    check_relation,
    clear_walk_cache,
    cluster_var,
    cluster_walk,
    detect_period,
    expected_period,
    laurent_expand,
    verify_identity_y0,
    verify_identity_y0_y5,
    verify_identity_y5,
    y0_expression,
    y5_expression,
)
from clusteraut.errors import BudgetExceeded
from clusteraut.poly import Y1, Y2, LaurentPoly, Params, exact_div, parity_exponent
from clusteraut.rings import ZZ
from clusteraut.surface import normal_form


def evaluate(poly, point):
    total = Fraction(0)
    for exps, c in poly.terms():
        v = Fraction(c)
        for e, x in zip(exps, point):
            v *= Fraction(x) ** e
        total += v
    return total


def test_seed_variables():
    params = Params(2, 2)
    assert cluster_var(params, 1).value.term_map() == {(1, 0, 0, 0, 0): 1}
    assert cluster_var(params, 2).value.term_map() == {(0, 1, 0, 0, 0): 1}


def test_frozen_values_1_1():
    params = Params(1, 1)
    assert cluster_var(params, 3).value.term_map() == {
        (-1, 1, 0, 0, 0): 1,
        (-1, 0, 0, 0, 0): 1,
    }
    assert cluster_var(params, 4).value.term_map() == {
        (0, -1, 0, 0, 0): 1,
        (-1, 0, 0, 0, 0): 1,
        (-1, -1, 0, 0, 0): 1,
    }
    assert cluster_var(params, 5).value.term_map() == {
        (1, -1, 0, 0, 0): 1,
        (0, -1, 0, 0, 0): 1,
    }
    assert cluster_var(params, 6).value == cluster_var(params, 1).value
    assert cluster_var(params, 7).value == cluster_var(params, 2).value


def test_frozen_values_2_1():
    params = Params(2, 1)
    assert cluster_var(params, 3).value.term_map() == {
        (-1, 2, 0, 0, 0): 1,
        (-1, 0, 0, 0, 0): 1,
    }
    assert cluster_var(params, 4).value.term_map() == {
        (-1, 1, 0, 0, 0): 1,
        (0, -1, 0, 0, 0): 1,
        (-1, -1, 0, 0, 0): 1,
    }
    assert cluster_var(params, 7).value == cluster_var(params, 1).value
    assert cluster_var(params, 8).value == cluster_var(params, 2).value


def test_recurrence_against_rational_arithmetic():
    rng = random.Random(31)
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 1)):
        params = Params(a, b)
        for _ in range(5):
            v1 = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
            v2 = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
            point = (v1, v2, 0, 0)
            seq = {1: v1, 2: v2}
            for n in range(2, 9):
                c = parity_exponent(params, n)
                seq[n + 1] = (seq[n] ** c + 1) / seq[n - 1]
            for n in range(0, -5, -1):
                c = parity_exponent(params, n + 1)
                seq[n] = (seq[n + 1] ** c + 1) / seq[n + 2]
            for n in range(-4, 10):
                got = evaluate(cluster_var(params, n).value, point)
                assert got == seq[n], (a, b, n)


def test_exchange_relation_holds_on_computed_values():
    for a, b in ((2, 2), (3, 2)):
        params = Params(a, b)
        for n in range(-3, 7):
            assert check_relation(params, n)


def test_detected_periods():
    assert detect_period(Params(1, 1)) == 5
    assert detect_period(Params(2, 1)) == 6
    assert detect_period(Params(1, 2)) == 6
    assert detect_period(Params(3, 1)) == 8
    assert detect_period(Params(1, 3)) == 8
    assert detect_period(Params(2, 2), n_max=20) is None


def test_expected_period_matches_detection():
    for a in range(1, 4):
        for b in range(1, 4):
            params = Params(a, b)
            if params.product <= 3:  # finite type: finitely many variables
                assert detect_period(params) == expected_period(params)
            else:
                assert expected_period(params) is None


def test_periodicity_wraps_negative_indices():
    params = Params(1, 1)
    assert cluster_var(params, 0).value == cluster_var(params, 5).value
    assert cluster_var(params, -1).value == cluster_var(params, 4).value


def test_positivity_observed_on_sample():
    for a, b in ((2, 2), (4, 1), (3, 2)):
        params = Params(a, b)
        for n in range(-4, 9):
            assert cluster_var(params, n).positive


def test_budget_stops_long_walks():
    params = Params(3, 3)
    with limit(50):
        with pytest.raises(BudgetExceeded):
            cluster_var(params, 15)
        assert detect_period(params, n_max=30) is None


def test_boundary_identities():
    for a in range(1, 5):
        for b in range(1, 5):
            params = Params(a, b)
            assert verify_identity_y0(params)
            assert verify_identity_y5(params)
            assert verify_identity_y0_y5(params)
            literal = verify_identity_y5(params, paper_literal=True)
            assert literal == (a == b)


def test_boundary_expressions_match_cluster_walk():
    """y0 and y5 as 4-variable expressions agree with the walk values after
    expanding y3, y4 in the seed cluster."""
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2)):
        params = Params(a, b)
        assert laurent_expand(params, y0_expression(params)) == cluster_var(
            params, 0
        ).value
        assert laurent_expand(params, y5_expression(params)) == cluster_var(
            params, 5
        ).value


def test_laurent_expansion_is_faithful():
    rng = random.Random(47)
    params = Params(2, 2)
    a, b = params.a, params.b
    y = [LaurentPoly.variable(i) for i in (1, 2, 3, 4)]
    rel1 = y[0] * y[2] - y[1] ** a - LaurentPoly.one()
    rel2 = y[1] * y[3] - y[2] ** b - LaurentPoly.one()
    for _ in range(30):
        terms = {
            tuple(rng.randrange(0, 3) for _ in range(4)) + (0,): rng.randrange(-4, 5)
            for _ in range(4)
        }
        p = LaurentPoly.from_terms(ZZ, terms)
        mult = LaurentPoly.from_terms(
            ZZ, {tuple(rng.randrange(0, 2) for _ in range(4)) + (0,): rng.randrange(-2, 3)}
        )
        q = p + mult * rel1 + (mult * mult) * rel2
        assert laurent_expand(params, p) == laurent_expand(params, q)
        assert normal_form(params, p) == normal_form(params, q)
        r = p + LaurentPoly.one()
        assert laurent_expand(params, p) != laurent_expand(params, r)


# -- the walk cache ---------------------------------------------------------


def uncached_var(params, n):
    """y_n by the recurrence from the seed, without the walk cache: upward
    for n >= 1 and downward for n <= 0, so the values below the seed are
    checked against a walk that does not use the (b, a) symmetry."""
    if n == 1:
        return Y1
    direction = 1 if n >= 1 else -1
    prev, cur, m = (Y1, Y2, 2) if direction == 1 else (Y2, Y1, 1)
    while m != n:
        c = parity_exponent(params, m)
        prev, cur = cur, exact_div(cur ** c + LaurentPoly.one(), prev, params)
        m += direction
    return cur


def swapped(terms):
    """The terms with the exponents of y1 and y2 exchanged, in their order."""
    return [((e2, e1, e3, e4, k), c) for (e1, e2, e3, e4, k), c in terms]


def cached_var(params, n):
    return cluster_var(params, n).value


def outcome(compute, params, n):
    """y_n's terms in dict order, or the text of the budget refusal."""
    try:
        return list(compute(params, n).terms())
    except BudgetExceeded as exc:
        return f"budget: {exc}"


def as_dict(got):
    """An outcome with its dict order forgotten."""
    return got if isinstance(got, str) else dict(got)


def cached_values(params):
    """The cached prefix of the walk under the current budget."""
    entry = cluster._walks.entries.get((params, current_max_terms()))
    return [] if entry is None else entry[0].values


def cold_outcomes(params, direction, steps):
    """{n: outcome} of a cold walk from the seed for the first ``steps``
    indices in one direction; past a refusal every index gets its text."""
    prev, cur, m = (Y1, Y2, 2) if direction == 1 else (Y2, Y1, 1)
    out = {m - direction: list(prev.terms()), m: list(cur.terms())}
    refusal = None
    while len(out) < steps:
        if refusal is None:
            try:
                c = parity_exponent(params, m)
                prev, cur = cur, exact_div(cur ** c + LaurentPoly.one(), prev, params)
            except BudgetExceeded as exc:
                refusal = f"budget: {exc}"
        m += direction
        out[m] = refusal if refusal is not None else list(cur.terms())
    return out


def dual_outcomes(params, steps):
    """{n: outcome} for n = 0, -1, ..., 3 - steps read as the engine reads
    them: index 3 - n of the cold walk up at (b, a), y1 and y2 swapped."""
    up = cold_outcomes(Params(params.b, params.a), 1, steps)
    return {
        3 - m: got if isinstance(got, str) else swapped(got)
        for m, got in up.items()
        if m >= 3
    }


GRID_BUDGETS = [*range(1, 13), 20, 50, 100, 200, 500, 1000, 2000, 5000]


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
def test_walk_cache_matches_cold_walks(a, b):
    """At every budget of the grid, y_n for n in -20..20, read warm, is the
    cold walk's: the upward walk's for n >= 1; for n <= 0 the downward
    recurrence's value or refusal text, in the dict order of the dual walk
    at (b, a).  So the first refused index agrees in both directions."""
    params = Params(a, b)
    for max_terms in GRID_BUDGETS:
        with limit(max_terms):
            up, dual = cold_outcomes(params, 1, 20), dual_outcomes(params, 23)
            down = cold_outcomes(params, -1, 23)
            clear_walk_cache()
            for n in sorted(range(-20, 21), key=abs):
                got = outcome(cached_var, params, n)
                assert got == (up[n] if n >= 1 else dual[n]), (max_terms, n)
                if n <= 0:
                    assert as_dict(got) == as_dict(down[n]), (max_terms, n)
    # under this budget (3,2) reaches y-5 and y8 and refuses further out;
    # each n read cold gives what the warm cache gave
    with limit(2000):
        clear_walk_cache()
        warm = {n: outcome(cached_var, params, n) for n in range(-10, 13)}
        for n, got in warm.items():
            assert as_dict(outcome(uncached_var, params, n)) == as_dict(got), n
            clear_walk_cache()
            assert outcome(cached_var, params, n) == got, n
    if (a, b) == (3, 2):
        assert isinstance(warm[9], str) and isinstance(warm[-6], str)
        assert not isinstance(warm[8], str) and not isinstance(warm[-5], str)


def test_one_walk_serves_both_signs(monkeypatch):
    """y_n below the seed is read from the walk up at (b, a): after a cold
    y_-22 at (2,2) the walk holds y25, and after y_-18 at (4,1) the walk at
    (1,4) holds y21, so neither takes another division."""
    cases = [((2, 2), -22, (2, 2), 25), ((4, 1), -18, (1, 4), 21)]
    want = {
        (pair, n): uncached_var(Params(*pair), n)
        for below, n_below, above, n_above in cases
        for pair, n in ((below, n_below), (above, n_above))
    }
    divisions = []
    real = K.exact_div_terms

    def counted(*args, **kwargs):
        divisions.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(K, "exact_div_terms", counted)
    for below, n, above, m in cases:
        clear_walk_cache()
        assert cluster_var(Params(*below), n).value == want[below, n]
        assert divisions
        divisions.clear()
        assert cluster_var(Params(*above), m).value == want[above, m]
        assert divisions == []


def test_walk_cache_is_keyed_by_budget():
    params = Params(3, 3)
    clear_walk_cache()
    # y9 at (3,3) exceeds the default budget, so y8 is as far as the cache
    # can hold; y6..y8 each exceed 50 terms
    assert cluster_var(params, 8).value.num_terms == 4061
    with limit(50):
        with pytest.raises(BudgetExceeded):
            cluster_var(params, 15)
        with pytest.raises(BudgetExceeded):
            cluster_var(params, 7)
        assert detect_period(params, n_max=30) is None
    assert cluster_var(params, 8).value.num_terms == 4061
    # a walk started under one budget runs each later step under the
    # budget in effect when that step runs
    walk = cluster_walk(params)
    next(walk)
    with limit(50), pytest.raises(BudgetExceeded):
        for var in walk:
            if var.n == 8:
                break


def check_cache_consistent():
    walks = cluster._walks
    assert walks.terms == sum(size for _, size in walks.entries.values())
    assert walks.terms <= cluster.WALK_CACHE_TERMS
    for key, (value, size) in walks.entries.items():
        if isinstance(value, cluster._Prefix):
            assert size == sum(v.num_terms for v in value.values)


def test_walk_cache_stays_within_its_bound(monkeypatch):
    params = Params(2, 2)
    cold = [uncached_var(params, n) for n in range(1, 17)]
    bound = 250
    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", bound)
    clear_walk_cache()
    walks = cluster._walks
    for n in range(1, 17):
        # the walk outgrows the bound at y13 and goes on uncached
        assert cluster_var(params, n).value == cold[n - 1]
        check_cache_consistent()
    assert len(cached_values(params)) == 12
    # least recently used whole walks are evicted first
    clear_walk_cache()
    for a, b in ((1, 1), (2, 1), (1, 2)):
        cluster_var(Params(a, b), 8)
    cluster_var(Params(1, 1), 3)
    # y1..y12 at (2,2) hold 232 terms: room is made by evicting (2,1), then (1,2)
    cluster_var(params, 12)
    assert [key[0] for key in walks.entries] == [Params(1, 1), params]
    check_cache_consistent()


def test_budget_refusal_keeps_the_cached_prefix():
    params = Params(3, 2)
    clear_walk_cache()
    with limit(2000):
        with pytest.raises(BudgetExceeded) as first:
            cluster_var(params, 12)
        prefix = list(cached_values(params))
        assert len(prefix) == 8
        with pytest.raises(BudgetExceeded) as again:
            cluster_var(params, 12)
        assert str(again.value) == str(first.value)
        assert cached_values(params) == prefix
        for n, value in enumerate(prefix, start=1):
            assert value == uncached_var(params, n)


def test_interleaved_walks_share_one_prefix():
    params = Params(4, 1)
    clear_walk_cache()
    first, second = cluster_walk(params), cluster_walk(params)
    for _ in range(12):
        x, y = next(first), next(second)
        assert x.n == y.n and list(x.value.terms()) == list(y.value.terms())
    assert list(cluster._walks.entries) == [(params, current_max_terms())]
    values = cached_values(params)
    assert len(values) == 12
    assert cluster._walks.terms == sum(v.num_terms for v in values)


def test_walk_outlives_the_eviction_of_its_prefix():
    params = Params(2, 2)
    clear_walk_cache()
    walk = cluster_walk(params)
    values = [next(walk).value for _ in range(6)]
    clear_walk_cache()
    values += [next(walk).value for _ in range(6)]
    # the steps after the eviction are not cached out of place
    for n in range(1, 13):
        assert cluster_var(params, n).value == values[n - 1] == uncached_var(params, n)


def test_threads_share_the_walk_cache_safely():
    # Frequent clears make the threads compute and append the same steps at
    # the same time; without the cache's lock this corrupts the prefixes.
    # Indices below the seed read the same walk, as (2,2) is its own dual.
    params = Params(2, 2)
    reference = {n: uncached_var(params, n) for n in range(-7, 11)}
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                if rng.random() < 0.3:
                    clear_walk_cache()
                n = rng.randrange(-7, 11)
                assert cluster_var(params, n).value == reference[n]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_walk_cache()
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    check_cache_consistent()
    for n, value in enumerate(cached_values(params), start=1):
        assert value == reference[n]


# -- finite types: whole periods --------------------------------------------


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)])
def test_finite_walks_move_by_whole_periods(a, b):
    # y_n is read at n moved by whole periods into one window past a full
    # period; value, dict order and refusal text are those of the cold walk
    # (for n <= 0 the dual walk's order, and the downward walk's values)
    params = Params(a, b)
    for max_terms in list(range(1, 13)) + [current_max_terms()]:
        with limit(max_terms):
            cold = {**cold_outcomes(params, 1, 43), **dual_outcomes(params, 43)}
            down = cold_outcomes(params, -1, 43)
            for n in range(-40, 1):
                assert as_dict(cold[n]) == as_dict(down[n]), (max_terms, n)
            clear_walk_cache()
            for n in sorted(cold, key=abs):
                assert outcome(cached_var, params, n) == cold[n], (max_terms, n)
            for n in range(-40, 41):
                clear_walk_cache()
                assert outcome(cached_var, params, n) == cold[n], (max_terms, n)
            # past one full period a cold walk's outcomes repeat with period p
            period = expected_period(params)
            for huge in (10**20 + 3, -(10**20 + 3)):
                band = range(20, 41) if huge > 0 else range(-40, -19)
                near = next(m for m in band if (huge - m) % period == 0)
                assert outcome(cached_var, params, huge) == cold[near], (max_terms, huge)
    var = cluster_var(params, -(10**20))
    assert var.n == -(10**20)
    assert var.value == cluster_var(params, -(10**20) % expected_period(params)).value


def old_detect_period(params, n_max):
    """The period search that walks all n_max + 2 steps before comparing."""
    seen = []
    try:
        for var in cluster_walk(params):
            seen.append(var.value)
            if len(seen) > n_max + 2:
                break
    except BudgetExceeded:
        return None
    for p in range(1, n_max + 1):
        if seen[p] == seen[0] and seen[p + 1] == seen[1]:
            return p
    return None


def test_detect_period_stops_at_the_first_period():
    pairs = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (3, 2)]
    for a, b in pairs:
        params = Params(a, b)
        budgets = [1, 2, 3, 5, 8, 12, 40, 2000]
        for max_terms in budgets + ([current_max_terms()] if a * b <= 3 else []):
            with limit(max_terms):
                for n_max in range(2, 13):
                    clear_walk_cache()
                    want = old_detect_period(params, n_max)
                    clear_walk_cache()
                    assert detect_period(params, n_max) == want, (a, b, max_terms, n_max)
    clear_walk_cache()
    assert detect_period(Params(1, 1), n_max=10**14) == 5
    # the walk stops at y7 = y2: nothing past it is computed
    assert len(cached_values(Params(1, 1))) == 7


@pytest.mark.parametrize("check", ["y0", "y5", "y5-literal"])
def test_identity_checks_match_cold_checks(check):
    def run(params):
        if check == "y0":
            return verify_identity_y0(params)
        return verify_identity_y5(params, paper_literal=check == "y5-literal")

    def outcome_of(params):
        try:
            return run(params)
        except BudgetExceeded as exc:
            return f"budget: {exc}"

    pairs = [Params(a, b) for a in range(1, 5) for b in range(1, 5)]
    # the default budget runs first, so the smaller budgets meet its entries
    results = {}
    for max_terms in (current_max_terms(), 3, 20):
        with limit(max_terms):
            warm = results[max_terms] = [outcome_of(p) for p in pairs]
            assert [outcome_of(p) for p in pairs] == warm
            for params, got in zip(pairs, warm):
                verify_identity_y0.cache_clear()
                verify_identity_y5.cache_clear()
                assert outcome_of(params) == got, (params, max_terms)
    assert any(isinstance(got, str) for got in results[3])
    assert results[current_max_terms()] == [
        check != "y5-literal" or p.a == p.b for p in pairs
    ]
