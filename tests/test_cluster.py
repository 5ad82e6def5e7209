"""Cluster variables: frozen values, the recurrence over exact rationals as
an independent oracle, periodicity, and the boundary identities."""
import random
import sys
import threading
from fractions import Fraction

import pytest

from clusteraut import cluster
from clusteraut.budget import current_max_terms, limit
from clusteraut.cluster import (
    check_relation,
    clear_walk_cache,
    cluster_var,
    cluster_walk,
    detect_period,
    expected_period,
    is_finite_type,
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
    assert cluster_var(params, 1).value.term_map() == {(1, 0, 0, 0): 1}
    assert cluster_var(params, 2).value.term_map() == {(0, 1, 0, 0): 1}


def test_frozen_values_1_1():
    params = Params(1, 1)
    assert cluster_var(params, 3).value.term_map() == {
        (-1, 1, 0, 0): 1,
        (-1, 0, 0, 0): 1,
    }
    assert cluster_var(params, 4).value.term_map() == {
        (0, -1, 0, 0): 1,
        (-1, 0, 0, 0): 1,
        (-1, -1, 0, 0): 1,
    }
    assert cluster_var(params, 5).value.term_map() == {
        (1, -1, 0, 0): 1,
        (0, -1, 0, 0): 1,
    }
    assert cluster_var(params, 6).value == cluster_var(params, 1).value
    assert cluster_var(params, 7).value == cluster_var(params, 2).value


def test_frozen_values_2_1():
    params = Params(2, 1)
    assert cluster_var(params, 3).value.term_map() == {
        (-1, 2, 0, 0): 1,
        (-1, 0, 0, 0): 1,
    }
    assert cluster_var(params, 4).value.term_map() == {
        (-1, 1, 0, 0): 1,
        (0, -1, 0, 0): 1,
        (-1, -1, 0, 0): 1,
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
            if is_finite_type(params):
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
            tuple(rng.randrange(0, 3) for _ in range(4)): rng.randrange(-4, 5)
            for _ in range(4)
        }
        p = LaurentPoly.from_terms(ZZ, terms)
        mult = LaurentPoly.from_terms(
            ZZ, {tuple(rng.randrange(0, 2) for _ in range(4)): rng.randrange(-2, 3)}
        )
        q = p + mult * rel1 + (mult * mult) * rel2
        assert laurent_expand(params, p) == laurent_expand(params, q)
        assert normal_form(params, p) == normal_form(params, q)
        r = p + LaurentPoly.one()
        assert laurent_expand(params, p) != laurent_expand(params, r)


# -- the walk cache ---------------------------------------------------------


def uncached_var(params, n):
    """y_n by the recurrence from the seed, without the walk cache."""
    if n == 1:
        return Y1
    direction = 1 if n >= 1 else -1
    prev, cur, m = (Y1, Y2, 2) if direction == 1 else (Y2, Y1, 1)
    while m != n:
        c = parity_exponent(params, m)
        prev, cur = cur, exact_div(cur ** c + LaurentPoly.one(), prev, params)
        m += direction
    return cur


def cached_var(params, n):
    return cluster_var(params, n).value


def outcome(compute, params, n):
    """y_n's terms in dict order, or the text of the budget refusal."""
    try:
        return list(compute(params, n).terms())
    except BudgetExceeded as exc:
        return f"budget: {exc}"


def cached_values(params, direction):
    """The cached prefix of the walk under the current budget."""
    entry = cluster._walks.walks.get((params, direction, current_max_terms()))
    return [] if entry is None else entry.values


@pytest.mark.parametrize("a,b", [(2, 2), (4, 1), (3, 2), (1, 1)])
def test_walk_cache_matches_cold_walks(a, b):
    # under this budget (3,2) reaches y-5 and y8 and refuses further out
    params = Params(a, b)
    with limit(2000):
        clear_walk_cache()
        warm = {n: outcome(cached_var, params, n) for n in range(-10, 13)}
        for n, got in warm.items():
            assert outcome(uncached_var, params, n) == got, n
            clear_walk_cache()
            assert outcome(cached_var, params, n) == got, n
    if (a, b) == (3, 2):
        assert isinstance(warm[9], str) and isinstance(warm[-6], str)
        assert not isinstance(warm[8], str) and not isinstance(warm[-5], str)


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
    walk = cluster_walk(params, 1)
    next(walk)
    with limit(50), pytest.raises(BudgetExceeded):
        for var in walk:
            if var.n == 8:
                break


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
        entries = walks.walks.values()
        assert walks.terms == sum(e.terms for e in entries) <= bound
        assert all(e.terms == sum(v.num_terms for v in e.values) for e in entries)
    assert len(cached_values(params, 1)) == 12
    # least recently used whole walks are evicted first
    clear_walk_cache()
    for a, b in ((1, 1), (2, 1), (1, 2)):
        cluster_var(Params(a, b), 8)
    cluster_var(Params(1, 1), 3)
    # y1..y12 at (2,2) hold 232 terms: room is made by evicting (2,1), then (1,2)
    cluster_var(params, 12)
    assert [key[0] for key in walks.walks] == [Params(1, 1), params]
    assert walks.terms == sum(e.terms for e in walks.walks.values()) <= bound


def test_budget_refusal_keeps_the_cached_prefix():
    params = Params(3, 2)
    clear_walk_cache()
    with limit(2000):
        with pytest.raises(BudgetExceeded) as first:
            cluster_var(params, 12)
        prefix = list(cached_values(params, 1))
        assert len(prefix) == 8
        with pytest.raises(BudgetExceeded) as again:
            cluster_var(params, 12)
        assert str(again.value) == str(first.value)
        assert cached_values(params, 1) == prefix
        for n, value in enumerate(prefix, start=1):
            assert value == uncached_var(params, n)


def test_interleaved_walks_share_one_prefix():
    params = Params(4, 1)
    clear_walk_cache()
    first, second = cluster_walk(params, -1), cluster_walk(params, -1)
    for _ in range(12):
        x, y = next(first), next(second)
        assert x.n == y.n and list(x.value.terms()) == list(y.value.terms())
    assert list(cluster._walks.walks) == [(params, -1, current_max_terms())]
    values = cached_values(params, -1)
    assert len(values) == 12
    assert cluster._walks.terms == sum(v.num_terms for v in values)


def test_walk_outlives_the_eviction_of_its_prefix():
    params = Params(2, 2)
    clear_walk_cache()
    walk = cluster_walk(params, 1)
    values = [next(walk).value for _ in range(6)]
    clear_walk_cache()
    values += [next(walk).value for _ in range(6)]
    # the steps after the eviction are not cached out of place
    for n in range(1, 13):
        assert cluster_var(params, n).value == values[n - 1] == uncached_var(params, n)


def test_threads_share_the_walk_cache_safely():
    # Frequent clears make the threads compute and append the same steps at
    # the same time; without the cache's lock this corrupts the prefixes.
    params = Params(2, 2)
    reference = [uncached_var(params, n) for n in range(1, 11)]
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                if rng.random() < 0.3:
                    clear_walk_cache()
                n = rng.randrange(1, 11)
                assert cluster_var(params, n).value == reference[n - 1]
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
    walks = cluster._walks
    assert walks.terms == sum(e.terms for e in walks.walks.values())
    for n, value in enumerate(cached_values(params, 1), start=1):
        assert value == reference[n - 1]
