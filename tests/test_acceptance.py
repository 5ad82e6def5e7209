"""Acceptance battery: fourteen criteria, one PASS/FAIL line each.

Every comparison is exact — integer and symbolic equality, no tolerances.
Random batteries run with fixed seeds and report their exact trial counts.

Two criteria (2 and 4) sweep parameter regions whose exact cluster
variables or map images grow beyond any realistic memory (term counts
past 10^15 in the far corners).  Those sweeps run under explicit,
deterministic term budgets; when a cell cannot be materialized the
criterion FAILS honestly, reporting exactly how far verification reached,
rather than hanging or silently shrinking the claim.

Run with ``pytest -s tests/test_acceptance.py`` to see all fourteen lines.
"""
import random

from clusteraut.budget import limit
from clusteraut.errors import BudgetExceeded, NotDivisible
from clusteraut.poly import LaurentPoly, Params
from clusteraut.rings import ZZ
from clusteraut import _kernel as K
from clusteraut import autgroup as ag
from clusteraut import cluster
from clusteraut import geom
from clusteraut import surface as surf
from clusteraut.suites import SUITES

PERIOD_CAP = 250_000     # criterion 1: lets the (2,2)/(4,1) walks reach n=50
SWEEP_CAP = 120_000      # criterion 2: per-variable term budget
GROWTH_CAP = 80_000      # criterion 4: per-image term budget


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_periodicity():
    finite = {(1, 1): 5, (2, 1): 6, (1, 2): 6, (3, 1): 8, (1, 3): 8}
    found = {}
    for (a, b), want in finite.items():
        found[(a, b)] = cluster.detect_period(Params(a, b), 50)
    periodic_ok = found == finite
    absent_ok = True
    for (a, b) in [(2, 2), (4, 1), (3, 2)]:
        with limit(PERIOD_CAP):
            absent_ok = absent_ok and cluster.detect_period(Params(a, b), 50) is None
    report(
        1,
        periodic_ok and absent_ok,
        f"periods {tuple(found.values())} for the five finite types; "
        "no period within n_max=50 for (2,2), (4,1), (3,2)",
    )


def test_criterion_02_laurent_phenomenon():
    pairs = [(a, b) for a in range(1, 8) for b in range(1, 8) if a + b <= 8]
    verified = blocked = 0
    not_divisible = []
    first_blocked = None
    for (a, b) in pairs:
        params = Params(a, b)
        # Walking upward, cluster_var(n+1) walks the same chain as
        # cluster_var(n), so the first budget failure blocks the rest of
        # the direction deterministically; same for n <= 0, which are read
        # from the walk up at (b, a).
        for direction in (range(1, 21), range(0, -21, -1)):
            for n in direction:
                try:
                    with limit(SWEEP_CAP):
                        cluster.cluster_var(params, n)
                    verified += 1
                except BudgetExceeded:
                    blocked += 21 - abs(n)  # this cell plus the rest of the walk
                    if first_blocked is None:
                        first_blocked = (a, b, n)
                    break
                except NotDivisible:
                    not_divisible.append((a, b, n))
    total = 41 * len(pairs)
    assert verified + blocked == total
    if not_divisible:
        detail = f"exact division FAILED at {not_divisible[:3]}"
    elif blocked:
        detail = (
            f"division was exact at every one of the {verified}/{total} cells "
            f"reachable under the {SWEEP_CAP}-term budget; {blocked} cells "
            f"(first: ({first_blocked[0]},{first_blocked[1]}) n={first_blocked[2]}) "
            "have exact representations too large to materialize"
        )
    else:
        detail = f"all {total} cells divide exactly"
    report(2, not not_divisible and not blocked, detail)


def test_criterion_03_generators_preserve_relations():
    count = 0
    ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            params = Params(a, b)
            maps = [surf.sigma2(params), surf.sigma3(params)]
            maps += [
                surf.scaling(params, i, j) for i in range(a) for j in range(b)
            ]
            if a == b:
                maps.append(surf.swap(params))
            for f in maps:
                ok = ok and surf.is_endomorphism(f)
                count += 1
    report(3, ok, f"all {count} generator maps over a,b <= 4 preserve the relations")


def test_criterion_04_involutions_and_degree_growth():
    inv_ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            params = Params(a, b)
            ident = surf.identity(params)
            for s in (surf.sigma2(params), surf.sigma3(params)):
                inv_ok = inv_ok and surf.equal(surf.compose(s, s), ident)
    orders_ok = True
    for (a, b), want in [((1, 1), 5), ((2, 1), 3), ((1, 2), 3), ((3, 1), 4), ((1, 3), 4)]:
        params = Params(a, b)
        r = surf.compose(surf.sigma2(params), surf.sigma3(params))
        orders_ok = orders_ok and surf.order_of(r, cap=8) == want
    growth = {}
    for (a, b) in [(2, 2), (4, 1), (3, 2)]:
        params = Params(a, b)
        s2, s3 = surf.sigma2(params), surf.sigma3(params)
        c2 = K.new_power_caches()
        c3 = K.new_power_caches()
        g = surf.identity(params)
        degs = []
        try:
            with limit(GROWTH_CAP):
                for n in range(1, 13):
                    g = surf.compose(s3, g, c3)
                    g = surf.compose(s2, g, c2)
                    degs.append(surf.total_degree(g))
        except BudgetExceeded:
            pass
        strict = all(x < y for x, y in zip(degs, degs[1:]))
        growth[(a, b)] = (len(degs), strict)
    growth_ok = all(n == 12 and strict for n, strict in growth.values())
    partial = ", ".join(
        f"({a},{b}) n<={n}{'' if strict else ' NOT MONOTONE'}"
        for (a, b), (n, strict) in growth.items()
    )
    report(
        4,
        inv_ok and orders_ok and growth_ok,
        "involutions and product orders (5,3,3,4,4) hold; strict weighted-degree "
        f"growth verified for {partial}"
        + (
            ""
            if growth_ok
            else f" - the next image exceeds the {GROWTH_CAP}-term budget"
        ),
    )


def test_criterion_05_finite_group_orders():
    ok = True
    counts = {}
    for (a, b), want in [((1, 1), 10), ((2, 1), 12), ((3, 1), 24)]:
        st = ag.structure_of(Params(a, b))
        endos = [ag.to_endo(e) for e in ag.enumerate_finite(st)]
        counts[(a, b)] = len(endos)
        ok = ok and len(endos) == want
        for i in range(len(endos)):
            for j in range(i + 1, len(endos)):
                ok = ok and not surf.equal(endos[i], endos[j])
    report(
        5,
        ok,
        f"{counts[(1, 1)]}/{counts[(2, 1)]}/{counts[(3, 1)]} pairwise-distinct "
        "maps for (1,1)/(2,1)/(3,1)",
    )


def test_criterion_06_reversal_word():
    params = Params(1, 1)
    reversal = surf.EndoMap.make(
        params, [LaurentPoly.variable(i) for i in (4, 3, 2, 1)]
    )
    word = surf.compose_word(params, [("s2",), ("s3",), ("s2",), ("s3",), ("s2",)])
    report(
        6,
        surf.equal(reversal, word),
        "(1,1): the reversal map equals the alternating five-letter word",
    )


def test_criterion_07_shift_identities():
    corrected = all(
        cluster.verify_identity_y0_y5(Params(a, b))
        for a in range(1, 5)
        for b in range(1, 5)
    )
    literal = all(
        cluster.verify_identity_y5(Params(a, b), paper_literal=True) == (a == b)
        for a in range(1, 5)
        for b in range(1, 5)
    )
    report(
        7,
        corrected and literal,
        "corrected summation bound holds at all 16 pairs; the literal bound "
        "fails at exactly the 12 pairs with a != b",
    )


def test_criterion_08_structure_facts():
    params = Params(2, 1)
    ok = True
    for i in range(2):
        m = surf.scaling(params, i, 0)
        for s in (surf.sigma2(params), surf.sigma3(params)):
            ok = ok and surf.equal(surf.compose(m, s), surf.compose(s, m))
    for a in (2, 3):
        params = Params(a, a)
        h = surf.swap(params)
        conj = surf.compose(surf.compose(h, surf.sigma2(params)), h)
        ok = ok and surf.equal(conj, surf.sigma3(params))
        for i in range(a):
            for j in range(a):
                conj = surf.compose(surf.compose(h, surf.scaling(params, i, j)), h)
                ok = ok and surf.equal(conj, surf.scaling(params, j, i))
    report(
        8,
        ok,
        "(2,1): scalings commute with both involutions; a=b in {2,3}: the "
        "reversal swaps the involutions and transposes scaling indices",
    )


def _atom_pool(params):
    pool = [("s2",), ("s3",)]
    for i in range(params.a):
        for j in range(params.b):
            if (i, j) != (0, 0):
                pool.append(("m", i, j))
    if params.a == params.b:
        pool.append(("h",))
    return pool


def test_criterion_09_homomorphism():
    rng = random.Random(2026)
    checked = 0
    ok = True
    for (a, b) in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        params = Params(a, b)
        pool = _atom_pool(params)
        st = ag.structure_of(params)
        for _ in range(100):
            word = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(0, 7))]
            direct = surf.compose_letters(params, word)
            via = ag.to_endo(ag.from_word(st, word))
            ok = ok and surf.equal(direct, via)
            checked += 1
    report(
        9,
        ok,
        f"{checked}/500 random words (length <= 6): the group normal form "
        "composes to the same map as the word itself",
    )


def test_criterion_10_geometry():
    ok = True
    for a in range(1, 6):
        for b in range(1, 6):
            _, cycle = geom.build_compactification(Params(a, b), "Pentagon")
            ok = ok and cycle.ngon_type().ints == (-1, -b, -a, -1, -1)
    for a in range(1, 6):
        _, cycle = geom.build_compactification(Params(a, 1), "TriangleT")
        ok = ok and cycle.ngon_type().ints == (0, -(a - 2), 0)
    y_expect = {
        (1, 1): ((-1, -1, -1, -1, -1), 5),
        (2, 1): ((0, 0, 0), 6),
        (3, 1): ((-1, -1, -1, -1), 4),
    }
    for (a, b), (types, k2) in y_expect.items():
        lat, cycle = geom.build_compactification(Params(a, b), "Y")
        ok = ok and cycle.ngon_type().ints == types
        ok = ok and geom.canonical_degree(lat) == k2
    anticanonical = 0
    for a in range(1, 6):
        for b in range(1, 6):
            for model in ("BarX", "Pentagon", "TriangleT", "SquareS", "Y"):
                for origin in (geom.PLANE, geom.QUADRIC):
                    try:
                        _, cycle = geom.build_compactification(
                            Params(a, b), model, origin
                        )
                    except geom.ModelUnavailable:
                        continue
                    ok = ok and geom.is_anticanonical(cycle)
                    anticanonical += 1
    for a in range(1, 5):
        for b in range(1, 5):
            lat, cycle = geom.build_compactification(Params(a, b), "Pentagon")
            ok = ok and geom.is_weak_del_pezzo(lat, cycle) == (a <= 2 and b <= 2)
    report(
        10,
        ok,
        "pentagon/triangle/Y boundary types and degrees as stated; all "
        f"{anticanonical} built boundaries anticanonical; weak del Pezzo "
        "exactly when a,b <= 2",
    )


def _naive_normal_form(params, p, rng):
    """Independent strategy: apply the two rewrite rules in random order."""
    a, b = params.a, params.b

    def add_to(terms, exps, c):
        c += terms.pop(exps, 0)
        if c:
            terms[exps] = c

    terms = {e[:4]: c for e, c in p.term_map().items()}
    while True:
        candidates = [
            e for e in terms if (e[0] > 0 and e[2] > 0) or (e[1] > 0 and e[3] > 0)
        ]
        if not candidates:
            return LaurentPoly.from_terms(ZZ, {e + (0,): c for e, c in terms.items()})
        e = rng.choice(candidates)
        c = terms.pop(e)
        rules = []
        if e[0] > 0 and e[2] > 0:
            rules.append(0)
        if e[1] > 0 and e[3] > 0:
            rules.append(1)
        if rng.choice(rules) == 0:
            base = (e[0] - 1, e[1], e[2] - 1, e[3])
            add_to(terms, (base[0], base[1] + a, base[2], base[3]), c)
            add_to(terms, base, c)
        else:
            base = (e[0], e[1] - 1, e[2], e[3] - 1)
            add_to(terms, (base[0], base[1], base[2] + b, base[3]), c)
            add_to(terms, base, c)


def _random_poly(rng, span, nterms):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(0, span + 1) for _ in range(4)) + (0,)
        terms[e] = rng.randrange(-9, 10) or 1
    return LaurentPoly.from_terms(ZZ, terms)


def test_criterion_11_confluence():
    rng = random.Random(2028)
    trials = 0
    ok = True
    for (a, b) in [(2, 2), (3, 2), (4, 1)]:
        params = Params(a, b)
        rel1 = LaurentPoly.from_terms(
            ZZ, {(1, 0, 1, 0, 0): 1, (0, a, 0, 0, 0): -1, (0, 0, 0, 0, 0): -1}
        )
        rel2 = LaurentPoly.from_terms(
            ZZ, {(0, 1, 0, 1, 0): 1, (0, 0, b, 0, 0): -1, (0, 0, 0, 0, 0): -1}
        )
        for _ in range(1000):
            p = _random_poly(rng, 3, rng.randrange(1, 7))
            nf1 = surf.normal_form(params, p)
            ok = ok and nf1 == _naive_normal_form(params, p, rng)
            q1 = _random_poly(rng, 2, rng.randrange(1, 4))
            q2 = _random_poly(rng, 2, rng.randrange(1, 4))
            shifted = p + q1 * rel1 + q2 * rel2
            ok = ok and surf.normal_form(params, shifted) == nf1
            trials += 1
    report(
        11,
        ok,
        f"{trials}/3000 polynomials: both strategies agree and ideal shifts "
        "leave the normal form unchanged",
    )


def test_criterion_12_factorization_round_trip():
    rng = random.Random(2027)
    trips = 0
    ok = True
    for (a, b) in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        params = Params(a, b)
        pool = _atom_pool(params)
        for _ in range(100):
            word = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(0, 9))]
            f = surf.compose_word(params, word)
            back = surf.factorize(f, max_word=16)
            ok = ok and surf.equal(surf.compose_word(params, back), f)
            trips += 1
    report(
        12,
        ok,
        f"{trips}/500 random words (length <= 8) recompose to the same map "
        "after factorization",
    )


def test_criterion_13_classification():
    ok = (
        geom.isomorphism_verdict(Params(2, 3), Params(3, 2))
        and not geom.isomorphism_verdict(Params(2, 3), Params(2, 4))
        and not geom.isomorphism_verdict(Params(4, 4), Params(2, 8))
    )
    report(
        13,
        ok,
        "(2,3) ~ (3,2) isomorphic; (2,3) vs (2,4) and (4,4) vs (2,8) "
        "distinguished by the square invariant",
    )


def test_criterion_14_errata_suite():
    entries = SUITES["errata"]()
    ok = len(entries) == 3 and all(e["ok"] for e in entries)
    names = "; ".join(e["name"] for e in entries)
    report(14, ok, f"exactly three discrepancies, each machine-confirmed: {names}")
