"""The table of surface cluster variables against the substitution walk it
replaces.

``reference_surface_var`` is the earlier table, kept here as it was: walking
up from y1..y4, each y_n is ``y5_expression`` of the four values before it,
at (a, b) for odd n and (b, a) for even n; walking down, ``y0_expression``
of the four after it, at (a, b) for even n and (b, a) for odd n.  Each step
is one reducing substitution and one normal form.  ``surface_var`` reads
y_n from the Laurent walk instead and converts it to standard monomials
(``cluster._standard_terms``); both must give the same term maps, and the
new table must answer wherever the old one did.
"""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteraut import _kernel as K
from clusteraut import cluster
from clusteraut.budget import current_max_terms, limit
from clusteraut.cli import main
from clusteraut.cluster import clear_walk_cache, expected_period, surface_var
from clusteraut.errors import BudgetExceeded, LaurentViolation
from clusteraut.poly import LaurentPoly, Params, Y1, Y2, Y3, Y4
from clusteraut.rings import ZZ
from clusteraut.surface import compose_word, y0_expression, y5_expression

# -- the earlier implementation ----------------------------------------------

_reference_walks: dict = {}  # (params, upward, term budget) -> [values]


def _surface_step(params: Params, window: list, n: int) -> LaurentPoly:
    """y_n in normal form from the four values before it in its walk."""
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


def reference_surface_var(params: Params, n: int) -> LaurentPoly:
    """y_n in normal form by the substitution walk, each walk kept per term
    budget; in the finite types n is first moved by whole periods into the
    p indices nearest the seeds."""
    p = expected_period(params)
    if p is not None:
        n = (n - 3 + p // 2) % p + 3 - p // 2
    if 1 <= n <= 4:
        return (Y1, Y2, Y3, Y4)[n - 1]
    up = n > 4
    values = _reference_walks.setdefault(
        (params, up, current_max_terms()), [Y1, Y2, Y3, Y4] if up else [Y4, Y3, Y2, Y1]
    )
    index = n - 1 if up else 4 - n
    for i in range(len(values), index + 1):
        values.append(_surface_step(params, values[-4:], i + 1 if up else 4 - i))
    return values[index]


# -- the new table against the reference --------------------------------------

SWEEP = (
    [(a, b, n) for a in (1, 2, 3) for b in (1, 2, 3) for n in range(-4, 9) if not 1 <= n <= 4]
    + [(2, 2, -12), (2, 2, 16), (4, 1, -10), (1, 4, 14)]
    + [(a, b, n) for a, b in ((3, 2), (2, 3)) for n in (-5, 9, 10)]
    + [(6, 6, -2), (6, 6, 7)]
    # finite pairs far from the seeds, moved by whole periods
    + [(1, 1, 99), (2, 1, -50), (1, 2, 1000), (1, 3, 37), (3, 1, -21)]
)


def test_table_matches_the_substitution_walk():
    clear_walk_cache()
    for a, b, n in SWEEP:
        params = Params(a, b)
        got = surface_var(params, n)
        assert got.ring == ZZ
        assert got.term_map() == reference_surface_var(params, n).term_map(), (a, b, n)


def _outcome(fn, params, n):
    try:
        return fn(params, n).term_map()
    except BudgetExceeded:
        return None


def test_small_budgets_lose_no_answer():
    """Wherever the substitution walk answers under a small budget, the
    table answers with the same terms; each direction of the walk is swept
    from the seeds to its first refusal."""
    pairs = [(a, b) for a in range(1, 10) for b in range(1, 10) if a * b <= 9]
    answered = 0
    for budget in (50, 80, 130, 200, 399, 800):
        with limit(budget):
            for a, b in pairs:
                params = Params(a, b)
                clear_walk_cache()
                for ns in (range(5, 17), range(0, -13, -1)):
                    for n in ns:
                        want = _outcome(reference_surface_var, params, n)
                        if want is None:
                            break
                        assert _outcome(surface_var, params, n) == want, (budget, a, b, n)
                        answered += 1
    assert answered == 1362


def test_products_larger_than_the_answer_no_longer_refuse(capsys):
    """The substitution walk multiplied before it reduced, so it refused
    values far below the budget; the Laurent walk answers them."""
    params = Params(3, 2)
    want = compose_word(params, [("r", 2)])
    clear_walk_cache()
    with limit(399):
        with pytest.raises(BudgetExceeded, match="product has 787 terms"):
            reference_surface_var(params, -3)
        f = compose_word(params, [("r", 2)])
    assert [y.num_terms for y in f.images] == [130, 27, 12, 3]  # y-3 .. y0
    assert [y.term_map() for y in f.images] == [y.term_map() for y in want.images]
    argv = ["aut-compose", "--a", "2", "--b", "2", "r^-2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    clear_walk_cache()
    with limit(80), pytest.raises(BudgetExceeded):
        reference_surface_var(Params(2, 2), 8)
    assert main(argv[:5] + ["--max-terms", "80", "r^-2"]) == 0
    assert capsys.readouterr().out == out


# -- the conversion to standard monomials --------------------------------------

ONE = LaurentPoly.one()


def expand(normal: dict, a: int, b: int) -> LaurentPoly:
    """The Laurent expansion in (y2, y3), written in the first two slots, of
    a sum of standard monomials, through y1 = (1 + y2^a)/y3 and y4 = (1 +
    y3^b)/y2."""
    total = LaurentPoly.zero()
    for (d, alpha, beta, g, _), c in normal.items():
        term = LaurentPoly.monomial((alpha - g, beta - d, 0, 0, 0), c)
        total = total + term * (ONE + Y2 ** b) ** g * (ONE + Y1 ** a) ** d
    return total


def standard(u: int, v: int) -> tuple:
    """The key of the standard monomial whose lowest Laurent term is y2^u y3^v."""
    g, d = max(-u, 0), max(-v, 0)
    return (d, u + g, v + d, g, 0)


exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
coefficients = st.integers(-9, 9).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.dictionaries(exponents, coefficients, max_size=8))
def test_standard_monomials_come_back_from_their_expansion(a, b, combination):
    normal = {standard(u, v): c for (u, v), c in combination.items()}
    laurent = expand(normal, a, b)
    assert cluster._standard_terms(laurent.terms(), a, b, 10 ** 6) == normal


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.dictionaries(exponents, coefficients, max_size=6))
def test_any_laurent_polynomial_converts_exactly_or_is_refused(a, b, terms):
    laurent = {(u, v, 0, 0, 0): c for (u, v), c in terms.items()}
    try:
        normal = cluster._standard_terms(laurent.items(), a, b, 10 ** 6)
    except LaurentViolation:
        return
    assert expand(normal, a, b).term_map() == laurent


def test_elements_outside_the_algebra_are_refused():
    # y2^-1 would push -y2^-1 y3^b, then y2^-1 y3^2b, ... upwards forever
    with pytest.raises(LaurentViolation, match="passes the top row"):
        cluster._standard_terms([((-1, 0, 0, 0, 0), 1)], 2, 3, 10 ** 6)
    # y2 y3^-1 is no multiple of y1 = (1 + y2^a)/y3
    with pytest.raises(LaurentViolation, match=r"row y3\^-1"):
        cluster._standard_terms([((1, -1, 0, 0, 0), 1)], 2, 3, 10 ** 6)
    assert cluster._standard_terms([], 2, 3, 10 ** 6) == {}


def test_conversion_is_bounded_by_the_term_budget():
    params = Params(2, 3)
    laurent = cluster.cluster_var(Params(3, 2), 6).value  # y7 in (y2, y3)
    assert laurent.num_terms == 28
    with pytest.raises(BudgetExceeded):
        cluster._standard_terms(laurent.terms(), 2, 3, 40)
    assert len(cluster._standard_terms(laurent.terms(), 2, 3, 41)) == 27
    # a refused value is held as the text of its refusal, at one term, under
    # its own budget only, and raised again from there
    clear_walk_cache()
    with limit(40):
        with pytest.raises(BudgetExceeded) as refused:
            surface_var(params, 7)
    assert surface_var(params, 7).num_terms == 27
    held = {key[2:]: entry for key, entry in cluster._walks.entries.items() if key[1:2] == ("surface",)}
    assert list(held) == [(7, 40), (7, current_max_terms())]
    assert held[7, 40] == [str(refused.value), 1] and held[7, current_max_terms()][1] == 27
    with limit(40):
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(str(refused.value))}$"):
            surface_var(params, 7)
