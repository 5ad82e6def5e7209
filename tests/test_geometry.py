"""Picard-lattice bookkeeping: frozen boundary types, move calculus,
blow-up/contraction consistency, and the isomorphism classifier.

The boundary invariants that the CLI and the verify suites read from the
compactification cache are checked against the ones computed from the
cycle, and the lattice primitives against plain loops."""
import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteraut import cli, geom
from clusteraut.budget import limit
from clusteraut.errors import (
    BudgetExceeded,
    EngineError,
    ModelUnavailable,
    NotAnticanonical,
    NotMinusOne,
    NotStandardSquare,
    PivotNotZero,
    PreconditionViolated,
    StructureMismatch,
)
from clusteraut.geom import (
    PLANE,
    QUADRIC,
    BoundaryCycle,
    DivisorClass,
    NgonType,
    PicardLattice,
    blowup_on_curve,
    build_compactification,
    canonical_degree,
    contract,
    corner_blowup,
    elementary_move,
    fibered_modification_steps,
    is_anticanonical,
    is_standard,
    is_weak_del_pezzo,
    isomorphism_verdict,
    plane_lattice,
    quadric_lattice,
    square_invariant,
)
from clusteraut.poly import Params


def test_lattice_basics():
    plane = plane_lattice()
    quadric = quadric_lattice()
    assert canonical_degree(plane) == 9
    assert canonical_degree(quadric) == 8
    assert canonical_degree(plane.blow_up()) == 8
    assert canonical_degree(quadric.blow_up().blow_up()) == 6
    # the intersection forms: H^2 = 1 on the plane, two rulings meeting
    # once on the quadric, and E^2 = -1 for every exceptional class
    for lat, gram in (
        (plane.blow_up(), ((1, 0), (0, -1))),
        (quadric.blow_up(), ((0, 1, 0), (1, 0, 0), (0, 0, -1))),
    ):
        for i in range(lat.rank):
            v = lat.basis_vector(i)
            for j in range(lat.rank):
                assert lat.dot(v, lat.basis_vector(j)) == gram[i][j]


def test_divisor_class_arithmetic():
    lat = plane_lattice().blow_up().blow_up()
    line = DivisorClass(lat, (1, 0, 0))
    e1 = DivisorClass(lat, (0, 1, 0))
    e2 = DivisorClass(lat, (0, 0, 1))
    assert line.self_intersection == 1
    assert e1.self_intersection == -1
    assert line.dot(e1) == 0 and e1.dot(e2) == 0
    d = DivisorClass(lat, (2, 0, 0)) - e1 - e2
    assert d.self_intersection == 4 - 1 - 1
    assert d.dot(line) == line.dot(d)
    other = DivisorClass(plane_lattice(), (1,))
    with pytest.raises(StructureMismatch):
        line.dot(other)


def test_frozen_model_types_and_degrees():
    for a in range(1, 4):
        for b in range(1, 4):
            params = Params(a, b)
            lat, cycle = build_compactification(params, "BarX")
            assert cycle.ngon_type().ints == (1, 1 - b, 1 - a)
            assert canonical_degree(lat) == 9 - a - b
            assert is_anticanonical(cycle)
            lat, cycle = build_compactification(params, "Pentagon")
            assert cycle.ngon_type().ints == (-1, -b, -a, -1, -1)
            assert canonical_degree(lat) == 7 - a - b
            assert is_anticanonical(cycle)
    for a in range(1, 5):
        params = Params(a, 1)
        for origin in (PLANE, QUADRIC):
            lat, cycle = build_compactification(params, "TriangleT", origin)
            assert cycle.ngon_type().ints == (0, -(a - 2), 0)
            assert canonical_degree(lat) == 8 - a
            assert is_anticanonical(cycle)
    for a in range(2, 4):
        for b in range(2, 4):
            params = Params(a, b)
            for origin in (PLANE, QUADRIC):
                lat, cycle = build_compactification(params, "SquareS", origin)
                assert cycle.ngon_type().ints == (0, -b, -a, 0)
                assert canonical_degree(lat) == 8 - a - b
                assert is_anticanonical(cycle)
    expect_y = {
        (1, 1): ((-1, -1, -1, -1, -1), 5),
        (2, 1): ((0, 0, 0), 6),
        (3, 1): ((-1, -1, -1, -1), 4),
    }
    for (a, b), (types, k2) in expect_y.items():
        lat, cycle = build_compactification(Params(a, b), "Y")
        assert cycle.ngon_type().ints == types
        assert canonical_degree(lat) == k2
        assert is_anticanonical(cycle)


def test_model_guards():
    with pytest.raises(ModelUnavailable):
        build_compactification(Params(2, 2), "BarX", QUADRIC)
    with pytest.raises(ModelUnavailable):
        build_compactification(Params(2, 2), "TriangleT")
    with pytest.raises(ModelUnavailable):
        build_compactification(Params(1, 3), "SquareS")
    with pytest.raises(ModelUnavailable):
        build_compactification(Params(4, 1), "Y")
    with pytest.raises(ModelUnavailable):
        build_compactification(Params(2, 2), "Nonagon")
    with pytest.raises(ModelUnavailable):
        build_compactification(Params(2, 2), "Pentagon", "torus")


def test_contract_inverts_corner_blowup():
    _, cycle = build_compactification(Params(2, 3), "Pentagon")
    for i in range(cycle.n):
        grown = corner_blowup(cycle, i)
        assert grown.n == cycle.n + 1
        assert is_anticanonical(grown)
        assert canonical_degree(grown.lattice) == canonical_degree(cycle.lattice) - 1
        new_index = grown.n - 1 if (i + 1) % cycle.n == 0 else i + 1
        assert grown.curves[new_index].self_intersection == -1
        back = contract(grown, new_index)
        assert back.ngon_type().ints == cycle.ngon_type().ints
        assert canonical_degree(back.lattice) == canonical_degree(cycle.lattice)
        assert is_anticanonical(back)


def test_contract_then_blowup_round_trip_on_square():
    """Square -> pentagon (corner blow-up) -> square again."""
    _, square = build_compactification(Params(2, 2), "SquareS")
    grown = corner_blowup(square, 3)
    assert grown.ngon_type() == NgonType((-1, -2, -2, -1, -1))
    back = contract(grown, 4 if (3 + 1) % 4 == 0 else 4)
    assert back.ngon_type().ints == square.ngon_type().ints


def test_contract_requires_minus_one():
    _, cycle = build_compactification(Params(3, 2), "Pentagon")
    with pytest.raises(NotMinusOne):
        contract(cycle, 1)  # that curve has self-intersection -2
    small = BoundaryCycle(
        quadric_lattice(),
        (
            DivisorClass(quadric_lattice(), (1, 0)),
            DivisorClass(quadric_lattice(), (0, 1)),
        ),
    )
    with pytest.raises(PreconditionViolated):
        contract(small, 0)


def test_blowup_on_curve_guards():
    _, cycle = build_compactification(Params(2, 2), "Pentagon")
    with pytest.raises(PreconditionViolated):
        blowup_on_curve(cycle, 0, 0)
    grown = blowup_on_curve(cycle, 0, 2)
    assert grown.ngon_type().ints == (-3, -2, -2, -1, -1)
    assert len(grown.extras) == len(cycle.extras) + 2
    assert is_anticanonical(grown)


def test_check_ngon_rejects_bad_configurations():
    lat = plane_lattice()
    line = DivisorClass(lat, (1,))
    bad = BoundaryCycle(lat.blow_up(), tuple(
        DivisorClass(lat.blow_up(), c) for c in ((1, 0), (1, 0), (0, 1))
    ))
    with pytest.raises(EngineError):
        bad.check_ngon()
    good = BoundaryCycle(lat, (line, line, line))
    good.check_ngon()


def test_elementary_move_mechanics():
    t = NgonType((0, 0, -2, -3))
    moved = elementary_move(t, 1)
    assert moved.ints == (-1, 0, -1, -3)
    assert sum(moved.ints) == sum(t.ints)
    wrapped = elementary_move(NgonType((0, -2, -3, 0)), 3)
    assert wrapped.ints == (1, -2, -4, 0)
    with pytest.raises(PivotNotZero):
        elementary_move(t, 2)
    with pytest.raises(PreconditionViolated):
        elementary_move(NgonType((0, 0)), 0)


def test_fibered_modification():
    for a in range(1, 5):
        t = NgonType((0, 0, -a, -2))
        out, moves = fibered_modification_steps(t)
        assert moves == a
        assert out.ints == (-a, 0, 0, -2)
    with pytest.raises(PreconditionViolated):
        fibered_modification_steps(NgonType((0, -1, -2, 0)))
    with pytest.raises(PreconditionViolated):
        fibered_modification_steps(NgonType((0, 0, 1, -2)))


def test_standardness():
    assert is_standard(NgonType((0, 0, -2, -3)))
    assert is_standard(NgonType((-2, 0, 0, -3)))
    assert is_standard(NgonType((0, 0, -2)))
    assert not is_standard(NgonType((0, 0, -1, -3)))
    assert not is_standard(NgonType((0, -2, 0, -3)))
    assert not is_standard(NgonType((0, 0)))


def test_square_invariant_basics():
    assert square_invariant(NgonType((0, 0, -3, -2))) == (2, 3)
    assert square_invariant(NgonType((-2, 0, 0, -3))) == (2, 3)
    assert square_invariant(NgonType((0, 0, -2, -2))) == (2, 2)
    with pytest.raises(NotStandardSquare):
        square_invariant(NgonType((0, 0, -1, -2)))
    with pytest.raises(NotStandardSquare):
        square_invariant(NgonType((0, 0, -2, -2, -2)))


def test_square_invariant_stable_under_move_search():
    """Breadth-first search through elementary moves: every standard square
    reached keeps the starting invariant."""
    start = NgonType((0, 0, -2, -3))
    seen = {start.canonical()}
    frontier = [start]
    standard_squares = 0
    for _ in range(5):
        next_frontier = []
        for t in frontier:
            for i in range(len(t)):
                if t[i] != 0:
                    continue
                for cand in (elementary_move(t, i), elementary_move(NgonType(t.ints[::-1]), len(t) - 1 - i)):
                    if is_standard(cand):
                        standard_squares += 1
                        assert square_invariant(cand) == (2, 3)
                    key = cand.canonical()
                    if key in seen:
                        continue
                    seen.add(key)
                    next_frontier.append(cand)
        frontier = next_frontier
    assert len(seen) > 10
    assert standard_squares >= 1


def test_ngon_type_equivalence():
    t = NgonType((0, 0, -2, -3))
    assert t == NgonType((-3, 0, 0, -2))
    assert t == NgonType((-2, 0, 0, -3))
    assert hash(t) == hash(NgonType((-3, 0, 0, -2)))
    assert t != NgonType((0, 0, -2, -4))
    assert len(t) == 4 and t[2] == -2
    assert str(t) == "(0,0,-2,-3)"
    with pytest.raises(AttributeError):
        t.ints = ()


def test_weak_del_pezzo_threshold():
    for a in range(1, 5):
        for b in range(1, 5):
            lat, cycle = build_compactification(Params(a, b), "Pentagon")
            assert is_weak_del_pezzo(lat, cycle) == (a <= 2 and b <= 2)
    lat = plane_lattice()
    line = DivisorClass(lat, (1,))
    not_anti = BoundaryCycle(lat, (line, line, DivisorClass(lat, (2,))))
    with pytest.raises(NotAnticanonical):
        is_weak_del_pezzo(lat, not_anti)


def test_classification_verdicts():
    assert isomorphism_verdict(Params(2, 3), Params(3, 2))
    assert isomorphism_verdict(Params(2, 2), Params(2, 2))
    assert not isomorphism_verdict(Params(2, 3), Params(2, 4))
    assert not isomorphism_verdict(Params(4, 4), Params(2, 8))
    with pytest.raises(ModelUnavailable):
        isomorphism_verdict(Params(1, 2), Params(2, 2))


def test_rotated_preserves_everything():
    rng = random.Random(8)
    _, cycle = build_compactification(Params(3, 2), "Pentagon")
    for _ in range(5):
        s = rng.randrange(-7, 8)
        rot = cycle.rotated(s)
        assert rot.ngon_type() == cycle.ngon_type()
        assert is_anticanonical(rot)
        rot.check_ngon()


# -- one build per process ---------------------------------------------------

MODELS = ("BarX", "Pentagon", "TriangleT", "SquareS", "Y")


def blowup_one_point_at_a_time(cycle, i, count):
    """Reference: extend the lattice by one class per point."""
    if count < 1:
        raise PreconditionViolated("count must be at least 1")
    i %= cycle.n
    out = cycle
    for _ in range(count):
        lat = out.lattice.blow_up()
        pad = (0,) * (lat.rank - out.lattice.rank)
        curves = [DivisorClass(lat, c.coeffs + pad) for c in out.curves]
        extras = tuple(DivisorClass(lat, c.coeffs + pad) for c in out.extras)
        e = DivisorClass(lat, lat.basis_vector(lat.rank - 1))
        curves[i] = curves[i] - e
        out = BoundaryCycle(lat, tuple(curves), extras + (e,))
    return out


def outcomes(build, a_max):
    """{(a, b, model, origin): (lattice, cycle) or the refusal's type}."""
    out = {}
    for a in range(1, a_max + 1):
        for b in range(1, a_max + 1):
            for model in MODELS:
                for origin in (PLANE, QUADRIC):
                    try:
                        got = build(Params(a, b), model, origin)
                    except ModelUnavailable as exc:
                        got = type(exc)
                    out[(a, b, model, origin)] = got
    return out


def test_blowup_on_curve_matches_one_point_at_a_time(monkeypatch):
    built = outcomes(geom._build_compactification, 8)
    monkeypatch.setattr(geom, "blowup_on_curve", blowup_one_point_at_a_time)
    assert outcomes(geom._build_compactification, 8) == built
    assert sum(not isinstance(v, type) for v in built.values()) == 245
    _, cycle = build_compactification(Params(2, 3), "Pentagon")
    for i in range(cycle.n):
        for count in (1, 2, 5):
            assert blowup_on_curve(cycle, i, count) == blowup_one_point_at_a_time(
                cycle, i, count
            )


def test_cached_compactifications_match_cold_builds():
    geom._cached_compactification.cache_clear()
    warm = outcomes(build_compactification, 6)
    assert outcomes(build_compactification, 6) == warm
    info = geom._cached_compactification.cache_info()
    stored = sum(not isinstance(v, type) for v in warm.values())
    assert info.currsize == stored and info.hits == stored
    for (a, b, model, origin), got in warm.items():
        if isinstance(got, type):
            continue
        assert got[0].rank <= a + b + 4
        geom._cached_compactification.cache_clear()
        assert build_compactification(Params(a, b), model, origin) == got
    # the default origin and an explicit plane share one entry
    geom._cached_compactification.cache_clear()
    params = Params(2, 3)
    assert build_compactification(params, "Pentagon") is build_compactification(
        params, "Pentagon", PLANE
    )
    assert geom._cached_compactification.cache_info().currsize == 1


def test_compactification_cache_keeps_no_refusals_or_large_lattices():
    geom._cached_compactification.cache_clear()
    for _ in range(3):
        with pytest.raises(ModelUnavailable):
            build_compactification(Params(2, 2), "TriangleT")
        with pytest.raises(ModelUnavailable):
            build_compactification(Params(2, 2), "Pentagon", "torus")
    assert geom._cached_compactification.cache_info().currsize == 0
    cap = geom.COMPACTIFICATION_CACHE_RANK
    for a, b in ((cap - 5, 1), (cap - 4, 1), (cap, cap)):
        lattice, cycle = build_compactification(Params(a, b), "Pentagon")
        assert lattice.rank == a + b + 3
        assert cycle.ngon_type().ints == (-1, -b, -a, -1, -1)
    # only the pair whose lattices all fit within the cap is kept
    assert geom._cached_compactification.cache_info().currsize == 1


# -- boundary invariants read from the cache ---------------------------------

#: every model and origin the CLI accepts at a, b <= 6, and pairs whose
#: lattices pass COMPACTIFICATION_CACHE_RANK, which are built uncached
INVARIANT_CASES = [
    (a, b, model, origin)
    for a in range(1, 7)
    for b in range(1, 7)
    for model in MODELS
    for origin in (PLANE, QUADRIC)
] + [
    (20, 3, "Pentagon", PLANE),
    (1000, 1, "Pentagon", PLANE),
    (20, 3, "SquareS", QUADRIC),
    (30, 1, "TriangleT", PLANE),
]

CLI_MODELS = {v: k for k, v in cli._MODELS.items()}


def invariants_from_form(a, b, model, origin):
    """(types, anticanonical, K^2) computed from the cycle, or the refusal's
    type and text."""
    try:
        lattice, cycle = build_compactification(Params(a, b), model, origin)
    except EngineError as exc:
        return type(exc), str(exc)
    return cycle.ngon_type().ints, is_anticanonical(cycle), canonical_degree(lattice)


def invariants_from_cache(a, b, model, origin):
    try:
        inv = geom.boundary_invariants(Params(a, b), model, origin)
    except EngineError as exc:
        return type(exc), str(exc)
    return inv.ngon.ints, inv.anticanonical, inv.k2


def budget_context(budget):
    return contextlib.nullcontext() if budget is None else limit(budget)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("budget", [None, 1, 2, 40])
def test_cached_invariants_match_the_cycle(budget):
    with budget_context(budget):
        geom._cached_compactification.cache_clear()
        want = {case: invariants_from_form(*case) for case in INVARIANT_CASES}
        geom._cached_compactification.cache_clear()
        for case in INVARIANT_CASES:
            assert invariants_from_cache(*case) == want[case]  # cold
            assert invariants_from_cache(*case) == want[case]  # warm
    kinds = {v[0] for v in want.values() if isinstance(v[0], type)}
    # a budget of 1 refuses even rank 6, before the model is looked at
    assert (ModelUnavailable in kinds) == (budget != 1)
    assert (BudgetExceeded in kinds) == (budget is not None)
    if budget is None:
        assert want[(1000, 1, "Pentagon", PLANE)] == ((-1, -1, -1000, -1, -1), True, -994)


@pytest.mark.parametrize("budget", [None, 1, 2, 40])
def test_geom_boundary_answers_and_refusals_from_the_cache(budget):
    """geom-boundary prints the invariants computed from the cycle, and
    refuses with the same text and exit code, cold and warm."""
    extra = [] if budget is None else ["--max-terms", str(budget)]
    geom._cached_compactification.cache_clear()
    for a, b, model, origin in INVARIANT_CASES:
        with budget_context(budget):
            want = invariants_from_form(a, b, model, origin)
        geom._cached_compactification.cache_clear()
        argv = [
            "geom-boundary", "--a", str(a), "--b", str(b),
            "--model", CLI_MODELS[model], "--origin", origin, *extra,
        ]
        cold = run_cli(argv)
        assert run_cli(argv) == cold
        if want[0] is ModelUnavailable:
            assert cold == (1, "", f"error: ModelUnavailable: {want[1]}\n")
        elif want[0] is BudgetExceeded:
            assert cold == (3, "", f"budget exceeded: {want[1]}\n")
        else:
            types, anti, k2 = want
            assert cold == (0, "\n".join([
                f"model: {CLI_MODELS[model]}",
                f"origin: {origin}",
                "types: (" + ", ".join(map(str, types)) + ")",
                f"anticanonical: {'yes' if anti else 'no'}",
                f"K^2: {k2}",
            ]) + "\n", "")


def test_classify_reads_each_square_invariant_once_with_the_old_refusals():
    """classify's invariants and verdict are those of the squares' types
    computed from the form; the a, b >= 2 refusal comes before the size
    refusal of the second pair."""
    geom._cached_compactification.cache_clear()
    for p1 in (Params(2, 3), Params(3, 2), Params(4, 4), Params(20, 3)):
        for p2 in (Params(3, 2), Params(2, 8), Params(4, 4)):
            want = tuple(
                square_invariant(build_compactification(p, "SquareS")[1].ngon_type())
                for p in (p1, p2)
            )
            for _ in range(2):
                assert geom.square_invariants(p1, p2) == want
            assert isomorphism_verdict(p1, p2) == (want[0] == want[1])
    with limit(40):
        with pytest.raises(ModelUnavailable, match="needs a, b >= 2 on both sides"):
            geom.square_invariants(Params(2, 2), Params(1, 1000))
        with pytest.raises(BudgetExceeded, match="classes of rank 1006 exceed"):
            geom.square_invariants(Params(2, 1000), Params(1, 2))


def test_weak_del_pezzo_reads_type_degree_and_flag():
    for a in range(1, 7):
        for b in range(1, 7):
            for model in MODELS:
                try:
                    lattice, cycle = build_compactification(Params(a, b), model)
                except ModelUnavailable:
                    continue
                inv = geom.boundary_invariants(Params(a, b), model)
                assert inv.weak_del_pezzo() == is_weak_del_pezzo(lattice, cycle) == (
                    canonical_degree(lattice) > 0
                    and all(c.dot(DivisorClass(lattice, tuple(-x for x in lattice.k))) >= 0
                            for c in cycle.curves)
                )
    lat = plane_lattice()
    line = DivisorClass(lat, (1,))
    not_anti = BoundaryCycle(lat, (line, line, DivisorClass(lat, (2,))))
    with pytest.raises(NotAnticanonical):
        geom.BoundaryInvariants(lat, not_anti).weak_del_pezzo()


# -- the lattice primitives against plain loops --------------------------------


def dot_by_loop(lattice, u, v):
    if lattice.origin == PLANE:
        s, head = u[0] * v[0], 1
    else:
        s, head = u[0] * v[1] + u[1] * v[0], 2
    for i in range(head, lattice.rank):
        s -= u[i] * v[i]
    return s


def anticanonical_by_loop(cycle):
    total = [0] * cycle.lattice.rank
    for c in cycle.curves:
        for i, x in enumerate(c.coeffs):
            total[i] += x
    return tuple(total) == tuple(-x for x in cycle.lattice.k)


coeff = st.integers(-(1 << 70), 1 << 70) | st.integers(-3, 3)


@st.composite
def lattices(draw):
    origin = draw(st.sampled_from((PLANE, QUADRIC)))
    rank = draw(st.integers(1 if origin == PLANE else 2, 9))
    k = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)))
    return PicardLattice(origin, rank, k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dot_matches_the_loop(data):
    lattice = data.draw(lattices())
    vec = st.lists(coeff, min_size=lattice.rank, max_size=lattice.rank).map(tuple)
    u, v = data.draw(vec), data.draw(vec)
    assert lattice.dot(u, v) == dot_by_loop(lattice, u, v)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_anticanonical_matches_the_loop(data):
    lattice = data.draw(lattices())
    vec = st.lists(st.integers(-3, 3), min_size=lattice.rank, max_size=lattice.rank)
    curves = [DivisorClass(lattice, tuple(c)) for c in data.draw(st.lists(vec, max_size=5))]
    if data.draw(st.booleans()):
        # close the cycle up to -K, so that True comes up as well
        rest = [-k for k in lattice.k]
        for c in curves:
            rest = [r - x for r, x in zip(rest, c.coeffs)]
        curves.append(DivisorClass(lattice, tuple(rest)))
    cycle = BoundaryCycle(lattice, tuple(curves))
    assert is_anticanonical(cycle) == anticanonical_by_loop(cycle)


def test_empty_cycle_is_anticanonical_only_when_k_vanishes():
    for k in ((0, 0), (0, 1), (-2, -2)):
        cycle = BoundaryCycle(PicardLattice(QUADRIC, 2, k), ())
        assert is_anticanonical(cycle) == (k == (0, 0)) == anticanonical_by_loop(cycle)


def test_lattice_equality_shortcuts_only_identity():
    lat = plane_lattice().blow_up(3)
    assert lat == lat
    assert lat == PicardLattice(PLANE, 4, (-3, 1, 1, 1))
    assert lat != PicardLattice(PLANE, 4, (-3, 1, 1, 0))
    assert lat != PicardLattice(QUADRIC, 4, (-3, 1, 1, 1))
    assert NgonType([0, True, -2.0]).ints == (0, 1, -2)
