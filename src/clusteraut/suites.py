"""The self-verification suites of the ``verify`` command.

Each suite is a function returning a list of entries, one per check: its
name, the expected and the observed text, and whether they agree.  Only
``cli.cmd_verify`` imports this module, so a process that answers other
commands never compiles it.
"""
from __future__ import annotations

from . import autgroup, cluster
from . import surface as surf
from .poly import Params


def _entry(name: str, expected: str, observed: str) -> dict:
    return {
        "name": name,
        "expected": expected,
        "observed": observed,
        "ok": expected == observed,
    }


def _suite_identities():
    entries = []
    for a in range(1, 5):
        for b in range(1, 5):
            ok = cluster.verify_identity_y0_y5(Params(a, b))
            entries.append(
                _entry(f"shift identities ({a},{b})", "hold", "hold" if ok else "fail")
            )
    return entries


def _suite_theorem():
    entries = []
    finite = [((1, 1), 10, 5), ((2, 1), 12, 3), ((1, 2), 12, 3), ((3, 1), 24, 4), ((1, 3), 24, 4)]
    for (a, b), order, r_order in finite:
        params = Params(a, b)
        st = autgroup.structure_of(params)
        elements = autgroup.enumerate_finite(st)
        entries.append(
            _entry(f"group order ({a},{b})", str(order), str(len(elements)))
        )
        r = surf.compose(surf.sigma2(params), surf.sigma3(params))
        entries.append(
            _entry(
                f"rotation order ({a},{b})",
                str(r_order),
                str(surf.order_of(r, cap=8)),
            )
        )
    params = Params(2, 1)
    commute = all(
        surf.equal(surf.compose(s, m), surf.compose(m, s))
        for i in range(2)
        for m in [surf.scaling(params, i, 0)]
        for s in (surf.sigma2(params), surf.sigma3(params))
    )
    entries.append(
        _entry(
            "scalings central (2,1)", "commute", "commute" if commute else "fail"
        )
    )
    for a in (2, 3):
        params = Params(a, a)
        h = surf.swap(params)
        conj = surf.equal(
            surf.compose(h, surf.compose(surf.sigma2(params), h)),
            surf.sigma3(params),
        )
        entries.append(
            _entry(
                f"reversal conjugates the involutions ({a},{a})",
                "s2 -> s3",
                "s2 -> s3" if conj else "fail",
            )
        )
        swapped = all(
            surf.equal(
                surf.compose(h, surf.compose(surf.scaling(params, i, j), h)),
                surf.scaling(params, j, i),
            )
            for i in range(a)
            for j in range(a)
        )
        entries.append(
            _entry(
                f"reversal swaps the scalings ({a},{a})",
                "m(i,j) -> m(j,i)",
                "m(i,j) -> m(j,i)" if swapped else "fail",
            )
        )
    return entries


def _type_str(seq) -> str:
    return "(" + ", ".join(str(t) for t in seq) + ")"


def _suite_geometry():
    from . import geom

    entries = []
    for a in range(1, 6):
        for b in range(1, 6):
            params = Params(a, b)
            inv = geom.boundary_invariants(params, "Pentagon")
            want = (-1, -b, -a, -1, -1)
            got = inv.ngon.ints
            anti = inv.anticanonical
            entries.append(
                _entry(
                    f"pentagon ({a},{b})",
                    _type_str(want) + ", anticanonical",
                    _type_str(got) + (", anticanonical" if anti else ", not anticanonical"),
                )
            )
    for a in range(1, 5):
        params = Params(a, 1)
        got = geom.boundary_invariants(params, "TriangleT").ngon.ints
        entries.append(
            _entry(
                f"triangle ({a},1)", _type_str((0, -(a - 2), 0)), _type_str(got)
            )
        )
    y_expect = {
        (1, 1): ((-1, -1, -1, -1, -1), 5),
        (2, 1): ((0, 0, 0), 6),
        (3, 1): ((-1, -1, -1, -1), 4),
    }
    for (a, b), (want_type, want_k2) in y_expect.items():
        inv = geom.boundary_invariants(Params(a, b), "Y")
        got = (inv.ngon.ints, inv.k2)
        entries.append(
            _entry(
                f"Y model ({a},{b})",
                f"{_type_str(want_type)}, K^2 = {want_k2}",
                f"{_type_str(got[0])}, K^2 = {got[1]}",
            )
        )
    for a in range(1, 5):
        for b in range(1, 5):
            want = a <= 2 and b <= 2
            got = geom.boundary_invariants(Params(a, b), "Pentagon").weak_del_pezzo()
            entries.append(
                _entry(
                    f"weak del Pezzo ({a},{b})",
                    "yes" if want else "no",
                    "yes" if got else "no",
                )
            )
    for a, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        params = Params(a, b)
        plane = geom.boundary_invariants(params, "SquareS", geom.PLANE)
        quad = geom.boundary_invariants(params, "SquareS", geom.QUADRIC)
        same = plane.ngon.ints == quad.ngon.ints and plane.k2 == quad.k2
        entries.append(
            _entry(
                f"square scripts agree ({a},{b})",
                "plane = quadric",
                "plane = quadric" if same else "differ",
            )
        )
    return entries


def _suite_errata():
    """Three discrepancies between the source text and the derived facts.
    The identity checks (per term budget) and the boundary invariants behind
    them are derived once per process, so a repeated run reads them back."""
    from . import geom

    entries = []

    corrected = all(
        cluster.verify_identity_y0_y5(Params(a, b))
        for a in range(1, 5)
        for b in range(1, 5)
    )
    literal_fails = all(
        not cluster.verify_identity_y5(Params(a, b), paper_literal=True)
        for a in range(1, 5)
        for b in range(1, 5)
        if a != b
    )
    entries.append(
        _entry(
            "shift-identity exponent bound",
            "corrected bound holds everywhere; literal bound fails whenever a != b",
            (
                "corrected bound holds everywhere; literal bound fails whenever a != b"
                if corrected and literal_fails
                else "no discrepancy detected"
            ),
        )
    )

    square_ok = True
    for a, b in ((2, 3), (3, 2), (2, 2)):
        params = Params(a, b)
        for origin in (geom.PLANE, geom.QUADRIC):
            got = geom.boundary_invariants(params, "SquareS", origin)
            if got.ngon.ints != (0, -b, -a, 0):
                square_ok = False
    entries.append(
        _entry(
            "standard-square boundary type",
            "derived (0,-b,-a,0); source text says (0,-(b-1),-(a-1),0)",
            (
                "derived (0,-b,-a,0); source text says (0,-(b-1),-(a-1),0)"
                if square_ok
                else "no discrepancy detected"
            ),
        )
    )

    moves_ok = all(
        geom.fibered_modification_steps(geom.NgonType((0, 0, -a, -3)))[1] == a
        for a in range(1, 6)
    )
    entries.append(
        _entry(
            "zero-pair sliding move count",
            "derived a moves; source text says a-1",
            (
                "derived a moves; source text says a-1"
                if moves_ok
                else "no discrepancy detected"
            ),
        )
    )
    return entries


SUITES = {
    "identities": _suite_identities,
    "theorem": _suite_theorem,
    "geometry": _suite_geometry,
    "errata": _suite_errata,
}
