"""Picard-lattice bookkeeping for boundary cycles of compactified surfaces.

Surfaces are tracked through their divisor class lattices only: blow-ups
extend the lattice by (-1)-classes, contractions push classes forward and
adjust the canonical class.  Self-intersections are always computed from
the intersection form, never stored.  The n-gon move calculus (elementary
moves, fibered modifications, standardness, the square invariant) works on
plain integer cycles.
"""

from __future__ import annotations

from functools import lru_cache

from .budget import WORK_FACTOR, current_max_terms
from .errors import (
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
from .poly import Params
from .record import Record

PLANE = "plane"
QUADRIC = "quadric"


class PicardLattice(Record):
    """Divisor class lattice of a rational surface model.

    origin "plane": basis (L, e1, ..., er) with L^2 = 1, ei^2 = -1.
    origin "quadric": basis (f1, f2, e1, ..., er) with f1.f2 = 1,
    f1^2 = f2^2 = 0, ei^2 = -1.  Mixed products vanish.

    ``k`` is the canonical class of the model currently described; after a
    contraction the ambient rank is kept and only ``k`` moves, so lattices
    of contracted models embed in the ambient one.
    """

    __slots__ = ("origin", "rank", "k")

    def __init__(self, origin: str, rank: int, k: tuple):
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "k", k)
        if origin not in (PLANE, QUADRIC):
            raise ValueError(f"unknown origin {origin!r}")
        if len(k) != rank:
            raise ValueError("canonical class length does not match rank")

    # compared by every DivisorClass.dot
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.rank == other.rank
            and self.origin == other.origin
            and self.k == other.k
        )

    __hash__ = Record.__hash__  # defining __eq__ would unset it

    def dot(self, u: tuple, v: tuple) -> int:
        if self.origin == PLANE:
            s = u[0] * v[0]
            head = 1
        else:
            s = u[0] * v[1] + u[1] * v[0]
            head = 2
        for i in range(head, self.rank):
            s -= u[i] * v[i]
        return s

    def blow_up(self, count: int = 1) -> "PicardLattice":
        """Extend by ``count`` exceptional classes; K gains each new class."""
        return PicardLattice(self.origin, self.rank + count, self.k + (1,) * count)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.rank))


def plane_lattice() -> PicardLattice:
    return PicardLattice(PLANE, 1, (-3,))


def quadric_lattice() -> PicardLattice:
    return PicardLattice(QUADRIC, 2, (-2, -2))


class DivisorClass(Record):
    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: PicardLattice, coeffs: tuple):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != lattice.rank:
            raise ValueError("coefficient length does not match lattice rank")

    def dot(self, other: "DivisorClass") -> int:
        if self.lattice != other.lattice:
            raise StructureMismatch("classes live in different lattices")
        return self.lattice.dot(self.coeffs, other.coeffs)

    @property
    def self_intersection(self) -> int:
        return self.lattice.dot(self.coeffs, self.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.lattice != other.lattice:
            raise StructureMismatch("classes live in different lattices")
        return DivisorClass(
            self.lattice,
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if self.lattice != other.lattice:
            raise StructureMismatch("classes live in different lattices")
        return DivisorClass(
            self.lattice,
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)),
        )


class NgonType(Record):
    """Cyclic sequence of self-intersections, equal up to rotation/reversal."""

    __slots__ = ("ints",)

    def __init__(self, ints):
        object.__setattr__(self, "ints", tuple(int(x) for x in ints))

    def __repr__(self) -> str:
        return f"NgonType({self.ints!r})"

    def canonical(self) -> tuple:
        """Lexicographically minimal rotation over both orientations."""
        seq = self.ints
        n = len(seq)
        if n == 0:
            return ()
        best = None
        for base in (seq, seq[::-1]):
            for r in range(n):
                cand = base[r:] + base[:r]
                if best is None or cand < best:
                    best = cand
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, NgonType):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, i):
        return self.ints[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.ints) + ")"


class BoundaryCycle(Record):
    """Ordered cycle of boundary curve classes, plus off-cycle exceptionals."""

    __slots__ = ("lattice", "curves", "extras")

    def __init__(self, lattice: PicardLattice, curves: tuple, extras: tuple = ()):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "extras", extras)

    @property
    def n(self) -> int:
        return len(self.curves)

    def ngon_type(self) -> NgonType:
        return NgonType(c.self_intersection for c in self.curves)

    def rotated(self, shift: int) -> "BoundaryCycle":
        s = shift % self.n
        return BoundaryCycle(
            self.lattice, self.curves[s:] + self.curves[:s], self.extras
        )

    def check_ngon(self) -> None:
        """Assert the cycle intersection pattern; raises on violation."""
        n = self.n
        for i in range(n):
            for j in range(i, n):
                d = self.curves[i].dot(self.curves[j])
                if i == j:
                    continue
                adjacent = (j - i) % n in (1, n - 1)
                want = 1 if adjacent else 0
                if n == 2:
                    # a 2-cycle has both "sides" adjacent; skip the exact count
                    continue
                if d != want:
                    raise EngineError(
                        f"curves {i},{j} meet {d} times, expected {want}"
                    )


def _rebind(cycle: BoundaryCycle, lattice: PicardLattice) -> tuple:
    """Zero-pad all classes of the cycle into a larger lattice."""
    pad = lattice.rank - cycle.lattice.rank
    curves = tuple(
        DivisorClass(lattice, c.coeffs + (0,) * pad) for c in cycle.curves
    )
    extras = tuple(
        DivisorClass(lattice, c.coeffs + (0,) * pad) for c in cycle.extras
    )
    return curves, extras


def corner_blowup(cycle: BoundaryCycle, i: int) -> BoundaryCycle:
    """Blow up the corner where curves i and i+1 meet.

    The new (-1)-class is inserted between them; both neighbours become
    strict transforms and drop by one in self-intersection.
    """
    n = cycle.n
    i %= n
    j = (i + 1) % n
    lat = cycle.lattice.blow_up()
    curves, extras = _rebind(cycle, lat)
    e = DivisorClass(lat, lat.basis_vector(lat.rank - 1))
    curves = list(curves)
    curves[i] = curves[i] - e
    curves[j] = curves[j] - e
    if j == 0:
        out = curves + [e]
    else:
        out = curves[: i + 1] + [e] + curves[i + 1 :]
    return BoundaryCycle(lat, tuple(out), extras)


def blowup_on_curve(cycle: BoundaryCycle, i: int, count: int) -> BoundaryCycle:
    """Blow up ``count`` interior points of curve i.

    The exceptional classes stay off the cycle (recorded as extras); the
    curve's self-intersection drops by count.  The lattice is extended once
    by all ``count`` classes, and curve i loses their sum.
    """
    if count < 1:
        raise PreconditionViolated("count must be at least 1")
    i %= cycle.n
    lat = cycle.lattice.blow_up(count)
    curves, extras = _rebind(cycle, lat)
    curves = list(curves)
    curves[i] = DivisorClass(lat, cycle.curves[i].coeffs + (-1,) * count)
    new = tuple(
        DivisorClass(lat, lat.basis_vector(r))
        for r in range(cycle.lattice.rank, lat.rank)
    )
    return BoundaryCycle(lat, tuple(curves), extras + new)


def contract(cycle: BoundaryCycle, index: int) -> BoundaryCycle:
    """Contract the (-1)-curve at ``index``.

    Classes are pushed forward by D -> D + (D.E)E, which restricts the
    form to the orthogonal complement of E; the canonical class moves the
    same way, so the ambient lattice is kept and K gains +1 self-pairing.
    """
    if cycle.n < 3:
        raise PreconditionViolated("contraction needs a cycle of length >= 3")
    index %= cycle.n
    e = cycle.curves[index]
    if e.self_intersection != -1:
        raise NotMinusOne(
            f"curve {index} has self-intersection {e.self_intersection}"
        )
    lat = cycle.lattice
    k_new = tuple(
        x + lat.dot(lat.k, e.coeffs) * y for x, y in zip(lat.k, e.coeffs)
    )
    lat2 = PicardLattice(lat.origin, lat.rank, k_new)

    def push(d: DivisorClass) -> DivisorClass:
        m = lat.dot(d.coeffs, e.coeffs)
        return DivisorClass(
            lat2, tuple(x + m * y for x, y in zip(d.coeffs, e.coeffs))
        )

    curves = tuple(
        push(c) for idx, c in enumerate(cycle.curves) if idx != index
    )
    extras = tuple(push(c) for c in cycle.extras)
    return BoundaryCycle(lat2, curves, extras)


def is_anticanonical(cycle: BoundaryCycle) -> bool:
    """True when the curve classes sum to -K."""
    total = [0] * cycle.lattice.rank
    for c in cycle.curves:
        for i, x in enumerate(c.coeffs):
            total[i] += x
    return tuple(total) == tuple(-x for x in cycle.lattice.k)


def canonical_degree(lattice: PicardLattice) -> int:
    return lattice.dot(lattice.k, lattice.k)


def is_weak_del_pezzo(lattice: PicardLattice, cycle: BoundaryCycle) -> bool:
    """K.K > 0 and every boundary curve meets -K non-negatively.

    A boundary curve C in an anticanonical cycle has C.(-K) = C^2 + 2, so
    the test reduces to C^2 >= -2 on the cycle.
    """
    if not is_anticanonical(cycle):
        raise NotAnticanonical("cycle does not represent -K")
    if canonical_degree(lattice) <= 0:
        return False
    return all(c.self_intersection + 2 >= 0 for c in cycle.curves)


# -- scripted compactifications --------------------------------------------


def _build_bar_x(params: Params) -> BoundaryCycle:
    """Three coordinate lines in the plane; interior points blown up on two
    of them.  Cycle order: untouched line, the one with b points, the one
    with a points — types (1, 1-b, 1-a)."""
    lat = plane_lattice()
    line = DivisorClass(lat, (1,))
    cycle = BoundaryCycle(lat, (line, line, line))
    cycle = blowup_on_curve(cycle, 1, params.b)
    cycle = blowup_on_curve(cycle, 2, params.a)
    return cycle


def _build_pentagon(params: Params) -> BoundaryCycle:
    """Blow up the two corners of the untouched line of the triangle; the
    cycle is rotated so the types read (-1, -b, -a, -1, -1)."""
    cycle = _build_bar_x(params)
    cycle = corner_blowup(cycle, 0)  # between the 1-curve and the (1-b)-curve
    cycle = corner_blowup(cycle, 3)  # between the (1-a)-curve and the 1-curve
    return cycle.rotated(1)


def _build_triangle_plane(params: Params) -> BoundaryCycle:
    cycle = _build_pentagon(params)
    cycle = contract(cycle, 1)
    cycle = contract(cycle, 2)
    return cycle


def _build_triangle_quadric(params: Params) -> BoundaryCycle:
    """Two ruling fibers and the diagonal; the a points sit on the diagonal."""
    lat = quadric_lattice()
    f1 = DivisorClass(lat, (1, 0))
    f2 = DivisorClass(lat, (0, 1))
    diagonal = DivisorClass(lat, (1, 1))
    cycle = BoundaryCycle(lat, (f1, diagonal, f2))
    return blowup_on_curve(cycle, 1, params.a)


def _build_square_plane(params: Params) -> BoundaryCycle:
    return contract(_build_pentagon(params), 4)


def _build_square_quadric(params: Params) -> BoundaryCycle:
    """Four ruling fibers in a cycle; b points on the second curve and a
    points on the third."""
    lat = quadric_lattice()
    f1 = DivisorClass(lat, (1, 0))
    f2 = DivisorClass(lat, (0, 1))
    cycle = BoundaryCycle(lat, (f1, f2, f1, f2))
    cycle = blowup_on_curve(cycle, 1, params.b)
    cycle = blowup_on_curve(cycle, 2, params.a)
    return cycle


def _build_y(params: Params) -> BoundaryCycle:
    if params.a == 1:
        return _build_pentagon(params)
    if params.a == 2:
        return _build_triangle_plane(params)
    # a == 3: blow up the corner between the two 0-curves of the triangle
    return corner_blowup(_build_triangle_plane(params), 2)


#: Bound on the compactification cache: a script's lattice has rank at most
#: a + b + 4, and pairs whose lattices could pass this rank are built
#: uncached.  An entry holds about rank^2 coefficients (10.9 KB at rank 23),
#: so the cache's 256 entries take at most 2.8 MB.
COMPACTIFICATION_CACHE_RANK = 24


def build_compactification(
    params: Params, model: str, origin: str = PLANE
):
    """Scripted boundary construction; returns (lattice, cycle).

    Models: "BarX", "Pentagon", "TriangleT" (b = 1), "SquareS" (a, b >= 2),
    "Y" (b = 1 and ab <= 3).  TriangleT and SquareS also exist with
    origin="quadric", giving the ruled-surface scripts used as
    cross-checks; the other models are plane-rooted only.

    Each (params, model, origin) is built once per process: the results are
    immutable, so a cached one is the one a cold build gives.  Refusals
    (ModelUnavailable) are not cached.

    Every class is a dense tuple of length rank <= a + b + 4, so a script
    costs about rank^2 coefficients: it is refused, cached or not, when
    that passes ``WORK_FACTOR`` times the term budget.
    """
    rank = params.a + params.b + 4
    if rank * rank > WORK_FACTOR * current_max_terms():
        raise BudgetExceeded(f"classes of rank {rank} exceed budget")
    if rank > COMPACTIFICATION_CACHE_RANK:
        return _build_compactification(params, model, origin)
    return _cached_compactification(params, model, origin)


def _build_compactification(params: Params, model: str, origin: str):
    a, b = params.a, params.b
    if model in ("BarX", "Pentagon", "Y") and origin != PLANE:
        raise ModelUnavailable(f"{model} is only scripted from the plane")
    if origin not in (PLANE, QUADRIC):
        raise ModelUnavailable(f"unknown origin {origin!r}")
    if model == "BarX":
        cycle = _build_bar_x(params)
    elif model == "Pentagon":
        cycle = _build_pentagon(params)
    elif model == "TriangleT":
        if b != 1:
            raise ModelUnavailable("triangle model needs b = 1")
        cycle = (
            _build_triangle_plane(params)
            if origin == PLANE
            else _build_triangle_quadric(params)
        )
    elif model == "SquareS":
        if a < 2 or b < 2:
            raise ModelUnavailable("square model needs a, b >= 2")
        cycle = (
            _build_square_plane(params)
            if origin == PLANE
            else _build_square_quadric(params)
        )
    elif model == "Y":
        if b != 1 or a * b > 3:
            raise ModelUnavailable("Y models need b = 1 and ab <= 3")
        cycle = _build_y(params)
    else:
        raise ModelUnavailable(f"unknown model {model!r}")
    cycle.check_ngon()
    return cycle.lattice, cycle


_cached_compactification = lru_cache(maxsize=256)(_build_compactification)


def boundary_summary(cycle: BoundaryCycle) -> dict:
    """JSON-ready view of a boundary cycle."""
    return {
        "origin": cycle.lattice.origin,
        "types": list(cycle.ngon_type().ints),
        "anticanonical": is_anticanonical(cycle),
        "K2": canonical_degree(cycle.lattice),
    }


# -- the n-gon move calculus -----------------------------------------------


def elementary_move(t: NgonType, i: int) -> NgonType:
    """Pivot at a 0-curve: left neighbour -1, right neighbour +1.

    The mirrored move is this one applied to the reversed cycle.
    """
    n = len(t)
    if n < 3:
        raise PreconditionViolated("elementary move needs at least 3 curves")
    i %= n
    if t[i] != 0:
        raise PivotNotZero(f"pivot entry is {t[i]}, not 0")
    ints = list(t.ints)
    ints[(i - 1) % n] -= 1
    ints[(i + 1) % n] += 1
    return NgonType(ints)


def fibered_modification_steps(t: NgonType):
    """Slide the 0-pair across the following curve; returns (type, moves).

    Starting from (0, 0, -a, ...) the pivot at position 1 is moved until
    the third entry reaches 0, which takes exactly a elementary moves and
    ends at (-a, 0, 0, ...).
    """
    n = len(t)
    if n < 3 or t[0] != 0 or t[1] != 0 or t[2] >= 0:
        raise PreconditionViolated(
            "fibered modification starts from (0, 0, -a, ...) with a >= 1"
        )
    moves = 0
    cur = t
    while cur[2] != 0:
        cur = elementary_move(cur, 1)
        moves += 1
    return cur, moves


def is_standard(t: NgonType) -> bool:
    """Two adjacent 0-curves and everything else at most -2."""
    n = len(t)
    if n < 3:
        return False
    for base in (t.ints, t.ints[::-1]):
        for r in range(n):
            seq = base[r:] + base[:r]
            if seq[0] == 0 and seq[1] == 0 and all(x <= -2 for x in seq[2:]):
                return True
    return False


def square_invariant(t: NgonType) -> tuple:
    """The unordered pair {a, b} of a standard square (0, 0, -a, -b).

    Returned as a sorted pair; elementary moves and the dihedral symmetry
    leave it unchanged.
    """
    if len(t) != 4 or not is_standard(t):
        raise NotStandardSquare(f"{t} is not a standard square")
    for base in (t.ints, t.ints[::-1]):
        for r in range(4):
            seq = base[r:] + base[:r]
            if seq[0] == 0 and seq[1] == 0:
                return tuple(sorted((-seq[2], -seq[3])))
    raise NotStandardSquare(f"{t} is not a standard square")


def isomorphism_verdict(p1: Params, p2: Params) -> bool:
    """Compare two surfaces through their standard-square invariants."""
    inv = []
    for p in (p1, p2):
        if p.a < 2 or p.b < 2:
            raise ModelUnavailable(
                "the square invariant needs a, b >= 2 on both sides"
            )
        _, cycle = build_compactification(p, "SquareS")
        inv.append(square_invariant(cycle.ngon_type()))
    return inv[0] == inv[1]
