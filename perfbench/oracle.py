"""Independent answer checks for the benchmark, in exact rational arithmetic.

Nothing here imports clusteraut.  Every check works from the request's own
data (the parameters, the word, a seeded rational point) and the JSON the
command printed:

* the recurrence y_{n-1} y_{n+1} = y_n^c + 1 is run on a rational point
  (y1, y2) with fractions.Fraction;
* a generator word moves a point of X(a, b) by each generator's defining
  formula, written on the whole sequence (Y_n) that the point extends to:
  sp(p) sends Z_n to Z_{2p-n} (s2 = sp(2), s3 = sp(3), r = s2 s3), the
  reversal h sends Z_n to Z_{5-n}, and the scaling m(i, j) multiplies Z_n by
  nu^-1, mu, nu, mu^-1 for n = 1, 2, 3, 0 (mod 4).  A moved point is kept
  as Z_n = t^w(n mod 4) * Y_{eps*n + c}.  Two motions are compared by the
  coordinates they give the point: rationally for the finite types (where
  (Y_n) is periodic) and by their index map and twists otherwise, where all
  Y_n are distinct;
* a map printed as JSON is evaluated at the point over Q[t]/(t^m - 1).

``check(request, code, stdout)`` returns None when the answer is right and
a short reason otherwise.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

PERIODS = {1: 5, 2: 6, 3: 8}  # recurrence period by a*b (finite types)
GROUP_ORDERS = {1: 10, 2: 12, 3: 24}
DIHEDRAL_ORDERS = {1: 10, 2: 6, 3: 8}


# -- the recurrence on a rational point --------------------------------------


class Sequence:
    """Y_n for all n, from a rational seed (Y_1, Y_2), computed on demand."""

    def __init__(self, a: int, b: int, y1: Fraction, y2: Fraction):
        self.a, self.b = a, b
        self.period = PERIODS.get(a * b)
        self.values = {1: y1, 2: y2}
        self.lo, self.hi = 1, 2

    def _exp(self, middle: int) -> int:
        return self.a if middle % 2 == 0 else self.b

    def __getitem__(self, n: int) -> Fraction:
        if self.period is not None:
            n = (n - 1) % self.period + 1
        v = self.values
        while n > self.hi:
            h = self.hi
            v[h + 1] = (v[h] ** self._exp(h) + 1) / v[h - 1]
            self.hi += 1
        while n < self.lo:
            lo = self.lo
            v[lo - 1] = (v[lo] ** self._exp(lo) + 1) / v[lo + 1]
            self.lo -= 1
        return v[n]


def seed_point(check: dict) -> tuple:
    p1, q1, p2, q2 = check["point"]
    return Fraction(p1, q1), Fraction(p2, q2)


# -- words and how they move a point -----------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(s2|s3|h|id)|sp\(\s*(-?\d+)\s*\)|m\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)"
    r"|r(?:\^(-?\d+))?)"
)


def parse_word(text: str) -> list:
    """Atoms ('sp', p), ('h',), ('m', i, j) of a word; s2, s3 and r^k expand."""
    atoms = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt or mt.end() == pos:
            raise ValueError(f"bad word {text!r}")
        pos = mt.end()
        name, sp, mi, mj, rk = mt.groups()
        if name in ("s2", "s3"):
            atoms.append(("sp", int(name[1])))
        elif name == "h":
            atoms.append(("h",))
        elif name == "id":
            pass
        elif sp is not None:
            atoms.append(("sp", int(sp)))
        elif mi is not None:
            atoms.append(("m", int(mi), int(mj)))
        else:
            k = 1 if rk is None else int(rk)
            pair = [("sp", 2), ("sp", 3)] if k >= 0 else [("sp", 3), ("sp", 2)]
            atoms.extend(pair * abs(k))
    return atoms


class Motion:
    """Z_n = t^w[n % 4] * Y_{eps*n + c}: where a word sends the seed point."""

    __slots__ = ("a", "b", "m", "eps", "c", "w")

    def __init__(self, a: int, b: int):
        self.a, self.b, self.m = a, b, lcm(a, b)
        self.eps, self.c, self.w = 1, 0, (0, 0, 0, 0)

    def apply(self, atoms) -> "Motion":
        a, b, m = self.a, self.b, self.m
        for atom in atoms:
            kind = atom[0]
            if kind == "sp":  # Z'_n = Z_{2p-n}
                p = atom[1]
                self.c += 2 * p * self.eps
                self.eps = -self.eps
                self.w = tuple(self.w[(2 * p - n) % 4] for n in range(4))
            elif kind == "h":  # Z'_n = Z_{5-n}; defined for a == b only
                if a != b:
                    raise ValueError("h needs a == b")
                self.c += 5 * self.eps
                self.eps = -self.eps
                self.w = tuple(self.w[(5 - n) % 4] for n in range(4))
            else:  # scaling by mu = t^(m/a*i), nu = t^(m/b*j)
                mu = (m // a) * (atom[1] % a)
                nu = (m // b) * (atom[2] % b)
                tau = (-mu, -nu, mu, nu)  # n = 0, 1, 2, 3 (mod 4)
                self.w = tuple((x + y) % m for x, y in zip(self.w, tau))
        return self

    def coords(self):
        """(index, t-exponent) of the four coordinates y1..y4."""
        return tuple(
            (self.eps * i + self.c, self.w[i % 4] % self.m) for i in (1, 2, 3, 4)
        )

    def key(self, seq: Sequence):
        """Comparable image of the seed point."""
        if seq.period is None:
            return self.coords()
        return tuple((seq[k], w) for k, w in self.coords())


def motion(a: int, b: int, word: str) -> Motion:
    return Motion(a, b).apply(parse_word(word))


def word_order(a: int, b: int, word: str, seq: Sequence, cap: int):
    """Smallest k <= cap with word^k fixing the point, or None."""
    atoms = parse_word(word)
    home = Motion(a, b).key(seq)
    mo = Motion(a, b)
    for k in range(1, cap + 1):
        if mo.apply(atoms).key(seq) == home:
            return k
    return None


# -- Q[t]/(t^m - 1) ------------------------------------------------------------


def vmul(x: list, y: list) -> list:
    m = len(x)
    out = [Fraction(0)] * m
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                if v:
                    out[(i + j) % m] += u * v
    return out


def vpow(x: list, k: int) -> list:
    out = [Fraction(1)] + [Fraction(0)] * (len(x) - 1)
    for _ in range(k):
        out = vmul(out, x)
    return out


def vone_plus(x: list) -> list:
    return [x[0] + 1] + list(x[1:])


def eval_rows(rows, point, m: int) -> list:
    """Value at a rational point of a polynomial given as JSON term rows
    [[e1, e2, e3, e4], coefficient vector]; the result lies in Q[t]/(t^m-1).

    Works over the integers after clearing denominators, one variable at a
    time, so large polynomials cost one big-integer product per term."""
    acc = [0] * m
    if not rows:
        return [Fraction(0)] * m
    nums = [x.numerator for x in point]
    dens = [x.denominator for x in point]
    lo = [min(r[0][i] for r in rows) for i in range(4)]
    hi = [max(r[0][i] for r in rows) for i in range(4)]
    cache = [dict() for _ in range(4)]

    def factor(i: int, e: int) -> int:
        got = cache[i].get(e)
        if got is None:
            got = nums[i] ** (e - lo[i]) * dens[i] ** (hi[i] - e)
            cache[i][e] = got
        return got

    for exps, vec in rows:
        w = factor(0, exps[0]) * factor(1, exps[1]) * factor(2, exps[2]) * factor(3, exps[3])
        for k, c in enumerate(vec):
            if c:
                acc[k] += c * w
    scale = Fraction(1)
    for i in range(4):
        scale *= Fraction(nums[i]) ** lo[i] * Fraction(dens[i]) ** -hi[i]
    return [scale * x for x in acc]


def point_vector(value: Fraction, w: int, m: int) -> list:
    out = [Fraction(0)] * m
    out[w % m] = value
    return out


# -- per-command checks ------------------------------------------------------


def _check_cluster(req, out):
    ck = req["check"]
    a, b, n = ck["a"], ck["b"], ck["n"]
    seq = Sequence(a, b, *seed_point(ck))
    if out["n"] != n or out["num_terms"] != len(out["terms"]):
        return "echoed fields disagree"
    if out["positive"] != all(vec[0] > 0 for _, vec in out["terms"]):
        return "positivity flag wrong"
    point = (seq[1], seq[2], seq[3], seq[4])
    got = eval_rows(out["terms"], point, 1)[0]
    if got != seq[n]:
        return f"y_{n} disagrees with the recurrence at the seed point"
    return None


def _check_period(req, out):
    ck = req["check"]
    period = PERIODS.get(ck["a"] * ck["b"])
    want = period if period is not None and period <= ck["n_max"] else None
    if out["period"] != want:
        return f"period {out['period']}, expected {want}"
    return None


def _moved_point(a, b, word, seq):
    """The point a word moves the seed to, as four Q[t]/(t^m-1) vectors."""
    mo = motion(a, b, word)
    return [point_vector(seq[k], w, mo.m) for k, w in mo.coords()]


def _check_aut_compose(req, out):
    ck = req["check"]
    a, b = ck["a"], ck["b"]
    m = lcm(a, b)
    if not out.get("verified"):
        return "map not verified"
    seq = Sequence(a, b, *seed_point(ck))
    point = (seq[1], seq[2], seq[3], seq[4])
    img = [eval_rows(rows, point, m) for rows in out["images"]]
    if vmul(img[0], img[2]) != vone_plus(vpow(img[1], a)):
        return "images break y1*y3 = y2^a + 1"
    if vmul(img[1], img[3]) != vone_plus(vpow(img[2], b)):
        return "images break y2*y4 = y3^b + 1"
    if img != _moved_point(a, b, ck["word"], seq):
        return "images move the point differently from the word"
    return None


def _same_motion(a, b, w1, w2, seq) -> bool:
    return motion(a, b, w1).key(seq) == motion(a, b, w2).key(seq)


def _check_aut_factor(req, out):
    ck = req["check"]
    a, b = ck["a"], ck["b"]
    if not out.get("recomposes"):
        return "factorization does not recompose"
    seq = Sequence(a, b, *seed_point(ck))
    if not _same_motion(a, b, ck["word"], out["word"], seq):
        return f"factored word {out['word']!r} moves the point differently"
    return None


def _check_aut_order(req, out):
    ck = req["check"]
    seq = Sequence(ck["a"], ck["b"], *seed_point(ck))
    want = word_order(ck["a"], ck["b"], ck["word"], seq, ck["cap"])
    if out["order"] != want:
        return f"order {out['order']}, expected {want}"
    return None


def _check_group_mul(req, out):
    ck = req["check"]
    a, b = ck["a"], ck["b"]
    seq = Sequence(a, b, *seed_point(ck))
    for given, printed in ((ck["left"], out["left"]), (ck["right"], out["right"])):
        if not _same_motion(a, b, given, printed, seq):
            return f"normal form {printed!r} differs from {given!r}"
    if not _same_motion(a, b, ck["left"] + " " + ck["right"], out["product"], seq):
        return f"product {out['product']!r} differs from left*right"
    return None


def _check_group_structure(req, out):
    a, b = req["check"]["a"], req["check"]["b"]
    ab = a * b
    order = GROUP_ORDERS.get(ab)
    want = {
        "finite": order is not None,
        "group_order": order,
        "dihedral_order": DIHEDRAL_ORDERS.get(ab),
        "mu_order": ab,
        "has_swap": a == b and a >= 2,
    }
    for key, value in want.items():
        if out[key] != value:
            return f"{key} = {out[key]}, expected {value}"
    return None


def _check_group_enumerate(req, out):
    ck = req["check"]
    a, b = ck["a"], ck["b"]
    want = GROUP_ORDERS[a * b]
    if out["count"] != want or len(out["elements"]) != want:
        return f"{out['count']} elements, expected {want}"
    seq = Sequence(a, b, *seed_point(ck))
    keys = {motion(a, b, e).key(seq) for e in out["elements"]}
    if len(keys) != want:
        return "two listed elements move the point identically"
    return None


def boundary_types(a: int, b: int, model: str):
    if model == "barx":
        return [1, 1 - b, 1 - a]
    if model == "pentagon":
        return [-1, -b, -a, -1, -1]
    if model == "triangle":
        return [0, 2 - a, 0]
    if model == "square":
        return [0, -b, -a, 0]
    return {(1, 1): [-1] * 5, (2, 1): [0, 0, 0], (3, 1): [-1] * 4}[(a, b)]


def _check_geom_boundary(req, out):
    ck = req["check"]
    want = boundary_types(ck["a"], ck["b"], ck["model"])
    types = out["types"]
    if types != want:
        return f"types {types}, expected {want}"
    if not out["anticanonical"] or out["origin"] != ck["origin"]:
        return "cycle not anticanonical or wrong origin"
    # an anticanonical cycle of n >= 3 curves has K^2 = sum D_i^2 + 2n
    if out["K2"] != sum(types) + 2 * len(types):
        return f"K^2 = {out['K2']}, expected {sum(types) + 2 * len(types)}"
    return None


def _check_classify(req, out):
    ck = req["check"]
    p1, p2 = sorted((ck["a"], ck["b"])), sorted((ck["c"], ck["d"]))
    if out["invariant1"] != p1 or out["invariant2"] != p2:
        return "square invariants wrong"
    if out["isomorphic"] != (p1 == p2):
        return f"verdict {out['isomorphic']}, expected {p1 == p2}"
    return None


VERIFY_CHECKS = {"geometry": 52, "errata": 3}


def _check_verify(req, out):
    suite = req["check"]["suite"]
    entries = out["suites"][suite]
    if not out["ok"] or out["failed"] or not all(e["ok"] for e in entries):
        return "suite reports a failed check"
    if out["checks"] != VERIFY_CHECKS[suite] or len(entries) != out["checks"]:
        return f"{out['checks']} checks, expected {VERIFY_CHECKS[suite]}"
    return None


CHECKS = {
    "cluster": _check_cluster,
    "period": _check_period,
    "aut-compose": _check_aut_compose,
    "aut-factor": _check_aut_factor,
    "aut-factor-json": _check_aut_factor,
    "aut-order": _check_aut_order,
    "group-mul": _check_group_mul,
    "group-structure": _check_group_structure,
    "group-enumerate": _check_group_enumerate,
    "geom-boundary": _check_geom_boundary,
    "classify": _check_classify,
    "verify": _check_verify,
}


def check(req: dict, code: int, stdout: str):
    """None when the command exited 0 with a correct answer, else a reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    try:
        return CHECKS[req["kind"]](req, out)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        return f"malformed answer ({exc.__class__.__name__}: {exc})"


# -- self-test ---------------------------------------------------------------


def _bump_first_coeff(rows):
    rows[0][1][0] += 1


CORRUPTIONS = {
    "cluster": lambda o: _bump_first_coeff(o["terms"]),
    "period": lambda o: o.update(period=(o["period"] or 0) + 1),
    "aut-compose": lambda o: _bump_first_coeff(o["images"][1]),
    "aut-factor": lambda o: o.update(word=o["word"] + " s2"),
    "aut-factor-json": lambda o: o.update(word=o["word"] + " s3"),
    "aut-order": lambda o: o.update(order=(o["order"] or 0) + 1),
    "group-mul": lambda o: o.update(product=o["product"] + " s2"),
    "group-structure": lambda o: o.update(mu_order=o["mu_order"] + 1),
    "group-enumerate": lambda o: o["elements"].__setitem__(-1, o["elements"][0]),
    "geom-boundary": lambda o: o["types"].__setitem__(0, o["types"][0] - 1),
    "classify": lambda o: o.update(isomorphic=not o["isomorphic"]),
    "verify": lambda o: o.update(ok=False),
}


def corrupt(kind: str, stdout: str) -> str:
    """The same answer with one field made wrong."""
    out = json.loads(stdout)
    CORRUPTIONS[kind](out)
    return json.dumps(out)


def self_test(samples: dict) -> dict:
    """Corrupt each sampled answer in turn, with the others left intact, and
    count failures: exactly one more than with no corruption is a pass.

    ``samples`` maps a kind to one (request, code, stdout) that passed."""
    items = sorted(samples.items())
    base = sum(check(r, c, o) is not None for _, (r, c, o) in items)
    results = {}
    for kind, _ in items:
        failed = 0
        for other, (r, c, o) in items:
            failed += check(r, c, corrupt(other, o) if other == kind else o) is not None
        results[kind] = failed == base + 1
    return results
