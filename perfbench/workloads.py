"""Seeded request lists for the three workloads.

A request is a plain dict:

    {"kind": ..., "argv": [...], "check": {...}, "save": None | "map-<k>.json"}

``argv`` is exactly what a user passes to ``clusteraut``; ``check`` holds what
the oracle needs (parameters, the word, a seeded rational point) and never
reaches the program.  ``save`` asks the runner to store the command's output
under that name, where a later ``aut-factor --map-json`` reads it; argv
refers to the directory as ``{work}``.

Each workload is a fixed sequence of request classes (a deck) that repeats.
The order of the deck is the same for every seed, so that every prefix of
the list has the same mix of cheap and expensive classes.  Inside a class
the values of a narrow band (n, word length, pair) come up in turn from a
seeded start, and the seed picks the rest (word letters, scalings, points).
A run that is cut at a fixed time therefore executes nearly the same mix on
every seed, which keeps throughput and tail latency steady.
"""
from __future__ import annotations

import json
import random
from collections import Counter

LIST_LENGTH = 6000  # requests; more than any workload completes in a run

# (a, b) pairs of the finite types
FINITE = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]

# -- cluster-walk ------------------------------------------------------------
# (a, b, lowest n, highest n, copies per deck); n runs through the band.
# The bands stop where the seed answers within about 1 s under the default
# term budget (see README.md for what lies beyond).  The deck is shaped so
# that latency_p95_ms is steady: the top bands (0.26-0.84 s) make 3% of the
# requests and lie above p95; the plateau, four requests of nearly the same
# cost (0.20-0.22 s) with four copies each, makes 8% and holds p95 whatever
# the seed; everything else takes 1-170 ms.
CLUSTER_BANDS = [
    # top
    (2, 2, 20, 24, 1), (2, 2, -22, -17, 1), (4, 1, 19, 20, 1),
    (4, 1, -18, -15, 1), (1, 4, 20, 20, 1), (1, 4, -18, -16, 1),
    # plateau
    (2, 2, 19, 19, 4), (2, 2, 21, 21, 4), (4, 1, 17, 18, 4), (1, 4, 18, 19, 4),
    # the rest
    (1, 4, -15, -14, 3),
    (2, 2, 3, 9, 6), (2, 2, 10, 16, 3), (2, 2, -6, 0, 6), (2, 2, -14, -7, 3),
    (4, 1, 3, 10, 6), (4, 1, 11, 16, 3), (4, 1, -6, 0, 6), (4, 1, -14, -7, 3),
    (1, 4, 3, 10, 6), (1, 4, 11, 17, 3), (1, 4, -6, 0, 6), (1, 4, -13, -7, 3),
    (3, 2, 3, 6, 9), (3, 2, 7, 8, 3), (3, 2, -3, 0, 9), (3, 2, -5, -4, 3),
    (2, 3, 3, 6, 9), (2, 3, 7, 8, 3), (2, 3, -3, 0, 9), (2, 3, -5, -4, 3),
] + [(a, b, -30, 30, 9) for a, b in FINITE]

# (a, b, lowest n_max, highest n_max), three copies each; finite types also
# get n_max below the period, where the answer is "none"
PERIOD_BANDS = [
    (2, 2, 6, 12), (4, 1, 6, 10), (1, 4, 6, 10), (3, 2, 3, 4), (2, 3, 3, 4),
] + [(a, b, 4, 30) for a, b in FINITE]

# -- aut-roundtrip -----------------------------------------------------------
# (a, b, shortest, longest reduced s2/s3 word); (3,2) and (2,3) stop at 4
# letters because 5 letters already cost about 1 s per request
AUT_PAIRS = [
    (1, 1, 1, 8), (2, 1, 1, 8), (3, 1, 1, 8), (2, 2, 2, 7),
    (4, 1, 2, 6), (3, 2, 1, 4), (2, 3, 1, 4),
]

# -- group-geom --------------------------------------------------------------
GROUP_MAX = 6
PAIRS = [(a, b) for a in range(1, GROUP_MAX + 1) for b in range(1, GROUP_MAX + 1)]
MODELS = ["barx", "pentagon", "triangle", "square", "y"]


def models_for(a: int, b: int):
    """Valid (model, origin) pairs of geom-boundary at (a, b)."""
    out = [("barx", "plane"), ("pentagon", "plane")]
    if b == 1:
        out += [("triangle", "plane"), ("triangle", "quadric")]
    if a >= 2 and b >= 2:
        out += [("square", "plane"), ("square", "quadric")]
    if b == 1 and a * b <= 3:
        out.append(("y", "plane"))
    return out


WORKLOADS = ("cluster-walk", "aut-roundtrip", "group-geom")


# -- helpers -----------------------------------------------------------------


def _point(rng: random.Random) -> list:
    """A rational seed (y1, y2) = (p1/q1, p2/q2), positive so that no
    coordinate of its orbit vanishes, large so it sits on no special curve."""
    return [rng.randint(1, 10**9) for _ in range(4)]


def _argv(cmd: str, a: int, b: int, *rest) -> list:
    return [cmd, "--a", str(a), "--b", str(b), *rest, "--format", "json"]


def _request(kind, argv, save=None, **check) -> dict:
    return {"kind": kind, "argv": argv, "check": check, "save": save}


def _dihedral_word(rng, a, b, length: int, k: int) -> str:
    """Alternating s2/s3 word of the given reduced length.  The counter k
    picks in turn: no decoration, a scaling at the end, a scaling in front,
    a scaling in front and (when a == b) the reversal at the end; then the
    first letter.  The scaling's indices are random."""
    letter = ("s2", "s3")[(k // 4) % 2]
    tokens = []
    for _ in range(length):
        tokens.append(letter)
        letter = "s3" if letter == "s2" else "s2"
    scale = f"m({rng.randrange(a)},{rng.randrange(b)})"
    variant = k % 4
    if variant == 1:
        tokens.append(scale)
    elif variant >= 2:
        tokens.insert(0, scale)
    if variant == 3 and a == b:
        tokens.append("h")
    return " ".join(tokens)


def _finite_order_word(rng, a, b, k: int) -> str:
    """A word whose map has finite order (so aut-order answers quickly),
    the k-th of a fixed list of shapes."""
    if a * b <= 3:  # finite group: any word
        return _dihedral_word(rng, a, b, 1 + k % 6, k // 6)
    scale = f"m({rng.randrange(a)},{rng.randrange(b)})"
    if a * b > 4:  # hyperbolic: reflections s2, s3 only (sp(4) costs ~1 s)
        reflections = ["s2", "s3"]
    else:
        reflections = [f"sp({p})" for p in range(1, 5)]
    refl = reflections[k % len(reflections)]
    shapes = [refl, f"{refl} {scale}", f"{scale} {refl}"] + ([f"h {scale}"] if a == b else [])
    return shapes[(k // len(reflections)) % len(shapes)]


def _group_word(rng, a, b) -> str:
    tokens = []
    for _ in range(rng.randint(1, 5)):
        pick = rng.randrange(5 if a == b else 4)
        if pick == 0:
            tokens.append(f"r^{rng.randint(-6, 6)}")
        elif pick == 1:
            tokens.append(rng.choice(["s2", "s3"]))
        elif pick == 2:
            tokens.append(f"sp({rng.randint(-3, 8)})")
        elif pick == 3:
            tokens.append(f"m({rng.randint(0, 7)},{rng.randint(0, 7)})")
        else:
            tokens.append("h")
    return " ".join(tokens)


# -- decks -------------------------------------------------------------------


def _cluster_deck():
    deck = []
    for a, b, lo, hi, copies in CLUSTER_BANDS:
        deck += [("cluster", a, b, lo, hi)] * copies
    for a, b, lo, hi in PERIOD_BANDS:
        deck += [("period", a, b, lo, hi)] * 3
    return deck


def _cluster_card(rng, card, slot, k):
    kind, a, b, lo, hi = card
    n = lo + k % (hi - lo + 1)
    if kind == "cluster":
        return [_request("cluster", _argv("cluster", a, b, "--n", str(n)),
                         a=a, b=b, n=n, point=_point(rng))]
    return [_request("period", _argv("period", a, b, "--n-max", str(n)),
                     a=a, b=b, n_max=n)]


def _aut_deck():
    deck = []
    for a, b, lo, hi in AUT_PAIRS:
        deck += [("roundtrip", a, b, lo, hi), ("factor", a, b, lo, hi), ("order", a, b, lo, hi)]
    return deck


def _aut_card(rng, card, slot, k):
    kind, a, b, lo, hi = card
    if kind == "order":
        word = _finite_order_word(rng, a, b, k)
        return [_request("aut-order", _argv("aut-order", a, b, *word.split()),
                         a=a, b=b, word=word, cap=16, point=_point(rng))]
    width = hi - lo + 1
    word = _dihedral_word(rng, a, b, lo + k % width, k // width)
    if kind == "factor":
        return [_request("aut-factor", _argv("aut-factor", a, b, *word.split()),
                         a=a, b=b, word=word, point=_point(rng))]
    name = f"map-{slot}.json"
    return [
        _request("aut-compose", _argv("aut-compose", a, b, *word.split()), save=name,
                 a=a, b=b, word=word, point=_point(rng)),
        _request("aut-factor-json",
                 _argv("aut-factor", a, b, "--map-json", "{work}/" + name),
                 a=a, b=b, word=word, point=_point(rng)),
    ]


def _group_deck():
    return (
        ["group-mul"] * 10 + ["group-structure"] * 3 + ["group-enumerate"]
        + ["geom-boundary"] * 4 + ["classify"] * 2 + ["verify-geometry", "verify-errata"]
    )


def _group_card(rng, card, slot, k):
    a, b = PAIRS[k % len(PAIRS)]
    if card == "group-mul":
        left, right = _group_word(rng, a, b), _group_word(rng, a, b)
        return [_request("group-mul", _argv("group-mul", a, b, left, right),
                         a=a, b=b, left=left, right=right, point=_point(rng))]
    if card == "group-structure":
        return [_request(card, _argv(card, a, b), a=a, b=b)]
    if card == "group-enumerate":
        a, b = FINITE[k % len(FINITE)]
        return [_request(card, _argv(card, a, b), a=a, b=b, point=_point(rng))]
    if card == "geom-boundary":
        model = rng.choice(MODELS)
        a, b, origin = rng.choice(
            [(x, y, o) for x, y in PAIRS for m, o in models_for(x, y) if m == model]
        )
        return [_request(card, _argv(card, a, b, "--model", model, "--origin", origin),
                         a=a, b=b, model=model, origin=origin)]
    if card == "classify":
        a, b = rng.randint(2, GROUP_MAX), rng.randint(2, GROUP_MAX)
        c, d = rng.choice([(a, b), (b, a), (rng.randint(2, GROUP_MAX), rng.randint(2, GROUP_MAX))])
        return [_request(card, _argv(card, a, b, "--c", str(c), "--d", str(d)),
                         a=a, b=b, c=c, d=d)]
    suite = card.split("-")[1]
    return [_request("verify", ["verify", "--suite", suite, "--format", "json"], suite=suite)]


_BUILDERS = {
    "cluster-walk": (_cluster_deck, _cluster_card),
    "aut-roundtrip": (_aut_deck, _aut_card),
    "group-geom": (_group_deck, _group_card),
}


def requests(workload: str, seed: int):
    """Yield the request list of a workload, one request at a time: passes
    over its deck, LIST_LENGTH requests or a few more.  The list is made
    lazily so that it adds nothing to the memory of the process that runs
    it."""
    deck_fn, card_fn = _BUILDERS[workload]
    deck = deck_fn()
    # one fixed interleaving of the deck, the same for every seed
    random.Random(0).shuffle(deck)
    rng = random.Random(f"{workload}/{seed}")
    # Systematic sampling: the j-th copy of a card in the deck gets the
    # counter base + j + copies * t on pass t, from which it takes n, a word
    # length or a pair in turn; base is seeded.  The copies of a card take
    # consecutive values within a pass, and every value of a band comes up
    # equally often whatever the seed, so the cost of a pass barely depends
    # on it.
    copies = Counter(deck)
    base = {}
    seen = Counter()
    start = []
    for card in deck:
        if card not in base:
            base[card] = rng.randrange(1 << 20)
        start.append(base[card] + seen[card])
        seen[card] += 1
    made = 0
    turn = 0
    while made < LIST_LENGTH:
        for i, card in enumerate(deck):
            for req in card_fn(rng, card, made, start[i] + copies[card] * turn):
                made += 1
                yield req
        turn += 1


def checksum(workload: str, seed: int):
    """(length, SHA-256 prefix) of the request list, hashed request by
    request.  hashlib is imported here, not at the top: loading it adds
    about 3.5 MB to a process, and the measured process must not carry it."""
    import hashlib

    digest = hashlib.sha256()
    count = 0
    for req in requests(workload, seed):
        digest.update(json.dumps(req, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
        count += 1
    return count, digest.hexdigest()[:16]
