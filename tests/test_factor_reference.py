"""Factorization and orders read in the group against the surface-only
algorithms they replace.

``reference_factorize`` (a table of every product of an alternating word of
at most five letters, a scaling and the reversal, scanned with ``equal``,
plus a degree descent) and ``reference_order_of`` (powers of the map, one
full composition at a time) are the earlier implementations, kept here as
they were.  The words, error texts and orders of the new code must match
theirs.  ``reference_factor_word`` is the group-side factorization as it
was before its residue words were read from the normal form: a table of the
first word of every such product, built with one ``from_word`` each.
``reference_word_order`` proves the group's order on composed maps, and
``reference_cmd_aut_factor`` answers a word by composing and factoring its
map: the fold proofs that replace them must give the same orders and bytes
wherever the maps can be built in time.
"""
import random
from functools import lru_cache

import pytest

from clusteraut import autgroup, cli, cluster, surface
from clusteraut.cli import main
from clusteraut.errors import EngineError, FactorizationFailed
from clusteraut.poly import LaurentPoly, Params
from clusteraut.surface import (
    EndoMap,
    compose,
    compose_word,
    equal,
    factorize,
    identity,
    make_generator,
    scaling,
    swap,
    total_degree,
)
from clusteraut.textio import parse_word, print_word
from test_bounded_time import Timeout, alarm, run_within


# -- the earlier implementations -------------------------------------------


@lru_cache(maxsize=16)
def _residue_candidates(params: Params) -> tuple:
    """All products (alternating sigma word of length <= 5) o scaling o swap^e,
    paired with their words.  Covers every finite-type group element and every
    local-minimum residue of the descent in the infinite cases."""
    dihedral = [()]
    for pair in ((("s2",), ("s3",)), (("s3",), ("s2",))):
        dihedral += [(pair * 3)[:n] for n in range(1, 6)]
    candidates = []
    swaps: list[tuple[tuple, EndoMap]] = [((), identity(params))]
    if params.a == params.b:
        swaps.append(((("h",),), swap(params)))
    for dword in dihedral:
        dend = compose_word(params, dword)
        for i in range(params.a):
            for j in range(params.b):
                if i == 0 and j == 0:
                    mword: tuple = ()
                    mend = identity(params)
                else:
                    mword = (("m", i, j),)
                    mend = scaling(params, i, j)
                for hword, hend in swaps:
                    endo = compose(dend, compose(mend, hend))
                    candidates.append((dword + mword + hword, endo))
    return tuple(candidates)


def reference_factorize(f: EndoMap, max_word: int = 16) -> list:
    """Express f as a word in s2, s3, m(i, j) and h.

    Greedy descent: pre-compose with whichever of sigma2/sigma3 strictly
    lowers the total weighted degree of the images; at a local minimum match
    the residue against the finite candidate set.  The returned word composes
    back to f (it need not equal any word f was built from).
    """
    params = f.params
    prefix: list = []
    g = f
    for _ in range(max_word + 1):
        for word, endo in _residue_candidates(params):
            if equal(g, endo):
                return prefix + list(word)
        best = None
        cur = total_degree(g)
        for letter in ("s2", "s3"):
            cand = compose(make_generator(params, (letter,)), g)
            d = total_degree(cand)
            if d < cur and (best is None or d < best[0]):
                best = (d, letter, cand)
        if best is None:
            raise FactorizationFailed(
                f"no descent and no residue match at measure {cur}"
            )
        _, letter, g = best
        prefix.append((letter,))
    raise FactorizationFailed(f"descent exceeded {max_word} steps")


_LETTERS = (("s2",), ("s3",))


def _key(x) -> tuple:
    return (x.r_exp, x.s, x.mu, x.h)


@lru_cache(maxsize=4)
def reference_residue_words(params: Params) -> dict:
    """{(k, s, mu, h): word} giving each element whose dihedral part has at
    most five letters its first word in the order: dihedral word (the
    alternating words, shortest first, those that start with s2 before
    those with s3), then m(i, j) in row order, then h when a = b."""
    st = autgroup.structure_of(params)
    dihedral = [()]
    for pair in (_LETTERS, _LETTERS[::-1]):
        dihedral += [(pair * 3)[:n] for n in range(1, 6)]
    swaps = [(), (("h",),)] if params.a == params.b else [()]
    table: dict = {}
    for d in dihedral:
        for i in range(params.a):
            for j in range(params.b):
                m = (("m", i, j),) if i or j else ()
                for h in swaps:
                    word = d + m + h
                    table.setdefault(_key(autgroup.from_word(st, word)), word)
    return table


def reference_factor_word(x, steps: int) -> list | None:
    """The leftmost letter comes off while x has no residue word; the rest
    is looked up in the table."""
    table = reference_residue_words(x.structure.params)
    prefix: list = []
    while _key(x) not in table:
        if len(prefix) == steps:
            return None
        letter = _LETTERS[0] if x.r_exp > 0 or (x.r_exp == 0 and x.s) else _LETTERS[1]
        prefix.append(letter)
        x = autgroup.gmul(autgroup.from_word(x.structure, [letter]), x)
    return prefix + list(table[_key(x)])


def reference_order_of(f: EndoMap, cap: int = 16) -> int | None:
    """Smallest k in 1..cap with f^k = id, or None if there is none."""
    g = f
    for k in range(1, cap + 1):
        if equal(g, identity(f.params)):
            return k
        if k < cap:
            g = compose(g, f)
    return None


def reference_word_order(params: Params, word, cap: int) -> int | None:
    """``word_order`` with the order proven on maps: the map of the
    normal-form word w equals the word's map f, w repeated k times maps to
    the identity, and repeated k/q times it does not, for each prime q
    dividing k.  The word is folded first, as ``aut-order`` did before
    calling it, so h at a != b is refused as the surface refuses it."""
    surface.fold_word(params, word)
    x = autgroup.from_word(autgroup.structure_of(params), word)
    k = autgroup.element_order(x)
    if k is None or k > cap:
        return None
    f = compose_word(params, word)
    w = tuple(autgroup.normal_word(x))
    one = identity(params)

    def is_identity(j: int) -> bool:
        return equal(compose_word(params, w * j), one)

    if (
        equal(compose_word(params, w), f)
        and is_identity(k)
        and not any(is_identity(k // q) for q in autgroup._prime_factors(k))
    ):
        return k
    raise EngineError(f"the order {k} of {x} does not hold on the surface")


def reference_cmd_aut_factor(args):
    """``aut-factor`` of a word answered on maps: the word's map is composed
    and factored, and ``recomposes`` composes the answer's map and compares
    it with the word's."""
    params = cli._params(args)
    f = compose_word(params, parse_word(" ".join(args.word)), args.paper_literal)
    atoms = factorize(f, max_word=args.max_word)
    recomposes = equal(compose_word(params, atoms), f)
    payload = {
        "a": params.a,
        "b": params.b,
        "word": print_word(atoms),
        "atoms": [list(atom) for atom in atoms],
        "recomposes": recomposes,
    }
    text = "\n".join(
        [f"word: {print_word(atoms)}", f"recomposes: {cli._yes(recomposes)}"]
    )
    return 0, payload, text


# -- helpers -----------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """("word", printed word) or ("error", class name, message)."""
    try:
        return ("word", print_word(fn(*args, **kwargs)))
    except EngineError as exc:
        return ("error", type(exc).__name__, str(exc))


def random_word(rng, params, length):
    atoms = [("s2",), ("s3",), ("m", rng.randrange(params.a), rng.randrange(params.b))]
    if params.a == params.b:
        atoms.append(("h",))
    if params.product <= 4:
        atoms += [("r", rng.choice((-1, 1))), ("sp", rng.randint(1, 3))]
    return [rng.choice(atoms) for _ in range(length)]


SMALL = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (4, 1), (1, 4)]


def grid_words():
    """(a, b, word) at every pair with a, b <= 4: six seeded words of one to
    four atoms from s2, s3, r, r^-2, sp(3), m(i, j) and h, with h at a != b
    too, where the surface refuses it."""
    rng = random.Random(26)
    for a in range(1, 5):
        for b in range(1, 5):
            for _ in range(6):
                atoms = ["s2", "s3", "r", "r^-2", "sp(3)", "h", f"m({rng.randrange(a)},{rng.randrange(b)})"]
                yield a, b, " ".join(rng.choice(atoms) for _ in range(rng.randint(1, 4)))


def order_within(seconds, word_order, params, atoms, cap):
    """("order", k) or ("error", class name, message) of ``word_order``, or
    None when it did not end within ``seconds``."""
    try:
        with alarm(seconds):
            return ("order", word_order(params, atoms, cap))
    except Timeout:
        return None
    except EngineError as exc:
        return ("error", type(exc).__name__, str(exc))


# -- factorization -------------------------------------------------------------


def test_factor_words_match_the_reference():
    rng = random.Random(8)
    cases = [(ab, 5, 24) for ab in SMALL] + [((3, 2), 2, 10), ((2, 3), 2, 10)]
    for (a, b), longest, count in cases:
        params = Params(a, b)
        for _ in range(count):
            f = compose_word(params, random_word(rng, params, rng.randint(0, longest)))
            assert outcome(factorize, f) == outcome(reference_factorize, f)


def test_capped_factor_words_match_the_reference():
    rng = random.Random(9)
    for a, b in ((2, 2), (4, 1), (1, 4)):
        params = Params(a, b)
        for length in (6, 7, 8):
            first = rng.choice(["s2", "s3"])
            letters = [(first,), ("s3" if first == "s2" else "s2",)]
            word = (letters * 5)[:length] + [("m", rng.randrange(a), rng.randrange(b))]
            f = compose_word(params, word)
            for cap in (1, 2):
                assert outcome(factorize, f, max_word=cap) == outcome(
                    reference_factorize, f, max_word=cap
                )


def test_paper_literal_factor_words_match_the_reference():
    rng = random.Random(10)
    for a, b in ((2, 1), (1, 3), (2, 2), (4, 1), (3, 2), (2, 3)):
        params = Params(a, b)
        for _ in range(8):
            word = random_word(rng, params, rng.randint(1, 3))
            f = compose_word(params, word, paper_literal=True)
            assert outcome(factorize, f) == outcome(reference_factorize, f)


@pytest.mark.parametrize(
    "pairs",
    [[(a, b) for a in range(1, 8) for b in range(1, 8)], [(12, 5)], [(60, 60)]],
    ids=["a,b<=7", "12,5", "60,60"],
)
def test_residue_words_match_the_reference_table(pairs):
    """Every entry of the table, 11 ab words (twice that at a = b), is the
    word read from the normal form; so are the words of longer dihedral
    parts, under every cap, at the infinite pairs."""
    rng = random.Random(12)
    for a, b in pairs:
        params = Params(a, b)
        st = autgroup.structure_of(params)
        table = reference_residue_words(params)
        for key, word in table.items():
            assert autgroup.factor_word(autgroup.GroupElement(st, *key), 0) == list(word), (a, b, key)
        if st.is_finite:
            assert len(table) == st.dihedral_order * st.mu_order
            continue
        for _ in range(20):
            x = autgroup.GroupElement(
                st, rng.randint(-6, 6), rng.randrange(2), (rng.randrange(a), rng.randrange(b)),
                rng.randrange(2) if st.has_swap else 0,
            )
            for steps in (0, 1, 3, 16):
                assert autgroup.factor_word(x, steps) == reference_factor_word(x, steps)


def test_the_reversal_at_1_1_is_its_own_first_word():
    """At (1,1) h folds to r^2 s2, whose dihedral word has five letters;
    the word h comes first in the table's order (dihedral word, scaling,
    then h), so h, and not s2 s3 s2 s3 s2, is its word."""
    st = autgroup.structure_of(Params(1, 1))
    x = autgroup.from_word(st, [("h",)])
    assert (x.r_exp, x.s, x.mu, x.h) == (2, 1, (0, 0), 0)
    assert autgroup.from_word(st, [("s2",), ("s3",)] * 2 + [("s2",)]) == x
    assert autgroup.factor_word(x, 0) == [("h",)]
    assert print_word(factorize(compose_word(Params(1, 1), [("h",)]))) == "h"
    # r^2 = (r^2 s2) s2 is s2 s3 s2 s3 as well as s2 h; the shorter dihedral
    # word comes first
    assert autgroup.factor_word(autgroup.GroupElement(st, 2), 0) == [("s2",), ("s3",)] * 2


def test_factor_words_fold_once_per_stripped_letter(monkeypatch):
    """factor_word folds each word once: one fold per letter taken off a long
    dihedral part, and at most one for the residue word.  Nothing is built
    per pair, so a cold (60,60) costs no more than a warm (2,2)."""
    cases = []
    for a, b in ((2, 2), (4, 1), (3, 2), (60, 60), (1, 1), (3, 1)):
        st = autgroup.structure_of(Params(a, b))
        tail = [("m", 1, 0), ("h",)] if a == b else [("m", 1, 0)]
        for letters in (_LETTERS, _LETTERS[::-1]):
            for n in range(13):
                x = autgroup.from_word(st, list(letters * 7)[:n] + tail)
                cases.append((x, 0 if st.is_finite else max(0, n - 5)))
    folds = [0]
    real = autgroup.fold_word

    def counted(*args):
        folds[0] += 1
        return real(*args)

    monkeypatch.setattr(autgroup, "fold_word", counted)
    for x, stripped in cases:
        folds[0] = 0
        word = autgroup.factor_word(x, 16)
        assert folds[0] <= stripped + 1, (x, folds[0])
        assert word == reference_factor_word(x, 16)


def test_a_map_that_only_agrees_at_the_point_is_not_read_as_an_element():
    """f + (y1 - y1(point)) takes the values of f at the point, so it is read
    as f's element; the exact check refuses the word, and the descent
    answers as the reference does."""
    for a, b, word in ((2, 2, "s2 s3 m(1,0)"), (2, 1, "s3 s2"), (4, 1, "s2 m(1,0)")):
        params = Params(a, b)
        f = compose_word(params, parse_word(word))
        bump = LaurentPoly.variable(1) - LaurentPoly.const(autgroup._reading(params)[1][0])
        images = list(f.images)
        images[1] = images[1] + bump
        g = EndoMap(params, tuple(images), False)
        assert autgroup.identify(g) == autgroup.identify(f) is not None
        assert not equal(g, f)
        assert outcome(factorize, g) == outcome(reference_factorize, g)
        assert outcome(factorize, g)[0] == "error"


def test_the_orbit_of_the_point_tells_its_indices_apart():
    """At every pair with a, b <= 6 the values y_n at the point are nonzero
    and distinct: over one period in the finite cases, for |n| <= 64
    otherwise.  A repeated or zero value would not make a wrong answer (the
    exact check catches it) but would send maps down the slow descent."""
    for a in range(1, 7):
        for b in range(1, 7):
            _, point, orbit = autgroup._reading(Params(a, b))
            want = {1: 5, 2: 6, 3: 8}.get(a * b, 129)
            assert sorted(orbit.values()) == list(range(min(orbit.values()), 1 + max(orbit.values())))
            assert len(orbit) == want and all(orbit)
            assert [orbit[v] for v in point] == [1, 2, 3, 4]


def test_every_group_element_is_identified():
    """identify(to_endo(x)) is x, across the four shapes r^k s2^s m h^e."""
    rng = random.Random(11)
    for a, b in SMALL + [(3, 2), (3, 3)]:
        params = Params(a, b)
        st = autgroup.structure_of(params)
        for _ in range(12):
            k = rng.randint(-3, 3) if params.product > 3 else rng.randrange(st.r_order)
            if params.product >= 6:
                k = rng.randint(-1, 1)
            x = autgroup.GroupElement(
                st, k, rng.randrange(2), (rng.randrange(a), rng.randrange(b)),
                rng.randrange(2) if st.has_swap else 0,
            )
            assert autgroup.identify(autgroup.to_endo(x)) == x


def test_huge_exponents_are_read_at_once():
    """The point is read with pow(y, e, p), not from a table of every power
    up to the largest exponent: a map with an exponent of 10^12 is no group
    element, answered without building anything that large."""
    huge = 10**12
    for a, b in ((2, 1), (2, 2), (3, 2)):
        params = Params(a, b)
        images = list(compose_word(params, parse_word("s2 m(1,0)")).images)
        for i, key in ((0, (huge, 0, 0, 0, 0)), (3, (0, 0, huge, huge + 1, 0))):
            g = list(images)
            g[i] = g[i] + LaurentPoly.monomial(key, 3)
            assert autgroup.identify(EndoMap(params, tuple(g), False)) is None


def test_long_dihedral_parts_descend_like_the_degrees():
    """The group takes off the leftmost letter of a long dihedral part; the
    degree descent takes off the letter that lowers the total weighted
    degree.  They agree because the degree rises strictly with the length
    of an alternating word, on both sides."""
    for a, b, longest in ((2, 2, 9), (4, 1, 9), (1, 4, 9)):
        params = Params(a, b)
        for first, second in (("s2", "s3"), ("s3", "s2")):
            letters = [(first,), (second,)] * 5
            degrees = [total_degree(compose_word(params, letters[:n])) for n in range(longest + 1)]
            assert all(u < v for u, v in zip(degrees, degrees[1:])), (a, b, first, degrees)


# -- word factorization from the fold -----------------------------------------


def test_word_factors_from_the_fold_match_the_map_path(monkeypatch):
    """On the grid, in text and JSON and under --max-word 16 and 3, a word's
    aut-factor prints the bytes and exit code of composing and factoring its
    map, wherever that ends within 2 s.  Only a refusal (exit 3) or a
    timeout of the map path may become an answer; h at a != b keeps the
    surface's "swap undefined" error."""
    real = cli._COMMANDS
    on_maps = tuple(
        row[:2] + (reference_cmd_aut_factor,) + row[3:] if row[0] == "aut-factor" else row
        for row in real
    )
    compared = 0
    for a, b, text in grid_words():
        timed_out = False  # every variant composes the same map first
        for fmt in ("text", "json"):
            for max_word in ("16", "3"):
                argv = ["aut-factor", "--a", str(a), "--b", str(b), "--format", fmt,
                        "--max-word", max_word, *text.split()]
                got = run_within(10, argv)
                assert got is not None, argv
                if timed_out:
                    continue
                monkeypatch.setattr(cli, "_COMMANDS", on_maps)
                want = run_within(2, argv)
                monkeypatch.setattr(cli, "_COMMANDS", real)
                timed_out = want is None
                if want is None:
                    continue
                if want[0] == 3 and got[0] == 0:
                    continue
                assert got == want, argv
                compared += 1
                if a != b and "h" in text.split():
                    assert got[0] == 1 and "swap undefined for" in got[2], argv
    assert compared >= 300


def test_word_factors_under_small_budgets_refuse_as_the_map_path(monkeypatch):
    """Under --max-terms 1, 2 and 40 a word's aut-factor on the grid prints
    the bytes and exit code of the map path, refusals (exit 3) included,
    or answers where the map path is refused.  The group structure builds
    sigma2, sigma3 and swap as maps, so where the budget refuses it the
    fold gives no answer and the map path refuses as it always did."""
    real = cli._COMMANDS
    on_maps = tuple(
        row[:2] + (reference_cmd_aut_factor,) + row[3:] if row[0] == "aut-factor" else row
        for row in real
    )
    refused = answered = 0
    for a, b, text in grid_words():
        for budget in ("1", "2", "40"):
            for fmt in ("text", "json"):
                argv = ["aut-factor", "--a", str(a), "--b", str(b), "--max-terms", budget,
                        "--format", fmt, *text.split()]
                got = run_within(10, argv)
                monkeypatch.setattr(cli, "_COMMANDS", on_maps)
                want = run_within(2, argv)
                monkeypatch.setattr(cli, "_COMMANDS", real)
                assert got is not None and want is not None, argv
                if want[0] == 3 and got[0] == 0:
                    answered += 1
                    continue
                assert got == want, argv
                refused += got[0] == 3
    assert refused >= 250 and answered >= 30


def test_literal_words_at_unequal_params_have_no_fold_answer():
    """--paper-literal words at a != b have no group element: the fold gives
    no factorization, and their order is that of the composed map."""
    for (a, b), word, cap in (((1, 2), "s2", 16), ((1, 2), "s3", 2), ((2, 1), "s2 s3", 2)):
        params, atoms = Params(a, b), parse_word(word)
        assert autgroup.factor_from_fold(params, atoms, 16, paper_literal=True) is None
        f = compose_word(params, atoms, True)
        assert autgroup.word_order(params, atoms, cap, paper_literal=True) == (
            reference_order_of(f, cap)
        )


def test_the_fold_answers_only_where_the_point_reads_the_indices():
    """At (2,2) the point reads y_n for |n| <= 64.  r^-30 s2 folds y1..y4 to
    y_63 .. y_60 and is answered from the fold, as the CLI does within 2 s;
    r^-31 s2 folds y1 to y_65, where factorize could not read the map's
    element at the point, so the fold gives no answer and the map must."""
    params = Params(2, 2)
    st = autgroup.structure_of(params)
    for k, readable in ((-30, True), (-31, False)):
        word = [("r", k), ("s2",)]
        want = autgroup.factor_word(autgroup.from_word(st, word), 60)
        assert want is not None
        assert autgroup.factor_from_fold(params, word, 60) == (want if readable else None)
    argv = ["aut-factor", "--a", "2", "--b", "2", "--max-word", "60", "r^-30", "s2"]
    code, out, err = run_within(2, argv)
    assert (code, err) == (0, "") and out.endswith("\nrecomposes: yes\n")


# -- orders --------------------------------------------------------------------


def cli_order(capsys, a, b, word, cap):
    code = main(["aut-order", "--a", str(a), "--b", str(b), "--max-word", str(cap), *word.split()])
    out = capsys.readouterr().out
    return code, out.strip()


def test_orders_match_the_reference(capsys):
    rng = random.Random(12)
    for a, b in SMALL:
        params = Params(a, b)
        for _ in range(10):
            atoms = random_word(rng, params, rng.randint(0, 4))
            word = print_word(atoms) if atoms else "r^0"
            f = compose_word(params, atoms)
            x = autgroup.from_word(autgroup.structure_of(params), atoms)
            for cap in (2, 5, 16):
                if autgroup.element_order(x) is None and cap > 2:
                    continue  # the reference would compose cap powers of a growing map
                want = reference_order_of(f, cap)
                assert autgroup.word_order(params, atoms, cap) == want, (a, b, word, cap)
                code, out = cli_order(capsys, a, b, word, cap)
                assert code == 0
                assert out == (str(want) if want is not None else f"none within cap={cap}")


def test_orders_above_the_cap_and_infinite_orders():
    # s2 m(1,1) has order 6 at (3,3); r and sp(4) h have infinite order at (2,2)
    params = Params(3, 3)
    atoms = parse_word("s2 m(1,1)")
    assert autgroup.word_order(params, atoms, 6) == 6
    assert autgroup.word_order(params, atoms, 5) is None
    assert reference_order_of(compose_word(params, atoms), 6) == 6
    for word in ("r", "sp(4) h", "s2 h", "s3 m(1,0) h"):
        assert autgroup.word_order(Params(2, 2), parse_word(word), 16) is None


def test_a_wrong_group_order_is_refused_by_the_proof(monkeypatch):
    """The fold proof refuses any k that is not the exact order (a
    multiple of it, or a proper divisor) with ``EngineError``: the order and
    the element both come from the word fold, so a failed proof is a fault
    of the engine, not a case for a second answer."""
    real = autgroup.element_order
    for a, b, word in ((2, 1, "s2 s3"), (3, 1, "s2 m(1,0)"), (2, 2, "h m(1,0)"), (1, 1, "r")):
        params = Params(a, b)
        atoms = parse_word(word)
        x = autgroup.from_word(autgroup.structure_of(params), atoms)
        true = real(x)
        assert true == reference_order_of(compose_word(params, atoms), 24)
        assert autgroup.word_order(params, atoms, 60) == true
        for lie in (2 * true, 3 * true, 5 * true, 6 * true, true // 2, true - 1):
            if lie < 1:
                continue
            monkeypatch.setattr(autgroup, "element_order", lambda x, lie=lie: lie)
            with pytest.raises(EngineError) as exc:
                autgroup.word_order(params, atoms, 60)
            assert str(exc.value) == f"the order {lie} of {x} does not hold on the surface"
        monkeypatch.setattr(autgroup, "element_order", real)


def test_a_misread_element_is_refused_by_the_proof(monkeypatch):
    """An element that is not the word's own, with its true order, fails the
    first step of the proof (its normal-form word folds to other pairs), and
    ``word_order`` raises instead of composing powers of the map."""
    params = Params(2, 1)
    st = autgroup.structure_of(params)
    atoms = parse_word("s2")
    wrong = autgroup.from_word(st, parse_word("s3"))
    assert autgroup.element_order(wrong) == autgroup.word_order(params, atoms, 16) == 2
    real = autgroup.from_word
    monkeypatch.setattr(autgroup, "from_word", lambda s, w: wrong if w == atoms else real(s, w))
    with pytest.raises(EngineError) as exc:
        autgroup.word_order(params, atoms, 16)
    assert str(exc.value) == f"the order 2 of {wrong} does not hold on the surface"


def test_the_fold_proof_of_orders_matches_the_map_proof():
    """On the grid, under the caps 3 and 16, the fold proof gives the order
    or error that proving it on composed maps gives, wherever those maps are
    built within 2 s and the term budget; the fold proof ends within 10 s on
    every word."""
    compared = 0
    for a, b, text in grid_words():
        params, atoms = Params(a, b), parse_word(text)
        for cap in (3, 16):
            got = order_within(10, autgroup.word_order, params, atoms, cap)
            assert got is not None, (a, b, text, cap)
            want = order_within(2, reference_word_order, params, atoms, cap)
            if want is None or want[1] == "BudgetExceeded":
                continue
            assert got == want, (a, b, text, cap)
            compared += 1
    assert compared >= 150


@pytest.mark.parametrize("a, b", [(2, 2), (5, 1), (1, 4), (4, 3), (3, 4)])
def test_far_finite_orders_answer_at_once(a, b):
    """r^-41 s3 and r^-2 s3 are reflections, of order 2 at every pair.  On
    maps their proof needed y_n at far indices: r^-41 s3 ran past 20 s at
    (2,2), and r^-2 s3 exited 3 after 1.9 s at (4,3) and took 16.9 s at
    (3,4).  On the fold each answers within a 2 s alarm."""
    for word in ("r^-41 s3", "r^-2 s3"):
        argv = ["aut-order", "--a", str(a), "--b", str(b), *word.split()]
        assert run_within(2, argv) == (0, "2\n", ""), argv


# -- compositions of the cases that were too slow to run -----------------------


@pytest.fixture
def compose_counter(monkeypatch):
    """[compositions and conversions of the table of y_n, terms in their
    results], counted from a cold start."""
    counts = [0, 0]
    real_compose, real_convert = surface.compose, cluster._standard_terms

    def counted(*args, **kwargs):
        f = real_compose(*args, **kwargs)
        counts[0] += 1
        counts[1] += sum(e.num_terms for e in f.images)
        return f

    def counted_convert(*args):
        terms = real_convert(*args)
        counts[0] += 1
        counts[1] += len(terms)
        return terms

    monkeypatch.setattr(surface, "compose", counted)  # the one module holding it
    monkeypatch.setattr(cluster, "_standard_terms", counted_convert)
    cluster.clear_walk_cache()
    for cache in (autgroup.structure_of, autgroup._reading):
        cache.cache_clear()
    return counts


# Under --max-terms 1000 no product or normal form may pass 1000 terms, so
# together with the count of compositions this bounds the work.


def test_factoring_at_3_3_composes_a_few_maps(compose_counter, capsys):
    # the residue table this replaces composed 406 maps here (31.7 s)
    argv = ["aut-factor", "--a", "3", "--b", "3", "--max-terms", "1000", "s2", "s3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "word: s2 s3\nrecomposes: yes\n"
    assert compose_counter[0] <= 40
    assert compose_counter[1] <= 1_000


def test_infinite_order_answers_without_powers(compose_counter, capsys):
    # order_of composed powers of this map until a product passed the
    # default budget of a million terms (67 s, exit 3)
    argv = ["aut-order", "--a", "2", "--b", "2", "--max-terms", "1000", "sp(4)", "h"]
    assert main(argv + ["--format", "json"]) == 0
    assert '"order": null' in capsys.readouterr().out
    assert compose_counter[0] <= 40
    assert compose_counter[1] <= 1_000
