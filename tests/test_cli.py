"""Command-line interface: exit codes, JSON payload stability, text output."""
import argparse
import copy
import importlib.util
import io
import json
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusteraut import cli
from clusteraut.budget import limit
from clusteraut.cli import main
from clusteraut.cluster import clear_walk_cache
from clusteraut.errors import BudgetExceeded
from clusteraut.textio import print_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_cluster_command(capsys):
    code, payload, _ = run_json(capsys, "cluster", "--a", "2", "--b", "2", "--n", "5")
    assert code == 0
    assert payload["n"] == 5
    assert payload["num_terms"] == 7
    assert payload["positive"] is True
    code, out, _ = run_cli(capsys, "cluster", "--a", "1", "--b", "1", "--n", "4")
    assert code == 0 and "y" in out


def test_period_command(capsys):
    code, payload, _ = run_json(capsys, "period", "--a", "1", "--b", "1")
    assert code == 0 and payload["period"] == 5
    code, out, _ = run_cli(capsys, "period", "--a", "1", "--b", "2")
    assert code == 0 and out.strip() == "6"
    code, payload, _ = run_json(capsys, "period", "--a", "2", "--b", "2", "--n-max", "10")
    assert code == 0 and payload["period"] is None


def test_aut_compose_and_order(capsys):
    code, payload, _ = run_json(capsys, "aut-compose", "--a", "2", "--b", "2", "s2", "s3")
    assert code == 0
    assert payload["verified"] is True
    assert len(payload["images"]) == 4
    code, payload, _ = run_json(capsys, "aut-order", "--a", "1", "--b", "1", "r")
    assert code == 0 and payload["order"] == 5
    code, payload, _ = run_json(
        capsys, "aut-order", "--a", "2", "--b", "2", "--max-word", "4", "r"
    )
    assert code == 0 and payload["order"] is None


def test_aut_factor_round_trip(capsys):
    code, payload, _ = run_json(
        capsys, "aut-factor", "--a", "2", "--b", "1", "s2", "s3", "m(2,3)"
    )
    assert code == 0
    assert payload["recomposes"] is True
    assert payload["word"]


def test_aut_factor_from_json_file(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "aut-compose", "--a", "2", "--b", "2", "r")
    blob = {k: payload[k] for k in ("a", "b", "images")}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(blob))
    code, payload, _ = run_json(
        capsys, "aut-factor", "--a", "2", "--b", "2", "--map-json", str(path)
    )
    assert code == 0 and payload["recomposes"] is True
    code, _, err = run_cli(
        capsys, "aut-factor", "--a", "3", "--b", "2", "--map-json", str(path)
    )
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        capsys, "aut-factor", "--a", "2", "--b", "2", "--map-json", str(bad)
    )
    assert code == 2 and "error" in err


def test_aut_factor_map_not_utf8(capsys, tmp_path, monkeypatch):
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"a": 2, "b": 2, "note": "\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli(
        capsys, "aut-factor", "--a", "2", "--b", "2", "--map-json", str(latin)
    )
    assert (code, out) == (2, "") and err.startswith("error: map is not UTF-8 text")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"),
                                                       encoding="utf-8"))
    code, out, err = run_cli(capsys, "aut-factor", "--a", "2", "--b", "2",
                             "--map-json", "-")
    assert (code, out) == (2, "") and err.startswith("error: map is not UTF-8 text")


def test_aut_factor_zero_map(capsys, tmp_path):
    """A map with a zero image is no automorphism: the factorization names
    the first zero image, whether it is given as no rows or as rows whose
    coefficients are all 0."""
    ident = [[[[1, 0, 0, 0], [1]]], [[[0, 1, 0, 0], [1]]],
             [[[0, 0, 1, 0], [1]]], [[[0, 0, 0, 1], [1]]]]
    cases = [
        ([[], [], [], []], 1),
        ([[[[1, 0, 0, 0], [0]]]] + ident[1:], 1),
        (ident[:2] + [[]] + ident[3:], 3),
        (ident[:3] + [[[[0, 0, 0, 1], [0, 0]], [[2, 0, 0, 0], [0]]]], 4),
    ]
    for images, i in cases:
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"a": 2, "b": 2, "images": images}))
        code, out, err = run_cli(
            capsys, "aut-factor", "--a", "2", "--b", "2", "--map-json", str(path)
        )
        assert (code, out) == (1, "")
        assert err == f"error: FactorizationFailed: the image of y{i} is zero: no automorphism\n"


def test_aut_factor_deeply_nested_json(capsys, tmp_path):
    """JSON nested past the decoder's recursion limit is malformed input."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(
        capsys, "aut-factor", "--a", "2", "--b", "2", "--map-json", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: bad map object: invalid JSON (maximum recursion depth")
    assert err.endswith(") (line 1, column 0)\n")


def test_non_ascii_digits_are_parse_errors(capsys):
    """Only 0-9 are digits in a word: a superscript or another script's
    digit is malformed input (exit 2), neither a traceback nor a number."""
    two, three = "\u00b2", "\u0663"
    cases = [
        (["aut-compose", f"sp({two})"], two, 3),
        (["group-mul", f"r^{two}", "s2"], two, 2),
        (["aut-compose", f"sp({three})"], three, 3),
        (["aut-order", f"m(1,{three})"], three, 4),
    ]
    for (command, *words), ch, col in cases:
        got = run_cli(capsys, command, "--a", "2", "--b", "2", *words)
        assert got == (2, "", f"error: expected an integer, found {ch!r} (line 1, column {col})\n")


def test_aut_factor_malformed_maps_exit_two(capsys, tmp_path):
    """Booleans, negative exponents and coefficient vectors of a length other
    than 1 or lcm(a, b) are malformed input, not maps."""
    ident = [[[[1, 0, 0, 0], [1]]], [[[0, 1, 0, 0], [1]]],
             [[[0, 0, 1, 0], [1]]], [[[0, 0, 0, 1], [1]]]]
    wide = [[[exps, [1, 0, 0]] for exps, _ in image] for image in ident]
    cases = [
        (1, {"a": True, "b": 1, "images": ident}, "a and b must be positive integers"),
        (2, {"a": 2, "b": 2, "images": ident[:3] + [[[[0, 0, 0, -1], [1]]]]},
         "negative exponent in term entry [[0, 0, 0, -1], [1]]"),
        (2, {"a": 2, "b": 2, "images": [[[[1, 0, 0, 0], [True]]]] + ident[1:]},
         "bad term entry [[1, 0, 0, 0], [True]]"),
        (2, {"a": 2, "b": 2, "images": wide},
         "coefficient vector [1, 0, 0] must have length 1 or 2"),
    ]
    for a, obj, message in cases:
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            capsys, "aut-factor", "--a", str(a), "--b", str(a), "--map-json", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad map object: {message} (line 1, column 0)\n"


def test_aut_factor_map_json_checks_no_relations(capsys, tmp_path, monkeypatch):
    """aut-factor prints no ``verified``, so reading a map checks no
    relations: the answer is proved by one equality with its word's map."""
    from clusteraut import surface

    calls = []
    real = surface.is_endomorphism
    monkeypatch.setattr(surface, "is_endomorphism", lambda f: calls.append(f) or real(f))
    for a, b, word in (("2", "2", "r h"), ("3", "2", "s2 m(1,1) s3"), ("2", "1", "s3")):
        code, payload, _ = run_json(capsys, "aut-compose", "--a", a, "--b", b, *word.split())
        assert code == 0 and payload["verified"] is True
        path = tmp_path / "map.json"
        path.write_text(json.dumps({k: payload[k] for k in ("a", "b", "images")}))
        code, payload, _ = run_json(capsys, "aut-factor", "--a", a, "--b", b,
                                    "--map-json", str(path))
        assert code == 0 and payload["recomposes"] is True
    assert calls == []


def _rows(*changes):
    """The identity map's images with some images replaced."""
    images = [[[[1, 0, 0, 0], [1]]], [[[0, 1, 0, 0], [1]]],
              [[[0, 0, 1, 0], [1]]], [[[0, 0, 0, 1], [1]]]]
    for i, rows in changes:
        images[i] = rows
    return images


def test_map_json_with_two_faults_output_bytes_are_pinned(capsys, tmp_path):
    """Bytes recorded while the loader still validated every row before it
    built any term: each row's shape is checked before a duplicate exponent
    is reported, and a wide vector anywhere selects the ring."""
    bad = "error: bad map object: "
    at = " (line 1, column 0)\n"
    no_word = "error: FactorizationFailed: no descent and no residue match at measure "
    cases = [
        # a duplicate exponent, then a boolean coefficient
        ("2", {"a": 2, "b": 2, "images": _rows(
            (0, [[[1, 0, 0, 0], [1]], [[1, 0, 0, 0], [2]]]), (3, [[[0, 0, 0, 1], [True]]]))},
         2, bad + "bad term entry [[0, 0, 0, 1], [True]]" + at),
        # a negative exponent next to a vector of the wrong length, both ways
        ("2", {"a": 2, "b": 2, "images": _rows(
            (1, [[[0, -1, 0, 0], [1]], [[0, 1, 0, 0], [1, 0, 0]]]))},
         2, bad + "negative exponent in term entry [[0, -1, 0, 0], [1]]" + at),
        ("2", {"a": 2, "b": 2, "images": _rows(
            (1, [[[0, 1, 0, 0], [1, 0, 0]], [[0, -1, 0, 0], [1]]]))},
         2, bad + "coefficient vector [1, 0, 0] must have length 1 or 2" + at),
        # duplicates in two images, the first of zero rows: the first is reported
        ("3", {"a": 3, "b": 2, "images": _rows(
            (2, [[[0, 0, 1, 0], [1]], [[0, 0, 1, 0], [1]]]),
            (0, [[[0, 0, 0, 0], [1]], [[1, 0, 0, 0], [1]], [[0, 0, 0, 0], [0]]]))},
         2, bad + "duplicate exponent (0, 0, 0, 0)" + at),
        # a duplicate exponent, then an image that is no list
        ("2", {"a": 2, "b": 1, "images": _rows(
            (0, [[[1, 0, 0, 0], [1]], [[1, 0, 0, 0], [-1]]]), (3, {"x": 1}))},
         2, bad + "each image must be a list of terms" + at),
        # a duplicate of zero rows, then a row with three entries
        ("2", {"a": 2, "b": 2, "images": _rows(
            (0, [[[0, 0, 0, 0], [0]], [[0, 0, 0, 0], [0]]]), (2, [[[0, 0, 1, 0], [1], 3]]))},
         2, bad + "bad term entry [[0, 0, 1, 0], [1], 3]" + at),
        # a duplicate exponent and a wide vector in a later image
        ("2", {"a": 2, "b": 2, "images": _rows(
            (0, [[[1, 0, 0, 0], [1]], [[1, 0, 0, 0], [1]]]), (3, [[[0, 0, 0, 1], [0, 1]]]))},
         2, bad + "duplicate exponent (1, 0, 0, 0)" + at),
        # malformed maps for another pair than the command's
        ("2", {"a": 3, "b": 2, "images": _rows(
            (1, [[[0, 1, 0, 0], [1]], [[0, 1, 0, 0], [1]]]))},
         2, bad + "duplicate exponent (0, 1, 0, 0)" + at),
        ("2", {"a": 2, "b": 1, "images": _rows((1, [[[0, 1, -2, 0], [1]]]))},
         2, bad + "negative exponent in term entry [[0, 1, -2, 0], [1]]" + at),
        # a vector of the wrong length and a bad a
        ("2", {"a": 0, "b": 2, "images": _rows((1, [[[0, 1, 0, 0], [1, 0, 0]]]))},
         2, bad + "a and b must be positive integers" + at),
        # well formed: a wide vector in the last image only, images out of
        # normal form, and an image that breaks a relation
        ("2", {"a": 2, "b": 2, "images": _rows((3, [[[0, 0, 0, 1], [0, 1]]]))},
         1, no_word + "6\n"),
        ("2", {"a": 2, "b": 2, "images": _rows(
            (0, [[[1, 0, 0, 0], [1]], [[1, 0, 1, 0], [1]]]))},
         1, no_word + "6\n"),
        ("1", {"a": 2, "b": 1, "images": _rows((0, [[[9, 0, 0, 0], [1]]]))},
         1, no_word + "15\n"),
    ]
    path = tmp_path / "map.json"
    for b, obj, code, err in cases:
        path.write_text(json.dumps(obj))
        argv = ["aut-factor", "--a", "2", "--b", b, "--map-json", str(path)]
        assert run_cli(capsys, *argv) == (code, "", err)


def test_aut_compose_prints_the_same_verified(capsys):
    """``verified`` as printed while every map was checked when built: word
    maps are verified, and literal words are not once they use s3 at a != b;
    at a = b the literal s3 is the corrected one, so they are (y: yes, n: no,
    -: h at a != b is refused)."""
    words = ["s2", "s3", "s2 s3", "m(1,0) s2", "h s2", "r^2", "r^-1", "sp(3)", "m(1,1)",
             "s2 s2"]
    want = {
        ("1", "1"): ("yyyyyyyyyy", "yyyyyyyyyy"),
        ("2", "1"): ("yyyy-yyyyy", "ynny-nnnyy"),
        ("2", "2"): ("yyyyyyyyyy", "yyyyyyyyyy"),
        ("3", "2"): ("yyyy-yyyyy", "ynny-nnnyy"),
    }
    for (a, b), rows in want.items():
        for literal, row in zip(([], ["--paper-literal"]), rows):
            got = ""
            for word in words:
                argv = ["aut-compose", "--a", a, "--b", b, *word.split(), *literal]
                code, out, _ = run_cli(capsys, *argv)
                got += "-" if code else "yn"[out.endswith("verified: no\n")]
            assert got == row, (a, b, literal)


def test_group_commands(capsys):
    code, payload, _ = run_json(capsys, "group-mul", "--a", "2", "--b", "2", "s2", "s3")
    assert code == 0 and payload["product"] == "r"
    code, payload, _ = run_json(capsys, "group-mul", "--a", "2", "--b", "2",
                                "sp(99999999999999999999)", "s2")
    assert code == 0 and payload["product"] == "r^-99999999999999999997"
    code, payload, _ = run_json(capsys, "group-structure", "--a", "1", "--b", "1")
    assert code == 0 and payload["group_order"] == 10
    code, payload, _ = run_json(capsys, "group-structure", "--a", "2", "--b", "2")
    assert code == 0 and payload["group_order"] is None
    code, payload, _ = run_json(capsys, "group-enumerate", "--a", "2", "--b", "1")
    assert code == 0 and payload["count"] == 12
    code, _, err = run_cli(capsys, "group-enumerate", "--a", "2", "--b", "2")
    assert code == 1 and "error" in err


def test_reversal_at_unequal_params_keeps_each_commands_text(capsys):
    """h at a != b is refused by the group as a missing generator and by the
    surface as an undefined swap; at (1,1) the group reads h as r^2 s2."""
    for a, b, left, right in (("2", "1", "h", "s2"), ("2", "3", "s2", "h")):
        assert run_cli(capsys, "group-mul", "--a", a, "--b", b, left, right) == (
            1, "", f"error: SwapRequiresEqualParams: no reversal generator for ({a},{b})\n",
        )
        assert run_cli(capsys, "aut-compose", "--a", a, "--b", b, left, right) == (
            1, "", f"error: SwapRequiresEqualParams: swap undefined for ({a},{b})\n",
        )
    assert run_cli(capsys, "group-mul", "--a", "1", "--b", "1", "h", "s2") == (0, "r^2\n", "")


def test_geom_and_classify(capsys):
    code, payload, _ = run_json(capsys, "geom-boundary", "--a", "2", "--b", "3",
                                "--model", "pentagon")
    assert code == 0
    assert payload["types"] == [-1, -3, -2, -1, -1]
    assert payload["K2"] == 2
    assert payload["anticanonical"] is True
    code, payload, _ = run_json(capsys, "classify", "--a", "2", "--b", "3",
                                "--c", "3", "--d", "2")
    assert code == 0 and payload["isomorphic"] is True
    assert payload["invariant1"] == [2, 3] == payload["invariant2"]
    code, payload, _ = run_json(capsys, "classify", "--a", "4", "--b", "4",
                                "--c", "2", "--d", "8")
    assert code == 0 and payload["isomorphic"] is False


def test_verify_all(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert payload["checks"] == 86
    code, payload, _ = run_json(capsys, "verify", "--suite", "errata")
    assert code == 0
    entries = payload["suites"]["errata"]
    assert len(entries) == 3
    for e in entries:
        assert e["ok"] is True
        assert "literal" in e["expected"] or "source text" in e["expected"]


def test_paper_literal_flag(capsys):
    code, payload, _ = run_json(capsys, "aut-compose", "--a", "2", "--b", "3", "s3")
    assert code == 0 and payload["verified"] is True
    # the literal images need not satisfy the defining relations: they fail
    # them at a != b, and at a = b the literal formula is the corrected one
    code, payload, _ = run_json(
        capsys, "aut-compose", "--a", "2", "--b", "3", "--paper-literal", "s3"
    )
    assert code == 0 and payload["verified"] is False
    code, payload, _ = run_json(
        capsys, "aut-compose", "--a", "2", "--b", "2", "--paper-literal", "s3"
    )
    assert code == 0 and payload["verified"] is True


@pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (3, 3), (2, 1), (1, 2), (3, 2)])
def test_paper_literal_verified_is_the_relation_check(capsys, a, b):
    """The printed flag of a literal word is ``is_endomorphism`` of the
    printed map, read back from the JSON output."""
    from clusteraut import surface

    for word in ("s3", "s2 s3", "s3 s3", "r^2", "r^-1", "sp(3)", "m(1,0) s3"):
        code, payload, _ = run_json(
            capsys, "aut-compose", "--a", str(a), "--b", str(b), *word.split(),
            "--paper-literal",
        )
        assert code == 0
        f = surface.endo_from_obj(payload)
        assert payload["verified"] is surface.is_endomorphism(f), (a, b, word)
        if a == b or word == "s3":
            assert payload["verified"] is (a == b), (a, b, word)


def test_aut_compose_json_prints_no_text(capsys, monkeypatch):
    from clusteraut import cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return print_poly(*args, **kwargs)

    monkeypatch.setattr(cli, "print_poly", counting)
    argv = ["aut-compose", "--a", "2", "--b", "2", "s2", "s3", "m(1,0)"]
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and payload["verified"] is True and calls == []
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and len(calls) == 4
    assert out.splitlines()[-1] == "verified: yes"


def test_literal_order_at_equal_params_is_read_in_the_group(capsys):
    """At a = b a literal word's order comes from the group, as without the
    flag: s2 s3 has infinite order at (2,2), which composing 16 powers of
    its map took minutes to find."""
    for literal in ([], ["--paper-literal"]):
        argv = ["aut-order", "--a", "2", "--b", "2", "s2", "s3", *literal]
        assert run_cli(capsys, *argv) == (0, "none within cap=16\n", "")
        argv = ["aut-order", "--a", "3", "--b", "3", "s3", "m(1,2)", *literal]
        assert run_cli(capsys, *argv) == (0, "6\n", "")


def test_paper_literal_only_on_aut_commands(capsys):
    for argv in (
        ["verify", "--suite", "identities"],
        ["cluster", "--a", "2", "--b", "3", "--n", "3"],
        ["group-mul", "--a", "2", "--b", "3", "s2", "s3"],
    ):
        try:
            code = main(argv + ["--paper-literal"])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2 and "unrecognized arguments: --paper-literal" in err
    for command in ("aut-compose", "aut-order", "aut-factor"):
        code, _, _ = run_cli(capsys, command, "--a", "2", "--b", "2", "--paper-literal", "s2")
        assert code == 0


def test_huge_rotation_atoms(capsys):
    """r^k and sp(p) are one atom each: a huge k is reduced modulo the order
    of r at a finite pair, and refused by the term budget at (3,2)."""
    huge = "99999999999999999999"
    code, payload, _ = run_json(capsys, "group-mul", "--a", "2", "--b", "2", f"r^{huge}", "s2")
    assert code == 0 and payload["product"] == f"r^{huge} s2"
    code, payload, _ = run_json(capsys, "group-mul", "--a", "2", "--b", "1", f"r^{huge}", "s2")
    assert code == 0 and payload["product"] == "s2"
    # r has order 4 at (1,3), and the huge k is 3 modulo 4
    for word, same in ((f"r^{huge}", "r^-1"), (f"r^-{huge}", "r"), (f"sp({huge})", "sp(3)")):
        code, payload, _ = run_json(capsys, "aut-compose", "--a", "1", "--b", "3", word)
        assert code == 0 and payload["word"] == word
        code, want, _ = run_json(capsys, "aut-compose", "--a", "1", "--b", "3", same)
        assert payload["images"] == want["images"]
        code, out, err = run_cli(
            capsys, "aut-compose", "--a", "3", "--b", "2", "--max-terms", "2000", word
        )
        assert code == 3 and out == "" and err.startswith("budget exceeded: ")
    code, payload, _ = run_json(capsys, "aut-order", "--a", "1", "--b", "1", f"sp({huge})")
    assert code == 0 and payload["order"] == 2


def test_huge_indices_and_large_geometry_answer(capsys):
    """At the finite types a huge n or n_max is read one period away, and a
    large blow-up adds its points in one lattice extension."""
    huge = 99999999999999999999
    code, payload, _ = run_json(capsys, "period", "--a", "1", "--b", "1",
                                "--n-max", "99999999999999")
    assert code == 0 and payload["period"] == 5
    for n in (huge, -huge):
        code, payload, _ = run_json(capsys, "cluster", "--a", "1", "--b", "1", "--n", str(n))
        code2, want, _ = run_json(capsys, "cluster", "--a", "1", "--b", "1",
                                  "--n", str(n % 5))
        assert code == code2 == 0 and payload["n"] == n
        assert {**payload, "n": n % 5} == want
    code, payload, _ = run_json(capsys, "geom-boundary", "--a", "1000", "--b", "1",
                                "--model", "pentagon")
    assert code == 0 and payload["types"] == [-1, -1, -1000, -1, -1]
    assert payload["K2"] == -994


def test_exit_code_two_on_config_errors(capsys):
    code, _, err = run_cli(capsys, "cluster", "--a", "0", "--b", "2", "--n", "5")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "aut-compose", "--a", "2", "--b", "2", "s9")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "cluster", "--a", "2", "--b", "2", "--n", "5",
                           "--max-terms", "0")
    assert code == 2 and err
    for n_max in ("1", "-3"):
        code, out, err = run_cli(capsys, "period", "--a", "1", "--b", "1",
                                 "--n-max", n_max)
        assert (code, out, err) == (2, "", "error: n_max must be at least 2\n")


def test_exit_code_three_on_budget(capsys):
    code, _, err = run_cli(capsys, "cluster", "--a", "3", "--b", "3", "--n", "14",
                           "--max-terms", "40")
    assert code == 3 and "budget" in err


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["cluster", "period"]),
    a=st.integers(-1, 3),
    b=st.integers(-1, 3),
    n=st.integers(-8, 8),
    n_max=st.integers(-3, 20),
    max_terms=st.one_of(st.none(), st.integers(-1, 400)),
)
def test_cluster_and_period_argv_end_cleanly(command, a, b, n, n_max, max_terms):
    # Under the default budget, (3,3) y8 and the period search at a*b >= 4
    # run for up to seconds; those requests are drawn with a small budget.
    assume(max_terms is not None or a * b <= 3
           or (command == "cluster" and abs(n) <= 7))
    argv = [command, "--a", str(a), "--b", str(b), "--format", "json"]
    argv += ["--n", str(n)] if command == "cluster" else ["--n-max", str(n_max)]
    if max_terms is not None:
        argv += ["--max-terms", str(max_terms)]
    result = call_main(argv)
    assert result[0] in (0, 2, 3)
    if result[0] == 0:
        json.loads(result[1])
        clear_walk_cache()
        assert call_main(argv) == result


def benchmark_requests(workload, seed, count):
    """The first ``count`` requests of a perfbench workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return list(islice(workloads.requests(workload, seed), count))


def benchmark_argv(workload, seed, count):
    """The argv of the first ``count`` requests of a perfbench workload."""
    return [req["argv"] for req in benchmark_requests(workload, seed, count)]


def test_cluster_replies_repeat_byte_for_byte():
    """Every argv of the first 600 cluster-walk benchmark requests (seed 1),
    in both formats, prints the same stdout and stderr with the same exit
    code each time it comes up in one process, the first time included."""
    clear_walk_cache()
    replies = {}
    for argv in benchmark_argv("cluster-walk", 1, 600):
        assert argv[-2:] == ["--format", "json"]
        for fmt in ("json", "text"):
            argv = argv[:-1] + [fmt]
            first = replies.setdefault(tuple(argv), call_main(argv))
            assert first[0] == 0
            assert call_main(argv) == first, argv


def test_repeated_cluster_request_computes_nothing(capsys, monkeypatch):
    """A repeat prints the held reply without computing, sorting, formatting
    or encoding y_n."""
    from clusteraut import cli, cluster

    clear_walk_cache()
    argv = ["cluster", "--a", "2", "--b", "2", "--n", "9"]
    want = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("text", "json")}
    assert want["text"][1].startswith("y9 = ") and want["json"][0] == 0

    def fail(*args, **kwargs):
        raise AssertionError("a held reply was computed again")

    monkeypatch.setattr(cluster, "cluster_var", fail)
    for name in ("descending_keys", "print_poly", "surf", "json"):
        monkeypatch.setattr(cli, name, fail)
    for fmt, reply in want.items():
        assert run_cli(capsys, *argv, "--format", fmt) == reply


def test_cluster_refusals_do_not_depend_on_held_replies(capsys):
    """The term budget is part of the memo's key and refusals are not held:
    a cluster request refused under a small budget is refused again, with
    the same text, after its default-budget answer is held, and the other
    way round."""
    argv = ["cluster", "--a", "3", "--b", "2", "--n", "8"]
    for fmt in ("text", "json"):
        small = [*argv, "--format", fmt, "--max-terms", "50"]
        clear_walk_cache()
        refused = run_cli(capsys, *small)
        assert refused == (3, "", "budget exceeded: product has 95 terms, budget 50\n")
        answered = run_cli(capsys, *argv, "--format", fmt)
        assert answered[0] == 0
        for _ in range(2):
            assert run_cli(capsys, *small) == refused
            assert run_cli(capsys, *argv, "--format", fmt) == answered


def held_kinds():
    """The walk cache's entries, least recently used first, each as its kind
    and what it holds; the count of held terms is checked on the way."""
    from clusteraut import cluster

    cache = cluster._walks
    assert cache.terms == sum(size for _, size in cache.entries.values())
    assert cache.terms <= cluster.WALK_CACHE_TERMS
    kinds = []
    for key in cache.entries:
        if key[0] == "reply":
            kinds.append(("reply", key[1].a, key[1].b, key[2]))
        elif key[1] == "surface":
            kinds.append(("surface", key[0].a, key[0].b, key[2]))
        else:
            kinds.append(("walk", key[0].a, key[0].b))
    return kinds


def test_reply_memo_stays_within_its_bound(capsys, monkeypatch):
    """Walks, surface variables and held replies share one bound: the terms
    held never pass WALK_CACHE_TERMS, the least recently used entry goes
    first whatever its kind, and a reply whose value alone passes the bound
    is not held."""
    from clusteraut import cluster
    from clusteraut.poly import Params

    def ask(a, b, n):
        argv = ["cluster", "--a", str(a), "--b", str(b), "--n", str(n)]
        assert run_cli(capsys, *argv)[0] == 0
        return held_kinds()

    walk, reply = ("walk", 1, 1), ("reply", 1, 1)
    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", 12)
    clear_walk_cache()
    # y1..y4 at (1,1) have 1, 1, 2 and 3 terms
    assert ask(1, 1, 3) == [walk, (*reply, 3)]
    assert ask(1, 1, 4) == [(*reply, 3), walk, (*reply, 4)]  # 12 terms
    cluster.surface_var(Params(1, 1), 5)  # from the walk's y4; 2 terms
    assert held_kinds() == [(*reply, 4), walk, ("surface", 1, 1, 5)]
    assert ask(1, 1, 3) == [("surface", 1, 1, 5), walk, (*reply, 3)]
    # the walk at (2,1) evicts the surface value, then the walk at (1,1)
    assert ask(2, 1, 3) == [(*reply, 3), ("walk", 2, 1), ("reply", 2, 1, 3)]
    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", 2)
    clear_walk_cache()
    assert ask(1, 1, 4) == [walk]  # y1, y2 held; y3 and the reply pass the bound
    assert ask(1, 1, 3) == [(*reply, 3)]


def test_refusals_are_held_per_budget_at_one_term_each(capsys):
    """A walk keeps the index and text of its first refused step beside its
    prefix, and a refused surface variable keeps its text, each under its
    own budget and counted as one term; a repeat gives the same refusal and
    another budget's answer is untouched."""
    from clusteraut import cluster
    from clusteraut.poly import Params

    clear_walk_cache()
    argv = ["cluster", "--a", "3", "--b", "2", "--n", "8", "--max-terms", "50"]
    refused = (3, "", "budget exceeded: product has 95 terms, budget 50\n")
    assert run_cli(capsys, *argv) == refused
    prefix = cluster._walks.get((Params(3, 2), 50))
    assert prefix.refused == (6, "product has 95 terms, budget 50")  # the step to y7
    assert [k[0] for k in held_kinds()] == ["walk"]
    size = cluster._walks.entries[(Params(3, 2), 50)][1]
    assert size == sum(v.num_terms for v in prefix.values) + 1
    assert run_cli(capsys, *argv) == refused
    assert run_cli(capsys, *argv[:-2])[0] == 0
    with limit(50), pytest.raises(BudgetExceeded, match="^product has 95 terms, budget 50$"):
        cluster.surface_var(Params(2, 3), 9)  # y8 of the walk at (3,2), past y7
    held = cluster._walks.entries[(Params(2, 3), "surface", 9, 50)]
    assert held == ["product has 95 terms, budget 50", 1]
    with limit(50), pytest.raises(BudgetExceeded, match="^product has 95 terms, budget 50$"):
        cluster.surface_var(Params(2, 3), 9)
    assert cluster.surface_var(Params(2, 3), 9).num_terms > 0


def test_threads_share_the_reply_memo_safely(monkeypatch):
    """Threads that hold, read and evict entries at once keep the count of
    held terms exact and within the bound."""
    from clusteraut import cluster

    monkeypatch.setattr(cluster, "WALK_CACHE_TERMS", 50)
    memo = cluster._WalkCache()
    errors = []

    def worker(seed):
        r = random.Random(seed)
        try:
            for _ in range(2000):
                key = r.randrange(40)
                if r.random() < 0.5:
                    memo.put(key, f"reply {key}", key % 7 + 1)
                else:
                    assert memo.get(key) in (None, f"reply {key}")
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert memo.terms == sum(size for _, size in memo.entries.values()) <= 50


WORD_ATOMS = st.sampled_from([
    "s2", "s3", "h", "r", "r^2", "r^-3", "id", "sp(0)", "sp(3)", "m(1,0)", "m(2,-1)",
    "r^100000000000", "sp(-99999999999)", "m(7777777777,3)",
])
MALFORMED = st.sampled_from(
    ["s4", "m(1)", "m(1,", "sp", "sp(x)", "r^", "q", "(", "m(a,b)", "s2s3", "-s2", "--a",
     "sp(\u00b2)", "r^\u00b2", "sp(\u0663)", "m(\u0663,1)"]
) | st.text("s23hmpr()^,-0189id \u00b2\u0663", max_size=6)
# half of the words are well formed, so that most commands get to compute
word_texts = (
    st.lists(WORD_ATOMS, max_size=6) | st.lists(WORD_ATOMS | MALFORMED, max_size=5)
).map(" ".join)


def call_main_or_exit(argv):
    """call_main, with argparse's usage errors (SystemExit) read as their
    exit code."""
    try:
        return call_main(argv)
    except SystemExit as exc:
        return exc.code, "", ""


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["aut-compose", "aut-order", "aut-factor", "group-mul"]),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    words=st.tuples(word_texts, word_texts),
    max_terms=st.integers(1, 300),
    literal=st.booleans(),
    json_out=st.booleans(),
)
def test_word_command_argv_end_cleanly(command, a, b, words, max_terms, literal, json_out):
    """Random and malformed words end in a definite exit code, never in a
    traceback; argparse's own usage errors exit 2 as well."""
    argv = [command, "--a", str(a), "--b", str(b), "--max-terms", str(max_terms)]
    if command == "group-mul":
        argv += list(words)
    else:
        argv += words[0].split()
        if literal:
            argv.append("--paper-literal")
    if json_out:
        argv += ["--format", "json"]
    code, out, _ = call_main_or_exit(argv)
    assert code in (0, 1, 2, 3)
    if code == 0 and json_out:
        json.loads(out)


def test_json_output_is_byte_stable(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "aut-compose", "--a", "3", "--b", "2",
                            "s2", "s3", "s2", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# stdout of aut-compose for scaling words, text and JSON, as recorded before
# the power of t moved from coefficient vectors into the term keys
GOLDEN = {
    ("3", "2", "m(1,1) s2"): (
        "y1 -> t^3*y3\ny2 -> t^2*y2\ny3 -> t^3*y1\n"
        "y4 -> t^4*y1^2*y4 - t^4*y2^5 - 2*t^4*y2^2\nverified: yes\n",
        '{"a": 3, "b": 2, "images": [[[[0, 0, 1, 0], [0, 0, 0, 1, 0, 0]]], '
        '[[[0, 1, 0, 0], [0, 0, 1, 0, 0, 0]]], [[[1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]], '
        '[[[2, 0, 0, 1], [0, 0, 0, 0, 1, 0]], [[0, 5, 0, 0], [0, 0, 0, 0, -1, 0]], '
        '[[0, 2, 0, 0], [0, 0, 0, 0, -2, 0]]]], "verified": true, "word": "m(1,1) s2"}\n',
    ),
    ("2", "2", "m(1,0) s3 h"): (
        "y1 -> t*y2\ny2 -> y3\ny3 -> t*y4\ny4 -> y1*y4^2 - y3^3 - 2*y3\nverified: yes\n",
        '{"a": 2, "b": 2, "images": [[[[0, 1, 0, 0], [0, 1]]], [[[0, 0, 1, 0], [1, 0]]], '
        '[[[0, 0, 0, 1], [0, 1]]], [[[1, 0, 0, 2], [1, 0]], [[0, 0, 3, 0], [-1, 0]], '
        '[[0, 0, 1, 0], [-2, 0]]]], "verified": true, "word": "m(1,0) s3 h"}\n',
    ),
    ("3", "1", "s3 m(2,0)"): (
        "y1 -> y1*y4^3 - y3^2 - 3*y3 - 3\ny2 -> t^2*y4\ny3 -> y3\ny4 -> t*y2\n"
        "verified: yes\n",
        '{"a": 3, "b": 1, "images": [[[[1, 0, 0, 3], [1, 0, 0]], [[0, 0, 2, 0], [-1, 0, 0]], '
        '[[0, 0, 1, 0], [-3, 0, 0]], [[0, 0, 0, 0], [-3, 0, 0]]], [[[0, 0, 0, 1], [0, 0, 1]]], '
        '[[[0, 0, 1, 0], [1, 0, 0]]], [[[0, 1, 0, 0], [0, 1, 0]]]], "verified": true, '
        '"word": "s3 m(2,0)"}\n',
    ),
    ("1", "1", "m(0,0)"): (
        "y1 -> y1\ny2 -> y2\ny3 -> y3\ny4 -> y4\nverified: yes\n",
        '{"a": 1, "b": 1, "images": [[[[1, 0, 0, 0], [1]]], [[[0, 1, 0, 0], [1]]], '
        '[[[0, 0, 1, 0], [1]]], [[[0, 0, 0, 1], [1]]]], "verified": true, "word": "m(0,0)"}\n',
    ),
}


def test_surrogate_output_bytes_are_pinned(capsys):
    for (a, b, word), (text, js) in GOLDEN.items():
        argv = ["aut-compose", "--a", a, "--b", b, *word.split()]
        assert run_cli(capsys, *argv) == (0, text, "")
        assert run_cli(capsys, *argv, "--format", "json") == (0, js, "")


def test_word_fold_output_bytes_are_pinned(capsys):
    """Bytes recorded while words were still composed one letter at a time:
    h at a != b on every word command, the ring that an m(0,0) atom selects,
    and literal words, whose huge r^k at (1,1) is read modulo the order 5.
    At a = b the literal s3 is the corrected one, so such a word is verified."""
    for a, b in (("2", "1"), ("3", "2")):
        err = f"error: SwapRequiresEqualParams: swap undefined for ({a},{b})\n"
        for command in ("aut-compose", "aut-order", "aut-factor"):
            for word in (["h"], ["s2", "h"], ["h", "s3"]):
                assert run_cli(capsys, command, "--a", a, "--b", b, *word) == (1, "", err)
    pinned = [
        (["--a", "2", "--b", "1", "s2", "m(0,0)", "--format", "json"],
         '{"a": 2, "b": 1, "images": [[[[0, 0, 1, 0], [1, 0]]], [[[0, 1, 0, 0], [1, 0]]], '
         '[[[1, 0, 0, 0], [1, 0]]], [[[1, 0, 0, 1], [1, 0]], [[0, 1, 0, 0], [-1, 0]]]], '
         '"verified": true, "word": "s2 m(0,0)"}\n'),
        (["--a", "3", "--b", "2", "m(0,0)", "s3", "--format", "json"],
         '{"a": 3, "b": 2, "images": [[[[1, 0, 0, 3], [1, 0, 0, 0, 0, 0]], '
         '[[0, 0, 5, 0], [-1, 0, 0, 0, 0, 0]], [[0, 0, 3, 0], [-3, 0, 0, 0, 0, 0]], '
         '[[0, 0, 1, 0], [-3, 0, 0, 0, 0, 0]]], [[[0, 0, 0, 1], [1, 0, 0, 0, 0, 0]]], '
         '[[[0, 0, 1, 0], [1, 0, 0, 0, 0, 0]]], [[[0, 1, 0, 0], [1, 0, 0, 0, 0, 0]]]], '
         '"verified": true, "word": "m(0,0) s3"}\n'),
        (["--a", "2", "--b", "1", "--paper-literal", "s2", "s3"],
         "y1 -> y1*y4^2 + y1 - y3 - 1\ny2 -> y1*y4 - y2\ny3 -> y1\ny4 -> y2\nverified: no\n"),
        (["--a", "2", "--b", "1", "--paper-literal", "s2", "s3", "--format", "json"],
         '{"a": 2, "b": 1, "images": [[[[1, 0, 0, 2], [1]], [[1, 0, 0, 0], [1]], '
         '[[0, 0, 1, 0], [-1]], [[0, 0, 0, 0], [-1]]], [[[1, 0, 0, 1], [1]], '
         '[[0, 1, 0, 0], [-1]]], [[[1, 0, 0, 0], [1]]], [[[0, 1, 0, 0], [1]]]], '
         '"verified": false, "word": "s2 s3"}\n'),
        (["--a", "1", "--b", "1", "--paper-literal", "r^99999999999999999999"],
         "y1 -> y3\ny2 -> y4\ny3 -> y1*y4 - 1\ny4 -> y1\nverified: yes\n"),
        (["--a", "1", "--b", "1", "--paper-literal", "r^-99999999999999999995"],
         "y1 -> y1\ny2 -> y2\ny3 -> y3\ny4 -> y4\nverified: yes\n"),
    ]
    for argv, out in pinned:
        assert run_cli(capsys, "aut-compose", *argv) == (0, out, "")
    assert run_cli(
        capsys, "aut-order", "--a", "1", "--b", "1", "--paper-literal", "r^99999999999999999999"
    ) == (0, "5\n", "")


def clear_caches():
    """Empty the generator, group and walk caches, the held replies
    included, as in a fresh process."""
    from clusteraut import autgroup, surface

    caches = (
        surface.identity, surface.sigma2, surface.sigma3, surface.scaling, surface.swap,
        autgroup.structure_of, autgroup._reading,
    )
    for fn in caches:
        fn.cache_clear()
    clear_walk_cache()


def test_budget_refusals_do_not_depend_on_history(capsys):
    """The group structure and the generators are kept per term budget, so
    a request refused in a fresh process is refused after a default-budget
    run of the same pair too.  group-structure at (2,2) was refused under
    --max-terms 3 while its tables came from composed maps; they now come
    from the generators alone, and it answers as at the default budget."""
    refused = [
        ["group-structure", "--a", "3", "--b", "3"],
        ["group-mul", "--a", "3", "--b", "2", "s2", "s3"],
    ]
    clear_caches()
    answered = ["group-structure", "--a", "2", "--b", "2"]
    small = run_cli(capsys, *answered, "--max-terms", "3")
    assert small[0] == 0 and small == run_cli(capsys, *answered)
    clear_caches()
    err = "budget exceeded: normal form budget exhausted\n"
    for argv in refused:
        assert run_cli(capsys, *argv, "--max-terms", "3") == (3, "", err)
    for argv in refused:
        assert run_cli(capsys, *argv)[0] == 0
        for _ in range(2):
            assert run_cli(capsys, *argv, "--max-terms", "3") == (3, "", err)


def test_small_budget_answers_equal_the_default_ones(capsys):
    """Under every --max-terms from 1 to 40, a group command at a, b <= 4
    is either refused (exit 3) or gives its default-budget answer, error
    text and exit code included."""
    commands = (["group-structure"], ["group-mul", "s2", "s3"], ["group-enumerate"])
    for a in range(1, 5):
        for b in range(1, 5):
            for command in commands:
                argv = [command[0], "--a", str(a), "--b", str(b), *command[1:]]
                want = run_cli(capsys, *argv)
                assert want[0] in (0, 1)
                for cap in range(1, 41):
                    got = run_cli(capsys, *argv, "--max-terms", str(cap))
                    assert got[0] == 3 or got == want, (argv, cap)


def test_map_json_with_spread_coefficients_keeps_budget_refusals(capsys, tmp_path):
    """Maps read with --map-json may carry coefficients over several powers
    of t, which no group element has.  Under --max-terms each y-monomial is
    one term however many powers of t it carries, so the refusals below,
    recorded when the coefficients were vectors, stay where they were."""
    # s2 s3 h at (2,2) and s2 s3 s2 at (2,1), every coefficient c made c(1 + t)
    maps = {
        "22": '{"a": 2, "b": 2, "images": [[[[0, 1, 0, 0], [1, 1]]], [[[1, 0, 0, 0], [1, 1]]], '
        '[[[2, 0, 0, 1], [1, 1]], [[0, 3, 0, 0], [-1, -1]], [[0, 1, 0, 0], [-2, -2]]], '
        '[[[3, 0, 0, 2], [1, 1]], [[0, 4, 1, 0], [-1, -1]], [[1, 2, 0, 0], [-2, -2]], '
        '[[0, 2, 1, 0], [-3, -3]], [[1, 0, 0, 0], [-4, -4]], [[0, 0, 1, 0], [-3, -3]]]]}',
        "21": '{"a": 2, "b": 1, "images": [[[[1, 0, 0, 0], [1, 1]]], '
        '[[[1, 0, 0, 1], [1, 1]], [[0, 1, 0, 0], [-1, -1]]], '
        '[[[1, 0, 0, 2], [1, 1]], [[0, 0, 1, 0], [-1, -1]], [[0, 0, 0, 0], [-2, -2]]], '
        '[[[0, 0, 0, 1], [1, 1]]]]}',
    }
    no_word = "error: FactorizationFailed: no descent and no residue match at measure "
    cases = [
        ("22", "13", 3, "budget exceeded: normal form budget exhausted\n"),
        ("22", "14", 3, "budget exceeded: product has 17 terms, budget 14\n"),
        ("22", "24", 1, no_word + "6\n"),
        ("21", "6", 1, no_word + "5\n"),
    ]
    for name, text in maps.items():
        (tmp_path / f"{name}.json").write_text(text)
    for name, cap, code, err in cases:
        a, b = name
        argv = ["aut-factor", "--a", a, "--b", b, "--max-terms", cap]
        argv += ["--map-json", str(tmp_path / f"{name}.json")]
        assert run_cli(capsys, *argv) == (code, "", err)


def test_map_json_relation_check_no_longer_refuses(capsys, tmp_path):
    """Reading a map with --map-json checks no relations, so a budget that
    only the check ran past now reaches the factorization.  This request
    exited 3 ("normal form budget exhausted") while the relations were
    checked on every map read; budgets of 102 and more answered then too.
    The table of y_n read from the Laurent walk moved the boundary from
    65/66 to 40/41: at 40, y7 (27 terms) is refused while it is converted."""
    code, out, _ = run_cli(capsys, "aut-compose", "--a", "2", "--b", "3",
                           "s3", "s2", "s3", "m(1,0)", "--format", "json")
    assert code == 0
    path = tmp_path / "map.json"
    path.write_text(out)
    for cap, err in (("40", "budget exceeded: normal form budget exhausted\n"), ("41", "")):
        clear_caches()
        argv = ["aut-factor", "--a", "2", "--b", "3", "--max-terms", cap, "--map-json", str(path)]
        want = (3, "", err) if err else (0, "word: s3 s2 s3 m(1,0)\nrecomposes: yes\n", "")
        assert run_cli(capsys, *argv) == want


def test_console_script_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "clusteraut.cli", "period", "--a", "1", "--b", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "6"
    result = subprocess.run(
        [sys.executable, "-m", "clusteraut.cli", "cluster", "--a", "2", "--b", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2  # argparse: --n is required


def outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's own exits
    (help and usage errors) included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = [name for name, *_ in cli._COMMANDS]
C3 = ["cluster", "--a", "1", "--b", "1", "--n", "3"]
USAGE_ERRORS = [
    [], ["bogus"], ["clu"], ["--bogus"], ["--bogus", *C3], [*C3, "--bogus"],
    ["--", *C3], ["cluster", "--", *C3[1:]], [*C3, "period"], ["--a", "1", *C3],
    ["cluster"], ["cluster", "--a", "x", "--b", "1", "--n", "3"], [*C3, "--max", "5"],
    ["classify", "--a", "1", "--b", "1", "--c", "2"], ["group-mul", "--a", "2", "--b", "2", "s2"],
    ["aut-compose", "--a", "2", "--b", "2"], ["aut-order", "--a", "2", "--b", "2", "--max-word", "x", "r"],
    [*C3, "--format", "xml"], ["verify", "--suite", "nope"], ["verify", "--paper-literal"],
    ["verify", "--suite", "identities", "--a", "1"],
    ["geom-boundary", "--a", "2", "--b", "2", "--model", "bad"],
    ["geom-boundary", "--a", "2", "--b", "2", "--model", "barx", "--origin", "nowhere"],
    ["aut-factor", "--a", "2", "--b", "2"], [*C3, "--max-terms", "0"],
]


def full_tree(top):
    """The parser ``top`` with every subcommand a real ``ArgumentParser``,
    built from ``cli._COMMANDS`` with its help action, arguments and
    handler."""
    ap = argparse.ArgumentParser(prog=top.prog, description=top.description)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, summary, func, add_args in cli._COMMANDS:
        p = sub.add_parser(name, help=summary)
        add_args(p)
        p.set_defaults(func=func)
    return ap


def test_lazy_parser_prints_what_the_full_tree_prints(monkeypatch, tmp_path):
    """main(argv) builds only the subparser argparse dispatches to.  Its
    stdout, stderr and exit code equal those of the same call with every
    subparser built: on every help text, on argparse's usage errors and on
    the first 200 requests of each perfbench workload in both formats."""
    real = cli.build_parser

    def both(argv):
        lazy = outcome(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda: full_tree(real()))
            full = outcome(argv)
        assert lazy == full, argv
        return lazy

    helps = [
        ["--help"], ["-h"], *([name, "--help"] for name in COMMANDS),
        ["--help", "cluster"], ["-h", "bogus"],  # top-level help with a command named
        ["group-mul", "--a", "2", "--b", "2", "cluster", "--help"],  # a name as a value
        ["cluster", "-h", "--bogus"],  # help before an unknown option
    ]
    for argv in helps:
        code, out, err = both(argv)
        assert code == 0 and out.startswith("usage: clusteraut") and err == ""
    for argv in USAGE_ERRORS:  # [] and ["bogus"] among them: no subparser runs
        assert both(argv)[0] == 2, argv
    for workload in ("cluster-walk", "aut-roundtrip", "group-geom"):
        reqs = benchmark_requests(workload, 1, 200)
        for fmt in ("json", "text"):  # the JSON pass saves the maps that --map-json reads
            for req in reqs:
                argv = [arg.replace("{work}", str(tmp_path)) for arg in req["argv"]]
                assert argv[-2:] == ["--format", "json"]
                code, out, _ = both([*argv[:-1], fmt])
                if req["save"] and fmt == "json" and code == 0:
                    (tmp_path / req["save"]).write_text(out, encoding="utf-8")


def test_main_builds_only_the_dispatched_parser(monkeypatch):
    """The first call builds the top-level parser, which is kept.  After
    it, main(argv) constructs an ``ArgumentParser`` only for the subcommand
    argparse runs, and none when argparse stops before a subcommand."""
    built = 0
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    cases = [
        (["cluster", "--a", "2", "--b", "2", "--n", "5"], 2),  # the top level is built
        (["cluster", "--a", "2", "--b", "2", "--n", "5"], 1),
        (["group-mul", "--a", "2", "--b", "2", "cluster", "--help"], 1),  # cluster only a value
        (["--help"], 0),
        (["bogus"], 0),
    ]
    for argv, parsers in cases:
        built = 0
        outcome(argv)
        assert built == parsers, argv


def test_a_handler_replaced_in_the_command_table_runs(monkeypatch):
    """A placeholder reads its ``_COMMANDS`` row when argparse dispatches to
    it, so a handler replaced after the shared parser exists runs on the
    next call, and the real one again once the table is restored."""
    argv = ["period", "--a", "1", "--b", "2"]
    assert outcome(argv) == (0, "6\n", "")
    shared = cli.build_parser()
    ran = []

    def fake(args):
        ran.append(args.command)
        return 0, {}, "patched"

    real = cli._COMMANDS
    monkeypatch.setattr(
        cli, "_COMMANDS", tuple(row[:2] + (fake,) + row[3:] if row[0] == "period" else row for row in real)
    )
    assert outcome(argv) == (0, "patched\n", "")
    assert ran == ["period"]
    monkeypatch.setattr(cli, "_COMMANDS", real)
    assert outcome(argv) == (0, "6\n", "")
    assert ran == ["period"] and cli.build_parser() is shared


def parser_state(ap):
    """What a parse could change on the parser ``ap``: its attributes, those
    of its actions and those of the placeholders in its subparser map, with
    every list and dict among them copied."""

    def attributes(obj):
        return {k: copy.copy(v) if isinstance(v, (list, dict)) else v for k, v in vars(obj).items()}

    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    placeholders = {name: attributes(p) for name, p in sub._name_parser_map.items()}
    return attributes(ap), [attributes(a) for a in ap._actions], placeholders


def test_the_shared_parser_keeps_no_state_between_calls(monkeypatch, tmp_path):
    """Through the shared parser, the help texts, argparse's usage errors and
    the first 200 requests of each perfbench workload (in both formats), run
    forward and then in reverse order, give what a parser built for that
    call alone gives, and no attribute of the shared parser, of its actions
    or of its placeholders changes or grows."""
    shared = cli.build_parser()
    before = parser_state(shared)
    helps = [["--help"], ["-h"], *([name, "--help"] for name in COMMANDS), ["-h", "bogus"]]
    argvs = helps + USAGE_ERRORS
    saves = {}
    for workload in ("cluster-walk", "aut-roundtrip", "group-geom"):
        for req in benchmark_requests(workload, 1, 200):
            argv = [arg.replace("{work}", str(tmp_path)) for arg in req["argv"]]
            for fmt in ("json", "text"):  # the JSON pass saves the maps that --map-json reads
                argvs.append([*argv[:-1], fmt])
                if req["save"] and fmt == "json":
                    saves[len(argvs) - 1] = tmp_path / req["save"]
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for i in order:
            monkeypatch.setattr(cli, "_PARSER", None)  # a parser built for this call
            fresh = outcome(argvs[i])
            monkeypatch.setattr(cli, "_PARSER", shared)
            assert outcome(argvs[i]) == fresh, argvs[i]
            assert parser_state(shared) == before, argvs[i]
            if i in saves and fresh[0] == 0:
                saves[i].write_text(fresh[1], encoding="utf-8")
    assert cli.build_parser() is shared


def test_threads_parse_through_the_shared_parser_alone(monkeypatch):
    """Eight threads parsing distinct argv through the shared parser, each
    many times over, get the namespaces a serial parse gets, also when they
    start before the parser is built and so may race to build it."""
    argvs = [
        req["argv"]
        for workload in ("cluster-walk", "aut-roundtrip", "group-geom")
        for req in benchmark_requests(workload, 1, 200)
    ]
    argvs = [list(argv) for argv in dict.fromkeys(map(tuple, argvs))][:64]
    assert len(argvs) == 64
    serial = [vars(cli.build_parser().parse_args(argv)) for argv in argvs]
    monkeypatch.setattr(cli, "_PARSER", None)
    errors = []

    def worker(k):
        try:
            for _ in range(40):
                for i in range(k, len(argvs), 8):
                    assert vars(cli.build_parser().parse_args(argvs[i])) == serial[i], argvs[i]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
