"""Command-line interface: exit codes, JSON payload stability, text output."""
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusteraut.cli import main
from clusteraut.cluster import clear_walk_cache


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
    """A map whose images are all zero is refused like one with a zero image."""
    one_zero = [[[[1, 0, 0, 0], [0]]], [[[0, 1, 0, 0], [1]]],
                [[[0, 0, 1, 0], [1]]], [[[0, 0, 0, 1], [1]]]]
    for images in ([[], [], [], []], one_zero):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"a": 2, "b": 2, "images": images}))
        code, out, err = run_cli(
            capsys, "aut-factor", "--a", "2", "--b", "2", "--map-json", str(path)
        )
        assert (code, out) == (1, "") and err.startswith("error: ZeroPolynomial: ")


def test_group_commands(capsys):
    code, payload, _ = run_json(capsys, "group-mul", "--a", "2", "--b", "2", "s2", "s3")
    assert code == 0 and payload["product"] == "r"
    code, payload, _ = run_json(capsys, "group-structure", "--a", "1", "--b", "1")
    assert code == 0 and payload["group_order"] == 10
    code, payload, _ = run_json(capsys, "group-structure", "--a", "2", "--b", "2")
    assert code == 0 and payload["group_order"] is None
    code, payload, _ = run_json(capsys, "group-enumerate", "--a", "2", "--b", "1")
    assert code == 0 and payload["count"] == 12
    code, _, err = run_cli(capsys, "group-enumerate", "--a", "2", "--b", "2")
    assert code == 1 and "error" in err


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
    # literal-formula maps skip the endomorphism check (the literal images
    # need not satisfy the defining relations), so verified is always False
    code, payload, _ = run_json(
        capsys, "aut-compose", "--a", "2", "--b", "3", "--paper-literal", "s3"
    )
    assert code == 0 and payload["verified"] is False
    code, payload, _ = run_json(
        capsys, "aut-compose", "--a", "2", "--b", "2", "--paper-literal", "s3"
    )
    assert code == 0 and payload["verified"] is False


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


def test_json_output_is_byte_stable(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "aut-compose", "--a", "3", "--b", "2",
                            "s2", "s3", "s2", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


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
