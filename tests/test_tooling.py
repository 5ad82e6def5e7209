"""Checks on the package as a whole.

``perfbench/tracing.py`` wraps functions it names by string and the worker's
warm-up calls the package directly, so deleting or renaming one of those
names breaks ``perfbench/run.py --trace 1`` without failing any other test.
A short traced run of each workload must complete with no failed request
and a passing oracle self-test.

Every memoizing cache in ``src/clusteraut`` names its bound, so that a
long-lived process cannot grow without limit.

Every request is answered by a fresh process that first imports
``clusteraut.cli``, so that import loads neither ``dataclasses`` (which
pulls in ``inspect``, ``ast`` and ``dis``) nor ``clusteraut.geom``, which
only the geometry commands load.

The group's action tables are read from word folds and checked on the
generators' images, the check h o s2 o h = s3 at a = b renames images, and
every group element is read from a word fold, so the group commands and
``aut-order`` compose no surface map, and a word of infinite order none at
all; a fresh interpreter counts the calls.
The surface variables those maps are built from come from the Laurent walk,
so building them substitutes nothing and rewrites nothing into normal form,
and sigma2 and sigma3 are built in closed form, with no kernel product.

``cluster_var`` reads y_n below the seed from the dual walk without calling
itself again, so a traced run counts one ``cluster.cluster_var`` span per
outside call.

Sizes are checked before work: a generator whose binomial row would not fit
the budget's memory, a compactification whose dense classes would not, and
a ``cluster`` request whose denominator-vector floor passes the budget, are
refused at once, and that floor never exceeds a term count the walk
reaches.

A request constructs two ``argparse.ArgumentParser`` objects, the top-level
one and that of the subcommand argparse dispatches to, and adds only their
arguments.
"""
import ast
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from clusteraut import cluster
from clusteraut.budget import limit
from clusteraut.errors import BudgetExceeded
from clusteraut.poly import Params

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cluster-walk", "aut-roundtrip", "group-geom")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run(workload):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--mode", "trace",
            "--seconds", "0.3", "--seed", "1",
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["completed"] > 0
    assert result["failures"] == {"exit": 0, "exception": 0, "oracle": 0}, (
        result["first_failures"]
    )
    assert result["self_test"] and all(result["self_test"].values())
    assert result["layers"]["trace.spans"] > 0


def _unbounded_caches(tree):
    """(line, what) for each functools.cache, each lru_cache applied without
    a maxsize keyword (``@lru_cache``, ``@lru_cache()``, ``lru_cache(f)``)
    and each maxsize=None."""
    def is_lru(expr):
        name = getattr(expr, "id", None) or getattr(expr, "attr", None)
        return name == "lru_cache"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for a in node.names if a.name == "cache"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "cache"
            and getattr(node.value, "id", None) == "functools"
        ):
            found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.keyword) and node.arg == "maxsize":
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                found.append((node.value.lineno, "maxsize=None"))
        # lru_cache applied bare: as a decorator, or called on a function
        bare = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bare += [d for d in node.decorator_list if is_lru(d)]
        if isinstance(node, ast.Call) and is_lru(node.func):
            if not any(kw.arg == "maxsize" for kw in node.keywords):
                bare.append(node)
        found += [(expr.lineno, "lru_cache without maxsize") for expr in bare]
    return found


def test_every_cache_is_bounded():
    sources = sorted((ROOT / "src" / "clusteraut").glob("*.py"))
    assert sources
    found = {
        path.name: _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
        for path in sources
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
    bad = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache\ndef f(): pass\n"
        "@lru_cache()\ndef g(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef h(): pass\n"
        "@functools.cache\ndef i(): pass\n"
        "j = lru_cache(lambda: 0)\n"
        "@lru_cache(maxsize=8)\ndef k(): pass\n"
    )
    assert sorted(_unbounded_caches(bad)) == [
        (2, "functools.cache"),
        (3, "lru_cache without maxsize"),
        (5, "lru_cache without maxsize"),
        (7, "maxsize=None"),
        (9, "functools.cache"),
        (11, "lru_cache without maxsize"),
    ]


_LOADED = """
import contextlib, io, sys
from clusteraut import cli

def loaded():
    return [
        m for m in ("dataclasses", "inspect", "clusteraut.geom", "clusteraut.suites")
        if m in sys.modules
    ]

print(loaded())
for argv in (["cluster", "--a", "2", "--b", "2", "--n", "5"],
             ["geom-boundary", "--a", "2", "--b", "3", "--model", "pentagon"],
             ["verify", "--suite", "identities"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    print(loaded())
"""


def test_cli_import_loads_only_what_a_command_uses():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "[]", "['clusteraut.geom']", "['clusteraut.geom', 'clusteraut.suites']",
    ]


def _dataclass_imports(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(node.lineno)
    return found


def test_no_module_imports_dataclasses():
    sources = sorted((ROOT / "src" / "clusteraut").glob("*.py"))
    assert sources
    found = {
        path.name: _dataclass_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sources
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    bad = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\nimport os, dataclasses as d\n"
    )
    assert sorted(_dataclass_imports(bad)) == [1, 2, 3]


_COMPOSES = """
import contextlib, io, sys
from clusteraut import autgroup, cli, surface

callers = []
real = surface.compose

def counted(*args, **kwargs):
    callers.append(sys._getframe(1).f_code.co_name)
    return real(*args, **kwargs)

for mod in [m for name, m in sys.modules.items() if name.startswith("clusteraut")]:
    for key, value in list(vars(mod).items()):
        if value is real:
            setattr(mod, key, counted)
group = (["group-structure"], ["group-mul", "s2", "s3"])
for a, b, argvs in (
    ("7", "3", group),
    ("3", "3", group + (["group-mul", "h m(1,2)", "s2 h"],)),
    ("2", "2", (["aut-order", "s2 s3 m(1,1)"],)),
    ("2", "1", (["aut-order", "s2 s3 m(1,1)"],)),
):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([argv[0], "--a", a, "--b", b, *argv[1:]]) == 0
    print(callers)
    callers.clear()
"""


def test_group_commands_compose_no_maps():
    """The action tables are read from word folds and checked on the
    generators' images, the check h o s2 o h = s3 at a = b renames sigma2's
    images, and the group law is the fold itself: group-structure and
    group-mul compose no surface map at (7,3), nor at (3,3) with h in the
    words.  aut-order proves its order with four table entries per map, so
    it composes none at (2,2) or (2,1); a fallback to powers of the map
    would show."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _COMPOSES],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 4


#: a fresh interpreter that counts the calls of the kernel functions
#: ``names`` through every module that holds one, the kernel's private
#: aliases included, and then runs ``body``
_KERNEL_CALLS = """
import contextlib, io, sys
from clusteraut import _kernel, cli

calls = dict.fromkeys({names!r}, 0)

def counting(name, real):
    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return counted

for name in list(calls):
    real = getattr(_kernel, name)
    wrapped = counting(name, real)
    for mod in [m for key, m in sys.modules.items() if key.startswith("clusteraut")]:
        for key, value in list(vars(mod).items()):
            if value is real:
                setattr(mod, key, wrapped)
{body}
"""


def _count_kernel_calls(names, body) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_CALLS.format(names=names, body=body)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


#: every kernel function that does polynomial work
_KERNEL_NAMES = (
    "add_terms", "neg_terms", "scale_terms", "wrap_t", "mul_terms", "pow_terms",
    "exact_div_terms", "substitute_terms", "binomial_row", "normal_form_terms",
)


def test_surface_maps_need_no_substitution_or_rewriting():
    """Each y_n of the table comes from the Laurent walk and one conversion
    to standard monomials: a cold five-letter word at (3,2) and (2,3), whose
    images are y_-1 .. y_-4, substitutes nothing and rewrites nothing into
    normal form (the kernel's private alias of ``normal_form_terms`` is
    counted too)."""
    body = """
for a, b in (("3", "2"), ("2", "3")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["aut-compose", "--a", a, "--b", b, "s2", "s3", "s2", "s3", "s2"]) == 0
    print(sorted(calls.items()))
"""
    zero = "[('normal_form_terms', 0), ('substitute_terms', 0)]"
    assert _count_kernel_calls(("substitute_terms", "normal_form_terms"), body) == [zero, zero]


def test_group_structure_builds_its_generators_in_closed_form():
    """sigma2 and sigma3 build y0 and y5 in normal form from the
    hockey-stick identity, and the check h o s2 o h = s3 renames images: a
    cold group-structure at (40,40) raises nothing to a power, multiplies
    nothing and substitutes nothing."""
    body = """
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["group-structure", "--a", "40", "--b", "40"]) == 0
print(sorted(calls.items()))
"""
    names = ("pow_terms", "mul_terms", "substitute_terms")
    assert _count_kernel_calls(names, body) == [
        "[('mul_terms', 0), ('pow_terms', 0), ('substitute_terms', 0)]"
    ]


def test_repeated_refusals_make_no_kernel_call():
    """The first refused step of a walk and a refused surface variable are
    kept per term budget: a repeated refused ``cluster`` request and a
    repeated refused ``aut-compose`` request print the same error again and
    call no kernel function."""
    body = """
for argv in (
    ["cluster", "--a", "3", "--b", "2", "--n", "8", "--max-terms", "50"],
    ["aut-compose", "--a", "3", "--b", "3", "--max-terms", "400", "r^3"],
):
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(code, err.getvalue().strip(), sum(calls.values()) > 0)
"""
    walk = "3 budget exceeded: product has 95 terms, budget 50"
    surface = "3 budget exceeded: product work 100*367 exceeds budget"
    assert _count_kernel_calls(_KERNEL_NAMES, body) == [
        f"{walk} True", f"{walk} False", f"{surface} True", f"{surface} False"
    ]


#: a fresh interpreter that counts the calls of the argparse function
#: ``method`` (for ``add_argument``, the help action of every parser
#: included) while it runs one request
_ARGPARSE_CALLS = """
import argparse, contextlib, io
from clusteraut import cli

calls = 0
real = {method}

def counted(self, *args, **kwargs):
    global calls
    calls += 1
    return real(self, *args, **kwargs)

{method} = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["cluster", "--a", "2", "--b", "2", "--n", "5"]) == 0
print(calls)
"""


def _count_argparse_calls(method) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _ARGPARSE_CALLS.format(method=method)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_request_builds_only_its_own_arguments():
    """A cluster request adds the help action of the top-level parser, and
    the help action and six arguments of ``cluster``, the subcommand
    argparse dispatches to: 8 ``add_argument`` calls, where a help action
    on each of the 11 subcommands made 18 and building every command's
    arguments made 81."""
    assert _count_argparse_calls("argparse._ActionsContainer.add_argument") == ["8"]


def test_a_request_constructs_two_parsers():
    """A cluster request constructs the top-level ``ArgumentParser`` and
    that of ``cluster``, the subcommand argparse dispatches to: 2, where a
    subparser for each of the 11 subcommands made 12."""
    assert _count_argparse_calls("argparse.ArgumentParser.__init__") == ["2"]


_TRACED_VAR = """
import sys
sys.path.insert(0, {perfbench!r})
import clusteraut
from clusteraut import cli, cluster
from clusteraut.poly import Params
from tracing import Tracer

tracer = Tracer()
tracer.install(clusteraut)
cluster.cluster_var(Params(2, 2), -5)
print(tracer.calls["cluster.cluster_var"])
"""


def test_trace_counts_one_span_per_cluster_var_call():
    """y_n below the seed is read from the dual walk inside cluster_var, not
    by a second call of it, so the traced per-layer count of
    ``cluster.cluster_var`` stays one per outside call."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_VAR.format(perfbench=str(ROOT / "perfbench"))],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1"]


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_in_one_gib(argv) -> tuple:
    """Exit code, stdout and stderr of ``clusteraut argv`` in a fresh
    process under a 1 GiB address space, killed after 10 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "clusteraut.cli", *argv],
        capture_output=True, text=True, timeout=10, cwd=ROOT, env=env,
        preexec_fn=_one_gib_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    ["group-structure", "--a", "300000", "--b", "1"],
    ["group-mul", "--a", "100000", "--b", "1", "s2", "s3"],
])
def test_huge_generators_are_refused_in_bounded_memory(argv):
    """sigma3's y5 at (a, 1) holds the binomial row C(a, *), about 0.72 *
    a^2 bits: it is refused before it is built when a^2 bits pass
    ``WORK_FACTOR`` times the term budget in 64-bit words.  Under a 1 GiB
    address space each request exits 3 within 10 s, with no traceback."""
    err = f"budget exceeded: binomial row {argv[2]} exceeds budget\n"
    assert _run_in_one_gib(argv) == (3, "", err)


@pytest.mark.parametrize("argv", [
    ["geom-boundary", "--a", "1000000", "--b", "1", "--model", "barx"],
    ["classify", "--a", "1000000", "--b", "3", "--c", "3", "--d", "1000000"],
])
def test_huge_geometry_is_refused_in_bounded_memory(argv):
    """Every divisor class is a dense tuple of length rank <= a + b + 4, so
    a compactification is refused before it is built when rank^2 passes
    ``WORK_FACTOR`` times the term budget.  Under a 1 GiB address space
    each request exits 3 within 10 s, with no traceback."""
    rank = int(argv[2]) + int(argv[4]) + 4
    err = f"budget exceeded: classes of rank {rank} exceed budget\n"
    assert _run_in_one_gib(argv) == (3, "", err)


def test_infinite_order_composes_no_map():
    """aut-order asks the group first, and a word of infinite order gets
    its answer before any map is composed: once the group of (2,2) is
    built, r^k with a 20-digit k there exits 0 with no order and calls no
    kernel function."""
    body = """
import json
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["group-structure", "--a", "2", "--b", "2"]) == 0
calls.update(dict.fromkeys(calls, 0))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["aut-order", "--a", "2", "--b", "2", "r^99999999999999999999", "--format", "json"])
print(code, json.loads(out.getvalue())["order"], sum(calls.values()))
"""
    assert _count_kernel_calls(_KERNEL_NAMES, body) == ["0 None 0"]


def test_huge_indices_are_refused_before_the_walk():
    """A y_n whose denominator vector (d1, d2) gives d1 + d2 + 1 > budget
    terms is refused before its walk starts: no kernel function runs."""
    body = """
for argv in (["cluster", "--a", "3", "--b", "3", "--n", "40"],
             ["cluster", "--a", "5", "--b", "1", "--n", "-30"]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(code, err.getvalue().strip(), sum(calls.values()))
"""
    assert _count_kernel_calls(_KERNEL_NAMES, body) == [
        "3 budget exceeded: y40 has at least 3010350 terms, budget 1000000 0",
        "3 budget exceeded: y-30 has at least 1467663 terms, budget 1000000 0",
    ]


def test_size_floor_is_at_most_the_term_count():
    """``cluster._size_floor``, by which ``cluster`` requests are refused
    before any walk, is at most the term count of every y_n with ab >= 4
    and n >= 3 that the sweeps of criteria 01 and 02 materialize: each pair
    with a + b <= 8 walked to index 23 under 120,000 terms (criterion 02
    reads n = 1..20 there, and n = 0..-20 as index 3 - n at (b, a)), and
    (2,2), (4,1) and (3,2) walked to index 52 under 250,000 terms
    (criterion 01).  Each walk stops where the floor or the walk refuses, as
    a ``cluster`` request does."""
    sweeps = [
        (Params(a, b), 23, 120_000)
        for a in range(1, 8) for b in range(1, 8) if a + b <= 8 and a * b >= 4
    ]
    sweeps += [(Params(a, b), 52, 250_000) for a, b in ((2, 2), (4, 1), (3, 2))]
    checked = 0
    for params, top, cap in sweeps:
        walk = cluster.cluster_walk(params)
        with limit(cap):
            for n in range(1, top + 1):
                floor = cluster._size_floor(params, n, cap) if n >= 3 else 0
                if floor > cap:
                    break
                try:
                    value = next(walk).value
                except BudgetExceeded:
                    break
                assert floor <= value.num_terms, (params, n)
                checked += n >= 3
    assert checked == 297
