"""Command-line front end.

Subcommands cover every computation the library offers: cluster variables
and periods, surface-map composition / factorization / order, abstract-group
arithmetic and enumeration, boundary geometry, the isomorphism classifier,
and the self-verification suites.

Exit codes: 0 the command ran (mathematical verdicts, true or false, live in
the payload); 1 run-time errors and failed verification suites; 2 malformed
input or configuration; 3 exhausted term budget.

Only ``verify`` imports its suites (``clusteraut.suites``), and only the
geometry commands and those suites import ``clusteraut.geom``, so a process
that answers other commands never loads either.

The parser is built on every call, but of the 11 subcommands only the one
argparse dispatches to gets a real ``ArgumentParser``: the others stay
placeholders that hold their help line (``build_parser``).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import autgroup, cluster
from . import surface as surf
from .budget import DEFAULT_MAX_TERMS, limit
from .errors import BudgetExceeded, EngineError, ParseError
from .poly import Params, descending_keys
from .textio import parse_word, print_poly, print_word

DEFAULT_MAX_WORD = 16


class UsageError(Exception):
    """Invalid flag combination or argument value (exit code 2)."""

_MODELS = {
    "barx": "BarX",
    "pentagon": "Pentagon",
    "triangle": "TriangleT",
    "square": "SquareS",
    "y": "Y",
}


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _params(args) -> Params:
    try:
        return Params(args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- simple subcommands ----------------------------------------------------


def cmd_cluster(args):
    params = _params(args)
    cluster.refuse_by_size(params, args.n)  # a huge n is refused before any walk
    var = cluster.cluster_var(params, args.n)
    keys = descending_keys(var.value, params)  # the order of both forms
    text_poly = print_poly(var.value, params, keys)
    positive = var.positive
    payload = {
        "a": params.a,
        "b": params.b,
        "n": args.n,
        "num_terms": var.value.num_terms,
        "positive": positive,
        "terms": surf.term_rows(var.value, params, keys),
        "text": text_poly,
    }
    if args.format == "json":
        return 0, payload, None  # the text form would not be printed
    text = "\n".join(
        [
            f"y{args.n} = {text_poly}",
            f"terms: {var.value.num_terms}",
            f"positive coefficients: {_yes(positive)}",
        ]
    )
    return 0, payload, text


def cmd_period(args):
    params = _params(args)
    if args.n_max < 2:
        raise UsageError("n_max must be at least 2")
    period = cluster.detect_period(params, args.n_max)
    payload = {
        "a": params.a,
        "b": params.b,
        "n_max": args.n_max,
        "period": period,
    }
    text = str(period) if period is not None else f"none within n_max={args.n_max}"
    return 0, payload, text


def _word_endo(args, word_text: str):
    params = _params(args)
    atoms = parse_word(word_text)
    return params, atoms, surf.compose_word(params, atoms, args.paper_literal)


def cmd_aut_compose(args):
    params, atoms, f = _word_endo(args, " ".join(args.word))
    payload = surf.endo_to_obj(f)
    payload["word"] = print_word(atoms)
    payload["verified"] = f.verified
    if args.format == "json":
        return 0, payload, None  # the text form would not be printed
    lines = [
        f"y{i + 1} -> {print_poly(e, params)}"
        for i, e in enumerate(f.images)
    ]
    lines.append(f"verified: {_yes(f.verified)}")
    return 0, payload, "\n".join(lines)


def cmd_aut_factor(args):
    params = _params(args)
    if args.map_json is not None:
        if args.word:
            raise UsageError("give either a word or --map-json, not both")
        try:
            if args.map_json == "-":
                src = sys.stdin.read()
            else:
                with open(args.map_json, encoding="utf-8") as fh:
                    src = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"map is not UTF-8 text ({exc})") from None
        f = surf.endo_from_json(src)
        if f.params != params:
            raise UsageError(
                f"map is for ({f.params.a},{f.params.b}), "
                f"command asked for ({params.a},{params.b})"
            )
    elif args.word:
        _, _, f = _word_endo(args, " ".join(args.word))
    else:
        raise UsageError("need a word or --map-json")
    atoms = surf.factorize(f, max_word=args.max_word)
    recomposes = surf.equal(surf.compose_word(params, atoms), f)
    payload = {
        "a": params.a,
        "b": params.b,
        "word": print_word(atoms),
        "atoms": [list(atom) for atom in atoms],
        "recomposes": recomposes,
    }
    text = "\n".join(
        [f"word: {print_word(atoms)}", f"recomposes: {_yes(recomposes)}"]
    )
    return 0, payload, text


def cmd_aut_order(args):
    params = _params(args)
    atoms = parse_word(" ".join(args.word))
    if args.paper_literal and params.a != params.b:  # no group element
        f = surf.compose_word(params, atoms, True)
        order = surf.order_of(f, cap=args.max_word)
    else:
        surf.fold_word(params, atoms)  # refuses h at a != b as the surface does
        order = autgroup.word_order(params, atoms, args.max_word)
    payload = {
        "a": params.a,
        "b": params.b,
        "word": print_word(atoms),
        "cap": args.max_word,
        "order": order,
    }
    text = str(order) if order is not None else f"none within cap={args.max_word}"
    return 0, payload, text


# -- group subcommands -----------------------------------------------------


def cmd_group_mul(args):
    params = _params(args)
    structure = autgroup.structure_of(params)
    x = autgroup.from_word(structure, parse_word(args.left))
    y = autgroup.from_word(structure, parse_word(args.right))
    z = autgroup.gmul(x, y)
    payload = {
        "a": params.a,
        "b": params.b,
        "left": str(x),
        "right": str(y),
        "product": str(z),
        "r_exp": z.r_exp,
        "s": z.s,
        "mu": list(z.mu),
        "h": z.h,
    }
    return 0, payload, str(z)


def cmd_group_structure(args):
    params = _params(args)
    st = autgroup.structure_of(params)
    order = None if st.dihedral_order is None else st.dihedral_order * st.mu_order
    payload = {
        "a": params.a,
        "b": params.b,
        "case": st.case,
        "finite": st.is_finite,
        "group_order": order,
        "dihedral_order": st.dihedral_order,
        "mu_order": st.mu_order,
        "has_swap": st.has_swap,
        "description": st.describe(),
    }
    text = "\n".join(
        [
            f"case: {st.case}",
            f"order: {order if order is not None else 'infinite'}",
            f"dihedral order: {st.dihedral_order if st.dihedral_order is not None else 'infinite'}",
            f"scaling order: {st.mu_order}",
            f"swap: {_yes(st.has_swap)}",
            f"description: {st.describe()}",
        ]
    )
    return 0, payload, text


def cmd_group_enumerate(args):
    params = _params(args)
    st = autgroup.structure_of(params)
    elements = autgroup.enumerate_finite(st)
    names = [str(e) for e in elements]
    payload = {
        "a": params.a,
        "b": params.b,
        "case": st.case,
        "count": len(names),
        "elements": names,
    }
    text = "\n".join(names + [f"count: {len(names)}"])
    return 0, payload, text


# -- geometry subcommands --------------------------------------------------


def cmd_geom_boundary(args):
    from . import geom

    params = _params(args)
    model = _MODELS[args.model]
    _, cycle = geom.build_compactification(params, model, args.origin)
    summary = geom.boundary_summary(cycle)
    payload = {"a": params.a, "b": params.b, "model": args.model, **summary}
    text = "\n".join(
        [
            f"model: {args.model}",
            f"origin: {summary['origin']}",
            "types: (" + ", ".join(str(t) for t in summary["types"]) + ")",
            f"anticanonical: {_yes(summary['anticanonical'])}",
            f"K^2: {summary['K2']}",
        ]
    )
    return 0, payload, text


def cmd_classify(args):
    from . import geom

    try:
        p1 = Params(args.a, args.b)
        p2 = Params(args.c, args.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    verdict = geom.isomorphism_verdict(p1, p2)
    inv1 = geom.square_invariant(
        geom.build_compactification(p1, "SquareS")[1].ngon_type()
    )
    inv2 = geom.square_invariant(
        geom.build_compactification(p2, "SquareS")[1].ngon_type()
    )
    payload = {
        "pair1": [p1.a, p1.b],
        "pair2": [p2.a, p2.b],
        "invariant1": list(inv1),
        "invariant2": list(inv2),
        "isomorphic": verdict,
    }
    text = "isomorphic" if verdict else "not isomorphic"
    return 0, payload, text


# -- verification suites ---------------------------------------------------


def cmd_verify(args):
    from .suites import SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    all_ok = True
    lines = []
    for name in names:
        entries = SUITES[name]()
        suites[name] = entries
        for e in entries:
            if e["ok"]:
                lines.append(f"PASS {e['name']}")
            else:
                all_ok = False
                lines.append(
                    f"FAIL {e['name']}: expected {e['expected']}, observed {e['observed']}"
                )
    total = sum(len(v) for v in suites.values())
    bad = sum(1 for v in suites.values() for e in v if not e["ok"])
    lines.append(
        f"{total - bad}/{total} checks passed" + ("" if all_ok else f", {bad} failed")
    )
    payload = {"suites": suites, "ok": all_ok, "checks": total, "failed": bad}
    return (0 if all_ok else 1), payload, "\n".join(lines)


# -- wiring ----------------------------------------------------------------


def _add_common(p, params=True):
    if params:
        p.add_argument("--a", type=int, required=True, help="first exponent (>= 1)")
        p.add_argument("--b", type=int, required=True, help="second exponent (>= 1)")
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--max-terms",
        type=int,
        default=DEFAULT_MAX_TERMS,
        help="term budget for polynomial work",
    )
    p.add_argument(
        "--max-word",
        type=int,
        default=DEFAULT_MAX_WORD,
        help="cap for factorization and order search",
    )


def _add_literal(p):
    p.add_argument(
        "--paper-literal",
        action="store_true",
        help="use the literal published formulas instead of the corrected ones",
    )


def _cluster_args(p):
    p.add_argument("--n", type=int, required=True, help="index of the variable")
    _add_common(p)


def _period_args(p):
    p.add_argument("--n-max", type=int, default=50, help="search horizon")
    _add_common(p)


def _aut_compose_args(p):
    p.add_argument("word", nargs="+", help="word tokens (s2 s3 sp(p) m(i,j) h)")
    _add_common(p)
    _add_literal(p)


def _aut_factor_args(p):
    p.add_argument("word", nargs="*", help="word to compose and refactor")
    p.add_argument(
        "--map-json", help="read the map from this JSON file ('-' = stdin)"
    )
    _add_common(p)
    _add_literal(p)


def _aut_order_args(p):
    p.add_argument("word", nargs="+", help="word tokens")
    _add_common(p)
    _add_literal(p)


def _group_mul_args(p):
    p.add_argument("left", help="first word (quoted)")
    p.add_argument("right", help="second word (quoted)")
    _add_common(p)


def _geom_boundary_args(p):
    p.add_argument(
        "--model",
        required=True,
        type=str.lower,
        choices=sorted(_MODELS),
        help="compactification script",
    )
    p.add_argument(
        "--origin",
        type=str.lower,
        choices=("plane", "quadric"),  # geom.PLANE, geom.QUADRIC; geom loads lazily
        default="plane",
        help="root of the blow-up script",
    )
    _add_common(p)


def _classify_args(p):
    p.add_argument("--c", type=int, required=True, help="first exponent, second surface")
    p.add_argument("--d", type=int, required=True, help="second exponent, second surface")
    _add_common(p)


def _verify_args(p):
    p.add_argument(
        "--suite",
        choices=("identities", "theorem", "geometry", "errata", "all"),
        default="all",
    )
    _add_common(p, params=False)


#: (name, help line, handler, argument builder) of every subcommand, in the
#: order the top-level help lists them
_COMMANDS = (
    ("cluster", "compute one cluster variable", cmd_cluster, _cluster_args),
    ("period", "detect the period of the recurrence", cmd_period, _period_args),
    ("aut-compose", "compose a generator word into a map", cmd_aut_compose, _aut_compose_args),
    ("aut-factor", "factor a map into generators", cmd_aut_factor, _aut_factor_args),
    ("aut-order", "order of a composed map", cmd_aut_order, _aut_order_args),
    ("group-mul", "multiply two abstract group words", cmd_group_mul, _group_mul_args),
    ("group-structure", "describe the automorphism group", cmd_group_structure, _add_common),
    ("group-enumerate", "list a finite group", cmd_group_enumerate, _add_common),
    (
        "geom-boundary",
        "boundary cycle of a compactification",
        cmd_geom_boundary,
        _geom_boundary_args,
    ),
    ("classify", "isomorphism verdict for two surfaces", cmd_classify, _classify_args),
    ("verify", "run a self-verification suite", cmd_verify, _verify_args),
)


class _Deferred:
    """A subparser that argparse may dispatch to.  Its ``_COMMANDS`` row and
    the keyword arguments of ``add_parser`` (``prog`` among them) are kept,
    and the real parser, with its help action, arguments and handler, is
    built when argparse calls ``parse_known_args(args, namespace)``, the one
    method ``_SubParsersAction`` calls on a subparser."""

    def __init__(self, command, **kwargs):
        self._command = command
        self._kwargs = kwargs

    def parse_known_args(self, args, namespace):
        _, _, func, add_args = self._command
        parser = argparse.ArgumentParser(**self._kwargs)
        add_args(parser)
        parser.set_defaults(func=func)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is listed with its help
    line, since the top-level help, usage and invalid-choice errors name them
    all, but each is a ``_Deferred`` placeholder: only the one argparse
    dispatches to is built, so what a call prints and returns is what the
    tree of real subparsers gives.  That relies on argparse calling no
    method of a subparser but ``parse_known_args``, as Python 3.11 does;
    other versions are untested."""
    ap = argparse.ArgumentParser(
        prog="clusteraut",
        description="Exact engine for rank-2 cluster surface automorphisms.",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Deferred)
    for command in _COMMANDS:
        sub.add_parser(command[0], help=command[1], command=command)
    return ap


def _run(args) -> tuple[int, str]:
    """Run the command and render what it prints.  The stdout of a
    ``cluster`` request that exited 0 is held in the walk cache, sized by
    the terms of its y_n, and printed from there when the same request comes
    again; a refused request's reply is not held (its walk keeps the
    refused step), and the budget is part of the key."""
    key = None
    if args.command == "cluster":
        key = ("reply", _params(args), args.n, args.max_terms, args.format)
        reply = cluster._walks.get(key)
        if reply is not None:
            return 0, reply
    code, payload, text = args.func(args)
    reply = json.dumps(payload, sort_keys=True) if args.format == "json" else text
    if key is not None and code == 0:
        cluster._walks.put(key, reply, payload["num_terms"])
    return code, reply


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_terms < 1 or args.max_word < 1:
        print("budget caps must be positive", file=sys.stderr)
        return 2
    try:
        with limit(args.max_terms):
            code, reply = _run(args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    print(reply)
    return code


if __name__ == "__main__":
    sys.exit(main())
