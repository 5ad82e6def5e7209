"""Spans and counters around clusteraut's layers, installed from outside.

``Tracer.install()`` replaces public functions of the package's modules with
timing wrappers.  A function is replaced under every name that any
clusteraut module binds to it, so ``from .textio import parse_word`` in cli
is traced as well as ``textio.parse_word``; calls a module makes to its own
functions go through its globals and are traced too.  The kernel is wrapped
only on ``clusteraut._kernel``: calls that ``_kernel_py`` (or the compiled
kernel) makes to its own functions, such as the products inside
``pow_terms``, stay invisible.

Every wrapped call is a span (name, start, end, parent, request id), kept in
memory and written out by ``write()``.  Self time is a span's duration minus
the time covered by its child spans.  Coefficient arithmetic of the
surrogate ring (``RSOps.mul`` / ``RSOps.add``) runs millions of times, so it
is counted, and ``mul`` timed, without spans; that time is subtracted from
the enclosing span like a child's.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs traced as spans; "Class.method" wraps a method
SPANS = {
    "cli": ["main"],
    "textio": ["parse_word", "print_word", "parse_poly", "print_poly"],
    "cluster": [
        "cluster_var", "detect_period", "check_relation", "verify_identity_y0",
        "verify_identity_y5", "verify_identity_y0_y5", "laurent_expand",
    ],
    "surface": [
        "compose", "compose_word", "factorize", "normal_form", "is_endomorphism",
        "equal", "order_of", "endo_to_obj", "endo_from_json",
    ],
    "autgroup": ["gmul", "ginv", "from_word", "to_endo", "structure_of", "enumerate_finite"],
    "geom": [
        "build_compactification", "boundary_summary", "isomorphism_verdict",
        "square_invariant", "is_anticanonical", "canonical_degree",
        "is_weak_del_pezzo", "fibered_modification_steps",
    ],
    "poly": ["LaurentPoly.__mul__", "LaurentPoly.__pow__", "exact_div", "substitute"],
    "_kernel": [
        "mul_terms", "pow_terms", "exact_div_terms", "substitute_terms",
        "normal_form_terms",
    ],
}

# span names as reported: the module's name without its leading underscore
_REPORT = {"LaurentPoly.__mul__": "mul", "LaurentPoly.__pow__": "pow"}


def _span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{_REPORT.get(attr, attr)}"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, request id)
        self.stack = []  # open spans: [id, child time]
        self.request = 0
        self.next_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # extra per-span counters

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn, measure=None):
        """Wrap fn as a span; measure(args, result, parent name) adds counters."""
        tracer = self

        def wrapped(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer.spans.append(
                    (sid, name, start, end, None if parent is None else parent[0], tracer.request)
                )
            if measure is not None:
                measure(args, result, None if parent is None else parent[2])
            return result

        return wrapped

    def counter(self, name: str, fn, timed: bool):
        tracer = self
        if not timed:
            def wrapped(*args):
                tracer.calls[name] += 1
                return fn(*args)
            return wrapped

        def wrapped(*args):
            start = perf_counter()
            result = fn(*args)
            dur = perf_counter() - start
            tracer.calls[name] += 1
            tracer.self_s[name] += dur
            if tracer.stack:
                tracer.stack[-1][1] += dur
            return result

        return wrapped

    def request_span(self, fn):
        """Wrap fn as the root span of a request; each call is a new request."""
        root = self.span("request", fn)

        def wrapped(*args):
            self.request += 1
            return root(*args)

        return wrapped

    # -- installation ----------------------------------------------------

    def _measures(self):
        counts = self.counts

        def mul_pairs(args, result, parent):
            counts["kernel.mul_terms.pairs"] += len(args[0]) * len(args[1])

        def nf_terms(args, result, parent):
            counts["kernel.normal_form_terms.terms_in"] += len(args[0])
            counts["kernel.normal_form_terms.terms_out"] += len(result)

        def poly_out(args, result, parent):
            counts["poly.terms_out"] += result.num_terms

        def equal_hits(args, result, parent):
            if parent == "surface.factorize":
                counts["surface.equal.scan_calls"] += 1
                counts["surface.equal.scan_hits"] += bool(result)

        return {
            "kernel.mul_terms": mul_pairs,
            "kernel.normal_form_terms": nf_terms,
            "poly.mul": poly_out,
            "poly.pow": poly_out,
            "poly.exact_div": poly_out,
            "poly.substitute": poly_out,
            "surface.equal": equal_hits,
        }

    def install(self, package) -> None:
        """Wrap the functions in SPANS and the RSOps counters of ``package``,
        for the rest of the process."""
        import importlib

        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in SPANS
        }
        modules["rings"] = importlib.import_module(f"{package.__name__}.rings")
        measures = self._measures()
        for mod_name, attrs in SPANS.items():
            mod = modules[mod_name]
            for attr in attrs:
                name = _span_name(mod_name, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.span(name, getattr(cls, meth), measures.get(name)))
                    continue
                fn = getattr(mod, attr)
                wrapped = self.span(name, fn, measures.get(name))
                if mod_name == "_kernel":  # callers reach the kernel only as K.<name>
                    setattr(mod, attr, wrapped)
                    continue
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
        rsops = modules["rings"].RSOps
        rsops.mul = self.counter("rings.rsops_mul", rsops.mul, timed=True)
        rsops.add = self.counter("rings.rsops_add", rsops.add, timed=False)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; every name is present, 0 where nothing ran."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out = {}

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        def layer_calls(prefix: str) -> int:
            return sum(v for k, v in calls.items() if k.startswith(prefix + "."))

        for fn in ("mul_terms", "pow_terms", "exact_div_terms", "substitute_terms", "normal_form_terms"):
            out[f"kernel.{fn}.calls"] = calls[f"kernel.{fn}"]
            out[f"kernel.{fn}.self_s"] = self_s[f"kernel.{fn}"]
        out["kernel.mul_terms.pairs"] = counts["kernel.mul_terms.pairs"]
        out["kernel.normal_form_terms.terms_in"] = counts["kernel.normal_form_terms.terms_in"]
        out["kernel.normal_form_terms.terms_out"] = counts["kernel.normal_form_terms.terms_out"]
        out["kernel.self_s"] = layer_self("kernel")
        out["rings.rsops_mul.calls"] = calls["rings.rsops_mul"]
        out["rings.rsops_mul.self_s"] = self_s["rings.rsops_mul"]
        out["rings.rsops_add.calls"] = calls["rings.rsops_add"]
        out["cluster.cluster_var.calls"] = calls["cluster.cluster_var"]
        out["cluster.detect_period.calls"] = calls["cluster.detect_period"]
        out["cluster.self_s"] = layer_self("cluster")
        var_calls = calls["cluster.cluster_var"]
        out["cluster.steps_per_var"] = (
            calls["kernel.exact_div_terms"] / var_calls if var_calls else 0.0
        )
        for fn in ("compose", "factorize", "normal_form", "is_endomorphism"):
            out[f"surface.{fn}.calls"] = calls[f"surface.{fn}"]
            out[f"surface.{fn}.self_s"] = self_s[f"surface.{fn}"]
        out["surface.equal.calls"] = calls["surface.equal"]
        scans = counts["surface.equal.scan_calls"]
        out["surface.equal.hit_frac"] = counts["surface.equal.scan_hits"] / scans if scans else 0.0
        out["surface.self_s"] = layer_self("surface")
        for fn in ("mul", "pow", "exact_div", "substitute"):
            out[f"poly.{fn}.calls"] = calls[f"poly.{fn}"]
        out["poly.self_s"] = layer_self("poly")
        out["poly.terms_out"] = counts["poly.terms_out"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        out["textio.calls"] = layer_calls("textio")
        out["textio.self_s"] = layer_self("textio")
        for fn in ("gmul", "from_word", "to_endo", "structure_of"):
            out[f"autgroup.{fn}.calls"] = calls[f"autgroup.{fn}"]
        out["autgroup.self_s"] = layer_self("autgroup")
        out["geom.calls"] = layer_calls("geom")
        out["geom.self_s"] = layer_self("geom")
        out["request.self_s"] = self_s["request"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """A header line naming the fields, then one JSON array per span in
        the order the spans ended; times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "request"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
