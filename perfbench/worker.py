"""One benchmark process: set up, run the timed closed loop, check answers.

Started by run.py in a fresh interpreter, so that set-up time and peak
memory belong to one workload.  Prints one JSON object on its last line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|run|trace

Set-up is ``import clusteraut`` plus the warm-up the workload's parameter
pairs need: the residue tables behind factorization for aut-roundtrip, the
group structures (and their cached rotation powers) for group-geom; the
cluster recurrence keeps no cache, so cluster-walk only imports.

The loop has one client: it sends the next request when the previous one
has returned.  A request is ``clusteraut.cli.main(argv)`` with stdout and
stderr captured; its latency runs from the call to the return, JSON output
included, and is scaled to the reference machine speed (see below).
Checking the answer with the oracle happens between requests and is not
counted in the loop's time.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402


# -- machine speed -------------------------------------------------------------
# The CPU speed of a shared machine drifts by tens of percent within seconds.
# A process therefore also times a fixed pure-Python task that does not touch
# clusteraut (a sparse product of two 40-term dict polynomials, like the
# kernel's inner loop) every REFERENCE_EVERY_S of busy time, and scales the
# latency of each request by REFERENCE_S over the mean of the samples taken
# just before and just after it: times are reported at the speed at which the
# task takes REFERENCE_S.  Raw times are reported alongside.  The cyclic
# garbage collector is off while the task is timed, so that the heap the code
# under test leaves behind cannot slow the task down and leak into the scale.
REFERENCE_S = 0.0005
REFERENCE_EVERY_S = 0.05

_ref_rng = random.Random(20130603)
_REF_A, _REF_B = (
    {tuple(_ref_rng.randrange(-5, 6) for _ in range(4)): _ref_rng.randrange(1, 100)
     for _ in range(40)}
    for _ in range(2)
)


def _reference_task() -> dict:
    out = {}
    for (a1, a2, a3, a4), va in _REF_A.items():
        for (b1, b2, b3, b4), vb in _REF_B.items():
            k = (a1 + b1, a2 + b2, a3 + b3, a4 + b4)
            out[k] = out.get(k, 0) + va * vb
    return out


def reference_sample() -> float:
    """Best of three timings of the reference task, in seconds."""
    best = None
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            _reference_task()
            dt = perf_counter() - t0
            best = dt if best is None or dt < best else best
    finally:
        gc.enable()
    return best


def warm_up(workload: str):
    """Import the package and fill the caches this workload's pairs use."""
    sys.path.insert(0, str(ROOT / "src"))
    import clusteraut
    from clusteraut import autgroup, cli  # noqa: F401
    from clusteraut import surface as surf
    from clusteraut.poly import Params

    if workload == "aut-roundtrip":
        for a, b, *_ in workloads.AUT_PAIRS:
            surf.factorize(surf.identity(Params(a, b)))  # builds the residue table
    elif workload == "group-geom":
        for a, b in workloads.PAIRS:
            st = autgroup.structure_of(Params(a, b))
            if st.is_finite:
                autgroup.enumerate_finite(st)
    return clusteraut


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list, q: float) -> float:
    """Inclusive q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def endless(workload: str, seed: int):
    """The workload's request list, from its start again whenever it runs
    out; yields (pass number, request)."""
    turn = 0
    while True:
        for req in workloads.requests(workload, seed):
            yield turn, req
        turn += 1


def run_loop(cli, stream, seconds: float, work: Path, tracer=None) -> dict:
    raw_latencies = []
    latencies = []  # scaled to reference speed
    failures = {"exit": 0, "exception": 0, "oracle": 0}
    first_failures = []
    per_kind = {}
    samples = {}  # kind -> first passing (request, code, stdout), for the self-test
    call = cli.main if tracer is None else tracer.request_span(cli.main)
    refs = [reference_sample()]
    next_ref = REFERENCE_EVERY_S
    pending = []  # (kind, raw latency) since the last reference sample
    busy = 0.0
    wrapped = 0
    while busy < seconds:
        wrapped, req = next(stream)
        argv = [arg.replace("{work}", str(work)) for arg in req["argv"]]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(argv)
            crash = None
        except Exception:  # a crash is one failed request, not the end of the run
            code, crash = None, traceback.format_exc(limit=3)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code, crash = None, f"SystemExit({exc.code})"
        raw = perf_counter() - t0
        busy += raw
        raw_latencies.append(raw)
        pending.append((req["kind"], raw))
        # -- untimed: save output for later requests, check the answer
        stdout = out.getvalue()
        if req["save"] and code == 0:
            (work / req["save"]).write_text(stdout, encoding="utf-8")
        if crash is not None:
            failures["exception"] += 1
            reason = "exception: " + crash.strip().splitlines()[-1]
        elif code != 0:
            failures["exit"] += 1
            reason = f"exit {code}: {err.getvalue().strip()[:200]}"
        else:
            reason = oracle.check(req, code, stdout)
            if reason is None:
                samples.setdefault(req["kind"], (req, code, stdout))
            else:
                failures["oracle"] += 1
        if reason is not None and len(first_failures) < 5:
            first_failures.append({"argv": argv, "reason": reason})
        if busy >= next_ref or busy >= seconds:
            refs.append(reference_sample())
            next_ref = busy + REFERENCE_EVERY_S
            scale = 2 * REFERENCE_S / (refs[-2] + refs[-1])
            for kind, raw in pending:
                latencies.append(raw * scale)
                per_kind.setdefault(kind, []).append(raw * scale)
            pending.clear()
    done = len(latencies)
    p95 = percentile(latencies, 95) if done >= 2 else latencies[0]
    return {
        "completed": done,
        "wrapped": wrapped,
        "throughput_rps": done / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "above_p95": sum(1 for x in latencies if x > p95),
        "raw": {
            "throughput_rps": done / busy,
            "latency_p50_ms": statistics.median(raw_latencies) * 1e3,
            "latency_p95_ms": (percentile(raw_latencies, 95) if done >= 2 else busy) * 1e3,
        },
        "time_scale": sum(latencies) / busy,
        "reference_s": statistics.median(refs),
        "reference_samples": len(refs),
        "failures": failures,
        "first_failures": first_failures,
        "per_kind": {
            kind: {
                "count": len(v),
                "p50_ms": statistics.median(v) * 1e3,
                "max_ms": max(v) * 1e3,
                "total_s": sum(v),
            }
            for kind, v in sorted(per_kind.items())
        },
        "self_test": oracle.self_test(samples),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out", help="write the spans of a trace run here")
    args = ap.parse_args()

    refs = [reference_sample() for _ in range(8)]
    t0 = perf_counter()
    clusteraut = warm_up(args.workload)
    setup_s = perf_counter() - t0
    refs += [reference_sample() for _ in range(8)]
    result = {
        "setup_s": setup_s * REFERENCE_S / statistics.median(refs),
        "raw_setup_s": setup_s,
        "kernel": clusteraut.KERNEL_IMPLEMENTATION,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    from clusteraut import cli

    result["setup_rss_mb"] = max_rss_mb()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(clusteraut)
    try:
        stream = endless(args.workload, args.seed)
        result.update(run_loop(cli, stream, args.seconds, work, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = max_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
