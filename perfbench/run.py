"""clusteraut benchmark: seeded closed-loop workloads over the command line.

    python3 perfbench/run.py                       # all workloads, seed 1
    python3 perfbench/run.py --workload cluster-walk --seed 7 --seconds 20
    python3 perfbench/run.py --workload group-geom --trace 1   # per-layer run

Each workload runs in fresh processes (perfbench/worker.py) with one client
that sends the next request when the previous one has returned.  With
``--trace 0`` it prints the end-to-end metrics; set-up is measured in
SETUP_SAMPLES fresh processes and reported as their median.  Times are
scaled to a reference machine speed (see worker.py), raw ones printed
alongside.  With
``--trace 1`` it runs the workload untraced and then traced, prints the
per-layer metrics of the traced run (per completed request) and the tracing
overhead, and writes the spans to .perfbench_work/.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting with
``REPORT``, holds the full result with its stamp (kernel, Python version,
nproc, seed) for perfbench/compare.py, which reads it from the captured
output.  The package is taken from ``src/`` of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 175  # the whole command stays under 180 s

# name, unit; fail_frac is reported but is not a benchmark metric (it is 0
# at the seed, and the final line carries it as failed / attempted)
END_TO_END = [
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "ratio"),
]

KERNEL_NOTE = (
    "kernel.* counts calls made through clusteraut._kernel; calls the kernel "
    "implementation makes to its own functions (the products inside "
    "pow_terms) are invisible from outside"
)


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/req"
    if name.endswith(("hit_frac", "steps_per_var", "overhead")):
        return "ratio"
    return "count/req"


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float, extra=()):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} process for {workload} ran out of time") from None
    if proc.returncode != 0:
        raise WorkerFailed(
            f"{mode} process for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stamp(kernel: str, seed: int) -> dict:
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def loop_ok(res: dict) -> bool:
    return sum(res["failures"].values()) == 0 and all(res["self_test"].values())


def print_loop(res: dict, listing: dict) -> None:
    f = res["failures"]
    failed = sum(f.values())
    print(f"requests     list={listing['count']} sha256={listing['sha256']} "
          f"executed={res['completed']} (list wrapped {res['wrapped']} times)")
    print(f"throughput_rps   {res['throughput_rps']:.3f} req/s   (raw "
          f"{res['raw']['throughput_rps']:.3f}; reference task median "
          f"{res['reference_s'] * 1e3:.3f} ms in {res['reference_samples']} samples, "
          f"time scale x{res['time_scale']:.3f})")
    print(f"fail_frac        {failed / res['completed']:.4g} ratio   ({failed} of "
          f"{res['completed']}: {f['exit']} nonzero exit, {f['exception']} exception, "
          f"{f['oracle']} oracle mismatch)")
    for item in res["first_failures"]:
        print(f"  FAILED {' '.join(item['argv'])}: {item['reason']}")
    passed = sum(res["self_test"].values())
    print(f"oracle self-test {passed}/{len(res['self_test'])} kinds: a corrupted answer "
          "adds exactly one failure")
    print("per kind         count    p50_ms    max_ms   total_s")
    for kind, s in res["per_kind"].items():
        print(f"  {kind:<15}{s['count']:>6}{s['p50_ms']:>10.2f}{s['max_ms']:>10.1f}{s['total_s']:>10.2f}")


def request_list(workload: str, seed: int) -> dict:
    """Length and checksum of the request list, made here and not in the
    measured process, which generates the same list lazily."""
    count, sha = workloads.checksum(workload, seed)
    return {"count": count, "sha256": sha}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [
        run_worker(workload, seed, seconds, "setup", deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    res = run_worker(workload, seed, seconds, "run", deadline)
    setups.append(res)
    failed = sum(res["failures"].values())
    metrics = {
        "throughput_rps": res["throughput_rps"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p95_ms": res["latency_p95_ms"],
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_frac": failed / res["completed"],
    }
    raw = dict(res["raw"], setup_s=statistics.median(r["raw_setup_s"] for r in setups))
    st = stamp(res["kernel"], seed)
    listing = request_list(workload, seed)
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace=0")
    print("stamp        " + " ".join(f"{k}={v}" for k, v in st.items()))
    print_loop(res, listing)
    units = dict(END_TO_END)
    for name in ("latency_p50_ms", "latency_p95_ms", "setup_s", "peak_rss_mb"):
        note = f"   (raw {raw[name]:.4f})" if name in raw else ""
        if name == "latency_p95_ms":
            note += f"  {res['completed']} samples, {res['above_p95']} above p95"
        elif name == "setup_s":
            note += f"  median of {SETUP_SAMPLES} fresh processes"
        elif name == "peak_rss_mb":
            note += f"  ({res['setup_rss_mb']:.1f} MB after set-up)"
        print(f"{name:<16} {metrics[name]:.4f} {units[name]}{note}")
    return {
        "workload": workload, "seconds": seconds, "trace": 0, "stamp": st,
        "requests": listing, "metrics": metrics, "raw": raw,
        "setup_samples": [[r["setup_s"], r["raw_setup_s"]] for r in setups],
        "attempted": res["completed"], "failed": failed, "correct": loop_ok(res),
        "result": res,
    }


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    plain = run_worker(workload, seed, seconds, "run", deadline)
    out_dir = ROOT / ".perfbench_work"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}.jsonl"
    traced = run_worker(workload, seed, seconds, "trace", deadline,
                        ["--trace-out", str(trace_file)])
    done = traced["completed"]
    k = traced["time_scale"]
    layers = {}
    for name, value in traced["layers"].items():
        unit = layer_unit(name)
        if unit != "ratio":
            value /= done
        layers[name] = value * k if unit == "s/req" else value
    layers["trace.overhead"] = plain["throughput_rps"] / traced["throughput_rps"]
    st = stamp(traced["kernel"], seed)
    listing = request_list(workload, seed)
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace=1")
    print("stamp        " + " ".join(f"{k}={v}" for k, v in st.items()))
    print("-- untraced run")
    print_loop(plain, listing)
    print("-- traced run")
    print_loop(traced, listing)
    print(f"tracing overhead {layers['trace.overhead']:.3f}x   (untraced over traced "
          "throughput_rps, both at reference speed)")
    print(f"spans            {traced['layers']['trace.spans']} written to "
          f"{trace_file.relative_to(ROOT)}")
    print(f"note             {KERNEL_NOTE}")
    print(f"per-layer metrics, per completed request ({done} requests):")
    for name, value in layers.items():
        print(f"  {name:<38} {value:.6g} {layer_unit(name)}")
    failed = sum(plain["failures"].values()) + sum(traced["failures"].values())
    return {
        "workload": workload, "seconds": seconds, "trace": 1, "stamp": st,
        "requests": listing, "metrics": layers,
        "attempted": plain["completed"] + done, "failed": failed,
        "correct": loop_ok(plain) and loop_ok(traced),
        "result": {"untraced": plain, "traced": traced},
    }


def final_metrics(report: dict, prefix: str = "") -> dict:
    if report["trace"]:
        return {prefix + k: {"value": v, "unit": layer_unit(k)}
                for k, v in report["metrics"].items()}
    return {prefix + name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in END_TO_END if name != "fail_frac"}


def main() -> int:
    ap = argparse.ArgumentParser(description="clusteraut benchmark")
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "clusteraut" / "__init__.py").is_file():
        print(f"error: no clusteraut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = monotonic() + DEADLINE_S * len(names)
    reports = []
    try:
        for name in names:
            fn = measure_traced if args.trace else measure
            reports.append(fn(name, args.seed, args.seconds, deadline))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("REPORT " + json.dumps(reports, separators=(",", ":")))
    metrics = {}
    for r in reports:
        metrics.update(final_metrics(r, "" if len(reports) == 1 else r["workload"] + "."))
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
