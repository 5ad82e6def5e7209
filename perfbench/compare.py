"""Summarise and compare saved benchmark results.

    python3 perfbench/run.py --workload group-geom --seed 1 > a1.txt
    python3 perfbench/compare.py BASE...                 # medians and spreads
    python3 perfbench/compare.py BASE... --against NEW...  # NEW against BASE

Each file is the captured standard output of run.py; its ``REPORT`` line is
read.  Results are grouped by workload.  For every end-to-end metric the
table shows the median, the quartiles, the spread (interquartile distance
over the median) and the median of the raw (unscaled) values; with --against
it adds the change of the median and the verdict against the metric's bound
in BENCHMARK.json: "ok", "worse" (beyond the bound) or "unresolved" (the
base's own spread is wider than the bound).

Results from different kernels (``_kernel.IMPLEMENTATION``) or of different
run lengths (``--seconds``) are never compared: the command refuses with
exit code 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list:
    text = Path(path).read_text(encoding="utf-8")
    for line in reversed(text.splitlines()):
        if line.startswith("REPORT "):
            return json.loads(line[len("REPORT "):])
    raise SystemExit(f"{path}: no REPORT line (not the output of perfbench/run.py?)")


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(reports: list, key: str = "metrics") -> dict:
    """workload -> metric -> values, end-to-end (untraced) runs only."""
    out = defaultdict(lambda: defaultdict(list))
    for r in reports:
        if r["trace"] == 0:
            for name, value in r[key].items():
                out[r["workload"]][name].append(value)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="summarise / compare benchmark results")
    ap.add_argument("base", nargs="+")
    ap.add_argument("--against", nargs="*", default=[])
    args = ap.parse_args()

    base = [r for p in args.base for r in load(p)]
    new = [r for p in args.against for r in load(p)]
    kernels = {r["stamp"]["kernel"] for r in base + new}
    if len(kernels) > 1:
        print(f"refusing to compare: runs used different kernels {sorted(kernels)}",
              file=sys.stderr)
        return 2
    lengths = {r["seconds"] for r in base + new}
    if len(lengths) > 1:
        print(f"refusing to compare: runs measured for different --seconds {sorted(lengths)}",
              file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {r["stamp"][key] for r in base + new}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(map(str, seen))}")
    spec = bounds() if new else {}
    b_groups, n_groups, b_raw = group(base), group(new), group(base, "raw")
    worse = 0
    for workload, metrics in b_groups.items():
        print(f"== {workload} ({len(next(iter(metrics.values())))} base runs)")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
            raw = b_raw[workload].get(name)
            line += f" raw {statistics.median(raw):<10.6g}" if raw else " " * 15
            other = n_groups.get(workload, {}).get(name)
            if other and name in spec:
                m = spec[name]
                new_med = statistics.median(other)
                change = (new_med - med) / med
                loss = change if m["better"] == "lower" else -change
                if loss > m["bound"]:
                    verdict = "worse"
                    worse += 1
                elif spread > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f" | new median {new_med:.6g} ({change:+.3f}) bound {m['bound']} {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
