"""The benchmark's traced mode still runs against the package.

``perfbench/tracing.py`` wraps functions it names by string and the worker's
warm-up calls the package directly, so deleting or renaming one of those
names breaks ``perfbench/run.py --trace 1`` without failing any other test.
A short traced run of each workload must complete with no failed request
and a passing oracle self-test.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
