"""The benchmark's own correctness checks, one pass per in-process workload.

``perfbench/run.py --seconds 0`` runs exactly one pass, checks CORE against
the uncapped Esper baseline and the capped output counts, and prints one
JSON line with ``correct``, ``attempted`` and ``failed``. It runs in a
temporary directory holding only a ``src`` link, so its ``.perfbench-out/``
stays out of the checkout.
"""
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["synth-kleene", "stock-q1q7"])
def test_benchmark_workload_is_correct(tmp_path, workload):
    os.symlink(os.path.join(REPO, "src"), tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout
