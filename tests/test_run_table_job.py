"""``jobs/run_table.py`` end to end: one table per subprocess, tiny budget.

The job prints ``format_table`` of the table's rows: a header, a rule and one
line per (query, system) cell, each starting with the table's label.
"""
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "table, cells", [(1, 4 * 4), (2, 4 * 4), (3, 7), (4, 4 * 4), (5, 7 * 4)]
)
def test_run_table_prints_a_row_per_cell(table, cells):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "jobs", "run_table.py"),
         "--table", str(table), "--events", "3000", "--budget", "0.02"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.splitlines() if ln.startswith(f"T{table} ")]
    assert len(rows) == cells, proc.stdout
