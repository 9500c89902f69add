"""The evaluation tables: paper Figures 7-9 as Tables 1-5, plus Table 6
(extra, beyond the paper). One bench per table; each asserts the paper's
shape claims on its rows.

Each bench runs its table's experiment exactly once (pedantic, rounds=1):
the interesting numbers are the *throughput cells inside* the table
(measured with the Section-6 methodology by the harness itself), not
pytest-benchmark's wall-clock of the whole table. Rows are printed and also
persisted to ``benchmarks/results/table<N>.json`` so EXPERIMENTS.md can be
regenerated from the last run.

Run: pytest benchmarks/ --benchmark-only   (one table: -k table5)
"""
import json
import math
import os

import pytest

from repro.harness.experiments import TABLES
from repro.harness.metrics import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def check_table1(rows):
    """Sequence queries with output, n = 3,5,7,9, count window T=100:
    throughput, update throughput, enumeration throughput, memory."""
    core = {r["query"]: r["throughput_eps"] for r in rows if r["system"] == "core"}
    # Paper claim: CORE's throughput is stable, degrading only ~linearly in n.
    assert core["seq n=9"] > core["seq n=3"] / 6
    # Paper claim: materializing systems degrade super-linearly in n.
    for system in ("sase", "flink"):
        by_n = {r["query"]: r["throughput_eps"] for r in rows if r["system"] == system}
        assert by_n["seq n=9"] < by_n["seq n=3"] / 6


def check_table2(rows):
    """A1;A2;A3 with A3 hidden (no output), window T = 50..200: the worst
    case for partial-match materialization."""
    core = {r["query"]: r["throughput_eps"] for r in rows if r["system"] == "core"}
    sase = {r["query"]: r["throughput_eps"] for r in rows if r["system"] == "sase"}
    # Paper claim: CORE stable in T; SASE degrades super-linearly in T and is
    # orders of magnitude behind at T=200.
    assert min(core.values()) > max(core.values()) / 4
    assert sase["seq n=3, T=200"] < sase["seq n=3, T=50"] / 4
    assert core["seq n=3, T=200"] > 20 * sase["seq n=3, T=200"]


def check_table3(rows):
    """Selection strategies on A1;A2;A3, T=100, A3 hidden: CORE x
    {ALL,NEXT,LAST,MAX} vs the baselines' default strategy."""
    core = [r["throughput_eps"] for r in rows if r["system"] == "core"]
    others = [r["throughput_eps"] for r in rows if r["system"] != "core"]
    # Paper claim: CORE is flat across strategies and ahead of every baseline
    # even when the baselines use their performance-improving strategy.
    assert min(core) > max(core) / 4
    assert min(core) > max(others)


def check_table4(rows):
    """Iteration (K3,K5) and disjunction (D3,D5), T=100. SASE skips D3/D5
    (no disjunction support, as in the paper)."""
    core = {r["query"]: r["throughput_eps"] for r in rows if r["system"] == "core"}
    # Paper claim: CORE stays within a small factor across operators...
    assert min(core.values()) > max(core.values()) / 6
    # ...while iteration knocks an order of magnitude (or more) off the
    # materializing systems relative to CORE.
    for system in ("sase", "esper", "flink"):
        k3 = next(
            r["throughput_eps"]
            for r in rows
            if r["system"] == system and r["query"] == "K3"
        )
        if not math.isnan(k3):
            assert core["K3"] > 2 * k3


def check_table5(rows):
    """Stock-market queries Q1-Q7, WITHIN 30000 ms over stock_time, CONSUME
    BY ANY; Q3/Q6 PARTITION BY volume."""
    core = {r["query"]: r["throughput_eps"] for r in rows if r["system"] == "core"}
    # Paper claim: CORE's throughput is stable across Q1-Q7.
    assert min(core.values()) > max(core.values()) / 6
    # Paper claim: CORE leads on the non-partitioned queries (partition-by
    # shrinks every partial-match set, which helps the baselines).
    for q in ("Q1", "Q2", "Q4", "Q5", "Q7"):
        for r in rows:
            if r["query"] == q and r["system"] != "core":
                assert math.isnan(r["throughput_eps"]) or (
                    r["throughput_eps"] < core[q]
                )


def check_table6(rows):
    """PARTITION BY evaluated driver-sequentially (the paper's execution
    model) vs distributed over Spark tasks with applyInPandas."""
    for r in rows:
        # identical results on both execution paths
        assert r["driver_outputs"] == r["spark_outputs"]


CHECKS = {
    1: check_table1, 2: check_table2, 3: check_table3,
    4: check_table4, 5: check_table5, 6: check_table6,
}


@pytest.mark.parametrize(
    "table",
    [
        pytest.param(n, marks=pytest.mark.benchmark(group=f"table{n}"), id=f"table{n}")
        for n in TABLES
    ],
)
def test_table(benchmark, request, table):
    args = [request.getfixturevalue("spark")] if table == 6 else []
    rows = benchmark.pedantic(
        lambda: TABLES[table](*args), rounds=1, iterations=1, warmup_rounds=0
    )
    name = f"table{table}"
    print(f"\n== {name} ==")
    print(format_table(rows))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as f:
        json.dump(rows, f, indent=1, default=str)
    CHECKS[table](rows)
