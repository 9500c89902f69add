"""Tests for the measurement harness and experiment drivers (tiny budgets)."""
import math

import pytest

from helpers import by_position
from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.cea.ceql import compile_query
from repro.core import engine as core_engine
from repro.engines import make_engine
from repro.harness import experiments
from repro.harness.metrics import format_table, memory_run, throughput_run
from repro.streams.generators import typed_stream

SEQ2 = compile_cel(cel.Seq(cel.EventType("A"), cel.EventType("B")))
TINY = dict(n_events=4000, budget_s=0.03)


def test_throughput_run_counts_and_respects_budget():
    eng = make_engine("core", SEQ2, window=10, consume=True, limit=10)
    events = typed_stream(100_000, ["A", "B", "X"], seed=0)
    st = throughput_run(eng, events, ts_of=by_position, budget_s=0.05)
    assert 0 < st.events <= 100_000
    assert st.elapsed < 1.0
    assert st.throughput > 0 and st.outputs > 0


def test_throughput_run_finishes_short_stream():
    eng = make_engine("core", SEQ2)
    st = throughput_run(
        eng, typed_stream(50, ["A", "B"], seed=1), ts_of=by_position, budget_s=5
    )
    assert st.events == 50


def test_memory_run_returns_positive_peak():
    events = typed_stream(3000, ["A", "B", "X"], seed=0)
    peak = memory_run(
        lambda: make_engine("sase", SEQ2, window=50), events,
        ts_of=by_position, budget_s=0.05,
    )
    assert peak > 0


def test_format_table():
    s = format_table([{"a": 1, "b": 1234567.0}, {"a": 2, "b": float("nan")}])
    assert "1,234,567" in s and "a" in s and "b" in s
    assert format_table([]) == "(no rows)"


A = cel.EventType
# The formulas the synthetic query texts replaced, built here from the AST.
SYNTHETIC_FORMULAS = {
    **{
        f"seq n={n}": (
            experiments.seq_pattern(n),
            cel.seq(*(A(f"A{i}") for i in range(1, n + 1))),
        )
        for n in (3, 5, 7, 9)
    },
    "K3": (
        experiments.T4_PATTERNS["K3"],
        cel.seq(A("A1"), cel.Plus(A("A2")), A("A3")),
    ),
    "K5": (
        experiments.T4_PATTERNS["K5"],
        cel.seq(A("A1"), cel.Plus(A("A2")), A("A3"), cel.Plus(A("A4")), A("A5")),
    ),
    "D3": (
        experiments.T4_PATTERNS["D3"],
        cel.seq(A("A1"), cel.Or(A("A2"), A("A2x")), A("A3")),
    ),
    "D5": (
        experiments.T4_PATTERNS["D5"],
        cel.seq(
            A("A1"), cel.Or(A("A2"), A("A2x")), A("A3"),
            cel.Or(A("A4"), A("A4x")), A("A5"),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_FORMULAS))
def test_synthetic_query_text_compiles_to_formula_cea(name):
    pattern, phi = SYNTHETIC_FORMULAS[name]
    cq = compile_query(experiments.synthetic_query(pattern, 100))
    want = compile_cel(phi)
    assert cq.cea.n_states == want.n_states
    assert cq.cea.transitions == want.transitions
    assert cq.cea.q0 == want.q0
    assert cq.cea.finals == want.finals
    assert (cq.window, cq.time_attr, cq.consume, cq.strategy) == (
        100, None, True, "all"
    )


def test_table1_rows_shape():
    orig_enum = core_engine.enumerate_matches
    rows = experiments.table1_sequence(ns=(3,), **TINY)
    assert core_engine.enumerate_matches is orig_enum  # the timing hook is undone
    assert len(rows) == 4  # one per system
    for r in rows:
        assert r["throughput_eps"] > 0
        assert r["memory_bytes"] > 0
    core = next(r for r in rows if r["system"] == "core")
    assert core["outputs"] > 0 and core["enum_ops"] > 0 and core["update_eps"] > 0
    # Update throughput leaves out enumeration time, so it is never lower.
    assert core["update_eps"] >= core["throughput_eps"]
    # The baselines build matches inline: no update/enumeration split.
    for r in rows:
        if r["system"] != "core":
            assert math.isnan(r["update_eps"]) and math.isnan(r["enum_ops"])


def test_table2_rows_no_outputs():
    rows = experiments.table2_window(windows=(30,), **TINY)
    assert all(r["outputs"] == 0 for r in rows)
    assert all(r["throughput_eps"] > 0 for r in rows)


def test_table3_rows_strategies():
    rows = experiments.table3_selection(**TINY)
    strategies = {r["strategy"] for r in rows if r["system"] == "core"}
    assert strategies == {"ALL", "NEXT", "LAST", "MAX"}
    assert sum(r["system"] != "core" for r in rows) == 3


def test_table4_sase_skips_disjunction():
    rows = experiments.table4_operators(**TINY)
    d_rows = [r for r in rows if r["query"].startswith("D") and r["system"] == "sase"]
    assert d_rows and all(math.isnan(r["throughput_eps"]) for r in d_rows)
    k_core = [r for r in rows if r["query"] == "K3" and r["system"] == "core"]
    assert k_core[0]["outputs"] > 0


def test_table5_stock_rows():
    rows = experiments.table5_stock(queries=("Q1", "Q3"), **TINY)
    q3_core = next(
        r for r in rows if r["query"] == "Q3" and r["system"] == "core"
    )
    assert q3_core["throughput_eps"] > 0
    sase_q1 = next(r for r in rows if r["query"] == "Q1" and r["system"] == "sase")
    assert not math.isnan(sase_q1["throughput_eps"])


def test_table5_rows_report_shed_runs(monkeypatch):
    """Rows of baselines that hit the ``MAX_RUNS`` cap say how many partial
    matches it dropped; CORE's and uncapped rows say 0."""
    monkeypatch.setattr(experiments, "MAX_RUNS", 10)
    rows = experiments.table5_stock(queries=("Q3", "Q7"), **TINY)
    shed = {(r["query"], r["system"]): r["shed_runs"] for r in rows}
    assert shed[("Q7", "core")] == shed[("Q3", "core")] == 0
    assert shed[("Q7", "esper")] > 0 and shed[("Q7", "flink")] > 0
    monkeypatch.setattr(experiments, "MAX_RUNS", None)
    rows = experiments.table5_stock(queries=("Q7",), **TINY)
    assert all(r["shed_runs"] == 0 for r in rows)


def test_table2_and_table3_rows_report_shed_runs(monkeypatch):
    """Tables 2 and 3 say where the ``MAX_RUNS`` cap shed partial matches,
    as Tables 4 and 5 do: every baseline row sheds at a cap of 10, and no
    CORE row does."""
    monkeypatch.setattr(experiments, "MAX_RUNS", 10)
    rows = experiments.table2_window(**TINY) + experiments.table3_selection(**TINY)
    assert {r["table"] for r in rows} == {"T2", "T3"}
    for r in rows:
        assert (r["shed_runs"] > 0) == (r["system"] != "core"), r


def test_table6_spark_smoke(spark):
    rows = experiments.table6_spark(spark, n_events=3000, queries=("Q3",))
    (row,) = rows
    assert row["driver_outputs"] == row["spark_outputs"]
    assert row["driver_eps"] > 0 and row["spark_eps"] > 0
