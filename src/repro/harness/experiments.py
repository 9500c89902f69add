"""Experiment drivers — one function per evaluation table (DESIGN.md § 4).

Each function returns a list of row-dicts (ready for
:func:`repro.harness.metrics.format_table`) with one row per
(query-config, system) cell, mirroring the corresponding paper figure.
Methodology follows Section 6: pre-generated in-memory streams, per-cell
time budget, consumption policy on for experiments with output, enumeration
capped at the first 10 complex events per input tuple.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..cea import cel
from ..cea.automaton import CEA, compile_cel
from ..cea.ceql import compile_query
from ..baselines import sase
from ..engines import SYSTEMS, make_engine, make_partitioned
from ..streams.generators import random_stream, stock_stream, typed_stream
from .metrics import RunStats, default_budget, memory_run, throughput_run
from .stock_queries import STOCK_QUERIES

OUTPUT_LIMIT = 10  # the paper enumerates only the first ten results
# Load-shedding cap on the baselines' live partial matches (see
# nfa_base.BaselineBase): keeps the exponential cases from exhausting memory
# mid-benchmark. Never applied in correctness tests.
MAX_RUNS = 100_000


def _seq_formula(n: int) -> cel.CEL:
    return cel.seq(*(cel.EventType(f"A{i}") for i in range(1, n + 1)))


def _cell(
    system: str,
    cea: CEA,
    events,
    *,
    window: Optional[float],
    consume: bool,
    budget_s: Optional[float],
    strategy: str = "all",
    ts_of=None,
) -> RunStats:
    eng = make_engine(
        system,
        cea,
        window=window,
        consume=consume,
        limit=OUTPUT_LIMIT,
        strategy=strategy,
        max_runs=MAX_RUNS,
    )
    return throughput_run(eng, events, budget_s=budget_s, ts_of=ts_of)


# ----------------------------------------------------------------------
# Table 1 (Figure 7): sequence queries with output.
# ----------------------------------------------------------------------
def table1_sequence(
    ns: Sequence[int] = (3, 5, 7, 9),
    *,
    window: float = 100,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    memory_budget_s: Optional[float] = None,
    systems: Sequence[str] = SYSTEMS,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Throughput / update-throughput / enumeration-throughput / memory for
    A1;..;An, n in ``ns``, count window 100, noisy uniform stream. The
    update/enumeration split is CORE's ``timed`` one; it is NaN for the
    baselines."""
    rows = []
    for n in ns:
        cea = compile_cel(_seq_formula(n))
        events = random_stream(n_events, n_seq=n, seed=seed)
        for system in systems:
            if system == "core":
                # CORE is instrumented: exact update/enumeration time split.
                eng = make_engine(
                    "core", cea, window=window, consume=True,
                    limit=OUTPUT_LIMIT, timed=True,
                )
                full = throughput_run(eng, events, budget_s=budget_s)
                update_eps = RunStats(full.events, eng.update_time, 0).throughput
                enum_tp = (
                    full.outputs / eng.enum_time
                    if eng.enum_time > 0 and full.outputs
                    else float("nan")
                )
            else:
                # A baseline materializes each match while it extends the
                # run, so it has no update or enumeration phase to time.
                full = _cell(
                    system, cea, events,
                    window=window, consume=True, budget_s=budget_s,
                )
                update_eps = enum_tp = float("nan")
            mem = memory_run(
                lambda: make_engine(
                    system, cea, window=window, consume=True,
                    limit=OUTPUT_LIMIT, max_runs=MAX_RUNS,
                ),
                events,
                budget_s=memory_budget_s
                if memory_budget_s is not None
                else (budget_s if budget_s is not None else default_budget()) / 2,
            )
            rows.append(
                {
                    "table": "T1", "query": f"seq n={n}", "system": system,
                    "throughput_eps": full.throughput,
                    "update_eps": update_eps,
                    "enum_ops": enum_tp,
                    "outputs": full.outputs,
                    "memory_bytes": mem,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table 2 (Figure 8 left): sequence queries without output, varying window.
# ----------------------------------------------------------------------
def table2_window(
    windows: Sequence[float] = (50, 100, 150, 200),
    *,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    systems: Sequence[str] = SYSTEMS,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """A1;A2;A3 with A3 hidden from the stream: every partial match survives
    the full window, the worst case for materializing systems."""
    cea = compile_cel(_seq_formula(3))
    events = random_stream(n_events, n_seq=3, hide_last=True, seed=seed)
    rows = []
    for w in windows:
        for system in systems:
            st = _cell(
                system, cea, events, window=w, consume=True, budget_s=budget_s
            )
            rows.append(
                {
                    "table": "T2", "query": f"seq n=3, T={int(w)}",
                    "system": system, "throughput_eps": st.throughput,
                    "outputs": st.outputs,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table 3 (Figure 8 right): selection strategies.
# ----------------------------------------------------------------------
def table3_selection(
    *,
    window: float = 100,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    systems: Sequence[str] = SYSTEMS,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """A1;A2;A3, T=100, A3 hidden. CORE runs ALL/NEXT/LAST/MAX; the
    baselines run their default selection strategy (skip-till-next)."""
    cea = compile_cel(_seq_formula(3))
    events = random_stream(n_events, n_seq=3, hide_last=True, seed=seed)
    rows = []
    for strat in ("all", "next", "last", "max"):
        st = _cell(
            "core", cea, events,
            window=window, consume=True, budget_s=budget_s, strategy=strat,
        )
        rows.append(
            {
                "table": "T3", "system": "core", "strategy": strat.upper(),
                "throughput_eps": st.throughput,
            }
        )
    for system in systems:
        if system == "core":
            continue
        st = _cell(
            system, cea, events,
            window=window, consume=True, budget_s=budget_s, strategy="next",
        )
        rows.append(
            {
                "table": "T3", "system": system, "strategy": "DEFAULT",
                "throughput_eps": st.throughput,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 4 (Figure 9 left): iteration and disjunction.
# ----------------------------------------------------------------------
def _t4_queries() -> Dict[str, cel.CEL]:
    a = cel.EventType
    return {
        "K3": cel.seq(a("A1"), cel.Plus(a("A2")), a("A3")),
        "K5": cel.seq(
            a("A1"), cel.Plus(a("A2")), a("A3"), cel.Plus(a("A4")), a("A5")
        ),
        "D3": cel.seq(a("A1"), cel.Or(a("A2"), a("A2x")), a("A3")),
        "D5": cel.seq(
            a("A1"), cel.Or(a("A2"), a("A2x")), a("A3"),
            cel.Or(a("A4"), a("A4x")), a("A5"),
        ),
    }


def table4_operators(
    *,
    window: float = 100,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    systems: Sequence[str] = SYSTEMS,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    rows = []
    for qname, phi in _t4_queries().items():
        types = sorted(phi.event_types()) + [f"B{i}" for i in range(1, 7)]
        events = typed_stream(n_events, types, seed=seed)
        cea = compile_cel(phi)
        for system in systems:
            if system == "sase" and not sase.supports(phi):
                rows.append(
                    {
                        "table": "T4", "query": qname, "system": system,
                        "throughput_eps": float("nan"), "outputs": 0,
                        "note": "no disjunction support",
                    }
                )
                continue
            st = _cell(
                system, cea, events,
                window=window, consume=True, budget_s=budget_s,
            )
            rows.append(
                {
                    "table": "T4", "query": qname, "system": system,
                    "throughput_eps": st.throughput, "outputs": st.outputs,
                    "note": "",
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table 5 (Figure 9 right): stock-market queries Q1-Q7.
# ----------------------------------------------------------------------
def table5_stock(
    *,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    systems: Sequence[str] = SYSTEMS,
    seed: int = 0,
    queries: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    events = stock_stream(n_events, seed=seed)
    rows = []
    for qname in queries or sorted(STOCK_QUERIES):
        cq = compile_query(STOCK_QUERIES[qname])
        needs_or = qname in ("Q4", "Q5", "Q6", "Q7")
        ts_of = cq.ts_of
        for system in systems:
            if system == "sase" and needs_or:
                rows.append(
                    {
                        "table": "T5", "query": qname, "system": system,
                        "throughput_eps": float("nan"), "outputs": 0,
                        "note": "no disjunction support",
                    }
                )
                continue
            if cq.partition_by:
                eng = make_partitioned(
                    system, cq.cea, cq.partition_by,
                    window=cq.window, consume=cq.consume, limit=OUTPUT_LIMIT,
                    max_runs=MAX_RUNS,
                )
            else:
                eng = make_engine(
                    system, cq.cea,
                    window=cq.window, consume=cq.consume, limit=OUTPUT_LIMIT,
                    max_runs=MAX_RUNS,
                )
            st = throughput_run(eng, events, budget_s=budget_s, ts_of=ts_of)
            rows.append(
                {
                    "table": "T5", "query": qname, "system": system,
                    "throughput_eps": st.throughput, "outputs": st.outputs,
                    "note": "",
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table 6 (extra): driver-sequential vs Spark-distributed PARTITION BY.
# ----------------------------------------------------------------------
def table6_spark(
    spark,
    *,
    n_events: int = 30_000,
    queries: Sequence[str] = ("Q3", "Q6"),
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Wall-clock for partitioned stock queries: one engine per partition on
    the driver (the paper's execution model) vs Spark ``applyInPandas``
    fan-out of the same per-partition engines."""
    import time

    import pandas as pd  # noqa: F401

    from ..spark.batch import run_batch
    from ..streams.generators import to_pandas

    events = stock_stream(n_events, seed=seed)
    pdf = to_pandas(events)
    rows = []
    for qname in queries:
        cq = compile_query(STOCK_QUERIES[qname])
        eng = make_partitioned(
            "core", cq.cea, cq.partition_by,
            window=cq.window, consume=cq.consume, limit=OUTPUT_LIMIT,
        )
        t0 = time.perf_counter()
        n_out = 0
        for pos, t in enumerate(events):
            n_out += len(eng.process(t, ts=cq.ts_of(t, pos), pos=pos))
        t_driver = time.perf_counter() - t0
        t0 = time.perf_counter()
        spark_out = run_batch(
            spark, pdf, cq, engine="core", limit=OUTPUT_LIMIT
        ).count()
        t_spark = time.perf_counter() - t0
        rows.append(
            {
                "table": "T6", "query": qname,
                "driver_s": t_driver, "driver_eps": n_events / t_driver,
                "spark_s": t_spark, "spark_eps": n_events / t_spark,
                "driver_outputs": n_out, "spark_outputs": spark_out,
            }
        )
    return rows
