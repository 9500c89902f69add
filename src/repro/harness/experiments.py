"""Experiment drivers — one function per evaluation table (DESIGN.md § 4).

Each function returns a list of row-dicts (ready for
:func:`repro.harness.metrics.format_table`) with one row per
(query-config, system) cell, mirroring the corresponding paper figure.
Methodology follows Section 6: every cell is one CEQL query run by one
system over one pre-generated in-memory stream (``_cell``), with a per-cell
time budget, consumption policy on for experiments with output, and
enumeration capped at the first 10 complex events per input tuple.
"""
from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..baselines import sase
from ..cea.ceql import CompiledQuery, compile_query, parse
from ..core import engine as core_engine
from ..engines import SYSTEMS, make_engine, make_partitioned
from ..streams.generators import random_stream, stock_stream, typed_stream
from .metrics import RunStats, default_budget, memory_run, throughput_run
from .stock_queries import STOCK_QUERIES

OUTPUT_LIMIT = 10  # the paper enumerates only the first ten results
# Load-shedding cap on the baselines' live partial matches (see
# nfa_base.BaselineBase): keeps the exponential cases from exhausting memory
# mid-benchmark. Never applied in correctness tests.
MAX_RUNS = 100_000

# The Table 4 patterns (Figure 9 left): iteration and disjunction.
T4_PATTERNS = {
    "K3": "A1; A2+; A3",
    "K5": "A1; A2+; A3; A4+; A5",
    "D3": "A1; (A2 OR A2x); A3",
    "D5": "A1; (A2 OR A2x); A3; (A4 OR A4x); A5",
}


def seq_pattern(n: int) -> str:
    """``A1; A2; ...; An``."""
    return "; ".join(f"A{i}" for i in range(1, n + 1))


def synthetic_query(pattern: str, window: float, strategy: str = "all") -> str:
    """CEQL text of a synthetic (Tables 1–4) query: count window T, with
    consumption."""
    return (
        f"SELECT {strategy.upper()} * FROM S WHERE {pattern} "
        f"WITHIN {window} events CONSUME BY ANY"
    )


def _engine(system: str, cq: CompiledQuery) -> Any:
    """``system``'s engine for ``cq``: one per partition under PARTITION BY."""
    kw = dict(
        window=cq.window, consume=cq.consume, limit=OUTPUT_LIMIT,
        strategy=cq.strategy, max_runs=MAX_RUNS,
    )
    if cq.partition_by:
        return make_partitioned(system, cq.cea, cq.partition_by, **kw)
    return make_engine(system, cq.cea, **kw)


def _cell(
    system: str, cq: CompiledQuery, events, budget_s: Optional[float]
) -> RunStats:
    """One table cell: ``cq`` run by ``system`` over ``events``."""
    return throughput_run(
        _engine(system, cq), events, budget_s=budget_s, ts_of=cq.ts_of
    )


def _query_rows(
    table: str, qname: str, text: str, events, budget_s
) -> List[Dict[str, Any]]:
    """One row per system for query ``text``; SASE's cell is skipped when
    the query needs disjunction. ``shed_runs`` counts the partial matches a
    baseline's ``MAX_RUNS`` cap dropped: where it is not 0, the row's
    outputs and throughput are those of a truncated match set."""
    q = parse(text)
    cq = compile_query(q)
    rows = []
    for system in SYSTEMS:
        row = {
            "table": table, "query": qname, "system": system,
            "throughput_eps": float("nan"), "outputs": 0, "shed_runs": 0,
            "note": "no disjunction support",
        }
        if system != "sase" or sase.supports(q.formula()):
            eng = _engine(system, cq)
            st = throughput_run(eng, events, budget_s=budget_s, ts_of=cq.ts_of)
            parts = eng.engines.values() if cq.partition_by else [eng]
            shed = sum(getattr(e, "n_shed_runs", 0) for e in parts)
            row.update(
                throughput_eps=st.throughput, outputs=st.outputs, shed_runs=shed, note=""
            )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 1 (Figure 7): sequence queries with output.
# ----------------------------------------------------------------------
def _core_cell_split(
    cq: CompiledQuery, events, budget_s: float
) -> Tuple[RunStats, float]:
    """CORE's cell and the seconds of it spent in Algorithm 2: the engine
    module's ``enumerate_matches`` is timed during the run (the hook
    ``perfbench/tracing.py`` uses) and restored afterwards."""
    orig = core_engine.enumerate_matches
    enum_s = 0.0

    def enumerate_matches(*args):
        nonlocal enum_s
        t0 = time.perf_counter()
        res = orig(*args)
        enum_s += time.perf_counter() - t0
        return res

    core_engine.enumerate_matches = enumerate_matches
    try:
        st = _cell("core", cq, events, budget_s)
    finally:
        core_engine.enumerate_matches = orig
    return st, enum_s


def table1_sequence(
    ns: Sequence[int] = (3, 5, 7, 9),
    *,
    window: float = 100,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Throughput / update-throughput / enumeration-throughput / memory for
    A1;..;An, n in ``ns``, count window 100, noisy uniform stream. The
    update/enumeration split is CORE's: enumeration is the time the cell
    spends in Algorithm 2, update the rest of the cell. It is NaN for the
    baselines, which build each match while they extend its run."""
    budget = default_budget() if budget_s is None else budget_s
    rows = []
    for n in ns:
        text = synthetic_query(seq_pattern(n), window)
        cq = compile_query(text)
        events = random_stream(n_events, n_seq=n, seed=seed)
        for system in SYSTEMS:
            update_eps = enum_ops = float("nan")
            if system == "core":
                full, enum_s = _core_cell_split(cq, events, budget)
                update_eps = RunStats(full.events, full.elapsed - enum_s, 0).throughput
                if enum_s > 0 and full.outputs:
                    enum_ops = full.outputs / enum_s
            else:
                full = _cell(system, cq, events, budget)
            # A fresh query: ``cq``'s DetCEA already holds the plans the
            # cell above compiled, which the memory peak is to count.
            fresh = compile_query(text)
            mem = memory_run(
                lambda: _engine(system, fresh), events,
                ts_of=cq.ts_of, budget_s=budget / 2,
            )
            rows.append(
                {
                    "table": "T1", "query": f"seq n={n}", "system": system,
                    "throughput_eps": full.throughput,
                    "update_eps": update_eps,
                    "enum_ops": enum_ops,
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
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """A1;A2;A3 with A3 hidden from the stream: every partial match survives
    the full window, the worst case for materializing systems."""
    events = random_stream(n_events, n_seq=3, hide_last=True, seed=seed)
    rows = []
    for w in windows:
        cq = compile_query(synthetic_query(seq_pattern(3), w))
        for system in SYSTEMS:
            st = _cell(system, cq, events, budget_s)
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
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """A1;A2;A3, T=100, A3 hidden. CORE runs ALL/NEXT/LAST/MAX; the
    baselines run their default selection strategy (skip-till-next)."""
    events = random_stream(n_events, n_seq=3, hide_last=True, seed=seed)
    cells = [("core", strat) for strat in ("all", "next", "last", "max")]
    cells += [(system, "next") for system in SYSTEMS if system != "core"]
    rows = []
    for system, strat in cells:
        cq = compile_query(synthetic_query(seq_pattern(3), window, strat))
        st = _cell(system, cq, events, budget_s)
        rows.append(
            {
                "table": "T3", "system": system,
                "strategy": strat.upper() if system == "core" else "DEFAULT",
                "throughput_eps": st.throughput,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 4 (Figure 9 left): iteration and disjunction.
# ----------------------------------------------------------------------
def table4_operators(
    *,
    window: float = 100,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    rows = []
    for qname, pattern in T4_PATTERNS.items():
        text = synthetic_query(pattern, window)
        types = sorted(parse(text).formula().event_types())
        events = typed_stream(
            n_events, types + [f"B{i}" for i in range(1, 7)], seed=seed
        )
        rows += _query_rows("T4", qname, text, events, budget_s)
    return rows


# ----------------------------------------------------------------------
# Table 5 (Figure 9 right): stock-market queries Q1-Q7.
# ----------------------------------------------------------------------
def table5_stock(
    *,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    seed: int = 0,
    queries: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    events = stock_stream(n_events, seed=seed)
    rows = []
    for qname in queries or sorted(STOCK_QUERIES):
        rows += _query_rows(
            "T5", qname, STOCK_QUERIES[qname], events, budget_s
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
    from ..spark.batch import run_batch
    from ..streams.generators import to_pandas

    events = stock_stream(n_events, seed=seed)
    pdf = to_pandas(events)
    rows = []
    for qname in queries:
        cq = compile_query(STOCK_QUERIES[qname])
        driver = _cell("core", cq, events, math.inf)
        t0 = time.perf_counter()
        spark_out = run_batch(
            spark, pdf, cq, engine="core", limit=OUTPUT_LIMIT
        ).count()
        t_spark = time.perf_counter() - t0
        rows.append(
            {
                "table": "T6", "query": qname,
                "driver_s": driver.elapsed, "driver_eps": driver.throughput,
                "spark_s": t_spark, "spark_eps": n_events / t_spark,
                "driver_outputs": driver.outputs, "spark_outputs": spark_out,
            }
        )
    return rows
