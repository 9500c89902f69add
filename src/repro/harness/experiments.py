"""Experiment drivers — one function per evaluation table (DESIGN.md § 4).

Each function returns a list of row-dicts (ready for
:func:`repro.harness.metrics.format_table`) with one row per
(query-config, system) cell, mirroring the corresponding paper figure.
Methodology follows Section 6: every cell is one CEQL query run by one
system over one pre-generated in-memory stream (``_row``), with a per-cell
time budget, consumption policy on for experiments with output, and
enumeration capped at the first 10 complex events per input tuple.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence

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


@contextmanager
def _enumeration_clock() -> Iterator[List[float]]:
    """Time CORE's Algorithm 2 while the block runs: the engine module's
    ``enumerate_matches`` is wrapped (the hook ``perfbench/tracing.py``
    uses) and restored afterwards. Yields ``[seconds spent so far]``."""
    orig = core_engine.enumerate_matches
    spent = [0.0]

    def enumerate_matches(*args):
        t0 = time.perf_counter()
        res = orig(*args)
        spent[0] += time.perf_counter() - t0
        return res

    core_engine.enumerate_matches = enumerate_matches
    try:
        yield spent
    finally:
        core_engine.enumerate_matches = orig


def _row(
    table: str, query: str, system: str, text: str, events,
    budget_s: Optional[float], *, detail: bool = False, **labels: str,
) -> Dict[str, Any]:
    """One table cell: CEQL ``text`` run by ``system`` over ``events``.

    The row holds ``table``, ``query``, ``system``, the ``labels`` (Table
    3's strategy), ``throughput_eps``, ``outputs``, ``shed_runs`` and
    ``note``. SASE's cell is skipped, with a note, when the query needs
    disjunction. ``shed_runs`` counts the partial matches a baseline's
    ``MAX_RUNS`` cap dropped: where it is not 0, the row's outputs and
    throughput are those of a truncated match set.

    With ``detail`` (Table 1) the row adds CORE's update/enumeration split
    and the system's memory peak. Enumeration is the time the cell spends in
    Algorithm 2, update the rest of the cell; the split is NaN for the
    baselines, which build each match while they extend its run.
    """
    q = parse(text)
    row = {
        "table": table, "query": query, "system": system, **labels,
        "throughput_eps": float("nan"), "outputs": 0, "shed_runs": 0,
        "note": "no disjunction support",
    }
    if system == "sase" and not sase.supports(q.formula()):
        return row
    cq = compile_query(q)
    eng = _engine(system, cq)
    timed = detail and system == "core"
    with _enumeration_clock() if timed else nullcontext([0.0]) as enum_s:
        st = throughput_run(eng, events, budget_s=budget_s, ts_of=cq.ts_of)
    parts = eng.engines.values() if cq.partition_by else [eng]
    row.update(
        throughput_eps=st.throughput, outputs=st.outputs, note="",
        shed_runs=sum(getattr(e, "n_shed_runs", 0) for e in parts),
    )
    if detail:
        update_eps = enum_ops = float("nan")
        if timed:
            update_eps = RunStats(st.events, st.elapsed - enum_s[0], 0).throughput
            if enum_s[0] > 0 and st.outputs:
                enum_ops = st.outputs / enum_s[0]
        # A fresh query: ``cq``'s DetCEA already holds the plans the cell
        # above compiled, which the memory peak is to count.
        fresh = compile_query(q)
        budget = default_budget() if budget_s is None else budget_s
        row.update(
            update_eps=update_eps, enum_ops=enum_ops,
            memory_bytes=memory_run(
                lambda: _engine(system, fresh), events,
                ts_of=cq.ts_of, budget_s=budget / 2,
            ),
        )
    return row


# ----------------------------------------------------------------------
# Table 1 (Figure 7): sequence queries with output.
# ----------------------------------------------------------------------
def table1_sequence(
    ns: Sequence[int] = (3, 5, 7, 9),
    *,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Throughput / update-throughput / enumeration-throughput / memory for
    A1;..;An, n in ``ns``, count window 100, noisy uniform stream."""
    rows = []
    for n in ns:
        text = synthetic_query(seq_pattern(n), 100)
        events = random_stream(n_events, n_seq=n, seed=seed)
        rows += [
            _row("T1", f"seq n={n}", system, text, events, budget_s, detail=True)
            for system in SYSTEMS
        ]
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
    return [
        _row(
            "T2", f"seq n=3, T={int(w)}", system,
            synthetic_query(seq_pattern(3), w), events, budget_s,
        )
        for w in windows
        for system in SYSTEMS
    ]


# ----------------------------------------------------------------------
# Table 3 (Figure 8 right): selection strategies.
# ----------------------------------------------------------------------
def table3_selection(
    *,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """A1;A2;A3, T=100, A3 hidden. CORE runs ALL/NEXT/LAST/MAX; the
    baselines run their default selection strategy (skip-till-next)."""
    events = random_stream(n_events, n_seq=3, hide_last=True, seed=seed)
    cells = [("core", strat, strat.upper()) for strat in ("all", "next", "last", "max")]
    cells += [(system, "next", "DEFAULT") for system in SYSTEMS if system != "core"]
    return [
        _row(
            "T3", "seq n=3, T=100", system,
            synthetic_query(seq_pattern(3), 100, strat), events, budget_s,
            strategy=label,
        )
        for system, strat, label in cells
    ]


# ----------------------------------------------------------------------
# Table 4 (Figure 9 left): iteration and disjunction.
# ----------------------------------------------------------------------
def table4_operators(
    *,
    n_events: int = 200_000,
    budget_s: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    rows = []
    for qname, pattern in T4_PATTERNS.items():
        text = synthetic_query(pattern, 100)
        types = sorted(parse(text).formula().event_types())
        events = typed_stream(
            n_events, types + [f"B{i}" for i in range(1, 7)], seed=seed
        )
        rows += [
            _row("T4", qname, system, text, events, budget_s) for system in SYSTEMS
        ]
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
    return [
        _row("T5", qname, system, STOCK_QUERIES[qname], events, budget_s)
        for qname in queries or sorted(STOCK_QUERIES)
        for system in SYSTEMS
    ]


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
        driver = throughput_run(
            _engine("core", cq), events, budget_s=math.inf, ts_of=cq.ts_of
        )
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


# Table number -> experiment, read by ``jobs/run_table.py`` and the benches.
TABLES = {
    1: table1_sequence,
    2: table2_window,
    3: table3_selection,
    4: table4_operators,
    5: table5_stock,
    6: table6_spark,
}
