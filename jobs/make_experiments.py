"""Regenerate EXPERIMENTS.md from benchmarks/results/*.json.

Embeds the paper's reference numbers (read off Figures 7-9 and the
surrounding text — the paper reports its evaluation graphically, so values
are approximate) next to the measured ones, plus the shape checks that the
benchmarks assert. Run after ``pytest benchmarks/ --benchmark-only``.
"""
from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RESULTS = os.path.join(REPO, "benchmarks", "results")

# Paper reference throughputs (events/second, approximate: read off the
# log-scale figures; exact multiples quoted in the text are used where given).
PAPER_T1 = {
    ("seq n=3", "core"): "~1.5e6", ("seq n=3", "sase"): "~3e6 (above CORE)",
    ("seq n=3", "esper"): "~1e5", ("seq n=3", "flink"): "~1e4",
    ("seq n=5", "core"): "~1.5e6", ("seq n=5", "sase"): "~2e6 (above CORE)",
    ("seq n=5", "esper"): "~8e4", ("seq n=5", "flink"): "~8e3",
    ("seq n=7", "core"): "~1.5e6", ("seq n=7", "sase"): "~6e5",
    ("seq n=7", "esper"): "~6e4", ("seq n=7", "flink"): "~5e3",
    ("seq n=9", "core"): "~1.5e6", ("seq n=9", "sase"): "CORE/6 ≈ 2.5e5",
    ("seq n=9", "esper"): "CORE/33 ≈ 4.5e4", ("seq n=9", "flink"): "CORE/500 ≈ 3e3",
}
PAPER_T2 = {
    ("seq n=3, T=50", "core"): "~2e6", ("seq n=3, T=50", "sase"): "~2e5",
    ("seq n=3, T=50", "esper"): "~1e5+", ("seq n=3, T=50", "flink"): "~5e4",
    ("seq n=3, T=100", "core"): "~2e6", ("seq n=3, T=100", "sase"): "~3e4",
    ("seq n=3, T=100", "esper"): "~5e4", ("seq n=3, T=100", "flink"): "~2e4",
    ("seq n=3, T=150", "core"): "~2e6", ("seq n=3, T=150", "sase"): "~3e3",
    ("seq n=3, T=150", "esper"): "~2e4", ("seq n=3, T=150", "flink"): "~5e3",
    ("seq n=3, T=200", "core"): "~2e6", ("seq n=3, T=200", "sase"): "CORE/3800 ≈ 5e2",
    ("seq n=3, T=200", "esper"): "<1e4", ("seq n=3, T=200", "flink"): "~2e3",
}
PAPER_T3 = {
    ("core", "ALL"): "~1e6", ("core", "NEXT"): "~1e6",
    ("core", "LAST"): "~1e6", ("core", "MAX"): "~1e6",
    ("sase", "DEFAULT"): "~1e4 (from ~1e3 w/o strategy)",
    ("esper", "DEFAULT"): "~1e4 (≥2 OOM below CORE)",
    ("flink", "DEFAULT"): "~1e4 (≥2 OOM below CORE)",
}
PAPER_T4 = {
    ("K3", "core"): ">1e6", ("K3", "sase"): "~1e4", ("K3", "esper"): "~1e4",
    ("K3", "flink"): "~3e3",
    ("K5", "core"): ">1e6", ("K5", "sase"): "~5e3", ("K5", "esper"): "~5e3",
    ("K5", "flink"): "~2e3",
    ("D3", "core"): ">1e6", ("D3", "sase"): "n/a (no OR)",
    ("D3", "esper"): "~1e5", ("D3", "flink"): "~1e4",
    ("D5", "core"): ">1e6", ("D5", "sase"): "n/a (no OR)",
    ("D5", "esper"): "~3e4", ("D5", "flink"): "~5e3",
}
PAPER_T5 = {q: "~1e6" for q in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")}
PAPER_T5_OTHER = "~1e4 (≈2 OOM below CORE); partition-by (Q3/Q6) lifts Esper/SASE close to CORE"


def _load(name):
    p = os.path.join(RESULTS, f"{name}.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _eps(v):
    if v is None:
        return "—"
    try:
        v = float(v)
    except (TypeError, ValueError):
        return str(v)
    if math.isnan(v):
        return "n/a"
    if v >= 1000:
        return f"{v:,.0f}"
    return f"{v:.3g}"


def _ratio(core, other):
    try:
        if other and not math.isnan(float(other)) and float(other) > 0:
            return f"{float(core)/float(other):.1f}x"
    except (TypeError, ValueError):
        pass
    return "—"


def _md_table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def _core_of(rows, query):
    for r in rows:
        if r.get("query") == query and r.get("system") == "core":
            return r
    return None


def _regenerate(table):
    return (
        f"`pytest benchmarks/ --benchmark-only -k table{table}` "
        f"(or `spark-submit jobs/run_table.py --table {table}`)"
    )


# Columns of the measured tables: (header, cell of row ``r`` in ``rows``).
QUERY = ("query", lambda rows, r: r["query"])
SYSTEM = ("system", lambda rows, r: r["system"])
MEASURED = ("measured e/s", lambda rows, r: _eps(r["throughput_eps"]))
CORE_X = (
    "CORE× (measured)",
    lambda rows, r: "1x" if r["system"] == "core" else _ratio(
        _core_of(rows, r["query"])["throughput_eps"], r["throughput_eps"]
    ),
)
SHED = ("shed runs", lambda rows, r: f"{r['shed_runs']:,}")


def _paper(numbers):
    return ("paper e/s", lambda rows, r: numbers.get((r["query"], r["system"]), "—"))


def _shape_t1(rows):
    c3 = _core_of(rows, "seq n=3")["throughput_eps"]
    c9 = _core_of(rows, "seq n=9")["throughput_eps"]
    return (
        f"Shape: CORE degrades only mildly in n ({_eps(c3)} → {_eps(c9)} "
        "e/s, ~linear), while SASE- and FlinkCEP-style engines collapse "
        "super-linearly (paper: 6x and 500x behind CORE at n=9; "
        "measured: "
        + _ratio(c9, next(r["throughput_eps"] for r in rows
                          if r["query"] == "seq n=9" and r["system"] == "sase"))
        + " and "
        + _ratio(c9, next(r["throughput_eps"] for r in rows
                          if r["query"] == "seq n=9" and r["system"] == "flink"))
        + " respectively). CORE's memory stays O(window·|Q|) while the "
        "baselines' grows with the materialized partial-match count "
        "(paper: exponential in n). Deviations: (1) the paper's SASE "
        "beats CORE at n=3/5 — our SASE-style baseline pays per-run "
        "Python dispatch and starts below CORE; (2) our Esper-style "
        "baseline degrades less steeply than the paper's Esper (its "
        "state-grouped batch extension compresses Python constants); "
        "(3) update and enumeration throughput are n/a for the "
        "baselines: they materialize each match inline while extending "
        "its partial match, so they have no update phase separate from "
        "enumeration to time. CORE's enumeration time is the time its "
        "cell spends in Algorithm 2 (`enumerate_matches`) and its update "
        "time is the rest of the cell (mask evaluation, Algorithm 1, "
        "window pruning and the feed loop): its throughput without "
        "enumeration."
    )


def _shape_t2(rows):
    s50 = next(r["throughput_eps"] for r in rows
               if r["query"].endswith("T=50") and r["system"] == "sase")
    s200 = next(r["throughput_eps"] for r in rows
                if r["query"].endswith("T=200") and r["system"] == "sase")
    return (
        "Shape: CORE is flat in T (the paper's headline claim) while "
        f"SASE-style throughput falls {s50/s200:.0f}x from T=50 to "
        "T=200 (paper: from ~1 OOM behind CORE at T=50 to 3 OOM / "
        "3800x at T=200; measured gap at T=200: "
        + _ratio(_core_of(rows, "seq n=3, T=200")["throughput_eps"], s200)
        + " for SASE, "
        + _ratio(
            _core_of(rows, "seq n=3, T=200")["throughput_eps"],
            next(r["throughput_eps"] for r in rows
                 if r["query"].endswith("T=200") and r["system"] == "flink"),
        )
        + " for FlinkCEP-style). The Esper-style baseline degrades "
        "monotonically but less steeply than the paper's Esper (same "
        "Python-constant caveat as Table 1)."
    )


# One entry per table: (results file, text before the table, columns,
# the shape paragraph after it, from the rows).
SECTIONS = [
    (
        "table1",
        [
            "## Table 1 — sequence queries with output (paper Figure 7)",
            "",
            "Workload: `A1;…;An`, n ∈ {3,5,7,9}, count window T=100, uniform "
            "stream over the query's types + 6 noise types, consumption on. "
            f"Regenerate: {_regenerate(1)}.",
            "",
        ],
        [
            QUERY, SYSTEM, _paper(PAPER_T1), MEASURED,
            ("measured update e/s", lambda rows, r: _eps(r["update_eps"])),
            ("measured enum out/s", lambda rows, r: _eps(r["enum_ops"])),
            ("measured peak mem (B)", lambda rows, r: f"{r['memory_bytes']:,}"),
            CORE_X,
        ],
        _shape_t1,
    ),
    (
        "table2",
        [
            "## Table 2 — sequence queries without output (paper Figure 8 left)",
            "",
            "Workload: `A1;A2;A3` with A3 absent from the stream (the sought "
            "complex event never occurs, so partial matches survive the whole "
            f"window), T ∈ {{50,100,150,200}}. Regenerate: {_regenerate(2)}.",
            "",
        ],
        [QUERY, SYSTEM, _paper(PAPER_T2), MEASURED, CORE_X],
        _shape_t2,
    ),
    (
        "table3",
        [
            "## Table 3 — selection strategies (paper Figure 8 right)",
            "",
            "Workload: `A1;A2;A3`, T=100, A3 hidden (no output, so every system "
            "performs the same recognition task regardless of its strategy "
            "semantics). CORE × {ALL, NEXT, LAST, MAX}; baselines use their "
            "performance-improving default (skip-till-next). Regenerate: "
            f"{_regenerate(3)}.",
            "",
        ],
        [
            SYSTEM,
            ("strategy", lambda rows, r: r["strategy"]),
            ("paper e/s",
             lambda rows, r: PAPER_T3.get((r["system"], r["strategy"]), "—")),
            MEASURED,
        ],
        lambda rows: (
            "Shape: CORE is flat across all four strategies and stays ahead "
            "of every baseline even with their strategies enabled — the "
            "paper's conclusion that CORE's advantage comes from the "
            "evaluation algorithm, not from selection-strategy heuristics. "
            "The baselines do improve vs their Table-2 (T=100, ALL) "
            "numbers, as in the paper (SASE ~1e3→1e4 there)."
        ),
    ),
    (
        "table4",
        [
            "## Table 4 — iteration and disjunction (paper Figure 9 left)",
            "",
            "Workload: K3=`A1;A2+;A3`, K5=`A1;A2+;A3;A4+;A5`, "
            "D3=`A1;(A2 OR A2');A3`, D5=`…;(A4 OR A4');A5`, T=100, noisy "
            "uniform stream, outputs on. SASE has no disjunction (as in the "
            f"paper). Regenerate: {_regenerate(4)}.",
            "",
        ],
        [QUERY, SYSTEM, _paper(PAPER_T4), MEASURED, CORE_X, SHED],
        lambda rows: (
            "Shape: CORE stays within a small factor of its sequence-query "
            "throughput when iteration/disjunction are added, while every "
            "baseline loses roughly an order of magnitude on iteration "
            "(paper: Esper/SASE drop from ~1e6 on `A1;A2;A3` to ~1e4 on "
            "K3) and the gaps widen with query length — matching the "
            "paper's 2–3 OOM separation."
        ),
    ),
    (
        "table5",
        [
            "## Table 5 — stock-market queries Q1–Q7 (paper Figure 9 right)",
            "",
            "Workload: synthetic stock stream (substitute for the WPI trace, "
            "calibrated to ≈100 events per 30 000 ms window as in appendix C), "
            "queries Q1–Q7 verbatim from appendix C (Q7 reconstructed from its "
            "Section-6 description), WITHIN 30000 [stock_time], CONSUME BY ANY, "
            f"Q3/Q6 PARTITION BY volume. Regenerate: {_regenerate(5)}.",
            "",
            f"Paper: CORE {PAPER_T5['Q1']} and stable on all of Q1–Q7; other "
            f"systems {PAPER_T5_OTHER}.",
            "",
        ],
        [
            QUERY, SYSTEM,
            ("paper e/s",
             lambda rows, r: PAPER_T5[r["query"]] if r["system"] == "core"
             else "n/a (no OR)" if r["note"] else "~1e4–1e5"),
            MEASURED, CORE_X, SHED,
        ],
        lambda rows: (
            "Shape: CORE is stable across all seven queries and leads on "
            "every non-partitioned one. As in the paper, PARTITION BY "
            "(Q3/Q6) *helps* the baselines — each partition holds few "
            "events, shrinking their partial-match sets — while barely "
            "moving CORE. Deviation: on Q7 (Kleene over disjunction) our "
            "Esper/Flink baselines collapse harder than the paper's "
            "(their skip-till-any run sets double per event between "
            "consumption resets; even with the 100k-run shedding cap they "
            "sit >3 OOM behind CORE vs the paper's ~2 OOM). A baseline row "
            "with shed runs above 0 hit that cap: its outputs and "
            "throughput are those of a truncated match set."
        ),
    ),
    (
        "table6",
        [
            "## Table 6 — distributed PARTITION BY (extra, beyond the paper)",
            "",
            "The paper leaves parallel execution as future work; this table "
            "runs the partitioned stock queries both driver-sequentially (the "
            "paper's model: one engine per partition in one thread) and "
            "distributed over Spark tasks via `applyInPandas`, asserting "
            f"identical outputs. Regenerate: {_regenerate(6)}.",
            "",
        ],
        [
            QUERY,
            ("driver e/s", lambda rows, r: f"{r['driver_eps']:,.0f}"),
            ("spark e/s", lambda rows, r: f"{r['spark_eps']:,.0f}"),
            ("driver outputs", lambda rows, r: r["driver_outputs"]),
            ("spark outputs", lambda rows, r: r["spark_outputs"]),
        ],
        lambda rows: (
            "At this stream size (tens of thousands of events, 10 "
            "partitions) Spark's scheduling/shuffle overhead dominates and "
            "the driver path wins — consistent with the paper's observation "
            "that partition-by slightly *reduces* CORE's throughput because "
            "per-partition engines add routing overhead. The Spark path "
            "exists for streams that exceed a single core; the Structured "
            "Streaming variant (tested in tests/test_spark_streaming.py) "
            "additionally keeps engine state in checkpointed stream state."
        ),
    ),
]


def build() -> str:
    parts = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Reproduction of the evaluation section of *CORE: a COmplex event "
        "Recognition Engine* (PVLDB 2022). The paper reports its results in "
        "Figures 7–9; each figure is reproduced here as a table of numbers "
        "(figures are out of scope). **Paper numbers are approximate** — "
        "read off log-scale plots, with the exact multiples the text quotes "
        "(6x/33x/500x/3800x) used where available.",
        "",
        "Measured numbers come from `benchmarks/results/*.json` (last "
        "`pytest benchmarks/ --benchmark-only` run on this machine; "
        "regenerate this file with `python jobs/make_experiments.py`). "
        "Methodology follows Section 6 — in-memory pre-generated streams, "
        "consumption policy on, enumeration capped at the first 10 results "
        "per event — with the substitutions documented in DESIGN.md "
        "(time-budgeted runs instead of 30 s; Python reimplementations of "
        "the JVM comparators over the same compiled CEA; `tracemalloc` "
        "instead of JVM memory polling; the baselines additionally carry a "
        "100k-partial-match load-shedding cap so the exponential cells "
        "terminate).",
        "",
        "**How to read**: absolute throughput is ~8–15x below the paper "
        "across the board (pure-Python engines vs Java on a faster CPU). "
        "The reproduction targets the *shape*: which system wins, the "
        "flat-vs-degrading trends, and rough factors. Every shape claim "
        "below is also asserted by the corresponding benchmark.",
        "",
    ]
    for name, intro, columns, shape in SECTIONS:
        rows = _load(name)
        parts += intro
        if rows:
            body = [[cell(rows, r) for _, cell in columns] for r in rows]
            parts += [
                _md_table([header for header, _ in columns], body),
                "", shape(rows), "",
            ]
        else:
            parts += ["*(no results yet — run the benchmarks)*", ""]
    return "\n".join(parts)


def main() -> None:
    md = build()
    out = os.path.join(REPO, "EXPERIMENTS.md")
    with open(out, "w") as f:
        f.write(md)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
