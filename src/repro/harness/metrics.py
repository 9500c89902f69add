"""Throughput and memory measurement (paper Section 6 "Setup").

The paper pre-generates the stream in memory, then counts how many events a
system processes in 30 wall-clock seconds; recognized complex events are
capped at the first 10 per input event; memory is sampled after forcing GC.
Here the same scheme runs with a configurable (much smaller) time budget —
``REPRO_BENCH_BUDGET`` seconds per cell, default 0.4 — and memory is the
``tracemalloc`` peak over a fixed-length run. Both substitutions are
documented in DESIGN.md; throughput is still events/second and memory still
bytes of live engine state, so cross-system *ratios* remain comparable.
"""
from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence


def default_budget() -> float:
    return float(os.environ.get("REPRO_BENCH_BUDGET", "0.4"))


@dataclass
class RunStats:
    """Result of one throughput run."""

    events: int
    elapsed: float
    outputs: int

    @property
    def throughput(self) -> float:
        return self.events / self.elapsed if self.elapsed > 0 else float("inf")


def throughput_run(
    engine: Any,
    events: Sequence[Mapping[str, Any]],
    *,
    budget_s: Optional[float] = None,
    ts_of: Optional[Callable[[Mapping[str, Any], int], float]] = None,
) -> RunStats:
    """Feed ``events`` until the time budget is exhausted (or the stream
    ends); return events processed, elapsed seconds, and outputs produced.

    The budget is checked between events, so a single very slow event (the
    degenerate baseline cases) still terminates the run.
    """
    budget = default_budget() if budget_s is None else budget_s
    outputs = 0
    n = 0
    t0 = time.perf_counter()
    deadline = t0 + budget
    for pos, t in enumerate(events):
        ts = None if ts_of is None else ts_of(t, pos)
        outputs += len(engine.process(t, ts=ts, pos=pos))
        n += 1
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - t0
    return RunStats(n, elapsed, outputs)


def memory_run(
    factory: Callable[[], Any],
    events: Sequence[Mapping[str, Any]],
    *,
    ts_of: Optional[Callable[[Mapping[str, Any], int], float]] = None,
    budget_s: Optional[float] = None,
) -> int:
    """Peak tracemalloc bytes while one engine processes ``events``.

    The peak counter is reset after engine construction so only run-time
    state (partial matches / tECS nodes) is measured — the analogue of the
    paper's GC-then-sample JVM measurement.
    """
    tracemalloc.start()
    try:
        eng = factory()
        tracemalloc.reset_peak()
        throughput_run(eng, events, budget_s=budget_s, ts_of=ts_of)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def format_table(rows: List[Dict[str, Any]]) -> str:
    """Render rows (list of dicts with identical keys) as an aligned table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    cells = [[_fmt(r.get(c)) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v >= 1000:
            return f"{v:,.0f}"
        return f"{v:.3g}"
    return str(v)
