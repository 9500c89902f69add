"""Synthetic input streams mirroring the paper's Section 6 workloads.

* ``typed_stream`` / ``random_stream`` — the synthetic RandomStream: event
  types drawn uniformly from the query's types A1..An plus six noise types
  B1..B6; ``hide_last=True`` removes An so the sought complex event never
  occurs (the "sequence queries without output" and "selection strategies"
  experiments).
* ``stock_stream`` — substitute for the WPI stock trace (not available
  offline): BUY/SELL events over major tech tickers with per-name
  random-walk prices, coarse volumes (so PARTITION BY volume yields a
  handful of live partitions), and millisecond ``stock_time`` timestamps
  calibrated so a 30 000 ms window holds ≈100 events, matching the paper's
  own calibration note (appendix C).

All generators are deterministic in ``seed``. Events are plain dicts (the
engines' native format); ``to_pandas`` adds the global ``pos`` column and
converts to a DataFrame for the Spark layer and the DuckDB oracle. Only
``to_pandas`` loads pandas, so generating a stream does not.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    import pandas as pd

MAJOR_NAMES = ("MSFT", "ORCL", "CSCO", "AMAT", "INTC", "AMZN", "IBM", "DELL")
MEAN_GAP_MS = 300.0
# Base prices chosen so the Q2/Q5 filter thresholds (msft>26, orcl>11.14,
# amat>=18.92) sit near the middle of each walk.
_BASE_PRICE = {
    "MSFT": 26.0,
    "ORCL": 11.2,
    "CSCO": 20.0,
    "AMAT": 19.0,
    "INTC": 22.0,
    "AMZN": 35.0,
    "IBM": 90.0,
    "DELL": 25.0,
}


def typed_stream(
    n_events: int, types: Sequence[str], *, seed: int = 0
) -> List[Dict[str, Any]]:
    """Uniform i.i.d. stream over ``types``."""
    g = np.random.default_rng(seed)
    picks = g.integers(0, len(types), n_events)
    return [{"type": types[i]} for i in picks]


def random_stream(
    n_events: int,
    *,
    n_seq: int,
    hide_last: bool = False,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """The paper's RandomStream for sequence queries of length ``n_seq``:
    types A1..An (An omitted when ``hide_last``) plus B1..B6 noise, each
    with uniform probability."""
    upper = n_seq - 1 if hide_last else n_seq
    types = [f"A{i}" for i in range(1, upper + 1)] + [f"B{i}" for i in range(1, 7)]
    return typed_stream(n_events, types, seed=seed)


def stock_stream(n_events: int, *, seed: int = 0) -> List[Dict[str, Any]]:
    """Synthetic single-day stock stream (BUY/SELL, name, volume, price,
    stock_time in ms). Gaps of mean ``MEAN_GAP_MS`` put ≈100 events in a
    30 000 ms window."""
    g = np.random.default_rng(seed)
    name_idx = g.integers(0, len(MAJOR_NAMES), n_events)
    is_sell = g.random(n_events) < 0.5
    volumes = (g.integers(1, 11, n_events) * 100).astype(int)
    gaps = np.maximum(1, g.exponential(MEAN_GAP_MS, n_events)).astype(np.int64)
    times = np.cumsum(gaps)
    # Per-name multiplicative random walk around the base price.
    walk = {n: _BASE_PRICE[n] for n in MAJOR_NAMES}
    events: List[Dict[str, Any]] = []
    steps = g.normal(0.0, 0.01, n_events)
    for k in range(n_events):
        nm = MAJOR_NAMES[name_idx[k]]
        walk[nm] = max(0.5, walk[nm] * (1.0 + steps[k]))
        events.append(
            {
                "type": "SELL" if is_sell[k] else "BUY",
                "name": nm,
                "volume": int(volumes[k]),
                "price": round(float(walk[nm]), 2),
                "stock_time": int(times[k]),
            }
        )
    return events


def to_pandas(
    events: List[Dict[str, Any]], columns: Optional[Sequence[str]] = None
) -> pd.DataFrame:
    """Events → DataFrame with a global ``pos`` column (arrival position).

    ``columns`` fixes the attribute set (missing values become None/NaN);
    by default the union of keys across events is used.
    """
    import pandas as pd

    if columns is None:
        seen: Dict[str, None] = {}
        for e in events:
            for k in e:
                seen.setdefault(k, None)
        columns = list(seen)
    rows = {c: [e.get(c) for e in events] for c in columns}
    pdf = pd.DataFrame(rows)
    pdf.insert(0, "pos", np.arange(len(events), dtype=np.int64))
    return pdf
