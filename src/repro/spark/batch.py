"""Bounded-stream CER evaluation on Spark via ``applyInPandas``.

``run_batch`` evaluates a compiled CEQL query over an event DataFrame:

* the stream is a DataFrame with a global ``pos`` column (arrival order) and
  one column per event attribute (``type`` at minimum);
* PARTITION BY attributes become the ``groupBy`` key — the paper's
  hash-partitioned per-partition engine instances (Section 5.4) map exactly
  onto Spark's shuffle: each group runs one engine instance inside a task;
  rows with NULL in a partition attribute are excluded (Section 3);
* without PARTITION BY a constant key funnels the whole stream through one
  engine (the semantics is inherently sequential per substream).

The result is a DataFrame ``(partition, start, end, data)`` with positions
in ``data`` comma-joined, directly comparable against the DuckDB n-way-join
oracle of :mod:`repro.spark.sql_oracle`.
"""
from __future__ import annotations

from typing import Any, Iterable, List, Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, GroupedData, SparkSession
from pyspark.sql import functions as F

from ..cea.ceql import CompiledQuery
from ..core.enumerate import Match
from ..engines import make_engine

MATCH_SCHEMA = "partition string, start long, end long, data string"


def feed(engine: Any, frame: pd.DataFrame, query: CompiledQuery) -> List[Match]:
    """Run ``engine`` (one partition's engine) over ``frame``'s rows in
    ``pos`` order; return the complex events found.

    The Spark paths' one way of feeding rows: the predicate masks of the
    whole frame are computed column by column (``PredicateIndex.masks``), and
    ``pos`` and the times (``CompiledQuery.ts_of_frame``) are read as
    arrays. Each row is then one ``engine.step``.
    """
    frame = frame.sort_values("pos")
    pos = frame["pos"].to_numpy(np.int64)
    now = query.ts_of_frame(frame, pos)
    step = engine.step
    out: List[Match] = []
    for m, j, t in zip(engine.index.masks(frame), pos.tolist(), now.tolist()):
        out += step(m, j, t)
    return out


def group_by_key(sdf: DataFrame, query: CompiledQuery) -> GroupedData:
    """``sdf`` grouped by ``query``'s PARTITION BY attributes, without the
    rows that are NULL in one; by a constant ``_pk`` without PARTITION BY."""
    pcols = list(query.partition_by)
    if pcols:
        return sdf.dropna(subset=pcols).groupBy(*pcols)
    return sdf.withColumn("_pk", F.lit(0)).groupBy("_pk")


def group_engine(query: CompiledQuery, engine: str, limit: Optional[int]) -> Any:
    """A new ``engine`` for one group of ``query``; the CORE engines of all
    groups share the query's ``DetCEA`` (``CEA.det``)."""
    return make_engine(
        engine, query.cea, window=query.window, consume=query.consume,
        limit=limit, strategy=query.strategy,
    )


def match_frame(pkey: str, matches: Iterable[Match]) -> pd.DataFrame:
    """Matches as rows of :data:`MATCH_SCHEMA`, positions comma-joined."""
    return pd.DataFrame(
        [(pkey, s, e, ",".join(map(str, data))) for s, e, data in matches],
        columns=["partition", "start", "end", "data"],
    )


def run_group(
    pdf: pd.DataFrame,
    query: CompiledQuery,
    engine: str,
    limit: Optional[int],
    partition_cols: Iterable[str],
) -> pd.DataFrame:
    """Run one engine over one partition's events — the per-group body of
    ``applyInPandas``, also reused by tests for driver-side runs."""
    pcols = list(partition_cols)
    pkey = ",".join(str(pdf.iloc[0][c]) for c in pcols) if pcols else ""
    return match_frame(pkey, feed(group_engine(query, engine, limit), pdf, query))


def run_batch(
    spark: SparkSession,
    events: pd.DataFrame | DataFrame,
    query: CompiledQuery,
    *,
    engine: str = "core",
    limit: Optional[int] = None,
) -> DataFrame:
    """Evaluate ``query`` over ``events`` and return the match DataFrame."""
    sdf = (
        spark.createDataFrame(events) if isinstance(events, pd.DataFrame) else events
    )

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return run_group(pdf, query, engine, limit, query.partition_by)

    return group_by_key(sdf, query).applyInPandas(fn, MATCH_SCHEMA)
