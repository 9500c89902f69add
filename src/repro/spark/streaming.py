"""CER as a Structured Streaming stateful operator.

Implements automaton-based partial-match maintenance as a
``applyInPandasWithState`` operator (PySpark's flatMapGroupsWithState):

* the stream is grouped by the PARTITION BY key (or a constant key);
* per-key state holds the pickled engine. Its window GC (Section 5.4's
  weak-reference GC analogue: pruned union-lists and cut union edges) keeps
  the tECS it reaches, and so the pickle, bounded by the WITHIN window, not
  by the stream's length per key: about 4–7 kB for ``A1; A2+; A3 WITHIN
  100 events`` at any length. Along with the run state, the pickle
  carries what the engine reads of the query, not the CEA itself: for CORE
  its ``DetCEA`` (the CEA's ``adj``, ``finals`` and predicate index, and
  the interned det-states);
* each micro-batch feeds its rows to the engine in arrival order and emits
  the recognized complex events in append mode.

Events must arrive in ``pos`` order per key across micro-batches (true for
a replayed ordered source; the tests drive an ordered file source). The
engine pickle round-trip per micro-batch is the Spark-state analogue of
what FlinkCEP does per event.
"""
from __future__ import annotations

import pickle
import sys
from typing import Any, Iterator, Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from ..cea.ceql import CompiledQuery
from .batch import MATCH_SCHEMA, feed, group_by_key, group_engine, match_frame

STATE_SCHEMA = "blob binary"


def make_stateful_func(query: CompiledQuery, engine: str = "core", limit=None):
    """Build the (key, pdf_iter, state) -> Iterator[pdf] stateful function."""

    def fn(
        key: Tuple[Any, ...],
        pdfs: Iterator[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        # pickle recurses along tECS paths, whose depth the window bounds,
        # not the stream; a wide window or a query without WITHIN still
        # needs the headroom until the state format changes (ROADMAP item 6).
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        if state.exists:
            (blob,) = state.get
            eng = pickle.loads(bytes(blob))
        else:
            eng = group_engine(query, engine, limit)
        pkey = ",".join(str(k) for k in key) if query.partition_by else ""
        # A key's micro-batch may come in several Arrow chunks, not in pos
        # order between them: feed sorts them as one frame.
        matches = feed(eng, pd.concat(pdfs), query)
        state.update((pickle.dumps(eng),))
        yield match_frame(pkey, matches)

    return fn


def streaming_matches(
    events_stream: DataFrame,
    query: CompiledQuery,
    *,
    engine: str = "core",
    limit: Optional[int] = None,
) -> DataFrame:
    """Wire the stateful operator onto a streaming events DataFrame.

    ``events_stream`` must be a streaming DataFrame with a ``pos`` column and
    the query's attributes. Returns the streaming match DataFrame (append
    mode) with :data:`MATCH_SCHEMA`.
    """
    return group_by_key(events_stream, query).applyInPandasWithState(
        make_stateful_func(query, engine, limit),
        MATCH_SCHEMA,
        STATE_SCHEMA,
        "append",
        GroupStateTimeout.NoTimeout,
    )
