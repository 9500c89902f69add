"""CORE against the paper-literal Algorithm 1 (``reference_loop``) on long
streams, where plan tables, horizon-gated pruning, ``TECS.cut`` and the
idle entry all come into play. After every event the engine's capped
matches must equal the reference's, in order, and so must the max-starts
of its union-lists. The streams are the reduced benchmark passes of
``test_work_fingerprints``."""
import pytest

from reference_loop import ReferenceLoop
from repro.cea.ceql import compile_query
from repro.cea.predicates import is_null
from repro.engines import make_engine, make_partitioned
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import stock_stream, typed_stream
from test_work_fingerprints import (
    LIMIT, SEED, STOCK_EVENTS, SYNTH_EVENTS, SYNTH_QUERY, SYNTH_TYPES,
)


def _tails(T):
    return [[n.max_start for n in ul] for ul in T.values()]


def assert_matches_reference(text, events):
    """Feed ``events`` to a capped CORE engine for ``text`` (a
    ``PartitionedEngine`` under PARTITION BY) and to one reference per
    partition key, and compare them after every event. Returns the number
    of matches."""
    cq = compile_query(text)
    kw = dict(window=cq.window, consume=cq.consume, limit=LIMIT, strategy=cq.strategy)
    if cq.partition_by:
        eng = make_partitioned("core", cq.cea, cq.partition_by, **kw)
    else:
        eng = make_engine("core", cq.cea, **kw)
    refs = {}
    n_matches = 0
    for pos, t in enumerate(events):
        ts = cq.ts_of(t, pos)
        got = eng.process(t, ts, pos)
        key = tuple(t.get(a) for a in cq.partition_by)
        if any(is_null(v) for v in key):
            assert got == [], f"event {pos}"
            continue
        if key not in refs:
            refs[key] = ReferenceLoop(cq.cea, cq.window, cq.consume, LIMIT, cq.strategy)
        ref = refs[key]
        assert got == ref.process(t, ts, pos), f"event {pos}"
        part = eng.engines[key] if cq.partition_by else eng
        assert _tails(part.T) == _tails(ref.T), f"event {pos}"
        n_matches += len(got)
    return n_matches


def test_synth_kleene_equals_reference():
    events = typed_stream(SYNTH_EVENTS, SYNTH_TYPES, seed=SEED)
    assert assert_matches_reference(SYNTH_QUERY, events) > 0


def test_time_window_with_equal_times_equals_reference():
    """Two events per time unit: the window's bound stands still from one
    event to the next, so a run starting exactly at it stays live."""
    events = [
        {**e, "ts": pos // 2}
        for pos, e in enumerate(typed_stream(SYNTH_EVENTS, SYNTH_TYPES, seed=SEED))
    ]
    text = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 50 [ts]"
    assert assert_matches_reference(text, events) > 0


@pytest.fixture(scope="module")
def stock():
    return stock_stream(STOCK_EVENTS, seed=SEED)


@pytest.mark.parametrize("name", sorted(STOCK_QUERIES))
def test_stock_query_equals_reference(name, stock):
    assert assert_matches_reference(STOCK_QUERIES[name], stock) > 0
