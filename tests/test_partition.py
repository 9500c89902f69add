"""Tests for PARTITION BY routing (paper Sections 3 and 5.4)."""
from decimal import Decimal

import hypothesis.strategies as st
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings

from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.cea.ceql import compile_query
from repro.core import PartitionedEngine
from repro.engines import make_engine, make_partitioned
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import stock_stream

A, B = cel.EventType("A"), cel.EventType("B")
SEQ = compile_cel(cel.Seq(A, B))


def _events(spec):
    """spec: list of (type, name) pairs."""
    return [{"type": t, "name": n} for (t, n) in spec]


def test_partitions_are_independent():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = _events([("A", "x"), ("B", "y"), ("B", "x")])
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    # B@1 is in partition y (no preceding A there); B@2 completes x's match.
    assert out == [(0, 2, (0, 2))]


def test_null_partition_attribute_excluded():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = [{"type": "A", "name": "x"}, {"type": "B"}, {"type": "B", "name": "x"}]
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    assert out == [(0, 2, (0, 2))]


def test_nan_partition_attribute_excluded():
    # NaN is NULL: such events belong to no substream, as run_batch's dropna
    # does on Spark. Each NaN is its own float object, so keying on it would
    # open one partition per event.
    eng = make_partitioned("core", SEQ, ["name", "vol"])
    stream = [{"type": t, "name": "x", "vol": float("nan")} for t in "ABABA"]
    stream += [{"type": "A", "name": "x", "vol": 1.0}, {"type": "B", "name": "x", "vol": 1.0}]
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    assert out == [(5, 6, (5, 6))]
    assert eng.n_partitions == 1
    assert eng.n_events == len(stream)


@pytest.mark.parametrize(
    "null", [pd.NA, pd.NaT, np.float32("nan")], ids=["NA", "NaT", "float32-nan"]
)
def test_pandas_null_partition_keys_excluded(null):
    # What pandas reads as NULL, and run_batch's dropna drops on Spark,
    # opens no partition in PartitionedEngine either.
    eng = make_partitioned("core", SEQ, ["vol"])
    stream = [{"type": t, "vol": null} for t in "ABAB"]
    stream += [{"type": "A", "vol": 1}, {"type": "B", "vol": 1}]
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    assert out == [(4, 5, (4, 5))]
    assert eng.n_partitions == 1


def test_multi_attribute_partitioning():
    eng = make_partitioned("core", SEQ, ["name", "vol"])
    stream = [
        {"type": "A", "name": "x", "vol": 1},
        {"type": "B", "name": "x", "vol": 2},  # different vol -> no match
        {"type": "B", "name": "x", "vol": 1},
    ]
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    assert out == [(0, 2, (0, 2))]
    assert eng.n_partitions == 2


def test_positions_are_global():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = _events([("X", "q")] * 5 + [("A", "x"), ("B", "x")])
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    assert out == [(5, 6, (5, 6))]


@pytest.mark.parametrize("system", ["core", "sase", "esper", "flink"])
def test_all_systems_agree_under_partitioning(system):
    ref = None
    stream = _events(
        [("A", "x"), ("A", "y"), ("B", "x"), ("B", "y"), ("A", "x"), ("B", "y")]
    )
    eng = make_partitioned(system, SEQ, ["name"], window=4)
    got = set()
    for i, t in enumerate(stream):
        got |= set(eng.process(t, float(i), i))
    expected = {(0, 2, (0, 2)), (1, 3, (1, 3)), (1, 5, (1, 5))}
    assert got == expected


def test_window_counts_global_positions():
    # Count-based windows use global arrival positions (the merged-stream
    # arrival time), so a sparse partition can expire.
    eng = make_partitioned("core", SEQ, ["name"], window=3)
    stream = _events([("A", "x")] + [("X", "q")] * 5 + [("B", "x")])
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, float(i), i))
    assert out == []


def test_requires_attributes():
    with pytest.raises(ValueError):
        make_partitioned("core", SEQ, [])


def test_counters():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = _events([("A", "x"), ("B", "x")])
    for i, t in enumerate(stream):
        eng.process(t, float(i), i)
    assert eng.n_events == 2 and eng.n_outputs == 1 and eng.n_partitions == 1


def test_reset_clears_partitions():
    eng = make_partitioned("core", SEQ, ["name"])
    eng.process({"type": "A", "name": "x"}, 0.0, 0)
    eng.reset()
    assert eng.n_partitions == 0


@pytest.mark.parametrize("qname", ["Q3", "Q6"])
def test_partitions_share_one_detcea(qname):
    """The determinization cache belongs to the query (Section 5.4): every
    partition's CORE engine runs on the CEA's one ``DetCEA``, and outputs
    equal those of engines that each compile the query anew."""
    text = STOCK_QUERIES[qname]
    cq = compile_query(text)
    kw = dict(window=cq.window, consume=cq.consume, strategy=cq.strategy)
    shared = make_partitioned("core", cq.cea, cq.partition_by, **kw)
    fresh = PartitionedEngine(
        lambda: make_engine("core", compile_query(text).cea, **kw), cq.partition_by
    )
    for i, e in enumerate(stock_stream(20_000, seed=0)):
        ts = cq.ts_of(e, i)
        assert shared.process(e, ts, i) == fresh.process(e, ts, i)
    assert shared.n_partitions == fresh.n_partitions > 1
    assert shared.n_outputs == fresh.n_outputs > 0
    dets = {id(eng.det) for eng in shared.engines.values()}
    assert len(dets) == 1
    assert dets == {id(cq.cea.det(cq.strategy))}
    assert len({id(eng.det) for eng in fresh.engines.values()}) == fresh.n_partitions


@pytest.mark.parametrize("qname", ["Q3", "Q6"])
def test_partitioned_process_equals_step_per_partition(qname):
    """``PartitionedEngine`` hands each tuple to its partition's
    ``process``, which finishes idle tuples itself. Per-partition engines
    fed ``step`` on the tuple's mask give the same outputs, tuple by tuple,
    and end in the same state."""
    cq = compile_query(STOCK_QUERIES[qname])
    kw = dict(window=cq.window, consume=cq.consume)
    eng = make_partitioned("core", cq.cea, cq.partition_by, **kw)
    ref = {}
    outputs = 0
    for i, e in enumerate(stock_stream(5_000, seed=2)):
        ts = cq.ts_of(e, i)
        r = ref.setdefault(tuple(e[a] for a in cq.partition_by), make_engine("core", cq.cea, **kw))
        want = r.step(r.index.mask(e), i, ts)
        assert eng.process(e, ts, i) == want
        outputs += len(want)
    assert outputs > 0 and eng.engines.keys() == ref.keys()

    def state(p):
        T = [(q, [n.max_start for n in ul]) for q, ul in p.T.items()]
        return T, p._prune_at, p.n_events, p.n_outputs

    assert all(state(eng.engines[k]) == state(r) for k, r in ref.items())


MISSING = object()
# Key values: two keys, and NULL in every form a tuple may carry it.
KEY_VALUES = [1, 2, None, MISSING, float("nan"), Decimal("NaN"), pd.NA, pd.NaT]


@pytest.mark.parametrize("attrs", [("k",), ("k", "j")], ids=["one-attr", "two-attr"])
@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from("ABX"), st.sampled_from(KEY_VALUES), st.sampled_from(KEY_VALUES)),
        max_size=300,
    ),
    window=st.sampled_from([None, 3]),
)
def test_router_equals_direct_per_key_engines(attrs, rows, window):
    """``PartitionedEngine`` gives, event by event, the outputs of one
    ``CoreEngine`` per key fed ``process`` directly, where a row with a
    NULL or missing key attribute (``pd.isna``) goes to no engine."""
    eng = make_partitioned("core", SEQ, attrs, window=window)
    ref = {}
    for i, (typ, *vals) in enumerate(rows):
        e = {"type": typ, **{a: v for a, v in zip(attrs, vals) if v is not MISSING}}
        key = tuple(e.get(a) for a in attrs)
        want = []
        if not any(v is None or pd.isna(v) for v in key):
            r = ref.setdefault(key, make_engine("core", SEQ, window=window))
            want = r.process(e, float(i), i)
        assert eng.process(e, float(i), i) == want
    assert eng.engines.keys() == ref.keys()
    assert eng.n_events == len(rows)
