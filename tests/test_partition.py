"""Tests for PARTITION BY routing (paper Sections 3 and 5.4)."""
import numpy as np
import pandas as pd
import pytest

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
        out.extend(eng.process(t, pos=i))
    # B@1 is in partition y (no preceding A there); B@2 completes x's match.
    assert out == [(0, 2, (0, 2))]


def test_null_partition_attribute_excluded():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = [{"type": "A", "name": "x"}, {"type": "B"}, {"type": "B", "name": "x"}]
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, pos=i))
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
        out.extend(eng.process(t, pos=i))
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
        out.extend(eng.process(t, pos=i))
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
        out.extend(eng.process(t, pos=i))
    assert out == [(0, 2, (0, 2))]
    assert eng.n_partitions == 2


def test_positions_are_global():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = _events([("X", "q")] * 5 + [("A", "x"), ("B", "x")])
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, pos=i))
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
        got |= set(eng.process(t, pos=i))
    expected = {(0, 2, (0, 2)), (1, 3, (1, 3)), (1, 5, (1, 5))}
    assert got == expected


def test_window_counts_global_positions():
    # Count-based windows use global arrival positions (the merged-stream
    # arrival time), so a sparse partition can expire.
    eng = make_partitioned("core", SEQ, ["name"], window=3)
    stream = _events([("A", "x")] + [("X", "q")] * 5 + [("B", "x")])
    out = []
    for i, t in enumerate(stream):
        out.extend(eng.process(t, pos=i))
    assert out == []


def test_requires_attributes():
    with pytest.raises(ValueError):
        make_partitioned("core", SEQ, [])


def test_counters():
    eng = make_partitioned("core", SEQ, ["name"])
    stream = _events([("A", "x"), ("B", "x")])
    for i, t in enumerate(stream):
        eng.process(t, pos=i)
    assert eng.n_events == 2 and eng.n_outputs == 1 and eng.n_partitions == 1


def test_reset_clears_partitions():
    eng = make_partitioned("core", SEQ, ["name"])
    eng.process({"type": "A", "name": "x"}, pos=0)
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
