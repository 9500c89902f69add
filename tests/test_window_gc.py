"""CORE's window GC bounds its live state by the window, not the stream.

``_prune`` keeps the union-lists of ``T`` inside the WITHIN window, and
``TECS.cut`` replaces union edges into subtrees that left it with a dead
leaf (paper Section 5.4). So the tECS nodes an engine can reach, from ``T``
and from the queue of unions not yet cut, stay within c·(window+1)·|Q|
however long the stream is, where |Q| is the CEA's state count; and so does
the pickled engine that Spark streaming keeps per key.
"""
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.cea.ceql import compile_query
from repro.core.engine import CoreEngine
from repro.core.tecs import Output, Union
from repro.streams.generators import typed_stream

ROOT = Path(__file__).resolve().parents[1]
NOISE = [f"B{i}" for i in range(1, 7)]
SYNTH_QUERY = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 100 events"
SYNTH_TYPES = ["A1", "A2", "A3"] + NOISE
# Nodes per window position and CEA state. 0.28 is the most measured on
# these streams, against 9 to 50 before union edges were cut.
C_REACHABLE = 1


def _reachable(eng) -> int:
    """tECS nodes reachable from everything the engine holds."""
    seen = set()
    todo = [n for ul in eng.T.values() for n in ul] + list(eng.tecs.unions)
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if type(n) is Union:
            todo += (n.left, n.right)
        elif type(n) is Output:
            todo.append(n.child)
    return len(seen)


def _timed_stream(n, types):
    """Times advance by 1 to 3 per event, so at most window+1 events share
    a window of the time query."""
    events = typed_stream(n, types + NOISE, seed=0)
    rng, t = random.Random(0), 0
    for e in events:
        t += rng.randint(1, 3)
        e["t"] = t
    return events


@pytest.mark.parametrize(
    "where, types",
    [
        ("A1; A2+; A3 WITHIN 100 events", ["A1", "A2", "A3"]),
        ("A1; A2+; A3; A4+; A5 WITHIN 100 events", ["A1", "A2", "A3", "A4", "A5"]),
        ("A1; A2+; A3 WITHIN 100 [t]", ["A1", "A2", "A3"]),
    ],
    ids=["k3-count", "k5-count", "k3-time"],
)
def test_reachable_tecs_is_bounded_by_the_window(where, types):
    cq = compile_query(f"SELECT * FROM S WHERE {where}")
    assert not cq.consume
    bound = C_REACHABLE * (cq.window + 1) * cq.cea.n_states
    eng = CoreEngine(cq.cea, cq.window, limit=10)
    for i, e in enumerate(_timed_stream(100_000, types)):
        eng.process(e, cq.ts_of(e, i), i)
        if i + 1 in (10_000, 100_000):
            assert _reachable(eng) <= bound, i + 1


# The most measured was 6.6 kB, against 663 kB within 60k events before
# union edges were cut.
MAX_STATE_BYTES = 10_000


def test_engine_pickled_every_microbatch_stays_small_and_exact():
    """Spark streaming's state shape without Spark: the engine goes through
    ``pickle`` after every 1,000 events, as ``make_stateful_func`` stores it
    per micro-batch, and answers exactly as an uninterrupted engine does."""
    cq = compile_query(SYNTH_QUERY)
    events = typed_stream(200_000, SYNTH_TYPES, seed=0)

    def engine():
        return CoreEngine(cq.cea, cq.window, consume=cq.consume, limit=10)

    whole, restored = engine(), engine()
    largest = 0
    for start in range(0, len(events), 1_000):
        for i in range(start, start + 1_000):
            e = events[i]
            ts = cq.ts_of(e, i)
            assert restored.process(e, ts, i) == whole.process(e, ts, i)
        blob = pickle.dumps(restored)
        largest = max(largest, len(blob))
        restored = pickle.loads(blob)
    assert restored.n_outputs == whole.n_outputs > 0
    assert largest <= MAX_STATE_BYTES


PICKLE_SCRIPT = """
import pickle, sys
from repro.cea.ceql import compile_query
from repro.core.engine import CoreEngine
from repro.streams.generators import typed_stream

cq = compile_query(sys.argv[1])
eng = CoreEngine(cq.cea, cq.window, consume=cq.consume, limit=10)
for i, e in enumerate(typed_stream(200_000, sys.argv[2].split(), seed=0)):
    eng.process(e, cq.ts_of(e, i), i)
print(sys.getrecursionlimit(), len(pickle.dumps(eng)))
"""


def test_long_stream_engine_pickles_at_default_recursion_limit():
    """In a fresh interpreter, since the recursion limit is process-wide and
    ``make_stateful_func`` raises it for any test that ran before."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", PICKLE_SCRIPT, SYNTH_QUERY, " ".join(SYNTH_TYPES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    limit, size = map(int, proc.stdout.split())
    assert limit == 1_000
    assert size <= MAX_STATE_BYTES


def test_engine_without_window_queues_no_unions():
    """Without WITHIN nothing is ever cut, so no union is queued: the
    engine holds no more than its union-lists reach (0.92 MB here; queuing
    the unions made it 1.19 MB)."""
    cq = compile_query("SELECT * FROM S WHERE A1; A2; A3")
    events = typed_stream(20_000, ["A1", "A2", "A3"] + NOISE, seed=0)
    tracemalloc.start()
    try:
        eng = CoreEngine(cq.cea, cq.window, consume=cq.consume, limit=10)
        for i, e in enumerate(events):
            eng.process(e, cq.ts_of(e, i), i)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(eng.tecs.unions) == 0
    assert held < 1_000_000
