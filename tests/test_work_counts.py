"""Work counts of CORE's Algorithm 1, asserted on counters, not clocks.

Every tuple is answered from the step plan that the engine's current
configuration (the ordered det-states of ``T``) has for the tuple's mask. A
plan is compiled once per (configuration, mask) with 1 + |T| ``DetCEA.step``
calls; after that the pair costs no call at all, idle or busy. So the calls
per pass are bounded by the reachable (configuration, mask) pairs, not by
the stream's length. The counts are deterministic for a seed.
"""
import pytest

from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.cea.ceql import compile_query
from repro.cea.determinize import DetCEA
from repro.core.engine import CoreEngine
from repro.engines import make_engine
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import random_stream, stock_stream, typed_stream

N_EVENTS = 5_000
# Below the 1 call per event that Algorithm 1 makes without cached plans
# (one for the initial state, plus one per active state).
MAX_CALLS_PER_EVENT = 0.8
# A (configuration, mask) pair first met after the short run's 5k events
# costs one more plan: on seed 0 the synth-kleene query meets one such pair
# (2 calls), Q1 and Q7 none.
MAX_LATE_PLANS = 2
MAX_LATE_CALLS = 10


def _table2():
    phi = cel.seq(*(cel.EventType(f"A{i}") for i in (1, 2, 3)))
    stream = random_stream(N_EVENTS, n_seq=3, hide_last=True, seed=0)
    return compile_cel(phi), 100, True, stream, lambda e, i: float(i)


def _q1():
    cq = compile_query(STOCK_QUERIES["Q1"])
    return cq.cea, cq.window, cq.consume, stock_stream(N_EVENTS, seed=0), cq.ts_of


def _counting(monkeypatch, name):
    """Count calls of ``DetCEA.<name>`` until ``monkeypatch.undo()``."""
    calls = [0]
    orig = getattr(DetCEA, name)

    def counting(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(DetCEA, name, counting)
    return calls


@pytest.mark.parametrize("workload", [_table2, _q1], ids=["table2-a3-hidden", "stock-q1"])
def test_idle_tuples_make_no_det_step_calls(monkeypatch, workload):
    cea, window, consume, stream, ts_of = workload()
    core = CoreEngine(cea, window, consume=consume)
    calls = _counting(monkeypatch, "step")
    got = [core.process(e, ts_of(e, i), i) for i, e in enumerate(stream)]
    monkeypatch.undo()
    esper = make_engine("esper", cea, window=window, consume=consume)
    want = [esper.process(e, ts_of(e, i), i) for i, e in enumerate(stream)]

    assert [set(m) for m in got] == [set(m) for m in want]
    assert calls[0] / len(stream) < MAX_CALLS_PER_EVENT


SYNTH_QUERY = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 100 events"
SYNTH_TYPES = ["A1", "A2", "A3"] + [f"B{i}" for i in range(1, 7)]


@pytest.mark.parametrize(
    "query, stream_of",
    [
        (SYNTH_QUERY, lambda n: typed_stream(n, SYNTH_TYPES, seed=0)),
        (STOCK_QUERIES["Q1"], lambda n: stock_stream(n, seed=0)),
        (STOCK_QUERIES["Q7"], lambda n: stock_stream(n, seed=0)),
    ],
    ids=["synth-kleene", "stock-q1", "stock-q7"],
)
def test_det_step_calls_do_not_grow_with_stream_length(monkeypatch, query, stream_of):
    """Ten times the events cost (almost) no more ``DetCEA.step`` calls and
    no more plans: busy tuples are served from cached plans too."""
    counts = []
    for n in (N_EVENTS, 10 * N_EVENTS):
        cq = compile_query(query)
        core = CoreEngine(cq.cea, cq.window, consume=cq.consume, limit=10)
        steps = _counting(monkeypatch, "step")
        plans = _counting(monkeypatch, "plan")
        for i, e in enumerate(stream_of(n)):
            core.process(e, cq.ts_of(e, i), i)
        monkeypatch.undo()
        counts.append((steps[0], plans[0]))
    (steps_short, plans_short), (steps_long, plans_long) = counts
    assert plans_long <= plans_short + MAX_LATE_PLANS
    assert steps_long <= steps_short + MAX_LATE_CALLS
