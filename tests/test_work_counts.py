"""Work counts of CORE's Algorithm 1, asserted on counters, not clocks.

A tuple that starts no run, moves no active state and ends no complex event
(an *idle* tuple) is answered from the engine's per-configuration idle table,
so it costs no ``DetCEA.step`` call once that table knows its mask. Every
other tuple costs 1 + |T| calls. The counts are deterministic for a seed.
"""
import pytest

from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.cea.ceql import compile_query
from repro.cea.determinize import DetCEA
from repro.core.engine import CoreEngine
from repro.engines import make_engine
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import random_stream, stock_stream

N_EVENTS = 5_000
# Below the 1 call per event that Algorithm 1 makes without the idle path
# (one for the initial state, plus one per active state). The Table-2 stream
# cannot get much lower: a quarter of its tuples are A1/A2 tuples, and each
# of those is busy with |T| = 2, i.e. 3 calls, so it makes ~0.75 calls per
# event; Q1 makes ~0.5.
MAX_CALLS_PER_EVENT = 0.8


def _table2():
    phi = cel.seq(*(cel.EventType(f"A{i}") for i in (1, 2, 3)))
    stream = random_stream(N_EVENTS, n_seq=3, hide_last=True, seed=0)
    return compile_cel(phi), 100, True, stream, lambda e, i: float(i)


def _q1():
    cq = compile_query(STOCK_QUERIES["Q1"])
    return cq.cea, cq.window, cq.consume, stock_stream(N_EVENTS, seed=0), cq.ts_of


@pytest.mark.parametrize("workload", [_table2, _q1], ids=["table2-a3-hidden", "stock-q1"])
def test_idle_tuples_make_no_det_step_calls(monkeypatch, workload):
    cea, window, consume, stream, ts_of = workload()
    calls = 0
    step = DetCEA.step

    def counting_step(det, det_id, mask):
        nonlocal calls
        calls += 1
        return step(det, det_id, mask)

    core = CoreEngine(cea, window, consume=consume)
    monkeypatch.setattr(DetCEA, "step", counting_step)
    got = [core.process(e, ts_of(e, i), i) for i, e in enumerate(stream)]
    monkeypatch.undo()
    esper = make_engine("esper", cea, window=window, consume=consume)
    want = [esper.process(e, ts_of(e, i), i) for i, e in enumerate(stream)]

    assert [set(m) for m in got] == [set(m) for m in want]
    assert calls / len(stream) < MAX_CALLS_PER_EVENT
