"""Work counts of CORE's Algorithm 1, asserted on counters, not clocks.

Every tuple is answered from the step plan that the engine's current
configuration (the ordered det-states of ``T``) has for the tuple's mask. A
plan is compiled once per (configuration, mask) with 1 + |T| ``DetCEA.step``
calls; after that the pair costs no call at all, idle or busy. So the calls
per pass are bounded by the reachable (configuration, mask) pairs, not by
the stream's length. The tECS nodes a tuple creates are bounded by the
query too: a constant per CEA state, whatever the stream's length. The
counts are deterministic for a seed.
"""
import pytest

from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.cea.ceql import compile_query, parse
from repro.cea.determinize import DetCEA
from repro.core.engine import CoreEngine
from repro.engines import make_engine, make_partitioned
from repro.harness.experiments import T4_PATTERNS, seq_pattern, synthetic_query
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


# Partitioned Q3 and Q6 over 50k stock events make 210 and 250 calls with
# one DetCEA for all ten partitions; 1,744 and 2,044 with one per partition.
MAX_PARTITIONED_CALLS = 300


@pytest.mark.parametrize("qname", ["Q3", "Q6"])
def test_partitions_compile_plans_once(monkeypatch, qname):
    """Partitions share the query's plans: a (configuration, mask) pair
    one partition compiled costs the others no ``DetCEA.step`` call."""
    cq = compile_query(STOCK_QUERIES[qname])
    eng = make_partitioned(
        "core", cq.cea, cq.partition_by,
        window=cq.window, consume=cq.consume, strategy=cq.strategy,
    )
    calls = _counting(monkeypatch, "step")
    for i, e in enumerate(stock_stream(50_000, seed=0)):
        eng.process(e, cq.ts_of(e, i), i)
    monkeypatch.undo()
    assert eng.n_partitions > 1 and eng.n_outputs > 0
    assert calls[0] <= MAX_PARTITIONED_CALLS


def _table1_stream(n_seq):
    return lambda n: random_stream(n, n_seq=n_seq, seed=0)


def _table2_stream(n):
    return random_stream(n, n_seq=3, hide_last=True, seed=0)


def _table4_stream(pattern):
    types = sorted(parse(synthetic_query(pattern, 100)).formula().event_types())
    return lambda n: typed_stream(n, types + [f"B{i}" for i in range(1, 7)], seed=0)


# tECS nodes created per event and CEA state; the Table 1, 2 and 4
# workloads below create 0.09 to 0.19 at 10k and at 100k events.
MAX_NODES_PER_EVENT_PER_STATE = 0.25
# Per-event rates may wander this much between the two stream lengths.
NODE_RATE_SLACK = 0.05


@pytest.mark.parametrize(
    "text, stream_of",
    [
        (synthetic_query(seq_pattern(3), 100), _table1_stream(3)),
        (synthetic_query(seq_pattern(9), 100), _table1_stream(9)),
        (synthetic_query(seq_pattern(3), 50), _table2_stream),
        (synthetic_query(seq_pattern(3), 200), _table2_stream),
        (synthetic_query(T4_PATTERNS["K3"], 100), _table4_stream(T4_PATTERNS["K3"])),
        (synthetic_query(T4_PATTERNS["D5"], 100), _table4_stream(T4_PATTERNS["D5"])),
    ],
    ids=["t1-n3", "t1-n9", "t2-T50", "t2-T200", "t4-K3", "t4-D5"],
)
def test_tecs_nodes_per_event_do_not_grow_with_stream_length(text, stream_of):
    """Nodes created per event stay within c·|Q| and do not grow from 10k
    to 100k events (ROADMAP item 5: counters, not clocks)."""
    cq = compile_query(text)
    rates = []
    for n in (10_000, 100_000):
        core = CoreEngine(cq.cea, cq.window, consume=cq.consume, limit=10)
        for i, e in enumerate(stream_of(n)):
            core.process(e, cq.ts_of(e, i), i)
        rates.append(core.n_nodes_created / n)
    short, long = rates
    assert max(short, long) <= MAX_NODES_PER_EVENT_PER_STATE * cq.cea.n_states
    assert long <= short * (1 + NODE_RATE_SLACK)
