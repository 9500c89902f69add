"""Behavioural tests for CORE's Algorithm-1 engine."""
import gc
import pickle
import random
import weakref
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from helpers import ALL_SYSTEMS, feed, formulas, run_engine_per_event, stream_of
from reference_loop import ReferenceLoop
from repro.cea import brute, cel
from repro.cea.automaton import compile_cel
from repro.cea.ceql import compile_query
from repro.core.engine import CoreEngine
from repro.core.tecs import TECS
from repro.engines import make_engine
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import stock_stream

A, B, C = (cel.EventType(x) for x in "ABC")
SEQ3 = compile_cel(cel.seq(A, B, C))


def test_incremental_outputs_end_at_current_position():
    eng = CoreEngine(SEQ3)
    batches = feed(eng, stream_of("A", "B", "C", "C"))
    assert batches[0] == [] and batches[1] == []
    assert set(batches[2]) == {(0, 2, (0, 1, 2))}
    assert set(batches[3]) == {(0, 3, (0, 1, 3))}


def test_limit_caps_per_event_enumeration():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), limit=2)
    stream = stream_of("A", "A", "A", "A", "B")
    batches = feed(eng, stream)
    assert len(batches[-1]) == 2


def test_consume_resets_state():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), consume=True)
    batches = feed(eng, stream_of("A", "B"))
    assert set(batches[1]) == {(0, 1, (0, 1))}
    assert eng.n_active_states == 0  # consumed
    # A second B would match the first A under skip-till-any, but the match
    # at position 1 consumed it.
    assert eng.process({"type": "B"}, 2.0, 2) == []


def test_window_excludes_old_starts():
    eng = CoreEngine(SEQ3, window=2)
    batches = feed(eng, stream_of("A", "B", "X", "C"))
    assert batches[3] == []  # 3 - 0 > 2
    eng2 = CoreEngine(SEQ3, window=3)
    batches2 = feed(eng2, stream_of("A", "B", "X", "C"))
    assert set(batches2[3]) == {(0, 3, (0, 1, 3))}


def test_time_attribute_window():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), window=10.0)
    stream = [
        {"type": "A", "ts": 0},
        {"type": "B", "ts": 5},
        {"type": "B", "ts": 100},
    ]
    batches = feed(eng, stream, ts_of=lambda t, i: float(t["ts"]))
    assert set(batches[1]) == {(0, 1, (0, 1))}
    assert batches[2] == []  # 100 - 0 > 10


def test_window_gc_bounds_active_state():
    """The weak-reference-GC analogue: with a window, union-list tails are
    pruned so live state does not grow with stream length."""
    cea = compile_cel(cel.seq(A, B, C))
    eng = CoreEngine(cea, window=20)
    sizes = []
    stream = stream_of(*(["A", "B"] * 500))  # C never arrives
    for i, t in enumerate(stream):
        eng.process(t, float(i), i)
        sizes.append(sum(len(ul) for ul in eng.T.values()))
    assert max(sizes[100:]) <= max(sizes[:100]) + 2  # flat, not growing


def test_no_window_means_no_pruning():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)))
    for i in range(50):
        eng.process({"type": "A"}, float(i), i)
    # every A keeps an open partial match alive
    assert any(len(ul) > 0 for ul in eng.T.values())
    got = eng.process({"type": "B"}, 50.0, 50)
    assert len(got) == 50


@settings(max_examples=150, deadline=None)
@given(
    phi=formulas(),
    # (type, v, idle run before it, time gap per event)
    segments=st.lists(
        st.tuples(
            st.sampled_from("ABC"), st.integers(0, 4), st.integers(0, 12), st.integers(0, 3)
        ),
        max_size=10,
    ),
    window=st.sampled_from([2, 5]),
    time_window=st.booleans(),
    consume=st.booleans(),
)
def test_window_state_after_every_step(phi, segments, window, time_window, consume):
    """After every step, T holds only non-empty union-lists whose tails are
    inside the window, and never the initial state, whose op ``step`` runs
    from a bottom it puts in the old T; this must hold across long runs of
    X tuples too, where the engine takes its idle path."""
    eng = CoreEngine(compile_cel(phi), window, consume=consume)
    pos, now = 0, 0.0
    for typ, v, noise, gap in segments:
        for t in [{"type": "X"}] * noise + [{"type": typ, "v": v}]:
            now = now + gap / 2 if time_window else float(pos)
            eng.process(t, ts=now, pos=pos)
            pos += 1
            # The initial state's bottom never outlives its step.
            assert eng.det.q0 not in eng.T
            for ul in eng.T.values():
                assert ul and ul[-1].max_start >= now - window


def test_stats_counters():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)))
    feed(eng, stream_of("A", "B"))
    assert eng.n_events == 2
    assert eng.n_outputs == 1
    assert eng.n_nodes_created > 0


def test_debug_mode_invariants_hold_on_busy_stream():
    eng = CoreEngine(
        compile_cel(cel.seq(A, cel.Plus(cel.Or(B, C)), A)), window=8, debug=True
    )
    stream = stream_of(*(["A", "B", "C", "B", "A", "C"] * 20))
    for i, t in enumerate(stream):
        eng.process(t, float(i), i)  # debug asserts fire on violation


@pytest.mark.parametrize("strategy", ["all", "next", "last", "max"])
def test_strategies_subset_of_all(strategy):
    phi = cel.seq(A, cel.Plus(B), C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng_all = CoreEngine(cea)
    all_out = set().union(*(feed(eng_all, stream)or [set()])[-1:])
    eng = CoreEngine(cea, strategy=strategy)
    out = set().union(*(feed(eng, stream) or [set()])[-1:])
    assert out <= all_out or strategy == "all"


@pytest.mark.parametrize(
    "system, strategy",
    [("core", "bogus")]
    + [(s, x) for s in ("sase", "esper", "flink") for x in ("last", "max", "bogus")],
)
def test_unsupported_strategy_raises(system, strategy):
    """No engine silently answers a different strategy: the baselines
    support only all/next, CORE all/next/last/max."""
    with pytest.raises(ValueError):
        make_engine(system, SEQ3, strategy=strategy)


def test_all_last_and_max_share_one_detcea():
    """LAST and MAX filter ALL's matches, so the engines of one CEA under
    all, last and max share one ``DetCEA``; NEXT branches otherwise and has
    its own."""
    cea = compile_cel(cel.seq(A, cel.Plus(B), C))
    dets = {s: CoreEngine(cea, strategy=s).det for s in ("all", "last", "max", "next")}
    assert dets["all"] is dets["last"] is dets["max"] is cea.det("all")
    assert dets["next"] is not dets["all"] and dets["next"] is cea.det("next")


def test_next_strategy_single_match_per_start():
    phi = cel.seq(A, B, C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng = CoreEngine(cea, strategy="next")
    batches = feed(eng, stream)
    # skip-till-next: B at position 1 is consumed, position-2 B is skipped
    assert set(batches[3]) == {(0, 3, (0, 1, 3))}


def test_max_strategy_keeps_maximal_iterations():
    phi = cel.seq(A, cel.Plus(B), C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng = CoreEngine(cea, strategy="max")
    batches = feed(eng, stream)
    # ALL yields {1},{2},{1,2} for the B-block; MAX keeps only {1,2}
    assert set(batches[3]) == {(0, 3, (0, 1, 2, 3))}


def test_last_strategy_one_match_per_start():
    phi = cel.seq(A, B, C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng = CoreEngine(cea, strategy="last")
    batches = feed(eng, stream)
    assert set(batches[3]) == {(0, 3, (0, 2, 3))}  # latest B


CAP_FORMULAS = [
    cel.seq(A, cel.Plus(B), C),
    cel.seq(cel.Plus(A), B),
    cel.seq(cel.Plus(cel.Or(A, B)), C),
    cel.seq(A, B, C),
]


@pytest.mark.parametrize("strategy", ["all", "next", "last", "max"])
@settings(max_examples=100, deadline=None)
@given(
    phi=st.sampled_from(CAP_FORMULAS),
    types=st.lists(st.sampled_from("ABCX"), max_size=9),
    limit=st.integers(0, 3),
    window=st.sampled_from([None, 3]),
    consume=st.booleans(),
)
@example(phi=CAP_FORMULAS[1], types=list("AAB"), limit=0, window=None, consume=False)
# At capped enumeration, LAST emitted (0,3,(0,1,2,3)) here instead of
# (0,3,(0,2,3)), and MAX emitted (1,2,(1,2)) instead of (0,2,(0,1,2)).
@example(phi=CAP_FORMULAS[0], types=list("ABBC"), limit=1, window=None, consume=False)
@example(phi=CAP_FORMULAS[1], types=list("AAB"), limit=1, window=None, consume=False)
def test_capped_output_is_subset_of_uncapped(strategy, phi, types, limit, window, consume):
    """The ``limit`` cap only drops outputs: per event, the capped batch is
    part of the uncapped one and has min(limit, |uncapped|) entries."""
    cea = compile_cel(phi)
    capped = CoreEngine(cea, window, consume=consume, limit=limit, strategy=strategy)
    full = CoreEngine(cea, window, consume=consume, strategy=strategy)
    for i, t in enumerate(stream_of(*types)):
        got, want = capped.process(t, float(i), i), full.process(t, float(i), i)
        assert set(got) <= set(want)
        assert len(set(got)) == len(got) == min(limit, len(want))


@pytest.mark.parametrize("limit", [0, 1])
def test_every_engine_caps_at_small_limits(limit):
    """``A; B`` over ``A A B`` ends two complex events at the B; at limit 0
    no engine emits one, at limit 1 every engine emits the same one."""
    cea = compile_cel(cel.Seq(A, B))
    batches = {s: run_engine_per_event(s, cea, stream_of("A", "A", "B"), limit=limit)
               for s in ALL_SYSTEMS}
    assert [len(b) for b in batches["core"]] == [0, 0, limit]
    for system in ALL_SYSTEMS[1:]:
        assert batches[system] == batches["core"], system


@pytest.mark.parametrize("text", ["A; B+ WITHIN 6 events", "(A OR (A;B)); C WITHIN 6 events"])
def test_output_builds_no_tecs_nodes(text):
    """OUTPUT enumerates a final state's union-list entry by entry, so
    ``TECS.merge`` runs only for Algorithm 1's non-copy ops whose list has
    two or more entries, in op order, and on no final list."""
    cq = compile_query(f"SELECT * FROM S WHERE {text}")
    eng = CoreEngine(cq.cea, cq.window, limit=10)
    merged = []
    orig = TECS.merge

    def merge(self, ul):
        merged.append(ul)
        return orig(self, ul)

    rng = random.Random(0)
    n_merges = 0
    with mock.patch.object(TECS, "merge", merge):
        for pos in range(3_000):
            mask = eng.index.mask({"type": rng.choice("ABCX")})
            plan = eng._plans.get(mask)
            if plan is None:
                plan = eng.det.plan(tuple(eng.T), mask)
            ops = plan[1] if plan else ()
            # The initial state's op reads a one-bottom list: it never merges.
            want = [eng.T[p] for p, _, _, copy in ops
                    if p != eng.det.q0 and not copy and len(eng.T[p]) >= 2]
            merged.clear()
            eng.step(mask, pos, float(pos))
            assert [id(ul) for ul in merged] == [id(ul) for ul in want]
            n_merges += len(want)
    assert n_merges > 0 and eng.n_outputs > 0


def test_brute_force_agreement_sanity():
    phi = cel.seq(A, cel.Plus(B), C)
    stream = stream_of("A", "B", "X", "B", "C")
    expected = brute.complex_events(phi, stream, window=None)
    eng = CoreEngine(compile_cel(phi))
    got = set()
    for i, t in enumerate(stream):
        got |= set(eng.process(t, float(i), i))
    assert got == expected


def _window_state(T):
    return [(p, [n.max_start for n in ul]) for p, ul in T.items()]


@pytest.mark.parametrize("strategy", ["all", "next", "last", "max"])
@settings(max_examples=100, deadline=None)
@given(
    phi=formulas(),
    # (type, v, time since the previous tuple); X matches no formula.
    events=st.lists(
        st.tuples(st.sampled_from("ABCX"), st.integers(0, 4), st.integers(0, 2)),
        max_size=25,
    ),
    window=st.sampled_from([0, 1, 3, 6]),
    limit=st.sampled_from([None, 1, 3]),
    consume=st.booleans(),
)
def test_cached_plans_match_reference_loop(strategy, phi, events, window, limit, consume):
    """After every tuple the engine's matches, ``T`` key order and
    union-list max-starts equal those of the per-state reference loop."""
    cea = compile_cel(phi)
    eng = CoreEngine(cea, window, consume=consume, limit=limit, strategy=strategy)
    ref = ReferenceLoop(cea, window, consume, limit, strategy)
    now = 0.0
    for pos, (typ, v, gap) in enumerate(events):
        now += gap
        mask = eng.index.mask({"type": typ, "v": v})
        assert eng.step(mask, pos, now) == ref.step(mask, pos, now)
        assert _window_state(eng.T) == _window_state(ref.T)


def _entry_state(eng):
    return (_window_state(eng.T), eng._horizon, eng.n_events, eng.n_outputs)


@pytest.mark.parametrize("strategy", ["all", "next", "last", "max"])
@settings(max_examples=100, deadline=None)
@given(
    phi=formulas(),
    # (type, v, idle run before it, time gap per event); X matches no formula.
    segments=st.lists(
        st.tuples(
            st.sampled_from("ABC"), st.integers(0, 4), st.integers(0, 12), st.integers(0, 3)
        ),
        max_size=10,
    ),
    window=st.sampled_from([None, 0, 2, 5]),
    time_window=st.booleans(),
    limit=st.sampled_from([None, 1, 3]),
    consume=st.booleans(),
)
def test_process_equals_step_on_the_mask(
    strategy, phi, segments, window, time_window, limit, consume
):
    """``process``, which finishes idle tuples itself, leaves the engine
    exactly as ``step`` on the tuple's mask does: after every tuple the
    matches, ``T``'s key order, the union-lists' max-starts, the horizon
    and the counters agree."""
    cea = compile_cel(phi)
    a, b = (
        CoreEngine(cea, window, consume=consume, limit=limit, strategy=strategy)
        for _ in range(2)
    )
    pos, now = 0, 0.0
    for typ, v, idle, gap in segments:
        for t in [{"type": "X"}] * idle + [{"type": typ, "v": v}]:
            now = now + gap / 2 if time_window else float(pos)
            got = a.process(t, now, pos)
            assert got == b.step(b.index.mask(t), pos, now)
            assert _entry_state(a) == _entry_state(b)
            pos += 1


def test_pickled_engine_rebuilds_its_mask_kernel():
    """The generated mask kernel stays out of a pickled engine (Spark
    streaming's per-key state); the restored engine builds its own, which
    gives every tuple the mask the original's does."""
    cq = compile_query(STOCK_QUERIES["Q2"])
    stream = stock_stream(2_000, seed=0)
    eng = CoreEngine(cq.cea, cq.window, consume=cq.consume)
    for i, e in enumerate(stream[:1_000]):
        eng.process(e, cq.ts_of(e, i), i)
    blob = pickle.dumps(eng)
    assert b"mask kernel" not in blob and b"unhashable" not in blob
    restored = pickle.loads(blob)
    assert restored.index is restored.det.index
    assert restored.index.mask is not eng.index.mask
    assert [restored.index.mask(e) for e in stream] == [eng.index.mask(e) for e in stream]
    for i, e in enumerate(stream[1_000:], 1_000):
        ts = cq.ts_of(e, i)
        assert restored.process(e, ts, i) == eng.process(e, ts, i)


def test_pickled_engine_holds_no_caches():
    """The transition cache and the plan tables are rebuilt after unpickling,
    so they stay out of the pickle (1,824 bytes for this engine when they
    were in it; 979 without), and the restored engine goes on exactly like
    the original."""
    cq = compile_query(STOCK_QUERIES["Q1"])
    stream = stock_stream(50_000, seed=0)
    eng = CoreEngine(cq.cea, cq.window, consume=cq.consume)
    for i, e in enumerate(stream):
        eng.process(e, cq.ts_of(e, i), i)
    blob = pickle.dumps(eng)
    assert len(blob) < 1_824
    restored = pickle.loads(blob)
    assert not restored.det._cache and restored._plans == {}
    # Replay the stream's tail after the first pass, positions and times on.
    offset = cq.ts_of(stream[-1], len(stream) - 1)
    outputs = eng.n_outputs
    for i, e in enumerate(stream[-5_000:], len(stream)):
        ts = offset + cq.ts_of(e, i)
        assert restored.process(e, ts, i) == eng.process(e, ts, i)
    assert restored.n_outputs == eng.n_outputs > outputs


def test_dropped_query_is_freed_by_refcounting():
    """A compiled query and its shared ``DetCEA`` form no reference cycle,
    so dropping the query and its engine frees the CEA at once, without
    the cyclic collector."""
    cq = compile_query(STOCK_QUERIES["Q1"])
    eng = make_engine("core", cq.cea, window=cq.window, consume=cq.consume)
    for i, e in enumerate(stock_stream(2_000, seed=0)):
        eng.process(e, cq.ts_of(e, i), i)
    ref = weakref.ref(cq.cea)
    gc.disable()
    try:
        del cq, eng
        assert ref() is None
    finally:
        gc.enable()
