"""Ground-truth tests: every engine vs the Table-2 valuation semantics.

A parametrized grid of (formula, stream, window) cases covering every CEL
operator, plus Hypothesis property tests over random formulas and streams.
"""
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import ALL_SYSTEMS, formulas, run_engine, stream_of
from repro.cea import brute, cel
from repro.cea.automaton import compile_cel
from repro.cea.predicates import Atom

A, B, C = (cel.EventType(x) for x in "ABC")

FORMULAS = {
    "atomic": A,
    "seq2": cel.Seq(A, B),
    "seq3": cel.seq(A, B, C),
    "or": cel.Or(A, B),
    "or-seq": cel.Or(cel.Seq(A, B), cel.Seq(B, A)),
    "plus": cel.Plus(A),
    "seq-plus": cel.seq(A, cel.Plus(B), C),
    "plus-of-seq": cel.Plus(cel.Seq(A, B)),
    "plus-of-or": cel.Plus(cel.Or(A, B)),
    "nested-plus": cel.seq(A, cel.Plus(cel.Or(B, C))),
    "as": cel.As(cel.Seq(A, B), "x"),
    "project-right": cel.Project(cel.Seq(A, B), frozenset({"B"})),
    "project-empty": cel.Project(cel.Seq(A, B), frozenset()),
    "filter": cel.Filter(cel.Seq(A, B), "B", frozenset({Atom("v", ">", 2)})),
    "filter-all-var": cel.Filter(
        cel.As(cel.Plus(A), "x"), "x", frozenset({Atom("v", "<", 4)})
    ),
}

STREAMS = {
    "empty-types": stream_of("X", "Y"),
    "simple": stream_of("A", "B", "A", "B"),
    "noisy": stream_of("A", "X", "B", "A", "X", "C", "B", "C"),
    "runs": stream_of("A", "A", "B", "B", "C", "C"),
    "alternating": stream_of("A", "B", "C", "A", "B", "C"),
    "single": stream_of("A"),
}
# attach a numeric attribute used by the filter formulas
for _s in STREAMS.values():
    for _i, _t in enumerate(_s):
        _t["v"] = _i

WINDOWS = [None, 2, 4]


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"w={w}")
@pytest.mark.parametrize("sname", STREAMS.keys())
@pytest.mark.parametrize("fname", FORMULAS.keys())
def test_engine_matches_brute_force(fname, sname, window, system):
    phi = FORMULAS[fname]
    stream = STREAMS[sname]
    expected = brute.complex_events(phi, stream, window=window)
    cea = compile_cel(phi)
    got = run_engine(system, cea, stream, window=window)
    assert got == expected


_streams = st.lists(
    st.builds(
        lambda t, v: {"type": t, "v": v},
        st.sampled_from("ABC"),
        st.integers(0, 4),
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=120, deadline=None)
@given(phi=formulas(), stream=_streams, window=st.sampled_from([None, 2, 4]))
def test_property_core_matches_brute(phi, stream, window):
    expected = brute.complex_events(phi, stream, window=window)
    got = run_engine("core", compile_cel(phi), stream, window=window)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    phi=formulas(),
    # (type, v, time since the previous tuple); X matches no formula.
    events=st.lists(
        st.tuples(st.sampled_from("ABCX"), st.integers(0, 4), st.integers(0, 2)),
        min_size=1,
        max_size=8,
    ),
    window=st.sampled_from([0, 1, 2, 4]),
)
def test_property_core_matches_brute_time_window(phi, events, window):
    """Time windows over non-decreasing timestamps with ties (gap 0), no
    consumption: this is where the horizon that gates window pruning on
    busy and idle tuples has to stay a lower bound."""
    stream = [{"type": t, "v": v} for t, v, _ in events]
    ts = list(itertools.accumulate(gap for _, _, gap in events))
    expected = brute.complex_events(phi, stream, window=window, ts=ts)
    got = run_engine(
        "core", compile_cel(phi), stream, window=window, ts_of=lambda t, i: float(ts[i])
    )
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(phi=formulas(), stream=_streams, window=st.sampled_from([None, 3]))
def test_property_baselines_match_brute(phi, stream, window):
    expected = brute.complex_events(phi, stream, window=window)
    cea = compile_cel(phi)
    for system in ("sase", "esper", "flink"):
        assert run_engine(system, cea, stream, window=window) == expected


@settings(max_examples=60, deadline=None)
@given(stream=_streams, window=st.sampled_from([None, 2, 5]))
def test_property_consumption_policy_equal_across_engines(stream, window):
    """Under the consumption policy all engines must emit the same match set
    at every position (CORE is the reference)."""
    phi = cel.seq(A, B)
    cea = compile_cel(phi)
    batches = {}
    for system in ALL_SYSTEMS:
        from repro.engines import make_engine

        eng = make_engine(system, cea, window=window, consume=True)
        batches[system] = [
            frozenset(eng.process(t, float(i), i)) for i, t in enumerate(stream)
        ]
    for system in ALL_SYSTEMS[1:]:
        assert batches[system] == batches["core"]


@settings(max_examples=150, deadline=None)
@given(
    phi=formulas(),
    # (type, v, time since the previous tuple); X matches no formula.
    events=st.lists(
        st.tuples(st.sampled_from("ABCX"), st.integers(0, 4), st.integers(0, 2)),
        min_size=1,
        max_size=8,
    ),
    window=st.sampled_from([None, 0, 2, 4]),
    time_window=st.booleans(),
)
def test_property_engines_match_brute_under_consumption(phi, events, window, time_window):
    """``CONSUME BY ANY``, which every Table 1-5 cell runs: CORE and the
    three baselines report exactly brute force's complex events, which
    restarts the stream after each event that ends one; over count windows
    and time windows (ties included)."""
    stream = [{"type": t, "v": v} for t, v, _ in events]
    if time_window:
        ts = list(itertools.accumulate(gap for _, _, gap in events))
    else:
        ts = list(range(len(stream)))
    expected = brute.complex_events(phi, stream, window=window, ts=ts, consume=True)
    cea = compile_cel(phi)
    for system in ALL_SYSTEMS:
        got = run_engine(
            system, cea, stream, window=window, consume=True, ts_of=lambda t, i: float(ts[i])
        )
        assert got == expected, system
