"""Unit tests for Algorithm 2 (output-linear-delay enumeration)."""
import itertools
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.core import engine as core_engine
from repro.core.engine import CoreEngine
from repro.core.enumerate import enumerate_matches
from repro.core.tecs import TECS, Bottom, Output

A, B, C = (cel.EventType(x) for x in "ABC")
QUERIES = {
    "seq": cel.seq(A, B, C),
    "kleene": cel.seq(A, cel.Plus(B), C),
    "or": cel.Seq(cel.Or(A, cel.Seq(A, B)), C),
}


def cons_enumerate(root, end_pos, now, window, limit=None, out=None):
    """Reference Algorithm 2: the positions of a complex event are a chain
    of cons cells ``(pos, parent)``, walked into a tuple at each bottom.
    It has two known faults that the engine's version fixes: at
    ``limit=0``, or with ``out`` already holding ``limit`` entries, it
    still appends one."""
    if out is None:
        out = []
    tau = -float("inf") if window is None else now - window
    if root.max_start < tau:
        return out
    stack = [(root, None)]
    while stack:
        node, positions = stack.pop()
        while True:
            kind = type(node)
            if kind is Bottom:
                data = []
                p = positions
                while p is not None:
                    data.append(p[0])
                    p = p[1]
                out.append((node.pos, end_pos, tuple(data)))
                if limit is not None and len(out) >= limit:
                    return out
                break
            if kind is Output:
                positions = (node.pos, positions)
                node = node.child
            else:
                right = node.right
                if right.max_start >= tau:
                    stack.append((right, positions))
                node = node.left
    return out


def test_single_path():
    t = TECS()
    n = t.extend(t.extend(t.bottom(1, 1.0), 3), 5)
    out = enumerate_matches(n, 5, 5.0, None)
    assert out == [(1, 5, (3, 5))]


def test_union_enumerates_both_branches_no_duplicates():
    t = TECS()
    b0 = t.bottom(0, 0.0)
    b1 = t.bottom(1, 1.0)
    o0 = t.extend(b0, 2)
    o1 = t.extend(b1, 2)
    # wrap to equal max-start via bottoms at same ts is not needed: build
    # union-list and merge (the engine's path for differing max-starts).
    u = t.merge([o1, o0])
    out = enumerate_matches(u, 2, 2.0, None)
    assert sorted(out) == [(0, 2, (2,)), (1, 2, (2,))]


def test_window_prunes_old_starts():
    t = TECS()
    o_old = t.extend(t.bottom(0, 0.0), 9)
    o_new = t.extend(t.bottom(7, 7.0), 9)
    u = t.merge([o_new, o_old])
    out = enumerate_matches(u, 9, 9.0, 4)
    assert out == [(7, 9, (9,))]
    # window large enough: both
    out2 = enumerate_matches(u, 9, 9.0, 100)
    assert sorted(out2) == [(0, 9, (9,)), (7, 9, (9,))]


def test_root_out_of_window_returns_empty():
    t = TECS()
    n = t.extend(t.bottom(0, 0.0), 1)
    assert enumerate_matches(n, 50, 50.0, 10) == []


def test_limit_caps_enumeration():
    t = TECS()
    nodes = [t.extend(t.bottom(i, float(i)), 8) for i in range(8, 0, -1)]
    u = t.merge(nodes)
    out = enumerate_matches(u, 8, 8.0, None, limit=3)
    assert len(out) == 3


def test_positions_ascending_along_deep_path():
    t = TECS()
    n = t.bottom(0, 0.0)
    for j in range(1, 6):
        n = t.extend(n, j)
    out = enumerate_matches(n, 5, 5.0, None)
    assert out == [(0, 5, (1, 2, 3, 4, 5))]


def test_appends_to_existing_list():
    t = TECS()
    n = t.extend(t.bottom(1, 1.0), 2)
    acc = [("sentinel",)]
    out = enumerate_matches(n, 2, 2.0, None, out=acc)
    assert out is acc and len(acc) == 2


def test_limit_counts_what_out_already_holds():
    t = TECS()
    n = t.extend(t.bottom(1, 1.0), 2)
    assert enumerate_matches(n, 2, 2.0, None, limit=0) == []
    for held in (1, 2):
        acc = [("sentinel",)] * held
        assert enumerate_matches(n, 2, 2.0, None, limit=1, out=acc) == [("sentinel",)] * held
    assert enumerate_matches(n, 2, 2.0, None, limit=2, out=[("sentinel",)])[1:] == [(1, 2, (2,))]


def test_shared_subgraph_enumerated_once_per_path():
    # DAG sharing: two output nodes over the same bottom — each full path
    # yields exactly one complex event.
    t = TECS()
    b = t.bottom(0, 0.0)
    o1 = t.extend(b, 1)
    o2 = t.extend(b, 2)
    # simulate engine merge at a later position
    u = t.merge([o2, o1]) if o2.max_start >= o1.max_start else t.merge([o1, o2])
    out = enumerate_matches(u, 3, 3.0, None)
    assert sorted(out) == [(0, 3, (1,)), (0, 3, (2,))]


@pytest.mark.parametrize("strategy", ["all", "next", "last", "max"])
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(QUERIES)),
    # (type, time since the previous tuple); X matches no query.
    events=st.lists(st.tuples(st.sampled_from("ABCX"), st.integers(0, 2)), max_size=30),
    timed=st.booleans(),
    window=st.sampled_from([None, 1, 3, 6]),
    limit=st.sampled_from([None, 1, 3, 10]),
)
@example(name="kleene", events=[("A", 1)] * 3 + [("B", 1)] * 3 + [("C", 1)],
         timed=False, window=6, limit=10)
def test_engine_enumeration_equals_cons_cell_reference(strategy, name, events, timed, window, limit):
    """Every call the engine makes to Algorithm 2 returns, in the same
    order, what the cons-cell reference returns for the same arguments,
    over count windows (time = position) and time windows (ties
    included)."""

    def both(root, end_pos, now, window, limit=None, out=None):
        want = cons_enumerate(root, end_pos, now, window, limit, list(out))
        got = enumerate_matches(root, end_pos, now, window, limit, out)
        assert got == want
        return got

    eng = CoreEngine(compile_cel(QUERIES[name]), window, limit=limit, strategy=strategy)
    times = itertools.accumulate(gap for _, gap in events)
    with mock.patch.object(core_engine, "enumerate_matches", both):
        for pos, ((typ, _), t) in enumerate(zip(events, times)):
            eng.process({"type": typ}, t if timed else pos, pos)


@pytest.mark.parametrize("limit", [None, 10])
def test_every_output_passes_through_the_module_global(limit):
    """Table 1's update/enumeration split and perfbench's tracer time
    Algorithm 2 by replacing ``repro.core.engine.enumerate_matches``. So
    ``CoreEngine.step`` must call that global, and what the calls append
    must add up to the engine's output count."""
    appended = []

    def counting(root, end_pos, now, window, limit=None, out=None):
        before = 0 if out is None else len(out)
        res = enumerate_matches(root, end_pos, now, window, limit, out)
        appended.append(len(res) - before)
        return res

    eng = CoreEngine(compile_cel(QUERIES["kleene"]), 6, limit=limit)
    rng = random.Random(0)
    with mock.patch.object(core_engine, "enumerate_matches", counting):
        for pos in range(500):
            eng.process({"type": rng.choice("ABCX")}, float(pos), pos)
    assert eng.n_outputs > 0
    assert sum(appended) == eng.n_outputs
