"""Shared test utilities."""
from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import hypothesis.strategies as st

from repro.cea import cel
from repro.cea.automaton import CEA
from repro.cea.predicates import Atom
from repro.engines import make_engine

Match = Tuple[int, int, Tuple[int, ...]]

ALL_SYSTEMS = ("core", "sase", "esper", "flink")


def stream_of(*types: str, **attrs) -> List[Dict[str, Any]]:
    """Build a typed stream quickly: stream_of("A","B","A")."""
    return [{"type": t, **attrs} for t in types]


def run_engine(
    name: str,
    cea: CEA,
    stream: Sequence[Mapping[str, Any]],
    *,
    window: Optional[float] = None,
    consume: bool = False,
    limit: Optional[int] = None,
    strategy: str = "all",
    ts_of=None,
) -> Set[Match]:
    """Feed a whole stream through one engine, return the match *set*."""
    eng = make_engine(
        name, cea, window=window, consume=consume, limit=limit, strategy=strategy
    )
    out: Set[Match] = set()
    for pos, t in enumerate(stream):
        ts = None if ts_of is None else ts_of(t, pos)
        out |= set(eng.process(t, ts=ts, pos=pos))
    return out


def run_engine_per_event(
    name: str,
    cea: CEA,
    stream: Sequence[Mapping[str, Any]],
    **kw,
) -> List[Set[Match]]:
    """Like run_engine but keeps the per-event batches (order-sensitive
    behaviours: consumption, windows)."""
    eng = make_engine(name, cea, **kw)
    return [set(eng.process(t, pos=pos)) for pos, t in enumerate(stream)]


@st.composite
def formulas(draw, depth=3):
    """Random CEL formulas over event types A, B, C (every operator; FILTER
    tests the numeric attribute ``v``)."""
    if depth == 0:
        return cel.EventType(draw(st.sampled_from("ABC")))
    kind = draw(
        st.sampled_from(["atom", "seq", "or", "plus", "as", "project", "filter"])
    )
    if kind == "atom":
        return cel.EventType(draw(st.sampled_from("ABC")))
    if kind == "seq":
        return cel.Seq(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == "or":
        return cel.Or(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == "plus":
        return cel.Plus(draw(formulas(depth=max(depth - 2, 0))))
    if kind == "as":
        return cel.As(draw(formulas(depth=depth - 1)), draw(st.sampled_from("xy")))
    if kind == "project":
        sub = draw(formulas(depth=depth - 1))
        keep = draw(st.frozensets(st.sampled_from(sorted(sub.variables())), max_size=2))
        return cel.Project(sub, keep)
    sub = draw(formulas(depth=depth - 1))
    var = draw(st.sampled_from(sorted(sub.variables())))
    atom = Atom("v", draw(st.sampled_from(["<", ">=", "=="])), draw(st.integers(0, 4)))
    return cel.Filter(sub, var, frozenset({atom}))
