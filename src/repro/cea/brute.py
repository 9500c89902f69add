"""Reference implementation of the CEL valuation semantics (paper Table 2).

This is the ground truth every engine is tested against. It materializes the
full set of valuations ``[[phi]](S)`` by direct structural induction on the
formula — exponential in general, so only usable on small streams, which is
exactly its role: an oracle for correctness tests, never a competitor in
benchmarks.

A valuation is represented as ``(start, end, mapping)`` where ``mapping`` is
a frozenset of ``(variable, frozenset(positions))`` pairs with non-empty
position sets (empty variables are dropped, which matches the semantics of
projection: a variable set to ∅ is indistinguishable from an absent one when
building complex events).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from . import cel

Mapping_ = FrozenSet[Tuple[str, FrozenSet[int]]]
Valuation = Tuple[int, int, Mapping_]
ComplexEvent = Tuple[int, int, Tuple[int, ...]]


def _mk(mapping: Dict[str, FrozenSet[int]]) -> Mapping_:
    return frozenset((x, ps) for x, ps in mapping.items() if ps)


def _as_dict(m: Mapping_) -> Dict[str, FrozenSet[int]]:
    return dict(m)


def _join(m1: Mapping_, m2: Mapping_) -> Mapping_:
    d = _as_dict(m1)
    for x, ps in m2:
        d[x] = d.get(x, frozenset()) | ps
    return _mk(d)


def evaluate(phi: cel.CEL, stream: List[Mapping]) -> Set[Valuation]:
    """Compute ``[[phi]](S)`` per Table 2 over a finite stream prefix."""
    if isinstance(phi, cel.EventType):
        return {
            (i, i, _mk({phi.name: frozenset({i})}))
            for i, t in enumerate(stream)
            if t.get("type") == phi.name
        }

    if isinstance(phi, cel.As):
        out = set()
        for (i, j, m) in evaluate(phi.sub, stream):
            allpos = frozenset().union(*(ps for _, ps in m)) if m else frozenset()
            d = _as_dict(m)
            d[phi.var] = allpos
            out.add((i, j, _mk(d)))
        return out

    if isinstance(phi, cel.Filter):
        out = set()
        for v in evaluate(phi.sub, stream):
            (i, j, m) = v
            xs = _as_dict(m).get(phi.var, frozenset())
            if all(
                all(a.eval(stream[k]) for a in phi.pred) for k in xs
            ):
                out.add(v)
        return out

    if isinstance(phi, cel.Or):
        return evaluate(phi.left, stream) | evaluate(phi.right, stream)

    if isinstance(phi, cel.Seq):
        return _seq_join(evaluate(phi.left, stream), evaluate(phi.right, stream))

    if isinstance(phi, cel.Plus):
        base = evaluate(phi.sub, stream)
        acc = set(base)
        while True:
            new = _seq_join(acc, base) - acc
            if not new:
                return acc
            acc |= new

    if isinstance(phi, cel.Project):
        out = set()
        for (i, j, m) in evaluate(phi.sub, stream):
            out.add((i, j, frozenset((x, ps) for x, ps in m if x in phi.keep)))
        return out

    raise TypeError(f"not a CEL formula: {phi!r}")


def _seq_join(vs1: Set[Valuation], vs2: Set[Valuation]) -> Set[Valuation]:
    out = set()
    for (i1, j1, m1) in vs1:
        for (i2, j2, m2) in vs2:
            if j1 < i2:
                out.add((i1, j2, _join(m1, m2)))
    return out


def complex_events(
    phi: cel.CEL,
    stream: List[Mapping],
    window: float | None = None,
    ts: Sequence[float] | None = None,
) -> Set[ComplexEvent]:
    """Complex-event semantics ``[[phi]]^eps(S)``: forget variables, apply
    the WITHIN filter ``ts[end] - ts[start] <= window``. ``ts`` gives each
    tuple's time; without it time is the position (count-based windows).
    """
    out = set()
    for (i, j, m) in evaluate(phi, stream):
        if window is not None and (j - i if ts is None else ts[j] - ts[i]) > window:
            continue
        data = frozenset().union(*(ps for _, ps in m)) if m else frozenset()
        out.add((i, j, tuple(sorted(data))))
    return out
