"""CEL → Complex Event Automaton compilation (paper Section 4, appendix A.1).

The construction follows the appendix's VCEA (valuation CEA) induction:
transitions carry a guard (conjunction of atoms) and a *set of variables*
``L``; the final CEA marks a transition (``•``) iff ``L`` is non-empty.

Two deliberate deviations, both validated against the brute-force Table-2
semantics in ``tests/test_automaton_vs_brute.py``:

* **Iteration.** The appendix's ``phi+`` gadget has no skip transitions
  between iterations, which contradicts the declared semantics (``phi+`` =
  one-or-more applications of the *non-contiguous* ``;``). We insert a fresh
  junction state with a TRUE/non-marking self-loop between iterations
  (mirroring what the ``;`` construction does at its junction).
* **Normalization.** After the induction we always (a) add a fresh single
  initial state ``q0`` with no incoming transitions (required by Algorithm 1
  to define complex-event start times) and (b) trim states that are not both
  reachable from ``q0`` and co-reachable to a final state. Trimming does not
  change the language; it removes the dead duplicate targets the appendix
  construction leaves behind (e.g. the retained final states of ``phi1``
  inside ``phi1 ; phi2``), which matters for the baseline engines whose cost
  is proportional to the number of live runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from . import cel
from .determinize import DetCEA
from .predicates import Atom, Guard, PredicateIndex, TRUE, type_atom

# VCEA transition: (src, guard, labels, dst)
VTrans = Tuple[int, Guard, FrozenSet[str], int]


@dataclass
class VCEA:
    """Valuation CEA with a set of initial states (appendix A.1 model)."""

    n_states: int
    transitions: List[VTrans]
    initials: FrozenSet[int]
    finals: FrozenSet[int]


@dataclass
class CEA:
    """I/O-marked CEA: single initial state, •/∘ transitions (Section 4).

    ``transitions`` holds ``(src, guard, mark, dst)`` with ``mark`` True for
    ``•``. ``index`` maps the distinct atoms of all guards to bit positions;
    ``adj`` is the per-state adjacency list used by every engine.
    """

    n_states: int
    transitions: List[Tuple[int, Guard, bool, int]]
    q0: int
    finals: FrozenSet[int]
    index: PredicateIndex = field(init=False)
    adj: Dict[int, List[Tuple[Guard, bool, int]]] = field(init=False)

    def __post_init__(self) -> None:
        atoms: List[Atom] = []
        for g in dict.fromkeys(g for _, g, _, _ in self.transitions):
            atoms.extend(sorted(g, key=repr))
        self.index = PredicateIndex(atoms)
        self.adj = {}
        for src, g, mark, dst in self.transitions:
            self.adj.setdefault(src, []).append((g, mark, dst))
        self._dets: Dict[str, DetCEA] = {}

    def det(self, strategy: str = "all") -> DetCEA:
        """The ``DetCEA`` of this CEA under ``strategy``, built on first use
        and shared by every engine built from the CEA."""
        if strategy not in self._dets:
            self._dets[strategy] = DetCEA(self, strategy)
        return self._dets[strategy]

    def __getstate__(self):  # index/adj/det are derived; rebuilt on unpickle
        return (self.n_states, self.transitions, self.q0, self.finals)

    def __setstate__(self, state):
        self.n_states, self.transitions, self.q0, self.finals = state
        self.__post_init__()


class _Builder:
    """Fresh-state allocator for one compilation."""

    def __init__(self) -> None:
        self.n = 0

    def fresh(self) -> int:
        q = self.n
        self.n += 1
        return q


def _build(phi: cel.CEL, b: _Builder) -> VCEA:
    """Appendix A.1 induction (with the iteration junction fix)."""
    if isinstance(phi, cel.EventType):
        q1, q2 = b.fresh(), b.fresh()
        t = (q1, frozenset({type_atom(phi.name)}), frozenset({phi.name}), q2)
        return VCEA(b.n, [t], frozenset({q1}), frozenset({q2}))

    if isinstance(phi, cel.As):
        a = _build(phi.sub, b)
        trans = [
            (p, g, (L | {phi.var}) if L else L, q) for (p, g, L, q) in a.transitions
        ]
        return VCEA(b.n, trans, a.initials, a.finals)

    if isinstance(phi, cel.Filter):
        a = _build(phi.sub, b)
        trans = [
            (p, (g | phi.pred) if phi.var in L else g, L, q)
            for (p, g, L, q) in a.transitions
        ]
        return VCEA(b.n, trans, a.initials, a.finals)

    if isinstance(phi, cel.Or):
        a1 = _build(phi.left, b)
        a2 = _build(phi.right, b)
        return VCEA(
            b.n,
            a1.transitions + a2.transitions,
            a1.initials | a2.initials,
            a1.finals | a2.finals,
        )

    if isinstance(phi, cel.Seq):
        a1 = _build(phi.left, b)
        a2 = _build(phi.right, b)
        trans = list(a1.transitions) + list(a2.transitions)
        # TRUE/∘ self-loops on I2: skip arbitrary events at the junction.
        for p in a2.initials:
            trans.append((p, TRUE, frozenset(), p))
        # Transitions that would reach a final of phi1 also enter I2.
        for (p, g, L, q) in a1.transitions:
            if q in a1.finals:
                for i2 in a2.initials:
                    trans.append((p, g, L, i2))
        return VCEA(b.n, trans, a1.initials, a2.finals)

    if isinstance(phi, cel.Plus):
        a = _build(phi.sub, b)
        j = b.fresh()
        trans = list(a.transitions)
        # End an iteration -> junction (ready to start the next one).
        for (p, g, L, q) in a.transitions:
            if q in a.finals:
                trans.append((p, g, L, j))
        # Skip arbitrary events between iterations.
        trans.append((j, TRUE, frozenset(), j))
        # Start the next iteration from the junction.
        for (p, g, L, q) in a.transitions:
            if p in a.initials:
                trans.append((j, g, L, q))
                if q in a.finals:
                    # Single-transition iteration that is itself followed by
                    # yet another iteration.
                    trans.append((j, g, L, j))
        return VCEA(b.n, trans, a.initials, a.finals)

    if isinstance(phi, cel.Project):
        a = _build(phi.sub, b)
        trans = [(p, g, L & phi.keep, q) for (p, g, L, q) in a.transitions]
        return VCEA(b.n, trans, a.initials, a.finals)

    raise TypeError(f"not a CEL formula: {phi!r}")


def _single_initial(a: VCEA, b: _Builder) -> VCEA:
    """Add a fresh initial state with no incoming transitions."""
    q0 = b.fresh()
    trans = list(a.transitions)
    for (p, g, L, q) in a.transitions:
        if p in a.initials:
            trans.append((q0, g, L, q))
    return VCEA(b.n, trans, frozenset({q0}), a.finals)


def _trim(a: VCEA) -> VCEA:
    """Keep only states reachable from the initial and co-reachable to F."""
    fwd: Dict[int, set] = {}
    bwd: Dict[int, set] = {}
    for (p, _, _, q) in a.transitions:
        fwd.setdefault(p, set()).add(q)
        bwd.setdefault(q, set()).add(p)

    def closure(seed, edges):
        seen = set(seed)
        todo = list(seed)
        while todo:
            x = todo.pop()
            for y in edges.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    reach = closure(a.initials, fwd)
    coreach = closure(a.finals, bwd)
    live = (reach & coreach) | a.initials
    trans = [
        (p, g, L, q) for (p, g, L, q) in a.transitions if p in live and q in live
    ]
    return VCEA(a.n_states, trans, a.initials, a.finals & live)


def compile_cel(phi: cel.CEL) -> CEA:
    """Compile a CEL formula into a trimmed, single-initial CEA (Theorem 1)."""
    b = _Builder()
    a = _trim(_single_initial(_build(phi, b), b))
    (q0,) = a.initials
    # Renumber densely so engines can use state ids as small ints.
    remap: Dict[int, int] = {q0: 0}
    for (p, _, _, q) in a.transitions:
        for s in (p, q):
            if s not in remap:
                remap[s] = len(remap)
    # Dedupe (the inductive construction can emit the same transition twice,
    # which would inflate the baselines' run counts without changing the
    # language).
    trans = list(
        dict.fromkeys(
            (remap[p], g, bool(L), remap[q]) for (p, g, L, q) in a.transitions
        )
    )
    finals = frozenset(remap[f] for f in a.finals if f in remap)
    return CEA(len(remap), trans, 0, finals)
