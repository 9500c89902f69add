"""On-the-fly I/O-determinization of a CEA (paper Sections 4 and 5.4).

Algorithm 1 requires an *I/O-deterministic* CEA: from any state and tuple
there is at most one marking (``•``) and one non-marking (``∘``) successor.
The classical subset construction gives this, but may be exponential, so —
exactly as CORE does — we determinize lazily while the stream is processed:

* a deterministic state is a frozenset of NFA states, interned to a small int;
* the tuple is first reduced to its predicate **bit-vector** (Section 5.4,
  see :meth:`repro.cea.predicates.PredicateIndex.mask`), an ``int`` whose
  bit ``i`` says whether atom ``i`` holds, and the pair
  ``(det_state, mask)`` keys a transition cache, so each distinct
  combination is computed only once and each predicate is evaluated once per
  tuple;
* a *configuration* — the ordered tuple of det-states Algorithm 1 holds
  active — is interned to a ``{mask: idle}`` table, filled on first use, so
  the engine can tell with one dict lookup that a tuple changes nothing
  (see :meth:`DetCEA.idle_table`).

The NEXT selection strategy (skip-till-next-match) is implemented here at the
branching level: when a marking successor exists, the non-marking branch is
suppressed, so each run deterministically consumes the earliest matching
event instead of forking. ALL (skip-till-any-match, the CEQL default) keeps
both branches. LAST/MAX are enumeration-time filters in the engine (see
DESIGN.md for why this preserves the measured behaviour).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .automaton import CEA

# A tuple's predicate bit-vector as an int mask (``PredicateIndex.mask``).
BitVec = int


class DetCEA:
    """Lazily determinized view of a CEA, shared by Algorithm 1."""

    def __init__(self, cea: CEA, strategy: str = "all"):
        if strategy not in ("all", "next", "last", "max"):
            raise ValueError(f"unknown selection strategy {strategy!r}")
        self.cea = cea
        self.index = cea.index
        self.strategy = strategy
        self._sets: List[FrozenSet[int]] = []
        self._ids: Dict[FrozenSet[int], int] = {}
        self._finals: List[bool] = []
        self.q0 = self._intern(frozenset({cea.q0}))
        # (det_state, mask) -> (marking successor | None, non-marking | None)
        self._cache: Dict[Tuple[int, BitVec], Tuple[Optional[int], Optional[int]]] = {}
        # configuration -> {mask: idle}
        self._configs: Dict[Tuple[int, ...], Dict[BitVec, bool]] = {}

    def _intern(self, s: FrozenSet[int]) -> int:
        i = self._ids.get(s)
        if i is None:
            i = len(self._sets)
            self._ids[s] = i
            self._sets.append(s)
            self._finals.append(bool(s & self.cea.finals))
        return i

    def is_final(self, det_id: int) -> bool:
        return self._finals[det_id]

    @property
    def n_det_states(self) -> int:
        return len(self._sets)

    def step(self, det_id: int, mask: BitVec) -> Tuple[Optional[int], Optional[int]]:
        """Successors of ``det_id`` on a tuple with predicate mask ``mask``.

        Returns ``(q_mark, q_unmark)``, each a det-state id or None.
        """
        key = (det_id, mask)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        sat = self.index.satisfies
        adj = self.cea.adj
        mark_set: set = set()
        unmark_set: set = set()
        for p in self._sets[det_id]:
            for (g, mark, dst) in adj.get(p, ()):
                if sat(g, mask):
                    (mark_set if mark else unmark_set).add(dst)
        q_mark = self._intern(frozenset(mark_set)) if mark_set else None
        q_unmark = self._intern(frozenset(unmark_set)) if unmark_set else None
        if self.strategy == "next" and q_mark is not None:
            q_unmark = None
        out = (q_mark, q_unmark)
        self._cache[key] = out
        return out

    def idle_table(self, config: Tuple[int, ...]) -> Dict[BitVec, bool]:
        """The ``{mask: idle}`` table of configuration ``config`` (the active
        det-states, in Algorithm 1's order), shared by every caller that
        reaches the same configuration; entries are filled by the caller
        with :meth:`is_idle`."""
        table = self._configs.get(config)
        if table is None:
            table = self._configs[config] = {}
        return table

    def is_idle(self, config: Iterable[int], mask: BitVec) -> bool:
        """Whether a tuple with mask ``mask`` leaves configuration
        ``config`` as it is: no run starts at it (the initial state has no
        successor), every active state only loops to itself without a mark,
        and none of them is final, so the tuple ends no complex event."""
        step = self.step
        return step(self.q0, mask) == (None, None) and all(
            not self._finals[p] and step(p, mask) == (None, p) for p in config
        )
