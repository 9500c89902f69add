"""On-the-fly I/O-determinization of a CEA (paper Sections 4 and 5.4).

Algorithm 1 requires an *I/O-deterministic* CEA: from any state and tuple
there is at most one marking (``•``) and one non-marking (``∘``) successor.
The classical subset construction gives this, but may be exponential, so —
exactly as CORE does — we determinize lazily while the stream is processed:

* a deterministic state is a frozenset of NFA states, interned to a small int;
* the tuple is first reduced to its predicate **bit-vector** (Section 5.4,
  see :attr:`repro.cea.predicates.PredicateIndex.mask`), an ``int`` whose
  bit ``i`` says whether atom ``i`` holds, and the pair
  ``(det_state, mask)`` keys a transition cache, so each distinct
  combination is computed only once and each predicate is evaluated once per
  tuple;
* a *configuration* — the ordered tuple of det-states Algorithm 1 holds
  active — is interned to a ``{mask: plan}`` table, filled on first use. A
  *step plan* is everything Algorithm 1 decides about a tuple from its mask
  alone: which successors the initial and the active states take, which
  states of the next configuration are final, and that configuration's own
  table; or ``False`` when the tuple changes nothing. The engine then pays
  one dict lookup per tuple (see :meth:`DetCEA.plan`).

These caches belong to the query, not to a partition (Section 5.4): every
engine built from one CEA shares its ``DetCEA`` (``CEA.det``). They are
rebuilt lazily, so a pickled ``DetCEA`` holds only the interned det-states.

The NEXT selection strategy (skip-till-next-match) is implemented here at the
branching level: when a marking successor exists, the non-marking branch is
suppressed, so each run deterministically consumes the earliest matching
event instead of forking. ALL (skip-till-any-match, the CEQL default) keeps
both branches. LAST and MAX filter ALL's matches in the engine and share its
``DetCEA`` (see DESIGN.md for why this preserves the measured behaviour).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:
    from .automaton import CEA

# A tuple's predicate bit-vector as an int mask (``PredicateIndex.mask``).
BitVec = int
# What ``DetCEA.plan`` compiles: ``False`` for an idle tuple, else
# ``(init, ops, finals, next_table)`` (see there).
Plan = Any


def next_branching(strategy: str) -> bool:
    """Whether ``strategy`` determinizes as NEXT does (ValueError if unknown)."""
    if strategy not in ("all", "next", "last", "max"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    return strategy == "next"


class DetCEA:
    """Lazily determinized view of a CEA, shared by its engines (``CEA.det``)."""

    def __init__(self, cea: CEA, strategy: str = "all"):
        # What determinization reads of the CEA. Not the CEA itself: it
        # holds this DetCEA (``CEA.det``), and a cycle would leave a dropped
        # query to the cyclic collector.
        self.adj = cea.adj
        self.finals = cea.finals
        self.index = cea.index
        self.is_next = next_branching(strategy)
        self._sets: List[FrozenSet[int]] = []
        self._ids: Dict[FrozenSet[int], int] = {}
        self._finals: List[bool] = []
        self.q0 = self._intern(frozenset({cea.q0}))
        # (det_state, mask) -> (marking successor | None, non-marking | None)
        self._cache: Dict[Tuple[int, BitVec], Tuple[Optional[int], Optional[int]]] = {}
        # configuration -> {mask: plan}
        self._tables: Dict[Tuple[int, ...], Dict[BitVec, Plan]] = {}
        # Equal ops, op tuples and final-state tuples of different plans,
        # stored once: a long query compiles many plans that share them.
        self._parts: Dict[tuple, tuple] = {}

    def __getstate__(self):  # the caches are rebuilt on first use
        state = self.__dict__.copy()
        del state["_cache"], state["_tables"], state["_parts"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache = {}
        self._tables = {}
        self._parts = {}

    def _intern(self, s: FrozenSet[int]) -> int:
        i = self._ids.get(s)
        if i is None:
            i = len(self._sets)
            self._ids[s] = i
            self._sets.append(s)
            self._finals.append(bool(s & self.finals))
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
        adj = self.adj
        mark_set: set = set()
        unmark_set: set = set()
        for p in self._sets[det_id]:
            for (g, mark, dst) in adj.get(p, ()):
                if sat(g, mask):
                    (mark_set if mark else unmark_set).add(dst)
        q_mark = self._intern(frozenset(mark_set)) if mark_set else None
        q_unmark = self._intern(frozenset(unmark_set)) if unmark_set else None
        if self.is_next and q_mark is not None:
            q_unmark = None
        out = (q_mark, q_unmark)
        self._cache[key] = out
        return out

    def plan_table(self, config: Tuple[int, ...]) -> Dict[BitVec, Plan]:
        """The ``{mask: plan}`` table of configuration ``config`` (the active
        det-states, in Algorithm 1's order), shared by every caller that
        reaches the same configuration; :meth:`plan` fills it."""
        table = self._tables.get(config)
        if table is None:
            table = self._tables[config] = {}
        return table

    def plan(self, config: Tuple[int, ...], mask: BitVec) -> Plan:
        """Compile the step plan of configuration ``config`` on a tuple with
        mask ``mask``, store it in ``config``'s table and return it.

        The plan is ``False`` when the tuple is *idle*: no run starts at it,
        every active state only loops to itself without a mark, and none of
        them is final, so it leaves the configuration as it is and ends no
        complex event. Otherwise it is ``(init, ops, finals, next_table)``:

        * ``init`` — the initial state's ``(q_mark, q_unmark)``, or None when
          it has no successor (no run starts here);
        * ``ops`` — one ``(p, q_mark, q_unmark, copy)`` per state ``p`` of
          ``config`` that has a successor, in ``config``'s order; ``copy``
          says ``p`` has only a non-marking successor and it is new to the
          next configuration, so ``p``'s union-list moves there as it is;
        * ``finals`` — the final states of the next configuration, in order;
        * ``next_table`` — the next configuration's plan table.
        """
        step = self.step
        share = self._parts.setdefault
        init = step(self.q0, mask)
        # The next configuration: T2's keys in insertion order.
        nxt: Dict[int, None] = {}
        if init == (None, None):
            init = None
        else:
            for q in init:
                if q is not None:
                    nxt.setdefault(q)
        ops = []
        for p in config:
            q_mark, q_unmark = step(p, mask)
            if q_mark is None and q_unmark is None:
                continue
            op = (p, q_mark, q_unmark, q_mark is None and q_unmark not in nxt)
            ops.append(share(op, op))
            if q_mark is not None:
                nxt.setdefault(q_mark)
            if q_unmark is not None:
                nxt.setdefault(q_unmark)
        finals = tuple(q for q in nxt if self._finals[q])
        if init is None and not finals and ops == [(p, None, p, True) for p in config]:
            plan: Plan = False
        else:
            ops_t = tuple(ops)
            next_table = self.plan_table(tuple(nxt))
            plan = (init, share(ops_t, ops_t), share(finals, finals), next_table)
        self.plan_table(config)[mask] = plan
        return plan
