"""CORE's incremental evaluation engine — paper Algorithm 1 + Section 5.4.

Per input tuple the engine:

1. evaluates every distinct atomic predicate once, producing the tuple's
   bit-vector as an ``int`` mask (Section 5.4) — the key of every
   ``DetCEA.step`` below;
2. looks the mask up in the ``{mask: idle}`` table of its current
   configuration (``DetCEA.idle_table``). An *idle* tuple starts no run,
   moves no active state and ends no complex event, so the engine only
   counts it, and prunes only once the window has passed the *horizon*, the
   least tail max-start in ``T``. Steps 3–6 run for every other tuple;
3. starts a potential new run from the (I/O-determinized, on-the-fly) initial
   state — runs may begin at any stream position. The successors are looked
   up first, and the fresh bottom node is built only when the initial state
   has one, so a tuple no run can start on allocates nothing;
4. executes the marking/non-marking transitions of every active state in
   *insertion order* (``ordered-keys``), which processes states in
   non-increasing max-start order — the precondition of ``insert``. States
   without a successor are skipped, and ``merge(ul)`` is built only when it
   is used: for a marking successor, or when the non-marking successor is
   already in ``T2`` (the ``insert`` case). A non-marking successor new to
   ``T2`` takes a copy of the union-list itself;
5. enumerates all complex events ending here from the union-lists of final
   states (Algorithm 2), with output-linear delay;
6. prunes union-list tails whose max-start fell out of the WITHIN window —
   the amortized-constant analogue of the paper's weak-reference GC. This
   bounds the union-lists to the window, but not yet the tECS reachable from
   them: union nodes keep right children that have left the window, so the
   reachable DAG still grows with stream length (ROADMAP item 2).

Cost per tuple is O(|Q|·|Δ|) plus enumeration — constant in data complexity,
independent of stream length, window size and number of partial matches;
this is precisely the property the Section 6 experiments measure.

Selection strategies: ``all`` (default, skip-till-any-match) and ``next``
change the automaton branching (see ``determinize``); ``last`` and ``max``
are enumeration-time filters over the ``all`` automaton (per-event batch:
``last`` keeps the latest-positions match per start, ``max`` keeps matches
whose position set is not strictly contained in another's). The filters need
the whole batch, so under ``last``/``max`` every event enumerates all its
matches before the ``limit`` cap is applied: capped output is then a subset
of the uncapped output, but these two strategies lose output-linear delay.

``step(mask, pos, now)`` is Algorithm 1 on what the engine reads of a tuple:
its predicate mask, position and time; it is the engine's whole per-tuple
contract, and it always enumerates. ``process(t)`` (``EngineBase``, shared
with the baselines) computes the mask of one tuple and calls ``step``; the
Spark paths compute the masks of a whole batch column by column
(``PredicateIndex.masks``) and call ``step``.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..cea.automaton import CEA
from ..cea.determinize import DetCEA
from .base import EngineBase
from .enumerate import Match, enumerate_matches
from .tecs import Node, TECS


class CoreEngine(EngineBase):
    """Single-partition CORE engine (the paper's Algorithm 1).

    Parameters
    ----------
    cea:
        compiled (non-deterministic) CEA; determinized on the fly.
    window, consume, limit:
        see ``EngineBase``.
    strategy:
        'all' | 'next' | 'last' | 'max'; anything else raises ``ValueError``.
    """

    def __init__(
        self,
        cea: CEA,
        window: Optional[float] = None,
        *,
        consume: bool = False,
        limit: Optional[int] = None,
        strategy: str = "all",
        debug: bool = False,
    ):
        self.det = DetCEA(cea, strategy)
        super().__init__(self.det.index, window, consume, limit)
        self.strategy = strategy
        self.tecs = TECS(debug=debug)
        # ordered-keys(T): Python dicts preserve insertion order.
        self.T: Dict[int, List[Node]] = {}
        # The {mask: idle} table of T's configuration, and the horizon: the
        # least tail max-start in T (nothing to prune until it leaves the
        # window). Both are kept current wherever T changes.
        self._idle: Dict[int, bool] = self.det.idle_table(())
        self._horizon = math.inf

    # ------------------------------------------------------------------
    def step(self, mask: int, pos: int, now: float) -> List[Match]:
        """Algorithm 1 for a tuple with predicate mask ``mask`` (see
        ``PredicateIndex.mask``) at stream position ``pos`` and time ``now``;
        return the complex events ending there."""
        self.n_events += 1

        # An idle tuple leaves T as it is and ends no complex event: it can
        # only prune, and only once the window has passed the horizon.
        idle = self._idle.get(mask)
        if idle is None:
            idle = self._idle[mask] = self.det.is_idle(self.T, mask)
        if idle:
            w = self.window
            if w is not None and now - w > self._horizon:
                self._prune(now)
            return []

        step = self.det.step
        T2: Dict[int, List[Node]] = {}
        # Lines 7-8: a new run may start at the current position.
        q_mark, q_unmark = step(self.det.q0, mask)
        if q_mark is not None or q_unmark is not None:
            b = self.tecs.bottom(pos, now)
            self._exec_trans(q_mark, q_unmark, [b], b, pos, T2)
        # Lines 9-10: extend every active state, in insertion order.
        for p, ul in self.T.items():
            q_mark, q_unmark = step(p, mask)
            if q_mark is None:
                # merge(ul) is then needed only to insert into a union-list
                # already in T2.
                if q_unmark is None:
                    continue
                if q_unmark not in T2:
                    T2[q_unmark] = list(ul)
                    continue
            n = ul[0] if len(ul) == 1 else self.tecs.merge(ul)
            self._exec_trans(q_mark, q_unmark, ul, n, pos, T2)
        self.T = T2
        self._idle = self.det.idle_table(tuple(T2))

        # OUTPUT (lines 29-33).
        matches: List[Match] = []
        is_final = self.det.is_final
        # LAST/MAX filter the whole batch, so they cap after filtering.
        filtered = self.strategy in ("last", "max")
        limit = None if filtered else self.limit
        for p, ul in self.T.items():
            if is_final(p):
                n = ul[0] if len(ul) == 1 else self.tecs.merge(ul)
                enumerate_matches(n, pos, now, self.window, limit, matches)
                if limit is not None and len(matches) >= limit:
                    break
        if matches and filtered:
            matches = _apply_strategy(self.strategy, matches)[: self.limit]
        self.n_outputs += len(matches)

        if matches and self.consume:
            # Consumption policy: forget all events read so far.
            self.reset()
        else:
            self._prune(now)
        return matches

    # ------------------------------------------------------------------
    def _exec_trans(
        self,
        q_mark: Optional[int],
        q_unmark: Optional[int],
        ul: List[Node],
        n: Node,
        j: int,
        T2: Dict[int, List[Node]],
    ) -> None:
        """ExecTrans (Algorithm 1 lines 13-20) for the successors of a
        state with union-list ``ul``; ``n`` is merge(ul)."""
        if q_mark is not None:
            n2 = self.tecs.extend(n, j)
            cur = T2.get(q_mark)
            if cur is None:
                T2[q_mark] = [n2]
            else:
                self.tecs.insert(cur, n2)
        if q_unmark is not None:
            cur = T2.get(q_unmark)
            if cur is None:
                T2[q_unmark] = list(ul)
            else:
                self.tecs.insert(cur, n)

    def _prune(self, now: float) -> None:
        """Window GC: drop union-list tails with max-start out of window,
        and set the horizon to the least tail max-start left."""
        if self.window is None:
            return
        tau = now - self.window
        horizon = math.inf
        dead = []
        for p, ul in self.T.items():
            while ul and ul[-1].max_start < tau:
                ul.pop()
            if not ul:
                dead.append(p)
            elif ul[-1].max_start < horizon:
                horizon = ul[-1].max_start
        self._horizon = horizon
        if dead:
            for p in dead:
                del self.T[p]
            self._idle = self.det.idle_table(tuple(self.T))

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.T = {}
        self._idle = self.det.idle_table(())
        self._horizon = math.inf

    @property
    def n_active_states(self) -> int:
        return len(self.T)

    @property
    def n_nodes_created(self) -> int:
        return self.tecs.n_nodes


def _apply_strategy(strategy: str, matches: List[Match]) -> List[Match]:
    """Enumeration-time LAST / MAX filters (per-event batch)."""
    if strategy == "last":
        best: Dict[int, Match] = {}
        for m in matches:
            cur = best.get(m[0])
            if cur is None or m[2] > cur[2]:
                best[m[0]] = m
        return list(best.values())
    # max: drop matches strictly contained in another match's positions.
    sets = [frozenset(m[2]) for m in matches]
    out = []
    for i, m in enumerate(matches):
        if not any(i != k and sets[i] < sets[k] for k in range(len(matches))):
            out.append(m)
    return out
