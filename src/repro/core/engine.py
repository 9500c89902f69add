"""CORE's incremental evaluation engine — paper Algorithm 1 + Section 5.4.

Per input tuple the engine:

1. evaluates every distinct atomic predicate once, producing the tuple's
   bit-vector as an ``int`` mask (Section 5.4) — the key of the step plan
   below. The index's mask kernel does this in straight-line code
   (``PredicateIndex``);
2. looks the mask up in the ``{mask: plan}`` table of its current
   configuration, the ordered det-states of ``T`` (``DetCEA.plan_table``).
   The tables are the CEA's, shared by all its engines (``CEA.det``). A
   *step plan* holds every decision of Algorithm 1 that depends only on
   the configuration and the mask; ``DetCEA.plan`` compiles it from
   ``DetCEA.step`` on the first miss, so a pair that recurs costs no
   ``DetCEA.step`` call. An *idle* tuple (plan ``False``) starts no run,
   moves no active state and ends no complex event, so the engine only
   counts it, and prunes (step 6) when the window allows. Steps 3–5 run
   the plan of every other tuple;
3. starts a potential new run from the (I/O-determinized, on-the-fly) initial
   state — runs may begin at any stream position. As in the paper (lines
   7–8), the initial state gets a fresh one-bottom union-list and takes its
   transitions in the same loop as the active states: its op is the plan's
   first. The bottom is built only when the plan says the initial state has
   a successor, so a tuple no run can start on allocates nothing;
4. executes the marking/non-marking transitions of every active state with
   a successor, in *insertion order* (``ordered-keys``), which processes
   states in non-increasing max-start order — the precondition of
   ``insert``. ``merge(ul)`` is built only when it is used: for a marking
   successor, or when the non-marking successor is already in ``T2`` (the
   ``insert`` case). Every union-list of ``T`` is read by one op, so one
   that goes on to ``T2`` moves there uncopied; the plan then hands over the
   next configuration's table;
5. enumerates, entry by entry, the union-lists of the plan's final states
   (Algorithm 2), with output-linear delay and no new tECS node;
6. collects what fell out of the WITHIN window — the amortized-constant
   analogue of the paper's weak-reference GC, in two parts:

   * ``_prune`` drops union-list tails whose max-start left the window. It
     runs only once the window has passed the *horizon*, a lower bound on
     the least tail max-start in ``T``: every node a step adds starts at or
     after it, except a bottom, which lowers it to ``now``, so below it
     pruning would drop nothing;
   * ``TECS.cut`` replaces the out-of-window right children of the oldest
     union nodes with a dead leaf, so the tECS reachable from ``T`` (and
     from the queue of unions not yet cut) stays within about one window
     of nodes, whatever the stream's length. It has a gate of its own, the
     max-start of the oldest queued union's right child: the horizon tracks
     only tails, and a right child can leave the window while every tail
     stays in it.

   Both run on busy tuples; an idle tuple only prunes. Neither is undone:
   on input whose time steps back (the NULL-time fallback to ``pos`` of
   ``CompiledQuery.ts_of``), a tail once popped and an edge once cut stay
   gone, though an earlier window would reach them again.

Cost per tuple is O(|Q|·|Δ|) plus enumeration — constant in data complexity,
independent of stream length, window size and number of partial matches;
this is precisely the property the Section 6 experiments measure.

Selection strategies: ``all`` (default, skip-till-any-match) and ``next``
change the automaton branching (see ``determinize``); ``last`` and ``max``
are per-event-batch filters over the ``all`` automaton and its ``DetCEA``
(``last`` keeps the latest-positions match per start, ``max`` keeps matches
whose position set is not strictly contained in another's). The filters need
the whole batch, so under ``last``/``max`` every event enumerates all its
matches before the ``limit`` cap is applied: capped output is then a subset
of the uncapped output, but these two strategies lose output-linear delay.

``step(mask, pos, now)`` is Algorithm 1 on what the engine reads of a tuple:
its predicate mask, position and time; it is the engine's whole per-tuple
contract, and it always enumerates. The Spark paths compute the masks of a
whole batch column by column (``PredicateIndex.masks``) and call ``step``.
``process(t, ts, pos)``, the per-tuple entry of the harness and of
``PartitionedEngine``, takes time and position from its caller, as
``EngineBase.process`` does, but is no thin wrapper: it runs steps 1–2
itself and finishes an idle tuple in its own frame, so idle tuples (59% of
the ``synth-kleene`` benchmark stream, 46–96% per stock query) never enter
``step``; only busy tuples, and masks the plan table has not met, go on to
it. The idle branch is written in both entries, and ``tests/test_engine.py``
pins the two equal.
"""
from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

from ..cea.automaton import CEA
from .base import EngineBase
from .enumerate import Match, enumerate_matches
from .tecs import Node, TECS


class CoreEngine(EngineBase):
    """Single-partition CORE engine (the paper's Algorithm 1).

    Parameters
    ----------
    cea:
        compiled (non-deterministic) CEA; determinized by ``CEA.det``.
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
        self.det = cea.det(strategy)
        super().__init__(self.det.index, window, consume, limit)
        # LAST/MAX filter an event's whole batch, so they cap after filtering.
        self._filter = strategy if strategy in ("last", "max") else None
        self._cap = None if self._filter else limit
        self.tecs = TECS(debug=debug, windowed=window is not None)
        # ordered-keys(T): Python dicts preserve insertion order.
        self.T: Dict[int, List[Node]] = {}
        # The {mask: plan} table of T's configuration (kept current wherever
        # T's keys change), and the horizon: a lower bound on the least tail
        # max-start in T, exact after each prune (nothing to prune until it
        # leaves the window).
        self._plans = self.det.plan_table(())
        self._horizon = math.inf
        # No ``tecs.cut`` can cut anything while the window is at or before
        # this max-start (see ``TECS.cut``).
        self._cut_at = -math.inf

    def __getstate__(self):  # the plan tables are rebuilt on first use
        state = self.__dict__.copy()
        del state["_plans"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._plans = self.det.plan_table(tuple(self.T))

    # ------------------------------------------------------------------
    def process(self, t: Mapping[str, Any], ts: float, pos: int) -> List[Match]:
        """``EngineBase.process`` with idle tuples finished here, in one
        frame: the mask kernel, one plan-table lookup and, for a tuple the
        table already knows to be idle, ``step``'s idle branch inline. Every
        other tuple goes on to ``step``."""
        mask = self.index.mask(t)
        if self._plans.get(mask) is not False:
            return self.step(mask, pos, ts)
        # ``step``'s idle branch (tests/test_engine.py pins the two equal).
        self.n_events += 1
        w = self.window
        if w is not None and ts - w > self._horizon:
            self._prune(ts)
        return []

    def step(self, mask: int, pos: int, now: float) -> List[Match]:
        """Algorithm 1 for a tuple with predicate mask ``mask`` (see
        ``PredicateIndex.mask``) at stream position ``pos`` and time ``now``;
        return the complex events ending there."""
        self.n_events += 1
        plan = self._plans.get(mask)
        if plan is None:
            plan = self.det.plan(tuple(self.T), mask)
        w = self.window

        # An idle tuple leaves T as it is and ends no complex event: it can
        # only prune, and only once the window has passed the horizon.
        if plan is False:
            if w is not None and now - w > self._horizon:
                self._prune(now)
            return []

        init, ops, finals, self._plans = plan
        tecs = self.tecs
        T = self.T
        T2: Dict[int, List[Node]] = {}
        # Lines 7-8: a new run may start at the current position. ``det.q0``
        # is never a state of T (the CEA's q0 has no incoming transition),
        # so its bottom goes in T, and its op is the first of the loop below.
        if init:
            T[self.det.q0] = [tecs.bottom(pos, now)]
            if now < self._horizon:
                self._horizon = now
        # Lines 9-20: extend every active state, in insertion order. Each
        # union-list of T is read by one op, so it can move to T2 uncopied.
        for p, q_mark, q_unmark, copy in ops:
            ul = T[p]
            if copy:
                T2[q_unmark] = ul
                continue
            # merge(ul) is needed for a marking successor, or to insert into
            # a union-list already in T2.
            n = ul[0] if len(ul) == 1 else tecs.merge(ul)
            if q_mark is not None:
                n2 = tecs.extend(n, pos)
                cur = T2.get(q_mark)
                if cur is None:
                    T2[q_mark] = [n2]
                else:
                    tecs.insert(cur, n2)
            if q_unmark is not None:
                cur = T2.get(q_unmark)
                if cur is None:
                    T2[q_unmark] = ul
                else:
                    tecs.insert(cur, n)
        self.T = T2

        # OUTPUT (lines 29-33), entry by entry in merge(ul) order; max-starts
        # decrease along a list, so its first entry out of the window ends it.
        tau = -math.inf if w is None else now - w
        matches: List[Match] = []
        if finals:
            for p in finals:
                for n in T2[p]:
                    if n.max_start < tau or len(matches) == self._cap:
                        break
                    enumerate_matches(n, pos, now, w, self._cap, matches)
            if matches and self._filter:
                matches = _apply_strategy(self._filter, matches)[: self.limit]
            self.n_outputs += len(matches)

        if matches and self.consume:
            # Consumption policy: forget all events read so far.
            self.reset()
        elif w is not None:
            # Every node built here starts at or after the horizon, except a
            # bottom, which lowered it to ``now``: below it nothing prunes.
            if tau > self._horizon:
                self._prune(now)
            if tau > self._cut_at:
                self._cut_at = tecs.cut(tau)
        return matches

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
            self._plans = self.det.plan_table(tuple(self.T))

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.T = {}
        self._plans = self.det.plan_table(())
        self._horizon = math.inf
        self.tecs.unions.clear()
        self._cut_at = -math.inf

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
