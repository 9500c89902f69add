"""Shared machinery for the baseline engines.

Each baseline simulates the *nondeterministic* CEA directly, maintaining an
explicit set of runs (partial matches). A run in state ``q`` that started at
position ``i`` branches on every applicable transition — including the
TRUE/non-marking skip transitions the CEA uses for non-contiguous
sequencing — so the number of live runs grows super-linearly in the number
of events inside the window. That is precisely the partial-match explosion
of Example 1, and the reason the baselines degrade with query length n and
window size T while CORE does not.

A new run may start at every position. As in CORE's Algorithm 1, it goes
through the code that extends runs: it is the first run (Esper: the first
state buffer) that the run loop sees. SASE and FlinkCEP share one run loop
(``RunListEngine``) and differ only in how a run holds its positions and
where the run list lives.

Common behaviours (paper Section 6 setup):

* the per-tuple contract is CORE's: ``step(mask, pos, now)`` reads only the
  tuple's predicate mask, position and time, and ``process`` (shared with
  CORE through ``EngineBase``) computes the mask and calls it;
* window pruning: runs whose start time fell out of the WITHIN window die;
* consumption policy: when a match is found, all runs are discarded;
* enumeration cap: at most ``limit`` matches reported per input event. The
  baselines materialize each match while extending its run, so they have no
  enumeration phase separate from the update (Table 1 reports n/a for it);
* ``selection='next'`` (skip-till-next-match, the baselines' default
  strategy in the strategies experiment): a run that can take a marking
  transition does not also fork on non-marking ones. ``all`` and ``next``
  are the only strategies they support; any other raises ``ValueError``.
"""
from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

from ..cea.automaton import CEA
from ..core.base import EngineBase
from ..core.enumerate import Match


class BaselineBase(EngineBase):
    """State-independent plumbing shared by the three baselines."""

    def __init__(
        self,
        cea: CEA,
        window: Optional[float] = None,
        *,
        consume: bool = False,
        limit: Optional[int] = None,
        selection: str = "all",
        max_runs: Optional[int] = None,
    ):
        """``max_runs`` is a load-shedding safety cap used only by the
        benchmark harness: once that many live partial matches exist, further
        branching is dropped, and ``n_shed_runs`` counts the partial matches
        dropped (SASE and Flink: runs left unextended; Esper: extensions
        over one transition). It keeps the exponential cases (e.g. Q7's
        Kleene-over-disjunction) from exhausting memory between consumption
        resets; correctness tests always run uncapped."""
        if selection not in ("all", "next"):
            raise ValueError(f"baseline selection must be all/next, got {selection!r}")
        super().__init__(cea.index, window, consume, limit)
        self.adj = cea.adj
        self.finals = cea.finals
        self.q0 = cea.q0
        self.selection = selection
        self.max_runs = max_runs
        self.n_shed_runs = 0

    def _transitions(self, state: int, mask: int) -> List[Tuple[bool, int]]:
        """Applicable ``(mark, dst)`` pairs for a state on a tuple with
        predicate mask ``mask`` (``PredicateIndex.mask``), with the
        skip-till-next-match restriction when selection='next'."""
        sat = self.index.satisfies
        out = [(mark, dst) for (g, mark, dst) in self.adj.get(state, ()) if sat(g, mask)]
        if self.selection == "next" and any(m for m, _ in out):
            out = [(m, d) for (m, d) in out if m]
        return out

    @property
    def n_partial_matches(self) -> int:  # overridden: memory proxy
        raise NotImplementedError


class RunListEngine(BaselineBase):
    """The run loop of SASE and FlinkCEP: partial matches are a flat list of
    runs ``(state, start_pos, start_ts, path)``, each extended on its own.

    A subclass gives only its representation: how ``path`` holds a run's
    positions (``EMPTY``, the path of a run that has marked none;
    ``extend(path, pos)``, the path with ``pos`` marked; ``positions(path)``,
    its positions as a tuple in stream order) and where the run list lives
    between tuples (``load()`` and ``store(runs)``)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.reset()

    def step(self, mask: int, pos: int, now: float) -> List[Match]:
        self.n_events += 1
        tau = -float("inf") if self.window is None else now - self.window
        cap, limit, finals = self.max_runs, self.limit, self.finals
        extend, positions = self.extend, self.positions
        new_runs: List[tuple] = []
        matches: List[Match] = []
        # A new run may start at every position: the loop's first run.
        fresh = (self.q0, pos, now, self.EMPTY)
        for state, start_pos, start_ts, path in chain((fresh,), self.load()):
            if start_ts < tau:
                continue  # window pruning
            if cap is not None and len(new_runs) >= cap:
                self.n_shed_runs += 1
                continue
            for mark, dst in self._transitions(state, mask):
                p = extend(path, pos) if mark else path
                new_runs.append((dst, start_pos, start_ts, p))
                if dst in finals and (limit is None or len(matches) < limit):
                    matches.append((start_pos, pos, positions(p)))
        self.n_outputs += len(matches)
        self.store([] if matches and self.consume else new_runs)
        return matches

    def reset(self) -> None:
        self.store([])

    @property
    def n_partial_matches(self) -> int:
        return len(self.load())
