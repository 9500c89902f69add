"""Shared machinery for the baseline engines.

Each baseline simulates the *nondeterministic* CEA directly, maintaining an
explicit set of runs (partial matches). A run in state ``q`` that started at
position ``i`` branches on every applicable transition — including the
TRUE/non-marking skip transitions the CEA uses for non-contiguous
sequencing — so the number of live runs grows super-linearly in the number
of events inside the window. That is precisely the partial-match explosion
of Example 1, and the reason the baselines degrade with query length n and
window size T while CORE does not.

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

from typing import List, Optional, Tuple

from ..cea.automaton import CEA
from ..core.base import EngineBase


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
        self.cea = cea
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
