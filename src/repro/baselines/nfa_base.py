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

* window pruning: runs whose start time fell out of the WITHIN window die;
* consumption policy: when a match is found, all runs are discarded;
* enumeration cap: at most ``limit`` matches reported per input event;
* ``selection='next'`` (skip-till-next-match, the baselines' default
  strategy in the strategies experiment): a run that can take a marking
  transition does not also fork on non-marking ones.
"""
from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

from ..cea.automaton import CEA

Match = Tuple[int, int, Tuple[int, ...]]


class BaselineBase:
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
        branching is dropped. It keeps the exponential cases (e.g. Q7's
        Kleene-over-disjunction) from exhausting memory between consumption
        resets; correctness tests always run uncapped."""
        if selection not in ("all", "next"):
            raise ValueError(f"baseline selection must be all/next, got {selection!r}")
        self.cea = cea
        self.index = cea.index
        self.adj = cea.adj
        self.finals = cea.finals
        self.q0 = cea.q0
        self.window = window
        self.consume = consume
        self.limit = limit
        self.selection = selection
        self.max_runs = max_runs
        self._count = 0
        self.n_events = 0
        self.n_outputs = 0

    def process(
        self,
        t: Mapping[str, Any],
        ts: Optional[float] = None,
        pos: Optional[int] = None,
        enumerate_outputs: bool = True,
    ) -> List[Match]:
        """Feed one tuple (see ``CoreEngine.process``): compute its predicate
        mask and call ``step``."""
        j = self._count if pos is None else pos
        self._count += 1
        return self.step(
            self.index.mask(t), j, float(j) if ts is None else ts, enumerate_outputs
        )

    def step(
        self, mask: int, pos: int, now: float, enumerate_outputs: bool = True
    ) -> List[Match]:  # overridden
        """Advance every partial match on a tuple with predicate mask
        ``mask`` at stream position ``pos`` and time ``now``; return the
        complex events ending there."""
        raise NotImplementedError

    def _transitions(self, state: int, mask: int) -> List[Tuple[bool, int]]:
        """Applicable ``(mark, dst)`` pairs for a state on a tuple with
        predicate mask ``mask`` (``PredicateIndex.mask``), with the
        skip-till-next-match restriction when selection='next'."""
        sat = self.index.satisfies
        out = [(mark, dst) for (g, mark, dst) in self.adj.get(state, ()) if sat(g, mask)]
        if self.selection == "next" and any(m for m, _ in out):
            out = [(m, d) for (m, d) in out if m]
        return out

    def reset(self) -> None:  # overridden
        raise NotImplementedError

    @property
    def n_partial_matches(self) -> int:  # overridden: memory proxy
        raise NotImplementedError
