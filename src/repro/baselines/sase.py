"""SASE-style baseline (Wu, Diao, Rizvi — SIGMOD'06).

SASE's runtime keeps an NFA with a *match buffer*: every partial match owns
its sequence of selected events. We model that faithfully: a run is a tuple
``(state, start_pos, start_ts, positions)`` where ``positions`` is a fully
materialized Python tuple — extension copies it (``positions + (j,)``), so
per-event cost is Θ(#runs · match-length) and memory is the total size of
all materialized partial matches.

As in the paper, this baseline does **not** support disjunction (SASE's
language has no OR), which ``supports()`` reports so the harness can skip
D3/D5 and Q4–Q7 exactly like Section 6 does.
"""
from __future__ import annotations

from typing import List

from ..cea import cel
from ..core.enumerate import Match
from .nfa_base import BaselineBase


def supports(phi: cel.CEL) -> bool:
    """SASE cannot express disjunction."""
    return not any(isinstance(n, cel.Or) for n in phi.walk())


class SaseEngine(BaselineBase):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # runs: (state, start_pos, start_ts, positions-tuple)
        self.runs: List[tuple] = []

    def step(self, mask: int, pos: int, now: float) -> List[Match]:
        self.n_events += 1
        tau = -float("inf") if self.window is None else now - self.window

        new_runs: List[tuple] = []
        matches: List[Match] = []

        cap = self.max_runs

        def fire(state, start_pos, start_ts, positions):
            if cap is not None and len(new_runs) >= cap:
                self.n_shed_runs += 1
                return
            for (mark, dst) in self._transitions(state, mask):
                np = positions + (pos,) if mark else positions
                new_runs.append((dst, start_pos, start_ts, np))
                if dst in self.finals and (
                    self.limit is None or len(matches) < self.limit
                ):
                    matches.append((start_pos, pos, np))

        # A new run may start at every position.
        fire(self.q0, pos, now, ())
        for (state, start_pos, start_ts, positions) in self.runs:
            if start_ts < tau:
                continue  # window pruning
            fire(state, start_pos, start_ts, positions)

        self.n_outputs += len(matches)
        if matches and self.consume:
            self.runs = []
        else:
            self.runs = new_runs
        return matches

    def reset(self) -> None:
        self.runs = []

    @property
    def n_partial_matches(self) -> int:
        return len(self.runs)
