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
from .nfa_base import RunListEngine


def supports(phi: cel.CEL) -> bool:
    """SASE cannot express disjunction."""
    return not any(isinstance(n, cel.Or) for n in phi.walk())


class SaseEngine(RunListEngine):
    """Runs in a list; a run's positions are a tuple, copied on extension."""

    EMPTY = ()

    @staticmethod
    def extend(path: tuple, pos: int) -> tuple:
        return path + (pos,)

    @staticmethod
    def positions(path: tuple) -> tuple:
        return path

    def load(self) -> List[tuple]:
        return self.runs

    def store(self, runs: List[tuple]) -> None:
        self.runs = runs
