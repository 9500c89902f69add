"""FlinkCEP-style baseline.

FlinkCEP runs an NFA whose partial matches live in a *SharedBuffer*: events
are stored once and partial matches are chains of versioned predecessor
pointers into the buffer; the NFA's computation states reference buffer
entries. Crucially, the NFA state (computation states + shared buffer) is
kept in Flink's keyed state backend, which (de)serializes it on access.

We model both aspects: partial matches are shared cons chains (the shared
buffer), and every ``step`` call round-trips the full run state through
``pickle`` — the per-event state-backend serialization that makes FlinkCEP
the slowest system in the paper's experiments (up to 500x slower than CORE
at n=9). Match extraction walks the predecessor chains, as Flink's
``extractPatterns`` does.
"""
from __future__ import annotations

import pickle
from typing import List

from .nfa_base import RunListEngine


def _materialize(cons) -> tuple:
    out = []
    while cons is not None:
        out.append(cons[0])
        cons = cons[1]
    out.reverse()
    return tuple(out)


class FlinkCepEngine(RunListEngine):
    """Runs in a pickled keyed-state blob; a run's positions are a cons
    chain ``(pos, rest)`` shared with the runs it branched from."""

    EMPTY = None
    positions = staticmethod(_materialize)

    @staticmethod
    def extend(cons, pos: int) -> tuple:
        return (pos, cons)

    def load(self) -> List[tuple]:
        # State-backend read (deserialization).
        return pickle.loads(self._state_blob)

    def store(self, runs: List[tuple]) -> None:
        # State-backend write (serialization).
        self._state_blob = pickle.dumps(runs)
