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

from ..core.enumerate import Match
from .nfa_base import BaselineBase


def _materialize(cons) -> tuple:
    out = []
    while cons is not None:
        out.append(cons[0])
        cons = cons[1]
    out.reverse()
    return tuple(out)


class FlinkCepEngine(BaselineBase):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # Keyed-state backend: pickled list of computation states
        # (state, start_pos, start_ts, cons-of-positions).
        self._state_blob: bytes = pickle.dumps([])

    def step(self, mask: int, pos: int, now: float) -> List[Match]:
        self.n_events += 1
        tau = -float("inf") if self.window is None else now - self.window

        # State-backend read (deserialization).
        runs = pickle.loads(self._state_blob)

        new_runs: List[tuple] = []
        matches: List[Match] = []

        cap = self.max_runs

        def fire(state, start_pos, start_ts, cons):
            if cap is not None and len(new_runs) >= cap:
                self.n_shed_runs += 1
                return
            for (mark, dst) in self._transitions(state, mask):
                nc = (pos, cons) if mark else cons
                new_runs.append((dst, start_pos, start_ts, nc))
                if dst in self.finals and (
                    self.limit is None or len(matches) < self.limit
                ):
                    matches.append((start_pos, pos, _materialize(nc)))

        fire(self.q0, pos, now, None)
        for (state, start_pos, start_ts, cons) in runs:
            if start_ts < tau:
                continue
            fire(state, start_pos, start_ts, cons)

        self.n_outputs += len(matches)
        if matches and self.consume:
            new_runs = []
        # State-backend write (serialization).
        self._state_blob = pickle.dumps(new_runs)
        return matches

    def reset(self) -> None:
        self._state_blob = pickle.dumps([])

    @property
    def n_partial_matches(self) -> int:
        return len(pickle.loads(self._state_blob))
