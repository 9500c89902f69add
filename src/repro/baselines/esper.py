"""Esper-style baseline.

Esper evaluates patterns with a delta-network of per-state buffers: partial
matches are retained *grouped by automaton state* and guards are evaluated
once per (state, transition) instead of once per run — cheaper dispatch than
SASE's per-run loop. But, like Esper's ``MatchedEventMap``, the per-match
event collection is **copied on every extension/branch**, so per-event cost
is Θ(#partial matches · match length) and memory is the total size of all
materialized partial matches — the super-linear explosion of Example 1.
Full operator support (disjunction, iteration), unlike SASE.
"""
from __future__ import annotations

from itertools import chain
from typing import Dict, List

from ..core.enumerate import Match
from .nfa_base import BaselineBase


class EsperEngine(BaselineBase):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # state -> list of (start_pos, start_ts, positions-tuple)
        self.buffers: Dict[int, List[tuple]] = {}

    def step(self, mask: int, pos: int, now: float) -> List[Match]:
        self.n_events += 1
        tau = -float("inf") if self.window is None else now - self.window

        new_buffers: Dict[int, List[tuple]] = {}
        matches: List[Match] = []
        cap = self.max_runs
        count = [0]

        def deliver(dst, mark, pms):
            if cap is not None:
                room = cap - count[0]
                if room <= 0:
                    self.n_shed_runs += len(pms)
                    return
                if len(pms) > room:
                    self.n_shed_runs += len(pms) - room
                    pms = pms[:room]
                count[0] += len(pms)
            if mark:
                # MatchedEventMap semantics: copy the collection on extension.
                ext = [(sp, st, ps + (pos,)) for (sp, st, ps) in pms]
            else:
                ext = pms
            tgt = new_buffers.get(dst)
            if tgt is None:
                new_buffers[dst] = list(ext)
            else:
                tgt.extend(ext)
            if dst in self.finals:
                for (sp, _, ps) in ext:
                    if self.limit is not None and len(matches) >= self.limit:
                        break
                    matches.append((sp, pos, ps))

        # Extend retained partial matches, one guard evaluation per state. A
        # new run may start at every position: the loop's first buffer.
        fresh = (self.q0, [(pos, now, ())])
        for state, pms in chain((fresh,), self.buffers.items()):
            trans = self._transitions(state, mask)
            if not trans:
                continue
            live = [pm for pm in pms if pm[1] >= tau]
            if not live:
                continue
            for (mark, dst) in trans:
                deliver(dst, mark, live)

        self.n_outputs += len(matches)
        if matches and self.consume:
            self.buffers = {}
        else:
            self.buffers = new_buffers
        return matches

    def reset(self) -> None:
        self.buffers = {}

    @property
    def n_partial_matches(self) -> int:
        return sum(len(v) for v in self.buffers.values())
