"""What every single-partition engine shares (CORE and the three baselines).

An engine's whole per-tuple contract is ``step(mask, pos, now) -> matches``:
it reads only the tuple's predicate bit-vector (``PredicateIndex.mask``),
its stream position and its time (paper Section 5.4). ``process(t, ts,
pos)`` is the one tuple-level entry on top of it; its caller supplies the
time (the query's ``CompiledQuery.ts_of``) and the position. The run settings
of Section 6 (window, consumption, output cap) and the event/output counters
live here.
For the baselines ``process`` is a thin wrapper: the mask, then ``step``.
CORE overrides it to finish idle tuples without calling ``step`` (see
``CoreEngine.process``).
"""
from __future__ import annotations

from typing import Any, List, Mapping, Optional

from ..cea.predicates import PredicateIndex
from .enumerate import Match


class EngineBase:
    """``process`` plus the settings and counters shared by every engine.

    Parameters
    ----------
    index:
        the query's predicate index; ``process`` computes masks with it.
    window:
        the WITHIN bound ε (same units as ``ts``), or None for no window.
    consume:
        the experiments' consumption policy — forget all partial matches when
        a complex event is found (the only policy Esper and SASE both
        support, hence used for all systems in Section 6).
    limit:
        cap on enumerated results per input event (the paper logs only the
        first 10).
    """

    def __init__(
        self,
        index: PredicateIndex,
        window: Optional[float],
        consume: bool,
        limit: Optional[int],
    ):
        self.index = index
        self.window = window
        self.consume = consume
        self.limit = limit
        self.n_events = 0
        self.n_outputs = 0

    def process(self, t: Mapping[str, Any], ts: float, pos: int) -> List[Match]:
        """Feed one tuple; return the complex events ending at this tuple.

        ``ts`` is the tuple's time (``CompiledQuery.ts_of``) and ``pos`` its
        global stream position.
        """
        return self.step(self.index.mask(t), pos, ts)

    def step(self, mask: int, pos: int, now: float) -> List[Match]:  # overridden
        """Advance the engine on a tuple with predicate mask ``mask`` at
        stream position ``pos`` and time ``now``; return the complex events
        ending there."""
        raise NotImplementedError

    def reset(self) -> None:  # overridden
        raise NotImplementedError
