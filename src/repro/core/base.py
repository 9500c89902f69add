"""What every single-partition engine shares (CORE and the three baselines).

An engine's whole per-tuple contract is ``step(mask, pos, now) -> matches``:
it reads only the tuple's predicate bit-vector (``PredicateIndex.mask``),
its stream position and its time (paper Section 5.4). ``process`` is the
one tuple-level entry on top of it, and the run settings of Section 6
(window, consumption, output cap) and the event/output counters live here.
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
        self._count = 0
        self.n_events = 0
        self.n_outputs = 0

    def process(
        self,
        t: Mapping[str, Any],
        ts: Optional[float] = None,
        pos: Optional[int] = None,
    ) -> List[Match]:
        """Feed one tuple; return the complex events ending at this tuple.

        ``pos`` is the tuple's global stream position (defaults to an
        internal counter); ``ts`` its time (defaults to ``pos`` — count-based
        windows, as in the synthetic experiments).
        """
        j = self._count if pos is None else pos
        self._count += 1
        return self.step(self.index.mask(t), j, float(j) if ts is None else ts)

    def step(self, mask: int, pos: int, now: float) -> List[Match]:  # overridden
        """Advance the engine on a tuple with predicate mask ``mask`` at
        stream position ``pos`` and time ``now``; return the complex events
        ending there."""
        raise NotImplementedError

    def reset(self) -> None:  # overridden
        raise NotImplementedError
