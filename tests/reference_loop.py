"""Algorithm 1 as the paper prints it (Section 5.3, Appendix B.1): the
reference that ``CoreEngine`` is held equal to, tuple by tuple."""
from repro.cea.determinize import DetCEA
from repro.core.engine import _apply_strategy
from repro.core.enumerate import enumerate_matches
from repro.core.tecs import TECS


class ReferenceLoop:
    """Algorithm 1 as the paper writes it, on its own ``DetCEA``:
    ``DetCEA.step`` for the initial state and every active state on every
    tuple, an eagerly built bottom and ``merge``, copied union-lists, and a
    prune after every tuple. It shares no plan table, transition cache,
    horizon or cut with ``CoreEngine``; ``CoreEngine``'s cached plans must
    match it."""

    def __init__(self, cea, window, consume, limit, strategy):
        self.det = DetCEA(cea, strategy)
        self.window, self.consume = window, consume
        self.limit, self.strategy = limit, strategy
        self.tecs = TECS()
        self.T = {}

    def process(self, t, ts, pos):
        """``step`` on the tuple's predicate bits, each atom evaluated on
        its own (``PredicateIndex.bitvector``), not by the mask kernel."""
        bits = self.det.index.bitvector(t)
        return self.step(sum(1 << i for i, b in enumerate(bits) if b), pos, ts)

    def step(self, mask, pos, now):
        det, tecs, T2 = self.det, self.tecs, {}

        def exec_trans(successors, ul, n):
            q_mark, q_unmark = successors
            if q_mark is not None:
                n2 = tecs.extend(n, pos)
                if q_mark in T2:
                    tecs.insert(T2[q_mark], n2)
                else:
                    T2[q_mark] = [n2]
            if q_unmark is not None:
                if q_unmark in T2:
                    tecs.insert(T2[q_unmark], n)
                else:
                    T2[q_unmark] = list(ul)

        b = tecs.bottom(pos, now)
        exec_trans(det.step(det.q0, mask), [b], b)
        for p, ul in self.T.items():
            exec_trans(det.step(p, mask), ul, tecs.merge(ul))
        self.T = T2

        filtered = self.strategy in ("last", "max")
        cap = None if filtered else self.limit
        matches = []
        for p, ul in T2.items():
            if det.is_final(p):
                enumerate_matches(tecs.merge(ul), pos, now, self.window, cap, matches)
                if cap is not None and len(matches) >= cap:
                    break
        if matches and filtered:
            matches = _apply_strategy(self.strategy, matches)[: self.limit]
        if matches and self.consume:
            self.T = {}
        elif self.window is not None:
            for p, ul in list(T2.items()):
                while ul and ul[-1].max_start < now - self.window:
                    ul.pop()
                if not ul:
                    del T2[p]
        return matches
