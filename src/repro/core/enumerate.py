"""Output-linear-delay enumeration over a tECS (paper Algorithm 2).

Iterative DFS with an explicit stack of ``(node, positions)`` pairs, where
``positions`` is the finished tuple of the marked positions met on the way
down: an output node prepends its position, so the tuple is in ascending
order when the walk reaches a bottom, which emits it as it is. The price is
a C-level copy of the tuple per output node, O(depth), instead of an O(1)
push; in exchange no Python loop runs per output. A union node's right
child is pushed only when its ``max_start`` is inside the time window, so
no time is ever spent below subtrees that cannot produce output; combined
with 3-boundedness and time-ordering this gives delay linear in the size of
each produced complex event (Theorem 2).
"""
from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .tecs import Bottom, Node, Output

# A recognized complex event: (start position, end position, marked positions)
Match = Tuple[int, int, Tuple[int, ...]]


def enumerate_matches(
    root: Node,
    end_pos: int,
    now: float,
    window: Optional[float],
    limit: Optional[int] = None,
    out: Optional[List[Match]] = None,
) -> List[Match]:
    """Enumerate ``[[root]]^window(now)``, closing every open complex event
    with ``end_pos``. Appends to ``out`` (created if None) and stops once
    ``out`` holds ``limit`` entries (the paper's experiments cap
    enumeration at the first 10 results per input event)."""
    if out is None:
        out = []
    room = math.inf if limit is None else limit - len(out)
    tau = -math.inf if window is None else now - window
    if room <= 0 or root.max_start < tau:
        return out
    emit = out.append
    stack = []
    push = stack.append
    pop = stack.pop
    node, positions = root, ()
    while True:
        kind = type(node)
        if kind is Output:
            positions = (node.pos,) + positions
            node = node.child
        elif kind is Bottom:
            emit((node.pos, end_pos, positions))
            room -= 1
            if not room or not stack:
                return out
            node, positions = pop()
        else:  # Union
            right = node.right
            if right.max_start >= tau:
                push((right, positions))
            node = node.left
