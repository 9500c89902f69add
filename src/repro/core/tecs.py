"""timed Enumerable Compact Set (tECS) — paper Section 5.1–5.2.

A tECS is a DAG with three node kinds:

* **bottom** nodes — no child; labeled with the stream position where a run
  started and with the start *time* (`max_start`), which is the quantity the
  WITHIN window constrains;
* **output** nodes — one child; labeled with a marked stream position;
* **union** nodes — exactly two children (`left`, `right`); represent the
  union of the open complex events of both children.

Every node carries ``max_start`` — the maximum start time over all open
complex events it represents — so the enumeration can prune subtrees outside
the time window in O(1) (time-ordered property: ``max(left) >= max(right)``).

The construction methods below are exactly the paper's:

* ``bottom(pos, ts)``  — new-bottom
* ``extend(n, pos)``   — new output node on top of ``n``
* ``union(n1, n2)``    — Figure-5 gadgets (a)–(d); requires *safe* inputs
  with equal ``max_start``; returns a safe node
* ``merge(ul)``        — Figure-5 gadget (e) over a union-list
* ``insert(ul, n)``    — in-place sorted insert into a union-list

A *union-list* is a plain Python list ``[n0, n1, ..., nk]`` of safe nodes
with ``n0`` non-union, ``max(n0) >= max(ni)`` and ``max(nj) > max(nj+1)``
for ``j >= 1`` (decreasing max-start). A node is *safe* when it is
non-union, or has output-depth 1 with ``odepth(right) <= 2``; all methods
preserve safety and 3-boundedness (asserted when ``debug=True``).

The DAG lives in the node references: dropping the union-lists that point
at a subgraph makes it garbage. That alone does not bound it, since a union
keeps its right child after that child has left the window. So ``TECS``
also queues the union nodes it builds, in creation order, and ``cut(tau)``
replaces the out-of-window right children of the oldest ones with
``DEAD``, a shared bottom of max-start −∞ that enumeration never enters.
This is the structural form of the paper's weak-reference window GC
(Section 5.4): a right child is never newer than its union, so under
non-decreasing time every union is cut within one window of being built,
and what stays reachable is bounded by the window, not by the stream.
"""
from __future__ import annotations

from collections import deque
from typing import List, Union as PyUnion


class Bottom:
    __slots__ = ("pos", "max_start")

    def __init__(self, pos: int, max_start: float):
        self.pos = pos
        self.max_start = max_start


class Output:
    __slots__ = ("pos", "child", "max_start")

    def __init__(self, pos: int, child: "Node", max_start: float):
        self.pos = pos
        self.child = child
        self.max_start = max_start


class Union:
    __slots__ = ("left", "right", "max_start")

    def __init__(self, left: "Node", right: "Node"):
        self.left = left
        self.right = right
        self.max_start = left.max_start


Node = PyUnion[Bottom, Output, Union]

# What ``TECS.cut`` puts in place of a right child that left the window.
DEAD = Bottom(-1, -float("inf"))


def odepth(n: Node) -> int:
    """Left output-depth: union nodes traversed before a non-union node."""
    d = 0
    while type(n) is Union:
        n = n.left
        d += 1
    return d


def is_safe(n: Node) -> bool:
    if type(n) is not Union:
        return True
    return odepth(n) == 1 and odepth(n.right) <= 2


class TECS:
    """Node constructors, creation counter and window GC.

    ``windowed`` says whether anything will call ``cut``; without a window
    no union is queued, as none would ever be cut.
    """

    def __init__(self, debug: bool = False, windowed: bool = False):
        self.debug = debug
        self.n_nodes = 0  # total nodes ever created (Section 6 memory proxy)
        # Union nodes not yet cut, oldest first.
        self.unions: deque = deque() if windowed else deque(maxlen=0)

    # -- node constructors -------------------------------------------------
    def bottom(self, pos: int, ts: float) -> Bottom:
        self.n_nodes += 1
        return Bottom(pos, ts)

    def extend(self, n: Node, pos: int) -> Output:
        self.n_nodes += 1
        return Output(pos, n, n.max_start)

    def _u(self, left: Node, right: Node) -> Union:
        self.n_nodes += 1
        if self.debug:
            assert left.max_start >= right.max_start, "time-order violated"
        u = Union(left, right)
        self.unions.append(u)
        return u

    def cut(self, tau: float) -> float:
        """Window GC: replace with ``DEAD`` the right child of every queued
        union, oldest first, until one whose right child starts at or after
        ``tau``; return that child's max-start (−∞ when none is left), before
        which no later cut can cut anything.

        ``tau`` must not decrease between calls: what is cut stays cut."""
        unions = self.unions
        while unions:
            r = unions[0].right.max_start
            if r >= tau:
                return r
            unions.popleft().right = DEAD
        return -float("inf")

    def union(self, n1: Node, n2: Node) -> Node:
        """Figure-5 gadgets; requires safe inputs with equal max-start."""
        if self.debug:
            assert is_safe(n1) and is_safe(n2), "union() needs safe inputs"
            assert n1.max_start == n2.max_start, "union() needs equal max-start"
        if type(n1) is not Union:  # gadget (a)
            u = self._u(n1, n2)
        elif type(n2) is not Union:  # gadget (b)
            u = self._u(n2, n1)
        else:  # gadgets (c)/(d)
            l1, r1 = n1.left, n1.right
            l2, r2 = n2.left, n2.right
            if r1.max_start >= r2.max_start:
                u2 = self._u(r1, r2)
            else:
                u2 = self._u(r2, r1)
            u = self._u(l1, self._u(l2, u2))
        if self.debug:
            assert is_safe(u), "union() produced unsafe node"
        return u

    # -- union-list operations --------------------------------------------
    def merge(self, ul: List[Node]) -> Node:
        """Single node representing the union of the whole list (gadget e)."""
        acc = ul[-1]
        for i in range(len(ul) - 2, -1, -1):
            acc = self._u(ul[i], acc)
        if self.debug:
            assert is_safe(acc), "merge() produced unsafe node"
        return acc

    def insert(self, ul: List[Node], n: Node) -> None:
        """In-place sorted insert of safe node ``n`` (Section 5.2).

        Requires ``max(n) <= max(ul[0])`` — guaranteed by Algorithm 1's
        processing order (states handled in decreasing max-start order).
        """
        m = n.max_start
        if self.debug:
            assert is_safe(n), "insert() needs a safe node"
            assert m <= ul[0].max_start, "insert() ordering precondition"
        for i in range(1, len(ul)):
            mi = ul[i].max_start
            if mi == m:
                ul[i] = self.union(ul[i], n)
                return
            if mi < m:
                ul.insert(i, n)
                return
        ul.append(n)
