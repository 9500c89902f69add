"""Atomic unary predicates and predicate bit-vectors (paper Section 5.4).

A predicate in CEQL is a condition on a *single* tuple: either a type check
(``type == 'SELL'``) or an attribute comparison (``price > 100``). CEA
transition guards are **conjunctions** of such atoms (disjunctions in FILTER
clauses are expanded at the formula level, per the paper's footnote 1), so a
guard is represented as a ``frozenset`` of :class:`Atom`.

Following Section 5.4, CORE collects every distinct atom of a query into a
list ``P_1..P_k`` and evaluates each arriving tuple **once** against it,
producing a bit-vector that is then the tuple's internal representation: the
engines test guards against the bit-vector, and the determinization cache is
keyed on ``(state, bit-vector)``. The bit-vector is a Python ``int`` mask
(bit ``i`` set iff ``P_i`` holds), so a guard test is one ``&`` and the cache
key is a small int. ``masks(frame)`` computes the masks of a whole pandas
batch column by column, for the Spark paths.

Nothing here imports numpy or pandas at module level: compiling a query or
running an engine never loads them. ``masks`` imports both in its own body,
once per frame, and only callers that already hold a frame reach it.
"""
from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Tuple,
)

if TYPE_CHECKING:
    import pandas as pd

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def is_null(v: Any) -> bool:
    """Whether a scalar ``v`` is NULL: None, a NaN of any float type or of
    ``Decimal``, ``pd.NA`` or ``NaT`` (what ``pd.isna`` and Spark's
    ``dropna`` treat as missing), tested without pandas."""
    if v is None:
        return True
    try:
        return bool(v != v)
    except TypeError:  # pd.NA: ``NA != NA`` is NA, which has no truth value
        pandas = sys.modules.get("pandas")  # no pd.NA exists unless it is loaded
        if pandas is not None and v is pandas.NA:
            return True
        raise


@dataclass(frozen=True)
class Atom:
    """One atomic predicate ``attr op value`` over a single tuple.

    ``attr == "type"`` with op ``==`` is the event-type predicate ``P_R``.
    A tuple that lacks ``attr`` (NULL) satisfies no comparison atom.
    """

    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unsupported predicate op {self.op!r}")

    def eval(self, t: Mapping[str, Any]) -> bool:
        """Evaluate this atom on tuple ``t`` (a mapping; missing attr = NULL)."""
        v = t.get(self.attr)
        if v is None:
            return False
        op = self.op
        try:
            if op == "==":
                return v == self.value
            if op == "!=":
                return v != self.value
            if op == "<":
                return v < self.value
            if op == "<=":
                return v <= self.value
            if op == ">":
                return v > self.value
            return v >= self.value
        except TypeError:
            # Incomparable types (e.g. string attr vs numeric constant).
            return False

    def __repr__(self) -> str:  # compact, used in automaton dumps
        return f"{self.attr}{self.op}{self.value!r}"


def type_atom(event_type: str) -> Atom:
    """The predicate ``P_R`` = all tuples of type ``event_type``."""
    return Atom("type", "==", event_type)


# A transition guard: conjunction of atoms; the empty set is TRUE.
Guard = FrozenSet[Atom]

TRUE: Guard = frozenset()


def guard(*atoms: Atom) -> Guard:
    """Build a conjunction guard from atoms."""
    return frozenset(atoms)


# Per-atom comparisons ``(op, constant, bit)`` on one attribute's value.
_Checks = Iterable[Tuple[Callable[[Any, Any], Any], Any, int]]


def _compare(v: Any, checks: _Checks) -> int:
    """Bits of the ``checks`` that non-NULL value ``v`` satisfies, with
    :meth:`Atom.eval`'s semantics (incomparable types satisfy nothing)."""
    m = 0
    for op, c, bit in checks:
        try:
            if op(v, c):
                m |= bit
        except TypeError:
            pass
    return m


class PredicateIndex:
    """Maps the distinct atoms of a query to bit positions.

    ``mask(t)`` evaluates every atom once on ``t`` and returns an ``int``
    whose bit ``i`` is set iff atom ``i`` holds — hashable and cheap to
    compare, so it doubles as the cache key for on-the-fly determinization
    (Section 5.4). ``satisfies(g, mask)`` tests a conjunction guard against
    a mask without touching the tuple again: ``mask & bits(g) == bits(g)``.

    Equality atoms, almost all of a query's atoms (event types, names), are
    grouped per attribute into one ``{constant: bits}`` table, so a tuple
    costs one dict lookup per equality-tested attribute plus one comparison
    per other atom. ``bitvector(t)`` is the per-atom reference the mask is
    tested against. ``masks(frame)`` gives every row's mask of a pandas
    batch with one column operation per attribute.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms: Tuple[Atom, ...] = tuple(dict.fromkeys(atoms))
        tables: Dict[str, Dict[Any, int]] = {}
        other: Dict[str, List] = {}
        for i, a in enumerate(self._atoms):
            # A NaN constant equals nothing, yet a dict lookup would find it
            # by identity: keep it out of the table.
            if a.op == "==" and a.value == a.value:
                table = tables.setdefault(a.attr, {})
                table[a.value] = table.get(a.value, 0) | 1 << i
            else:
                other.setdefault(a.attr, []).append((_OPS[a.op], a.value, 1 << i))
        self._eq = tuple(tables.items())
        self._other = tuple((k, tuple(v)) for k, v in other.items())
        self._attrs = tuple(dict.fromkeys(a.attr for a in self._atoms))
        self._gbits: Dict[Guard, int] = {}  # guard -> its atoms' bits, lazily

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def bitvector(self, t: Mapping[str, Any]) -> Tuple[bool, ...]:
        """Per-atom reference: ``Atom.eval`` of every atom, in bit order."""
        return tuple(a.eval(t) for a in self._atoms)

    def mask(self, t: Mapping[str, Any]) -> int:
        """The tuple's predicate bit-vector as an int: bit ``i`` is set iff
        ``atoms[i].eval(t)``. A missing attribute or ``None`` sets no bit."""
        get = t.get
        m = 0
        for attr, table in self._eq:
            v = get(attr)
            if v is not None:
                try:
                    m |= table.get(v, 0)
                except TypeError:  # unhashable value: compare atom by atom
                    m |= _compare(v, [(operator.eq, c, b) for c, b in table.items()])
        for attr, checks in self._other:
            v = get(attr)
            if v is not None:
                m |= _compare(v, checks)
        return m

    def masks(self, frame: pd.DataFrame) -> List[int]:
        """``mask`` of every row of ``frame``, in row order, where None, NaN
        and NaT read as NULL (a missing column is NULL throughout).

        Each column is factorized and ``mask`` is evaluated once per
        distinct value, so equality is Python ``==`` and an incomparable
        value sets no bit. Past 62 atoms the masks are Python ints, not int64.
        """
        import numpy as np
        import pandas as pd

        dtype = object if len(self._atoms) > 62 else np.int64
        out = np.zeros(len(frame), dtype)
        for attr in self._attrs:
            if attr not in frame.columns:
                continue
            col = frame[attr]
            try:
                codes, uniques = pd.factorize(col)  # NULLs get code -1
            except TypeError:  # unhashable values: one "unique" per row
                codes, uniques = np.where(col.isna(), -1, np.arange(len(col))), col
            bits = [self.mask({attr: u}) for u in uniques.tolist()]
            out |= np.array(bits + [0], dtype)[codes]
        return out.tolist()

    def satisfies(self, g: Guard, mask: int) -> bool:
        gb = self._gbits.get(g)
        if gb is None:
            gb = self._gbits[g] = sum(1 << self._atoms.index(a) for a in g)
        return mask & gb == gb
