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
key is a small int. ``PredicateIndex.mask`` is a *mask kernel*: a
straight-line function generated per index from the index's shape alone
and compiled once per shape per process, with the query's attribute names
and constants bound through its closure, never spliced into its source.
``masks(frame)`` computes the masks of a whole pandas batch column by
column, for the Spark paths.

Nothing here imports numpy or pandas at module level: compiling a query or
running an engine never loads them. ``masks`` imports both in its own body,
once per frame, and only callers that already hold a frame reach it.
"""
from __future__ import annotations

import linecache
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Tuple,
)

if TYPE_CHECKING:
    import pandas as pd

# The comparison ops an atom may use; the mask kernel spells them inline.
_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))


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


def _unhashable(v: Any, table: Mapping[Any, int]) -> int:
    """Bits of the equality ``table`` that unhashable ``v`` satisfies,
    compared atom by atom with :meth:`Atom.eval`'s semantics."""
    m = 0
    for c, bit in table.items():
        try:
            if v == c:
                m |= bit
        except TypeError:
            pass
    return m


# The shape of a mask kernel: per attribute, in bit order of first use,
# whether it has an equality table and the ops of its other atoms.
_Shape = Tuple[Tuple[bool, Tuple[str, ...]], ...]


@lru_cache(maxsize=256)
def _kernel_factory(shape: _Shape) -> Callable[..., Callable[[Mapping[str, Any]], int]]:
    """Compile the mask kernel of ``shape`` once per process.

    The source is built from the shape alone: names are positional
    (``a0``, ``e0``, ``c0_1``, ...) and every op is one of ``_OPS``, so no
    attribute name or constant of a query ever reaches ``compile``. What
    is returned is the generated ``make(*bindings)``, whose closure binds
    the names for one index (see ``PredicateIndex.__init__``). The source
    is registered with ``linecache`` under a name made of the shape, so
    ``inspect.getsource`` and tracebacks show the kernel.
    """
    params = ["unhashable"]
    body = ["    def mask(t):"]
    if not shape or shape[0][1]:  # else the first table lookup starts ``m``
        body.append("        m = 0")
    for i, (has_table, ops) in enumerate(shape):
        params.append(f"a{i}")
        body.append(f"        v = t.get(a{i})")
        ind = " " * (12 if ops else 8)
        if ops:  # no table holds None (see ``PredicateIndex``)
            body.append("        if v is not None:")
        if has_table:
            params.append(f"e{i}")
            m = "m =" if i == 0 and not ops else "m |="
            body += [
                f"{ind}try:",
                f"{ind}    {m} e{i}.get(v, 0)",
                f"{ind}except TypeError:",
                f"{ind}    {m} unhashable(v, e{i})",
            ]
        for k, op in enumerate(ops):
            if op not in _OPS:
                raise ValueError(f"unsupported predicate op {op!r}")
            params += [f"c{i}_{k}", f"b{i}_{k}"]
            body += [
                f"{ind}try:",
                f"{ind}    if v {op} c{i}_{k}:",
                f"{ind}        m |= b{i}_{k}",
                f"{ind}except TypeError:",
                f"{ind}    pass",
            ]
    body += ["        return m", "    return mask"]
    src = "\n".join([f"def make({', '.join(params)}):"] + body) + "\n"
    filename = f"<mask kernel {shape}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace: Dict[str, Any] = {}
    exec(compile(src, filename, "exec"), namespace)
    return namespace["make"]


class PredicateIndex:
    """Maps the distinct atoms of a query to bit positions.

    ``mask(t)`` evaluates every atom once on ``t`` and returns an ``int``
    whose bit ``i`` is set iff ``atoms[i].eval(t)`` — hashable and cheap to
    compare, so it doubles as the cache key for on-the-fly determinization
    (Section 5.4). A missing attribute or ``None`` sets no bit.
    ``satisfies(g, mask)`` tests a conjunction guard against a mask without
    touching the tuple again: ``mask & bits(g) == bits(g)``.

    Equality atoms, almost all of a query's atoms (event types, names), are
    grouped per attribute into one ``{constant: bits}`` table, so a tuple
    costs one ``get`` and one dict lookup per equality-tested attribute plus
    one comparison per other atom. No table holds None or NaN, which equal
    no value, so an attribute with only a table needs no NULL test. ``mask``
    is not a method but a generated straight-line function, the *mask
    kernel*, that does exactly that with no loop: its source depends only
    on the index's shape (per attribute, whether it has a table and the ops
    of its other atoms), is compiled once per shape per process
    (``_kernel_factory``), and gets this index's attribute names, tables,
    constants and bits through its closure. A pickled index carries only
    its atoms and rebuilds the kernel.

    ``bitvector(t)`` is the per-atom reference the mask is tested against.
    ``masks(frame)`` gives every row's mask of a pandas batch with one
    column operation per attribute.
    """

    mask: Callable[[Mapping[str, Any]], int]

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms: Tuple[Atom, ...] = tuple(dict.fromkeys(atoms))
        self._attrs = tuple(dict.fromkeys(a.attr for a in self._atoms))
        self._gbits: Dict[Guard, int] = {}  # guard -> its atoms' bits, lazily
        tables: Dict[str, Dict[Any, int]] = {}
        other: Dict[str, List[Tuple[str, Any, int]]] = {}
        for i, a in enumerate(self._atoms):
            # None and NaN constants equal nothing, yet a dict lookup would
            # find them (NULL values, NaN by identity): keep them out.
            if a.op == "==" and a.value is not None and a.value == a.value:
                table = tables.setdefault(a.attr, {})
                table[a.value] = table.get(a.value, 0) | 1 << i
            else:
                other.setdefault(a.attr, []).append((a.op, a.value, 1 << i))
        shape = []
        bindings: List[Any] = [_unhashable]
        for attr in self._attrs:
            table = tables.get(attr)
            bindings.append(attr)
            if table is not None:
                bindings.append(table)
            ops = []
            for op, c, bit in other.get(attr, ()):
                ops.append(op)
                bindings += (c, bit)
            shape.append((table is not None, tuple(ops)))
        self.mask = _kernel_factory(tuple(shape))(*bindings)

    def __getstate__(self):  # the kernel is rebuilt from the atoms
        return self._atoms

    def __setstate__(self, atoms):
        self.__init__(atoms)

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def bitvector(self, t: Mapping[str, Any]) -> Tuple[bool, ...]:
        """Per-atom reference: ``Atom.eval`` of every atom, in bit order."""
        return tuple(a.eval(t) for a in self._atoms)

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
