"""CEQL surface syntax: tokenizer, recursive-descent parser, query compiler.

Supported syntax (Section 2/3 and appendix C of the paper)::

    SELECT [ALL|NEXT|LAST|MAX] ( * | var[, var ...] )
    FROM name[, name ...]
    WHERE <pattern>
    [FILTER <cond> [AND <cond> ...]]
    [PARTITION BY [attr][, [attr] ...]]
    [WITHIN n (events | ms | seconds | minutes | hours) | WITHIN n [attr]]
    [CONSUME BY ANY]

    pattern := or ;  or := seq (OR seq)* ;  seq := post (';' post)*
    post    := prim ('+' | AS var)* ;  prim := '(' or ')' | TYPE
    cond    := atom (OR atom)*  (a disjunctive conjunct)
    atom    := var '[' attr op value ']'   op in = == != <> < <= > >=

Notes:

* ``FILTER c1 AND c2`` desugars to nested FILTERs and ``FILTER a OR b`` to a
  disjunction of filtered formulas, per the paper's footnote 1.
* ``WITHIN n events`` is a count-based window (time = arrival position, as
  in the synthetic experiments); ``WITHIN n [attr]`` reads time from an
  event attribute (the stock queries use ``[stock_time]``); time units
  without an attribute convert to milliseconds and read attribute ``ts``.
* The FROM clause is recorded but not interpreted: all registered streams
  are logically merged into the single input stream (Section 3).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple

from . import cel
from .automaton import CEA, compile_cel
from .predicates import Atom, is_null

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>-?\d+(?:\.\d+)?)
      | (?P<str>'[^']*'|"[^"]*")
      | (?P<op><=|>=|==|!=|<>|<|>|=)
      | (?P<punct>[()\[\];,+*])
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "FILTER", "PARTITION", "BY", "WITHIN",
    "CONSUME", "AND", "OR", "AS", "ANY",
}
_STRATEGIES = {"ALL", "NEXT", "LAST", "MAX"}
_UNIT_MS = {
    "MS": 1.0, "MILLISECOND": 1.0, "MILLISECONDS": 1.0,
    "SECOND": 1000.0, "SECONDS": 1000.0, "SEC": 1000.0,
    "MINUTE": 60_000.0, "MINUTES": 60_000.0, "MIN": 60_000.0,
    "HOUR": 3_600_000.0, "HOURS": 3_600_000.0,
}


class CEQLSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> List[Tuple[str, Any]]:
    toks: List[Tuple[str, Any]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        v = m[kind]
        if kind == "word":
            if v.upper() in _KEYWORDS:
                kind, v = "kw", v.upper()
        elif kind == "num":
            v = float(v) if "." in v else int(v)
        elif kind == "str":
            v = v[1:-1]
        elif kind == "bad":
            raise CEQLSyntaxError(f"cannot tokenize at: {text[m.start(kind):][:30]!r}")
        toks.append((kind, v))
    toks.append(("eof", None))
    return toks


@dataclass
class Query:
    """Parsed (pre-compilation) CEQL query."""

    strategy: str  # all|next|last|max
    select: Any  # "*" or list of variables
    streams: List[str]
    pattern: cel.CEL
    filters: List[List[Tuple[str, Atom]]]  # conjunction of disjunctions
    partition_by: List[str] = field(default_factory=list)
    window: Optional[float] = None
    time_attr: Optional[str] = None  # None => count-based (arrival position)
    consume: bool = False

    def formula(self) -> cel.CEL:
        """Apply FILTER desugaring and the SELECT projection to the pattern."""
        phi: cel.CEL = self.pattern
        for disjuncts in self.filters:
            if len(disjuncts) == 1:
                var, atom = disjuncts[0]
                phi = cel.Filter(phi, var, frozenset({atom}))
            else:
                alts = [
                    cel.Filter(phi, var, frozenset({atom}))
                    for (var, atom) in disjuncts
                ]
                out = alts[0]
                for a in alts[1:]:
                    out = cel.Or(out, a)
                phi = out
        if self.select != "*":
            phi = cel.Project(phi, frozenset(self.select))
        return phi


@dataclass
class CompiledQuery:
    """Executable form: compiled CEA plus the run-time clauses."""

    cea: CEA
    window: Optional[float]
    time_attr: Optional[str]
    partition_by: Tuple[str, ...]
    consume: bool
    strategy: str

    def ts_of(self, event: Mapping[str, Any], pos: int) -> float:
        """The event's ``time_attr`` value; ``pos`` when the query has no
        time attribute or the value is NULL (see ``is_null``)."""
        if self.time_attr is None:
            return float(pos)
        v = event.get(self.time_attr)
        return float(pos) if is_null(v) else float(v)

    def ts_of_frame(self, frame: Any, pos: Any) -> Any:
        """``ts_of`` of every row of a pandas ``frame`` at once, as a float
        array; ``pos`` is the rows' position array."""
        import numpy as np

        if self.time_attr is None or self.time_attr not in frame.columns:
            return pos.astype(float)
        col = frame[self.time_attr]
        times = col.where(col.notna(), np.nan).astype(float).to_numpy()
        return np.where(np.isnan(times), pos, times)


class _Parser:
    def __init__(self, toks: List[Tuple[str, Any]]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Tuple[str, Any]:
        return self.toks[self.i]

    def next(self) -> Tuple[str, Any]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: Any = None) -> Any:
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise CEQLSyntaxError(f"expected {value or kind}, got {v!r}")
        return v

    def accept(self, kind: str, value: Any = None) -> bool:
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return True
        return False

    # -- clauses -----------------------------------------------------------
    def query(self) -> Query:
        self.expect("kw", "SELECT")
        strategy = "all"
        k, v = self.peek()
        if k == "word" and v.upper() in _STRATEGIES:
            strategy = v.lower()
            self.next()
        if self.accept("punct", "*") or self.accept("op", "*"):
            select: Any = "*"
        else:
            select = [self.expect("word")]
            while self.accept("punct", ","):
                select.append(self.expect("word"))
        self.expect("kw", "FROM")
        streams = [self.expect("word")]
        while self.accept("punct", ","):
            streams.append(self.expect("word"))
        self.expect("kw", "WHERE")
        pattern = self.or_expr()
        filters: List[List[Tuple[str, Atom]]] = []
        if self.accept("kw", "FILTER"):
            filters.append(self.filter_disjunct())
            while self.accept("kw", "AND"):
                filters.append(self.filter_disjunct())
        partition_by: List[str] = []
        if self.accept("kw", "PARTITION"):
            self.expect("kw", "BY")
            partition_by.append(self.partition_attr())
            while self.accept("punct", ","):
                partition_by.append(self.partition_attr())
        window = None
        time_attr = None
        if self.accept("kw", "WITHIN"):
            window = float(self.expect("num"))
            k, v = self.peek()
            if k == "punct" and v == "[":
                self.next()
                time_attr = self.expect("word")
                self.expect("punct", "]")
            elif k == "word":
                unit = v.upper()
                self.next()
                if unit in ("EVENT", "EVENTS"):
                    time_attr = None
                elif unit in _UNIT_MS:
                    window *= _UNIT_MS[unit]
                    time_attr = "ts"
                else:
                    raise CEQLSyntaxError(f"unknown WITHIN unit {v!r}")
        consume = False
        if self.accept("kw", "CONSUME"):
            self.expect("kw", "BY")
            self.expect("kw", "ANY")
            consume = True
        self.expect("eof")
        return Query(
            strategy, select, streams, pattern, filters,
            partition_by, window, time_attr, consume,
        )

    def partition_attr(self) -> str:
        if self.accept("punct", "["):
            a = self.expect("word")
            self.expect("punct", "]")
            return a
        return self.expect("word")

    # -- pattern -----------------------------------------------------------
    def or_expr(self) -> cel.CEL:
        left = self.seq_expr()
        while self.accept("kw", "OR"):
            left = cel.Or(left, self.seq_expr())
        return left

    def seq_expr(self) -> cel.CEL:
        left = self.postfix()
        while self.accept("punct", ";"):
            left = cel.Seq(left, self.postfix())
        return left

    def postfix(self) -> cel.CEL:
        e = self.primary()
        while True:
            if self.accept("punct", "+"):
                e = cel.Plus(e)
            elif self.accept("kw", "AS"):
                e = cel.As(e, self.expect("word"))
            else:
                return e

    def primary(self) -> cel.CEL:
        if self.accept("punct", "("):
            e = self.or_expr()
            self.expect("punct", ")")
            return e
        return cel.EventType(self.expect("word"))

    # -- filters -----------------------------------------------------------
    def filter_disjunct(self) -> List[Tuple[str, Atom]]:
        out = [self.filter_atom()]
        while self.accept("kw", "OR"):
            out.append(self.filter_atom())
        return out

    def filter_atom(self) -> Tuple[str, Atom]:
        var = self.expect("word")
        self.expect("punct", "[")
        attr = self.expect("word")
        op = self.expect("op")
        if op == "=":
            op = "=="
        elif op == "<>":
            op = "!="
        k, v = self.next()
        if k not in ("num", "str"):
            raise CEQLSyntaxError(f"expected literal in filter, got {v!r}")
        self.expect("punct", "]")
        return var, Atom(attr, op, v)


def parse(text: str) -> Query:
    """Parse a CEQL query string."""
    return _Parser(_tokenize(text)).query()


def compile_query(q: Query | str) -> CompiledQuery:
    """Parse (if needed) and compile a CEQL query to a CompiledQuery."""
    if isinstance(q, str):
        q = parse(q)
    cea = compile_cel(q.formula())
    return CompiledQuery(
        cea=cea,
        window=q.window,
        time_attr=q.time_attr,
        partition_by=tuple(q.partition_by),
        consume=q.consume,
        strategy=q.strategy,
    )
