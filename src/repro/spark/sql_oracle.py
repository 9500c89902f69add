"""Translate fixed-length CER patterns to DuckDB SQL for the oracle.

A sequence/disjunction pattern of fixed length n under skip-till-any-match
(no consumption) is expressible as an n-way self-join over the event table:
slot i picks an event whose type is in the slot's allowed set and satisfies
the slot's filters, positions are strictly increasing, the count window
(``WITHIN n events``) bounds ``pos(last) − pos(first)``, and PARTITION BY
becomes equality on the partition attributes (with NULLs excluded). The projection matches
:data:`repro.spark.batch.MATCH_SCHEMA` so test code can call
``repro.oracle.assert_equivalent(spark_df, sql, events=...)`` directly.

Kleene patterns are not SQL-expressible this way; they are checked against
the brute-force Table-2 semantics instead.
"""
from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

# One filter atom: (attr, sql_op, literal)
FilterAtom = Tuple[str, str, Any]


def _lit(v: Any) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


def sequence_match_sql(
    slots: Sequence[Sequence[str]],
    *,
    window: Optional[float] = None,
    partition_by: Sequence[str] = (),
    filters: Optional[Sequence[Sequence[FilterAtom]]] = None,
) -> str:
    """SQL equivalent of ``T1;T2;...;Tn WITHIN window events [PARTITION BY
    ...]`` over table ``events``.

    ``slots[i]`` lists the event types slot i accepts (len>1 = disjunction);
    ``filters[i]`` lists extra per-slot predicate atoms.
    """
    n = len(slots)
    if n == 0:
        raise ValueError("need at least one slot")
    filters = filters or [[] for _ in range(n)]
    aliases = [f"e{i+1}" for i in range(n)]
    conds: List[str] = []
    for i, (a, types) in enumerate(zip(aliases, slots)):
        if len(types) == 1:
            conds.append(f"{a}.type = {_lit(types[0])}")
        else:
            conds.append(f"{a}.type IN ({', '.join(_lit(t) for t in types)})")
        for (attr, op, val) in filters[i]:
            conds.append(f"{a}.{attr} {op} {_lit(val)}")
    for i in range(n - 1):
        conds.append(f"{aliases[i]}.pos < {aliases[i+1]}.pos")
    if window is not None:
        conds.append(f"{aliases[-1]}.pos - {aliases[0]}.pos <= {window}")
    for attr in partition_by:
        conds.append(f"{aliases[0]}.{attr} IS NOT NULL")
        for i in range(n - 1):
            conds.append(f"{aliases[i]}.{attr} = {aliases[i+1]}.{attr}")
    if partition_by:
        pkey = " || ',' || ".join(
            f"CAST({aliases[0]}.{attr} AS VARCHAR)" for attr in partition_by
        )
    else:
        pkey = "''"
    data = ", ".join(f"{a}.pos" for a in aliases)
    return (
        f"SELECT {pkey} AS partition, {aliases[0]}.pos AS start, "
        f'{aliases[-1]}.pos AS "end", concat_ws(\',\', {data}) AS data\n'
        f"FROM {', '.join(f'events {a}' for a in aliases)}\n"
        f"WHERE {' AND '.join(conds)}"
    )
