"""PARTITION BY evaluation (paper Sections 3 and 5.4).

The PARTITION BY clause logically splits the stream into maximal substreams
whose tuples agree (and are non-NULL) on every partition attribute; the
WHERE-SELECT-WITHIN clauses run on each substream separately and the outputs
are unioned. CORE implements this by hashing the attribute values and
running one instance of the main algorithm per partition — so does
:class:`PartitionedEngine`, which wraps any engine factory (CORE or a
baseline) and routes each tuple to its partition's instance.

Tuples with NULL in any partition attribute belong to no substream and are
skipped, per the Section 3 semantics. NULL is None, NaN, ``pd.NA`` or
``NaT`` (``is_null``), as in pandas and in the Spark path (``dropna`` before
grouping). Positions and times passed through are the *global* ones, so
outputs are comparable across engines and with the SQL oracle.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cea.predicates import is_null
from .enumerate import Match


class PartitionedEngine:
    """Route tuples to per-partition engine instances.

    ``factory`` builds a fresh single-partition engine (``CoreEngine`` or a
    baseline) on first sight of each partition key.
    """

    def __init__(
        self,
        factory: Callable[[], Any],
        partition_by: Sequence[str],
    ):
        if not partition_by:
            raise ValueError("PartitionedEngine needs at least one attribute")
        self.factory = factory
        self.partition_by = tuple(partition_by)
        self.engines: Dict[Tuple[Any, ...], Any] = {}
        self._count = 0
        self.n_events = 0
        self.n_outputs = 0

    def process(
        self,
        t: Mapping[str, Any],
        ts: Optional[float] = None,
        pos: Optional[int] = None,
    ) -> List[Match]:
        j = self._count if pos is None else pos
        self._count += 1
        self.n_events += 1
        key = tuple(map(t.get, self.partition_by))
        for v in key:
            if is_null(v):
                return []
        eng = self.engines.get(key)
        if eng is None:
            eng = self.engines[key] = self.factory()
        out = eng.process(t, ts, j)
        self.n_outputs += len(out)
        return out

    @property
    def n_partitions(self) -> int:
        return len(self.engines)

    def reset(self) -> None:
        self.engines = {}
