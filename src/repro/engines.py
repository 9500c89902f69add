"""Engine registry: one factory per system compared in Section 6.

Shared by the harness, the Spark layer, and the tests, so every execution
path builds engines the same way.
"""
from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from .baselines import EsperEngine, FlinkCepEngine, SaseEngine
from .cea.automaton import CEA
from .core import CoreEngine, PartitionedEngine

SYSTEMS = ("core", "sase", "esper", "flink")


def make_engine(
    name: str,
    cea: CEA,
    *,
    window: Optional[float] = None,
    consume: bool = False,
    limit: Optional[int] = None,
    strategy: str = "all",
    max_runs: Optional[int] = None,
) -> Any:
    """Build one single-partition engine by system name.

    ``strategy`` is passed through unchanged: CORE supports all/next/last/max;
    the baselines support all (skip-till-any) and next (skip-till-next, their
    default selection strategy in the strategies experiment). An unsupported
    strategy raises ``ValueError``.
    """
    if name == "core":
        return CoreEngine(cea, window, consume=consume, limit=limit, strategy=strategy)
    kw = dict(consume=consume, limit=limit, selection=strategy, max_runs=max_runs)
    if name == "sase":
        return SaseEngine(cea, window, **kw)
    if name == "esper":
        return EsperEngine(cea, window, **kw)
    if name == "flink":
        return FlinkCepEngine(cea, window, **kw)
    raise ValueError(f"unknown system {name!r}; expected one of {SYSTEMS}")


def make_partitioned(
    name: str,
    cea: CEA,
    partition_by: Sequence[str],
    **kw,
) -> PartitionedEngine:
    """PARTITION BY wrapper: one engine instance per partition (Section 5.4)."""
    factory: Callable[[], Any] = lambda: make_engine(name, cea, **kw)
    return PartitionedEngine(factory, partition_by)
