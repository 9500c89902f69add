"""Per-layer tracing for the traced run, kept entirely outside ``src/``.

``Tracer.install()`` replaces the public entry points of each layer with
wrappers that count calls and time them.  A nesting stack gives each layer
its *self* time: a call's duration minus the time spent in wrapped calls it
made.  Coarse spans (workload, pass, query, job, micro-batch) are kept in
memory and written out as JSON lines when the run ends.  The wrappers cost
a few microseconds per call, which is why end-to-end metrics come from the
untraced run and the traced run reports its own slowdown.
"""
from __future__ import annotations

import gc
import json
import pickle
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, List

# Every per-layer metric of a traced run, with its unit, in report order.
LAYER_METRICS = {
    "predicates.bitvector_calls": "count",
    "predicates.atom_evals": "count",
    "predicates.self_s": "s",
    "det.step_calls": "count",
    "det.cache_misses": "count",
    "det.hit_ratio": "1",
    "det.states": "count",
    "det.self_s": "s",
    "tecs.extend_calls": "count",
    "tecs.union_calls": "count",
    "tecs.merge_calls": "count",
    "tecs.insert_calls": "count",
    "tecs.nodes_created": "count",
    "tecs.reachable_nodes_end": "count",
    "tecs.inwindow_nodes_end": "count",
    "tecs.self_s": "s",
    "enum.calls": "count",
    "enum.outputs": "count",
    "enum.self_s": "s",
    "enum.us_per_output": "us",
    "engine.process_calls": "count",
    "engine.self_s": "s",
    "engine.prune_s": "s",
    "engine.active_states_max": "count",
    "engine.ulist_len_max": "count",
    "partition.count": "count",
    "partition.route_self_s": "s",
    "partition.max_share": "1",
    "batch.create_df_s": "s",
    "batch.run_group_s": "s",
    "batch.convert_s": "s",
    "batch.driver_equiv_s": "s",
    "stream.state_bytes_max": "bytes",
    "stream.pickle_dumps_s": "s",
    "stream.pickle_loads_s": "s",
    "stream.convert_s": "s",
    "stream.engine_s": "s",
    "gc.gen2_collections": "count",
    "gc.pause_s": "s",
    # Filled in by run.py from the untraced and traced children.
    "mem.rss_growth_mb": "MB",
    "trace.events_per_s_untraced": "1/s",
    "trace.events_per_s_traced": "1/s",
    "trace.overhead_x": "1",
}


class _Acc:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self) -> None:
        self.acc: Dict[str, _Acc] = {}
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self._stack: List[float] = []
        self._dets: Dict[int, Any] = {}
        self.spans: List[Dict[str, Any]] = []
        self._span_stack: List[int] = []
        self._gc_t0 = 0.0
        self.last_engine: Any = None

    # -- accumulators ------------------------------------------------------
    def clear(self) -> None:
        """Forget everything recorded so far (work done before timing)."""
        for acc in self.acc.values():  # the wrappers hold these objects
            acc.__init__()
        self.counts.clear()
        self.maxima.clear()
        self._dets.clear()
    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, v: float) -> None:
        if v > self.maxima.get(key, 0):
            self.maxima[key] = v

    def timed(self, key: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call adds to accumulator ``key``.

        ``after(args, result)`` runs outside the timed interval and records
        counts that need the call's arguments or result.
        """
        acc = self.acc.setdefault(key, _Acc())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kw):
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kw)
            finally:
                dt = clock() - t0
                child = stack.pop()
                acc.calls += 1
                acc.total += dt
                acc.self += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, res)
            return res

        return wrapper

    def patch(self, owner: Any, name: str, key: str, after: Callable | None = None) -> None:
        setattr(owner, name, self.timed(key, getattr(owner, name), after))

    def count_calls(self, owner: Any, name: str, key: str) -> None:
        """Count calls without timing them, so they stay in the caller's
        self time."""
        orig = getattr(owner, name)

        def wrapper(*args, **kw):
            self.add(key)
            return orig(*args, **kw)

        setattr(owner, name, wrapper)

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any):
        sid = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        rec = {"id": sid, "parent": parent, "name": name, "start": time.perf_counter(), **attrs}
        self.spans.append(rec)
        self._span_stack.append(sid)
        try:
            yield rec
        finally:
            self._span_stack.pop()
            rec["end"] = time.perf_counter()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")

    # -- garbage collector ---------------------------------------------------
    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        self.add("gc.pause_s", time.perf_counter() - self._gc_t0)
        if info["generation"] == 2:
            self.add("gc.gen2_collections")

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points for the rest of the process."""
        from repro.cea import determinize, predicates
        from repro.core import engine, partition, tecs
        from repro.spark import streaming

        def after_bitvector(args, res):
            self.add("predicates.bitvector_calls")
            self.add("predicates.atom_evals", len(res))

        self.patch(predicates.PredicateIndex, "bitvector", "predicates", after_bitvector)
        self.patch(predicates.PredicateIndex, "satisfies", "predicates")

        orig_step = determinize.DetCEA.step
        det_acc = self.timed("det", orig_step)

        def step(det, p, bv):
            before = len(det._cache)
            res = det_acc(det, p, bv)
            self.add("det.step_calls")
            if len(det._cache) != before:
                self.add("det.cache_misses")
            self._dets[id(det)] = det
            return res

        determinize.DetCEA.step = step

        for cls in (tecs.Bottom, tecs.Output, tecs.Union):
            self.count_calls(cls, "__init__", "tecs.nodes_created")
        for name in ("bottom", "extend", "union", "merge", "insert"):
            self.patch(tecs.TECS, name, "tecs", lambda a, r, n=name: self.add(f"tecs.{n}_calls"))

        orig_enum = engine.enumerate_matches
        enum_acc = self.timed("enum", orig_enum)

        def enumerate_matches(root, end_pos, now, window, limit=None, out=None):
            # Results are appended to ``out``; count only this call's.
            before = 0 if out is None else len(out)
            res = enum_acc(root, end_pos, now, window, limit, out)
            self.add("enum.calls")
            self.add("enum.outputs", len(res) - before)
            return res

        engine.enumerate_matches = enumerate_matches

        def after_process(args, res):
            eng = args[0]
            self.add("engine.process_calls")
            self.peak("engine.active_states_max", len(eng.T))
            if eng.T:
                self.peak("engine.ulist_len_max", max(len(ul) for ul in eng.T.values()))
            self.last_engine = eng

        self.patch(engine.CoreEngine, "process", "engine", after_process)
        self.patch(engine.CoreEngine, "_prune", "engine.prune")
        self.patch(partition.PartitionedEngine, "process", "partition")

        orig_make = streaming.make_stateful_func

        def make_stateful_func(*a, **kw):
            # The stateful function is a generator: time its whole run.
            inner = orig_make(*a, **kw)
            run = self.timed("stream", lambda *args: list(inner(*args)))

            def fn(*args):
                yield from run(*args)

            return fn

        streaming.make_stateful_func = make_stateful_func
        streaming.pickle = types.SimpleNamespace(
            dumps=self.timed("stream.pickle_dumps", pickle.dumps),
            loads=self.timed("stream.pickle_loads", pickle.loads),
        )
        gc.callbacks.append(self._on_gc)

    # -- results ---------------------------------------------------------------
    def _t(self, key: str, field: str = "self") -> float:
        acc = self.acc.get(key)
        return getattr(acc, field) if acc else 0.0

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics; layers a workload does not reach read 0."""
        c, m = self.counts, self.maxima
        steps = c.get("det.step_calls", 0)
        misses = c.get("det.cache_misses", 0)
        outputs = c.get("enum.outputs", 0)
        enum_total = self._t("enum", "total")
        return {
            "predicates.bitvector_calls": c.get("predicates.bitvector_calls", 0),
            "predicates.atom_evals": c.get("predicates.atom_evals", 0),
            "predicates.self_s": self._t("predicates"),
            "det.step_calls": steps,
            "det.cache_misses": misses,
            "det.hit_ratio": (steps - misses) / steps if steps else 0.0,
            "det.states": max((d.n_det_states for d in self._dets.values()), default=0),
            "det.self_s": self._t("det"),
            **{f"tecs.{n}_calls": c.get(f"tecs.{n}_calls", 0)
               for n in ("extend", "union", "merge", "insert")},
            "tecs.nodes_created": c.get("tecs.nodes_created", 0),
            "tecs.reachable_nodes_end": m.get("tecs.reachable_nodes_end", 0),
            "tecs.inwindow_nodes_end": m.get("tecs.inwindow_nodes_end", 0),
            "tecs.self_s": self._t("tecs"),
            "enum.calls": c.get("enum.calls", 0),
            "enum.outputs": outputs,
            "enum.self_s": self._t("enum"),
            "enum.us_per_output": 1e6 * enum_total / outputs if outputs else 0.0,
            "engine.process_calls": c.get("engine.process_calls", 0),
            "engine.self_s": self._t("engine"),
            "engine.prune_s": self._t("engine.prune", "total"),
            "engine.active_states_max": m.get("engine.active_states_max", 0),
            "engine.ulist_len_max": m.get("engine.ulist_len_max", 0),
            "partition.count": m.get("partition.count", 0),
            "partition.route_self_s": self._t("partition"),
            "partition.max_share": m.get("partition.max_share", 0),
            "batch.create_df_s": self._t("batch.create_df", "total"),
            "batch.run_group_s": self._t("batch.run_group", "total"),
            "batch.convert_s": self._t("batch.run_group"),
            "batch.driver_equiv_s": c.get("batch.driver_equiv_s", 0),
            "stream.state_bytes_max": m.get("stream.state_bytes_max", 0),
            "stream.pickle_dumps_s": self._t("stream.pickle_dumps", "total"),
            "stream.pickle_loads_s": self._t("stream.pickle_loads", "total"),
            "stream.convert_s": self._t("stream"),
            "stream.engine_s": self._t("engine", "total") if self.acc.get("stream") else 0.0,
            "gc.gen2_collections": c.get("gc.gen2_collections", 0),
            "gc.pause_s": c.get("gc.pause_s", 0.0),
        }


def dag_sizes(engines, now: float) -> tuple:
    """Nodes reachable from the engines' union-lists, and how many of them
    start inside each engine's window at time ``now``."""
    from repro.core.tecs import Output, Union

    reachable = inwindow = 0
    for eng in engines:
        tau = -float("inf") if eng.window is None else now - eng.window
        seen = set()
        todo = [n for ul in eng.T.values() for n in ul]
        while todo:
            n = todo.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            reachable += 1
            inwindow += n.max_start >= tau
            if type(n) is Union:
                todo.append(n.left)
                todo.append(n.right)
            elif type(n) is Output:
                todo.append(n.child)
    return reachable, inwindow
