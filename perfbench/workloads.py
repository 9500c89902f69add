"""The benchmark's workloads; runs inside one child process per run.

Every workload is closed-loop with one in-process feeder: the next event,
micro-batch or job is handed over only after the previous one returned.
Inputs are generated from the seed before anything is timed, and the
program receives only the generated inputs.  See ``README.md`` for why each
workload exists.

The child reports to the parent over a pipe, one JSON object per line:

* ``meta``       input sizes and generation time;
* ``reference``  the driver engine's output digests (stream-kleene);
* ``setup``      the set-up repetitions (seconds);
* ``timed_start`` when the timed part began (``perf_counter``, which is
  system-wide on Linux, so the parent can time a crash);
* ``attempt``    operations handed over (events, jobs or micro-batches);
* ``done``       operations completed, with their latencies;
* ``check``      a correctness check and whether it held;
* ``layers``     per-layer metrics (traced run only);
* ``end``        the timed part finished normally.

A child that dies leaves its last ``attempt`` without a ``done``; the
parent counts those operations as failed.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
from array import array
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

LIMIT = 10  # outputs per event, as in the paper's experiments
SYNTH_QUERY = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 100 events"
SYNTH_TYPES = ["A1", "A2", "A3"] + [f"B{i}" for i in range(1, 7)]
# Past the point (~140k-165k events) where stream-kleene's state pickling
# overflows the C stack; shared by synth-kleene and stream-kleene.
SYNTH_EVENTS = 200_000
STOCK_EVENTS = 50_000
STOCK_PIECES = 10
MICROBATCH = 1_000
# The uncapped reference engine materializes every partial match; the
# prefix check stops before the reference holds more than this many.
REF_PARTIAL_BUDGET = 100_000
PREFIX_EVENTS = 5_000
SETUP_MIN_S = 0.3
SETUP_MIN_REPS = 5
OUT_DIR = ".perfbench-out"


class Reporter:
    """Writes the child's messages to the parent's pipe."""

    def __init__(self, fd: int):
        self.fd = fd

    def __call__(self, kind: str, **fields: Any) -> None:
        line = json.dumps({"kind": kind, **fields}) + "\n"
        os.write(self.fd, line.encode())


def rss_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def reset_peak_rss() -> int:
    """Reset the peak-RSS mark and return the current RSS (kB)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return rss_kb("VmRSS")


def time_setup(build: Callable[[], Any]) -> List[float]:
    """Repeat ``build`` until SETUP_MIN_S has passed (at least
    SETUP_MIN_REPS times); the parent reports the median."""
    reps: List[float] = []
    start = time.perf_counter()
    while len(reps) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        build()
        reps.append(time.perf_counter() - t0)
    return reps


def make(name: str, cq, limit: Optional[int]):
    """One engine for a compiled query, partitioned when it says so."""
    from repro.engines import make_engine, make_partitioned

    kw = dict(window=cq.window, consume=cq.consume, limit=limit, strategy=cq.strategy)
    if cq.partition_by:
        return make_partitioned(name, cq.cea, cq.partition_by, **kw)
    return make_engine(name, cq.cea, **kw)


def partial_matches(eng) -> int:
    if hasattr(eng, "engines"):
        return sum(e.n_partial_matches for e in eng.engines.values())
    return eng.n_partial_matches


def check_prefix(cq, events, ts) -> Dict[str, Any]:
    """CORE's uncapped match set equals the Esper-style baseline's
    (uncapped, no ``max_runs``) on a prefix of the stream, and the capped
    engine emits min(LIMIT, matches) at every event of it.  The prefix
    ends where the baseline would hold more than REF_PARTIAL_BUDGET partial
    matches, as it grows exponentially on Kleene and disjunction queries,
    and after PREFIX_EVENTS events at most."""
    ref, core, capped = make("esper", cq, None), make("core", cq, None), make("core", cq, LIMIT)
    want, got = set(), set()
    counts_ok = True
    n = 0
    for i, e in enumerate(events[:PREFIX_EVENTS]):
        if partial_matches(ref) > REF_PARTIAL_BUDGET:
            break
        want.update(ref.process(e, ts[i], i))
        out = core.process(e, ts[i], i)
        got.update(out)
        counts_ok &= len(capped.process(e, ts[i], i)) == min(LIMIT, len(out))
        n += 1
    return {"ok": got == want and counts_ok, "prefix_events": n, "matches": len(got)}


def check_repeatable(workload: str, seed: int, n_events: int, outputs: int) -> Dict[str, Any]:
    """The capped output count of one seed is the same on every run."""
    path = os.path.join(OUT_DIR, f"expected-{workload}-{seed}-{n_events}.json")
    if os.path.exists(path):
        with open(path) as f:
            expected = json.load(f)["outputs"]
    else:
        expected = outputs
        with open(path, "w") as f:
            json.dump({"outputs": outputs}, f)
    return {"ok": outputs == expected, "outputs": outputs, "expected": expected}


def span(tracer, name: str, **attrs: Any):
    return tracer.span(name, **attrs) if tracer else nullcontext()


def repeat(ctx, one_pass: Callable[[], None], name: str) -> None:
    """Run ``one_pass`` (one pass over the whole input) until
    ``ctx.seconds`` have passed; exactly once when seconds is 0."""
    deadline = time.perf_counter() + ctx.seconds
    n = 0
    with span(ctx.tracer, "workload", workload=ctx.workload):
        while n == 0 or time.perf_counter() < deadline:
            with span(ctx.tracer, name):
                one_pass()
            n += 1


# -- driver workloads ----------------------------------------------------------
def feed(eng, events, ts, lat, base: int) -> int:
    """Closed loop: hand one event at a time; returns the output count."""
    clock = time.perf_counter_ns
    n_out = 0
    for i, e in enumerate(events):
        t0 = clock()
        n_out += len(eng.process(e, ts[i], i))
        lat[base + i] = clock() - t0
    return n_out


def _run_driver(ctx, report, queries: Dict[str, Any], events, ts) -> None:
    """Shared body of synth-kleene and stock-q1q7: every query, one after
    another, over one stream; a pass is all queries once."""
    tracer = ctx.tracer
    n = len(events)
    ops_per_pass = n * len(queries)
    outputs_per_pass: List[int] = []

    def one_pass() -> None:
        first = not outputs_per_pass
        lat = array("q", bytes(8 * ops_per_pass))
        rss0 = reset_peak_rss() if first else 0
        report("attempt", ops=ops_per_pass, events=ops_per_pass)
        t_pass = time.perf_counter()
        outputs = 0
        end_engines = []
        for k, (name, cq) in enumerate(queries.items()):
            eng = make("core", cq, LIMIT)
            with span(tracer, "query", query=name):
                outputs += feed(eng, events, ts, lat, k * n)
            if tracer:
                end_engines.append(eng)
        wall = time.perf_counter() - t_pass
        growth = (rss_kb("VmHWM") - rss0) / 1024 if first else None
        report("done", ops=ops_per_pass, events=ops_per_pass, wall_s=wall,
               lat_hist=latency_histogram(lat), rss_growth_mb=growth,
               peak_rss_mb=rss_kb("VmHWM") / 1024, outputs=outputs)
        outputs_per_pass.append(outputs)
        if tracer:
            _dag_metrics(tracer, end_engines, ts[-1])

    report("timed_start", t=time.perf_counter())
    repeat(ctx, one_pass, "pass")
    report("end", t=time.perf_counter())
    if tracer:
        report("layers", metrics=tracer.metrics())

    report("check", name="passes_agree", ok=len(set(outputs_per_pass)) == 1,
           outputs=outputs_per_pass)
    rep = check_repeatable(ctx.workload, ctx.seed, n, outputs_per_pass[0])
    report("check", name="same_seed_same_count", **rep)
    for name, cq in queries.items():
        report("check", name=f"core_equals_esper_prefix:{name}", **check_prefix(cq, events, ts))


def latency_histogram(lat) -> List[List[int]]:
    """Per-event latencies (ns) as ``[bucket, count]`` pairs, so the pipe
    carries a few thousand numbers instead of one per event.  Bucket ``k``
    holds latencies in [2**(k/1024), 2**((k+1)/1024)) ns: under 0.07% error."""
    import numpy as np

    a = np.frombuffer(lat, dtype=np.int64)
    keys = np.floor(np.log2(np.maximum(a, 1)) * 1024).astype(np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    return [[int(k), int(c)] for k, c in zip(uniq, counts)]


def _dag_metrics(tracer, engines, now: float) -> None:
    """DAG sizes at the end of a pass, and PARTITION BY skew."""
    from tracing import dag_sizes

    flat = []
    for eng in engines:
        flat.extend(eng.engines.values() if hasattr(eng, "engines") else [eng])
        if hasattr(eng, "engines"):
            tracer.peak("partition.count", len(eng.engines))
            routed = sum(e.n_events for e in eng.engines.values())
            if routed:
                share = max(e.n_events for e in eng.engines.values()) / routed
                tracer.peak("partition.max_share", share)
    reach, inwin = dag_sizes(flat, now)
    tracer.peak("tecs.reachable_nodes_end", reach)
    tracer.peak("tecs.inwindow_nodes_end", inwin)


def synth_inputs(seed: int):
    from repro.streams.generators import typed_stream

    return typed_stream(SYNTH_EVENTS, SYNTH_TYPES, seed=seed)


def run_synth_kleene(ctx, report) -> None:
    from repro.cea.ceql import compile_query

    t0 = time.perf_counter()
    events = synth_inputs(ctx.seed)
    gen_s = time.perf_counter() - t0
    ts = [float(i) for i in range(len(events))]
    report("meta", gen_s=gen_s, events=len(events), query=SYNTH_QUERY, limit=LIMIT)
    freeze_inputs()
    report("setup", reps=time_setup(lambda: make("core", compile_query(SYNTH_QUERY), LIMIT)))
    queries = {"kleene": compile_query(SYNTH_QUERY)}
    _run_driver(ctx, report, queries, events, ts)


def stock_inputs(seed: int):
    """STOCK_EVENTS events as STOCK_PIECES consecutive ``stock_stream``
    pieces, each from its own derived seed.  A single long stream lets the
    price random walks drift away from the Q2/Q5 thresholds, so the work of
    a pass varied with the seed by up to 2x on those queries; restarting the
    walks keeps every seed near the thresholds."""
    from repro.streams.generators import stock_stream

    events: List[Dict[str, Any]] = []
    offset = 0
    for j in range(STOCK_PIECES):
        piece = stock_stream(STOCK_EVENTS // STOCK_PIECES, seed=seed * STOCK_PIECES + j)
        for e in piece:
            e["stock_time"] += offset
        offset = piece[-1]["stock_time"] + 300  # the generator's mean gap
        events.extend(piece)
    return events


def freeze_inputs() -> None:
    """Move the generated inputs out of the cyclic collector's reach.  A
    real feeder does not hold the whole stream; without this, every full
    collection would walk it and charge the engine for it."""
    gc.collect()
    gc.freeze()


def run_stock_q1q7(ctx, report) -> None:
    from repro.cea.ceql import compile_query
    from repro.harness.stock_queries import STOCK_QUERIES

    t0 = time.perf_counter()
    events = stock_inputs(ctx.seed)
    gen_s = time.perf_counter() - t0
    queries = {name: compile_query(text) for name, text in STOCK_QUERIES.items()}
    # All seven queries read time from [stock_time].
    ts = [queries["Q1"].ts_of(e, i) for i, e in enumerate(events)]
    report("meta", gen_s=gen_s, events=len(events), queries=list(queries), limit=LIMIT)
    freeze_inputs()

    def build_all():
        for text in STOCK_QUERIES.values():
            make("core", compile_query(text), LIMIT)

    report("setup", reps=time_setup(build_all))
    _run_driver(ctx, report, queries, events, ts)


# -- Spark batch -----------------------------------------------------------------
def spark_slots() -> int:
    return min(4, os.cpu_count() or 1)


def configure_spark_env(out_dir: str) -> None:
    """Keep the JVM, Spark and its Python workers inside the checkout; must
    run before pyspark starts a JVM."""
    tmp = os.path.abspath(os.path.join(out_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    src = os.path.abspath("src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Also read by the launcher JVM that spark-submit starts first.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{spark_slots()}] --driver-memory 1g pyspark-shell"
    )


def start_spark(out_dir: str):
    from pyspark.sql import SparkSession

    tmp = os.path.abspath(os.path.join(out_dir, "tmp"))
    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(spark_slots()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", tmp)
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .getOrCreate()
    )


def match_set(pdf) -> set:
    return set(pdf[["partition", "start", "end", "data"]].itertuples(index=False, name=None))


def run_spark_stock_q6(ctx, report) -> None:
    configure_spark_env(OUT_DIR)
    import pandas as pd

    from repro.cea.ceql import compile_query
    from repro.harness.stock_queries import Q6
    from repro.spark import batch
    from repro.streams.generators import to_pandas

    t0 = time.perf_counter()
    pdf = to_pandas(stock_inputs(ctx.seed))
    gen_s = time.perf_counter() - t0
    n = len(pdf)
    report("meta", gen_s=gen_s, events=n, query="Q6", limit=LIMIT,
           spark_master=f"local[{spark_slots()}]", shuffle_partitions=spark_slots())
    freeze_inputs()

    tracer = ctx.tracer
    holder: Dict[str, Any] = {}

    def job(spark, cq):
        return batch.run_batch(spark, pdf, cq, engine="core", limit=LIMIT).toPandas()

    def setup() -> None:
        # Session start plus one warm-up job; the first repetition also
        # launches the JVM.
        if "spark" in holder:
            holder.pop("spark").stop()
        cq = compile_query(Q6)
        spark = start_spark(OUT_DIR)
        job(spark, cq)
        holder.update(spark=spark, cq=cq)

    reps = [_timed(setup) for _ in range(3)]
    report("setup", reps=reps)
    spark, cq = holder["spark"], holder["cq"]
    if tracer:
        spark.createDataFrame = tracer.timed("batch.create_df", spark.createDataFrame)

    results = []

    def one_job() -> None:
        first = not results
        rss0 = reset_peak_rss() if first else 0
        report("attempt", ops=1, events=n)
        t = time.perf_counter()
        out = job(spark, cq)
        wall = time.perf_counter() - t
        growth = (rss_kb("VmHWM") - rss0) / 1024 if first else None
        report("done", ops=1, events=n, wall_s=wall, rss_growth_mb=growth,
               peak_rss_mb=rss_kb("VmHWM") / 1024, outputs=len(out))
        results.append(match_set(out))

    report("timed_start", t=time.perf_counter())
    repeat(ctx, one_job, "job")
    report("end", t=time.perf_counter())

    # Reference: the same groups through run_group, single-threaded on the
    # driver.  Only this call is traced: Spark ships run_batch's group
    # function to its workers, which cannot import the tracer.
    run_group = tracer.timed("batch.run_group", batch.run_group) if tracer else batch.run_group
    t = time.perf_counter()
    pcols = list(cq.partition_by)
    groups = [g for _, g in pdf.dropna(subset=pcols).groupby(pcols)]
    ref = pd.concat([run_group(g, cq, "core", LIMIT, pcols) for g in groups])
    driver_equiv = time.perf_counter() - t
    want = match_set(ref)
    report("check", name="spark_equals_driver_run_group",
           ok=all(r == want for r in results), matches=len(want), jobs=len(results))
    if tracer:
        tracer.add("batch.driver_equiv_s", driver_equiv)
        sizes = [len(g) for g in groups]
        tracer.peak("partition.count", len(groups))
        tracer.peak("partition.max_share", max(sizes) / sum(sizes))
        report("layers", metrics=tracer.metrics())
    spark.stop()


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


# -- Spark streaming state path -------------------------------------------------
def run_stream_kleene(ctx, report) -> None:
    from pyspark.sql import Row
    from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
    from pyspark.sql.types import BinaryType, StructField, StructType

    from repro.cea.ceql import compile_query
    from repro.spark import streaming
    from repro.streams.generators import to_pandas

    t0 = time.perf_counter()
    events = synth_inputs(ctx.seed)
    pdf = to_pandas(events, columns=["type"])
    gen_s = time.perf_counter() - t0
    batches = [
        pdf.iloc[i:i + MICROBATCH].reset_index(drop=True)
        for i in range(0, len(pdf), MICROBATCH)
    ]
    report("meta", gen_s=gen_s, events=len(events), query=SYNTH_QUERY, limit=LIMIT,
           microbatch=MICROBATCH, microbatches=len(batches))

    # Reference: the driver engine's outputs, one digest per micro-batch.
    cq = compile_query(SYNTH_QUERY)
    eng = make("core", cq, LIMIT)
    ref = []
    for b in range(0, len(events), MICROBATCH):
        rows = []
        for i in range(b, min(b + MICROBATCH, len(events))):
            rows.extend(eng.process(events[i], float(i), i))
        ref.append(_digest(("", s, e, ",".join(map(str, d))) for s, e, d in rows))
    del eng
    report("reference", digests=ref)
    freeze_inputs()

    schema = StructType([StructField("blob", BinaryType())])
    report("setup", reps=time_setup(
        lambda: streaming.make_stateful_func(compile_query(SYNTH_QUERY), "core", LIMIT)))
    fn = streaming.make_stateful_func(cq, "core", LIMIT)
    tracer = ctx.tracer
    if tracer:
        tracer.clear()  # the reference run above is not part of the workload
    blob = None
    rss0 = reset_peak_rss()
    report("timed_start", t=time.perf_counter())
    for k, mb in enumerate(batches):
        report("attempt", ops=1, events=len(mb))
        with span(tracer, "microbatch", index=k):
            t = time.perf_counter()
            state = GroupState(
                Row(blob) if blob is not None else None, 0, 0, GroupStateTimeout.NoTimeout,
                False, False, blob is not None, False, False, -1, b"", schema,
            )
            out = list(fn((0,), iter([mb]), state))
            (blob,) = state.get
            wall = time.perf_counter() - t
        rows = [r for o in out for r in o.itertuples(index=False, name=None)]
        report("done", ops=1, events=len(mb), wall_s=wall, digest=_digest(rows),
               state_bytes=len(blob), outputs=len(rows),
               rss_growth_mb=(rss_kb("VmHWM") - rss0) / 1024,
               peak_rss_mb=rss_kb("VmHWM") / 1024)
        if tracer:
            from tracing import dag_sizes

            tracer.peak("stream.state_bytes_max", len(blob))
            last = tracer.last_engine
            reach, inwin = dag_sizes([last], float(mb["pos"].iloc[-1]))
            tracer.maxima["tecs.reachable_nodes_end"] = reach
            tracer.maxima["tecs.inwindow_nodes_end"] = inwin
            # The state pickling can kill the process; the parent keeps the
            # last snapshot.
            report("layers", metrics=tracer.metrics())
    report("end", t=time.perf_counter())


def _digest(rows) -> str:
    """Order-free digest of (partition, start, end, data) output rows."""
    h = hashlib.sha1()
    for p, s, e, d in sorted((str(p), int(s), int(e), str(d)) for p, s, e, d in rows):
        h.update(f"{p}|{s}|{e}|{d}\n".encode())
    return h.hexdigest()


WORKLOADS = {
    "synth-kleene": run_synth_kleene,
    "stock-q1q7": run_stock_q1q7,
    "spark-stock-q6": run_spark_stock_q6,
    "stream-kleene": run_stream_kleene,
}
