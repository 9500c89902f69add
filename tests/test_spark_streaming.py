"""Structured Streaming stateful-operator tests.

Drives the ``applyInPandasWithState`` CER operator with an ordered file
source (availableNow triggers) and checks that (1) the streaming results
equal the batch/driver results and (2) engine state survives across separate
restarts through the checkpoint — the partial-match maintenance really lives
in the stream state, not in the batch.
"""
import json
import os

import pytest

from repro.cea.ceql import compile_query
from repro.spark.batch import run_batch
from repro.spark.streaming import streaming_matches
from repro.streams.generators import to_pandas, typed_stream

SCHEMA = "pos long, type string, name string"


def _write_events(path, events, start_pos, name=None):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for i, e in enumerate(events):
            rec = {"pos": start_pos + i, "type": e["type"]}
            if "name" in e:
                rec["name"] = e["name"]
            f.write(json.dumps(rec) + "\n")


def _run_stream(spark, input_dir, checkpoint, query, out_dir):
    """Run to completion with an availableNow trigger; a JSON file sink is
    used (unlike the memory sink it supports checkpoint recovery, which the
    restart test depends on). Returns the cumulative match set."""
    from repro.spark.batch import MATCH_SCHEMA

    stream = spark.readStream.schema(SCHEMA).json(input_dir)
    matches = streaming_matches(stream, query)
    q = (
        matches.writeStream.format("json")
        .outputMode("append")
        .option("path", out_dir)
        .option("checkpointLocation", checkpoint)
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination(120)
    out = spark.read.schema(MATCH_SCHEMA).json(out_dir).toPandas()
    out["partition"] = out["partition"].fillna("")
    return {
        tuple(r)
        for r in out[["partition", "start", "end", "data"]]
        .itertuples(index=False, name=None)
    }


def test_streaming_equals_batch(spark, tmp_path):
    events = typed_stream(120, ["A", "B", "C", "X"], seed=13)
    cq = compile_query("SELECT * FROM S WHERE A; B; C WITHIN 15 events")
    _write_events(str(tmp_path / "in" / "part-0.json"), events, 0)
    got = _run_stream(
        spark, str(tmp_path / "in"), str(tmp_path / "ckpt"), cq, str(tmp_path / "out")
    )
    expected = {
        tuple(r)
        for r in run_batch(spark, to_pandas(events, columns=["type", "name"]), cq)
        .toPandas()[["partition", "start", "end", "data"]]
        .itertuples(index=False, name=None)
    }
    assert got == expected and got


def test_state_survives_restart(spark, tmp_path):
    """Feed the first half, stop, feed the second half with the same
    checkpoint: matches spanning the boundary must still be found."""
    events = typed_stream(100, ["A", "B", "C", "X"], seed=21)
    cq = compile_query("SELECT * FROM S WHERE A; B; C WITHIN 20 events")
    half = len(events) // 2
    indir, ckpt = str(tmp_path / "in"), str(tmp_path / "ckpt")
    _write_events(os.path.join(indir, "part-0.json"), events[:half], 0)
    outdir = str(tmp_path / "out")
    got1 = _run_stream(spark, indir, ckpt, cq, outdir)
    _write_events(os.path.join(indir, "part-1.json"), events[half:], half)
    got2 = _run_stream(spark, indir, ckpt, cq, outdir)
    got = got1 | got2
    expected = {
        tuple(r)
        for r in run_batch(spark, to_pandas(events, columns=["type", "name"]), cq)
        .toPandas()[["partition", "start", "end", "data"]]
        .itertuples(index=False, name=None)
    }
    assert got == expected
    # and some match must actually span the restart boundary
    spanning = [m for m in expected if m[1] < half <= m[2]]
    assert spanning, "test stream should produce boundary-spanning matches"


def test_streaming_partition_by(spark, tmp_path):
    events = typed_stream(80, ["A", "B"], seed=5)
    for i, e in enumerate(events):
        e["name"] = "xyz"[i % 3]
    cq = compile_query(
        "SELECT * FROM S WHERE A; B PARTITION BY [name] WITHIN 12 events"
    )
    _write_events(str(tmp_path / "in" / "part-0.json"), events, 0)
    got = _run_stream(
        spark, str(tmp_path / "in"), str(tmp_path / "ckpt"), cq, str(tmp_path / "out")
    )
    expected = {
        tuple(r)
        for r in run_batch(spark, to_pandas(events), cq)
        .toPandas()[["partition", "start", "end", "data"]]
        .itertuples(index=False, name=None)
    }
    assert got == expected and got


def test_key_split_over_arrow_chunks_is_fed_in_pos_order(spark, tmp_path):
    """A key's micro-batch larger than
    ``spark.sql.execution.arrow.maxRecordsPerBatch`` reaches the stateful
    function in several chunks, which need not be in ``pos`` order between
    them (here the later positions are in the first file): the engine must
    see the whole micro-batch in ``pos`` order."""
    events = typed_stream(200, ["A", "B", "C", "X"], seed=13)
    cq = compile_query("SELECT * FROM S WHERE A; B; C WITHIN 15 events")
    indir = tmp_path / "in"
    _write_events(str(indir / "part-0.json"), events[100:], 100)
    _write_events(str(indir / "part-1.json"), events[:100], 0)
    expected = {
        tuple(r)
        for r in run_batch(spark, to_pandas(events, columns=["type", "name"]), cq)
        .toPandas()[["partition", "start", "end", "data"]]
        .itertuples(index=False, name=None)
    }
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "16")
    try:
        got = _run_stream(
            spark, str(indir), str(tmp_path / "ckpt"), cq, str(tmp_path / "out")
        )
    finally:
        spark.conf.set(key, old)
    assert got == expected and got
