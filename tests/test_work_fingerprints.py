"""Work fingerprints of CORE on reduced benchmark passes.

``work_fingerprints.json`` records, for a reduced ``synth-kleene`` pass
and a reduced ``stock-q1q7`` pass (each Appendix-C query on its own), what
CORE did and what it emitted: a digest of every event's outputs in order,
the output count, tECS nodes built, det-states, ``DetCEA.step`` calls and
cache misses, configurations, step plans, and the most active states at
once. A change that should leave the engine's work as it is must leave
every field as it is; on a mismatch the test names every field that moved.

A change that alters work on purpose regenerates the file and says which
fields moved and why:

    PYTHONPATH=src python tests/test_work_fingerprints.py
"""
import hashlib
import json
from pathlib import Path

from repro.cea.ceql import compile_query
from repro.engines import make_engine, make_partitioned
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import stock_stream, typed_stream

PATH = Path(__file__).with_name("work_fingerprints.json")
LIMIT = 10  # the benchmark's outputs per event
SEED = 0
SYNTH_QUERY = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 100 events"
SYNTH_TYPES = ["A1", "A2", "A3"] + [f"B{i}" for i in range(1, 7)]
SYNTH_EVENTS = 20_000
STOCK_EVENTS = 10_000


def fingerprint(text, events):
    """Run ``text`` over ``events`` on a fresh capped CORE engine (one per
    partition under PARTITION BY) and return its work fingerprint."""
    cq = compile_query(text)
    kw = dict(window=cq.window, consume=cq.consume, limit=LIMIT, strategy=cq.strategy)
    if cq.partition_by:
        eng = make_partitioned("core", cq.cea, cq.partition_by, **kw)
        engines = eng.engines.values()
    else:
        eng = make_engine("core", cq.cea, **kw)
        engines = [eng]
    det = cq.cea.det(cq.strategy)
    calls = [0]
    step = det.step

    def counted(p, mask):
        calls[0] += 1
        return step(p, mask)

    det.step = counted  # ``DetCEA.plan`` reads ``self.step``
    digest = hashlib.sha1()
    n_outputs = active_max = 0
    for i, e in enumerate(events):
        out = eng.process(e, cq.ts_of(e, i), i)
        if out:
            n_outputs += len(out)
            digest.update(f"{i}:{out!r}\n".encode())
        active_max = max(active_max, sum(x.n_active_states for x in engines))
    return {
        "output_digest": digest.hexdigest(),
        "n_outputs": n_outputs,
        "n_nodes_created": sum(x.n_nodes_created for x in engines),
        "det_states": det.n_det_states,
        "det_step_calls": calls[0],
        "det_cache_misses": len(det._cache),
        "configurations": len(det._tables),
        "plans": sum(len(t) for t in det._tables.values()),
        "active_states_max": active_max,
    }


def fingerprints():
    out = {"synth-kleene": fingerprint(
        SYNTH_QUERY, typed_stream(SYNTH_EVENTS, SYNTH_TYPES, seed=SEED))}
    stock = stock_stream(STOCK_EVENTS, seed=SEED)
    for name, text in STOCK_QUERIES.items():
        out[f"stock-q1q7/{name}"] = fingerprint(text, stock)
    return out


def test_work_fingerprints_unchanged():
    want = json.loads(PATH.read_text())
    got = fingerprints()
    moved = [
        f"{pass_}.{field}: {want[pass_].get(field)!r} -> {value!r}"
        for pass_, fields in got.items()
        for field, value in fields.items()
        if want.get(pass_, {}).get(field) != value
    ]
    moved += [f"{pass_}: no longer run" for pass_ in want if pass_ not in got]
    assert not moved, "work fingerprints moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    PATH.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n")
