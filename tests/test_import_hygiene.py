"""The engine path loads neither pandas nor pyspark.

CORE reads a tuple's predicate bit-vector, its position and its time (paper
Section 5.4), so compiling a query, generating a stream and running CORE,
a partitioned CORE and a baseline need no frame library. Checked in a fresh
interpreter, because this test session has loaded both already.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

from repro.cea.ceql import compile_query
from repro.engines import make_engine, make_partitioned
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams import stock_stream

events = stock_stream(3_000, seed=0)
# NULL and NaN partition keys and times, which the engines must skip or
# read as NULL without a pandas call.
events[5]["volume"] = None
events[6]["volume"] = float("nan")
events[7]["stock_time"] = float("nan")
outputs = 0
for name, engine in [("Q1", "core"), ("Q3", "core"), ("Q1", "esper")]:
    cq = compile_query(STOCK_QUERIES[name])
    kw = dict(window=cq.window, consume=cq.consume, limit=10, strategy=cq.strategy)
    if cq.partition_by:
        eng = make_partitioned(engine, cq.cea, cq.partition_by, **kw)
    else:
        eng = make_engine(engine, cq.cea, **kw)
    for i, e in enumerate(events):
        outputs += len(eng.process(e, cq.ts_of(e, i), i))
print(outputs, sorted(m for m in ("pandas", "pyspark") if m in sys.modules))
"""


def test_engine_path_imports_no_pandas_or_pyspark():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outputs, loaded = proc.stdout.split(maxsplit=1)
    assert int(outputs) > 0
    assert loaded.strip() == "[]"
