"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches the
engine's entry points by name. This runs its tracer against Q1 and Q6 in a
fresh interpreter, so that a rename in ``src/`` that leaves a hook counting
nothing fails here rather than in a silent benchmark report. It also feeds
an uncapped Esper-style engine positionally, ``process(e, ts, i)``, next to
the capped CORE engine, as the benchmark's ``check_prefix`` does."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from tracing import Tracer

tracer = Tracer()
tracer.install()

from repro.cea.ceql import compile_query
from repro.engines import make_engine, make_partitioned
from repro.harness.stock_queries import Q1, Q6
from repro.streams.generators import stock_stream

events = stock_stream(2000, seed=1)
prefix_ok, ref_matches = True, 0
for text in (Q1, Q6):
    cq = compile_query(text)
    kw = dict(window=cq.window, consume=cq.consume, limit=10)
    if cq.partition_by:
        eng = make_partitioned("core", cq.cea, cq.partition_by, **kw)
    else:
        eng = make_engine("core", cq.cea, **kw)
        ref = make_engine("esper", cq.cea, window=cq.window, consume=cq.consume)
    for i, e in enumerate(events):
        ts = cq.ts_of(e, i)
        out = eng.process(e, ts, i)
        if not cq.partition_by:
            want = ref.process(e, ts, i)
            ref_matches += len(want)
            prefix_ok &= set(out) <= set(want) and len(out) == min(10, len(want))
print(json.dumps({**tracer.metrics(), "prefix_ok": prefix_ok, "ref_matches": ref_matches}))
"""


def test_tracer_hooks_count_engine_work():
    env = dict(os.environ)
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    for key in ("det.step_calls", "engine.process_calls", "tecs.extend_calls"):
        assert metrics[key] > 0, key
    assert metrics["engine.process_calls"] == 2 * 2000  # CORE's only
    assert metrics["prefix_ok"] and metrics["ref_matches"] > 0
