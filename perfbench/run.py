"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of the repository.  Each run happens in a fresh child
process (``worker.py``); a child that dies counts its unfinished operations
as failed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced pass, each in its own child, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--workload all`` runs every workload in turn.  Each run is
also appended, with its commit, versions and machine, to
``.perfbench-out/runs.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Dict, List, Optional

from tracing import LAYER_METRICS
from workloads import OUT_DIR

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORKLOADS = ("synth-kleene", "stock-q1q7", "spark-stock-q6", "stream-kleene")

# name -> unit; every workload reports all of them (see README.md).
END_TO_END = {
    "events_per_s": "1/s",
    "event_latency_p50_us": "us",
    "event_latency_p99_us": "us",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed where they apply, but not part of the JSON metrics.
EXTRA = {
    "rss_growth_mb": "MB", "failed_frac": "1",
    "microbatch_p50_ms": "ms", "microbatch_p90_ms": "ms",
}


class Child:
    """One worker process and the messages it sent."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, limit_s: float):
        self.msgs: List[Dict[str, Any]] = []
        self.returncode: Optional[int] = None
        self.died_at: Optional[float] = None
        self.timed_out = False
        r, w = os.pipe()
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--fd", str(w)]
        # The child's own output (Spark logs included) goes to our stderr, so
        # the result stays the last line of stdout.
        proc = subprocess.Popen(cmd, pass_fds=(w,), stdout=sys.stderr, start_new_session=True)
        os.close(w)
        try:
            self._read(r, time.monotonic() + limit_s)
        finally:
            os.close(r)
            _stop_group(proc, wait_s=0 if self.timed_out else 30)
        self.returncode = proc.returncode

    def _read(self, fd: int, deadline: float) -> None:
        buf = b""
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                self.timed_out = True
                return
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.died_at = time.perf_counter()
                return
            buf += chunk
            *lines, buf = buf.split(b"\n")
            self.msgs.extend(json.loads(line) for line in lines if line)

    def of(self, kind: str) -> List[Dict[str, Any]]:
        return [m for m in self.msgs if m["kind"] == kind]

    def one(self, kind: str) -> Optional[Dict[str, Any]]:
        found = self.of(kind)
        return found[-1] if found else None


def _stop_group(proc, wait_s: float) -> None:
    """Stop the child and everything it started (the Spark JVM and Python
    workers share its process group), and wait until all have ended."""
    try:
        proc.wait(timeout=wait_s)
    except subprocess.TimeoutExpired:
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + 10
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            time.sleep(0.2)
            proc.poll()
    proc.wait()


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


# -- metrics -------------------------------------------------------------------
def percentile(samples: List[tuple], q: float) -> float:
    """Nearest-rank percentile of (value, weight) samples; failed operations
    carry value inf, so they miss any latency limit."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    rank = math.ceil(q / 100 * total)
    seen = 0
    for v, w in samples:
        seen += w
        if seen >= rank:
            return v
    return samples[-1][0]


def end_to_end(c: Child, planned_ops: int) -> Dict[str, Any]:
    """End-to-end metrics from one child's messages.

    Throughput is events completed over the summed wall time of the passes
    (jobs on Spark), and the latency percentiles pool every event of the
    timed part.  Events of a pass or micro-batch that did not complete count
    with infinite latency.  The streaming workload is one pass over planned
    micro-batches, and the ones never attempted count as failed too.
    """
    attempts, dones = c.of("attempt"), c.of("done")
    attempted = max(planned_ops, sum(m["ops"] for m in attempts))
    failed = attempted - sum(m["ops"] for m in dones)
    setup = c.one("setup")
    walls = [m["wall_s"] for m in dones]
    events = sum(m["events"] for m in dones)
    growth = [m["rss_growth_mb"] for m in dones if m.get("rss_growth_mb") is not None]
    peaks = [m["peak_rss_mb"] for m in dones]
    lat: List[tuple] = []
    for m in dones:
        if "lat_hist" in m:
            lat.extend((2 ** ((k + 0.5) / 1024) / 1e3, n) for k, n in m["lat_hist"])
        else:  # every event of a job or micro-batch waits for all of it
            lat.append((m["wall_s"] * 1e6, m["events"]))
    out: Dict[str, Any] = {
        "peak_rss_mb": max(peaks) if peaks else None,
        "rss_growth_mb": max(growth) if growth else None,
        "setup_s": statistics.median(setup["reps"]) if setup else None,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if not planned_ops:
        lat += [(math.inf, m["events"]) for m in attempts[len(dones):]]
        out["events_per_s"] = events / sum(walls) if walls else 0.0
        out["job_s"] = statistics.median(walls) if walls and not failed else None
        if dones and "lat_hist" not in dones[0]:
            # A run holds too few jobs for a 99th percentile with ten jobs
            # beyond it; both percentiles report the median job.
            out["event_latency_p50_us"] = out["event_latency_p99_us"] = percentile(lat, 50)
            return {"attempted": attempted, "failed": failed, "metrics": out}
    else:
        start, end = c.one("timed_start"), c.one("end")
        stop = end["t"] if end else (c.died_at or time.perf_counter())
        wall = stop - start["t"] if start else math.nan
        mb = [(m["wall_s"] * 1e3, 1) for m in dones]
        if failed:
            lat.append((math.inf, (c.one("meta") or {}).get("events", 0) - events))
            mb.append((math.inf, failed))
        out.update(
            events_per_s=events / wall if wall > 0 else 0.0,
            job_s=None if failed else sum(walls),
            microbatch_p50_ms=percentile(mb, 50),
            microbatch_p90_ms=percentile(mb, 90),
        )
    out["event_latency_p50_us"] = percentile(lat, 50) if lat else math.inf
    out["event_latency_p99_us"] = percentile(lat, 99) if lat else math.inf
    return {"attempted": attempted, "failed": failed, "metrics": out}


def checks(c: Child) -> List[Dict[str, Any]]:
    found = list(c.of("check"))
    ref = c.one("reference")
    if ref is not None:  # completed micro-batches against the driver engine
        got = [m["digest"] for m in c.of("done")]
        found.append({"name": "stream_equals_driver_prefix",
                      "ok": got == ref["digests"][:len(got)], "microbatches": len(got)})
    return found


def versions() -> Dict[str, Any]:
    out = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for pkg in ("pyspark", "pandas", "pyarrow"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    try:
        out["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        out["commit"] = None
    return out


def clean(v: Any) -> Any:
    """JSON has no inf or nan: a metric that is infinite (failed
    operations past its percentile) or unmeasured becomes null."""
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    t_start = time.monotonic()
    if trace:
        base = Child(name, seed, 0, 0, RUN_LIMIT_S / 2)
        traced = Child(name, seed, 0, 1, RUN_LIMIT_S - (time.monotonic() - t_start))
        children = [base, traced]
    else:
        base = Child(name, seed, seconds, 0, RUN_LIMIT_S)
        children = [base]
    meta = base.one("meta") or {}
    planned = meta.get("microbatches", 0)
    e2e = end_to_end(base, planned)
    all_checks = [chk for c in children for chk in checks(c)]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"), **versions(),
        "meta": meta, "checks": all_checks,
        "exit": [c.returncode for c in children], "timed_out": [c.timed_out for c in children],
        **e2e,
    }
    if trace:
        t_e2e = end_to_end(traced, planned)
        untraced_eps = e2e["metrics"]["events_per_s"]
        traced_eps = t_e2e["metrics"]["events_per_s"]
        record["layers"] = {
            **(traced.one("layers") or {}).get("metrics", {}),
            "mem.rss_growth_mb": e2e["metrics"]["rss_growth_mb"],
            "trace.events_per_s_untraced": untraced_eps,
            "trace.events_per_s_traced": traced_eps,
            "trace.overhead_x": untraced_eps / traced_eps if traced_eps else 0.0,
        }
        record["attempted"] += t_e2e["attempted"]
        record["failed"] += t_e2e["failed"]
    record["correct"] = bool(all_checks) and all(chk["ok"] for chk in all_checks)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record, default=str) + "\n")
    return record


def result_line(rec: Dict[str, Any], trace: int) -> Dict[str, Any]:
    if trace:
        metrics = {k: {"value": clean(rec["layers"].get(k)), "unit": u}
                   for k, u in LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": clean(rec["metrics"][k]), "unit": u} for k, u in END_TO_END.items()}
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def summary(rec: Dict[str, Any], trace: int) -> str:
    lines = [f"== {rec['workload']} seed={rec['seed']} commit={rec['commit']} "
             f"python={rec['python']} pyspark={rec['pyspark']} pandas={rec['pandas']} "
             f"pyarrow={rec['pyarrow']} nproc={rec['nproc']} "
             f"gen_s={rec['meta'].get('gen_s', float('nan')):.3f}"]
    if "spark_master" in rec["meta"]:
        lines.append(f"   spark master={rec['meta']['spark_master']} "
                     f"shuffle_partitions={rec['meta']['shuffle_partitions']}")
    for chk in rec["checks"]:
        lines.append(f"   check {chk['name']}: {'ok' if chk['ok'] else 'FAILED'} "
                     + json.dumps({k: v for k, v in chk.items() if k not in ("kind", "name", "ok")}))
    units = {**END_TO_END, **EXTRA}
    for k, v in rec["metrics"].items():
        if k in units:
            lines.append(f"   {k:<24} {v if v is not None else 'n/a':>14} {units[k]}")
    if rec["failed"]:
        lines.append(f"   {rec['failed']} of {rec['attempted']} operations failed "
                     f"(child exit codes {rec['exit']})")
    if trace:
        for k, u in LAYER_METRICS.items():
            v = rec["layers"].get(k)
            lines.append(f"   {k:<30} {'n/a' if v is None else format(v, '.6g'):>14} {u}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run it from the root of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace)
        if not rec["attempted"]:
            print(f"run.py: {name} attempted nothing (child exit codes {rec['exit']})",
                  file=sys.stderr)
            return 1
        print(summary(rec, args.trace), flush=True)
        results.append((name, rec))
    if len(results) == 1:
        print(json.dumps(result_line(results[0][1], args.trace)))
    else:
        lines = {name: result_line(rec, args.trace) for name, rec in results}
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{n}.{k}": v for n, r in lines.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
