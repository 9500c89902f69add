"""Run one evaluation table of the paper and print it.

Run: spark-submit jobs/run_table.py --table N   (N = 1..6)

Tables 1-5 (paper Figures 7-9) are single-core engine runs, as in the paper;
Spark only launches the job. Table 6 (extra) compares driver-sequential with
Spark-distributed PARTITION BY on the partitioned stock queries.
"""
from __future__ import annotations

import argparse
import sys

from repro.harness.experiments import TABLES
from repro.harness.metrics import format_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", type=int, required=True, choices=sorted(TABLES))
    ap.add_argument(
        "--budget", type=float, default=None,
        help="seconds of measurement per cell, tables 1-5 "
        "(default REPRO_BENCH_BUDGET or 0.4)",
    )
    ap.add_argument(
        "--events", type=int, default=None,
        help="pre-generated stream length (default: the table's own)",
    )
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    kw = {"seed": args.seed}
    if args.events is not None:
        kw["n_events"] = args.events
    if args.table != 6:
        rows = TABLES[args.table](budget_s=args.budget, **kw)
    else:
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("repro-table6")
            .config("spark.sql.shuffle.partitions", "16")
            .getOrCreate()
        )
        try:
            rows = TABLES[6](spark, **kw)
        finally:
            spark.stop()
    print(format_table(rows))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
