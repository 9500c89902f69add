"""Run one evaluation table of the paper and print it.

Run: spark-submit jobs/run_table.py --table N   (N = 1..6)

Tables 1-5 (paper Figures 7-9) are single-core engine runs, as in the paper;
Spark only launches the job. Table 6 (extra) compares driver-sequential with
Spark-distributed PARTITION BY on the partitioned stock queries.
"""
from __future__ import annotations

import argparse
import sys

from repro.harness import experiments
from repro.harness.metrics import format_table

TABLES = {
    1: experiments.table1_sequence,
    2: experiments.table2_window,
    3: experiments.table3_selection,
    4: experiments.table4_operators,
    5: experiments.table5_stock,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", type=int, required=True, choices=range(1, 7))
    ap.add_argument(
        "--budget", type=float, default=None,
        help="seconds of measurement per cell (default REPRO_BENCH_BUDGET or 0.4)",
    )
    ap.add_argument(
        "--events", type=int, default=200_000,
        help="pre-generated stream length",
    )
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.table in TABLES:
        rows = TABLES[args.table](
            n_events=args.events, budget_s=args.budget, seed=args.seed
        )
    else:
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("repro-table6")
            .config("spark.sql.shuffle.partitions", "16")
            .getOrCreate()
        )
        try:
            rows = experiments.table6_spark(
                spark, n_events=min(args.events, 50_000), seed=args.seed
            )
        finally:
            spark.stop()
    print(format_table(rows))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
