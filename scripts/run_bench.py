#!/usr/bin/env python3
"""Run the full method-comparison experiment on the 49-node two-tree network.

Writes one CSV row per (setting, n, replicate, method) and prints the
per-cell summary table.  Equivalent CLI invocation:

    losstomo bench --topology fixtures/layered49.topo \
        --grid fixtures/table_grid.txt --out bench.csv
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from losstomo import fixtures
from losstomo.bench import DEFAULT_METHODS, ExperimentGrid, run_grid
from losstomo.estimators import METHODS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=100)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--with-nem", action="store_true",
                        help="also run the enumeration oracle on a 12-link network")
    args = parser.parse_args()

    net = fixtures.layered49()
    grid = ExperimentGrid(
        beta_settings=[(1, 100), (5, 1000), (2, 1000), (1, 1000)],
        probe_counts=[50, 100, 200, 500],
        replicates=args.replicates,
        methods=DEFAULT_METHODS,
        master_seed=args.seed,
    )
    report = run_grid(grid, net, workers=args.workers)
    Path(args.out).write_text(report.to_csv(), encoding="utf-8")
    print(report.summary())
    print(f"\nwrote {args.out} ({len(report.rows)} rows)")

    if args.with_nem:
        small = fixtures.twotree12()
        oracle_grid = ExperimentGrid(
            beta_settings=[(1, 100)], probe_counts=[200],
            replicates=min(args.replicates, 20),
            methods=METHODS, master_seed=args.seed)
        oracle_report = run_grid(oracle_grid, small, workers=args.workers)
        oracle_out = Path(args.out).with_suffix(".oracle.csv")
        oracle_out.write_text(oracle_report.to_csv(), encoding="utf-8")
        print()
        print(oracle_report.summary())
        print(f"\nwrote {oracle_out} ({len(oracle_report.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
