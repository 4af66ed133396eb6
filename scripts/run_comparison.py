#!/usr/bin/env python3
"""Reproduce the coordinator-vs-rolling comparison on the Table-1 scenarios.

For each scenario this runs ``upgradesim --mode compare`` (the coordinator
once, the rolling baseline at batch sizes 1-4 averaged over host orderings),
prints its comparison table and leaves the CLI's artifacts, comparison.csv
among them, under ``<out>/<scenario>/``. The rows are exactly those of the
CLI run with the same ``--seed``.

Usage:
    python scripts/run_comparison.py [--out out/comparison] [--seed N]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from upgradesim import cli  # noqa: E402

SCENARIOS = ("table1-scenario-a", "table1-scenario-b")
WIDTHS = [18, 10, 9, 9, 9, 9, 12, 10]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/comparison")
    parser.add_argument(
        "--seed", type=int, default=None, help="passed on as upgradesim --seed when given"
    )
    args = parser.parse_args()

    status = cli.EXIT_OK
    for name in SCENARIOS:
        out = Path(args.out) / name
        argv = ["--scenario", str(ROOT / "scenarios" / f"{name}.json"), "--mode", "compare",
                "--out", str(out)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        code = cli.main(argv)
        status = status or code
        print(f"== {name}")
        csv = out / "comparison.csv"
        if not csv.exists():
            print(f"  no comparison written (upgradesim exit code {code})\n")
            continue
        for line in csv.read_text().splitlines():
            print("  ".join(c.ljust(w) for c, w in zip(line.split(","), WIDTHS)))
        print()
    print(f"artifacts written under {args.out}/")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
