"""End-to-end demo on the bundled synthetic dataset.

Runs both construction strategies, then a quarterly rebalancing backtest
of each against a one-ticker benchmark, all at the same budget, leaving
every artifact in ./demo_out.

    python scripts/demo_workflow.py [--seed 42] [--budget 1000000]
"""

import argparse
import json
from pathlib import Path

from annealfolio.cli import main as cli


def run(argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"command failed ({code}): {argv}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--budget", type=float, default=1_000_000.0)
    ap.add_argument("--out-dir", default="demo_out")
    args = ap.parse_args()
    out = Path(args.out_dir)

    print("== hybrid construction ==")
    run(["optimize", "--seed", args.seed, "--budget", args.budget,
         "--out-dir", out / "hybrid"])

    print("\n== integer-share construction ==")
    run(["optimize", "--seed", args.seed, "--strategy", "fully_quantum",
         "--budget", args.budget, "--out-dir", out / "shares"])

    for strategy, folder in (("hybrid", "backtest"), ("fully_quantum", "backtest_shares")):
        print(f"\n== {strategy} quarterly rebalancing backtest vs buy-and-hold TECH1 ==")
        run(["backtest", "--seed", args.seed, "--budget", args.budget, "--strategy", strategy,
             "--benchmark", "TECH1", "--out-dir", out / folder])
        report = json.loads((out / folder / "backtest_report.json").read_text())
        print(f"\nevents: {[e['date'] for e in report['events']]}")
    print(f"artifacts under {out}/")


if __name__ == "__main__":
    main()
