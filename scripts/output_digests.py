"""SHA-256 of every artifact the CLI writes for twelve fixed runs, eleven on the bundled data.

Compare the printed lines between two checkouts to show that a change keeps
the outputs byte-identical (or to see exactly which files it changes):

    PYTHONPATH=src python scripts/output_digests.py

The runs are ``optimize --seed 42`` (hybrid), the same at
``--cardinality 1`` and ``--cardinality 9`` (k = 1 and k = n - 1 of the
10 bundled tickers, the selections that skip the anneal), the same at
``--cardinality 3 --lambda 0.000001`` (lambda weights only the
fully_quantum spend penalty now, so this hybrid run exercises no repair;
it keeps the name ``optimize-hybrid-repair`` from when a weak penalty
sent every restart through one, so its lines compare across checkouts),
``optimize --seed 42 --strategy fully_quantum`` at ``--budget 100000``
and at the default budget of 1,000,000, ``backtest --seed 42 --budget
100000 --benchmark TECH1`` once per strategy, and a backtest from a config file that sets
every config key and every sampler key (its ``out_dir`` is overridden by
``--out-dir``), once as it is (hybrid) and once with ``--strategy
fully_quantum``, the one run whose fully_quantum opening purchase
estimates from a window before its start date; the script fails when
that file misses a key the CLI accepts. An eleventh run repeats
``optimize --seed 42`` on a rewritten copy of the bundled prices, with
unpadded dates (``2023-1-2``), one quoted field and CRLF line ends, so
ingest takes its per-string date parse and ``csv.reader`` paths; the
script fails unless its artifacts hash as the plain run's do. A twelfth
runs ``optimize --seed 42`` on 20 tickers, the ``gen-data`` markets of
seeds 1 and 2 side by side with the second one's tickers renamed, so the
selection's swap anneal over k-subsets and its swap descent run at the
universe sizes the benchmark's ``select`` workload uses. The config file,
the rewritten and 20-ticker prices and sectors, and the artifacts go to
a temporary directory that is removed afterwards.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from datetime import date
from pathlib import Path

import numpy as np

from annealfolio import synthetic
from annealfolio.cli import _CONFIG_KEYS, _SAMPLER_KEYS, main as cli
from annealfolio.data import bundled_prices_path, bundled_sectors_path
from annealfolio.marketdata import PriceMatrix, SectorMap

RUNS = {
    "optimize-hybrid": ["optimize", "--seed", "42"],
    "optimize-hybrid-k1": ["optimize", "--seed", "42", "--cardinality", "1"],
    "optimize-hybrid-k9": ["optimize", "--seed", "42", "--cardinality", "9"],
    "optimize-hybrid-repair": ["optimize", "--seed", "42", "--cardinality", "3", "--lambda", "0.000001"],
    "optimize-fully_quantum": ["optimize", "--seed", "42", "--strategy", "fully_quantum",
                               "--budget", "100000"],
    "optimize-fully_quantum-default": ["optimize", "--seed", "42", "--strategy", "fully_quantum"],
    "backtest-hybrid": ["backtest", "--seed", "42", "--budget", "100000",
                        "--benchmark", "TECH1", "--strategy", "hybrid"],
    "backtest-fully_quantum": ["backtest", "--seed", "42", "--budget", "100000",
                               "--benchmark", "TECH1", "--strategy", "fully_quantum"],
    "backtest-config": ["backtest", "--config", "{config}"],
    "backtest-config-fully_quantum": ["backtest", "--config", "{config}", "--strategy", "fully_quantum"],
    "optimize-hybrid-rewritten-csv": ["optimize", "--seed", "42", "--prices", "{rewritten}"],
    "optimize-hybrid-20-tickers": ["optimize", "--seed", "42", "--prices", "{wide}", "--sectors", "{wide_sectors}"],
}

ALL_KEYS_CONFIG = {
    "benchmark": {"TECH1": 50, "ENRG1": 50}, "budget": 100000, "strategy": "hybrid",
    "cardinality": 3, "q": 1, "lambda": 2, "seed": 42, "period_months": 3,
    "risk_return_threshold": 0, "risk_vol_quantile": 0.8, "lookback_days": 63,
    "returns_method": "log", "annualization_factor": 252, "risk_free_rate": 0,
    "sampler": {"sweeps": 200, "restarts": 8, "t_initial": 5, "t_final": 0.001},
    "start": "2023-03-01", "end": "2023-12-29", "out_dir": "x",
}


def rewritten_prices() -> str:
    """The bundled prices with unpadded dates, the first ticker quoted, and CRLF line ends."""
    header, *records = Path(bundled_prices_path()).read_text(encoding="utf-8").splitlines()
    lines = [header]
    for record in records:
        day, ticker, close = record.split(",")
        d = date.fromisoformat(day)
        lines.append(f"{d.year}-{d.month}-{d.day},{ticker},{close}")
    day, ticker, close = lines[1].split(",")
    lines[1] = f'{day},"{ticker}",{close}'
    return "\r\n".join(lines) + "\r\n"


def wide_market() -> tuple[str, str]:
    """Prices and sectors CSV of 20 tickers: ``gen-data`` seeds 1 and 2, the second's tickers suffixed ``X``."""
    (a, a_sectors), (b, b_sectors) = synthetic.generate_dataset(seed=1), synthetic.generate_dataset(seed=2)
    prices = PriceMatrix(a.dates, a.tickers + tuple(t + "X" for t in b.tickers), np.hstack([a.values, b.values]))
    sectors = SectorMap({**a_sectors.entries, **{t + "X": s for t, s in b_sectors.entries.items()}})
    return synthetic.prices_to_csv(prices), synthetic.sectors_to_csv(sectors)


def main() -> int:
    missing = sorted(_CONFIG_KEYS - {"prices", "sectors", *ALL_KEYS_CONFIG})
    missing += sorted(f"sampler.{k}" for k in _SAMPLER_KEYS - set(ALL_KEYS_CONFIG["sampler"]))
    if missing:
        print(f"ALL_KEYS_CONFIG misses {missing}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "all_keys.json"
        config.write_text(json.dumps(
            {"prices": bundled_prices_path(), "sectors": bundled_sectors_path(), **ALL_KEYS_CONFIG}
        ), encoding="utf-8")
        rewritten = Path(tmp) / "rewritten_prices.csv"
        rewritten.write_bytes(rewritten_prices().encode("utf-8"))
        wide, wide_sectors = Path(tmp) / "wide_prices.csv", Path(tmp) / "wide_sectors.csv"
        for path, text in zip((wide, wide_sectors), wide_market()):
            path.write_text(text, encoding="utf-8")
        paths = {"config": config, "rewritten": rewritten, "wide": wide, "wide_sectors": wide_sectors}
        digests: dict[str, dict[str, str]] = {}
        for name, argv in RUNS.items():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli([a.format(**paths) for a in argv] + ["--out-dir", str(out)])
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            digests[name] = {}
            for path in sorted(out.iterdir()):
                digest = digests[name][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.name}")
    if digests["optimize-hybrid-rewritten-csv"] != digests["optimize-hybrid"]:
        print("optimize-hybrid-rewritten-csv: artifacts differ from optimize-hybrid's", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
