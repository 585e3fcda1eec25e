import json
from datetime import date

import numpy as np
import pytest

from annealfolio.data import bundled_prices_path, bundled_sectors_path
from annealfolio.marketdata import PriceMatrix, SectorMap, load_prices, load_sectors
from annealfolio.synthetic import business_days


def grw_matrix(params, n_days=80, start=date(2023, 1, 2), seed=0):
    """Geometric-random-walk price matrix from (ticker, p0, drift, vol) rows."""
    tickers = [p[0] for p in params]
    p0 = np.array([p[1] for p in params], dtype=float)
    drift = np.array([p[2] for p in params], dtype=float)
    vol = np.array([p[3] for p in params], dtype=float)
    gen = np.random.Generator(np.random.PCG64(seed))
    shocks = gen.standard_normal((n_days - 1, len(tickers)))
    paths = np.vstack([p0, p0 * np.exp(np.cumsum(drift + vol * shocks, axis=0))])
    order = sorted(range(len(tickers)), key=lambda i: tickers[i])
    return PriceMatrix(
        tuple(business_days(start, n_days)),
        tuple(tickers[i] for i in order),
        paths[:, order],
    )


def reference_artifacts(report) -> tuple[str, str]:
    """The spec of ``BacktestReport.artifacts``: the report as a dict through
    ``json.dumps(indent=2, sort_keys=True)``, and the plot CSV written row by row."""
    as_dict = {
        "dates": [d.isoformat() for d in report.dates],
        "algo": list(report.algo_values),
        "bench": list(report.bench_values),
        "events": [e.to_dict() for e in report.events],
        "final": {"algo": report.final_algo, "bench": report.final_bench},
        "initial": report.initial_holdings,
        "config": report.config_echo,
    }
    lines = ["date,algo_value,bench_value"]
    for d, a, b in zip(report.dates, report.algo_values, report.bench_values):
        lines.append(f"{d.isoformat()},{a!r},{b!r}")
    return json.dumps(as_dict, indent=2, sort_keys=True) + "\n", "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def bundled_prices():
    return load_prices(bundled_prices_path())


@pytest.fixture(scope="session")
def bundled_sectors():
    return load_sectors(bundled_sectors_path())


@pytest.fixture
def two_sector_map():
    return SectorMap(
        {"AAA": "Tech", "BBB": "Tech", "CCC": "Energy", "DDD": "Energy", "EEE": "Energy"}
    )
