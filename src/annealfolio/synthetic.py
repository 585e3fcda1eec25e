"""Seeded synthetic market data for demos and tests.

Ten tickers across six sectors follow geometric random walks:

    p_{t+1} = p_t * exp(drift + vol * z_t),  z_t ~ N(0, 1) from PCG64(seed)

over consecutive business days. The parameter table below is fixed so the
checked-in dataset regenerates bit for bit with the default seed.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .errors import InputError
from .marketdata import PriceMatrix, SectorMap

DEFAULT_SEED = 20230102
DEFAULT_DAYS = 280
DEFAULT_START = date(2023, 1, 2)

# ticker, sector, start price, daily drift, daily volatility
ASSET_PARAMS: tuple[tuple[str, str, float, float, float], ...] = (
    ("TECH1", "Technology", 3600.0, 0.0009, 0.016),
    ("TECH2", "Technology", 7800.0, 0.0006, 0.014),
    ("FINA1", "Financials", 2900.0, 0.0004, 0.013),
    ("FINA2", "Financials", 2600.0, 0.0007, 0.015),
    ("FINA3", "Financials", 5200.0, -0.0006, 0.020),
    ("STPL1", "ConsumerStaples", 4300.0, 0.0005, 0.010),
    ("STPL2", "ConsumerStaples", 2800.0, -0.0003, 0.018),
    ("INDU1", "Industrials", 6400.0, 0.0011, 0.017),
    ("ENRG1", "Energy", 8900.0, 0.0008, 0.019),
    ("TELE1", "Telecom", 3100.0, 0.0003, 0.012),
)


def business_days(start: date, count: int) -> list[date]:
    """The first ``count`` weekdays on or after ``start``; InputError, before any list is built, past 9999-12-31."""
    if np.busday_offset(start, count - 1, roll="forward") > np.datetime64(date.max):
        raise InputError(f"{count} business days from {start} run past {date.max}")
    return np.busday_offset(start, np.arange(count), roll="forward").tolist()


def generate_dataset(
    seed: int = DEFAULT_SEED,
    n_days: int = DEFAULT_DAYS,
    start: date = DEFAULT_START,
) -> tuple[PriceMatrix, SectorMap]:
    """Deterministic price matrix and sector map; prices rounded to cents."""
    tickers = [p[0] for p in ASSET_PARAMS]
    p0 = np.array([p[2] for p in ASSET_PARAMS])
    drift = np.array([p[3] for p in ASSET_PARAMS])
    vol = np.array([p[4] for p in ASSET_PARAMS])

    dates = business_days(start, n_days)
    gen = np.random.Generator(np.random.PCG64(seed))
    shocks = gen.standard_normal((n_days - 1, len(tickers)))
    log_paths = np.cumsum(drift + vol * shocks, axis=0)
    paths = np.vstack([p0, p0 * np.exp(log_paths)])
    paths = np.round(paths, 2)

    # column order must match the sorted-ticker convention of load_prices
    order = sorted(range(len(tickers)), key=lambda i: tickers[i])
    matrix = PriceMatrix(
        tuple(dates), tuple(tickers[i] for i in order), paths[:, order]
    )
    sectors = SectorMap({p[0]: p[1] for p in ASSET_PARAMS})
    return matrix, sectors


def prices_to_csv(matrix: PriceMatrix) -> str:
    lines = ["date,ticker,close"]
    for i, d in enumerate(matrix.dates):
        for j, t in enumerate(matrix.tickers):
            lines.append(f"{d.isoformat()},{t},{matrix.values[i, j]:.2f}")
    return "\n".join(lines) + "\n"


def sectors_to_csv(sectors: SectorMap) -> str:
    lines = ["ticker,sector"]
    for t in sorted(sectors.entries):
        lines.append(f"{t},{sectors.entries[t]}")
    return "\n".join(lines) + "\n"
