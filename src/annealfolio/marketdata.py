"""Price ingestion and return/covariance estimation.

Prices arrive as CSV (``date,ticker,close``), are aligned on the
intersection of dates where every ticker trades, and feed the expected
return vector and covariance matrix used by every optimizer downstream.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError

DAILY_ANNUALIZATION = 252.0
MONTHLY_ANNUALIZATION = 12.0

# PSD tolerance: smallest eigenvalue >= -PSD_RTOL * largest eigenvalue.
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class PricePoint:
    """A single close observation for one ticker on one date."""

    date: date
    ticker: str
    close: float

    def __post_init__(self):
        if not (self.close > 0 and math.isfinite(self.close)):
            raise InputError(
                f"close must be positive and finite, got {self.close} for {self.ticker} on {self.date}"
            )


@dataclass(frozen=True)
class PriceMatrix:
    """Date-aligned close prices. Rows are dates (ascending), columns are tickers.

    Instances are immutable; every cell holds a price (no gaps survive
    alignment).
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if vals.shape != (len(self.dates), len(self.tickers)):
            raise InputError(
                f"price matrix shape {vals.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise InputError("dates must be strictly increasing")
        if vals.size and not (np.all(vals > 0) and np.all(np.isfinite(vals))):
            raise InputError("all prices must be positive and finite")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def column(self, ticker: str) -> np.ndarray:
        return self.values[:, self._ticker_index(ticker)]

    def _ticker_index(self, ticker: str) -> int:
        try:
            return self.tickers.index(ticker)
        except ValueError:
            raise InputError(f"unknown ticker {ticker!r}") from None

    def prices_at(self, d: date) -> dict[str, float]:
        """Closes for every ticker on trading date ``d``."""
        row = bisect_left(self.dates, d)
        if row == len(self.dates) or self.dates[row] != d:
            raise InputError(f"{d} is not a trading date in this dataset")
        return {t: float(self.values[row, j]) for j, t in enumerate(self.tickers)}

    def restrict(self, tickers: Sequence[str]) -> "PriceMatrix":
        """Column subset, in the order given."""
        cols = [self._ticker_index(t) for t in tickers]
        return PriceMatrix(self.dates, tuple(tickers), self.values[:, cols])

    def window(self, start: date | None = None, end: date | None = None) -> "PriceMatrix":
        """Row subset with start <= date <= end."""
        keep = [
            i
            for i, d in enumerate(self.dates)
            if (start is None or d >= start) and (end is None or d <= end)
        ]
        return PriceMatrix(tuple(self.dates[i] for i in keep), self.tickers, self.values[keep])

    def first_date_on_or_after(self, d: date) -> date | None:
        row = bisect_left(self.dates, d)
        return self.dates[row] if row < len(self.dates) else None


@dataclass(frozen=True)
class ReturnsMatrix:
    """Per-period returns; row t covers the move into ``dates[t]``."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if vals.shape != (len(self.dates), len(self.tickers)):
            raise InputError("returns shape does not match dates x tickers")

    def window(self, start: date | None = None, end: date | None = None) -> "ReturnsMatrix":
        keep = [
            i
            for i, d in enumerate(self.dates)
            if (start is None or d >= start) and (end is None or d <= end)
        ]
        return ReturnsMatrix(tuple(self.dates[i] for i in keep), self.tickers, self.values[keep])

    def column(self, ticker: str) -> np.ndarray:
        try:
            j = self.tickers.index(ticker)
        except ValueError:
            raise InputError(f"unknown ticker {ticker!r}") from None
        return self.values[:, j]


@dataclass(frozen=True)
class SectorMap:
    """Ticker -> sector name."""

    entries: dict[str, str]

    def sector_of(self, ticker: str) -> str:
        try:
            return self.entries[ticker]
        except KeyError:
            raise InputError(f"no sector recorded for ticker {ticker!r}") from None

    def tickers_in(self, sectors: Iterable[str]) -> tuple[str, ...]:
        wanted = set(sectors)
        return tuple(sorted(t for t, s in self.entries.items() if s in wanted))


@dataclass(frozen=True)
class AssetStats:
    """Expected returns and covariance, scaled by the annualization factor.

    ``mu`` and ``sigma`` are stored already multiplied by
    ``annualization_factor``; ``period`` records the sampling frequency the
    estimates came from.
    """

    tickers: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    period: str = "daily"
    annualization_factor: float = DAILY_ANNUALIZATION

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        n = len(self.tickers)
        if mu.shape != (n,) or sigma.shape != (n, n):
            raise InputError("stats dimensions do not match ticker count")
        if self.period not in ("daily", "monthly"):
            raise InputError(f"unknown period {self.period!r}")
        if not self.annualization_factor > 0:
            raise InputError("annualization_factor must be positive")
        if n and not np.allclose(sigma, sigma.T, atol=0.0, rtol=0.0):
            raise InputError("covariance matrix must be exactly symmetric")
        if n:
            eigs = np.linalg.eigvalsh(sigma)
            if eigs[0] < -PSD_RTOL * max(eigs[-1], 0.0):
                raise InputError(
                    f"covariance not positive semidefinite (min eigenvalue {eigs[0]:.3e})"
                )

    @property
    def n(self) -> int:
        return len(self.tickers)

    def subset(self, indices: Sequence[int]) -> "AssetStats":
        idx = list(indices)
        return AssetStats(
            tuple(self.tickers[i] for i in idx),
            self.mu[idx],
            self.sigma[np.ix_(idx, idx)],
            self.period,
            self.annualization_factor,
        )

    def volatilities(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.sigma), 0.0, None))


def _text_lines(source) -> Iterator[str]:
    """Accept a path, text, bytes, or file-like object; yield decoded lines."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, (str, Path)):
        text = str(source)
        if "\n" in text:  # inline CSV content
            yield from io.StringIO(text, newline="")
            return
        if not Path(text).exists():
            raise InputError(f"input file not found: {text}")
        with open(text, "r", encoding="utf-8", newline="") as fh:
            yield from fh
        return
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    yield from io.StringIO(data, newline="")


def _read_csv(source, header: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    reader = csv.reader(_text_lines(source))
    rows: list[tuple[int, list[str]]] = []
    got_header = False
    for lineno, fields in enumerate(reader, start=1):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        fields = [f.strip() for f in fields]
        if not got_header:
            if [f.lower() for f in fields] != list(header):
                raise InputError(
                    f"line {lineno}: expected header {','.join(header)!r}, got {','.join(fields)!r}"
                )
            got_header = True
            continue
        if len(fields) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        rows.append((lineno, fields))
    if not got_header:
        raise InputError("empty input: missing header row")
    return rows


def load_prices(source) -> PriceMatrix:
    """Parse ``date,ticker,close`` CSV into an aligned PriceMatrix.

    Dates are kept only when every ticker has a close (intersection
    alignment); tickers come out sorted lexicographically and dates
    ascending. Raises :class:`InputError` with the offending line number on
    malformed rows, non-positive or non-finite prices, or duplicate
    (date, ticker) pairs.
    """
    per_ticker: dict[str, dict[date, float]] = {}
    seen: set[tuple[date, str]] = set()
    parsed: dict[str, date] = {}  # every ticker repeats the same date strings
    for lineno, (date_str, ticker, close_str) in _read_csv(source, ("date", "ticker", "close")):
        d = parsed.get(date_str)
        if d is None:
            try:
                d = parsed[date_str] = datetime.strptime(date_str, "%Y-%m-%d").date()
            except ValueError:
                raise InputError(f"line {lineno}: bad date {date_str!r} (expected YYYY-MM-DD)") from None
        try:
            close = float(close_str)
        except ValueError:
            raise InputError(f"line {lineno}: bad close {close_str!r}") from None
        if not math.isfinite(close):
            raise InputError(f"line {lineno}: non-finite close {close_str} for {ticker}")
        if not close > 0:
            raise InputError(f"line {lineno}: non-positive close {close_str} for {ticker}")
        if not ticker:
            raise InputError(f"line {lineno}: empty ticker")
        if (d, ticker) in seen:
            raise InputError(f"line {lineno}: duplicate entry for ({d}, {ticker})")
        seen.add((d, ticker))
        per_ticker.setdefault(ticker, {})[d] = close

    if not per_ticker:
        raise InputError("no price rows found")
    tickers = sorted(per_ticker)
    common: set[date] | None = None
    for t in tickers:
        ds = set(per_ticker[t])
        common = ds if common is None else common & ds
    if not common:
        raise InputError("no date is covered by every ticker (empty intersection)")
    dates = sorted(common)
    values = np.array([[per_ticker[t][d] for t in tickers] for d in dates], dtype=float)
    return PriceMatrix(tuple(dates), tuple(tickers), values)


def load_sectors(source) -> SectorMap:
    """Parse ``ticker,sector`` CSV into a SectorMap."""
    entries: dict[str, str] = {}
    for lineno, (ticker, sector) in _read_csv(source, ("ticker", "sector")):
        if not ticker or not sector:
            raise InputError(f"line {lineno}: empty ticker or sector")
        if ticker in entries:
            raise InputError(f"line {lineno}: duplicate sector entry for {ticker}")
        entries[ticker] = sector
    return SectorMap(entries)


def compute_returns(prices: PriceMatrix, method: str = "simple") -> ReturnsMatrix:
    """Per-period returns; ``simple`` is p_t/p_{t-1} - 1, ``log`` is ln(p_t/p_{t-1})."""
    if method not in ("simple", "log"):
        raise InputError(f"unknown return method {method!r}")
    if len(prices.dates) < 2:
        raise InputError("need at least 2 dates to compute returns")
    ratio = prices.values[1:] / prices.values[:-1]
    vals = ratio - 1.0 if method == "simple" else np.log(ratio)
    return ReturnsMatrix(prices.dates[1:], prices.tickers, vals)


def estimate_stats(
    returns: ReturnsMatrix,
    annualization_factor: float = DAILY_ANNUALIZATION,
    period: str = "daily",
) -> AssetStats:
    """Sample mean/covariance of returns, scaled by the annualization factor.

    Covariance uses the unbiased T-1 divisor and is symmetrized by
    averaging with its transpose.
    """
    vals = returns.values
    if vals.shape[0] < 2:
        raise InputError("need at least 2 return rows to estimate covariance")
    mu = vals.mean(axis=0) * annualization_factor
    sigma = np.cov(vals, rowvar=False, ddof=1) * annualization_factor
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    sigma = (sigma + sigma.T) / 2.0
    return AssetStats(returns.tickers, mu, sigma, period, annualization_factor)
