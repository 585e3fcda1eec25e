"""Price ingestion and return/covariance estimation.

Prices arrive as CSV (``date,ticker,close``), are aligned on the
intersection of dates where every ticker trades, and feed the expected
return vector and covariance matrix used by every optimizer downstream:
the sample mean and covariance of daily simple returns, annualized by
``DAILY_ANNUALIZATION`` trading days.

The decoded text is split into columns (by one split when each line is a
quote-free record of the header's width, else by one ``csv.reader`` pass).
The columns are reshaped into the matrix when they form a full date-major
grid, and otherwise read record by record into an aligned matrix, with the
same result. A leading UTF-8 byte order mark is dropped; bytes that are not
UTF-8 are rejected with the offset of the first bad one. Errors name the
line of the first bad record in file order; a bad header or field count
anywhere is reported before any bad value.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime
from itertools import chain, compress, count
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError

DAILY_ANNUALIZATION = 252.0

# PSD tolerance: smallest eigenvalue >= -PSD_RTOL * largest eigenvalue.
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class PriceMatrix:
    """Date-aligned close prices. Rows are dates (ascending), columns are tickers.

    Instances are immutable; every cell holds a price (no gaps survive
    alignment). ``values`` is always C-ordered: the pipeline's sums, and so
    the last digits of its results, follow the memory layout.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if vals.shape != (len(self.dates), len(self.tickers)):
            raise InputError(
                f"price matrix shape {vals.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            raise InputError("dates must be strictly increasing")
        if vals.size and not (np.all(vals > 0) and np.all(np.isfinite(vals))):
            raise InputError("all prices must be positive and finite")

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
        lo = 0 if start is None else bisect_left(self.dates, start)
        hi = len(self.dates) if end is None else bisect_right(self.dates, end)
        return PriceMatrix(self.dates[lo:hi], self.tickers, self.values[lo:hi].copy())

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


@dataclass(frozen=True)
class SectorMap:
    """Ticker -> sector name."""

    entries: dict[str, str]

    def sector_of(self, ticker: str) -> str:
        try:
            return self.entries[ticker]
        except KeyError:
            raise InputError(f"no sector recorded for ticker {ticker!r}") from None


@dataclass(frozen=True)
class AssetStats:
    """Expected returns and covariance, already annualized."""

    tickers: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        n = len(self.tickers)
        if mu.shape != (n,) or sigma.shape != (n, n):
            raise InputError("stats dimensions do not match ticker count")
        finite_mu, finite_sigma = np.isfinite(mu), np.isfinite(sigma)
        if not (finite_mu.all() and finite_sigma.all()):
            bad = ~(finite_mu & finite_sigma.all(axis=0) & finite_sigma.all(axis=1))
            i = int(bad.argmax())
            what = "covariance" if finite_mu[i] else "expected return"
            raise InputError(f"non-finite {what} for {self.tickers[i]}")
        if n and not np.array_equal(sigma, sigma.T):
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
        )

    def volatilities(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.sigma), 0.0, None))


def _decode(data: bytes, name: str) -> str:
    """UTF-8 text of ``data`` without a BOM; InputError at the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig counts positions from after a byte order mark
        offset = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        raise InputError(
            f"{name}: not UTF-8 text (byte {data[offset]:#04x} at offset {offset})"
        ) from None


def _read_text(source) -> str:
    """Accept a path, text, bytes, or file-like object; return its text without a BOM.

    Bytes are always CSV content, and so is a ``str`` that holds a line end
    (``\\n`` or ``\\r``); any other ``str`` or ``Path`` names a file. Bytes,
    files and binary streams must be UTF-8; an undecodable one raises
    InputError naming the source and the offset of its first bad byte.
    """
    if isinstance(source, bytes):
        return _decode(source, "input bytes")
    if isinstance(source, str) and ("\n" in source or "\r" in source):
        return source.removeprefix("\ufeff")
    if isinstance(source, (str, Path)):
        text = str(source)
        if not Path(text).exists():
            raise InputError(f"input file not found: {text}")
        return _decode(Path(text).read_bytes(), text)
    name = getattr(source, "name", "input stream")
    try:
        data = source.read()
    except UnicodeDecodeError as exc:  # a text stream decodes as it reads
        raise InputError(f"{name}: cannot decode text ({exc})") from None
    return _decode(data, name) if isinstance(data, bytes) else data.removeprefix("\ufeff")


def _uniform_fields(text: str, width: int) -> list[str] | None:
    """Every field of ``text`` in file order, when each line is a quote-free record of ``width`` >= 2 fields.

    ``csv.reader`` splits such text at its commas and line ends unless it
    holds a NUL or a field over ``csv.field_size_limit()``; then, and for
    any other text, this gives None. The separators are checked on the
    UTF-8 bytes at once, with no per-line work, and the text is split once.
    """
    if width < 2 or '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    data = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))  # each field's end
    line_ends = data[ends] == ord("\n")
    records, rest = divmod(len(line_ends), width)
    # a blank line or a field count off width moves a line end off every width-th place
    if rest or np.count_nonzero(line_ends) != records or not line_ends[width - 1 :: width].all():
        return None
    if np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit():  # bytes, at least the characters
        return None
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # the empty field after the final line end
    return fields


def _read_csv(source, header: tuple[str, ...]) -> tuple[list[int], list[list[str]]]:
    """Parse CSV into the record numbers of its data records and their stripped columns.

    Blank records are skipped. The first other record must match ``header``
    (case-insensitively) and every later one must have as many fields; the
    first record in file order that breaks either rule is reported, and
    then one that ``csv.reader`` cannot read. Line numbers count records,
    so a quoted line break does not start a new one.

    Text whose every line is a quote-free record of the header's width
    (the usual file) is split by :func:`_uniform_fields`, and its fields are
    stripped only when the text holds a character ``str.strip`` removes;
    ``csv.reader`` reads any other text.
    """
    text = _read_text(source)
    width = len(header)
    fields = _uniform_fields(text, width)
    unreadable = None
    if fields is not None:
        numbers = range(1, len(fields) // width + 1)
        head, widths = fields[:width], ()  # every record is width fields wide
        # the ASCII characters str.strip removes, line ends aside
        strip = not text.isascii() or any(c in text for c in " \t\x0b\x0c\x1c\x1d\x1e\x1f")
    else:
        records = []
        try:
            records.extend(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            # extend keeps the records read before the error; their header or
            # field-count errors are reported first
            unreadable = f"line {len(records) + 1}: unreadable CSV record ({exc})"
        # a record's field count, or 0 for a blank one
        widths = [len(f) if len(f) > 1 or f and f[0].strip() else 0 for f in records]
        numbers = list(compress(count(1), widths))
        head = records[numbers[0] - 1] if numbers else []
        fields = list(chain.from_iterable(compress(records, widths)))
        strip = True
    head = [f.strip() for f in head]
    if numbers and [f.lower() for f in head] != list(header):
        raise InputError(f"line {numbers[0]}: expected header {','.join(header)!r}, got {','.join(head)!r}")
    if set(widths) - {0, width}:
        lineno, got = next((n, w) for n, w in zip(count(1), widths) if w not in (0, width))
        raise InputError(f"line {lineno}: expected {width} fields, got {got}")
    if unreadable is not None:
        raise InputError(unreadable)
    if not numbers:
        raise InputError("empty input: missing header row")
    columns = [fields[width + j :: width] for j in range(width)]
    return numbers[1:], [list(map(str.strip, c)) for c in columns] if strip else columns


def _parse_day(text: str) -> date | None:
    # the spec for one date string; load_prices calls it only on dates that
    # _canonical_dates cannot read whole (ones holding "2021-1-4" or "2021-02-30")
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError:
        return None


def _canonical_dates(strs: list[str]) -> list[date] | None:
    """The dates of ``strs`` by one C-level map, or None unless all are valid canonical ASCII
    ``YYYY-MM-DD``, read as :func:`_parse_day` reads them: one string per date, which sort
    as their dates do. The dash test keeps out forms only ``date.fromisoformat`` accepts
    (``20210104``, ``2021-W01-1``)."""
    joined, dashes = "".join(strs), "-" * len(strs)
    if set(map(len, strs)) == {10} and joined.isascii() and joined[4::10] == joined[7::10] == dashes:
        try:
            return list(map(date.fromisoformat, strs))
        except ValueError:  # e.g. "2021-02-30", which _parse_day reports
            pass
    return None


def _grid(date_strs: list[str], tickers: list[str], close_strs: list[str]) -> PriceMatrix | None:
    """The matrix of a full date-major grid, read by reshape; None for any other layout.

    A grid repeats one order of n distinct non-empty tickers in each date's
    block of n rows, with canonical dates ascending block by block and finite
    positive closes: no record is bad and every date is kept. The ticker column
    is compared first, so a shuffled or gappy file costs O(n) and one comparison.
    """
    try:
        n = tickers.index(tickers[0], 1)  # where the first ticker recurs
    except ValueError:
        n = len(tickers)
    head = tickers[:n]
    if len(tickers) % n or "" in head or len(set(head)) < n or tickers[n:] != tickers[:-n]:
        return None
    blocks = date_strs[::n]
    dates = _canonical_dates(blocks) if all(map(operator.lt, blocks, blocks[1:])) else None
    if dates is None or any(date_strs[j::n] != blocks for j in range(1, n)):
        return None
    try:
        closes = np.fromiter(map(float, close_strs), float, len(close_strs))
    except ValueError:
        return None
    if not ((closes > 0) & (closes < np.inf)).all():
        return None
    order = sorted(range(n), key=head.__getitem__)
    # take, not [:, order], keeps the matrix C-ordered like the record loop's: sums downstream round alike
    return PriceMatrix(tuple(dates), tuple(head[j] for j in order), closes.reshape(-1, n).take(order, axis=1))


def load_prices(source) -> PriceMatrix:
    """Parse ``date,ticker,close`` CSV into an aligned PriceMatrix.

    Dates are kept only when every ticker has a close (intersection
    alignment); tickers come out sorted lexicographically and dates
    ascending. Raises :class:`InputError` with the offending line number on
    malformed rows, non-positive or non-finite prices, or duplicate
    (date, ticker) pairs.

    A full date-major grid (the layout ``synthetic.prices_to_csv`` writes) is
    read by reshape in :func:`_grid`; any other layout, and any bad record,
    by one loop over the records in file order, with the same results and
    messages. Each distinct date string is parsed once (all in one map when
    all are canonical). The loop raises at the first bad record, naming the
    first of its checks that fails in the order date, close, finiteness,
    sign, ticker, duplicate.
    """
    lines, (date_strs, tickers, close_strs) = _read_csv(source, ("date", "ticker", "close"))
    if not lines:
        raise InputError("no price rows found")
    grid = _grid(date_strs, tickers, close_strs)
    if grid is not None:
        return grid
    distinct = list(dict.fromkeys(date_strs))
    days = dict(zip(distinct, _canonical_dates(distinct) or map(_parse_day, distinct)))
    closes: dict[tuple[date, str], float] = {}
    for lineno, date_str, ticker, close_str in zip(lines, date_strs, tickers, close_strs):
        d = days[date_str]
        if d is None:
            raise InputError(f"line {lineno}: bad date {date_str!r} (expected YYYY-MM-DD)")
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
        if (d, ticker) in closes:
            raise InputError(f"line {lineno}: duplicate entry for ({d}, {ticker})")
        closes[d, ticker] = close

    names = sorted(set(tickers))
    # with no duplicates, a date has every ticker's close when it has one record per ticker
    per_date = Counter(d for d, _ in closes)
    dates = sorted(d for d, k in per_date.items() if k == len(names))
    if not dates:
        raise InputError("no date is covered by every ticker (empty intersection)")
    return PriceMatrix(tuple(dates), tuple(names), np.array([[closes[d, t] for t in names] for d in dates]))


def load_sectors(source) -> SectorMap:
    """Parse ``ticker,sector`` CSV into a SectorMap."""
    lines, (tickers, sectors) = _read_csv(source, ("ticker", "sector"))
    entries: dict[str, str] = {}
    for lineno, ticker, sector in zip(lines, tickers, sectors):
        if not ticker or not sector:
            raise InputError(f"line {lineno}: empty ticker or sector")
        if ticker in entries:
            raise InputError(f"line {lineno}: duplicate sector entry for {ticker}")
        entries[ticker] = sector
    return SectorMap(entries)


def compute_returns(prices: PriceMatrix) -> ReturnsMatrix:
    """Per-period simple returns p_t/p_{t-1} - 1.

    A return that is not finite (a ratio of closes beyond the float range)
    raises InputError naming the ticker and date of the first one.
    """
    if len(prices.dates) < 2:
        raise InputError("need at least 2 dates to compute returns")
    with np.errstate(over="ignore"):
        vals = prices.values[1:] / prices.values[:-1] - 1.0
    if not np.isfinite(vals).all():
        t, j = divmod(int(np.isfinite(vals).argmin()), vals.shape[1])
        before, after = prices.values[t : t + 2, j]
        raise InputError(
            f"non-finite simple return for {prices.tickers[j]} on {prices.dates[t + 1]} "
            f"(close {before:g} to {after:g})"
        )
    return ReturnsMatrix(prices.dates[1:], prices.tickers, vals)


def estimate_stats(returns: ReturnsMatrix) -> AssetStats:
    """Sample mean/covariance of daily returns, annualized by ``DAILY_ANNUALIZATION``.

    Covariance uses the unbiased T-1 divisor, computed by the steps
    ``np.cov(vals, rowvar=False, ddof=1)`` takes (without its per-call
    argument handling), and is symmetrized by averaging with its transpose.
    """
    vals = returns.values
    if vals.shape[0] < 2:
        raise InputError("need at least 2 return rows to estimate covariance")
    # returns too large to square overflow; AssetStats names the ticker
    with np.errstate(over="ignore", invalid="ignore"):
        mu = vals.mean(axis=0) * DAILY_ANNUALIZATION
        x = np.array(vals, dtype=float).T
        x -= x.mean(axis=1)[:, None]
        sigma = np.dot(x, x.T)
        sigma *= np.true_divide(1, x.shape[1] - 1)
        sigma *= DAILY_ANNUALIZATION
        sigma = (sigma + sigma.T) / 2.0
    return AssetStats(returns.tickers, mu, sigma)
