import csv
import io
import math
import warnings
from contextlib import contextmanager
from datetime import date, datetime, timedelta
from itertools import count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio import synthetic
from annealfolio.errors import InputError
from annealfolio.marketdata import (
    AssetStats,
    PriceMatrix,
    ReturnsMatrix,
    SectorMap,
    compute_returns,
    estimate_stats,
    _canonical_dates,
    _grid,
    _parse_day,
    _read_csv,
    _uniform_fields,
    load_prices,
    load_sectors,
)


def csv_text(rows, header="date,ticker,close"):
    return header + "\n" + "\n".join(rows) + "\n"


class TestLoadPrices:
    def test_intersection_alignment(self):
        # 3 common dates + 1 date where B is missing -> 3x2 matrix
        text = csv_text(
            [
                "2023-01-02,A,10",
                "2023-01-02,B,20",
                "2023-01-03,A,11",
                "2023-01-03,B,21",
                "2023-01-04,A,12",
                "2023-01-04,B,22",
                "2023-01-05,A,13",
            ]
        )
        m = load_prices(text)
        assert m.tickers == ("A", "B")
        assert m.values.shape == (3, 2)
        assert m.dates == (date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 4))

    def test_negative_price_names_line(self):
        text = csv_text(["2023-01-02,A,10", "2023-01-03,A,-5"])
        with pytest.raises(InputError, match="line 3"):
            load_prices(text)

    @pytest.mark.parametrize("close", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_close_names_line(self, close):
        text = csv_text(["2023-01-02,A,10", "2023-01-02,B,20", f"2023-01-03,A,{close}"])
        with pytest.raises(InputError, match="line 4: non-finite close"):
            load_prices(text)

    def test_out_of_order_dates_sorted(self):
        text = csv_text(["2023-01-04,A,12", "2023-01-02,A,10", "2023-01-03,A,11"])
        m = load_prices(text)
        assert m.dates == (date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 4))
        assert list(m.values[:, 0]) == [10.0, 11.0, 12.0]

    def test_duplicate_pair_rejected(self):
        text = csv_text(["2023-01-02,A,10", "2023-01-02,A,11"])
        with pytest.raises(InputError, match="duplicate"):
            load_prices(text)

    def test_empty_intersection(self):
        text = csv_text(["2023-01-02,A,10", "2023-01-03,B,20"])
        with pytest.raises(InputError, match="intersection"):
            load_prices(text)

    def test_malformed_row_names_line(self):
        text = csv_text(["2023-01-02,A,10", "2023-01-03,A"])
        with pytest.raises(InputError, match="line 3"):
            load_prices(text)

    def test_bad_date_named(self):
        text = csv_text(["02/01/2023,A,10"])
        with pytest.raises(InputError, match="line 2"):
            load_prices(text)

    def test_repeated_bad_date_names_first_line(self):
        # parsed dates are memoised per string; a repeated bad one still fails at its first line
        text = csv_text(["2023-01-02,A,10", "2023-13-02,A,11", "2023-13-02,B,21", "2023-13-02,C,31"])
        with pytest.raises(InputError, match=r"line 3: bad date '2023-13-02'"):
            load_prices(text)

    def test_row_order_does_not_matter(self):
        rows = [
            f"2023-01-{day:02d},{t},{10 * k + day}"
            for day in range(2, 9)
            for k, t in enumerate(["A", "B", "C"], start=1)
        ]
        m = load_prices(csv_text(rows))
        shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        s = load_prices(csv_text(shuffled))
        assert (s.dates, s.tickers) == (m.dates, m.tickers)
        assert s.values.tobytes() == m.values.tobytes()

    def test_crlf_and_bytes_accepted(self):
        raw = b"date,ticker,close\r\n2023-01-02,A,10\r\n2023-01-03,A,11\r\n"
        m = load_prices(raw)
        assert m.values[:, 0].tolist() == [10.0, 11.0]

    def test_values_bit_for_bit(self):
        # stored value equals float() of the source text exactly
        text = csv_text(["2023-01-02,A,123.456789", "2023-01-03,A,0.1"])
        m = load_prices(text)
        assert m.values[0, 0] == float("123.456789")
        assert m.values[1, 0] == float("0.1")

    def test_ticker_sorted_lexicographically(self):
        text = csv_text(["2023-01-02,ZZ,1", "2023-01-02,AA,2", "2023-01-02,MM,3"])
        m = load_prices(text)
        assert m.tickers == ("AA", "MM", "ZZ")


class TestPriceTypes:
    @pytest.mark.parametrize("close", [float("inf"), float("nan")])
    def test_price_matrix_finite(self, close):
        with pytest.raises(InputError, match="finite"):
            PriceMatrix((date(2023, 1, 2),), ("A",), np.array([[close]]))

    def test_price_matrix_monotone_dates(self):
        with pytest.raises(InputError):
            PriceMatrix(
                (date(2023, 1, 3), date(2023, 1, 2)), ("A",), np.array([[1.0], [2.0]])
            )

    def test_prices_at_and_date_lookup(self):
        days = (date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 5))
        m = PriceMatrix(days, ("A", "B"), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert m.prices_at(date(2023, 1, 5)) == {"A": 5.0, "B": 6.0}
        assert m.prices_at(date(2023, 1, 2)) == {"A": 1.0, "B": 2.0}
        with pytest.raises(InputError, match="not a trading date"):
            m.prices_at(date(2023, 1, 4))
        assert m.first_date_on_or_after(date(2022, 12, 31)) == date(2023, 1, 2)
        assert m.first_date_on_or_after(date(2023, 1, 3)) == date(2023, 1, 3)
        assert m.first_date_on_or_after(date(2023, 1, 4)) == date(2023, 1, 5)
        assert m.first_date_on_or_after(date(2023, 1, 6)) is None
        assert m.window(start=date(2023, 1, 3)).prices_at(date(2023, 1, 3)) == {"A": 3.0, "B": 4.0}

    def test_restrict_and_window(self):
        m = load_prices(
            csv_text(
                ["2023-01-02,A,10", "2023-01-02,B,20", "2023-01-03,A,11", "2023-01-03,B,21"]
            )
        )
        sub = m.restrict(["B"])
        assert sub.tickers == ("B",)
        win = m.window(start=date(2023, 1, 3))
        assert win.dates == (date(2023, 1, 3),)

    def test_values_are_c_ordered(self):
        # the pipeline's float sums follow the layout, so every matrix holds one
        days = (date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 4))
        vals = np.arange(1.0, 10.0).reshape(3, 3)
        fortran = PriceMatrix(days, ("A", "B", "C"), np.asfortranarray(vals))
        restricted = PriceMatrix(days, ("A", "B", "C"), vals).restrict(["C", "A"])
        assert fortran.values.flags.c_contiguous and restricted.values.flags.c_contiguous
        assert np.array_equal(fortran.values, vals) and np.array_equal(restricted.values, vals[:, [2, 0]])


class TestSectors:
    def test_load_sectors(self):
        sm = load_sectors("ticker,sector\nA,Tech\nB,Energy\n")
        assert sm.sector_of("A") == "Tech"
        assert sm.sector_of("B") == "Energy"

    def test_duplicate_ticker_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            load_sectors("ticker,sector\nA,Tech\nA,Energy\n")

    def test_unknown_ticker(self):
        sm = load_sectors("ticker,sector\nA,Tech\n")
        with pytest.raises(InputError):
            sm.sector_of("B")


def price_matrix(values, tickers=None):
    values = np.asarray(values, dtype=float)
    tickers = tuple(tickers or (f"T{i}" for i in range(values.shape[1])))
    dates = tuple(date(2023, 1, 1) + timedelta(days=d) for d in range(values.shape[0]))
    return PriceMatrix(dates, tickers, values)


class TestReturns:
    def test_simple_return(self):
        r = compute_returns(price_matrix([[100.0], [110.0]]))
        assert r.values[0, 0] == pytest.approx(0.10, abs=1e-15)

    def test_constant_prices_zero(self):
        r = compute_returns(price_matrix([[50.0], [50.0], [50.0]]))
        assert np.all(r.values == 0.0)

    def test_needs_two_dates(self):
        with pytest.raises(InputError):
            compute_returns(price_matrix([[100.0]]))

    def test_non_finite_return_names_ticker_and_date(self):
        m = price_matrix([[10.0, c] for c in (1e-300, 1e300)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as info:
                compute_returns(m)
        assert str(info.value) == "non-finite simple return for T1 on 2023-01-02 (close 1e-300 to 1e+300)"

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=3, max_size=40)
    )
    def test_simple_returns_reconstruct_path(self, prices):
        m = price_matrix([[p] for p in prices])
        r = compute_returns(m)
        reconstructed = float(np.prod(1.0 + r.values[:, 0]))
        assert reconstructed == pytest.approx(prices[-1] / prices[0], rel=1e-9)


class TestEstimateStats:
    def test_constant_series(self):
        m = price_matrix([[100.0], [110.0], [121.0]])
        r = compute_returns(m)
        stats = estimate_stats(r)
        assert stats.mu[0] == pytest.approx(0.1 * 252, abs=1e-12)
        assert stats.sigma[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_covariance(self):
        # returns A: (0.1, -0.1), B: (-0.1, 0.1); divisor T-1 = 1
        from annealfolio.marketdata import ReturnsMatrix

        r = ReturnsMatrix(
            (date(2023, 1, 2), date(2023, 1, 3)),
            ("A", "B"),
            np.array([[0.1, -0.1], [-0.1, 0.1]]),
        )
        stats = estimate_stats(r)
        assert stats.sigma[0, 1] == pytest.approx(-0.02 * 252, abs=1e-12)
        assert stats.sigma[0, 0] == pytest.approx(0.02 * 252, abs=1e-12)
        assert stats.sigma[1, 1] == pytest.approx(0.02 * 252, abs=1e-12)

    def test_single_column_matches_two_pass_formula(self):
        from datetime import timedelta

        rng = np.random.default_rng(3)
        vals = rng.normal(0.001, 0.02, size=(40, 1))
        from annealfolio.marketdata import ReturnsMatrix

        r = ReturnsMatrix(
            tuple(date(2023, 1, 1) + timedelta(days=i) for i in range(40)), ("A",), vals
        )
        stats = estimate_stats(r)
        mean = sum(vals[:, 0]) / 40
        var = sum((v - mean) ** 2 for v in vals[:, 0]) / 39
        assert stats.mu[0] == pytest.approx(252 * mean, rel=1e-12)
        assert stats.sigma[0, 0] == pytest.approx(252 * var, rel=1e-12)

    def test_needs_two_rows(self):
        from annealfolio.marketdata import ReturnsMatrix

        r = ReturnsMatrix((date(2023, 1, 2),), ("A",), np.array([[0.1]]))
        with pytest.raises(InputError):
            estimate_stats(r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_covariance_symmetric_psd(self, seed):
        rng = np.random.default_rng(seed)
        n_assets = int(rng.integers(1, 6))
        vals = rng.normal(0.0005, 0.02, size=(30, n_assets))
        from annealfolio.marketdata import ReturnsMatrix

        r = ReturnsMatrix(
            tuple(date(2023, 1, 1 + i) for i in range(30)),
            tuple(f"T{i}" for i in range(n_assets)),
            vals,
        )
        stats = estimate_stats(r)
        assert np.array_equal(stats.sigma, stats.sigma.T)
        eigs = np.linalg.eigvalsh(stats.sigma)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 0.0)


def np_cov_sigma(vals):
    """The covariance estimate_stats gave through ``np.cov``: the bit-for-bit reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.atleast_2d(np.cov(vals, rowvar=False, ddof=1) * 252)
        return (sigma + sigma.T) / 2.0


@st.composite
def return_tables(draw):
    """A (T, n) return matrix, T in 2..300 and n in 1..20: C- or Fortran-ordered, or columns taken from a wider one."""
    t, n = draw(st.integers(2, 300)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = rng.normal(0.0005, draw(st.sampled_from([1e-4, 0.02, 0.5])), size=(t, n + 3))
    if draw(st.booleans()):  # ties and exact zeros
        wide = np.round(wide, 2)
    layout = draw(st.sampled_from(["C", "F", "taken"]))
    if layout == "taken":  # as the backtest's stats provider passes a window's columns
        return wide.take(rng.permutation(n + 3)[:n], axis=1)
    return np.array(wide[:, :n], order=layout)


def returns_of(vals):
    dates = tuple(date(2001, 1, 1) + timedelta(days=i) for i in range(vals.shape[0]))
    return ReturnsMatrix(dates, tuple(f"T{j:02d}" for j in range(vals.shape[1])), vals)


class TestCovarianceMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(return_tables())
    def test_sigma_equals_np_cov_bit_for_bit(self, vals):
        stats = estimate_stats(returns_of(vals))
        assert stats.sigma.tobytes() == np_cov_sigma(vals).tobytes()
        assert stats.mu.tobytes() == (vals.mean(axis=0) * 252).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(return_tables(), st.sampled_from([np.inf, -np.inf, np.nan, 1e200, -1e300]), st.integers(0, 2**16))
    def test_non_finite_estimate_raises_the_same_text(self, vals, bad, at):
        vals = vals.copy(order="K")
        vals[np.unravel_index(at % vals.size, vals.shape)] = bad
        with pytest.raises(InputError) as reference:
            with np.errstate(over="ignore", invalid="ignore"):
                AssetStats(returns_of(vals).tickers, vals.mean(axis=0) * 252, np_cov_sigma(vals))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as info:
                estimate_stats(returns_of(vals))
        assert str(info.value) == str(reference.value)


class TestAssetStats:
    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            AssetStats(("A", "B"), np.array([0.1]), np.eye(2))

    def test_asymmetric_rejected(self):
        sig = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(InputError):
            AssetStats(("A", "B"), np.zeros(2), sig)

    @pytest.mark.parametrize("mu, sigma, message", [
        ([0.1, np.nan], np.eye(2), "non-finite expected return for B"),
        ([0.1, np.inf], np.eye(2), "non-finite expected return for B"),
        ([0.1, 0.2], [[1.0, np.nan], [np.nan, 1.0]], "non-finite covariance for A"),
        ([0.1, 0.2], [[1.0, 0.0], [0.0, np.inf]], "non-finite covariance for B"),
        # checked before symmetry: a lone non-finite entry is not reported as asymmetry
        ([0.1, 0.2], [[1.0, 0.0], [np.nan, 1.0]], "non-finite covariance for A"),
    ])
    def test_non_finite_rejected(self, mu, sigma, message):
        with pytest.raises(InputError) as info:
            AssetStats(("A", "B"), mu, sigma)
        assert str(info.value) == message

    def test_overflowing_estimate_rejected_without_warnings(self):
        returns = compute_returns(price_matrix([[1e-150, 10.0], [1e150, 11.0], [1e-150, 12.0]], ("A", "B")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^non-finite covariance for A$"):
                estimate_stats(returns)

    @pytest.mark.parametrize("upper, lower, symmetric", [
        (0.5, 0.5, True),
        (0.0, -0.0, True),
        (0.5, np.nextafter(0.5, 1.0), False),
    ])
    def test_symmetry_is_exact_equality(self, upper, lower, symmetric):
        sig = np.array([[1.0, upper], [lower, 1.0]])
        if symmetric:
            AssetStats(("A", "B"), np.zeros(2), sig)
        else:
            with pytest.raises(InputError, match="^covariance matrix must be exactly symmetric$"):
                AssetStats(("A", "B"), np.zeros(2), sig)

    def test_non_psd_rejected(self):
        sig = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        with pytest.raises(InputError, match="semidefinite"):
            AssetStats(("A", "B"), np.zeros(2), sig)

    def test_subset(self):
        s = AssetStats(("A", "B", "C"), np.array([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0]))
        sub = s.subset([2, 0])
        assert sub.tickers == ("C", "A")
        assert sub.mu.tolist() == [3.0, 1.0]
        assert sub.sigma[0, 0] == 3.0


# ---------------------------------------------------------------------------
# Reference loaders: a record-by-record parse kept (names and annotations aside)
# as the spec for the loaders' results and errors, both the grid read (_grid)
# and the record loop of load_prices.


def _reference_text_lines(source):
    if isinstance(source, bytes):  # always inline CSV content
        yield from io.StringIO(source.decode("utf-8"), newline="")
        return
    if isinstance(source, (str, Path)):
        text = str(source)
        if isinstance(source, str) and ("\n" in text or "\r" in text):  # inline CSV content
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


def _reference_read_csv(source, header):
    reader = csv.reader(_reference_text_lines(source))
    rows = []
    got_header = False
    lineno = 0
    try:
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
    except csv.Error as exc:  # the record after the last one read
        raise InputError(f"line {lineno + 1}: unreadable CSV record ({exc})") from None
    if not got_header:
        raise InputError("empty input: missing header row")
    return rows


def reference_load_prices(source):
    per_ticker = {}
    seen = set()
    parsed = {}
    for lineno, (date_str, ticker, close_str) in _reference_read_csv(source, ("date", "ticker", "close")):
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
    common = None
    for t in tickers:
        ds = set(per_ticker[t])
        common = ds if common is None else common & ds
    if not common:
        raise InputError("no date is covered by every ticker (empty intersection)")
    dates = sorted(common)
    values = np.array([[per_ticker[t][d] for t in tickers] for d in dates], dtype=float)
    return PriceMatrix(tuple(dates), tuple(tickers), values)


def reference_load_sectors(source):
    entries = {}
    for lineno, (ticker, sector) in _reference_read_csv(source, ("ticker", "sector")):
        if not ticker or not sector:
            raise InputError(f"line {lineno}: empty ticker or sector")
        if ticker in entries:
            raise InputError(f"line {lineno}: duplicate sector entry for {ticker}")
        entries[ticker] = sector
    return SectorMap(entries)


def outcome(load, source):
    """What a loader returns for ``source``, or the text of the InputError it raises.

    A matrix's strides count: sums over a column-major copy of the same
    values can round differently downstream.
    """
    try:
        result = load(source)
    except InputError as exc:
        return "error", str(exc)
    if isinstance(result, SectorMap):
        return "sectors", list(result.entries.items())
    values = result.values
    return "prices", result.dates, result.tickers, values.shape, values.strides, values.tobytes()


def as_source(text, kind):
    return {
        "str": text,
        "bytes": text.encode("utf-8"),
        "text file": io.StringIO(text),
        "binary file": io.BytesIO(text.encode("utf-8")),
    }[kind]


# a pad around a field: none, ASCII whitespace (control-character whitespace
# too), or a no-break space, which makes the text non-ASCII
PAD = st.sampled_from(["", "", " ", "  ", "\t", "\x1f", "\xa0"])
# how a table pads its fields: not at all (no strip needed), in one pad
# slot only, or each slot at random
PADDINGS = st.sampled_from(["none", "one", "each"])
# how a table writes its fields: all bare (the split path), or some quoted
# around a comma, a line break or a doubled quote (the csv.reader path)
QUOTINGS = st.sampled_from([("{}",), ("{}",) * 4 + ('"{}"', '"{},x"', '"{}\nx"', '"{}""x"')])
EOLS = st.sampled_from(["\n", "\r\n", "\r"])
# lines inserted between records: a blank one and whitespace-only ones
BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", "\xa0"]), max_size=3)
# csv.field_size_limit() while a table loads: the default, or one that
# some fields exceed, so quote-free lines over it go to csv.reader
FIELD_LIMITS = st.sampled_from([None] * 6 + [10, 16])


def table_text(draw, header, lines):
    """``header`` and ``lines`` joined by one line end throughout or by mixed ones, maybe after the last."""
    eol = draw(st.sampled_from([None, "\n", "\r\n", "\r"]))
    eols = [eol or draw(EOLS) for _ in range(len(lines) + 1)]
    text = "".join(line + e for line, e in zip([header] + lines, eols))
    return text if draw(st.booleans()) else text.removesuffix(eols[-1])


def table_lines(draw, rows):
    quoting = draw(QUOTINGS)
    padding = draw(PADDINGS)
    padded = draw(st.integers(0, 2 * sum(map(len, rows))))  # the one slot padded under "one"
    slots = count()

    def pad():
        if padding == "each":
            return draw(PAD)
        return draw(PAD.filter(bool)) if padding == "one" and next(slots) == padded else ""

    return [",".join(draw(st.sampled_from(quoting)).format(pad() + f + pad()) for f in row) for row in rows]


def short_and_long(draw, rows, width):
    """Make one record short and, when there are two, another one long."""
    i, j = draw(st.permutations(range(len(rows))))[:2] if len(rows) > 1 else (0, None)
    rows[i] = rows[i][: width - 1]
    if j is not None:
        rows[j] = rows[j] + ["x"]


@contextmanager
def field_limit(limit):
    old = csv.field_size_limit()
    csv.field_size_limit(old if limit is None else limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


CLOSE_FORMATS = (repr, "{:.2f}".format, "{:.6e}".format, lambda x: str(int(x) + 1))
PRICE_CORRUPTIONS = (
    None, "bad date", "repeated bad date", "bad close", "non-finite", "non-positive",
    "empty ticker", "unpadded duplicate", "field count", "short and long",
)
# ways to spoil a full date-major grid so that it must take the record loop
GRID_BREAKERS = (
    "swapped rows", "missing last row", "repeated date block", "descending date blocks", "ticker twice per date",
)
# how price_tables lays out its rows: a shuffled table with gaps, a full grid,
# or a full grid that one breaker spoils
PRICE_LAYOUTS = st.sampled_from(["gappy"] * 4 + ["grid"] * 2 + list(GRID_BREAKERS))
TICKERS = st.sampled_from(["A", "B", "CC", "D1", "zz"])


def close_text(draw):
    return draw(st.sampled_from(CLOSE_FORMATS))(draw(st.floats(0.01, 1e5)))


def grid_rows(draw, tickers, days):
    """Every (date, ticker) cell, dates ascending, each date's tickers in one drawn order."""
    order = draw(st.permutations(tickers))
    return [[(date(2021, 1, 4) + timedelta(days=k)).isoformat(), t, close_text(draw)]
            for k in sorted(days) for t in order]


def break_grid(draw, rows, n, breaker):
    """Spoil the grid ``rows`` of ``n`` tickers per date in place; with two or more
    tickers and dates, every breaker leaves a layout the grid read refuses."""
    blocks = [rows[b : b + n] for b in range(0, len(rows), n)]
    if breaker == "swapped rows" and len(blocks) > 1:
        # a ticker out of turn in one date's block, or a date inside another's block
        i, j = draw(st.permutations(range(len(rows))))[:2]
        rows[i], rows[j] = rows[j], rows[i]
    elif breaker == "ticker twice per date" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        for block in blocks:
            block[i][1] = block[j][1]
    elif breaker == "missing last row":
        rows.pop()
    elif breaker == "repeated date block":
        b = draw(st.integers(0, len(blocks) - 1))
        rows[(b + 1) * n : (b + 1) * n] = [list(r) for r in blocks[b]]
    elif breaker == "descending date blocks":
        rows[:] = [r for block in reversed(blocks) for r in block]


@st.composite
def price_tables(draw):
    """Small ``date,ticker,close`` texts with gaps and shuffled rows, or laid out as a full
    date-major grid that a breaker may spoil, with padding, blank lines, quoted fields,
    mixed line ends, and at most one corruption."""
    tickers = draw(st.lists(TICKERS, min_size=1, max_size=4, unique=True))
    days = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True))
    layout = draw(PRICE_LAYOUTS)
    if layout == "gappy":
        rows = [
            [(date(2021, 1, 4) + timedelta(days=k)).isoformat(), t, close_text(draw)]
            for k in days
            for t in tickers
            if draw(st.integers(0, 9))  # about one cell in ten is missing
        ]
    else:
        rows = grid_rows(draw, tickers, days)
        break_grid(draw, rows, len(tickers), layout)
    corruption = draw(st.sampled_from(PRICE_CORRUPTIONS))
    if rows and corruption is not None:
        i = draw(st.integers(0, len(rows) - 1))
        if corruption == "bad date":
            rows[i][0] = draw(st.sampled_from([
                "2021-13-01", "04/01/2021", "", "2021-02-30",
                # fromisoformat reads these two, strptime does not
                "20210104", "2021-W01-1",
                # non-ASCII digits: strptime reads the full-width year only
                "\uff12\uff10\uff12\uff11-01-04", "\u0662\u0660\u0662\u0661-\u0660\u0661-\u0660\u0664",
                "2021-01-0\u0664", "2021-01- 4",
            ]))
        elif corruption == "repeated bad date":
            for j in range(i, len(rows), 2):
                rows[j][0] = "2021-00-10"
        elif corruption == "bad close":
            rows[i][2] = draw(st.sampled_from(["abc", "", "1.2.3", "--1"]))
        elif corruption == "non-finite":
            rows[i][2] = draw(st.sampled_from(["inf", "-inf", "nan", "1e400", "Infinity"]))
        elif corruption == "non-positive":
            rows[i][2] = draw(st.sampled_from(["0", "-0", "-3.5", "0.0", "-1e-9"]))
        elif corruption == "empty ticker":
            rows[i][1] = ""
        elif corruption == "unpadded duplicate":
            d = date.fromisoformat(rows[i][0])
            rows.insert(draw(st.integers(0, len(rows))), [f"{d.year}-{d.month}-{d.day}", rows[i][1], "7"])
        elif corruption == "field count":
            rows[i] = rows[i][:2] if draw(st.booleans()) else rows[i] + ["x"]
        else:
            short_and_long(draw, rows, 3)
    if layout == "gappy":
        rows = draw(st.permutations(rows))
    lines = table_lines(draw, rows)
    for blank in draw(BLANK_LINES):
        lines.insert(draw(st.integers(0, len(lines))), blank)
    header = draw(st.sampled_from(["date,ticker,close"] * 6 + [" Date , TICKER,close", "date,ticker,price"]))
    return table_text(draw, header, lines)


@st.composite
def sector_tables(draw):
    rows = [
        [draw(st.sampled_from(["A", "B", "CC", "", " D "])), draw(st.sampled_from(["Tech", "Energy", "", " Util"]))]
        for _ in range(draw(st.integers(0, 6)))
    ]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:1] if draw(st.booleans()) else rows[i] + ["x"]
    elif rows and draw(st.booleans()):
        short_and_long(draw, rows, 2)
    lines = table_lines(draw, rows)
    for blank in draw(BLANK_LINES):
        lines.insert(draw(st.integers(0, len(lines))), blank)
    header = draw(st.sampled_from(["ticker,sector"] * 4 + ["Ticker, Sector", "ticker"]))
    return table_text(draw, header, lines)


SOURCE_KINDS = st.sampled_from(["str", "bytes", "text file", "binary file"])


class TestLoadersMatchReference:
    """Both reads, ``_grid``'s reshape and the record loop, return the reference's bytes or raise its exact message."""

    @settings(max_examples=500, deadline=None)
    @given(price_tables(), SOURCE_KINDS, FIELD_LIMITS)
    def test_load_prices_matches_reference(self, text, kind, limit):
        with field_limit(limit):
            assert outcome(load_prices, as_source(text, kind)) == outcome(reference_load_prices, as_source(text, kind))

    @settings(max_examples=150, deadline=None)
    @given(sector_tables(), SOURCE_KINDS, FIELD_LIMITS)
    def test_load_sectors_matches_reference(self, text, kind, limit):
        with field_limit(limit):
            assert outcome(load_sectors, as_source(text, kind)) == outcome(reference_load_sectors, as_source(text, kind))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first bad record wins, whatever checks later records fail
            (["2021-01-04,A,-1", "2021-13-01,A,1"], "line 2: non-positive close -1 for A"),
            (["2021-01-04,A,x", "2021-01-05,,inf"], "line 2: bad close 'x'"),
            (["2021-01-04,,1", "2021-01-04,A,x"], "line 2: empty ticker"),
            # within a record: date, close, finiteness, sign, ticker, duplicate
            (["2021-13-01,A,x"], "line 2: bad date '2021-13-01' (expected YYYY-MM-DD)"),
            (["2021-01-04,,nan"], "line 2: non-finite close nan for "),
            (["2021-01-04,A,1", "2021-1-4,A,-2"], "line 3: non-positive close -2 for A"),
            (["2021-01-04,A,1", "2021-1-4,A,2"], "line 3: duplicate entry for (2021-01-04, A)"),
            # field counts are checked before any value
            (["2021-13-01,A,1", "2021-01-04,A"], "line 3: expected 3 fields, got 2"),
            ([], "no price rows found"),
        ],
    )
    def test_error_order(self, rows, message):
        text = csv_text(rows)
        assert outcome(reference_load_prices, text) == ("error", message)
        assert outcome(load_prices, text) == ("error", message)

    def test_field_count_error_before_an_unreadable_record(self):
        # csv.reader rejects fields over its size limit; a bad record before one is still reported
        huge = '2023-01-03,A,"' + "9" * (csv.field_size_limit() + 1) + '"\n'
        text = csv_text(["2023-01-02,A"]) + huge
        assert outcome(reference_load_prices, text) == ("error", "line 2: expected 3 fields, got 2")
        assert outcome(load_prices, text) == ("error", "line 2: expected 3 fields, got 2")
        with pytest.raises(InputError, match=r"^line 3: unreadable CSV record \(field larger than field limit"):
            load_prices(csv_text(["2023-01-02,A,1"]) + huge)

    @pytest.mark.parametrize("text, uniform", [
        ("date,ticker,close\n2023-01-02,A,1\n", True),
        ("date,ticker,close\r\n2023-01-02,A,1", True),
        ("date,ticker,close\r2023-01-02, A ,1\r", True),
        ("date,ticker,close\n\n2023-01-02,A,1\n", False),  # a blank line
        ("date,ticker,close\n2023-01-02,A,1\n \n", False),  # a whitespace-only line
        ("date,ticker,close\n2023-01-02,A\n2023-01-03,A,1,x\n", False),  # a short and a long record
        ('date,ticker,close\n2023-01-02,"A",1\n', False),
        ("", False),
    ])
    def test_uniform_text_is_split_at_once(self, text, uniform):
        fields = _uniform_fields(text, 3)
        assert (fields is not None) == uniform
        if uniform:
            assert fields == [f for record in csv.reader(io.StringIO(text, newline="")) for f in record]

    @pytest.mark.parametrize("pad", [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u3000"])
    def test_one_padded_field_in_uniform_text_is_stripped(self, pad):
        # the pad is the text's only character that str.strip removes
        text = csv_text(["2023-01-02,A,1", f"2023-01-03,{pad}A,2"])
        assert outcome(load_prices, text) == outcome(reference_load_prices, text)
        assert load_prices(text).tickers == ("A",)

    @pytest.mark.parametrize("field", [100, csv.field_size_limit() + 1])
    def test_quote_free_line_over_the_field_limit(self, field):
        # a quote-free line longer than the limit goes to csv.reader, which reads
        # its fields when each one fits and rejects the record otherwise
        text = csv_text(["2023-01-02,A,1", "2023-01-03,A," + "0" * (csv.field_size_limit() - field) + "9" * field])
        assert outcome(load_prices, text) == outcome(reference_load_prices, text)
        assert outcome(load_prices, text)[0] == ("prices" if field == 100 else "error")


@st.composite
def grid_tables(draw, breakers):
    """A full date-major grid of two to four tickers over two to five dates, spoilt by one of ``breakers``."""
    tickers = draw(st.lists(TICKERS, min_size=2, max_size=4, unique=True))
    rows = grid_rows(draw, tickers, draw(st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True)))
    break_grid(draw, rows, len(tickers), draw(st.sampled_from(breakers)))
    return csv_text(",".join(r) for r in rows)


def read_grid(source):
    """What the grid read gives for the columns of ``source``, or None."""
    return _grid(*_read_csv(source, ("date", "ticker", "close"))[1])


class TestGridPath:
    """A full date-major grid is read by ``_grid``'s reshape; any other layout falls back to the record loop."""

    @settings(max_examples=100, deadline=None)
    @given(grid_tables([None]))
    def test_grid_matches_reference(self, text):
        assert read_grid(text) is not None
        assert outcome(read_grid, text) == outcome(reference_load_prices, text)

    @settings(max_examples=100, deadline=None)
    @given(grid_tables(GRID_BREAKERS))
    def test_breakers_fall_back(self, text):
        assert read_grid(text) is None
        assert outcome(load_prices, text) == outcome(reference_load_prices, text)

    def test_prices_to_csv_is_a_grid_and_its_shuffled_rows_are_not(self):
        matrix, _ = synthetic.generate_dataset(seed=5, n_days=40)
        text = synthetic.prices_to_csv(matrix)
        header, *body = text.splitlines()
        shuffled = "\n".join([header] + [body[i] for i in np.random.default_rng(5).permutation(len(body))]) + "\n"
        assert outcome(read_grid, text) == outcome(reference_load_prices, text)
        assert read_grid(shuffled) is None
        assert outcome(load_prices, shuffled) == outcome(load_prices, text) == outcome(reference_load_prices, text)

    @pytest.mark.parametrize("rows", [
        # another order, or another ticker, on the second date
        ["2021-01-04,A,1", "2021-01-04,B,2", "2021-01-04,C,3", "2021-01-05,A,4", "2021-01-05,C,5", "2021-01-05,B,6"],
        ["2021-01-04,A,1", "2021-01-04,B,2", "2021-01-05,A,3", "2021-01-05,C,4"],
        ["2021-01-04,A,1", "2021-01-04,B,2", "2021-01-05,A,3", "2021-01-05,B,-4"],  # a bad close
        ["2021-01-04,A,1", "2021-01-04,,2", "2021-01-05,A,3", "2021-01-05,,4"],  # an empty ticker
        ["2021-1-4,A,1", "2021-1-5,A,2"],  # dates not in canonical form
        ["2021-01-04,A,1", "2021-01-04,A,2"],  # one ticker twice on a date
        ["2021-01-04,A,1", "2021-01-04,B,2", "2021-01-04,B,3"],  # the same, not the first ticker
    ])
    def test_near_grids_fall_back(self, rows):
        text = csv_text(rows)
        assert read_grid(text) is None
        assert outcome(load_prices, text) == outcome(reference_load_prices, text)


# date strings that are not canonical ASCII YYYY-MM-DD, or are but name no date
OFF_FORM_DATES = (
    "2021-02-30", "2021-13-01", "2021-00-10",  # canonical shape, no such date
    "20210104", "2021-W01-1",  # only fromisoformat reads these
    "\uff12\uff10\uff12\uff11-01-04", "2021-01-0\u0664",  # non-ASCII digits
    "2021-01- 4", "04/01/2021",
)


@st.composite
def date_columns(draw):
    """Canonical ``date,ticker,close`` text, maybe with one record's date in another form.

    The other form is an unpadded date (``2021-1-4``), which may name a day
    the file already has in canonical form, or one of OFF_FORM_DATES.
    """
    days = sorted(draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True)))
    rows = [[(date(2021, 1, 4) + timedelta(days=k)).isoformat(), t, f"{10 + k + j}.5"]
            for k in days for j, t in enumerate(draw(st.sampled_from([("A",), ("A", "B")])))]
    form = draw(st.sampled_from(["canonical", "unpadded", "off-form"]))
    i = draw(st.integers(0, len(rows) - 1))
    if form == "unpadded":
        d = date(2021, 1, 4) + timedelta(days=draw(st.integers(0, 60)))
        rows[i][0] = f"{d.year}-{d.month}-{d.day}"
    elif form == "off-form":
        rows[i][0] = draw(st.sampled_from(OFF_FORM_DATES))
    return csv_text(",".join(r) for r in draw(st.permutations(rows)))


class TestCanonicalDates:
    """Dates parsed at once when all are canonical give what ``_parse_day`` gives one by one."""

    @settings(max_examples=200, deadline=None)
    @given(date_columns())
    def test_same_outcome_as_parse_day_path(self, text):
        fast = outcome(load_prices, text)
        with mock.patch("annealfolio.marketdata._canonical_dates", return_value=None):
            assert fast == outcome(load_prices, text)

    @pytest.mark.parametrize("strs, canonical", [
        (["2021-01-04", "2021-01-05"], True),
        (["2021-01-04", "2021-1-5"], False),
        (["2021-01-04", "2021-02-30"], False),
        (["20210104"], False),
        (["2021-01-0\u0664"], False),
        (["2021-01-041", "2021-01-0"], False),  # lengths that average 10
    ])
    def test_whole_column_shape_check(self, strs, canonical):
        dates = _canonical_dates(strs)
        assert (dates is not None) == canonical
        if canonical:
            assert dates == [_parse_day(s) for s in strs]

    def test_collision_with_an_unpadded_date_is_a_duplicate(self):
        text = csv_text(["2021-01-04,A,1", "2021-01-05,A,2", "2021-1-4,A,3"])
        assert outcome(load_prices, text) == ("error", "line 4: duplicate entry for (2021-01-04, A)")

    @pytest.mark.parametrize("text", [
        "2021-01-04", "2021-1-4", "2021-01- 4", "2021-02-29", "2020-02-29", "0001-01-01", "9999-12-31",
        "0000-01-01", "20210104", "2021-W01-1", "2021-01-04T00", "\uff12\uff10\uff12\uff11-01-04",
        "2021-01-0\u0664", "2021-13-01", "2021-00-10", "2021-01-32", "2021/01/04", "",
    ])
    def test_one_date_loads_as_strptime_reads_it(self, text):
        try:
            expected = ("prices", (datetime.strptime(text, "%Y-%m-%d").date(),), ("A",), (1, 1), (8, 8), np.ones(1).tobytes())
        except ValueError:
            expected = ("error", f"line 2: bad date {text!r} (expected YYYY-MM-DD)")
        assert outcome(load_prices, csv_text([f"{text},A,1"])) == expected


class TestBareCarriageReturns:
    """Inline text whose only line ends are bare CRs (classic Mac exports) is content, not a file name."""

    @pytest.mark.parametrize("rows", [2, 300])
    @pytest.mark.parametrize("kind", ["str", "bytes"])
    def test_load_prices(self, rows, kind):
        lines = [f"{date(2023, 1, 2) + timedelta(days=d)},A,{d + 1}" for d in range(rows)]
        text = "date,ticker,close\r" + "\r".join(lines) + "\r"
        m = load_prices(as_source(text, kind))
        assert m.values[:, 0].tolist() == [float(d + 1) for d in range(rows)]

    @pytest.mark.parametrize("rows", [2, 300])
    @pytest.mark.parametrize("kind", ["str", "bytes"])
    def test_load_sectors(self, rows, kind):
        text = "ticker,sector\r" + "".join(f"T{i},S{i % 3}\r" for i in range(rows))
        assert outcome(load_sectors, as_source(text, kind)) == ("sectors", [(f"T{i}", f"S{i % 3}") for i in range(rows)])

    def test_bytes_without_a_line_end_are_content(self):
        with pytest.raises(InputError, match="^no price rows found$"):
            load_prices(b"date,ticker,close")


class TestNotUtf8:
    """Input that is not UTF-8 exits through InputError naming the source and the first bad byte."""

    PRICES = "date,ticker,close\n2023-01-02,Caf\u00e9,10\n".encode("latin-1")  # 0xe9 at offset 32
    SECTORS = "ticker,sector\nA,\u00c9nergie\n".encode("latin-1")  # 0xc9 at offset 16

    @pytest.mark.parametrize("load, data, byte, offset", [
        (load_prices, PRICES, "0xe9", 32),
        (load_sectors, SECTORS, "0xc9", 16),
    ])
    def test_path_bytes_and_binary_file(self, tmp_path, load, data, byte, offset):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        for source, name in [
            (path, str(path)),
            (str(path), str(path)),
            (data, "input bytes"),
            (io.BytesIO(data), "input stream"),
        ]:
            with pytest.raises(InputError) as info:
                load(source)
            assert str(info.value) == f"{name}: not UTF-8 text (byte {byte} at offset {offset})"
        with open(path, "rb") as fh, pytest.raises(InputError) as info:
            load(fh)
        assert str(info.value) == f"{path}: not UTF-8 text (byte {byte} at offset {offset})"

    def test_offset_counts_the_byte_order_mark(self):
        with pytest.raises(InputError, match=r"byte 0xe9 at offset 35\)$"):
            load_prices(b"\xef\xbb\xbf" + self.PRICES)

    def test_text_stream_that_fails_to_decode(self):
        stream = io.TextIOWrapper(io.BytesIO(self.PRICES), encoding="utf-8")
        with pytest.raises(InputError, match="cannot decode text"):
            load_prices(stream)


class TestByteOrderMark:
    """A leading U+FEFF, as spreadsheet tools write for "CSV UTF-8", is not part of the header."""

    PRICES = "date,ticker,close\n2023-01-02,A,10\n2023-01-03,A,11\n"
    SECTORS = "ticker,sector\nA,Tech\n"

    def sources(self, text, tmp_path):
        path = tmp_path / "with_bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return [
            "\ufeff" + text,
            b"\xef\xbb\xbf" + text.encode("utf-8"),
            io.StringIO("\ufeff" + text),
            io.BytesIO(b"\xef\xbb\xbf" + text.encode("utf-8")),
            path,
            str(path),
        ]

    def test_load_prices_accepts_bom(self, tmp_path):
        expected = outcome(load_prices, self.PRICES)
        assert expected[0] == "prices"
        for source in self.sources(self.PRICES, tmp_path):
            assert outcome(load_prices, source) == expected

    def test_load_sectors_accepts_bom(self, tmp_path):
        expected = outcome(load_sectors, self.SECTORS)
        assert expected == ("sectors", [("A", "Tech")])
        for source in self.sources(self.SECTORS, tmp_path):
            assert outcome(load_sectors, source) == expected

    def test_bom_inside_header_still_rejected(self):
        with pytest.raises(InputError, match="line 1: expected header"):
            load_prices("date,\ufeffticker,close\n2023-01-02,A,10\n")
