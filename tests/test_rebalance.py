import json
import logging
import math
import struct
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio import rebalance
from annealfolio.allocator import WeightVector
from annealfolio.errors import InputError, SolverError
from annealfolio.marketdata import (
    AssetStats,
    PriceMatrix,
    ReturnsMatrix,
    SectorMap,
    compute_returns,
    estimate_stats,
)
from annealfolio.pipeline import (
    STRATEGIES,
    Holdings,
    PipelineConfig,
    portfolio_value,
    run_pipeline,
    to_shares,
)
from annealfolio.rebalance import (
    BacktestReport,
    RebalancePolicy,
    add_months,
    health_check,
    layout_json,
    rebalance_step,
    run_backtest,
)
from annealfolio.sampler import AnnealSchedule
from annealfolio.synthetic import business_days

from conftest import grw_matrix, reference_artifacts

FAST = AnnealSchedule(sweeps=300, restarts=8)


def returns_matrix(columns: dict[str, list[float]], start=date(2023, 1, 2)):
    tickers = tuple(sorted(columns))
    n = len(next(iter(columns.values())))
    dates = tuple(start + timedelta(days=i) for i in range(n))
    vals = np.column_stack([columns[t] for t in tickers])
    return ReturnsMatrix(dates, tickers, vals)


def cfg_for(budget, strategy="hybrid", seed=5, **kw):
    return PipelineConfig(budget=budget, seed=seed, strategy=strategy, sampler=FAST, **kw)


class TestAddMonths:
    def test_plain(self):
        assert add_months(date(2023, 1, 2), 3) == date(2023, 4, 2)

    def test_year_wrap(self):
        assert add_months(date(2023, 11, 15), 3) == date(2024, 2, 15)

    def test_day_clamped(self):
        assert add_months(date(2023, 1, 31), 1) == date(2023, 2, 28)

    def test_past_9999_is_none(self):
        assert add_months(date(9999, 11, 30), 1) == date(9999, 12, 30)
        assert add_months(date(9999, 12, 1), 1) is None
        assert add_months(date(2023, 1, 2), 100_000) is None


def flagged_on_last_day(r, h, policy):
    """What health_check flags on the last day of ``r``, every close set to 1."""
    return set(health_check(h, dict.fromkeys(r.tickers, 1.0), r, policy, r.dates[-1]).flagged)


class TestIdentifyRisky:
    """The rules by which health_check flags a holding as risky."""

    def test_return_threshold_rule(self):
        # A trails at -0.002, B at +0.001; vol rule off at quantile 1.0
        r = returns_matrix({"A": [-0.002] * 6, "B": [0.001] * 6})
        h = Holdings({"A": 1, "B": 1}, 0.0)
        policy = RebalancePolicy(lookback_days=5, risk_vol_quantile=1.0)
        flagged = flagged_on_last_day(r, h, policy)
        assert flagged == {"A"}

    def test_equal_vols_never_flag_on_quantile(self):
        col = [0.002, -0.001, 0.003, -0.001, 0.002, 0.001]
        r = returns_matrix({"A": col, "B": col, "C": col})
        h = Holdings({"A": 1, "B": 1, "C": 1}, 0.0)
        policy = RebalancePolicy(lookback_days=6, risk_vol_quantile=1.0)
        assert flagged_on_last_day(r, h, policy) == set()

    def test_constant_prices_flag_everything(self):
        dates = tuple(business_days(date(2023, 1, 2), 10))
        prices = PriceMatrix(dates, ("A", "B"), np.full((10, 2), 50.0))
        r = compute_returns(prices)
        h = Holdings({"A": 1, "B": 1}, 0.0)
        policy = RebalancePolicy(lookback_days=5, risk_vol_quantile=1.0)
        # all means are 0 <= 0: the boundary convention flags them all
        assert flagged_on_last_day(r, h, policy) == {"A", "B"}

    def test_vol_quantile_rule(self):
        quiet = [0.001, -0.001] * 5
        noisy = [0.02, -0.018] * 5
        r = returns_matrix({"A": quiet, "B": quiet, "C": noisy})
        h = Holdings({"A": 1, "B": 1, "C": 1}, 0.0)
        policy = RebalancePolicy(
            lookback_days=10, risk_return_threshold=-1.0, risk_vol_quantile=0.8
        )
        assert flagged_on_last_day(r, h, policy) == {"C"}

    def test_insufficient_history(self):
        r = returns_matrix({"A": [0.001] * 4})
        h = Holdings({"A": 1}, 0.0)
        with pytest.raises(InputError, match="insufficient"):
            flagged_on_last_day(r, h, RebalancePolicy(lookback_days=5))

    def test_only_held_considered(self):
        r = returns_matrix({"A": [-0.01] * 6, "B": [0.001] * 6})
        h = Holdings({"B": 1}, 0.0)
        policy = RebalancePolicy(lookback_days=5, risk_vol_quantile=1.0)
        assert flagged_on_last_day(r, h, policy) == set()


class TestVolatilityCut:
    """The volatility cut equals ``np.quantile``'s default method bit for bit, since the
    strict ``vol > cut`` of the flag rule can turn on the cut's last bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.01, 0.015, 0.02, 0.3, math.inf, math.nan]),  # ties, and overflowed vols
                st.floats(min_value=0.0, max_value=1e300).map(abs),  # a volatility is never -0.0
            ),
            min_size=1,
            max_size=12,
        ),
        st.one_of(st.sampled_from([0.8, 1.0]), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    )
    def test_equals_np_quantile(self, vols, q):
        vols = np.array(vols)
        with np.errstate(invalid="ignore"):  # numpy's lerp takes inf - inf on an overflowed volatility
            reference = float(np.quantile(vols, q))
        cut = rebalance._linear_quantile(vols, q)
        assert type(cut) is float
        assert (math.isnan(cut) and math.isnan(reference)) or struct.pack("<d", cut) == struct.pack("<d", reference)

    def test_the_form_for_t_at_least_half_decides_a_flag(self):
        # v = 2 * 0.95 = 1.9: numpy's b - (b - a) * (1 - t) puts the cut below the top
        # volatility, where a + (b - a) * t would land on it and flag nothing
        vols = np.array([0.3, 0.3, 0.30000000000000027])
        cut = rebalance._linear_quantile(vols, 0.95)
        assert cut == float(np.quantile(vols, 0.95)) < vols[2] == 0.3 + (vols[2] - 0.3) * (2 * 0.95 - 1)


class TestHealthCheck:
    def make_prices(self, cols):
        dates = tuple(business_days(date(2023, 1, 2), len(next(iter(cols.values())))))
        tickers = tuple(sorted(cols))
        vals = np.column_stack([cols[t] for t in tickers])
        return PriceMatrix(dates, tickers, vals)

    def test_healthy_single_asset(self):
        prices = self.make_prices({"A": [100 * 1.01**i for i in range(10)]})
        returns = compute_returns(prices)
        h = Holdings({"A": 2}, 5.0)
        policy = RebalancePolicy(lookback_days=5, risk_vol_quantile=1.0)
        rep = health_check(
            h, prices.prices_at(prices.dates[-1]), returns, policy, prices.dates[-1], initial_value=150.0
        )
        assert rep.flagged == ()
        assert rep.value == pytest.approx(2 * prices.values[-1, 0] + 5.0)
        assert rep.profit == pytest.approx(rep.value - 150.0)

    def test_all_cash(self):
        prices = self.make_prices({"A": [100.0] * 10})
        returns = compute_returns(prices)
        rep = health_check(
            Holdings({}, 321.0),
            prices.prices_at(prices.dates[-1]),
            returns,
            RebalancePolicy(lookback_days=5),
            prices.dates[-1],
        )
        assert rep.flagged == ()
        assert rep.value == pytest.approx(321.0)
        assert rep.asset_stats == {}

    def test_one_flagged_of_three(self):
        cols = {
            "A": [100 * 1.003**i for i in range(12)],
            "B": [100 * 1.002**i for i in range(12)],
            "C": [100 * 0.99**i for i in range(12)],
        }
        prices = self.make_prices(cols)
        returns = compute_returns(prices)
        h = Holdings({"A": 1, "B": 1, "C": 1}, 0.0)
        policy = RebalancePolicy(lookback_days=8, risk_vol_quantile=1.0)
        rep = health_check(h, prices.prices_at(prices.dates[-1]), returns, policy, prices.dates[-1])
        assert rep.flagged == ("C",)
        assert set(rep.asset_stats) == {"A", "B", "C"}
        assert rep.asset_stats["C"][0] < 0

    def test_held_ticker_without_history(self):
        prices = self.make_prices({"A": [100.0 + i for i in range(10)]})
        returns = compute_returns(prices)
        h = Holdings({"A": 1, "Z": 2}, 0.0)
        with pytest.raises(InputError, match="no return history for held ticker 'Z'"):
            health_check(h, {"A": 109.0, "Z": 5.0}, returns, RebalancePolicy(lookback_days=5), prices.dates[-1])


def flat_stats_provider(prices):
    def provider(tickers):
        window = prices.restrict(tickers)
        return estimate_stats(compute_returns(window))

    return provider


class TestRebalanceStep:
    def setup_method(self):
        self.prices = grw_matrix(
            [
                ("AAA", 50.0, -0.004, 0.01),
                ("BBB", 40.0, 0.002, 0.01),
                ("CCC", 30.0, 0.003, 0.012),
                ("DDD", 25.0, 0.002, 0.015),
                ("EEE", 60.0, 0.001, 0.011),
            ],
            n_days=60,
            seed=14,
        )
        self.sectors = SectorMap(
            {"AAA": "Tech", "BBB": "Tech", "CCC": "Energy", "DDD": "Energy", "EEE": "Energy"}
        )
        self.as_of = self.prices.dates[-1]
        self.prices_at = self.prices.prices_at(self.as_of)
        self.provider = flat_stats_provider(self.prices)
        self.cfg = cfg_for(10_000.0)

    def test_noop_when_nothing_flagged(self):
        h = Holdings({"AAA": 10, "BBB": 5}, 12.0)
        out, event = rebalance_step(
            h, set(), self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
        )
        assert out is h
        assert event.sold == {} and event.bought == {}

    def test_same_sector_replacement(self):
        h = Holdings({"AAA": 10, "CCC": 5}, 0.0)
        out, event = rebalance_step(
            h, {"AAA"}, self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
        )
        # AAA is Tech; the only other Tech name is BBB
        assert event.universe_used == ("BBB",)
        assert "AAA" not in out.shares or out.shares["AAA"] == 0
        assert out.shares.get("BBB", 0) > 0
        assert event.note == ""

    def test_cash_conservation(self):
        h = Holdings({"AAA": 10, "CCC": 5}, 7.5)
        out, event = rebalance_step(
            h, {"AAA"}, self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
        )
        proceeds = sum(p for _, p in event.sold.values())
        cost = sum(c for _, c in event.bought.values())
        assert proceeds + h.cash == pytest.approx(cost + out.cash, abs=0.005)
        assert event.new_budget == pytest.approx(proceeds + h.cash, abs=1e-9)
        assert event.cash_after == pytest.approx(out.cash, abs=1e-9)

    def test_widening_when_sector_exhausted(self):
        h = Holdings({"AAA": 10, "BBB": 5}, 0.0)  # both Tech names held
        out, event = rebalance_step(
            h, {"AAA"}, self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
        )
        assert "widened" in event.note
        assert set(event.universe_used) == {"CCC", "DDD", "EEE"}

    def wide_fixture(self):
        prices = grw_matrix(
            [
                ("AAA", 50.0, 0.001, 0.01),
                ("BBB", 40.0, 0.002, 0.01),
                ("CCC", 30.0, 0.001, 0.012),
                ("DDD", 25.0, 0.002, 0.015),
                ("EEE", 60.0, 0.001, 0.011),
                ("FFF", 45.0, 0.002, 0.012),
                ("GGG", 35.0, 0.001, 0.013),
            ],
            n_days=60,
            seed=15,
        )
        sectors = SectorMap(
            {
                "AAA": "Tech", "BBB": "Tech", "FFF": "Tech",
                "CCC": "Energy", "DDD": "Energy", "EEE": "Energy",
                "GGG": "Utilities",
            }
        )
        as_of = prices.dates[-1]
        return prices.prices_at(as_of), sectors, flat_stats_provider(prices), as_of

    def test_per_sector_minimum_triggers_widening(self):
        prices_at, sectors, provider, as_of = self.wide_fixture()
        # Energy contributes zero candidates (CCC sold, DDD/EEE held) even
        # though Tech alone could cover N=2: the per-sector floor widens
        h = Holdings({"AAA": 4, "CCC": 4, "DDD": 4, "EEE": 4}, 0.0)
        out, event = rebalance_step(
            h, {"AAA", "CCC"}, prices_at, sectors, provider, self.cfg, as_of
        )
        assert "widened" in event.note
        assert set(event.universe_used) == {"BBB", "FFF", "GGG"}

    def test_degenerate_holds_cash(self):
        # every candidate is either sold or held: nothing to buy
        h = Holdings({"AAA": 2, "BBB": 2, "CCC": 2, "DDD": 2, "EEE": 2}, 0.0)
        out, event = rebalance_step(
            h, {"AAA"}, self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
        )
        assert "degenerate" in event.note
        assert event.bought == {}
        assert out.cash == pytest.approx(event.new_budget)

    def test_fully_quantum_repurchase_buys_k_names(self):
        # both Tech names held: AAA's replacement is one of the three others
        h = Holdings({"AAA": 10, "BBB": 5}, 7.5)
        cfg = cfg_for(10_000.0, "fully_quantum")
        out, event = rebalance_step(
            h, {"AAA"}, self.prices_at, self.sectors, self.provider, cfg, self.as_of
        )
        assert set(event.universe_used) == {"CCC", "DDD", "EEE"}
        assert len(event.bought) == 1 and event.note == "widened to all sectors"
        (t, (count, cost)), = event.bought.items()
        assert out.shares == {"BBB": 5, t: count}
        proceeds = sum(p for _, p in event.sold.values())
        assert proceeds + h.cash == pytest.approx(cost + out.cash, abs=1e-6)

    @staticmethod
    def losing_provider(tickers):
        # every expected return at or below the default risk-free rate of 0
        n = len(tickers)
        return AssetStats(tickers, np.full(n, -0.05), 0.04 * np.eye(n))

    FAILED = "degenerate: repurchase failed (no asset's expected return exceeds the risk-free rate), holding cash"

    @pytest.mark.parametrize("shares, losing, strategy, q, note", [
        pytest.param(
            {"AAA": 2, "BBB": 2, "CCC": 2, "DDD": 2, "EEE": 2}, False, "hybrid", 1.0,
            "widened to all sectors; degenerate: not enough candidates, holding cash",
            id="not_enough_candidates",
        ),
        pytest.param({"AAA": 10, "CCC": 5}, True, "hybrid", 1.0, FAILED, id="solver_error"),
        pytest.param(
            {"AAA": 10, "CCC": 5}, False, "fully_quantum", 1e9,
            "degenerate: repurchase bought nothing, holding cash", id="bought_nothing",
        ),
        pytest.param(
            {"AAA": 10, "BBB": 5}, True, "hybrid", 1.0, "widened to all sectors; " + FAILED,
            id="widened_then_failed",
        ),
    ])
    def test_hold_cash_exits(self, caplog, shares, losing, strategy, q, note):
        h = Holdings(shares, 7.5)
        provider = self.losing_provider if losing else self.provider
        cfg = cfg_for(10_000.0, strategy, q=q)
        with caplog.at_level(logging.WARNING, logger="annealfolio.rebalance"):
            out, event = rebalance_step(h, {"AAA"}, self.prices_at, self.sectors, provider, cfg, self.as_of)
        assert event.note == note
        assert event.bought == {}
        assert event.new_budget == shares["AAA"] * self.prices_at["AAA"] + 7.5
        assert event.cash_after == out.cash == event.new_budget
        assert out.shares == {t: n for t, n in shares.items() if t != "AAA"}
        warned = [f"rebalance on {self.as_of} could not repurchase: no asset's expected return exceeds the risk-free rate"]
        assert caplog.messages == (warned if losing else [])

    def test_widened_then_bought(self):
        h = Holdings({"AAA": 10, "BBB": 5}, 7.5)
        out, event = rebalance_step(
            h, {"AAA"}, self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
        )
        assert event.note == "widened to all sectors"
        assert event.bought
        assert out.shares == {"BBB": 5, **{t: n for t, (n, _) in event.bought.items()}}
        cost = sum(c for _, c in event.bought.values())
        assert event.cash_after == out.cash == pytest.approx(event.new_budget - cost, abs=1e-9)

    def test_flagged_must_be_held(self):
        h = Holdings({"AAA": 1}, 0.0)
        with pytest.raises(InputError):
            rebalance_step(
                h, {"ZZZ"}, self.prices_at, self.sectors, self.provider, self.cfg, self.as_of
            )


def quarterly_prices(n_days=290, seed=2, crash=None):
    params = [
        ("AAA", 50.0, 0.0012, 0.010),
        ("BBB", 40.0, 0.0009, 0.012),
        ("CCC", 30.0, 0.0011, 0.011),
        ("DDD", 25.0, 0.0008, 0.013),
        ("EEE", 60.0, 0.0010, 0.012),
    ]
    m = grw_matrix(params, n_days=n_days, seed=seed)
    if crash:
        # force a persistent steep slide in one name starting mid-series
        j = m.tickers.index(crash)
        vals = m.values.copy()
        start = n_days // 3
        for i in range(start, n_days):
            vals[i, j] = vals[start - 1, j] * (0.97 ** (i - start + 1))
        m = PriceMatrix(m.dates, m.tickers, vals)
    return m


SECTORS5 = SectorMap(
    {"AAA": "Tech", "BBB": "Tech", "CCC": "Energy", "DDD": "Energy", "EEE": "Utilities"}
)


class TestRunBacktest:
    def test_four_quarterly_events_on_13_months(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        report = run_backtest(
            prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(lookback_days=40), "AAA"
        )
        assert len(report.events) == 4
        assert len(report.dates) == len(prices.dates)
        assert report.dates[0] == prices.dates[0]

    def test_period_longer_than_data_gives_zero_events(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        report = run_backtest(
            prices, SECTORS5, 50_000.0, cfg,
            RebalancePolicy(period_months=14, lookback_days=40), "AAA",
        )
        assert report.events == ()

    def test_period_past_9999_gives_zero_events(self):
        # the first boundary, in the year 10356, ends the reviews as one past the data does
        prices = quarterly_prices()
        report = run_backtest(
            prices, SECTORS5, 50_000.0, cfg_for(50_000.0),
            RebalancePolicy(period_months=100_000, lookback_days=40), "AAA",
        )
        assert report.events == ()

    def test_no_flag_policy_equals_buy_and_hold(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        policy = RebalancePolicy(
            lookback_days=40, risk_return_threshold=-1.0, risk_vol_quantile=1.0
        )
        report = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA")
        assert all(e.sold == {} and e.bought == {} for e in report.events)
        initial = Holdings(report.initial_holdings["shares"], report.initial_holdings["cash"])
        manual = [portfolio_value(initial, prices.prices_at(d)) for d in prices.dates]
        assert np.allclose(report.algo_values, manual)

    def test_benchmark_is_buy_and_hold(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        report = run_backtest(
            prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(lookback_days=40), "BBB"
        )
        bench = prices.column("BBB")
        shares = int(50_000.0 // bench[0])
        expected = shares * bench + (50_000.0 - shares * bench[0])
        assert np.allclose(report.bench_values, expected)

    def test_weight_vector_benchmark(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        bench = WeightVector(("AAA", "BBB"), np.array([0.5, 0.5]))
        report = run_backtest(
            prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(lookback_days=40), bench
        )
        assert report.bench_values[0] == pytest.approx(50_000.0, abs=max(prices.values[0]) )

    def test_crash_asset_flagged_and_dropped(self):
        prices = quarterly_prices(crash="CCC")  # slide begins around day 96
        cfg = cfg_for(50_000.0, cardinality=5)  # hold the full universe at the start
        # only a persistent slide trips this policy: vol rule off, deep threshold
        policy = RebalancePolicy(
            lookback_days=40, risk_return_threshold=-0.004, risk_vol_quantile=1.0
        )
        start = prices.dates[70]  # causal start: the crash is still in the future
        report = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA", start=start)
        sellers = [e for e in report.events if "CCC" in e.sold]
        assert sellers, "crashing asset was never flagged"
        # replay the share ledger: CCC never reappears after its sale
        shares = dict(report.initial_holdings["shares"])
        assert shares.get("CCC", 0) > 0
        sold_on = sellers[0].date
        for e in report.events:
            for t, (count, _) in e.sold.items():
                shares[t] -= count
            for t, (count, _) in e.bought.items():
                shares[t] = shares.get(t, 0) + count
            if e.date >= sold_on:
                assert shares.get("CCC", 0) == 0

    def test_determinism_byte_identical(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        policy = RebalancePolicy(lookback_days=40)
        r1 = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA")
        r2 = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA")
        assert r1.artifacts() == r2.artifacts()

    def test_truncated_range_is_prefix(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        policy = RebalancePolicy(lookback_days=40)
        full = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA")
        cutoff = prices.dates[200]
        part = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA", end=cutoff)
        k = len(part.dates)
        assert part.dates == full.dates[:k]
        assert part.algo_values == full.algo_values[:k]
        assert part.bench_values == full.bench_values[:k]

    def test_event_count_matches_boundaries_in_range(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        policy = RebalancePolicy(period_months=2, lookback_days=40)
        report = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA")
        start, last = prices.dates[0], prices.dates[-1]
        expected = 0
        k = 1
        while True:
            b = prices.first_date_on_or_after(add_months(start, 2 * k))
            if b is None or b > last:
                break
            expected += 1
            k += 1
        assert len(report.events) == expected

    def test_plot_csv_shape(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        report = run_backtest(
            prices, SECTORS5, 50_000.0, cfg,
            RebalancePolicy(period_months=14, lookback_days=40), "AAA",
        )
        lines = report.artifacts()[1].strip().split("\n")
        assert lines[0] == "date,algo_value,bench_value"
        assert len(lines) == len(prices.dates) + 1

    def test_unknown_benchmark_rejected(self):
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        with pytest.raises(InputError):
            run_backtest(prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(), "ZZZ")

    def test_incomplete_sector_map_rejected_before_any_purchase(self, monkeypatch):
        bought = []
        monkeypatch.setattr(rebalance, "buy", lambda *a, **kw: bought.append(a))
        partial = SectorMap({t: s for t, s in SECTORS5.entries.items() if t not in ("BBB", "DDD")})
        cfg = cfg_for(50_000.0)
        with pytest.raises(InputError, match="no sector recorded for ticker 'BBB'"):
            run_backtest(quarterly_prices(), partial, 50_000.0, cfg, RebalancePolicy(lookback_days=40), "AAA")
        assert bought == []

    def test_short_history_at_first_review_rejected_before_any_purchase(self, monkeypatch):
        prices = quarterly_prices()
        review = prices.first_date_on_or_after(add_months(prices.dates[0], 3))
        have = sum(1 for d in prices.dates[1:] if d <= review)  # daily returns up to the first review
        cfg = cfg_for(50_000.0)
        report = run_backtest(prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(lookback_days=have), "AAA")
        assert report.events[0].date == review
        bought = []
        monkeypatch.setattr(rebalance, "buy", lambda *a, **kw: bought.append(a))
        with pytest.raises(InputError, match=f"need {have + 1} daily returns up to {review}, have {have}$"):
            run_backtest(prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(lookback_days=have + 1), "AAA")
        assert bought == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("row", [0, 1, 2, 70])
    def test_opening_purchase_is_run_pipeline(self, strategy, row):
        # the last closes repeat the start's, so run_pipeline on the full
        # series buys at the same closes as the opening purchase
        prices = quarterly_prices()
        values = prices.values.copy()
        values[-1] = values[row]
        prices = PriceMatrix(prices.dates, prices.tickers, values)
        cfg = cfg_for(20_000.0, strategy)
        start = prices.dates[row]
        report = run_backtest(
            prices, SECTORS5, 20_000.0, cfg, RebalancePolicy(lookback_days=40), "AAA", start=start
        )
        # fewer than two returns up to the start: estimates over the full series
        history = prices if row < 2 else prices.window(end=start)
        result = run_pipeline(history, cfg)
        opening = {"shares": result["shares"], "cash": result["cash"], "as_of": start.isoformat()}
        assert report.initial_holdings == opening

    def test_fully_quantum_all_cash_opening_raises(self):
        prices = quarterly_prices()
        cfg = cfg_for(20_000.0, "fully_quantum", q=1e9)
        with pytest.raises(SolverError, match="holds only cash"):
            run_backtest(prices, SECTORS5, 20_000.0, cfg, RebalancePolicy(lookback_days=40), "AAA")

    def test_fully_quantum_backtest_trades(self, bundled_prices, bundled_sectors):
        # integer-share repurchases carry a zero count for every candidate they
        # skip; those names are not held, so they must not shrink the universe
        cfg = PipelineConfig(budget=100_000.0, seed=42, strategy="fully_quantum")
        report = run_backtest(
            bundled_prices, bundled_sectors, 100_000.0, cfg, RebalancePolicy(), "TECH1"
        )
        assert any(e.bought for e in report.events)
        cash = report.initial_holdings["cash"]
        for e in report.events:
            proceeds = sum(amount for _, amount in e.sold.values())
            cost = sum(amount for _, amount in e.bought.values())
            assert proceeds + cash == pytest.approx(cost + e.cash_after, abs=1e-6)
            assert e.cash_after >= 0.0
            cash = e.cash_after


    def test_repurchase_of_nothing_is_noted(self):
        # the integer optimum over the lone candidate DDD is all cash
        prices = quarterly_prices(seed=2)
        cfg = cfg_for(5000.0, "fully_quantum")
        report = run_backtest(prices, SECTORS5, 5000.0, cfg, RebalancePolicy(lookback_days=40), "AAA")
        event = next(e for e in report.events if e.sold)
        assert event.universe_used == ("DDD",) and event.bought == {}
        assert event.note == "degenerate: repurchase bought nothing, holding cash"
        assert event.cash_after == event.new_budget


def per_day_values(prices, report, benchmark, budget):
    """Both series valued day by day with portfolio_value, replaying the event ledger.

    A review day is valued with the book the review leaves.
    """
    start = report.dates[0]
    if isinstance(benchmark, str):
        benchmark = WeightVector((benchmark,), np.array([1.0]))
    bench = to_shares(benchmark, prices.prices_at(start), budget, start)
    shares, cash = dict(report.initial_holdings["shares"]), report.initial_holdings["cash"]
    events = {e.date: e for e in report.events}
    algo, bench_values = [], []
    for d in report.dates:
        prices_at = prices.prices_at(d)
        if d in events:
            for t in events[d].sold:
                del shares[t]
            for t, (count, _) in events[d].bought.items():
                shares[t] = shares.get(t, 0) + count
            cash = events[d].cash_after
        algo.append(portfolio_value(Holdings(shares, cash), prices_at))
        bench_values.append(portfolio_value(bench, prices_at))
    return algo, bench_values


class TestValuationAndWindows:
    """Per-period valuation and the repurchase windows give the per-day route's exact values."""

    def assert_per_day(self, prices, report, benchmark, budget):
        algo, bench = per_day_values(prices, report, benchmark, budget)
        assert list(report.algo_values) == algo
        assert list(report.bench_values) == bench
        assert (report.final_algo, report.final_bench) == (algo[-1], bench[-1])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bundled_data(self, bundled_prices, bundled_sectors, strategy):
        cfg = PipelineConfig(budget=100_000.0, seed=42, strategy=strategy)
        report = run_backtest(bundled_prices, bundled_sectors, 100_000.0, cfg, RebalancePolicy(), "TECH1")
        assert any(e.bought for e in report.events)
        self.assert_per_day(bundled_prices, report, "TECH1", 100_000.0)

    def wide_market(self):
        # numpy sums a lone lane pairwise once it has eight terms, so the
        # one-row periods below value books of seven or more names
        params = [(f"T{j:02d}", 20.0 + 5 * j, 0.0010 + 0.0001 * (j % 4), 0.008 + 0.0004 * j) for j in range(12)]
        prices = grw_matrix(params, n_days=200, seed=3)
        return prices, SectorMap({t: "ABC"[j % 3] for j, t in enumerate(prices.tickers)})

    def test_review_on_the_last_trading_day(self):
        prices, sectors = self.wide_market()
        end = prices.first_date_on_or_after(add_months(prices.dates[0], 6))
        cfg = cfg_for(1_000_000.0, cardinality=10)
        keep = RebalancePolicy(lookback_days=40, risk_return_threshold=-1.0, risk_vol_quantile=1.0)
        report = run_backtest(prices, sectors, 1_000_000.0, cfg, keep, "T00", end=end)
        assert report.dates[-1] == report.events[-1].date == end
        assert all(not e.sold for e in report.events) and len(report.initial_holdings["shares"]) >= 7
        self.assert_per_day(prices, report, "T00", 1_000_000.0)

    def test_one_day_backtest(self):
        # both series are one row; the benchmark holds eight names
        prices, sectors = self.wide_market()
        day = prices.dates[120]
        cfg = cfg_for(1_000_000.0, cardinality=10)
        bench = WeightVector(prices.tickers[:8], np.full(8, 0.125))
        report = run_backtest(
            prices, sectors, 1_000_000.0, cfg, RebalancePolicy(lookback_days=40), bench, start=day, end=day
        )
        assert report.dates == (day,) and report.events == ()
        assert len(report.initial_holdings["shares"]) >= 7
        self.assert_per_day(prices, report, bench, 1_000_000.0)

    def test_one_row_books_add_in_ticker_order(self):
        prices, _ = self.wide_market()
        rng = np.random.default_rng(7)
        for _ in range(50):
            names = rng.choice(prices.tickers, size=rng.integers(7, 13), replace=False)
            book = Holdings({t: int(rng.integers(1, 5000)) for t in names}, float(rng.uniform(0, 1000)))
            row = int(rng.integers(len(prices.dates)))
            expected = portfolio_value(book, prices.prices_at(prices.dates[row]))
            assert rebalance._book_values(book, prices, row, row + 1) == [expected]

    def test_cash_only_book(self):
        # every held name is flagged and no candidate is left, so the book becomes cash
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0, cardinality=5)
        policy = RebalancePolicy(lookback_days=40, risk_return_threshold=1.0)
        report = run_backtest(prices, SECTORS5, 50_000.0, cfg, policy, "AAA")
        first = report.events[0]
        assert first.bought == {} and set(first.sold) == set(report.initial_holdings["shares"])
        after = report.algo_values[report.dates.index(first.date):]
        assert set(after) == {first.cash_after}
        self.assert_per_day(prices, report, "AAA", 50_000.0)

    def test_repurchase_stats_match_the_restricted_window(self, monkeypatch):
        providers = []
        step = rebalance.rebalance_step

        def spy(holdings, flagged, prices_at, sectors, provider, cfg, as_of):
            providers.append((provider, as_of))
            return step(holdings, flagged, prices_at, sectors, provider, cfg, as_of)

        monkeypatch.setattr(rebalance, "rebalance_step", spy)
        prices = quarterly_prices()
        cfg = cfg_for(50_000.0)
        run_backtest(prices, SECTORS5, 50_000.0, cfg, RebalancePolicy(lookback_days=40), "AAA")
        assert len(providers) == 4
        for provider, as_of in providers:
            for tickers in (prices.tickers, ("EEE", "AAA", "CCC"), ("BBB",)):
                got = provider(tickers)
                want = estimate_stats(compute_returns(prices.restrict(tickers).window(end=as_of)))
                assert got.tickers == want.tickers
                assert got.mu.tobytes() == want.mu.tobytes()
                assert got.sigma.tobytes() == want.sigma.tobytes()


def assert_ledger(report, budget):
    """Replay the share and cash ledger: every event balances and nothing is overspent."""
    initial = report.initial_holdings
    shares = {t: c for t, c in initial["shares"].items() if c}
    cash = initial["cash"]
    assert 0.0 <= cash <= budget
    for e in report.events:
        proceeds = sum(amount for _, amount in e.sold.values())
        cost = sum(amount for _, amount in e.bought.values())
        assert e.new_budget == pytest.approx(proceeds + cash, abs=1e-6)
        assert proceeds + cash == pytest.approx(cost + e.cash_after, abs=1e-6)
        assert cost <= e.new_budget + 1e-6 and e.cash_after >= 0.0
        for t, (count, _) in e.sold.items():
            assert shares.pop(t) == count  # a sale closes the whole position
        for t, (count, _) in e.bought.items():
            assert count > 0 and t not in shares
            shares[t] = count
        cash = e.cash_after


class TestBacktestProperty:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        budget=st.sampled_from([3_000.0, 20_000.0, 60_000.0]),
        market=st.integers(0, 5),
        crash=st.sampled_from([None, "CCC", "EEE"]),
        period=st.sampled_from([2, 3]),
    )
    def test_ledger_balances_and_reruns_identically(self, strategy, seed, budget, market, crash, period):
        prices = quarterly_prices(seed=market, crash=crash)
        cfg = cfg_for(budget, strategy, seed=seed)
        policy = RebalancePolicy(period_months=period, lookback_days=40)
        report = run_backtest(prices, SECTORS5, budget, cfg, policy, "AAA")
        assert_ledger(report, budget)
        again = run_backtest(prices, SECTORS5, budget, cfg, policy, "AAA")
        assert again.artifacts() == report.artifacts() == reference_artifacts(report)


class TestPolicyValidation:
    def test_bad_fields(self):
        for bad in (
            {"period_months": 0},
            {"risk_vol_quantile": 0.0},
            {"lookback_days": 1},
            {"period_months": 2.5},
            {"period_months": 3.0},
            {"period_months": True},
            {"lookback_days": "x"},
            {"risk_return_threshold": None},
            {"risk_return_threshold": float("nan")},
            {"risk_vol_quantile": float("inf")},
            {"risk_vol_quantile": 1.5},
            {"risk_vol_quantile": "0.8"},
        ):
            with pytest.raises(InputError, match=next(iter(bad))):
                RebalancePolicy(**bad)


class _IntWithRepr(int):
    def __repr__(self):
        return "not json"


class _FloatWithRepr(float):
    def __repr__(self):
        return "not json"


# every kind of value an artifact can hold, and the edge cases of each
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**300), 2**300),
    st.integers().map(_IntWithRepr),
    st.floats(),  # nan, +-inf, +-0.0 and subnormals among them
    st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, math.inf, -math.inf, math.nan]),
    st.floats().map(np.float64),
    st.floats().map(_FloatWithRepr),
    st.text(),  # non-ASCII and control characters among them
    st.text(st.characters(max_codepoint=0x1F) | st.sampled_from(['"', "\\", "\u2028", "\U0001F600"])),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), kids, max_size=4),
    ),
    max_leaves=30,
)


class TestLayoutJson:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, obj):
        assert layout_json(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [[], (), {}, "", {"": {"": ()}}, [[{}], [[]]], {"b": [], "a": {}}])
    def test_empty_containers_and_keys(self, obj):
        assert layout_json(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [np.int64(3), {1, 2}, [b"x"], {"a": object()}])
    def test_what_json_cannot_write_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            layout_json(obj)

    def test_non_str_key_raises_type_error(self):
        # json.dumps would write the key 1 as "1"; no artifact has a key that is not a str
        with pytest.raises(TypeError):
            layout_json({1: "x"})

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pipeline_result_on_bundled_data(self, bundled_prices, strategy):
        result = run_pipeline(bundled_prices, cfg_for(100_000.0, strategy, seed=42))
        assert layout_json(result) == json.dumps(result, indent=2, sort_keys=True)


class TestArtifacts:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bundled_backtest_matches_reference(self, bundled_prices, bundled_sectors, strategy):
        cfg = cfg_for(100_000.0, strategy, seed=42)
        report = run_backtest(bundled_prices, bundled_sectors, 100_000.0, cfg, RebalancePolicy(), "TECH1")
        assert report.events
        assert report.artifacts() == reference_artifacts(report)

    def test_non_finite_values_keep_each_spelling(self):
        report = BacktestReport(
            dates=(date(2024, 1, 2), date(2024, 1, 3), date(2024, 1, 4)),
            algo_values=(math.inf, -0.0, 5e-324),
            bench_values=(math.nan, -math.inf, 1e300),
            events=(),
            final_algo=5e-324,
            final_bench=1e300,
            config_echo={"note": "caf\u00e9\n"},
        )
        json_text, csv_text = report.artifacts()
        assert (json_text, csv_text) == reference_artifacts(report)
        assert json.loads(json_text)["algo"][0] == math.inf and "NaN" in json_text
        assert csv_text.splitlines()[1:] == ["2024-01-02,inf,nan", "2024-01-03,-0.0,-inf", "2024-01-04,5e-324,1e+300"]

    def test_empty_series(self):
        report = BacktestReport((), (), (), (), 0.0, 0.0, {})
        assert report.artifacts() == reference_artifacts(report)
        assert report.artifacts()[1] == "date,algo_value,bench_value\n"
