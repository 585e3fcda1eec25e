"""Metamorphic relations of the hybrid strategy over drawn markets.

Multiplying every close and the budget by 2^j is exact in floating point,
and a price file with its rows shuffled holds the same data, so neither may
change a decision: the same names, the same share counts, and money that
scales by exactly 2^j or bytes that do not change at all. Renaming the
tickers renames the decisions: the same share counts under the new names,
with cash equal within rounding, since the spend is added in ticker order.
fully_quantum is left out: its absolute ``t_final`` and the +0.01 of its
share penalty break the scale relation in a few paper-scale cases, and its
moves drawn by index break renaming in a few more (ROADMAP item 10).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio.cli import main
from annealfolio.errors import SolverError
from annealfolio.marketdata import PriceMatrix, SectorMap
from annealfolio.pipeline import PipelineConfig, run_pipeline
from annealfolio.rebalance import RebalancePolicy, run_backtest
from annealfolio.sampler import AnnealSchedule
from annealfolio.synthetic import prices_to_csv, sectors_to_csv

from conftest import grw_matrix

SCHEDULE = {"sweeps": 60, "restarts": 8}
POLICY = {"period_months": 2, "lookback_days": 30}


@st.composite
def markets(draw):
    """A geometric random walk over 5-8 tickers and 80-300 days, and a sector map of two or three sectors."""
    n = draw(st.integers(5, 8))
    params = [
        (
            f"T{i}",
            draw(st.floats(5.0, 500.0)),
            draw(st.floats(-0.001, 0.002)),
            draw(st.floats(0.005, 0.03)),
        )
        for i in range(n)
    ]
    prices = grw_matrix(params, n_days=draw(st.integers(80, 300)), seed=draw(st.integers(0, 2**32 - 1)))
    n_sectors = draw(st.integers(2, 3))
    return prices, SectorMap({t: f"S{i % n_sectors}" for i, t in enumerate(prices.tickers)})


budgets = st.sampled_from([20_000.0, 250_000.0, 1_000_000.0])


def scaled(prices: PriceMatrix, factor: float) -> PriceMatrix:
    return PriceMatrix(prices.dates, prices.tickers, prices.values * factor)


def renamed(prices: PriceMatrix, sectors: SectorMap, perm) -> tuple[PriceMatrix, SectorMap, dict[str, str]]:
    """The market with ticker i renamed ``R<perm[i]>``, its columns in the new names' sorted order, and the renaming."""
    names = {t: f"R{p}" for t, p in zip(prices.tickers, perm)}
    order = sorted(range(len(prices.tickers)), key=lambda i: names[prices.tickers[i]])
    twin = PriceMatrix(prices.dates, tuple(names[prices.tickers[i]] for i in order), prices.values[:, order])
    return twin, SectorMap({names[t]: s for t, s in sectors.entries.items()}), names


def shuffled_order(n: int):
    """Permutations of range(n) that change the tickers' sorted order."""
    return st.permutations(range(n)).filter(lambda perm: list(perm) != sorted(perm))


def hybrid(budget: float, seed: int) -> PipelineConfig:
    return PipelineConfig(budget=budget, seed=seed, strategy="hybrid", sampler=AnnealSchedule(**SCHEDULE))


def attempt(run, *args):
    """``run(*args)``, or the name of the SolverError subclass it raises: a market whose
    names all trail the risk-free rate must fail the same way at every scale."""
    try:
        return run(*args)
    except SolverError as exc:
        return type(exc).__name__


class TestScale:
    @settings(max_examples=40, deadline=None)
    @given(markets(), budgets, st.integers(-3, 3), st.integers(0, 2**31 - 1))
    def test_optimize_buys_the_same_shares(self, market, budget, j, seed):
        prices, _ = market
        k = 2.0**j
        base = attempt(run_pipeline, prices, hybrid(budget, seed))
        twin = attempt(run_pipeline, scaled(prices, k), hybrid(budget * k, seed))
        if isinstance(base, str):
            assert twin == base
            return
        assert twin["selected"] == base["selected"]
        assert twin["shares"] == base["shares"]
        assert twin["cash"] == base["cash"] * k

    @settings(max_examples=30, deadline=None)
    @given(markets(), budgets, st.integers(-3, 3), st.integers(0, 2**31 - 1))
    def test_backtest_trades_the_same_shares(self, market, budget, j, seed):
        prices, sectors = market
        k, policy, bench = 2.0**j, RebalancePolicy(**POLICY), prices.tickers[0]
        base = attempt(run_backtest, prices, sectors, budget, hybrid(budget, seed), policy, bench)
        twin = attempt(run_backtest, scaled(prices, k), sectors, budget * k, hybrid(budget * k, seed), policy, bench)
        if isinstance(base, str):
            assert twin == base
            return
        assert len(twin.events) == len(base.events)
        for e, f in zip(base.events, twin.events):
            assert {t: s for t, (s, _) in f.sold.items()} == {t: s for t, (s, _) in e.sold.items()}
            assert {t: s for t, (s, _) in f.bought.items()} == {t: s for t, (s, _) in e.bought.items()}
            assert f.cash_after == e.cash_after * k
        for values, twin_values in ((base.algo_values, twin.algo_values), (base.bench_values, twin.bench_values)):
            assert list(twin_values) == [v * k for v in values]
        assert (twin.final_algo, twin.final_bench) == (base.final_algo * k, base.final_bench * k)


class TestRename:
    @settings(max_examples=40, deadline=None)
    @given(markets(), budgets, st.data(), st.integers(0, 2**31 - 1))
    def test_optimize_buys_the_renamed_shares(self, market, budget, data, seed):
        prices, sectors = market
        twin_prices, _, names = renamed(prices, sectors, data.draw(shuffled_order(len(prices.tickers))))
        base = attempt(run_pipeline, prices, hybrid(budget, seed))
        twin = attempt(run_pipeline, twin_prices, hybrid(budget, seed))
        if isinstance(base, str):
            assert twin == base
            return
        assert sorted(twin["selected"]) == sorted(names[t] for t in base["selected"])
        assert twin["shares"] == {names[t]: c for t, c in base["shares"].items()}
        assert twin["cash"] == pytest.approx(base["cash"], rel=0, abs=1e-9 * budget)

    @settings(max_examples=30, deadline=None)
    @given(markets(), budgets, st.data(), st.integers(0, 2**31 - 1))
    def test_backtest_trades_the_renamed_shares(self, market, budget, data, seed):
        prices, sectors = market
        twin_prices, twin_sectors, names = renamed(prices, sectors, data.draw(shuffled_order(len(prices.tickers))))
        policy, bench = RebalancePolicy(**POLICY), prices.tickers[0]
        base = attempt(run_backtest, prices, sectors, budget, hybrid(budget, seed), policy, bench)
        twin = attempt(run_backtest, twin_prices, twin_sectors, budget, hybrid(budget, seed), policy, names[bench])
        if isinstance(base, str):
            assert twin == base
            return
        assert [f.date for f in twin.events] == [e.date for e in base.events]
        for e, f in zip(base.events, twin.events):
            assert {t: s for t, (s, _) in f.sold.items()} == {names[t]: s for t, (s, _) in e.sold.items()}
            assert {t: s for t, (s, _) in f.bought.items()} == {names[t]: s for t, (s, _) in e.bought.items()}
            assert f.cash_after == pytest.approx(e.cash_after, rel=0, abs=1e-9 * budget)


class TestRowOrder:
    """Shuffling a drawn market's CSV rows leaves every optimize and backtest artifact byte-identical."""

    @settings(max_examples=15, deadline=None)
    @given(markets(), budgets, st.integers(0, 2**32 - 1))
    def test_shuffled_rows_write_the_same_bytes(self, tmp_path_factory, market, budget, shuffle_seed):
        prices, sectors = market
        tmp = tmp_path_factory.mktemp("rows")
        header, *body = prices_to_csv(prices).splitlines()
        shuffled = [body[i] for i in np.random.default_rng(shuffle_seed).permutation(len(body))]
        (tmp / "plain.csv").write_text("\n".join([header, *body]) + "\n")
        (tmp / "shuffled.csv").write_text("\n".join([header, *shuffled]) + "\n")
        (tmp / "sectors.csv").write_text(sectors_to_csv(sectors))
        (tmp / "config.json").write_text(json.dumps({**POLICY, "sampler": SCHEDULE}))
        common = ["--seed", "7", "--budget", str(budget), "--strategy", "hybrid", "--config", str(tmp / "config.json")]
        for command in (["optimize"], ["backtest", "--benchmark", prices.tickers[0]]):
            codes, artifacts = [], []
            for name in ("plain", "shuffled"):
                out = tmp / f"{command[0]}-{name}"
                argv = [*command, *common, "--prices", str(tmp / f"{name}.csv"), "--sectors", str(tmp / "sectors.csv")]
                codes.append(main([*argv, "--out-dir", str(out)]))
                artifacts.append({f.name: f.read_bytes() for f in out.glob("*")})
            assert codes[0] == codes[1] and artifacts[0] == artifacts[1]
            assert codes[0] == 1 or artifacts[0]  # 1: nothing beats the risk-free rate, in either file
