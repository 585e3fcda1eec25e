import ast
import importlib
import importlib.util
import itertools
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio import pipeline, sampler
from annealfolio.allocator import WeightVector
from annealfolio.errors import InputError, SolverError
from annealfolio.marketdata import AssetStats
from annealfolio.model import (
    KSubsetModel,
    LinearConstraint,
    affordable_shares,
    build_mpt_model,
    build_mvo_qubo,
    penalize_equality,
    qubo_energy,
)
from annealfolio.pipeline import (
    BAND_HALF_WIDTH,
    BAND_SWEEPS,
    Holdings,
    SELECT_RESTARTS,
    SELECT_SWEEPS,
    SHARE_STEPS,
    PipelineConfig,
    _best_descent,
    _descend,
    _dollar_objective,
    _relaxed_dollars,
    _share_penalty,
    _swap_descent,
    buy,
    optimize_integer_shares,
    portfolio_value,
    run_pipeline,
    select_assets,
    to_shares,
)
from annealfolio.sampler import (
    DEFAULT_RESTARTS,
    DEFAULT_SWEEPS,
    AnnealSchedule,
    simulated_anneal,
    state_to_array,
    swap_curvature,
)

from conftest import grw_matrix

FAST = AnnealSchedule(sweeps=300, restarts=8)


def make_stats(mu, sigma, tickers=None):
    mu = np.asarray(mu, dtype=float)
    tickers = tuple(tickers or (f"T{i}" for i in range(len(mu))))
    return AssetStats(tickers, mu, np.asarray(sigma, dtype=float))


def cfg_for(budget, strategy="hybrid", seed=7, **kw):
    return PipelineConfig(budget=budget, seed=seed, strategy=strategy, sampler=FAST, **kw)


class TestSelectAssets:
    def test_zero_covariance_picks_top_returns(self):
        stats = make_stats([0.1, 0.2, 0.3], np.zeros((3, 3)))
        picked = select_assets(stats, 2, 1.0, FAST, seed=1)
        assert picked == ("T1", "T2")

    def test_full_universe_shortcut(self):
        stats = make_stats([0.1, 0.2], np.diag([1.0, 1.0]))
        assert select_assets(stats, 2, 1.0, FAST, seed=1) == ("T0", "T1")

    def test_matches_exhaustive_feasible_optimum(self):
        # default schedule, annualized-scale statistics
        rng = np.random.default_rng(12)
        hits = 0
        for trial in range(10):
            n = 12
            A = rng.normal(0, 0.15, (n, n))
            stats = make_stats(rng.uniform(0.0, 0.5, n), A @ A.T)
            k = int(rng.integers(2, 6))
            picked = select_assets(stats, k, 1.0, AnnealSchedule(), seed=trial)
            assert len(picked) == k
            m = build_mvo_qubo(stats, 1.0, k)
            x = np.array([1.0 if t in picked else 0.0 for t in stats.tickers])
            feas = [
                s
                for s in itertools.product((0, 1), repeat=n)
                if sum(s) == k
            ]
            best = min(qubo_energy(m, np.array(s, dtype=float)) for s in feas)
            if qubo_energy(m, x) <= best + 1e-9:
                hits += 1
        assert hits >= 9

    def test_cardinality_out_of_range(self):
        stats = make_stats([0.1], [[0.0]])
        with pytest.raises(InputError):
            select_assets(stats, 2, 1.0, FAST, seed=1)

    def test_exact_ties_keep_the_first_record(self):
        # every 2-subset of four equal names ties: no restart ever improves on
        # its start (the two smallest of the first four uniforms of
        # PCG64(seed).jumped(r)), no swap descends, and the first record
        # wins: the start whose bitstring sorts first
        stats = make_stats([10.0] * 4, np.zeros((4, 4)))
        starts = []
        for r in range(2):
            u = np.random.Generator(np.random.PCG64(3).jumped(r)).random(4)
            starts.append(tuple(stats.tickers[i] for i in sorted(np.argsort(u, kind="stable")[:2])))
        assert starts == [("T0", "T1"), ("T1", "T3")]  # 1100 and 0101
        assert select_assets(stats, 2, 1.0, AnnealSchedule(sweeps=50, restarts=1), seed=3) == starts[0]
        assert select_assets(stats, 2, 1.0, AnnealSchedule(sweeps=50, restarts=2), seed=3) == starts[1]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_one_swap_cardinalities_are_exact(self, n):
        # at k = 1 and k = n - 1 one swap reaches every k-subset, so the
        # result is the brute-force optimum whatever the seed or schedule
        rng = np.random.default_rng([15, n])
        for k in sorted({1, n - 1}):
            for trial in range(4):
                stats = random_selection_stats(rng, n)
                q = float(rng.choice([0.1, 1.0, 10.0]))
                best = min(
                    itertools.combinations(stats.tickers, k),
                    key=lambda sub: selection_objective(stats, q, sub),
                )
                picks = {
                    select_assets(stats, k, q, schedule, seed)
                    for seed in (0, 1, 2)
                    for schedule in (FAST, AnnealSchedule(sweeps=1, restarts=1), AnnealSchedule())
                }
                assert picks == {best}

    @pytest.mark.parametrize("n, k, anneals", [
        (2, 1, 0), (5, 1, 0), (5, 4, 0), (5, 5, 0), (5, 2, 1), (5, 3, 1), (12, 6, 1),
    ])
    def test_anneals_only_past_one_swap(self, monkeypatch, n, k, anneals):
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(pipeline, name, wrapped)

        spy("build_mvo_qubo", build_mvo_qubo)
        spy("simulated_anneal", simulated_anneal)
        stats = random_selection_stats(np.random.default_rng(n * 100 + k), n)
        assert len(select_assets(stats, k, 1.0, FAST, seed=4)) == k
        assert calls == ["simulated_anneal"] * anneals

    @pytest.mark.parametrize("mu, k, picked", [
        ([10.0, 10.0, 10.0], 1, ("T0",)),  # every name ties: the start is kept
        ([1.0, 5.0, 5.0], 1, ("T1",)),  # the first best name is added
        ([1.0, 1.0, 5.0], 2, ("T1", "T2")),  # the first worst name is dropped
        ([5.0, 5.0, 5.0, 5.0], 3, ("T0", "T1", "T2")),
    ])
    def test_one_swap_ties(self, mu, k, picked):
        stats = make_stats(mu, np.zeros((len(mu), len(mu))))
        assert select_assets(stats, k, 1.0, FAST, seed=3) == picked

    def test_large_universe_anneals_once(self, monkeypatch):
        # n = 30 is past every enumeration cap; the swap anneal has no size limit
        calls = []

        def spy(m, schedule, seed):
            calls.append((type(m), m.n, m.k, schedule))
            return simulated_anneal(m, schedule, seed)

        monkeypatch.setattr(pipeline, "simulated_anneal", spy)
        stats = random_selection_stats(np.random.default_rng(30), 30)
        picked = select_assets(stats, 6, 1.0, FAST, seed=2)
        assert calls == [(KSubsetModel, 30, 6, FAST)]
        assert_swap_optimal(stats, 1.0, picked, 6)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_equals_enumeration_at_every_annealed_cardinality(self, n):
        # the default schedule finds the exact k-subset optimum for every 2 <= k <= n - 2
        rng = np.random.default_rng([16, n])
        for trial in range(3):
            stats = random_selection_stats(rng, n)
            q = float(rng.choice([0.1, 1.0, 10.0]))
            for k in range(2, n - 1):
                best = min(selection_objective(stats, q, sub) for sub in itertools.combinations(stats.tickers, k))
                picked = select_assets(stats, k, q, AnnealSchedule(), seed=trial)
                assert len(picked) == k and selection_objective(stats, q, picked) <= best + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 10),
        k_frac=st.floats(0.0, 1.0),
        q=st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_no_single_swap_improves(self, seed, n, k_frac, q):
        k = 1 + int(k_frac * (n - 1))
        stats = random_selection_stats(np.random.default_rng(seed), n)
        picked = select_assets(stats, k, q, AnnealSchedule(sweeps=20, restarts=2), seed)
        assert_swap_optimal(stats, q, picked, k)


def random_selection_stats(rng, n):
    A = rng.normal(0, 0.15, (n, int(rng.integers(1, n + 1))))
    return make_stats(rng.uniform(-0.1, 0.5, n), A @ A.T)


def assert_swap_optimal(stats, q, picked, k):
    """Exactly k names, and no swap of a held name for another lowers q x'Sigma x - mu'x."""
    assert len(picked) == k and len(set(picked)) == k
    x = [1 if t in picked else 0 for t in stats.tickers]
    ones = np.ones(stats.n)
    here = _dollar_objective(x, ones, stats, q)
    for i, j in itertools.permutations(range(stats.n), 2):
        if x[i] and not x[j]:
            y = list(x)
            y[i], y[j] = 0, 1
            assert _dollar_objective(y, ones, stats, q) >= here - 1e-12


def selection_objective(stats, q, picked):
    return _dollar_objective([t in picked for t in stats.tickers], np.ones(stats.n), stats, q)


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSelectionRestarts:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 12),
        k_frac=st.floats(0.0, 1.0),
        q=st.sampled_from([0.1, 1.0, 10.0]),
        sweeps=st.sampled_from([5, 50, None]),
    )
    def test_never_worse_than_the_single_start_selection(self, seed, n, k_frac, q, sweeps):
        # restart 0 runs the same whatever the restart count, and every restart is descended
        k = 1 + int(k_frac * (n - 1))
        stats = random_selection_stats(np.random.default_rng(seed), n)
        picked = select_assets(stats, k, q, AnnealSchedule(sweeps=sweeps, restarts=8), seed)
        one = select_assets(stats, k, q, AnnealSchedule(sweeps=sweeps, restarts=1), seed)
        assert selection_objective(stats, q, picked) <= selection_objective(stats, q, one) + 1e-12

    @pytest.mark.parametrize("candidate", [0, 1, 16])
    def test_hard_hedged_instances_reach_the_optimum(self, candidate):
        # screened hedged markets where some random-start swap descents stop
        # in a worse swap-local minimum, and so does the one-restart selection
        family = load_script("sampler_quality")
        stats, k, best, hard = family.hedged_candidate(7, candidate)
        assert hard
        q = family.HEDGED_Q
        one = select_assets(stats, k, q, AnnealSchedule(restarts=1), candidate)
        assert selection_objective(stats, q, one) > best + 1e-9
        picked = select_assets(stats, k, q, AnnealSchedule(), candidate)
        assert selection_objective(stats, q, picked) <= best + 1e-9


class TestToShares:
    def test_single_asset_floor(self):
        w = WeightVector(("A",), np.array([1.0]))
        h = to_shares(w, {"A": 30.0}, 100.0)
        assert h.shares == {"A": 3}
        assert h.cash == pytest.approx(10.0)

    def test_remainder_pass_ticker_order(self):
        w = WeightVector(("A", "B"), np.array([0.5, 0.5]))
        h = to_shares(w, {"A": 30.0, "B": 30.0}, 100.0)
        assert h.shares == {"A": 2, "B": 1}
        assert h.cash == pytest.approx(10.0)

    def test_zero_budget(self):
        w = WeightVector(("A",), np.array([1.0]))
        h = to_shares(w, {"A": 30.0}, 0.0)
        assert h.shares == {}
        assert h.cash == 0.0

    def test_exact_divisibility(self):
        w = WeightVector(("A", "B"), np.array([2 / 3, 1 / 3]))
        h = to_shares(w, {"A": 10.0, "B": 10.0}, 3000.0)
        assert h.shares == {"A": 200, "B": 100}
        assert h.cash == pytest.approx(0.0, abs=1e-9)

    def test_never_overspends(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            raw = rng.dirichlet(np.ones(n))
            w = WeightVector(tuple(f"T{i}" for i in range(n)), raw)
            prices = {f"T{i}": float(rng.uniform(1, 50)) for i in range(n)}
            budget = float(rng.uniform(0, 500))
            h = to_shares(w, prices, budget)
            spend = sum(h.shares.get(t, 0) * prices[t] for t in prices)
            assert spend <= budget + 1e-9
            assert h.cash == pytest.approx(budget - spend, abs=1e-9)

    def test_rounding_consistency_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            w = WeightVector(tuple(f"T{i}" for i in range(n)), rng.dirichlet(np.ones(n)))
            prices = {f"T{i}": float(rng.uniform(5, 80)) for i in range(n)}
            budget = float(rng.uniform(200, 2000))
            h = to_shares(w, prices, budget)
            bound = max(prices.values()) / budget
            for i, t in enumerate(w.tickers):
                realized = h.shares.get(t, 0) * prices[t] / budget
                assert abs(realized - w.weights[i]) <= bound + 1e-12

    def test_missing_price(self):
        w = WeightVector(("A",), np.array([1.0]))
        with pytest.raises(InputError):
            to_shares(w, {}, 100.0)


class TestPortfolioValue:
    def test_simple(self):
        h = Holdings({"A": 10}, 0.0)
        assert portfolio_value(h, {"A": 150.0}) == pytest.approx(1500.0)

    def test_cash_only(self):
        assert portfolio_value(Holdings({}, 7.0), {}) == pytest.approx(7.0)

    def test_mixed(self):
        h = Holdings({"A": 2, "B": 3}, 5.0)
        assert portfolio_value(h, {"A": 10.0, "B": 20.0}) == pytest.approx(85.0)

    def test_missing_price_for_held(self):
        h = Holdings({"A": 1}, 0.0)
        with pytest.raises(InputError):
            portfolio_value(h, {"B": 3.0})

    def test_value_depends_only_on_the_book(self):
        # summed in purchase order, C-B-A gives 0.6 and A-B-C 0.6000000000000001
        prices = {"A": 0.1, "B": 0.2, "C": 0.3}
        values = {
            portfolio_value(Holdings({t: 1 for t in order}, 0.0), prices)
            for order in itertools.permutations("ABC")
        }
        assert len(values) == 1

    def test_zero_position_needs_no_price(self):
        h = Holdings({"A": 0}, 3.0)
        assert portfolio_value(h, {}) == pytest.approx(3.0)


def rising_single_asset(final_price=30.0, n_days=40):
    # gentle riser ending exactly at final_price
    path = final_price * np.exp(np.linspace(-0.04, 0.0, n_days))
    path[-1] = final_price
    from annealfolio.marketdata import PriceMatrix
    from annealfolio.synthetic import business_days

    return PriceMatrix(
        tuple(business_days(date(2023, 1, 2), n_days)), ("AAA",), path[:, None]
    )


class TestHybridOptimize:
    """The hybrid strategy end to end, through run_pipeline."""

    def test_single_asset_universe(self):
        prices = rising_single_asset(30.0)
        result = run_pipeline(prices, cfg_for(100.0))
        assert result["shares"] == {"AAA": 3}
        assert result["cash"] == pytest.approx(10.0)
        assert result["weights_target"] == pytest.approx({"AAA": 1.0})

    def test_budget_too_small(self):
        prices = rising_single_asset(30.0)
        with pytest.raises(SolverError, match="too small"):
            run_pipeline(prices, cfg_for(5.0))

    def test_deterministic(self):
        prices = grw_matrix(
            [("AAA", 20.0, 0.002, 0.01), ("BBB", 35.0, 0.001, 0.02), ("CCC", 11.0, 0.003, 0.015)],
            seed=3,
        )
        cfg = cfg_for(5000.0, seed=42)
        assert run_pipeline(prices, cfg) == run_pipeline(prices, cfg)

    def test_explicit_cardinality(self):
        prices = grw_matrix(
            [("AAA", 20.0, 0.002, 0.01), ("BBB", 35.0, 0.001, 0.02), ("CCC", 11.0, 0.003, 0.015)],
            seed=3,
        )
        result = run_pipeline(prices, cfg_for(5000.0, cardinality=2))
        assert len(result["weights_target"]) == 2 and result["cardinality"] == 2

    def test_budget_safety(self):
        prices = grw_matrix(
            [("AAA", 20.0, 0.002, 0.01), ("BBB", 35.0, 0.001, 0.02)], seed=4
        )
        cfg = cfg_for(777.0)
        result = run_pipeline(prices, cfg)
        last = prices.prices_at(prices.dates[-1])
        spend = sum(count * last[t] for t, count in result["shares"].items())
        assert spend <= cfg.budget + 1e-9
        assert result["cash"] >= 0


class TestIntegerShares:
    def test_single_asset_spends_budget(self):
        stats = make_stats([0.1], [[0.0]])
        h = optimize_integer_shares({"T0": 50.0}, stats, cfg_for(100.0, "fully_quantum"))
        assert h.shares == {"T0": 2}
        assert h.cash == pytest.approx(0.0, abs=1e-9)

    def test_huge_risk_aversion_holds_cash(self):
        stats = make_stats([0.1], [[0.5]])
        h = optimize_integer_shares(
            {"T0": 50.0}, stats, cfg_for(100.0, "fully_quantum", q=1e9)
        )
        assert h.shares == {}
        assert h.cash == pytest.approx(100.0)

    def test_two_asset_enumeration_case(self):
        stats = make_stats([0.3, 0.1], np.zeros((2, 2)))
        h = optimize_integer_shares(
            {"T0": 30.0, "T1": 40.0}, stats, cfg_for(100.0, "fully_quantum")
        )
        assert h.shares == {"T0": 3}
        assert h.cash == pytest.approx(10.0)

    def test_budget_never_violated(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            n = int(rng.integers(1, 4))
            A = rng.normal(0, 0.05, (n, n))
            stats = make_stats(rng.uniform(0.0, 0.3, n), A @ A.T)
            prices = {f"T{i}": float(rng.uniform(5, 40)) for i in range(n)}
            budget = float(rng.uniform(50, 200))
            h = optimize_integer_shares(
                prices, stats, cfg_for(budget, "fully_quantum", seed=trial)
            )
            spend = sum(h.shares.get(t, 0) * prices[t] for t in prices)
            assert spend <= budget + 1e-6
            assert h.cash >= 0

    def test_bit_cap(self):
        # equal returns, unit variances: the relaxation spreads 1e6 over all
        # 22 names, so each band is the full 7 values (3 bits): 66 > 64 bits
        n = 22
        stats = make_stats([0.1] * n, np.eye(n))
        prices = {f"T{i}": 1.0 for i in range(n)}
        with pytest.raises(SolverError, match="66 encoded bits .*reduce the universe"):
            optimize_integer_shares(prices, stats, cfg_for(1e6, "fully_quantum"))

    def test_large_budget_within_cap(self):
        # eight names at 1e6 used to need 8 x 20 share bits plus 20 slack bits
        stats = make_stats([0.1] * 8, np.zeros((8, 8)))
        prices = {f"T{i}": 1.0 for i in range(8)}
        h = optimize_integer_shares(prices, stats, cfg_for(1e6, "fully_quantum"))
        assert sum(h.shares.values()) == 1_000_000 and h.cash == 0.0


def random_share_instance(rng, n):
    A = rng.normal(0, 0.2, (n, int(rng.integers(1, n + 1))))  # rank-deficient when few columns
    stats = make_stats(rng.uniform(-0.1, 0.4, n), A @ A.T)
    prices = {t: float(rng.uniform(5, 60)) for t in stats.tickers}
    return stats, prices, float(rng.uniform(100, 600))


def assert_kkt(stats, q, budget, y, tol=1e-8):
    """KKT conditions of min q y'Sigma y - mu'y s.t. sum(y) <= budget, y >= 0."""
    z = y / budget
    grad = 2.0 * q * budget * stats.sigma @ z - stats.mu
    assert z.min() >= 0.0 and z.sum() <= 1.0 + 1e-12
    held = z > 1e-9
    # the budget multiplier: zero unless the budget binds, else what the held names need
    nu = float(-grad[held].mean()) if z.sum() > 1.0 - 1e-9 else 0.0
    assert nu >= -tol
    assert np.all(np.abs(grad[held] + nu) <= tol)  # stationarity on the held names
    assert np.all(grad[~held] + nu >= -tol)  # no unheld name would lower the objective


class TestBudgetRelaxation:
    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(31)
        cases = set()
        for trial in range(300):
            n = 1 + trial % 8
            A = rng.normal(0, 0.2, (n, int(rng.integers(1, n + 1))))
            mu = rng.normal(0.1, 0.2, n)
            if trial % 5 == 0:
                mu = -np.abs(mu)
            stats = make_stats(mu, A @ A.T if trial % 7 else np.zeros((n, n)))
            budget = float(rng.uniform(1e3, 1e6))
            q = float(10 ** rng.uniform(-2, 2)) / budget
            y = _relaxed_dollars(stats, q, budget)
            assert_kkt(stats, q, budget, y)
            spent = y.sum() / budget
            cases.add("cash" if spent == 0 else "binding" if spent > 1 - 1e-9 else "slack")
        assert cases == {"cash", "binding", "slack"}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_scan_on_two_assets(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(0, 0.3, (2, 2))
        stats = make_stats(rng.uniform(-0.05, 0.4, 2), A @ A.T)
        q = float(10 ** rng.uniform(-1, 1))
        grid = np.linspace(0.0, 1.0, 401)
        Z = np.array([(a, b) for a in grid for b in grid if a + b <= 1.0 + 1e-12])
        scan = q * np.einsum("si,ij,sj->s", Z, stats.sigma, Z) - Z @ stats.mu
        z = _relaxed_dollars(stats, q, 1.0)
        assert q * z @ stats.sigma @ z - stats.mu @ z <= scan.min() + 1e-12

    def test_binding_budget_splits_by_return(self):
        # no risk: everything goes to the best return
        y = _relaxed_dollars(make_stats([0.3, 0.1], np.zeros((2, 2))), 1e-3, 100.0)
        assert y.tolist() == [100.0, 0.0]

    def test_slack_budget_is_unconstrained_optimum(self):
        stats = make_stats([0.1, 0.2], np.diag([1.0, 2.0]))
        y = _relaxed_dollars(stats, 1.0, 1e6)  # y_i = mu_i / (2 q sigma_ii)
        assert y == pytest.approx([0.05, 0.05], rel=1e-9)  # up to the solver's 1e-12 ridge

    def test_budget_leaves_the_working_set(self):
        # from all cash, T2 and its hedge T1 fill the budget; once T0 joins,
        # the budget's multiplier turns negative and the budget must leave
        # the working set, and the optimum (T0 and T2) lies inside the budget
        sigma = [[2.305, 2.09, 0.703], [2.09, 4.024, -1.58], [0.703, -1.58, 2.852]]
        stats = make_stats([0.68, 0.167, 0.705], sigma)
        y = _relaxed_dollars(stats, 0.2445, 1.0)
        assert_kkt(stats, 0.2445, 1.0, y)
        assert y[1] == 0.0 and 0.8 < y.sum() < 0.9

    def test_all_cash_when_nothing_pays(self):
        y = _relaxed_dollars(make_stats([-0.1, 0.0], np.eye(2)), 1.0, 100.0)
        assert y.tolist() == [0.0, 0.0]


def descended_candidates(prices_at, stats, cfg):
    """Every feasible sample of the anneal over the band model, and the floored relaxation, each descended."""
    p = [prices_at[t] for t in stats.tickers]
    q = cfg.q / cfg.budget
    uppers = affordable_shares(p, cfg.budget).tolist()
    floored = [min(int(y // pi), u) for y, pi, u in zip(_relaxed_dollars(stats, q, cfg.budget), p, uppers)]
    lower = [max(f - BAND_HALF_WIDTH, 0) for f in floored]
    upper = [min(f + BAND_HALF_WIDTH, u) for f, u in zip(floored, uppers)]
    cm = build_mpt_model(stats, p, cfg.budget, q, lower, upper)
    con = cm.constraints[0]
    penalized = penalize_equality(
        cm.objective, LinearConstraint(con.coeffs, "eq", con.rhs), _share_penalty(cm.objective, con.coeffs)
    )
    schedule = cfg.sampler.resolve(BAND_SWEEPS)
    starts = [
        cm.decode_integers(bits)
        for rec in simulated_anneal(penalized, schedule, cfg.seed).records
        for bits in [state_to_array(rec.state)]
        if con.coeffs @ bits <= con.rhs + 1e-6
    ]
    starts.append(floored)
    return [_descend(c, p, stats, q, cfg.budget, uppers)[0] for c in starts]


# Selection's moves in the form of SHARE_STEPS: one name out, another in.
SWAP_STEPS = ((-1, 1),)


def reference_descent(counts, prices, stats, q, budget, uppers, steps, max_rounds=300):
    """Reference for ``_descend`` (``steps`` SHARE_STEPS) and ``_swap_descent`` (SWAP_STEPS at
    prices and uppers of one and a budget of k): the same moves in the same order, each scored
    move by move.

    Every candidate is scored by a full objective evaluation; the first
    best wins, and a move must lower the objective by more than 1e-12.
    """
    counts = list(counts)
    n = len(counts)
    current = _dollar_objective(counts, prices, stats, q)
    moves = [((i, s[0]),) for i in range(n) for s in steps if len(s) == 1]
    moves += [
        ((i, s[0]), (j, s[1]))
        for i in range(n)
        for j in range(n)
        if i != j
        for s in steps
        if len(s) == 2
    ]
    for _ in range(max_rounds):
        spend = float(np.dot(counts, prices))
        best = None
        for move in moves:
            delta_spend = 0.0
            ok = True
            for i, d in move:
                if not 0 <= counts[i] + d <= uppers[i]:
                    ok = False
                    break
                delta_spend += d * prices[i]
            if not ok or spend + delta_spend > budget + 1e-9:
                continue
            for i, d in move:
                counts[i] += d
            val = _dollar_objective(counts, prices, stats, q)
            for i, d in move:
                counts[i] -= d
            if val < current - 1e-12 and (best is None or val < best[0]):
                best = (val, move)
        if best is None:
            break
        current = best[0]
        for i, d in best[1]:
            counts[i] += d
    return counts


def with_extra_rows(start, uppers, rng):
    """``start`` and three more rows drawn within [0, uppers], as one (4, n) array of starts."""
    extra = [[int(rng.integers(0, u + 1)) for u in uppers] for _ in range(3)]
    return np.array([start, *extra])


class TestDescend:
    # Each instance descends a batch of rows: its seeded start plus three
    # more drawn from a side stream, so the instances stay the seeded ones.
    def test_share_steps_match_reference(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            stats, prices, budget = random_share_instance(rng, int(rng.integers(1, 6)))
            p = [prices[t] for t in stats.tickers]
            q = float(rng.uniform(0.2, 5.0)) / budget
            uppers = affordable_shares(p, budget).tolist()
            w = rng.dirichlet(np.ones(stats.n)) * rng.uniform(0.3, 1.0)
            start = [int(wi * budget // pi) for wi, pi in zip(w, p)]
            # random rows may overspend; the descent only takes moves that fit
            starts = with_extra_rows(start, uppers, np.random.default_rng([2024, trial]))
            got = _descend(starts, p, stats, q, budget, uppers)
            assert got.shape == starts.shape
            for row, first in zip(got, starts):
                expected = reference_descent(first, p, stats, q, budget, uppers, SHARE_STEPS)
                assert row.tolist() == expected

    def test_swap_steps_match_reference(self):
        rng = np.random.default_rng(2025)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n))
            stats = random_selection_stats(rng, n)
            q = float(rng.choice([0.1, 1.0, 10.0]))
            start = [0] * n
            for i in rng.choice(n, k, replace=False):
                start[i] = 1
            side = np.random.default_rng([2025, trial])
            starts = np.array([start] + [side.permutation(start) for _ in range(3)])
            ones, uppers = [1.0] * n, [1] * n
            got = _swap_descent(starts, stats, q)
            assert got.shape == starts.shape
            for row, first in zip(got, starts):
                expected = reference_descent(first, ones, stats, q, float(k), uppers, SWAP_STEPS)
                assert row.tolist() == expected and sum(expected) == k

    @pytest.mark.parametrize("n", range(12, 21))
    def test_swap_batches_at_select_sizes_match_reference(self, n):
        # 128 rows, as a selection anneal's restarts; k = 1, n - 1 and in between across n
        rng = np.random.default_rng([2026, n])
        k = {12: 1, 13: n - 1, 20: n - 1}.get(n, int(rng.integers(2, n - 1)))
        stats = random_selection_stats(rng, n)
        q = float(rng.choice([0.1, 1.0, 10.0]))
        starts = np.array([rng.permutation(np.arange(n) < k) for _ in range(128)], dtype=float)
        got = _swap_descent(starts, stats, q)
        ones, uppers = [1.0] * n, [1] * n
        for row, first in zip(got, starts):
            assert row.tolist() == reference_descent(first, ones, stats, q, float(k), uppers, SWAP_STEPS)

    @pytest.mark.parametrize(
        "mu, start, expected",
        [
            # k = 1: T1 and T2 tie as the name to add; the earlier one is added
            ([0.25, 0.5, 0.5, 0.25], [1, 0, 0, 0], [0, 1, 0, 0]),
            # k = n - 1: T1 and T2 tie as the name to drop; the earlier one is dropped
            ([0.5, 0.25, 0.25, 0.5], [1, 1, 1, 0], [1, 0, 1, 1]),
            # k = 2: T3 and T4 tie to leave for T0, then T1 and T2 tie to come in
            ([0.75, 0.5, 0.5, 0.25, 0.25], [0, 0, 0, 1, 1], [1, 1, 0, 0, 0]),
        ],
    )
    def test_exact_swap_ties_go_to_the_first_held_then_free_name(self, mu, start, expected):
        # diagonal covariance in binary fractions, so every tied swap scores the same float
        stats = make_stats(mu, np.diag([0.25] * len(mu)))
        assert _swap_descent(start, stats, 1.0).tolist() == [expected]
        ones = [1.0] * len(mu)
        assert reference_descent(start, ones, stats, 1.0, sum(start), [1] * len(mu), SWAP_STEPS) == expected

    def test_one_row_matches_batch_of_one(self):
        stats, prices, budget = random_share_instance(np.random.default_rng(5), 4)
        p = [prices[t] for t in stats.tickers]
        uppers = affordable_shares(p, budget).tolist()
        one = _descend([0, 0, 0, 0], p, stats, 1.0 / budget, budget, uppers)
        assert one.shape == (1, 4)
        batch = _descend([[0, 0, 0, 0]] * 3, p, stats, 1.0 / budget, budget, uppers)
        assert (batch == one).all()


class TestBestDescent:
    def test_first_of_repeated_exact_ties_kept(self):
        # two identical names at a budget for one share: [1, 0] and [0, 1] tie
        # exactly and neither moves, so the first row that occurs wins
        stats = make_stats([0.1, 0.1], np.diag([0.04, 0.04]))
        p = [10.0, 10.0]
        for starts in ([[1, 0], [0, 1], [1, 0], [0, 1]], [[0, 1], [1, 0], [0, 1]]):
            got = _best_descent(starts, lambda rows: _descend(rows, p, stats, 1e-3, 10.0, [1, 1]), p, stats, 1e-3)
            assert got.tolist() == starts[0]

    def test_scores_each_distinct_row_once_and_matches_scoring_every_row(self, monkeypatch):
        rng = np.random.default_rng(31)
        scored = []

        def spy(counts, prices, stats, q):
            scored.append(tuple(counts))
            return _dollar_objective(counts, prices, stats, q)

        monkeypatch.setattr(pipeline, "_dollar_objective", spy)
        for _ in range(40):
            stats, prices, budget = random_share_instance(rng, int(rng.integers(1, 5)))
            p = [prices[t] for t in stats.tickers]
            q = 1.0 / budget
            uppers = affordable_shares(p, budget).tolist()
            starts = [[int(rng.integers(0, u + 1)) for u in uppers] for _ in range(4)]
            starts = [starts[i] for i in rng.integers(0, 4, 12)]  # rows repeat
            rows = _descend(starts, p, stats, q, budget, uppers)
            best, best_obj = None, np.inf
            for row in rows:  # the first best over every row, repeats included
                obj = _dollar_objective(row, p, stats, q)
                if obj < best_obj - 1e-12:
                    best, best_obj = row, obj
            scored.clear()
            got = _best_descent(starts, lambda c: _descend(c, p, stats, q, budget, uppers), p, stats, q)
            assert got.tolist() == best.tolist()
            assert scored == list(dict.fromkeys(map(tuple, rows.tolist())))

    def test_chunked_rows_match_one_unchunked_pass(self):
        rng = np.random.default_rng(41)
        n, k, q = 14, 5, 1.0
        stats = random_selection_stats(rng, n)
        starts = np.zeros((150, n))
        for row in starts:
            row[rng.choice(n, k, replace=False)] = 1.0
        ones = np.ones(n)
        whole = _swap_descent(starts, stats, q)
        best, best_obj = None, np.inf
        for row in whole:
            obj = _dollar_objective(row, ones, stats, q)
            if obj < best_obj - 1e-12:
                best, best_obj = row, obj
        chunks = []

        def spy(rows):
            chunks.append(_swap_descent(rows, stats, q))
            return chunks[-1]

        got = _best_descent(starts, spy, ones, stats, q)
        assert len(chunks) > 1 and max(map(len, chunks)) == pipeline._DESCENT_CHUNK <= 64
        assert np.vstack(chunks).tolist() == whole.tolist()
        assert got.tolist() == best.tolist()


class TestIntegerShareCandidates:
    def test_never_worse_than_either_candidate(self):
        rng = np.random.default_rng(77)
        for trial in range(12):
            stats, prices, budget = random_share_instance(rng, int(rng.integers(1, 5)))
            cfg = cfg_for(budget, "fully_quantum", seed=trial)
            h = optimize_integer_shares(prices, stats, cfg)
            counts = [h.shares.get(t, 0) for t in stats.tickers]
            p = [prices[t] for t in stats.tickers]
            spend = float(np.dot(counts, p))
            assert spend <= budget + 1e-9 and h.cash == pytest.approx(budget - spend)
            got = _dollar_objective(counts, p, stats, cfg.q / budget)
            for cand in descended_candidates(prices, stats, cfg):
                assert got <= _dollar_objective(cand, p, stats, cfg.q / budget) + 1e-12
            again = optimize_integer_shares(prices, stats, cfg)
            assert again.shares == h.shares and again.cash == h.cash

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), q=st.sampled_from([0.3, 1.0, 3.0]))
    def test_no_descended_sample_beats_the_result(self, seed, n, q):
        # at the default schedule, so the band anneals for BAND_SWEEPS
        stats, prices, budget = random_share_instance(np.random.default_rng(seed), n)
        cfg = PipelineConfig(budget=budget, seed=seed, strategy="fully_quantum", q=q)
        h = optimize_integer_shares(prices, stats, cfg)
        p = [prices[t] for t in stats.tickers]
        got = _dollar_objective([h.shares.get(t, 0) for t in stats.tickers], p, stats, q / budget)
        for cand in descended_candidates(prices, stats, cfg):
            assert got <= _dollar_objective(cand, p, stats, q / budget) + 1e-12

    def test_anneals_once_at_the_configured_schedule(self, monkeypatch):
        calls = []

        def spy(m, schedule, seed):
            calls.append(schedule)
            return simulated_anneal(m, schedule, seed)

        monkeypatch.setattr(pipeline, "simulated_anneal", spy)
        stats, prices, budget = random_share_instance(np.random.default_rng(3), 3)
        optimize_integer_shares(prices, stats, cfg_for(budget, "fully_quantum"))
        assert calls == [FAST]

    def test_relaxation_stands_in_when_no_sample_fits(self):
        # a negligible budget penalty lets every sample overspend
        stats = make_stats([0.3, 0.1], np.zeros((2, 2)))
        h = optimize_integer_shares(
            {"T0": 30.0, "T1": 40.0}, stats, cfg_for(100.0, "fully_quantum", lambda_=1e-12)
        )
        assert h.shares == {"T0": 3}
        assert h.cash == pytest.approx(10.0)


def selection_stats(n=5):
    # every name pays, so the hybrid's full-universe allocation holds some
    rng = np.random.default_rng(11)
    A = rng.normal(0, 0.1, (n, n))
    return make_stats(rng.uniform(0.05, 0.3, n), A @ A.T)


class TestSweepResolution:
    """Unset schedule fields resolve per family: the share band takes BAND_SWEEPS, DEFAULT_RESTARTS
    and max|coef| x n; selection's swap anneal takes SELECT_SWEEPS and SELECT_RESTARTS, and its
    start comes from mu and Sigma (``TestSwapAnneal.test_unset_fields_resolve``)."""

    def anneal_calls(self, monkeypatch, schedule, strategy, k=None):
        calls = []

        def spy(m, schedule, seed):
            calls.append(("swap" if isinstance(m, KSubsetModel) else "band", m, schedule))
            return simulated_anneal(m, schedule, seed)

        monkeypatch.setattr(pipeline, "simulated_anneal", spy)
        stats = selection_stats()
        prices = {t: 20.0 + 5.0 * i for i, t in enumerate(stats.tickers)}
        cfg = PipelineConfig(budget=5000.0, seed=3, strategy=strategy, sampler=schedule)
        buy(stats, prices, cfg, k=k)
        return calls

    def assert_selection(self, kind, m, schedule):
        assert kind == "swap"
        assert schedule == AnnealSchedule(sweeps=SELECT_SWEEPS, restarts=SELECT_RESTARTS)

    def assert_band(self, kind, m, schedule):
        assert kind == "band"
        assert schedule == AnnealSchedule(sweeps=BAND_SWEEPS, restarts=DEFAULT_RESTARTS)
        assert schedule.resolve_t_initial(m) == m.max_coefficient() * m.n

    def test_defaults_resolve_per_model_family(self, monkeypatch):
        default = AnnealSchedule()
        assert default.sweeps is None and default.restarts is None and default.t_initial is None
        assert max(SELECT_SWEEPS, BAND_SWEEPS) < DEFAULT_SWEEPS == 1000
        [band] = self.anneal_calls(monkeypatch, default, "fully_quantum")
        self.assert_band(*band)
        [select] = self.anneal_calls(monkeypatch, default, "hybrid")
        self.assert_selection(*select)
        [select, band] = self.anneal_calls(monkeypatch, default, "fully_quantum", k=2)
        self.assert_selection(*select)
        self.assert_band(*band)

    def test_explicit_fields_reach_both_anneals(self, monkeypatch):
        explicit = AnnealSchedule(t_initial=7.5, sweeps=37, restarts=4)
        calls = self.anneal_calls(monkeypatch, explicit, "fully_quantum", k=2)
        assert [(kind, s) for kind, _, s in calls] == [("swap", explicit), ("band", explicit)]
        assert [(kind, s) for kind, _, s in self.anneal_calls(monkeypatch, explicit, "hybrid")] == [("swap", explicit)]

    def test_selection_start_floored_at_ten_final_temperatures(self):
        stats = selection_stats()
        assert float(np.ptp(stats.mu) + swap_curvature(stats.sigma, 1.0).max()) < 10.0

        def path(schedule):
            walk = sampler._swap_walk(KSubsetModel(stats.mu, stats.sigma, 1.0, 2), schedule.resolve(), 3)
            return [(h.tolist(), e.tolist()) for h, e in walk]

        floored = path(AnnealSchedule(t_final=1.0, sweeps=200, restarts=8))
        assert floored == path(AnnealSchedule(t_initial=10.0, t_final=1.0, sweeps=200, restarts=8))
        assert floored != path(AnnealSchedule(t_initial=10.5, t_final=1.0, sweeps=200, restarts=8))


class TestRunPipeline:
    def test_result_schema(self):
        prices = grw_matrix(
            [("AAA", 20.0, 0.002, 0.01), ("BBB", 35.0, 0.001, 0.02), ("CCC", 11.0, 0.003, 0.015)],
            seed=5,
        )
        result = run_pipeline(prices, cfg_for(5000.0, seed=9))
        expected_keys = {
            "strategy", "selected", "weights_target", "weights_realized", "shares",
            "cash", "metrics", "seed", "cardinality", "as_of",
        }
        assert set(result) == expected_keys
        assert result["strategy"] == "hybrid"
        assert sum(result["weights_realized"].values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(result["metrics"]["weights"].values()) == pytest.approx(100.0, abs=0.01)


class TestPipelineConfig:
    def test_validation(self):
        for bad in (
            {"budget": -1.0},
            {"strategy": "psychic"},
            {"cardinality": "some"},
            {"lambda_": -2.0},
            {"seed": "nope"},
            {"budget": True},
            {"budget": float("inf")},
            {"budget": "1e5"},
            {"budget": None},
            {"q": float("nan")},
            {"q": "inf"},
            {"lambda_": float("inf")},
            {"cardinality": 2.9},
            {"cardinality": 3.0},
            {"cardinality": None},
            {"seed": -1},
            {"seed": True},
            {"seed": 1.0},
            {"annualization_factor": -1.0},
            {"returns_method": "cubic"},
            {"risk_free_rate": "x"},
            {"risk_free_rate": True},
            {"risk_free_rate": float("inf")},
        ):
            with pytest.raises(InputError, match=next(iter(bad)).rstrip("_")):
                PipelineConfig(**{"budget": 1.0, "seed": 1, **bad})

    def test_stored_forms_and_echo(self):
        cfg = PipelineConfig(
            budget=100000, seed=np.int64(3), q=1, lambda_=2, risk_free_rate=0,
            sampler=AnnealSchedule(t_initial=5),
        )
        assert (cfg.budget, cfg.q, cfg.lambda_, cfg.annualization_factor) == (100000.0, 1.0, 2.0, 252.0)
        assert all(type(v) is float for v in (cfg.budget, cfg.q, cfg.lambda_, cfg.risk_free_rate))
        assert type(cfg.seed) is int
        echo = cfg.to_dict()
        assert echo["lambda"] == 2.0 and "lambda_" not in echo
        assert echo["sampler"]["t_initial"] == 5 and type(echo["sampler"]["t_initial"]) is int
        assert echo["risk_free_rate"] == 0.0 and "allocator" not in echo


def test_tracer_sites_resolve():
    """Every required site of the benchmark tracer names something its module has.

    The tracer is read as text, not imported, so this needs nothing from
    the benchmark harness; it catches an import marked as required by the
    tracer being dropped from ``src`` before a traced run does.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SITES", "METHOD_SITES")
    }
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, required in tables["SITES"]
        if required and not hasattr(importlib.import_module(f"annealfolio.{mod}"), attr)
    ]
    missing += [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr, _ in tables["METHOD_SITES"]
        if attr not in vars(getattr(importlib.import_module(f"annealfolio.{mod}"), cls))
    ]
    assert len(tables["SITES"]) > 20 and missing == []
