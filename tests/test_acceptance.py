"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget and prints a
PASS line (run with ``pytest -s`` to see them). Oracles are independent of
the code paths they check: exhaustive enumeration for the samplers and
penalty embeddings, dense simplex scans for the allocator, integer-grid
brute force for the share optimizer, and ledger replay for the backtest.
"""

import json
import math
import time

import numpy as np
import pytest

from annealfolio.allocator import (
    WeightVector,
    compute_metrics,
    kkt_certificate,
    max_sharpe_weights,
)
from annealfolio.cli import main as cli_main
from annealfolio.data import bundled_prices_path, bundled_sectors_path, sample_comparison_path
from annealfolio.marketdata import AssetStats, compute_returns, estimate_stats, load_prices, load_sectors
from annealfolio.model import (
    QuboModel,
    build_mvo_qubo,
    ising_to_qubo,
    qubo_energies,
    qubo_to_ising,
)
from annealfolio.pipeline import PipelineConfig, optimize_integer_shares, run_pipeline
from annealfolio.rebalance import RebalancePolicy, run_backtest
from annealfolio.sampler import AnnealSchedule, exhaustive_solve, simulated_anneal


def make_stats(mu, sigma, tickers=None):
    mu = np.asarray(mu, dtype=float)
    tickers = tuple(tickers or (f"T{i}" for i in range(len(mu))))
    return AssetStats(tickers, mu, np.asarray(sigma, dtype=float))


def random_qubo(rng, n, scale):
    lin = rng.uniform(-scale, scale, n)
    quad = {
        (i, j): float(rng.uniform(-scale, scale))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return QuboModel(n, lin, quad, float(rng.uniform(-scale, scale)))


def all_state_matrix(n):
    codes = np.arange(1 << n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


def test_criterion_1_qubo_ising_equivalence():
    """200 random models, n <= 12: exact energy match over every state."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        m = random_qubo(rng, n, scale=2.0)
        im = qubo_to_ising(m)
        X = all_state_matrix(n)
        e_q = qubo_energies(m, X)
        S = 2.0 * X - 1.0
        h, off = im.h, im.offset
        e_i = off + S @ h + ((S @ im.J) * S).sum(axis=1)
        assert np.max(np.abs(e_q - e_i)) <= 1e-9
        back = ising_to_qubo(im)
        assert np.max(np.abs(back.linear - m.linear)) <= 1e-12
        assert abs(back.offset - m.offset) <= 1e-12
        assert np.max(np.abs(back.quadratic - m.quadratic), initial=0.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: QUBO<->Ising equivalence, 200 models ({elapsed:.1f}s)")


def test_criterion_2_sampler_vs_oracle():
    """100 random n=16 models: annealer hits the exact optimum >= 95 times."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    schedule = AnnealSchedule()  # the default
    hits = 0
    for k in range(100):
        m = random_qubo(rng, 16, scale=1.0)
        sa = simulated_anneal(m, schedule, seed=int(rng.integers(0, 1 << 62)))
        exact = exhaustive_solve(m, top_k=1).best_energy
        gap = sa.best_energy - exact
        assert gap >= -1e-9  # the oracle lower-bounds the heuristic
        if gap <= 1e-9:
            hits += 1
        denom = max(abs(exact), 1e-9)
        assert gap / denom <= 0.02, f"instance {k}: relative gap {gap / denom:.4f}"
    elapsed = time.perf_counter() - t0
    assert hits >= 95, f"only {hits}/100 optima found"
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: sampler vs oracle, {hits}/100 optima ({elapsed:.1f}s)")


def test_criterion_3_penalty_feasibility():
    """100 random selection problems: auto penalty keeps the minimum feasible."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        # daily-scale statistics: variances ~1e-4, returns ~1e-3
        A = rng.normal(0.0, 0.01, (n, n))
        sigma = A @ A.T
        mu = rng.uniform(-0.002, 0.003, n)
        stats = make_stats(mu, sigma)
        B = int(rng.integers(1, n + 1))
        q = float(rng.uniform(0.5, 2.0))
        m = build_mvo_qubo(stats, q=q, B=B)  # lam=None -> auto
        X = all_state_matrix(n)
        energies = qubo_energies(m, X)
        best = X[int(np.argmin(energies))]
        assert int(best.sum()) == B
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: auto penalty feasible in 100/100 ({elapsed:.1f}s)")


def test_criterion_4_sharpe_solver_correctness():
    """KKT-certified solutions dominating a dense simplex scan."""
    t0 = time.perf_counter()
    # analytic case first
    stats = make_stats([0.1, 0.2], np.diag([0.01, 0.04]))
    w, y = max_sharpe_weights(stats)
    sharpe = compute_metrics(w, stats).sharpe
    assert abs(sharpe - math.sqrt(2)) <= 1e-6
    assert np.max(np.abs(w.weights - np.array([2 / 3, 1 / 3]))) <= 1e-8

    rng = np.random.default_rng(404)
    for k in range(50):
        n = int(rng.integers(2, 5))
        A = rng.normal(0, 0.3 / math.sqrt(n), (n, n))
        sigma = A @ A.T + 1e-6 * np.eye(n)
        sigma = (sigma + sigma.T) / 2
        stats = make_stats(rng.uniform(0.01, 0.3, n), sigma)
        w, y = max_sharpe_weights(stats)
        assert kkt_certificate(stats, y) <= 1e-8
        solver_sharpe = compute_metrics(w, stats).sharpe
        # 10^6-point scan of the weight simplex
        W = rng.dirichlet(np.ones(n), size=1_000_000)
        rets = W @ stats.mu
        risks = np.sqrt(np.einsum("si,ij,sj->s", W, stats.sigma, W))
        scan_best = float(np.max(rets / risks))
        assert solver_sharpe >= scan_best - 1e-6, f"instance {k}"
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 4: Sharpe solver KKT + scan dominance, 50 instances ({elapsed:.1f}s)")


def test_criterion_5_metric_identities():
    """Closed-form checks on the reported metrics."""
    single = make_stats([0.12], [[0.04]])
    m1 = compute_metrics(WeightVector(single.tickers, np.array([1.0])), single)
    assert m1.diversification_ratio == 1.0

    pair = make_stats([0.1, 0.1], np.diag([0.04, 0.04]))
    m2 = compute_metrics(WeightVector(pair.tickers, np.array([0.5, 0.5])), pair)
    assert abs(m2.diversification_ratio - math.sqrt(2)) <= 1e-9

    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A = rng.normal(0, 0.2, (n, n))
        stats = make_stats(rng.uniform(-0.2, 0.4, n), A @ A.T + 1e-9 * np.eye(n))
        w = WeightVector(stats.tickers, rng.dirichlet(np.ones(n)))
        m = compute_metrics(w, stats)
        if m.risk > 0:
            assert abs(m.sharpe - m.expected_return / m.risk) <= 1e-12
    print("\nPASS criterion 5: metric identities (DR=1, DR=sqrt 2, sharpe=return/risk)")


def _brute_force_integer_optimum(mu, sigma, prices, budget, q):
    uppers = [int(budget // p) for p in prices]
    grids = np.meshgrid(*[np.arange(u + 1) for u in uppers], indexing="ij")
    counts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    spend = counts @ np.asarray(prices)
    feasible = counts[spend <= budget + 1e-9]
    Y = feasible * np.asarray(prices)
    obj = q * np.einsum("si,ij,sj->s", Y, sigma, Y) - Y @ np.asarray(mu)
    return float(np.min(obj))


def test_criterion_6_integer_share_path():
    """Fully-quantum share optimization vs integer-grid brute force."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    matches = 0
    for k in range(25):
        while True:
            n = int(rng.integers(2, 5))
            prices = rng.uniform(5.0, 50.0, n)
            budget = float(rng.uniform(80.0, 300.0))
            uppers = [int(budget // p) for p in prices]
            grid = np.prod([u + 1 for u in uppers])
            if 4 <= grid <= 200_000:
                break
        A = rng.normal(0, 0.15 / math.sqrt(n), (n, n))
        sigma = A @ A.T
        sigma = (sigma + sigma.T) / 2
        mu = rng.uniform(0.0, 0.4, n)
        q = float(10 ** rng.uniform(-3, -1))  # dollar-scale risk coefficient
        stats = make_stats(mu, sigma)
        cfg = PipelineConfig(
            budget=budget,
            seed=int(rng.integers(0, 1 << 62)),
            strategy="fully_quantum",
            q=q * budget,  # pipeline q is budget-normalized
        )
        prices_at = {t: float(p) for t, p in zip(stats.tickers, prices)}
        holdings = optimize_integer_shares(prices_at, stats, cfg)
        spend = sum(holdings.shares.get(t, 0) * prices_at[t] for t in stats.tickers)
        assert spend <= budget + 1e-6, f"instance {k} violates the budget"
        y = np.array([holdings.shares.get(t, 0) * prices_at[t] for t in stats.tickers])
        achieved = q * float(y @ sigma @ y) - float(mu @ y)
        exact = _brute_force_integer_optimum(mu, sigma, prices, budget, q)
        if achieved <= exact + max(1e-9, 1e-9 * abs(exact)):
            matches += 1
    elapsed = time.perf_counter() - t0
    assert matches >= 23, f"only {matches}/25 matched brute force"
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: integer-share path, {matches}/25 exact ({elapsed:.1f}s)")


def _replay_cash_ledger(report_dict):
    """Audit every event: proceeds + prior cash == cost + cash after."""
    cash = report_dict["initial"]["cash"]
    for event in report_dict["events"]:
        proceeds = sum(v["proceeds"] for v in event["sold"].values())
        cost = sum(v["cost"] for v in event["bought"].values())
        assert abs(event["new_budget"] - (proceeds + cash)) <= 0.005
        assert abs((proceeds + cash) - (cost + event["cash_after"])) <= 0.005
        cash = event["cash_after"]


def test_criterion_7_backtest_structure():
    """Bundled 13-month dataset: 4 quarterly events, conserved cash, determinism."""
    prices = load_prices(bundled_prices_path())
    sectors = load_sectors(bundled_sectors_path())
    cfg = PipelineConfig(budget=1_000_000.0, seed=42)
    policy = RebalancePolicy()  # quarterly

    r1 = run_backtest(prices, sectors, 1_000_000.0, cfg, policy, "TECH1")
    r2 = run_backtest(prices, sectors, 1_000_000.0, cfg, policy, "TECH1")
    assert len(r1.events) == 4, f"expected 4 rebalance events, got {len(r1.events)}"
    (json1, csv1), (json2, csv2) = r1.artifacts(), r2.artifacts()
    assert json1.encode() == json2.encode(), "same-seed reports differ"
    assert csv1.encode() == csv2.encode()
    _replay_cash_ledger(json.loads(json1))
    # the value series must agree with an independent replay of the ledger
    shares = dict(r1.initial_holdings["shares"])
    cash = r1.initial_holdings["cash"]
    events_by_date = {e.date: e for e in r1.events}
    for d, reported in zip(r1.dates, r1.algo_values):
        if d in events_by_date:
            e = events_by_date[d]
            for t, (count, _) in e.sold.items():
                shares[t] -= count
            for t, (count, _) in e.bought.items():
                shares[t] = shares.get(t, 0) + count
            cash = e.cash_after
        px = prices.prices_at(d)
        value = cash + sum(c * px[t] for t, c in shares.items())
        assert abs(value - reported) <= 0.005
    print(f"\nPASS criterion 7: backtest structure, 4 events, cash conserved, deterministic")


def test_criterion_8_beats_equal_weight_in_sample():
    """Hybrid portfolio Sharpe >= the equal-weight portfolio's on bundled data."""
    prices = load_prices(bundled_prices_path())
    cfg = PipelineConfig(budget=1_000_000.0, seed=42)
    result = run_pipeline(prices, cfg)
    algo_sharpe = result["metrics"]["sharpe"]

    stats = estimate_stats(compute_returns(prices))
    equal = WeightVector(stats.tickers, np.full(stats.n, 1.0 / stats.n))
    eq_sharpe = compute_metrics(equal, stats).sharpe
    assert algo_sharpe >= eq_sharpe, f"{algo_sharpe:.3f} < equal-weight {eq_sharpe:.3f}"
    print(
        f"\nPASS criterion 8: hybrid Sharpe {algo_sharpe:.2f} >= equal-weight {eq_sharpe:.2f}"
    )


def test_criterion_9_report_fixture_schema(capsys):
    """The bundled comparison fixture renders per the published table schema."""
    assert cli_main(["report", sample_comparison_path()]) == 0
    out = capsys.readouterr().out
    import re

    metric_rows = ("Returns", "Risk", "Sharpe Ratio", "Diversification Ratio")
    weight_col = []
    for line in out.splitlines():
        m = re.match(r"^(.*?)\s{2,}([\d.]+)\s+([\d.]+)\s*$", line)
        if m and m.group(1).strip() not in metric_rows:
            weight_col.append(float(m.group(2)))
    assert sum(weight_col) == pytest.approx(99.99, abs=1e-9)
    for row in metric_rows:
        assert row in out
    with capsys.disabled():
        print(
            f"\nPASS criterion 9: fixture table renders, weight column sums to "
            f"{sum(weight_col):.2f} with all four metric rows"
        )
