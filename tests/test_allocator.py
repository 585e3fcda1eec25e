import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio.allocator import (
    WeightVector,
    compute_metrics,
    derive_cardinality,
    kkt_certificate,
    max_sharpe_weights,
)
from annealfolio.errors import InputError, SolverError
from annealfolio.marketdata import AssetStats
from annealfolio.pipeline import PipelineConfig


def make_stats(mu, sigma, tickers=None):
    mu = np.asarray(mu, dtype=float)
    tickers = tuple(tickers or (f"T{i}" for i in range(len(mu))))
    return AssetStats(tickers, mu, np.asarray(sigma, dtype=float))


def random_psd_stats(rng, n, mu_scale=0.3, vol_scale=0.3):
    A = rng.normal(0, vol_scale / math.sqrt(n), (n, n))
    sigma = A @ A.T + 1e-6 * np.eye(n)
    sigma = (sigma + sigma.T) / 2
    mu = rng.uniform(0.01, mu_scale, n)
    return make_stats(mu, sigma)


def drifting_psd_stats(rng, count, max_n):
    """``count`` random instances per drift loc in (0.05, 0, -0.05), mu ~ N(loc, 0.2).

    Draws where no asset pays are skipped; the negative drifts give
    instances where few names pay.
    """
    for loc in (0.05, 0.0, -0.05):
        made = 0
        while made < count:
            n = int(rng.integers(2, max_n))
            A = rng.normal(0, 0.3 / math.sqrt(n), (n, n))
            sigma = A @ A.T + 1e-6 * np.eye(n)
            mu = rng.normal(loc, 0.2, n)
            if mu.max() > 0:
                made += 1
                yield make_stats(mu, (sigma + sigma.T) / 2)


def simplex_scan_sharpe(stats, points, rng):
    W = rng.dirichlet(np.ones(stats.n), size=points)
    rets = W @ stats.mu
    risks = np.sqrt(np.einsum("si,ij,sj->s", W, stats.sigma, W))
    with np.errstate(divide="ignore", invalid="ignore"):
        sharpes = np.where(risks > 0, rets / risks, -np.inf)
    return float(np.max(sharpes))


class TestMaxSharpe:
    def test_analytic_two_asset(self):
        stats = make_stats([0.1, 0.2], np.diag([0.01, 0.04]))
        w, y = max_sharpe_weights(stats)
        assert y == pytest.approx([5.0, 2.5], abs=1e-10)
        assert w.weights == pytest.approx([2 / 3, 1 / 3], abs=1e-8)
        m = compute_metrics(w, stats)
        assert m.sharpe == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_single_asset(self):
        stats = make_stats([0.1], [[0.01]])
        w, _ = max_sharpe_weights(stats)
        assert w.weights == pytest.approx([1.0])
        m = compute_metrics(w, stats)
        assert m.sharpe == pytest.approx(1.0, abs=1e-10)

    def test_identical_assets_split_evenly(self):
        stats = make_stats([0.1, 0.1], np.diag([0.02, 0.02]))
        w, _ = max_sharpe_weights(stats)
        assert w.weights == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_infeasible_when_nothing_beats_risk_free(self):
        stats = make_stats([0.01, 0.02], np.diag([0.01, 0.01]))
        with pytest.raises(SolverError, match="risk-free"):
            max_sharpe_weights(stats, risk_free_rate=0.05)

    def test_subset_selection(self):
        stats = make_stats([0.1, 0.5, 0.2], np.diag([0.01, 0.04, 0.02]))
        w, y = max_sharpe_weights(stats, subset=[0, 2])
        assert w.tickers == ("T0", "T2")
        assert len(y) == 2

    def test_kkt_certificate_on_solution(self):
        rng = np.random.default_rng(0)
        for stats in drifting_psd_stats(rng, 25, 6):
            w, y = max_sharpe_weights(stats)
            assert kkt_certificate(stats, y) <= 1e-8
            assert np.all(w.weights >= 0)
            assert float(w.weights.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_dominates_simplex_scan(self):
        rng = np.random.default_rng(0)
        for stats in drifting_psd_stats(rng, 10, 5):
            w, _ = max_sharpe_weights(stats)
            solver_sharpe = compute_metrics(w, stats).sharpe
            scan = simplex_scan_sharpe(stats, 50_000, rng)
            assert solver_sharpe >= scan - 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_scale_invariance_of_weights(self, seed, c):
        rng = np.random.default_rng(seed)
        stats = random_psd_stats(rng, 4)
        w1, y1 = max_sharpe_weights(stats)
        scaled = make_stats(stats.mu * c, stats.sigma, stats.tickers)
        w2, y2 = max_sharpe_weights(scaled)
        assert np.allclose(w1.weights, w2.weights, atol=1e-8)
        assert np.allclose(y2, y1 / c, rtol=1e-6, atol=1e-12)

    def test_negative_correlation_hedge_enters(self):
        # asset below the risk-free rate still earns weight as a hedge
        sigma = np.array([[0.04, -0.018], [-0.018, 0.01]])
        stats = make_stats([0.1, -0.01], sigma)
        w, _ = max_sharpe_weights(stats)
        assert w.weights[1] > 0.1

    def test_hedged_pair_keeps_the_paying_name(self):
        # the optimum is all in T1, although solving on the full support
        # gives T1 the most negative entry
        stats = make_stats([-0.1, 0.01], [[0.02, -0.0113], [-0.0113, 0.01]])
        w, y = max_sharpe_weights(stats)
        assert w.weights.tolist() == [0.0, 1.0]
        assert kkt_certificate(stats, y) <= 1e-8
        sharpe = compute_metrics(w, stats).sharpe
        assert sharpe == pytest.approx(0.1, abs=1e-12)
        a = np.linspace(0.0, 1.0, 100_000)
        W = np.column_stack([a, 1.0 - a])
        scan = (W @ stats.mu) / np.sqrt(np.einsum("si,ij,sj->s", W, stats.sigma, W))
        assert sharpe == pytest.approx(float(scan.max()), abs=1e-12)

    def test_singular_covariance_ridge(self):
        sigma = np.array([[0.01, 0.01], [0.01, 0.01]])  # rank one
        stats = make_stats([0.1, 0.1], sigma)
        w, _ = max_sharpe_weights(stats)
        assert float(w.weights.sum()) == pytest.approx(1.0, abs=1e-9)


class TestWeightVector:
    def test_invariants(self):
        with pytest.raises(InputError):
            WeightVector(("A",), np.array([0.5]))
        with pytest.raises(InputError):
            WeightVector(("A", "B"), np.array([1.5, -0.5]))

    def test_as_dict(self):
        w = WeightVector(("A", "B"), np.array([0.25, 0.75]))
        assert w.as_dict() == {"A": 0.25, "B": 0.75}


class TestDeriveCardinality:
    def test_support_mode(self):
        assert derive_cardinality(np.array([5.0, 2.5, 0.0])) == 2

    def test_degenerate_support_errors(self):
        with pytest.raises(SolverError):
            derive_cardinality(np.array([1e-9, 1e-8]))

    def test_bad_mode_rejected(self):
        # The cardinality mode and the risk-free rate that feeds y* are
        # validated where they are set: on PipelineConfig.
        for bad in (
            {"cardinality": "guess"},
            {"cardinality": None},
            {"risk_free_rate": "x"},
            {"risk_free_rate": True},
            {"risk_free_rate": float("inf")},
        ):
            with pytest.raises(InputError, match=next(iter(bad))):
                PipelineConfig(budget=1.0, seed=1, **bad)


class TestComputeMetrics:
    def test_single_asset_identities(self):
        stats = make_stats([0.12], [[0.04]])
        w = WeightVector(stats.tickers, np.array([1.0]))
        m = compute_metrics(w, stats)
        assert m.expected_return == pytest.approx(0.12)
        assert m.risk == pytest.approx(0.2)
        assert m.sharpe == pytest.approx(0.6)
        assert m.diversification_ratio == pytest.approx(1.0)

    def test_two_asset_continuation(self):
        stats = make_stats([0.1, 0.2], np.diag([0.01, 0.04]))
        w = WeightVector(stats.tickers, np.array([2 / 3, 1 / 3]))
        m = compute_metrics(w, stats)
        assert m.expected_return == pytest.approx(0.4 / 3, abs=1e-12)
        assert m.risk == pytest.approx(math.sqrt(0.008888888888888889), abs=1e-12)
        assert m.sharpe == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_uncorrelated_equal_vol_dr_sqrt2(self):
        stats = make_stats([0.1, 0.1], np.diag([0.04, 0.04]))
        w = WeightVector(stats.tickers, np.array([0.5, 0.5]))
        m = compute_metrics(w, stats)
        assert m.diversification_ratio == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_zero_risk_sentinel(self):
        stats = make_stats([0.1], [[0.0]])
        w = WeightVector(stats.tickers, np.array([1.0]))
        m = compute_metrics(w, stats)
        assert m.sharpe == math.inf

    def test_sharpe_identity_and_dr_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            A = rng.normal(0, 0.2, (n, n))
            stats = make_stats(rng.uniform(-0.1, 0.4, n), (A @ A.T + A.T @ A) / 2 + 1e-9 * np.eye(n))
            w_raw = rng.dirichlet(np.ones(n))
            w = WeightVector(stats.tickers, w_raw)
            m = compute_metrics(w, stats)
            if m.risk > 0:
                assert m.sharpe == pytest.approx(m.expected_return / m.risk, abs=1e-12)
                assert m.diversification_ratio >= 1.0 - 1e-9

    def test_metrics_json_shape(self):
        stats = make_stats([0.1, 0.2], np.diag([0.01, 0.04]))
        w = WeightVector(stats.tickers, np.array([0.5, 0.5]))
        d = compute_metrics(w, stats).to_dict(w)
        assert set(d) == {"return_pct", "risk_pct", "sharpe", "diversification_ratio", "weights"}
        assert sum(d["weights"].values()) == pytest.approx(100.0, abs=0.01)
