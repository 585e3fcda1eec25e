"""Continuous weight allocation by Sharpe-ratio maximization.

The non-convex max-Sharpe problem is solved through its convex
reformulation

    min y' Sigma y   s.t.  (mu - r)' y = 1,  y >= 0

and mapped back with w_i = y_i / sum(y). The solver is a small active-set
iteration: solve the equality-constrained system on the current support,
drop variables that go negative, re-admit excluded variables whose
multiplier violates dual feasibility, and certify the result against the
KKT conditions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, SolverError, check_field
from .marketdata import AssetStats

log = logging.getLogger(__name__)

CARDINALITY_MODES = ("support", "y_sum")


@dataclass(frozen=True)
class AllocatorConfig:
    risk_free_rate: float = 0.0
    kkt_tolerance: float = 1e-8
    max_iterations: int | None = None  # None -> 3n + 10
    zero_weight_threshold: float = 1e-6
    cardinality_mode: str = "support"

    def __post_init__(self):
        for name, *rule in (
            ("risk_free_rate", float),
            ("kkt_tolerance", float, 0),
            ("max_iterations", int, 1, None, (None,)),
            ("zero_weight_threshold", float, 0),
            ("cardinality_mode", CARDINALITY_MODES),
        ):
            object.__setattr__(self, name, check_field(name, getattr(self, name), *rule))


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative portfolio fractions over a ticker subset, summing to 1."""

    tickers: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if w.shape != (len(self.tickers),):
            raise InputError("weights length does not match tickers")
        if np.any(w < -1e-12):
            raise InputError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InputError(f"weights must sum to 1, got {w.sum()!r}")

    def as_dict(self) -> dict[str, float]:
        return {t: float(w) for t, w in zip(self.tickers, self.weights)}


@dataclass(frozen=True)
class PortfolioMetrics:
    """Annualized summary statistics of a weighted portfolio.

    ``sharpe`` is +/-inf when risk is zero with nonzero excess return (a
    sentinel for degenerate covariance inputs).
    """

    expected_return: float
    risk: float
    sharpe: float
    diversification_ratio: float

    def to_dict(self, weights: WeightVector | None = None) -> dict:
        d = {
            "return_pct": self.expected_return * 100.0,
            "risk_pct": self.risk * 100.0,
            "sharpe": self.sharpe,
            "diversification_ratio": self.diversification_ratio,
        }
        if weights is not None:
            d["weights"] = {t: w * 100.0 for t, w in weights.as_dict().items()}
        return d


def _solve_support(sigma: np.ndarray, excess: np.ndarray, support: list[int]) -> tuple[np.ndarray, float, bool]:
    """Solve 2 Sigma_SS y_S = nu (mu - r)_S with the budget-normalization row.

    Returns (y on support, nu, ridge_used).
    """
    A = sigma[np.ix_(support, support)]
    b = excess[support]
    ridge_used = False
    try:
        z = np.linalg.solve(A, b)
        if not np.all(np.isfinite(z)) or np.linalg.norm(A @ z - b) > 1e-6 * max(
            1.0, np.linalg.norm(b)
        ):
            raise np.linalg.LinAlgError("ill-conditioned")
    except np.linalg.LinAlgError:
        ridge = 1e-10 * np.trace(sigma) / max(len(sigma), 1)
        if ridge <= 0:
            ridge = 1e-12
        z = np.linalg.solve(A + ridge * np.eye(len(support)), b)
        ridge_used = True
        log.warning("singular covariance on support; applied ridge %.3e", ridge)
    denom = float(b @ z)
    if denom <= 0:
        raise SolverError("reduced system is degenerate (no positive excess-return direction)")
    nu = 2.0 / denom
    return z / denom, nu, ridge_used


def max_sharpe_weights(
    stats: AssetStats,
    subset: Sequence[int] | None = None,
    cfg: AllocatorConfig | None = None,
) -> tuple[WeightVector, np.ndarray]:
    """Globally Sharpe-optimal long-only weights for the chosen assets.

    Returns the normalized WeightVector and the raw solution y* of the
    convex program (aligned with the subset). Raises SolverError when no
    asset beats the risk-free rate or the active-set iteration fails to
    produce a KKT-certified point.
    """
    cfg = cfg or AllocatorConfig()
    idx = list(range(stats.n)) if subset is None else [int(i) for i in subset]
    if not idx:
        raise InputError("subset must contain at least one asset")
    sub = stats.subset(idx)
    excess = sub.mu - cfg.risk_free_rate
    if float(np.max(excess)) <= 0:
        raise SolverError("no asset's expected return exceeds the risk-free rate")
    n = sub.n
    sigma = sub.sigma
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else 3 * n + 10

    support = list(range(n))
    y = np.zeros(n)
    nu = 0.0
    converged = False
    for _ in range(max_iter):
        y_s, nu, _ = _solve_support(sigma, excess, support)
        if np.min(y_s) < -1e-12:
            worst = int(np.argmin(y_s))
            support.pop(worst)
            if not support:
                raise SolverError("active-set emptied the support")
            continue
        y = np.zeros(n)
        y[support] = np.clip(y_s, 0.0, None)
        dual = 2.0 * sigma @ y - nu * excess
        outside = [i for i in range(n) if i not in support]
        if outside:
            worst = min(outside, key=lambda i: dual[i])
            if dual[worst] < -cfg.kkt_tolerance:
                support.append(worst)
                support.sort()
                continue
        converged = True
        break
    if not converged:
        raise SolverError("active-set iteration limit reached without KKT convergence")

    resid = _kkt_residual(sigma, excess, y, nu)
    if resid > cfg.kkt_tolerance:
        raise SolverError(f"KKT residual {resid:.3e} exceeds tolerance {cfg.kkt_tolerance:.1e}")
    total = float(y.sum())
    if total <= 0:
        raise SolverError("solver returned a zero allocation")
    weights = WeightVector(sub.tickers, y / total)
    return weights, y


def _kkt_residual(sigma: np.ndarray, excess: np.ndarray, y: np.ndarray, nu: float) -> float:
    """Worst violation across stationarity, feasibility, and complementarity."""
    dual = 2.0 * sigma @ y - nu * excess
    stationarity = float(np.max(np.abs(np.minimum(dual, 0.0))))  # dual >= 0
    on_support = float(np.max(np.abs(dual * y))) if len(y) else 0.0  # dual_i y_i = 0
    primal = abs(float(excess @ y) - 1.0)
    return max(stationarity, on_support, primal)


def kkt_certificate(
    stats: AssetStats, y: np.ndarray, cfg: AllocatorConfig | None = None,
    subset: Sequence[int] | None = None,
) -> float:
    """Recompute the KKT residual of a solution (independent audit hook)."""
    cfg = cfg or AllocatorConfig()
    idx = list(range(stats.n)) if subset is None else list(subset)
    sub = stats.subset(idx)
    excess = sub.mu - cfg.risk_free_rate
    denom = float(excess @ y)
    if denom <= 0:
        return math.inf
    nu = 2.0 * float(y @ sub.sigma @ y) / denom  # from stationarity contracted with y
    return _kkt_residual(sub.sigma, excess, y, nu)


def derive_cardinality(y_star: np.ndarray, cfg: AllocatorConfig | None = None) -> int:
    """Number of assets the discrete selection stage should pick.

    Mode ``support`` (default) counts entries above the zero-weight
    threshold. Mode ``y_sum`` rounds sum(y*) half-up and clamps it into
    [1, n]; it is kept for comparison but the sum is a scaled quantity,
    not a count, which is why support counting is the default.
    """
    cfg = cfg or AllocatorConfig()
    y = np.asarray(y_star, dtype=float)
    n = len(y)
    if cfg.cardinality_mode == "support":
        k = int(np.sum(y > cfg.zero_weight_threshold))
        if k == 0:
            raise SolverError("degenerate solution: no entry above the zero-weight threshold")
        return k
    k = int(math.floor(float(y.sum()) + 0.5))
    return max(1, min(k, n))


def compute_metrics(
    weights: WeightVector,
    stats: AssetStats,
    cfg: AllocatorConfig | None = None,
) -> PortfolioMetrics:
    """Expected return, volatility, Sharpe, and diversification ratio.

    The diversification ratio is the weighted average of individual asset
    volatilities divided by the portfolio volatility (>= 1 for any valid
    covariance by Cauchy-Schwarz).
    """
    cfg = cfg or AllocatorConfig()
    try:
        idx = [stats.tickers.index(t) for t in weights.tickers]
    except ValueError as exc:
        raise InputError(f"weight ticker missing from stats: {exc}") from None
    sub = stats.subset(idx)
    w = weights.weights
    er = float(sub.mu @ w)
    variance = float(w @ sub.sigma @ w)
    risk = math.sqrt(max(variance, 0.0))
    excess = er - cfg.risk_free_rate
    if risk > 0:
        sharpe = excess / risk
    elif excess > 0:
        sharpe = math.inf
    elif excess < 0:
        sharpe = -math.inf
    else:
        sharpe = 0.0
    wavg_vol = float(w @ sub.volatilities())
    if risk > 0:
        dr = wavg_vol / risk
    else:
        dr = math.inf if wavg_vol > 0 else 1.0
    return PortfolioMetrics(er, risk, sharpe, dr)
