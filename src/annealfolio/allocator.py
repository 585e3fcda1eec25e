"""Continuous weight allocation by Sharpe-ratio maximization.

One solver, :func:`active_set_qp`, serves both continuous problems of the
package: it minimizes 1/2 z'Hz - c'z over z >= 0, optionally under
sum(z) <= 1. The non-convex max-Sharpe problem is solved through its
convex reformulation

    min y' Sigma y   s.t.  (mu - r)' y = 1,  y >= 0,

whose solution is y* = z / (mu - r)'z for z minimizing z'Sigma z - (mu - r)'z
over z >= 0 (Cornuejols & Tutuncu, *Optimization Methods in Finance*,
ch. 8), and mapped back with w_i = y_i / sum(y); the result is certified
against the reformulation's KKT conditions. The fully_quantum strategy's
budgeted continuous relaxation (``pipeline._relaxed_dollars``) is the
same solver with the budget row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, SolverError
from .marketdata import AssetStats

KKT_TOLERANCE = 1e-8  # max-Sharpe certificate: worst KKT violation accepted
ZERO_WEIGHT = 1e-6  # y* entries at or below this are not held


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


def active_set_qp(H: np.ndarray, c: np.ndarray, budget_row: bool = False) -> tuple[np.ndarray, float]:
    """Minimize 1/2 z'Hz - c'z over z >= 0, and sum(z) <= 1 with ``budget_row``.

    Primal active-set iteration with ratio tests (Nocedal & Wright,
    *Numerical Optimization*, sec. 16.5) on a positive semidefinite H,
    started from z = 0. Without the budget row every name of positive c
    starts free, so the iteration drops the names it will not hold instead
    of adding the ones it will. Each step heads for the minimizer on the
    working set (the zero bounds held, plus the budget once it binds) and
    stops at the first constraint it would cross, which joins the set; at a
    working-set minimizer the constraint with the most negative multiplier
    leaves it. A 1e-12 relative ridge keeps every reduced system
    nonsingular when H is not; each reduced solve takes one refinement
    step against the unridged system, and the multipliers come from the
    unridged H. Returns z and the budget's multiplier (0 when the budget is
    absent or slack). Callers certify the result by their own KKT
    conditions; SolverError when 4n + 10 iterations do not converge.
    """
    n = len(c)
    ridge = 1e-12 * max(1.0, float(np.max(np.diag(H))))
    tol = 1e-12 * (1.0 + float(np.max(np.abs(c))))
    # the KKT matrix of every working set: H bordered by the budget's row (index n)
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = H
    kkt[n, n] = 0.0
    kkt_ridged = kkt + ridge * np.diag(np.arange(n + 1) < n)
    rhs_full = np.append(c, 1.0)
    z = np.zeros(n)
    working = np.zeros(n + 1, dtype=bool)  # names off their zero bound, then the budget if it binds
    if not budget_row:
        working[:n] = c > 0
    for _ in range(4 * n + 10):
        W = np.flatnonzero(working)
        capped = bool(working[n])
        F = W[: len(W) - capped]
        ix = np.ix_(W, W)
        K_ridged, rhs = kkt_ridged[ix], rhs_full[W]
        sol = np.linalg.solve(K_ridged, rhs)
        sol += np.linalg.solve(K_ridged, rhs - kkt[ix] @ sol)
        target, nu = sol[: len(F)], float(sol[-1]) if capped else 0.0
        step = target - z[F]
        alpha, block = 1.0, None
        falling = np.flatnonzero(step < 0)
        if len(falling):
            ratios = -z[F[falling]] / step[falling]
            j = int(np.argmin(ratios))
            if ratios[j] < alpha:
                alpha, block = float(ratios[j]), int(F[falling[j]])
        rise = float(step.sum())
        if budget_row and not capped and rise > 0 and (1.0 - z.sum()) / rise < alpha:
            alpha, block = (1.0 - z.sum()) / rise, n
        if block is not None:
            z[F] += alpha * step
            if block < n:
                z[block] = 0.0
            working[block] = block == n  # a blocking name leaves; the budget joins
            continue
        z[F] = target
        # multipliers of the zero bounds held; the budget's is nu
        bound_mult = np.where(working[:n], np.inf, H @ z - c + nu)
        i = int(np.argmin(bound_mult))
        if capped and nu < min(float(bound_mult[i]), -tol):
            working[n] = False
        elif bound_mult[i] < -tol:
            working[i] = True
        else:
            return np.clip(z, 0.0, None), nu
    raise SolverError("active-set iteration limit reached")


def max_sharpe_weights(
    stats: AssetStats,
    subset: Sequence[int] | None = None,
    risk_free_rate: float = 0.0,
) -> tuple[WeightVector, np.ndarray]:
    """Globally Sharpe-optimal long-only weights for the chosen assets.

    Returns the normalized WeightVector and the raw solution y* of the
    convex program (aligned with the subset). Raises SolverError when no
    asset beats the risk-free rate or the solution fails its KKT
    certificate.
    """
    idx = list(range(stats.n)) if subset is None else [int(i) for i in subset]
    if not idx:
        raise InputError("subset must contain at least one asset")
    sub = stats.subset(idx)
    excess = sub.mu - risk_free_rate
    if float(np.max(excess)) <= 0:
        raise SolverError("no asset's expected return exceeds the risk-free rate")
    z, _ = active_set_qp(2.0 * sub.sigma, excess)
    y = z / float(excess @ z)
    resid = _kkt_residual(sub.sigma, excess, y)
    if not resid <= KKT_TOLERANCE:
        raise SolverError(f"KKT residual {resid:.3e} exceeds tolerance {KKT_TOLERANCE:.1e}")
    return WeightVector(sub.tickers, y / y.sum()), y


def _kkt_residual(sigma: np.ndarray, excess: np.ndarray, y: np.ndarray) -> float:
    """Worst violation across stationarity, feasibility, and complementarity.

    The multiplier of the return row is recovered from stationarity
    contracted with y: nu = 2 y'Sigma y / (mu - r)'y.
    """
    denom = float(excess @ y)
    if denom <= 0:
        return math.inf
    nu = 2.0 * float(y @ sigma @ y) / denom
    dual = 2.0 * sigma @ y - nu * excess
    stationarity = float(np.max(np.abs(np.minimum(dual, 0.0))))  # dual >= 0
    on_support = float(np.max(np.abs(dual * y)))  # dual_i y_i = 0
    primal = abs(denom - 1.0)
    return max(stationarity, on_support, primal)


def kkt_certificate(
    stats: AssetStats, y: np.ndarray, risk_free_rate: float = 0.0,
    subset: Sequence[int] | None = None,
) -> float:
    """Recompute the KKT residual of a solution (independent audit hook)."""
    sub = stats.subset(list(range(stats.n)) if subset is None else list(subset))
    return _kkt_residual(sub.sigma, sub.mu - risk_free_rate, y)


def derive_cardinality(y_star: np.ndarray) -> int:
    """Number of assets the discrete selection stage should pick: the entries of y* above ZERO_WEIGHT."""
    k = int(np.sum(np.asarray(y_star, dtype=float) > ZERO_WEIGHT))
    if k == 0:
        raise SolverError("degenerate solution: no entry above the zero-weight threshold")
    return k


def compute_metrics(
    weights: WeightVector,
    stats: AssetStats,
    risk_free_rate: float = 0.0,
) -> PortfolioMetrics:
    """Expected return, volatility, Sharpe, and diversification ratio.

    The diversification ratio is the weighted average of individual asset
    volatilities divided by the portfolio volatility (>= 1 for any valid
    covariance by Cauchy-Schwarz).
    """
    try:
        idx = [stats.tickers.index(t) for t in weights.tickers]
    except ValueError as exc:
        raise InputError(f"weight ticker missing from stats: {exc}") from None
    sub = stats.subset(idx)
    w = weights.weights
    er = float(sub.mu @ w)
    variance = float(w @ sub.sigma @ w)
    risk = math.sqrt(max(variance, 0.0))
    excess = er - risk_free_rate
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
