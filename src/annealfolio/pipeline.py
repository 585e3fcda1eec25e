"""End-to-end portfolio construction strategies.

Two strategies produce integer share counts under a budget:

- ``hybrid``: a k-asset selection picks which assets to hold, then the
  convex max-Sharpe allocator weights them and the weights are rounded to
  whole shares. The selection anneals q x'Sigma x - mu'x over k-subsets
  with swap moves, which keep the count at k, so it needs no cardinality
  penalty and no repair; every restart's best state is swap-descended.
- ``fully_quantum``: share counts are optimized directly as encoded
  integers in the budgeted mean-variance model, annealed as a QUBO with
  the budget as a spend penalty whose weight is derived from the model
  (:func:`_share_penalty`).

Both estimate from daily simple returns annualized by 252 trading days
(:func:`~annealfolio.marketdata.estimate_stats`).

:func:`buy` is the one purchase path and the only code that picks a
solver by strategy. ``run_pipeline`` calls it for an opening purchase,
which raises SolverError when it buys nothing; the backtester calls it
for its opening purchase and, with the number of names sold as ``k``, for
every rebalance repurchase, which may buy nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache, partial
from typing import Mapping, Sequence

import numpy as np

from .allocator import (
    WeightVector,
    active_set_qp,
    compute_metrics,
    derive_cardinality,
    max_sharpe_weights,
)
from .errors import InputError, SolverError, check_field
from .marketdata import AssetStats, PriceMatrix, compute_returns, estimate_stats
from .model import (
    KSubsetModel,
    LinearConstraint,
    QuboModel,
    affordable_shares,
    build_mpt_model,
    flip_costs,
    penalize_equality,
)
from .sampler import AnnealSchedule, simulated_anneal, swap_curvature

# Unused here; perfbench/tracer.py requires these names at this import site.
from .model import build_mvo_qubo, penalize_inequality
from .sampler import best_feasible

STRATEGIES = ("hybrid", "fully_quantum")

# Integer-share problems beyond this many encoding bits are refused: no solve of a wider model has been
# measured, and the exhaustive cross-checks stop at sampler.EXHAUSTIVE_CAP bits. Each asset's band needs
# at most 3 bits, so this caps the universe size.
SHARE_BIT_CAP = 64

# Each share count is annealed within this many shares of the floored
# relaxation (less where the band meets zero or floor(budget / price)).
BAND_HALF_WIDTH = 3
_DESCENT_CHUNK = 32  # rows _best_descent descends at once, so its arrays stay small

# The moves _descend scores at every name and ordered pair after the share anneal: buy or sell one share, or
# move shares between two names (1 for 1, 1 for 2, 2 for 1). Selection's _swap_descent scores k(n - k) swaps.
SHARE_STEPS = ((1,), (-1,), (-1, 1), (-1, 2), (-2, 1))

# Spend and cash are added in float, whose spacing is 0.125 at 1e15: a purchase still prices to
# the cent. At 1e18 the spacing is 128, and a fully_quantum purchase overspent by 128.
MAX_BUDGET = 1e15


@dataclass(frozen=True)
class PipelineConfig:
    budget: float
    seed: int
    strategy: str = "hybrid"
    cardinality: int | str = "auto"
    q: float = 1.0
    sampler: AnnealSchedule = field(default_factory=AnnealSchedule)
    risk_free_rate: float = 0.0

    def __post_init__(self):
        for name, *rule in (
            ("budget", float, 0, MAX_BUDGET),
            ("seed", int, 0),
            ("strategy", STRATEGIES),
            ("cardinality", int, 1, None, ("auto",)),
            ("q", float, 0),
            ("risk_free_rate", float),
        ):
            object.__setattr__(self, name, check_field(name, getattr(self, name), *rule))


@dataclass(frozen=True)
class Holdings:
    """Whole-share positions plus residual cash; ``shares`` keeps only positive counts."""

    shares: dict[str, int]
    cash: float
    as_of: date | None = None

    def __post_init__(self):
        clean = {t: int(c) for t, c in self.shares.items()}
        if any(c < 0 for c in clean.values()):
            raise InputError("share counts must be nonnegative")
        object.__setattr__(self, "shares", {t: c for t, c in clean.items() if c})
        if self.cash < -1e-9:
            raise InputError(f"cash must be nonnegative, got {self.cash}")
        object.__setattr__(self, "cash", max(float(self.cash), 0.0))

    def held_tickers(self) -> tuple[str, ...]:
        return tuple(sorted(self.shares))

    def to_dict(self) -> dict:
        return {
            "shares": {t: self.shares[t] for t in sorted(self.shares)},
            "cash": self.cash,
            "as_of": self.as_of.isoformat() if self.as_of else None,
        }


def select_assets(
    stats: AssetStats,
    k: int,
    q: float,
    schedule: AnnealSchedule,
    seed: int,
) -> tuple[str, ...]:
    """Pick exactly k tickers: swap-anneal the k-subsets of q x'Sigma x - mu'x once, then swap-descend.

    :func:`simulated_anneal` anneals the :class:`KSubsetModel` on
    ``schedule``. Every state of its sample set descends over the
    k(n - k) swaps of a held name for another in batched
    :func:`_swap_descent` passes; the first best in row order is kept,
    so no single swap improves the result.

    At k = 1 and k = n - 1 one swap joins any two k-subsets, so the
    descent's first move reaches the exact optimum from any start. Then
    nothing is annealed (``schedule`` and ``seed`` go unused): the first
    k tickers are swap-descended alone. A swap must lower the objective
    by more than 1e-12 and the first best swap is taken, so on an exact
    tie the start is kept, else the swap earliest in ticker order (k = 1:
    the added name; k = n - 1: the dropped one).
    """
    n = stats.n
    if not 1 <= k <= n:
        raise InputError(f"cardinality k={k} must be in [1, {n}]")
    if k == n:
        return stats.tickers
    if k in (1, n - 1):
        starts = np.arange(n) < k
    else:
        starts = simulated_anneal(KSubsetModel(stats.mu, stats.sigma, q, k), schedule, seed).states
    counts = _best_descent(starts, lambda rows: _swap_descent(rows, stats, q), np.ones(n), stats, q)
    return tuple(t for t, c in zip(stats.tickers, counts) if c)


def to_shares(
    weights: WeightVector,
    prices_at: Mapping[str, float],
    budget: float,
    as_of: date | None = None,
) -> Holdings:
    """Round target weights down to whole shares, then spend leftovers greedily.

    Each asset gets floor(w_i * budget / p_i) shares; remaining cash buys
    one extra share per asset in order of largest fractional remainder
    while affordable, ties by the lower price, so a tie does not turn on
    the tickers' names unless the prices tie too (then by position in the
    weight vector). Never overspends.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    shares: dict[str, int] = {}
    remainders: list[tuple[float, int, str, float]] = []
    spend = 0.0
    for pos, (t, w) in enumerate(zip(weights.tickers, weights.weights)):
        try:
            p = float(prices_at[t])
        except KeyError:
            raise InputError(f"no price available for {t!r}") from None
        if p <= 0:
            raise InputError(f"non-positive price for {t!r}")
        exact = w * budget / p
        count = int(math.floor(exact + 1e-9))
        # the tolerance, or rounding past 2**52 shares, can put the spend over the budget: drop
        # the excess in whole shares, and at least one float spacing of count so count * p moves
        while count and spend + count * p > budget:
            excess = math.ceil((spend + count * p - budget) / p)
            count = max(count - max(excess, count >> 52, 1), 0)
        shares[t] = count
        spend += count * p
        remainders.append((exact - count, pos, t, p))
    cash = budget - spend
    for _, _, t, p in sorted(remainders, key=lambda r: (-r[0], r[3], r[1])):
        if p <= cash:
            shares[t] += 1
            cash -= p
    return Holdings(shares, cash, as_of)


def portfolio_value(h: Holdings, prices_at: Mapping[str, float]) -> float:
    """Mark-to-market value: cash plus share counts times closes, added in ticker order.

    The fixed order makes the value depend only on the book, not on the
    order in which its positions were bought.
    """
    total = h.cash
    for t in h.held_tickers():
        if t not in prices_at:
            raise InputError(f"no price available for held ticker {t!r}")
        total += h.shares[t] * float(prices_at[t])
    return total


def realized_weights(h: Holdings, prices_at: Mapping[str, float], tickers: Sequence[str]) -> WeightVector:
    """Value fractions actually held after rounding, over the given tickers."""
    values = np.array([h.shares.get(t, 0) * float(prices_at[t]) for t in tickers])
    total = float(values.sum())
    if total <= 0:
        raise SolverError("no invested value: cannot form realized weights")
    return WeightVector(tuple(tickers), values / total)


def _share_penalty(m: QuboModel, dollar_coeffs: np.ndarray) -> float:
    """Weight lam of the spend penalty lam * (dollar_coeffs . b - rest)^2.

    Spend moves in share-price quanta, so flipping bit t on at the budget
    costs at least lam * c_t^2 in penalty against at most its single-flip
    objective swing in gain; lam slightly above max(swing_t / c_t^2) makes
    every such move unprofitable while keeping the penalty ridges between
    neighbouring spends low enough for the annealer to cross. Composite
    moves with small net overspends slip through by design, and states
    that leave cash pay for it too; infeasible samples are filtered out
    and every other one is descended on the exact objective afterwards.
    """
    if m.n == 0:
        return 1.0
    return float(np.max(flip_costs(m) / dollar_coeffs**2)) * 1.25 + 0.01


def _dollar_objective(counts, prices, stats: AssetStats, q: float) -> float:
    y = np.asarray(prices) * np.asarray(counts, dtype=float)
    return q * float(y @ stats.sigma @ y) - float(stats.mu @ y)


def _relaxed_dollars(stats: AssetStats, q: float, budget: float) -> np.ndarray:
    """Dollar holdings y minimizing q * y'Sigma y - mu'y with sum(y) <= budget, y >= 0.

    Solved by :func:`active_set_qp` on z = y / budget, whose objective is
    budget * (Q z'Sigma z - mu'z) with Q = q * budget, and certified
    against the KKT conditions of that problem; SolverError if it fails
    them.
    """
    mu = stats.mu
    H = 2.0 * q * budget * stats.sigma
    z, nu = active_set_qp(H, mu, budget_row=True)
    Hz = H @ z
    dual = Hz - mu + nu
    resid = max(
        float(np.max(-dual)),  # no name left out would lower the objective
        float(np.max(np.abs(dual * z))),  # every name held is stationary
        -nu,
        abs(nu * (1.0 - z.sum())),  # the budget binds or its multiplier is zero
        z.sum() - 1.0,
    )
    if resid > 1e-9 * (1.0 + float(np.max(np.abs(mu))) + float(np.max(np.abs(Hz)))):
        raise SolverError(f"budgeted relaxation: KKT residual {resid:.3e}")
    return budget * z


def _descend(starts, prices, stats, q, budget, uppers) -> np.ndarray:
    """Best-improvement share descent on q y'Sigma y - mu'y, y = prices * counts, within [0, uppers].

    ``starts`` is an (m, n) array of counts; every row descends on its own
    and the (m, n) result is returned. The moves are each one-count step
    ``(d,)`` of SHARE_STEPS at every i, then each two-count step
    ``(d_i, d_j)`` at every i and j != i. A round scores them all from the
    gradient 2q Sigma y - mu plus each move's fixed curvature, masks those
    that leave [0, uppers] or overspend ``budget``, and each row still
    moving takes its first best while it lowers the objective by more than
    1e-12. This is the classical clean-up of hybrid solvers: the penalty
    ridges the sampler fails to cross are exactly these moves.
    """
    counts = np.array(starts, dtype=np.int64, ndmin=2)
    p = np.asarray(prices, dtype=float)
    uppers = np.asarray(uppers)
    I, DI, J, DJ = _moves(counts.shape[1])
    dy_i, dy_j = DI * p[I], DJ * p[J]
    dspend = dy_i + dy_j
    sig = stats.sigma
    curv = q * (dy_i**2 * sig[I, I] + 2.0 * dy_i * dy_j * sig[I, J] + dy_j**2 * sig[J, J])
    rows = np.arange(len(counts))
    while rows.size:
        c = counts[rows]
        g = 2.0 * q * (sig @ (p * c).T).T - stats.mu
        ci, cj = c[:, I] + DI, c[:, J] + DJ
        ok = (ci >= 0) & (ci <= uppers[I]) & (cj >= 0) & (cj <= uppers[J])
        ok &= (c @ p)[:, None] + dspend <= budget + 1e-9
        delta = np.where(ok, g[:, I] * dy_i + g[:, J] * dy_j + curv, np.inf)
        best = np.argmin(delta, axis=1)
        moving = delta[np.arange(len(rows)), best] < -1e-12
        rows, best = rows[moving], best[moving]
        counts[rows, I[best]] += DI[best]
        counts[rows, J[best]] += DJ[best]
    return counts


@lru_cache(maxsize=64)
def _moves(n: int) -> tuple[np.ndarray, ...]:
    """The read-only move table (I, DI, J, DJ) of :func:`_descend` for n names, built once per n."""
    moves = [(i, s[0], i, 0) for i in range(n) for s in SHARE_STEPS if len(s) == 1]
    moves += [(i, s[0], j, s[1]) for i in range(n) for j in range(n) if i != j for s in SHARE_STEPS if len(s) > 1]
    table = np.array(moves).T
    table.flags.writeable = False
    return tuple(table)


def _swap_descent(starts, stats, q) -> np.ndarray:
    """Best-improvement swap descent on q x'Sigma x - mu'x of each (m, n) 0/1 row on its own; all rows hold k names.

    A round scores only the k(n - k) swaps of a held name i for a free name j of each row still moving, in one
    (rows, k, n - k) array, as (g_j - g_i) + q((Sigma_ii - 2 Sigma_ij) + Sigma_jj) with g = 2q Sigma x - mu.
    A row takes its first best (held, then free, names ascending) while it lowers the objective by over 1e-12.
    """
    x = np.array(starts, dtype=float, ndmin=2)
    sig, curv = stats.sigma, swap_curvature(stats.sigma, q)
    rows = np.arange(len(x))
    while rows.size:
        c, at = x[rows], np.arange(len(rows))
        g = 2.0 * q * (sig @ c.T).T - stats.mu
        held, free = (np.nonzero(c == v)[1].reshape(len(rows), -1) for v in (1.0, 0.0))
        dg = g[at[:, None], free][:, None, :] - g[at[:, None], held][:, :, None]
        delta = (dg + curv[held[:, :, None], free[:, None, :]]).reshape(len(rows), -1)
        best = delta.argmin(axis=1)
        moving = delta[at, best] < -1e-12
        out, into = np.divmod(best, free.shape[1])
        rows = rows[moving]
        x[rows, held[at, out][moving]], x[rows, free[at, into][moving]] = 0.0, 1.0
    return x


def _best_descent(starts, descend, prices, stats, q) -> np.ndarray:
    """The first best row of ``descend(starts)`` by exact objective; a later row wins only by more than 1e-12.

    ``descend`` (:func:`_swap_descent` or :func:`_descend`) moves each row on its own and gets them _DESCENT_CHUNK
    at a time. Each distinct row is scored once, where it first occurs, since a repeat can never win.
    """
    starts = np.array(starts, ndmin=2)
    chunks = np.split(starts, range(_DESCENT_CHUNK, len(starts), _DESCENT_CHUNK))
    rows = [row for c in chunks for row in descend(c).tolist()]
    best, best_obj = None, math.inf
    for counts in dict.fromkeys(map(tuple, rows)):
        obj = _dollar_objective(counts, prices, stats, q)
        if obj < best_obj - 1e-12:
            best, best_obj = counts, obj
    return np.array(best)


def optimize_integer_shares(
    prices_at: Mapping[str, float],
    stats: AssetStats,
    cfg: PipelineConfig,
    as_of: date | None = None,
) -> Holdings:
    """Optimize whole-share counts directly under the budget inequality.

    The continuous optimum of the same objective under the budget
    (``_relaxed_dollars``), floored to whole shares, fits the budget and
    centres the model: each count is encoded in a band of BAND_HALF_WIDTH
    shares either side of it, and the budget those bands leave is lowered
    into an equality penalty on the spend, with no slack bits. The
    annealer samples that model once on ``cfg.sampler``. Every sampled
    state whose counts the budget buys, in sample order, and then the
    floored relaxation go through :func:`_best_descent` by :func:`_descend`
    over the full [0, floor(budget / p)] range, so a descent may leave the
    band.
    """
    missing = [t for t in stats.tickers if t not in prices_at]
    if missing:
        raise InputError(f"no price available for {missing[0]!r}")
    price_vec = [float(prices_at[t]) for t in stats.tickers]
    # cfg.q is budget-normalized (risk vs return on invested fractions); the
    # dollar-scale model coefficient is q / budget so both strategies share
    # one dimensionless risk knob.
    q_dollar = cfg.q / cfg.budget
    uppers = affordable_shares(price_vec, cfg.budget).tolist()
    relaxed = _relaxed_dollars(stats, q_dollar, cfg.budget)
    floored = [min(int(y // p), u) for y, p, u in zip(relaxed, price_vec, uppers)]
    cm = build_mpt_model(
        stats,
        price_vec,
        cfg.budget,
        q_dollar,
        [max(f - BAND_HALF_WIDTH, 0) for f in floored],
        [min(f + BAND_HALF_WIDTH, u) for f, u in zip(floored, uppers)],
    )
    if cm.total_bits > SHARE_BIT_CAP:
        raise SolverError(
            f"integer-share model needs {cm.total_bits} encoded bits (cap {SHARE_BIT_CAP}); "
            "reduce the universe"
        )
    if cm.total_bits == 0:  # no asset is affordable
        return Holdings({}, cfg.budget, as_of)

    budget_con = cm.constraints[0]
    lam = _share_penalty(cm.objective, budget_con.coeffs)
    spend_rest = LinearConstraint(budget_con.coeffs, "eq", budget_con.rhs)
    s = simulated_anneal(penalize_equality(cm.objective, spend_rest, lam), cfg.sampler, cfg.seed)
    sampled = cm.decode_integers(s.states)
    spend = sum(col * p for col, p in zip(sampled.T, price_vec))  # added in ticker order, as Holdings is charged
    starts = np.vstack([sampled[spend <= cfg.budget], floored])
    descend = partial(_descend, prices=price_vec, stats=stats, q=q_dollar, budget=cfg.budget, uppers=uppers)
    best = _best_descent(starts, descend, price_vec, stats, q_dollar)
    shares = {t: int(c) for t, c in zip(stats.tickers, best)}
    spend = sum(shares[t] * p for t, p in zip(stats.tickers, price_vec))
    return Holdings(shares, cfg.budget - spend, as_of)


def buy(
    stats: AssetStats,
    prices_at: Mapping[str, float],
    cfg: PipelineConfig,
    as_of: date | None = None,
    k: int | None = None,
) -> tuple[Holdings, WeightVector | None]:
    """Spend ``cfg.budget`` at the closes ``prices_at`` the way ``cfg.strategy`` buys.

    ``hybrid`` anneals a k-asset selection, weights it by max-Sharpe and
    rounds the weights to whole shares; it returns those target weights
    with the holdings. ``fully_quantum`` anneals the share counts directly
    and returns no target weights.

    A repurchase passes ``k``: both strategies then first anneal a k-asset
    selection of ``stats.tickers``, and the purchase may buy nothing. An
    opening purchase leaves ``k`` unset: ``hybrid`` takes k from
    ``cfg.cardinality`` (with ``"auto"``, the support size of the
    full-universe max-Sharpe allocation), ``fully_quantum`` sizes every
    ticker, and SolverError is raised when nothing is bought.

    InputError is raised before any solve when 2q, or 2**10 times the
    largest objective term q Sigma_ij y_i y_j (q max|Sigma| on 0/1 selection
    rows, q max|Sigma| budget on fully_quantum's dollars at q / budget), is
    not finite: the margin leaves room for the solvers' sums and thresholds.
    """
    term = float(np.max(np.abs(stats.sigma))) * (cfg.budget if cfg.strategy == "fully_quantum" else 1.0)
    if not math.isfinite(cfg.q * max(term * 2.0**10, 2.0)):
        raise InputError(f"q={cfg.q:g} overflows the {cfg.strategy} objective at these returns and budget; lower q")
    opening = k is None
    if opening and cfg.strategy == "hybrid":
        if cfg.cardinality == "auto":
            _, y_full = max_sharpe_weights(stats, None, cfg.risk_free_rate)
            k = derive_cardinality(y_full)
        else:
            k = cfg.cardinality
            if k > stats.n:
                raise InputError(f"cardinality {k} exceeds universe size {stats.n}")
    if k is not None:
        subset = select_assets(stats, k, cfg.q, cfg.sampler, cfg.seed)
        subset_idx = [stats.tickers.index(t) for t in subset]
    if cfg.strategy == "hybrid":
        target, _ = max_sharpe_weights(stats, subset_idx, cfg.risk_free_rate)
        holdings = to_shares(target, prices_at, cfg.budget, as_of)
    else:
        target = None
        if k is not None:
            stats = stats.subset(subset_idx)
        holdings = optimize_integer_shares(prices_at, stats, cfg, as_of)
    if opening and not holdings.shares:
        if target is None and affordable_shares([prices_at[t] for t in stats.tickers], cfg.budget).any():
            raise SolverError("integer-share optimum holds only cash at this risk aversion; lower q")
        whose = "" if target is None else " of the selected assets"
        raise SolverError(f"budget {cfg.budget} too small to buy any share{whose}")
    return holdings, target


def run_pipeline(prices: PriceMatrix, cfg: PipelineConfig) -> dict:
    """Estimate from ``prices``, :func:`buy` at their last closes, and build the result record.

    The returned dict is the machine-readable pipeline report: strategy,
    selected tickers, target and realized weights (identical for the
    integer-share strategy), share counts, residual cash, metrics of the
    realized weights, seed, cardinality and date.
    """
    as_of = prices.dates[-1]
    prices_at = prices.prices_at(as_of)
    stats = estimate_stats(compute_returns(prices))

    holdings, target = buy(stats, prices_at, cfg, as_of)
    selected = holdings.held_tickers() if target is None else target.tickers
    realized = realized_weights(holdings, prices_at, selected)
    metrics = compute_metrics(realized, stats, cfg.risk_free_rate)
    return {
        "strategy": cfg.strategy,
        "selected": list(selected),
        "weights_target": (realized if target is None else target).as_dict(),
        "weights_realized": realized.as_dict(),
        "shares": {t: holdings.shares[t] for t in sorted(holdings.shares)},
        "cash": holdings.cash,
        "metrics": metrics.to_dict(realized),
        "seed": cfg.seed,
        "cardinality": len(selected),
        "as_of": as_of.isoformat(),
    }
