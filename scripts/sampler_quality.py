"""Measure solution quality against exact enumeration, for one of three families.

``--family random`` (the default) draws random dense QUBOs, solves each
with the seeded annealer and with exhaustive enumeration, and reports the
hit rate and worst relative gap. It exits 1 below the bar of acceptance
criterion 2 (``tests/test_acceptance.py``): fewer than 95 % of instances
at the exact optimum, or a worst relative gap above 2 %.

``--family hedged`` draws hedged sector-factor markets: a market factor,
5 sector factors and half the names on negative beta, n = 16-20 names,
k = n // 4, q = 10. It keeps only the hard ones, where some of 20
random-start swap descents miss the exact k-subset optimum. The
screening descent is the selection's own, ``pipeline._swap_descent``.

``--family select`` draws one-factor random-walk markets of 12-20 names,
one year of daily closes, with k the support size of the full-universe
max-Sharpe allocation (as ``pipeline.buy`` takes it), and keeps those
whose selection is annealed (2 <= k <= n - 2).

Both selection families report two things against the exact k-subset
optimum, which this script enumerates with its own numpy code. The raw
swap anneal (``sampler.simulated_anneal`` of the ``KSubsetModel``, on the
schedule ``select_assets`` is given) hits when its best restart's
objective equals that optimum, before any descent; its hits per second
of anneal time are printed.
``pipeline.select_assets`` hits when its pick does. Either family exits
1 when ``select_assets`` misses on any instance.

Every family anneals on ``AnnealSchedule``'s defaults, 32 restarts of 100
sweeps, unless ``--sweeps`` or ``--restarts`` is given.

    python scripts/sampler_quality.py --n 16 --instances 100 --seed 7
    python scripts/sampler_quality.py --family hedged --instances 100 --sweeps 300
    python scripts/sampler_quality.py --family select --instances 150 --seed 11
"""

import argparse
import itertools
import sys
import time

import numpy as np

from annealfolio import pipeline
from annealfolio.allocator import derive_cardinality, max_sharpe_weights
from annealfolio.marketdata import AssetStats
from annealfolio.model import KSubsetModel, QuboModel
from annealfolio.sampler import AnnealSchedule, exhaustive_solve, simulated_anneal

HEDGED_Q = 10.0
HEDGED_SCREEN_STARTS = 20
SELECT_DAYS = 252
SELECT_Q = 1.0  # PipelineConfig's default risk aversion


def random_qubo(rng, n, scale):
    lin = rng.uniform(-scale, scale, n)
    quad = {
        (i, j): float(rng.uniform(-scale, scale))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return QuboModel(n, lin, quad, 0.0)


def hedged_market(rng, n):
    """Annualized mu and Sigma of n names on a market factor and 5 sector factors; half hedge the market."""
    beta = rng.uniform(0.5, 1.5, n) * np.where(rng.permutation(n) < n // 2, -1.0, 1.0)
    loadings = np.zeros((n, 6))
    loadings[:, 0] = 0.2 * beta
    loadings[np.arange(n), 1 + rng.integers(0, 5, n)] = rng.uniform(0.05, 0.2, n)
    sigma = loadings @ loadings.T + np.diag(rng.uniform(0.05, 0.15, n) ** 2)
    mu = 0.05 + 0.05 * beta + rng.normal(0.0, 0.05, n)
    return AssetStats(tuple(f"H{i:02d}" for i in range(n)), mu, sigma)


def subset_objective(stats, q, x):
    return q * float(x @ stats.sigma @ x) - float(stats.mu @ x)


def k_subset_optimum(stats, q, k):
    """Least q x'Sigma x - mu'x over every 0/1 x with k ones, by enumeration."""
    idx = np.array(list(itertools.combinations(range(stats.n), k)))
    risk = stats.sigma[idx[:, :, None], idx[:, None, :]].sum(axis=(1, 2))
    return float(np.min(q * risk - stats.mu[idx].sum(axis=1)))


def hedged_candidate(seed, c):
    """Candidate c of the hedged family: (stats, k, k-subset optimum, whether it is hard).

    Each candidate draws from its own ``default_rng([seed, c])``, so any
    one can be rebuilt without the others.
    """
    rng = np.random.default_rng([seed, c])
    n = int(rng.integers(16, 21))
    k = n // 4
    stats = hedged_market(rng, n)
    best = k_subset_optimum(stats, HEDGED_Q, k)

    def random_start():
        x = np.zeros(n)
        x[rng.choice(n, k, replace=False)] = 1.0
        return x

    hard = any(
        subset_objective(stats, HEDGED_Q, pipeline._swap_descent(random_start(), stats, HEDGED_Q)[0]) > best + 1e-9
        for _ in range(HEDGED_SCREEN_STARTS)
    )
    return stats, k, best, hard


def run_selections(args, family, draw):
    """Score the raw swap anneal and ``select_assets`` on instances ``draw(seed, c)`` -> (stats, q, k, optimum) or None."""
    schedule = AnnealSchedule(sweeps=args.sweeps, restarts=args.restarts)
    raw_hits = hits = found = screened = 0
    anneal_s = select_s = 0.0
    while found < args.instances:
        c, screened = screened, screened + 1
        drawn = draw(args.seed, c)
        if drawn is None:
            continue
        stats, q, k, best = drawn
        t0 = time.perf_counter()
        s = simulated_anneal(KSubsetModel(stats.mu, stats.sigma, q, k), schedule, seed=c)
        t1 = time.perf_counter()
        picked = pipeline.select_assets(stats, k, q, schedule, seed=c)
        t2 = time.perf_counter()
        anneal_s, select_s = anneal_s + t1 - t0, select_s + t2 - t1
        raw_hit = s.best_energy <= best + 1e-9
        x = np.array([1.0 if t in picked else 0.0 for t in stats.tickers])
        hit = subset_objective(stats, q, x) <= best + 1e-9
        raw_hits += raw_hit
        hits += hit
        found += 1
        if args.verbose:
            anneal, select = "hit" if raw_hit else "miss", "hit" if hit else "MISS"
            print(f"candidate {c}: n={stats.n} k={k} anneal {anneal} select {select}")
    print(f"family={family}  instances={found} (of {screened} screened)  "
          f"sweeps={args.sweeps}  restarts={args.restarts}  seed={args.seed}")
    print(f"anneal optimum: {raw_hits}/{found}  {anneal_s / found * 1000:.2f} ms/anneal  "
          f"{raw_hits / anneal_s:.0f} hits/s")
    print(f"optimum found : {hits}/{found}")
    print(f"select_assets : {select_s / found * 1000:.1f} ms/selection")
    return 0 if hits == found else 1


def hedged_instance(seed, c):
    stats, k, best, hard = hedged_candidate(seed, c)
    return (stats, HEDGED_Q, k, best) if hard else None


def run_hedged(args):
    return run_selections(args, "hedged", hedged_instance)


def select_candidate(seed, c):
    """Candidate c of the select family: (stats, k), or None when max-Sharpe has no solution.

    One-factor geometric random walk, r_it = a_i + b_i f_t + s_i e_it, over
    SELECT_DAYS closes; stats are the annualized sample mean and covariance
    of its simple returns. Each candidate draws from its own
    ``default_rng([seed, c])``.
    """
    rng = np.random.default_rng([seed, c])
    n = int(rng.integers(12, 21))
    alpha = rng.uniform(-0.0006, 0.0012, n)
    beta = rng.uniform(0.4, 1.4, n)
    idio = rng.uniform(0.006, 0.02, n)
    factor = rng.normal(0.0, 0.009, SELECT_DAYS - 1)
    shocks = rng.normal(0.0, 1.0, (SELECT_DAYS - 1, n))
    returns = np.expm1(alpha + np.outer(factor, beta) + idio * shocks)
    tickers = tuple(f"U{i:02d}" for i in range(n))
    stats = AssetStats(tickers, 252 * returns.mean(axis=0), 252 * np.cov(returns, rowvar=False))
    if not (stats.mu > 0).any():
        return None
    return stats, derive_cardinality(max_sharpe_weights(stats)[1])


def select_instance(seed, c):
    drawn = select_candidate(seed, c)
    if drawn is None or not 2 <= drawn[1] <= drawn[0].n - 2:
        return None
    stats, k = drawn
    return stats, SELECT_Q, k, k_subset_optimum(stats, SELECT_Q, k)


def run_select(args):
    return run_selections(args, "select", select_instance)


def run_random(args):
    rng = np.random.default_rng(args.seed)
    schedule = AnnealSchedule(sweeps=args.sweeps, restarts=args.restarts)
    hits = 0
    worst_gap = 0.0
    t0 = time.perf_counter()
    for _ in range(args.instances):
        m = random_qubo(rng, args.n, args.scale)
        sa = simulated_anneal(m, schedule, seed=int(rng.integers(0, 1 << 62)))
        exact = exhaustive_solve(m, top_k=1).best_energy
        gap = (sa.best_energy - exact) / max(abs(exact), 1e-9)
        worst_gap = max(worst_gap, gap)
        if sa.best_energy <= exact + 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0

    print(f"n={args.n}  instances={args.instances}  sweeps={schedule.sweeps}  restarts={schedule.restarts}")
    print(f"optimum found : {hits}/{args.instances}")
    print(f"worst rel gap : {worst_gap:.4%}")
    print(f"elapsed       : {elapsed:.1f}s ({elapsed / args.instances * 1000:.0f} ms/instance)")
    return 0 if hits >= 0.95 * args.instances and worst_gap <= 0.02 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=tuple(FAMILIES), default="random")
    ap.add_argument("--n", type=int, default=16, help="variables per random instance (<= 24)")
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--scale", type=float, default=1.0, help="random coefficient range [-scale, scale]")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--sweeps", type=int, default=AnnealSchedule.sweeps, help="default: %(default)s")
    ap.add_argument("--restarts", type=int, default=AnnealSchedule.restarts, help="default: %(default)s")
    ap.add_argument("--verbose", action="store_true", help="hedged, select: one line per instance")
    args = ap.parse_args()
    return FAMILIES[args.family](args)


FAMILIES = {"random": run_random, "hedged": run_hedged, "select": run_select}


if __name__ == "__main__":
    sys.exit(main())
