"""Measure solution quality against exact enumeration, for one of two families.

``--family random`` (the default) draws random dense QUBOs, solves each
with the seeded annealer and with exhaustive enumeration, and reports the
hit rate and worst relative gap.

``--family hedged`` draws hedged sector-factor markets: a market factor,
5 sector factors and half the names on negative beta, n = 16-20 names,
k = n // 4, q = 10. It keeps only the hard ones, where some of 20
random-start swap descents miss the exact k-subset optimum, and reports
how often ``pipeline.select_assets`` hits that optimum and its ms per
selection. The oracle and the screening descent are this script's own
numpy code, not the package's.

    python scripts/sampler_quality.py --n 16 --instances 100 --seed 7
    python scripts/sampler_quality.py --family hedged --instances 100 --sweeps 300
"""

import argparse
import itertools
import time

import numpy as np

from annealfolio.marketdata import AssetStats
from annealfolio.model import QuboModel
from annealfolio.pipeline import select_assets
from annealfolio.sampler import AnnealSchedule, exhaustive_solve, simulated_anneal

HEDGED_Q = 10.0
HEDGED_SCREEN_STARTS = 20


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


def swap_descent(stats, q, x):
    """Best-improvement descent over swaps of one held name for one not held."""
    x = x.copy()
    diag = np.diag(stats.sigma)
    while True:
        g = 2.0 * q * (stats.sigma @ x) - stats.mu
        held, free = np.flatnonzero(x), np.flatnonzero(x == 0)
        # moving one unit from i to j changes the objective by g_j - g_i + q (S_ii + S_jj - 2 S_ij)
        delta = (
            g[free][None, :]
            - g[held][:, None]
            + q * (diag[held][:, None] + diag[free][None, :] - 2.0 * stats.sigma[np.ix_(held, free)])
        )
        a, b = np.unravel_index(np.argmin(delta), delta.shape)
        if delta[a, b] >= -1e-12:
            return x
        x[held[a]], x[free[b]] = 0.0, 1.0


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
        subset_objective(stats, HEDGED_Q, swap_descent(stats, HEDGED_Q, random_start())) > best + 1e-9
        for _ in range(HEDGED_SCREEN_STARTS)
    )
    return stats, k, best, hard


def run_hedged(args):
    schedule = AnnealSchedule(sweeps=args.sweeps, restarts=args.restarts)
    hits = found = screened = 0
    elapsed = 0.0
    while found < args.instances:
        c, screened = screened, screened + 1
        stats, k, best, hard = hedged_candidate(args.seed, c)
        if not hard:
            continue
        t0 = time.perf_counter()
        picked = select_assets(stats, k, HEDGED_Q, "auto", schedule, seed=c)
        elapsed += time.perf_counter() - t0
        x = np.array([1.0 if t in picked else 0.0 for t in stats.tickers])
        hit = subset_objective(stats, HEDGED_Q, x) <= best + 1e-9
        hits += hit
        found += 1
        if args.verbose:
            print(f"candidate {c}: n={stats.n} k={k} {'hit' if hit else 'MISS'}")
    sweeps = "default" if args.sweeps is None else args.sweeps
    print(f"family=hedged  instances={found} (of {screened} screened)  sweeps={sweeps}  restarts={args.restarts}  seed={args.seed}")
    print(f"optimum found : {hits}/{found}")
    print(f"select_assets : {elapsed / max(found, 1) * 1000:.1f} ms/selection")


def run_random(args):
    rng = np.random.default_rng(args.seed)
    schedule = AnnealSchedule(sweeps=args.sweeps, restarts=args.restarts).resolve_sweeps()
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

    print(f"n={args.n}  instances={args.instances}  sweeps={schedule.sweeps}  restarts={args.restarts}")
    print(f"optimum found : {hits}/{args.instances}")
    print(f"worst rel gap : {worst_gap:.4%}")
    print(f"elapsed       : {elapsed:.1f}s ({elapsed / args.instances * 1000:.0f} ms/instance)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=("random", "hedged"), default="random")
    ap.add_argument("--n", type=int, default=16, help="variables per random instance (<= 24)")
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--scale", type=float, default=1.0, help="random coefficient range [-scale, scale]")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--sweeps", type=int, default=None, help="default: the schedule's own per-family count")
    ap.add_argument("--restarts", type=int, default=32)
    ap.add_argument("--verbose", action="store_true", help="hedged: one line per instance")
    args = ap.parse_args()
    (run_hedged if args.family == "hedged" else run_random)(args)


if __name__ == "__main__":
    main()
