"""Seeded workloads: input generators, command lines and output checks.

Each workload turns a seed into a fixed list of instances. An instance
is one ``annealfolio`` command on its own generated CSV files, plus what
the oracle needs to judge the command's output. ``plan`` draws and
screens the instances (untimed, oracle work included); ``write``
regenerates and writes their input files (the timed part of set-up);
``check`` judges one output with the oracles in ``oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import oracles

SECTORS = ("Technology", "Financials", "Energy", "Industrials", "Utilities")


@dataclass
class Instance:
    name: str
    seed: int                  # sampler seed handed to the program
    gen_seed: int              # generator seed of the input data
    params: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


@dataclass
class Verdict:
    problems: list[str]
    checked: int = 0           # answers compared with an oracle optimum
    hits: int = 0              # answers equal to it
    portfolios: int = 0        # portfolio constructions in the output
    days: int = 0              # trading days of history the command processed


def _csv_prices(dates, tickers, closes) -> str:
    lines = ["date,ticker,close"]
    for d, row in zip(dates, closes):
        iso = d.isoformat()
        lines.extend(f"{iso},{t},{v:.2f}" for t, v in zip(tickers, row))
    return "\n".join(lines) + "\n"


def _csv_sectors(sectors: dict) -> str:
    return "ticker,sector\n" + "".join(f"{t},{sectors[t]}\n" for t in sorted(sectors))


def _business_days(start: date, count: int) -> list[date]:
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _shares_held(result: dict) -> dict[str, int]:
    return {t: int(c) for t, c in result.get("shares", {}).items() if int(c) != 0}


# ---------------------------------------------------------------------------


class Shares:
    """``optimize --strategy fully_quantum`` on 5-ticker slices of the package's dataset."""

    name = "shares"
    instances = 40
    n_days = 252
    n_tickers = 5
    grid_cap = 1_000_000

    def __init__(self, af):
        self.af = af

    def _slice(self, inst: Instance):
        matrix, _ = self.af.synthetic.generate_dataset(seed=inst.gen_seed, n_days=self.n_days)
        cols = inst.params["cols"]
        return matrix.dates, tuple(matrix.tickers[j] for j in cols), matrix.values[:, cols]

    def plan(self, seed: int) -> tuple[Instance, list[Instance]]:
        rng = np.random.default_rng([seed, 1])
        out: list[Instance] = []
        while len(out) < self.instances:
            inst = Instance(
                f"shares-{len(out):03d}",
                int(rng.integers(1 << 31)),
                int(rng.integers(1 << 31)),
                {
                    "cols": sorted(int(j) for j in rng.choice(10, self.n_tickers, replace=False)),
                    "budget": float(round(rng.uniform(30_000.0, 50_000.0))),
                },
            )
            _, tickers, closes = self._slice(inst)
            budget = inst.params["budget"]
            last = closes[-1]
            if np.prod(np.floor(budget / last) + 1) > self.grid_cap:
                continue
            mu, sigma = oracles.estimate_stats(closes)
            # pipeline q = 1 is budget-normalized: the dollar coefficient is 1 / budget
            best, counts = oracles.share_grid_optimum(mu, sigma, last, budget, 1.0 / budget)
            if counts is None or counts.sum() == 0:
                continue  # cash-only optimum: the program rightly refuses it
            inst.oracle = {"tickers": tickers, "last": last, "mu": mu, "sigma": sigma,
                           "best": best}
            out.append(inst)
        return out[0], out

    def write(self, inst: Instance, folder: Path) -> None:
        dates, tickers, closes = self._slice(inst)
        (folder / f"{inst.name}.csv").write_text(_csv_prices(dates, tickers, closes))

    def argv(self, inst: Instance, folder: Path, out: Path) -> list[str]:
        return ["optimize", "--strategy", "fully_quantum",
                "--prices", str(folder / f"{inst.name}.csv"),
                "--budget", str(inst.params["budget"]), "--seed", str(inst.seed),
                "--out-dir", str(out)]

    result_file = "optimize_result.json"

    def check(self, inst: Instance, result: dict) -> Verdict:
        o = inst.oracle
        budget = inst.params["budget"]
        held = _shares_held(result)
        problems = []
        if set(held) - set(o["tickers"]):
            problems.append(f"unknown tickers {sorted(set(held) - set(o['tickers']))}")
            return Verdict(problems)
        counts = np.array([held.get(t, 0) for t in o["tickers"]], dtype=float)
        spend = float(counts @ o["last"])
        if counts.min() < 0 or spend > budget + 1e-6:
            problems.append(f"spend {spend:.2f} exceeds budget {budget:.2f}")
        if abs(spend + float(result["cash"]) - budget) > 0.005:
            problems.append("cash + spend does not equal the budget")
        achieved = oracles.share_objective(counts, o["last"], o["mu"], o["sigma"], 1.0 / budget)
        hit = int(oracles.matches_optimum(achieved, o["best"]))
        return Verdict(problems, 1, hit, 1, self.n_days)


class Select:
    """``optimize`` (hybrid, cardinality auto, $1M) on the benchmark's own GRW universes."""

    name = "select"
    instances = 63
    n_days = 252
    min_n, max_n = 12, 20
    start = date(2021, 1, 4)

    def __init__(self, af):
        self.af = af

    def _universe(self, inst: Instance):
        """One-factor geometric random walk: r_it = a_i + b_i f_t + s_i e_it."""
        n = inst.params["n"]
        rng = np.random.default_rng(inst.gen_seed)
        alpha = rng.uniform(-0.0006, 0.0012, n)
        beta = rng.uniform(0.4, 1.4, n)
        idio = rng.uniform(0.006, 0.02, n)
        p0 = rng.uniform(20.0, 400.0, n)
        factor = rng.normal(0.0, 0.009, self.n_days - 1)
        shocks = rng.normal(0.0, 1.0, (self.n_days - 1, n))
        logret = alpha + np.outer(factor, beta) + idio * shocks
        closes = np.round(p0 * np.exp(np.vstack([np.zeros(n), np.cumsum(logret, axis=0)])), 2)
        tickers = tuple(f"U{j:02d}" for j in range(n))
        sectors = {t: SECTORS[int(s)] for t, s in zip(tickers, rng.integers(len(SECTORS), size=n))}
        return _business_days(self.start, self.n_days), tickers, closes, sectors

    def plan(self, seed: int) -> tuple[Instance, list[Instance]]:
        rng = np.random.default_rng([seed, 2])
        out: list[Instance] = []
        while len(out) < self.instances:
            inst = Instance(
                f"select-{len(out):03d}",
                int(rng.integers(1 << 31)),
                int(rng.integers(1 << 31)),
                # sizes cycle, so every seed runs the same mix of universe sizes
                {"n": self.min_n + len(out) % (self.max_n - self.min_n + 1)},
            )
            _, tickers, closes, _ = self._universe(inst)
            if closes.min() < 1.0:
                continue
            mu, sigma = oracles.estimate_stats(closes)
            if not (mu > 0).any():
                continue  # no positive excess return: max-Sharpe has no solution
            inst.oracle = {"tickers": tickers, "mu": mu, "sigma": sigma, "last": closes[-1]}
            out.append(inst)
        return out[0], out

    def write(self, inst: Instance, folder: Path) -> None:
        dates, tickers, closes, sectors = self._universe(inst)
        (folder / f"{inst.name}.csv").write_text(_csv_prices(dates, tickers, closes))
        (folder / f"{inst.name}-sectors.csv").write_text(_csv_sectors(sectors))

    def argv(self, inst: Instance, folder: Path, out: Path) -> list[str]:
        return ["optimize", "--prices", str(folder / f"{inst.name}.csv"),
                "--sectors", str(folder / f"{inst.name}-sectors.csv"),
                "--seed", str(inst.seed), "--out-dir", str(out)]

    result_file = "optimize_result.json"

    def check(self, inst: Instance, result: dict) -> Verdict:
        o = inst.oracle
        tickers = list(o["tickers"])
        selected = list(result["selected"])
        k = int(result["cardinality"])
        problems = []
        if set(selected) - set(tickers) or len(set(selected)) != k:
            problems.append(f"selected {selected} is not {k} known tickers")
            return Verdict(problems)
        held = _shares_held(result)
        if set(held) - set(selected) or min(held.values(), default=1) < 0 or not held:
            problems.append("shares are not a nonempty holding of the selected tickers")
            return Verdict(problems)
        col = {t: j for j, t in enumerate(tickers)}
        spend = sum(c * o["last"][col[t]] for t, c in held.items())
        budget = 1_000_000.0
        if spend > budget + 1e-6 or abs(spend + float(result["cash"]) - budget) > 0.005:
            problems.append(f"spend {spend:.2f} and cash do not fit the budget")
        best, _ = oracles.best_subset(o["mu"], o["sigma"], k)
        achieved = oracles.subset_objective(o["mu"], o["sigma"], [col[t] for t in selected])
        hit = int(oracles.matches_optimum(achieved, best))
        return Verdict(problems, 1, hit, 1, self.n_days)


class BacktestLong:
    """``backtest --benchmark TECH1`` (hybrid) on 5-year package datasets.

    The backtests are one fixed pool (``pool_seed``) of markets and sampler
    seeds; the workload seed draws the warm-up backtest and the order in
    which the pool runs. A backtest's cost depends several-fold on its
    market (a portfolio that falls to cash stops annealing) and by up to
    half on its sampler seed (the portfolio path diverges), so backtests
    drawn per seed would swamp every timing with seed-to-seed spread at the
    few backtests a run can afford. The host's speed also swings by a tenth
    or more within seconds, past what the calibration kernel timed between
    operations can follow during a long one. Five years rather than twenty,
    and five backtests, give about four runs of each backtest and twenty
    operations per measurement, whose medians shed those swings.
    """

    name = "backtest-long"
    instances = 5
    pool_seed = 5040
    n_days = 1260
    warmup_days = 504
    budget = 1_000_000.0

    def __init__(self, af):
        self.af = af

    def _data(self, inst: Instance):
        matrix, sectors = self.af.synthetic.generate_dataset(
            seed=inst.gen_seed, n_days=inst.params["days"])
        return matrix.dates, matrix.tickers, matrix.values, dict(sectors.entries)

    def plan(self, seed: int) -> tuple[Instance, list[Instance]]:
        rng = np.random.default_rng([seed, 3])
        pool = np.random.default_rng(self.pool_seed)

        def draw(name, days, draws):
            inst = Instance(name, int(draws.integers(1 << 31)), int(draws.integers(1 << 31)),
                            {"days": days})
            dates, tickers, closes, _ = self._data(inst)
            inst.oracle = {"dates": [d.isoformat() for d in dates], "tickers": tickers,
                           "closes": closes}
            return inst

        warmup = draw("backtest-warmup", self.warmup_days, rng)
        backtests = [draw(f"backtest-{i:03d}", self.n_days, pool) for i in range(self.instances)]
        return warmup, [backtests[i] for i in rng.permutation(self.instances)]

    def write(self, inst: Instance, folder: Path) -> None:
        dates, tickers, closes, sectors = self._data(inst)
        (folder / f"{inst.name}.csv").write_text(_csv_prices(dates, tickers, closes))
        (folder / f"{inst.name}-sectors.csv").write_text(_csv_sectors(sectors))

    def argv(self, inst: Instance, folder: Path, out: Path) -> list[str]:
        return ["backtest", "--prices", str(folder / f"{inst.name}.csv"),
                "--sectors", str(folder / f"{inst.name}-sectors.csv"),
                "--benchmark", "TECH1", "--seed", str(inst.seed), "--out-dir", str(out)]

    result_file = "backtest_report.json"

    def check(self, inst: Instance, result: dict) -> Verdict:
        o = inst.oracle
        problems = oracles.replay_ledger(result, o["closes"], o["tickers"], o["dates"],
                                         self.budget)
        # Each rebalance that bought re-solved a k-of-candidates selection on the
        # history up to its date; every ticker bought must lie in the best k-subset.
        row = {d: i for i, d in enumerate(o["dates"])}
        col = {t: j for j, t in enumerate(o["tickers"])}
        checked = hits = traded = 0
        for ev in result["events"]:
            if not ev["bought"]:
                continue
            traded += 1
            cands, k = list(ev["universe_used"]), len(ev["sold"])
            if k >= len(cands):
                continue
            history = o["closes"][: row[ev["date"]] + 1][:, [col[t] for t in cands]]
            mu, sigma = oracles.estimate_stats(history)
            _, best = oracles.best_subset(mu, sigma, k)
            checked += 1
            hits += set(ev["bought"]) <= {cands[i] for i in best}
        return Verdict(problems, checked, hits, 1 + traded, len(result["dates"]))


WORKLOADS = {w.name: w for w in (Shares, Select, BacktestLong)}
