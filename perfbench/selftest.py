"""Tests of the benchmark itself: oracles, TTS, tail statistic, calibration, tracer transparency.

Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class StatsOracle(unittest.TestCase):
    def test_simple_returns_ddof1_annualized(self):
        mu, sigma = oracles.estimate_stats(np.array([[100.0], [110.0], [99.0]]))
        # returns +0.10 and -0.10: mean 0, sample variance 0.02
        self.assertAlmostEqual(mu[0], 0.0, places=12)
        self.assertAlmostEqual(sigma[0, 0], 0.02 * 252, places=10)


class ShareGridOracle(unittest.TestCase):
    def test_two_asset_grid_known_optimum(self):
        # With no risk term the objective is -(0.1 * 10 c1 + 0.3 * 20 c2) = -(c1 + 6 c2)
        # under 10 c1 + 20 c2 <= 50: the best is c = (1, 2), value -13.
        value, counts = oracles.share_grid_optimum(
            np.array([0.1, 0.3]), np.zeros((2, 2)), np.array([10.0, 20.0]), 50.0, 0.0)
        self.assertEqual(list(counts), [1, 2])
        self.assertAlmostEqual(value, -13.0)

    def test_grid_matches_loop_with_risk(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        sigma, mu, prices = A @ A.T * 0.01, rng.uniform(0, 0.3, 3), np.array([7.0, 11.0, 13.0])
        budget, q = 60.0, 0.002
        value, counts = oracles.share_grid_optimum(mu, sigma, prices, budget, q, chunk=7)
        best = min(
            oracles.share_objective(c, prices, mu, sigma, q)
            for c in itertools.product(*(range(int(budget // p) + 1) for p in prices))
            if np.dot(c, prices) <= budget
        )
        self.assertAlmostEqual(value, best, places=12)
        self.assertLessEqual(float(np.dot(counts, prices)), budget)


class SubsetOracle(unittest.TestCase):
    def test_planted_best_subset(self):
        mu = np.array([0.01, 0.9, 0.02, 0.8, 0.03, 0.7, 0.0])
        sigma = np.diag(np.full(7, 0.01))
        value, best = oracles.best_subset(mu, sigma, 3)
        self.assertEqual(best, (1, 3, 5))
        self.assertAlmostEqual(value, oracles.subset_objective(mu, sigma, best))

    def test_meet_in_the_middle_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 8):
            lin = rng.normal(size=n)
            U = np.triu(rng.normal(size=(n, n)), 1)
            states = [np.array(s, dtype=float) for s in itertools.product((0, 1), repeat=n)]
            energies = [float(lin @ x + x @ U @ x) for x in states]
            value, x = oracles.qubo_minimum(lin, U)
            self.assertAlmostEqual(value, min(energies), places=12)
            self.assertAlmostEqual(float(lin @ x + x @ U @ x), value, places=12)
            k = n // 2
            constrained = min(e for e, s in zip(energies, states) if s.sum() == k)
            self.assertAlmostEqual(oracles.qubo_minimum(lin, U, k)[0], constrained, places=12)


class TimeToTarget(unittest.TestCase):
    def test_formula(self):
        self.assertIsNone(oracles.tts99(2.0, 0.0))
        self.assertEqual(oracles.tts99(2.0, 1.0), 2.0)
        self.assertEqual(oracles.tts99(2.0, 0.995), 2.0)
        self.assertAlmostEqual(oracles.tts99(2.0, 0.5), 2.0 * math.log(0.01) / math.log(0.5))


class TailStatistic(unittest.TestCase):
    def test_ten_beyond(self):
        xs = [float(i) for i in range(100)]
        value, pct = run.tail(xs)
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertEqual(pct, 90.0)

    def test_small_sample_reports_max(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class Calibration(unittest.TestCase):
    def test_scale_follows_the_nearest_samples(self):
        speed = calibrate.Speed()
        speed.samples = ([(float(t), 0.04) for t in range(20)]
                         + [(float(t), 0.01) for t in range(100, 120)])
        self.assertAlmostEqual(speed.scale(5.0), calibrate.NOMINAL_S / 0.04)
        self.assertAlmostEqual(speed.scale(110.0), calibrate.NOMINAL_S / 0.01)

    def test_sample_times_the_kernel_until_enough_is_spent(self):
        speed = calibrate.Speed()
        speed.sample()
        self.assertEqual(len(speed.samples), 1)
        speed.sample(at_least=3 * speed.samples[0][1])
        self.assertGreaterEqual(len(speed.samples), 3)
        self.assertEqual(calibrate.kernel(), calibrate.kernel())


class LedgerReplay(unittest.TestCase):
    closes = np.array([[10.0, 20.0], [12.0, 18.0], [11.0, 30.0]])
    tickers, dates = ("A", "B"), ["2024-01-02", "2024-01-03", "2024-01-04"]

    def report(self):
        # buy 3 A at 10 (cash 70); sell A at 12 (36), buy 5 B at 18 (90), cash 16
        return {
            "dates": self.dates,
            "algo": [100.0, 106.0, 166.0],
            "initial": {"shares": {"A": 3, "B": 0}, "cash": 70.0},
            "events": [{
                "date": "2024-01-03",
                "sold": {"A": {"shares": 3, "proceeds": 36.0}},
                "bought": {"B": {"shares": 5, "cost": 90.0}},
                "new_budget": 106.0,
                "cash_after": 16.0,
            }],
        }

    def test_balanced_report_passes(self):
        self.assertEqual(
            oracles.replay_ledger(self.report(), self.closes, self.tickers, self.dates, 100.0), [])

    def test_overspend_and_imbalance_fail(self):
        rep = self.report()
        rep["events"][0]["bought"]["B"] = {"shares": 7, "cost": 126.0}
        problems = oracles.replay_ledger(rep, self.closes, self.tickers, self.dates, 100.0)
        self.assertTrue(any("spent" in p for p in problems))
        self.assertTrue(any("balance" in p for p in problems))


class Workloads(unittest.TestCase):
    """Generators are seeded, and tracing leaves every output byte-identical."""

    @classmethod
    def setUpClass(cls):
        cls.cli = run.fresh_import()
        cls.af = sys.modules["annealfolio"]
        cls.work = HERE / "work" / f"selftest-{os.getpid()}"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def small(self, cls, n):
        return type(cls.__name__, (cls,), {"instances": n})(self.af)

    def test_same_seed_same_inputs(self):
        a, b, c = (self.small(workloads.Select, 3).plan(s)[1] for s in (7, 7, 8))
        key = [(i.seed, i.gen_seed, i.params) for i in a]
        self.assertEqual(key, [(i.seed, i.gen_seed, i.params) for i in b])
        self.assertNotEqual(key, [(i.seed, i.gen_seed, i.params) for i in c])

    def test_tracing_is_transparent(self):
        cases = [
            (self.small(workloads.Select, 2), lambda plan: plan[1]),
            (self.small(workloads.Shares, 1), lambda plan: plan[1]),
            (self.small(workloads.BacktestLong, 1), lambda plan: [plan[0]]),
        ]
        for wl, pick in cases:
            with self.subTest(workload=wl.name):
                insts = pick(wl.plan(11))
                inputs, outputs = self.work / wl.name / "in", self.work / wl.name / "out"
                inputs.mkdir(parents=True, exist_ok=True)
                for inst in insts:
                    wl.write(inst, inputs)
                plain = [run.execute(self.cli.main, wl, i, inputs, outputs) for i in insts]
                tr = tracer.Tracer()
                tr.install()
                try:
                    main = tr.wrap(self.cli.main, tracer.ROOT)
                    traced = [run.execute(main, wl, i, inputs, outputs) for i in insts]
                finally:
                    tr.uninstall()
                for a, b in zip(plain, traced):
                    self.assertIsNone(a.error, a.error)
                    self.assertIsNone(b.error, b.error)
                    self.assertEqual(a.digest, b.digest)
                verdicts = run.judge(wl, plain + traced)
                self.assertTrue(all(v and not v.problems for v in verdicts.values()))
                self.assertTrue(all(op.error is None for op in plain + traced))
                names = {s.name for s in tr.spans}
                self.assertIn("sampler.anneal", names)
                self.assertIn(tracer.ROOT, names)
                m = tracer.layer_metrics(tr, [op.seconds for op in traced])
                self.assertLess(abs(m["trace.unattributed_frac"]), 0.05)


if __name__ == "__main__":
    unittest.main()
