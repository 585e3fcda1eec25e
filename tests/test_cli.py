import csv
import json
import os
import re
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import annealfolio
from annealfolio.cli import _CONFIG_KEYS, _SAMPLER_KEYS, main, render_comparison
from annealfolio.data import (
    bundled_prices_path,
    bundled_sectors_path,
    sample_comparison_path,
)
from annealfolio import pipeline, synthetic
from annealfolio.marketdata import PriceMatrix, _grid, _read_csv, compute_returns, estimate_stats, load_prices
from annealfolio.sampler import simulated_anneal
from conftest import grw_matrix


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "out"


class TestOptimizeCommand:
    def test_default_config_on_bundled_data(self, out_dir, capsys):
        assert run(["optimize", "--seed", 42, "--out-dir", out_dir]) == 0
        result = json.loads((out_dir / "optimize_result.json").read_text())
        weights = result["metrics"]["weights"]
        assert sum(weights.values()) == pytest.approx(100.0, abs=0.01)
        assert result["seed"] == 42
        table = capsys.readouterr().out
        for row in ("Returns", "Risk", "Sharpe Ratio", "Diversification Ratio"):
            assert row in table

    def test_fully_quantum_budget_flag(self, out_dir):
        assert run([
            "optimize", "--seed", 7, "--strategy", "fully_quantum",
            "--budget", 100000, "--out-dir", out_dir,
        ]) == 0
        result = json.loads((out_dir / "optimize_result.json").read_text())
        assert all(isinstance(v, int) and v >= 0 for v in result["shares"].values())
        assert result["cash"] >= 0

    def test_fully_quantum_default_budget(self, out_dir):
        # the paper's strategy at the CLI's default budget of 1,000,000
        assert run(["optimize", "--seed", 42, "--strategy", "fully_quantum", "--out-dir", out_dir]) == 0
        result = json.loads((out_dir / "optimize_result.json").read_text())
        closes = load_prices(bundled_prices_path()).prices_at(date.fromisoformat(result["as_of"]))
        spend = sum(count * closes[t] for t, count in result["shares"].items())
        assert result["shares"] and 0.0 < spend <= 1_000_000.0
        assert spend + result["cash"] == pytest.approx(1_000_000.0, abs=1e-6)

    def test_fully_quantum_reaches_cash_leaving_optimum(self, tmp_path, out_dir):
        # A five-name slice whose integer optimum leaves $679 unspent. The
        # band model's equality penalty ranks that state far down, so the
        # anneal's best sample misses it; descending every feasible sample
        # reaches it. Checked against a brute force over the integer grid.
        matrix, _ = synthetic.generate_dataset(seed=948871555, n_days=252)
        cols = [1, 2, 5, 8, 9]
        sliced = PriceMatrix(matrix.dates, tuple(matrix.tickers[j] for j in cols), matrix.values[:, cols])
        prices = tmp_path / "prices.csv"
        prices.write_text(synthetic.prices_to_csv(sliced))
        budget = 36301.0
        assert run([
            "optimize", "--strategy", "fully_quantum", "--prices", prices, "--budget", budget,
            "--seed", 1297366538, "--out-dir", out_dir,
        ]) == 0
        result = json.loads((out_dir / "optimize_result.json").read_text())
        loaded = load_prices(prices)
        stats = estimate_stats(compute_returns(loaded))
        last = loaded.values[-1]
        axes = [np.arange(int(budget // p) + 1) for p in last]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(last))
        Y = grid * last
        Y = Y[Y.sum(axis=1) <= budget]
        objective = np.einsum("si,ij,sj->s", Y, stats.sigma, Y) / budget - Y @ stats.mu
        y = np.array([result["shares"].get(t, 0) for t in loaded.tickers]) * last
        got = float(y @ stats.sigma @ y) / budget - float(stats.mu @ y)
        assert got <= objective.min() + 1e-9 * abs(objective.min())
        assert result["shares"] == {"FINA1": 4, "FINA2": 7, "TELE1": 1}
        assert result["cash"] == pytest.approx(679.01, abs=0.005)

    def test_three_day_data_both_strategies(self, tmp_path, capsys, caplog):
        # two returns per name give a singular covariance; the allocator's
        # ridge is part of its solver, not a warning per step
        data = tmp_path / "data"
        assert run(["gen-data", "--days", 3, "--out-dir", data]) == 0
        expected = {
            "hybrid": ({"ENRG1": 2, "FINA2": 92, "STPL1": 9, "STPL2": 136, "TECH1": 21, "TECH2": 25,
                        "TELE1": 12}, 1431.14),
            "fully_quantum": ({"STPL2": 349}, 523.33),
        }
        for strategy, (shares, cash) in expected.items():
            out = tmp_path / strategy
            assert run([
                "optimize", "--seed", 1, "--strategy", strategy, "--out-dir", out,
                "--prices", data / "synthetic_prices.csv", "--sectors", data / "synthetic_sectors.csv",
            ]) == 0
            result = json.loads((out / "optimize_result.json").read_text())
            assert result["shares"] == shares
            assert result["cash"] == pytest.approx(cash, abs=1e-6)
        assert "applied ridge" not in capsys.readouterr().err + caplog.text

    def test_missing_price_file_exit_2(self, out_dir, capsys):
        code = run(["optimize", "--seed", 1, "--prices", "/nope/missing.csv", "--out-dir", out_dir])
        assert code == 2
        assert "/nope/missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--prices", "--sectors"])
    def test_non_utf8_input_exit_2(self, tmp_path, out_dir, capsys, flag):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("date,ticker,close\n2023-01-02,Caf\u00e9,10\n".encode("latin-1"))
        assert run(["backtest", "--seed", 1, flag, bad, "--benchmark", "TECH1", "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not UTF-8 text (byte 0xe9 at offset 32)\n"

    def test_missing_seed_exit_2(self, out_dir, capsys):
        assert run(["optimize", "--out-dir", out_dir]) == 2
        assert "seed" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, out_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "budget": 50_000.0}))
        assert run(["optimize", "--config", cfg, "--budget", 80_000.0, "--out-dir", out_dir]) == 0
        result = json.loads((out_dir / "optimize_result.json").read_text())
        spend = sum(result["metrics"]["weights"].values())
        assert spend == pytest.approx(100.0, abs=0.01)
        # flag must win over the config file
        assert result["cash"] < 80_000.0

    def test_unknown_config_key_exit_2(self, tmp_path, out_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "budgte": 1.0}))
        assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 2
        assert "budgte" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("cardinality_mode", "support"), ("lambda", 2), ("returns_method", "log"), ("annualization_factor", 252),
    ])
    def test_retired_config_key_exit_2(self, tmp_path, out_dir, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, key: value}))
        assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    def test_retired_lambda_flag_exit_2(self, out_dir, capsys):
        with pytest.raises(SystemExit) as info:
            run(["optimize", "--seed", 5, "--lambda", 2, "--out-dir", out_dir])
        assert info.value.code == 2
        assert "unrecognized arguments: --lambda 2" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["hybrid", "fully_quantum"])
    def test_budget_above_ceiling_exit_2(self, out_dir, capsys, strategy):
        # refused before any purchase: far above the ceiling whole-share counts pass 2**53,
        # where float spend no longer moves by one share, and fully_quantum's overflow int64
        argv = ["optimize", "--seed", 1, "--strategy", strategy, "--budget", 1e30, "--out-dir", out_dir]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: budget must be a number > 0 and <= 1000000000000000.0, got 1e+30\n"

    def test_malformed_config_exit_2(self, tmp_path, out_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 2

    @pytest.mark.parametrize(
        "sampler, message",
        [
            ({"sweeps": 10.5}, "sweeps must be an integer"),
            ({"restarts": True}, "restarts must be an integer"),
            ({"t_final": "cold"}, "t_final must be a number"),
            ({"sweep": 10}, "unknown sampler keys: ['sweep']"),
            ([10], "'sampler' config field must be a JSON object"),
            ({"sweeps": 0}, "sweeps must be an integer >= 1"),
            ({"sweeps": True}, "sweeps must be an integer"),
            ({"interpolation": "linear"}, "unknown sampler keys: ['interpolation']"),
        ],
    )
    def test_malformed_sampler_config_exit_2(self, tmp_path, out_dir, capsys, sampler, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "sampler": sampler}))
        assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 2
        assert message in capsys.readouterr().err

    def test_null_sweeps_accepted(self, tmp_path, out_dir):
        # null is the default: each anneal resolves its own sweep count
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "sampler": {"sweeps": None}}))
        assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 0
        assert run(["optimize", "--seed", 1, "--out-dir", tmp_path / "default"]) == 0
        for name in ("optimize_result.json", "optimize_result.txt"):
            assert (out_dir / name).read_bytes() == (tmp_path / "default" / name).read_bytes()

    @pytest.mark.parametrize(
        "config, flags, field",
        [
            ({"budget": None}, [], "budget"),
            ({"lookback_days": "x"}, [], "lookback_days"),
            ({"risk_free_rate": "x"}, [], "risk_free_rate"),
            ({"risk_return_threshold": None}, [], "risk_return_threshold"),
            ({"prices": 5}, [], "prices"),
            ({}, ["--budget", "inf"], "budget"),
            ({"cardinality": 2.9}, [], "cardinality"),
            ({"period_months": 2.5}, [], "period_months"),
            ({"budget": True}, [], "budget"),
            ({"q": "inf"}, [], "q"),
            ({"benchmark": {"TECH1": "x"}}, [], "benchmark weight of TECH1"),
            ({"benchmark": {"TECH1": float("nan"), "ENRG1": 1}}, [], "benchmark weight of TECH1"),
            ({"benchmark": {"TECH1": float("inf")}}, [], "benchmark weight of TECH1"),
            ({"benchmark": {"TECH1": True}}, [], "benchmark weight of TECH1"),
            ({"benchmark": {"TECH1": "0.5"}}, [], "benchmark weight of TECH1"),
        ],
        ids=[
            "budget-null", "lookback_days-str", "risk_free_rate-str", "risk_return_threshold-null",
            "prices-int", "budget-flag-inf", "cardinality-2.9", "period_months-2.5", "budget-true",
            "q-str-inf", "benchmark-weight-str",
            "benchmark-weight-nan", "benchmark-weight-inf", "benchmark-weight-true",
            "benchmark-weight-number-str",
        ],
    )
    def test_bad_config_value_exit_2(self, tmp_path, out_dir, capsys, config, flags, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "benchmark": "TECH1", **config}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert run(["backtest", "--config", cfg, *flags, "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {field} must be [^\n]*\n", err), err

    @pytest.mark.parametrize("command", ["optimize", "backtest", "gen-data"])
    def test_negative_seed_exit_2(self, out_dir, capsys, command):
        argv = [command, "--seed", -5, "--out-dir", out_dir]
        if command == "backtest":
            argv += ["--benchmark", "TECH1"]
        assert run(argv) == 2
        assert "seed must be a non-negative integer, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", 1.9, True])
    def test_non_integer_config_seed_exit_2(self, tmp_path, out_dir, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_non_finite_close_exit_2(self, tmp_path, out_dir, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("date,ticker,close\n2023-01-02,A,10\n2023-01-03,A,inf\n")
        assert run(["optimize", "--seed", 1, "--prices", prices, "--out-dir", out_dir]) == 2
        assert "line 3: non-finite close inf" in capsys.readouterr().err

    @pytest.mark.parametrize("closes, message", [
        # the ratio of closes overflows: the return itself is not finite
        ("1e-300 1e300 1e300", "non-finite simple return for A on 2023-01-03 (close 1e-300 to 1e+300)"),
        # finite returns whose squares overflow the covariance
        ("1e-150 1e150 1e-150", "non-finite covariance for A"),
    ], ids=["return-overflow", "covariance-overflow"])
    def test_non_finite_statistics_exit_2(self, tmp_path, out_dir, capsys, closes, message):
        prices = tmp_path / "prices.csv"
        days = ["2023-01-02", "2023-01-03", "2023-01-04"]
        rows = [f"{d},A,{c}" for d, c in zip(days, closes.split())] + [f"{d},B,{10 + k}" for k, d in enumerate(days)]
        prices.write_text("date,ticker,close\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = run(["optimize", "--seed", 1, "--prices", prices, "--out-dir", out_dir])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_over_long_price_field_exit_2(self, tmp_path, out_dir, capsys):
        limit = csv.field_size_limit()
        prices = tmp_path / "huge.csv"
        prices.write_text("date,ticker,close\n2023-01-02,A,10\n2023-01-03,A," + "9" * (limit + 1) + "\n")
        assert run(["optimize", "--seed", 1, "--prices", prices, "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 3: unreadable CSV record (field larger than field limit ({limit}))\n"

    def test_budget_too_small_exit_1(self, out_dir):
        assert run(["optimize", "--seed", 1, "--budget", 5, "--out-dir", out_dir]) == 1

    @pytest.mark.parametrize("budget, shares", [(35633.7, 3), (35633.69999406105, 2)])
    def test_budget_just_below_whole_shares_does_not_overspend(self, budget, shares, out_dir):
        # 3 x INDU1 at 11,877.90 is 35,633.70; 6e-6 less used to round up to 3 and exit 2
        argv = ["optimize", "--seed", 42, "--cardinality", 1, "--budget", budget, "--out-dir", out_dir]
        assert run(argv) == 0
        result = json.loads((out_dir / "optimize_result.json").read_text())
        assert result["shares"] == {"INDU1": shares}
        assert result["cash"] == pytest.approx(budget - shares * 11877.9, abs=1e-6)

    def test_share_count_past_int64_exit_2(self, tmp_path, out_dir, capsys):
        # 1e15 buys about 1e20 shares at a close of 1e-5: fully_quantum's int64 counts
        # would overflow, while hybrid counts in Python ints and runs
        prices = tmp_path / "prices.csv"
        days = ["2023-01-02", "2023-01-03", "2023-01-04", "2023-01-05"]
        rows = [
            f"{d},{t},{(j + 1) * (1 + (7 * i + 3 * j) % 5 / 100)}e-5" for i, d in enumerate(days) for j, t in enumerate("ABC")
        ]
        prices.write_text("date,ticker,close\n" + "\n".join(rows) + "\n")
        argv = ["optimize", "--seed", 1, "--prices", prices, "--budget", 1e15]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert run([*argv, "--strategy", "fully_quantum", "--out-dir", out_dir]) == 2
            assert capsys.readouterr().err == "error: budget 1000000000000000.0 buys more than 2**62 shares at close 1.01e-05\n"
            assert run([*argv, "--strategy", "hybrid", "--out-dir", tmp_path / "hybrid"]) == 0

    def test_fully_quantum_never_overspends_near_1e11_shares(self, tmp_path, out_dir):
        # 1e6 buys about 5e10 shares at these closes; a sampled start a few 1e-7 over the
        # budget used to win the descent and fail the cash check
        closes = {
            "2024-01-02": (2.714809e-05, 1.067171e-05, 2.459311e-05),
            "2024-01-03": (1.351311e-05, 2.726358e-05, 2.082922e-05),
            "2024-01-04": (1.599424e-05, 1.845374e-05, 1.056639e-05),
            "2024-01-05": (1.248567e-05, 2.341249e-05, 2.294379e-05),
        }
        prices = tmp_path / "prices.csv"
        rows = [f"{d},{t},{c:e}" for d, row in closes.items() for t, c in zip(("AAA", "BBB", "CCC"), row)]
        prices.write_text("date,ticker,close\n" + "\n".join(rows) + "\n")
        last = dict(zip(("AAA", "BBB", "CCC"), closes["2024-01-05"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strategy in ("fully_quantum", "hybrid"):
                argv = ["optimize", "--seed", 1, "--budget", 1e6, "--prices", prices, "--strategy", strategy]
                assert run([*argv, "--out-dir", out_dir / strategy]) == 0
                result = json.loads((out_dir / strategy / "optimize_result.json").read_text())
                assert result["shares"] and result["cash"] >= 0
                assert sum(n * last[t] for t, n in result["shares"].items()) <= 1e6

    @pytest.mark.parametrize("budget", [2e14, 5e14, 9e14, 1e15])
    def test_fully_quantum_fits_the_ledger_up_to_the_budget_cap(self, tmp_path, out_dir, capsys, budget):
        # closes near 0.2 and 0.013 buy over 2**53 shares, where count x close rounds to a float
        # spacing of 0.03 to 0.125: the descent's dot-product spend estimate and the floored
        # relaxation both used to overspend what Holdings charges and exit 2 on negative cash
        matrix = grw_matrix([("A", 0.16, 0.004, 0.02), ("B", 0.011, 0.004, 0.02)], n_days=60, seed=1)
        prices = tmp_path / "prices.csv"
        rows = [f"{d},{t},{c:.4f}" for d, row in zip(matrix.dates, matrix.values) for t, c in zip(matrix.tickers, row)]
        prices.write_text("date,ticker,close\n" + "\n".join(rows) + "\n")
        last = load_prices(prices).prices_at(matrix.dates[-1])
        argv = ["optimize", "--seed", 1, "--prices", prices, "--strategy", "fully_quantum", "--budget", budget]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--out-dir", out_dir]) == 0
        assert capsys.readouterr().err == ""
        result = json.loads((out_dir / "optimize_result.json").read_text())
        spend = sum(result["shares"][t] * last[t] for t in sorted(result["shares"]))
        assert result["shares"] and result["cash"] >= 0 and spend <= budget

    @pytest.mark.parametrize("strategy, q, code, message", [
        ("hybrid", 1e308, 2, "error: q=1e+308 overflows the hybrid objective at these returns and budget; lower q"),
        ("fully_quantum", 1e305, 2,
         "error: q=1e+305 overflows the fully_quantum objective at these returns and budget; lower q"),
        ("hybrid", 1e305, 0, None),
        ("fully_quantum", 1e300, 1, "error: integer-share optimum holds only cash at this risk aversion; lower q"),
    ], ids=["hybrid-overflow", "fully_quantum-overflow", "hybrid-1e305", "fully_quantum-1e300"])
    def test_overflowing_q_exit_2(self, tmp_path, out_dir, capsys, strategy, q, code, message):
        # 2**10 x q x max|Sigma| (x budget for fully_quantum) overflows in the first two, refused
        # before any solve; the last two fit and run as before
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "q": q, "strategy": strategy}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == code
        assert capsys.readouterr().err.splitlines() == ([message] if message else [])

    @pytest.mark.parametrize("rate", [-1e200, -1e20, -1e10])
    def test_far_negative_risk_free_rate_exit_2(self, tmp_path, out_dir, capsys, rate):
        # hybrid's max-Sharpe y* = w / (mu - r)'w held no entry above ZERO_WEIGHT at -1e10 and -1e20
        # (exit 1, "degenerate solution"), and at -1e200 its sums overflowed (a RuntimeWarning)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "risk_free_rate": rate}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["optimize", "--config", cfg, "--out-dir", out_dir]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: risk_free_rate={rate:g} is 1e+06 or more below every expected return")

    @pytest.mark.parametrize("strategy", ["hybrid", "fully_quantum"])
    def test_budget_below_every_close_says_so(self, strategy, out_dir, capsys):
        # the cheapest bundled close is 2,199.41; a lower q cannot help
        argv = ["optimize", "--seed", 1, "--strategy", strategy, "--budget", 60, "--out-dir", out_dir]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "budget 60.0 too small to buy any share" in err and "lower q" not in err


class TestBacktestCommand:
    def test_quarterly_on_bundled_data(self, out_dir):
        assert run([
            "backtest", "--seed", 42, "--benchmark", "TECH1", "--out-dir", out_dir,
        ]) == 0
        report = json.loads((out_dir / "backtest_report.json").read_text())
        assert len(report["events"]) == 4
        csv_lines = (out_dir / "backtest_plot.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "date,algo_value,bench_value"
        assert len(csv_lines) == len(report["dates"]) + 1

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["backtest", "--seed", 9, "--benchmark", "TECH1", "--out-dir", d]) == 0
        assert (a / "backtest_report.json").read_bytes() == (b / "backtest_report.json").read_bytes()
        assert (a / "backtest_plot.csv").read_bytes() == (b / "backtest_plot.csv").read_bytes()

    @pytest.mark.parametrize("strategy", ["hybrid", "fully_quantum"])
    def test_sampler_echo_is_the_schedule_that_ran(self, monkeypatch, out_dir, strategy):
        ran = []

        def spy(m, schedule, seed):
            ran.append((schedule.sweeps, schedule.restarts))
            return simulated_anneal(m, schedule, seed)

        monkeypatch.setattr(pipeline, "simulated_anneal", spy)
        assert run([
            "backtest", "--seed", 42, "--budget", 100000, "--benchmark", "TECH1",
            "--strategy", strategy, "--out-dir", out_dir,
        ]) == 0
        echo = json.loads((out_dir / "backtest_report.json").read_text())["config"]["pipeline"]["sampler"]
        assert ran and set(ran) == {(echo["sweeps"], echo["restarts"])}

    def test_oversized_period_warns_and_succeeds(self, out_dir):
        assert run([
            "backtest", "--seed", 3, "--benchmark", "TECH1",
            "--period-months", 14, "--out-dir", out_dir,
        ]) == 0
        report = json.loads((out_dir / "backtest_report.json").read_text())
        assert report["events"] == []
        # in a process of its own, where main's logging setup writes to stderr: the
        # library's log line is the one warning
        cli = subprocess.run(
            [sys.executable, "-m", "annealfolio", "backtest", "--seed", "3", "--benchmark", "TECH1",
             "--period-months", "14", "--out-dir", str(out_dir)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(annealfolio.__file__).parents[1])},
        )
        assert cli.returncode == 0
        [line] = cli.stderr.splitlines()
        assert line.startswith("WARNING annealfolio.rebalance: no rebalance boundary falls inside the data range")

    def test_fully_quantum_paper_scale(self, out_dir):
        assert run([
            "backtest", "--seed", 42, "--strategy", "fully_quantum", "--budget", 1_000_000,
            "--benchmark", "TECH1", "--out-dir", out_dir,
        ]) == 0
        report = json.loads((out_dir / "backtest_report.json").read_text())
        initial = report["initial"]
        closes = load_prices(bundled_prices_path()).prices_at(date.fromisoformat(initial["as_of"]))
        spend = sum(count * closes[t] for t, count in initial["shares"].items())
        assert spend + initial["cash"] == pytest.approx(1_000_000.0, abs=1e-6)
        shares, cash = dict(initial["shares"]), initial["cash"]
        assert len(report["events"]) == 4 and any(e["bought"] for e in report["events"])
        for e in report["events"]:
            proceeds = sum(v["proceeds"] for v in e["sold"].values())
            cost = sum(v["cost"] for v in e["bought"].values())
            assert e["new_budget"] == pytest.approx(proceeds + cash, abs=1e-6)
            assert proceeds + cash == pytest.approx(cost + e["cash_after"], abs=1e-6)
            assert e["cash_after"] >= 0.0
            for t, v in e["sold"].items():
                assert shares.pop(t) == v["shares"]
            for t, v in e["bought"].items():
                shares[t] = shares.get(t, 0) + v["shares"]
            cash = e["cash_after"]

    @pytest.mark.parametrize("strategy", ["hybrid", "fully_quantum"])
    def test_pooled_budget_above_the_cap_holds_cash(self, tmp_path, out_dir, capsys, strategy):
        # the gen-data market of seed 4 gains enough over 1000 days that reviews pool more than
        # the 1e15 budget cap; they used to exit 2 on the config check of the repurchase budget
        data = tmp_path / "data"
        assert run(["gen-data", "--seed", 4, "--days", 1000, "--out-dir", data]) == 0
        argv = ["backtest", "--seed", 1, "--budget", 1e15, "--benchmark", "TECH1", "--strategy", strategy,
                "--prices", data / "synthetic_prices.csv", "--sectors", data / "synthetic_sectors.csv"]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--out-dir", out_dir]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out_dir / "backtest_report.json").read_text())
        held = [e for e in report["events"] if "above the 1e+15 budget cap, holding cash" in e["note"]]
        assert held and all(e["new_budget"] > 1e15 and not e["bought"] for e in held)
        cash = report["initial"]["cash"]
        for e in report["events"]:
            proceeds = sum(v["proceeds"] for v in e["sold"].values())
            cost = sum(v["cost"] for v in e["bought"].values())
            assert e["new_budget"] == proceeds + cash
            assert e["cash_after"] == (e["new_budget"] if e in held else pytest.approx(e["new_budget"] - cost, abs=1.0))
            cash = e["cash_after"]

    def test_lookback_beyond_first_review_exit_2(self, tmp_path, out_dir, capsys):
        # the first review (2023-04-03) has 65 daily returns behind it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 42, "benchmark": "TECH1", "lookback_days": 500}))
        assert run(["backtest", "--config", cfg, "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert err == "error: insufficient history: need 500 daily returns up to 2023-04-03, have 65\n"
        assert not (out_dir / "backtest_report.json").exists()

    def test_missing_benchmark_exit_2(self, out_dir):
        assert run(["backtest", "--seed", 3, "--out-dir", out_dir]) == 2

    def test_sector_file_missing_a_ticker_exit_2(self, tmp_path, out_dir, capsys):
        lines = Path(bundled_sectors_path()).read_text().splitlines(keepends=True)
        partial = tmp_path / "sectors.csv"
        partial.write_text("".join(l for l in lines if not l.startswith(("FINA1,", "TELE1,"))))
        assert run([
            "backtest", "--seed", 42, "--benchmark", "TECH1", "--sectors", partial, "--out-dir", out_dir,
        ]) == 2
        assert "no sector recorded for ticker 'FINA1'" in capsys.readouterr().err
        assert not (out_dir / "backtest_report.json").exists()

    def test_over_long_sector_field_exit_2(self, tmp_path, out_dir, capsys):
        limit = csv.field_size_limit()
        sectors = tmp_path / "huge.csv"
        sectors.write_text('ticker,sector\nTECH1,Tech\nENRG1,"' + "x" * (limit + 1) + '"\n')
        assert run([
            "backtest", "--seed", 1, "--benchmark", "TECH1", "--sectors", sectors, "--out-dir", out_dir,
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 3: unreadable CSV record (field larger than field limit ({limit}))\n"
        assert not (out_dir / "backtest_report.json").exists()

    def test_weights_file_benchmark(self, tmp_path, out_dir):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"TECH1": 50, "ENRG1": 50}))
        assert run([
            "backtest", "--seed", 3, "--benchmark", bench, "--out-dir", out_dir,
        ]) == 0
        report = json.loads((out_dir / "backtest_report.json").read_text())
        assert report["config"]["benchmark"] == {"ENRG1": 0.5, "TECH1": 0.5}


class TestRowOrder:
    """Reordering the rows of a price file changes no artifact. The file as written
    is read by reshape and a reordered one record by record, so this checks both end to end."""

    @pytest.mark.parametrize("order", ["shuffled", "ticker-major"])
    @pytest.mark.parametrize("argv", [
        ["optimize", "--seed", 42, "--strategy", "hybrid"],
        ["optimize", "--seed", 42, "--strategy", "fully_quantum", "--budget", 100000],
        ["backtest", "--seed", 42, "--strategy", "hybrid", "--budget", 100000, "--benchmark", "TECH1"],
    ])
    def test_reordered_rows_write_the_same_bytes(self, tmp_path, argv, order):
        assert run(["gen-data", "--out-dir", tmp_path, "--seed", 3]) == 0
        plain, reordered = tmp_path / "synthetic_prices.csv", tmp_path / "reordered.csv"
        header, *body = plain.read_text().splitlines()
        if order == "shuffled":
            body = [body[i] for i in np.random.default_rng(26).permutation(len(body))]
        else:  # per-ticker exports joined: by ticker ([1]), then date ([0])
            body.sort(key=lambda row: row.split(",")[1::-1])
        reordered.write_text("\n".join([header] + body) + "\n")
        columns = [_read_csv(p, ("date", "ticker", "close"))[1] for p in (plain, reordered)]
        assert _grid(*columns[0]) is not None and _grid(*columns[1]) is None
        artifacts = []
        for prices in (plain, reordered):
            out = tmp_path / prices.stem
            argv_here = [*argv, "--prices", prices, "--sectors", tmp_path / "synthetic_sectors.csv", "--out-dir", out]
            assert run(argv_here) == 0
            artifacts.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert artifacts[0] and artifacts[0] == artifacts[1]


class TestReportCommand:
    def test_fixture_renders_table(self, capsys):
        assert run(["report", sample_comparison_path()]) == 0
        out = capsys.readouterr().out
        weight_col = []
        for line in out.splitlines():
            m = re.match(r"^(.*?)\s{2,}([\d.]+)\s+([\d.]+)\s*$", line)
            if m and m.group(1) not in ("Returns", "Risk", "Sharpe Ratio", "Diversification Ratio"):
                weight_col.append(float(m.group(2)))
        assert sum(weight_col) == pytest.approx(99.99, abs=1e-9)
        for row in ("Returns", "Risk", "Sharpe Ratio", "Diversification Ratio"):
            assert row in out
        assert "2.55" in out and "1.65" in out

    def test_report_on_optimize_output(self, out_dir, capsys):
        run(["optimize", "--seed", 42, "--out-dir", out_dir])
        capsys.readouterr()
        assert run(["report", out_dir / "optimize_result.json"]) == 0
        assert "Sharpe Ratio" in capsys.readouterr().out

    def test_report_on_backtest_output(self, out_dir, capsys):
        run(["backtest", "--seed", 42, "--benchmark", "TECH1", "--out-dir", out_dir])
        capsys.readouterr()
        assert run(["report", out_dir / "backtest_report.json"]) == 0
        assert "Final Value" in capsys.readouterr().out

    def test_empty_weights_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"metrics": {"weights": {}}}))
        assert run(["report", bad]) == 2

    @pytest.mark.parametrize(
        "result",
        [
            {"metrics": 5},
            {"final": 5},
            {"final": {"algo": 1}},
            {"metrics": {"weights": [1]}},
            {"metrics": {"weights": {"A": "x"}}},
            {"metrics": {"weights": {"A": 50}, "sharpe": "hi"}},
            {"metrics": {"weights": {"A": 100}}, "benchmark": 3},
            # wrong types that format anyway: a bool as 1.00, a string's length as the event count
            {"metrics": {"weights": {"A": True}}},
            {"final": {"algo": 1, "bench": 2}, "events": "abc"},
            {"final": {"algo": 1.5, "bench": False}, "events": []},
            {"metrics": {"weights": {"A": 100}}, "benchmark": {"metrics": {"weights": {"A": True}}}},
            {"metrics": {"weights": {"A": 100}, "sharpe": True}},
            {"metrics": {"weights": {"A": 100}}, "benchmark": {"metrics": {"weights": {"A": 100}, "risk_pct": False}}},
        ],
    )
    def test_wrong_shape_exit_2(self, tmp_path, capsys, result):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(result))
        assert run(["report", bad]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: result file {bad} ")

    def test_missing_metric_renders_dash(self, tmp_path, capsys):
        result = tmp_path / "result.json"
        result.write_text(json.dumps({"metrics": {"weights": {"A": 100}, "sharpe": None, "risk_pct": 2}}))
        assert run(["report", result]) == 0
        rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()[2:] if "-" * 5 not in line)
        assert rows["A"] == "100.00" and rows["Risk"] == "2.00"
        assert rows["Sharpe Ratio"] == rows["Returns"] == rows["Diversification Ratio"] == "-"

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run(["report", bad]) == 2

    def test_missing_file_exit_2(self):
        assert run(["report", "/nope/result.json"]) == 2

    def test_human_numbers_match_json(self, out_dir, capsys):
        run(["optimize", "--seed", 42, "--out-dir", out_dir])
        capsys.readouterr()
        result = json.loads((out_dir / "optimize_result.json").read_text())
        table = render_comparison(result)
        assert f"{result['metrics']['sharpe']:.2f}" in table
        assert f"{result['metrics']['return_pct']:.2f}" in table


class TestGenData:
    def test_regeneration_matches_bundled(self, tmp_path):
        assert run(["gen-data", "--out-dir", tmp_path]) == 0
        regenerated = (tmp_path / "synthetic_prices.csv").read_bytes()
        assert regenerated == Path(bundled_prices_path()).read_bytes()
        sectors = (tmp_path / "synthetic_sectors.csv").read_bytes()
        assert sectors == Path(bundled_sectors_path()).read_bytes()

    @pytest.mark.parametrize("days", [-5, 0, 1, 2])
    def test_bad_days_exit_2(self, tmp_path, capsys, days):
        out = tmp_path / "out"
        assert run(["gen-data", "--out-dir", out, "--days", days]) == 2
        assert f"days must be an integer >= 3, got {days}" in capsys.readouterr().err
        assert not out.exists()

    def test_last_day_9999_12_31(self, tmp_path, capsys):
        # 9999-12-01 is a Wednesday: 23 weekdays reach 9999-12-31, a Friday, and one more is refused
        # by arithmetic, before any closes are drawn and before the output directory is made
        assert run(["gen-data", "--out-dir", tmp_path / "ok", "--start", "9999-12-01", "--days", 23]) == 0
        assert (tmp_path / "ok" / "synthetic_prices.csv").read_text().splitlines()[-1].startswith("9999-12-31,")
        capsys.readouterr()
        out = tmp_path / "past"
        assert run(["gen-data", "--out-dir", out, "--start", "9999-12-01", "--days", 24]) == 2
        assert capsys.readouterr().err == "error: 24 business days from 9999-12-01 run past 9999-12-31\n"
        assert not out.exists()

    def test_custom_seed_differs(self, tmp_path):
        assert run(["gen-data", "--out-dir", tmp_path, "--seed", 1]) == 0
        assert (tmp_path / "synthetic_prices.csv").read_bytes() != Path(
            bundled_prices_path()
        ).read_bytes()


class TestEnvDefaults:
    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANNEALFOLIO_OUT_DIR", str(tmp_path / "envout"))
        assert run(["optimize", "--seed", 42]) == 0
        assert (tmp_path / "envout" / "optimize_result.json").exists()


class TestReadme:
    def test_config_table_lists_exactly_the_accepted_keys(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = text[text.index("| key | owner | default | value |"):].split("\n\n", 1)[0]
        documented = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.M)
        accepted = _CONFIG_KEYS | {f"sampler.{k}" for k in _SAMPLER_KEYS}
        assert sorted(documented) == sorted(accepted)
