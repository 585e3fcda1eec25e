"""Command-line entry point.

Subcommands: ``optimize`` (build one portfolio), ``backtest`` (rebalancing
simulation against a benchmark), ``report`` (render a result JSON as a
comparison table) and ``gen-data`` (regenerate the synthetic dataset).

``optimize`` and ``backtest`` read one dict of settings keyed by config
name: the CLI's own defaults (budget 1e6, the bundled price and sector
files, ``$ANNEALFOLIO_OUT_DIR`` or ``.``), then the JSON config file, then
the flags that were given; later sources win. The CLI itself reads only
the file paths, the benchmark and the date range. Every other key goes to
the library dataclass that owns it (``PipelineConfig``, ``RebalancePolicy``,
and ``AnnealSchedule`` for the ``sampler`` object), and only the keys that
are set are passed, so those dataclasses hold the defaults, check the
values and echo them. A seed is mandatory so every run is reproducible.
Exit codes: 0 success, 1 runtime/solver failure, 2 input/config failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import numbers
import os
import sys
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np

from .allocator import WeightVector
from .data import bundled_prices_path, bundled_sectors_path
from .errors import InputError, SolverError, check_field
from .marketdata import _parse_day, load_prices, load_sectors
from .pipeline import PipelineConfig, run_pipeline
from .rebalance import RebalancePolicy, layout_json, run_backtest
from .sampler import AnnealSchedule
from . import synthetic

OUT_DIR_ENV = "ANNEALFOLIO_OUT_DIR"

# config keys of each dataclass that owns them, named as its fields; the "sampler" object
# builds PipelineConfig.sampler
_OWNED_KEYS = {
    owner: {f.name for f in fields(owner) if f.name != "sampler"} for owner in (PipelineConfig, RebalancePolicy)
}
_CONFIG_KEYS = {k for keys in _OWNED_KEYS.values() for k in keys} | {
    "prices", "sectors", "out_dir", "benchmark", "start", "end", "sampler",
}
_SAMPLER_KEYS = {f.name for f in fields(AnnealSchedule)}


def _parse_date(value) -> date | None:
    if value is None:
        return None
    day = _parse_day(str(value))
    if day is None:
        raise InputError(f"bad date {value!r} (expected YYYY-MM-DD)")
    return day


def _read_json_object(path, what: str) -> dict:
    if not Path(path).exists():
        raise InputError(f"{what} not found: {path}")
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{what} {path} must hold a JSON object")
    return data


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    data = _read_json_object(path, "config file")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return data


def build_run_config(args: argparse.Namespace) -> tuple[dict, PipelineConfig, RebalancePolicy]:
    """The merged settings, with the pipeline config and rebalance policy built from them."""
    settings = {
        "budget": 1_000_000.0,
        "prices": bundled_prices_path(),
        "sectors": bundled_sectors_path(),
        "out_dir": os.environ.get(OUT_DIR_ENV) or ".",
    }
    settings.update(_load_config_file(args.config))
    settings.update((k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None)
    if "seed" not in settings:
        raise InputError("a seed is required (set --seed or the 'seed' config field)")
    for key in ("prices", "sectors", "out_dir"):
        check_field(key, settings[key], str)
    for label, key in (("price", "prices"), ("sector", "sectors")):
        if not Path(settings[key]).exists():
            raise InputError(f"{label} file not found: {settings[key]}")
    for key in ("start", "end"):
        settings[key] = _parse_date(settings.get(key))
    sampler = settings.get("sampler", {})
    if not isinstance(sampler, dict):
        raise InputError("the 'sampler' config field must be a JSON object")
    unknown = set(sampler) - _SAMPLER_KEYS
    if unknown:
        raise InputError(f"unknown sampler keys: {sorted(unknown)}")

    def owned(owner) -> dict:
        return {k: settings[k] for k in _OWNED_KEYS[owner] if k in settings}

    # a null sampler key is left unset, so it takes AnnealSchedule's default
    schedule = AnnealSchedule(**{k: v for k, v in sampler.items() if v is not None})
    cfg = PipelineConfig(**owned(PipelineConfig), sampler=schedule)
    return settings, cfg, RebalancePolicy(**owned(RebalancePolicy))


def _resolve_benchmark(spec, tickers) -> WeightVector | str:
    """Benchmark spec: a ticker symbol, a weights JSON path, or an inline map."""
    if spec is None:
        raise InputError("backtest needs a benchmark (ticker symbol or weights file)")
    if isinstance(spec, dict):
        return _weights_from_mapping(spec)
    spec = str(spec)
    if Path(spec).exists():
        return _weights_from_mapping(_read_json_object(spec, "benchmark weights file"))
    if spec in tickers:
        return spec
    raise InputError(f"benchmark {spec!r} is neither a known ticker nor an existing weights file")


def _weights_from_mapping(data: dict) -> WeightVector:
    if not data:
        raise InputError("benchmark weights are empty")
    tickers = sorted(data)
    vals = np.array([check_field(f"benchmark weight of {t}", data[t], float) for t in tickers])
    if np.any(vals < 0) or vals.sum() <= 0:
        raise InputError("benchmark weights must be nonnegative with a positive sum")
    return WeightVector(tuple(tickers), vals / vals.sum())


# ---------------------------------------------------------------------------
# report rendering

_METRIC_ROWS = (
    ("Returns", "return_pct"),
    ("Risk", "risk_pct"),
    ("Sharpe Ratio", "sharpe"),
    ("Diversification Ratio", "diversification_ratio"),
)


def _cell(value, what: str) -> str:
    """``value`` as a 12-wide cell to 2 decimals; InputError unless it is a real number, never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {type(value).__name__}")
    return f"{value:>12.2f}"


def render_comparison(result: dict) -> str:
    """Text table of per-asset weight percentages plus the four metric rows.

    Every weight and metric (None shows as ``-``) and final value must be a
    real number, never a bool, and ``events`` a list; else InputError.
    """
    if "metrics" in result:
        algo = result["metrics"]
        bench = (result.get("benchmark") or {}).get("metrics")
        return _render_weight_table(algo, bench)
    if "final" in result:
        final, events = result["final"], result.get("events", [])
        if not isinstance(events, list):
            raise InputError(f"events must be a list, got {type(events).__name__}")
        lines = [
            f"{'':24}{'Algorithm':>12}{'Benchmark':>12}",
            f"{'Final Value':<24}{_cell(final['algo'], 'final algo')}{_cell(final['bench'], 'final bench')}",
            f"{'Rebalance Events':<24}{len(events):>12}",
        ]
        return "\n".join(lines)
    raise InputError("result JSON has neither pipeline metrics nor a backtest summary")


def _render_weight_table(algo: dict, bench: dict | None) -> str:
    weights = algo.get("weights") or {}
    if not weights:
        raise InputError("result carries no weights to report")
    bench_weights = (bench or {}).get("weights") or {}
    names = sorted(set(weights) | set(bench_weights))
    width = max(len("Diversification Ratio"), max(len(n) for n in names)) + 2

    def fmt(value, what: str) -> str:
        return _cell(value, what) if value is not None else f"{'-':>12}"

    header = f"{'Name':<{width}}{'Algorithm':>12}"
    if bench is not None:
        header += f"{'Benchmark':>12}"
    lines = [header, "-" * len(header)]
    for n in names:
        row = f"{n:<{width}}{fmt(weights.get(n), f'weight of {n!r}')}"
        if bench is not None:
            row += fmt(bench_weights.get(n), f"benchmark weight of {n!r}")
        lines.append(row)
    lines.append("-" * len(header))
    for label, key in _METRIC_ROWS:
        row = f"{label:<{width}}{fmt(algo.get(key), key)}"
        if bench is not None:
            row += fmt(bench.get(key), f"benchmark {key}")
        lines.append(row)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_optimize(args: argparse.Namespace) -> int:
    settings, cfg, _ = build_run_config(args)
    prices = load_prices(settings["prices"])
    result = run_pipeline(prices, cfg)
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "optimize_result.json").write_text(layout_json(result) + "\n", encoding="utf-8")
    table = render_comparison(result)
    (out_dir / "optimize_result.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    print(f"\nwrote {out_dir / 'optimize_result.json'}")
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    settings, cfg, policy = build_run_config(args)
    prices = load_prices(settings["prices"])
    sectors = load_sectors(settings["sectors"])
    benchmark = _resolve_benchmark(settings.get("benchmark"), prices.tickers)
    report = run_backtest(
        prices,
        sectors,
        cfg.budget,
        cfg,
        policy,
        benchmark,
        start=settings["start"],
        end=settings["end"],
    )
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report_json, plot_csv = report.artifacts()
    (out_dir / "backtest_report.json").write_text(report_json, encoding="utf-8")
    (out_dir / "backtest_plot.csv").write_text(plot_csv, encoding="utf-8")
    print(
        f"final value  algorithm {report.final_algo:.2f}  benchmark {report.final_bench:.2f}  "
        f"({len(report.events)} rebalance events)"
    )
    print(f"wrote {out_dir / 'backtest_report.json'} and {out_dir / 'backtest_plot.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    result = _read_json_object(args.result, "result file")
    try:
        print(render_comparison(result))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # InputError, or a field of the wrong type
        what = f"{type(exc).__name__}: {exc}"
        raise InputError(f"result file {args.result} is not an optimize or backtest result ({what})") from None
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    seed = synthetic.DEFAULT_SEED if args.seed is None else check_field("seed", args.seed, int, low=0)
    # optimize needs at least two returns, so three closes
    days = synthetic.DEFAULT_DAYS if args.days is None else check_field("days", args.days, int, low=3)
    start = _parse_date(args.start) or synthetic.DEFAULT_START
    matrix, sectors = synthetic.generate_dataset(seed=seed, n_days=days, start=start)
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    prices_path = out_dir / "synthetic_prices.csv"
    sectors_path = out_dir / "synthetic_sectors.csv"
    prices_path.write_text(synthetic.prices_to_csv(matrix), encoding="utf-8")
    sectors_path.write_text(synthetic.sectors_to_csv(sectors), encoding="utf-8")
    print(f"wrote {prices_path} and {sectors_path} (seed {seed}, {days} trading days)")
    return 0


# ---------------------------------------------------------------------------
# parser


def _auto_or(kind):
    """Flag type: the text ``auto`` as it is, anything else converted by ``kind``."""

    def convert(text: str):
        return text if text == "auto" else kind(text)

    convert.__name__ = kind.__name__  # argparse names the type in its error
    return convert


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealfolio",
        description="Annealing-based asset selection, Sharpe-ratio allocation, and rebalancing backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--prices", help="price CSV (date,ticker,close); default: bundled dataset")
        p.add_argument("--sectors", help="sector CSV (ticker,sector); default: bundled dataset")
        p.add_argument("--budget", type=float, help="investment budget")
        p.add_argument("--strategy", choices=["hybrid", "fully_quantum"])
        p.add_argument("--seed", type=int, help="random seed (required here or in the config)")
        p.add_argument("--out-dir", dest="out_dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")
        p.add_argument("--cardinality", type=_auto_or(int), help="number of assets to select, or 'auto'")
        p.add_argument("--q", type=float, help="risk aversion coefficient")
        p.add_argument("--period-months", dest="period_months", type=int, help="rebalance cadence")
        p.add_argument("--benchmark", help="benchmark ticker or weights JSON path (backtest)")

    p_opt = sub.add_parser("optimize", help="construct a portfolio and report its weights/metrics")
    add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_bt = sub.add_parser("backtest", help="run the rebalancing backtest against a benchmark")
    add_common(p_bt)
    p_bt.set_defaults(func=cmd_backtest)

    p_rep = sub.add_parser("report", help="render a result JSON as a comparison table")
    p_rep.add_argument("result", help="path to a result JSON from optimize or backtest")
    p_rep.set_defaults(func=cmd_report)

    p_gen = sub.add_parser("gen-data", help="regenerate the synthetic dataset")
    p_gen.add_argument("--out-dir", dest="out_dir", help="where to write the CSVs")
    p_gen.add_argument("--seed", type=int, help=f"generator seed (default {synthetic.DEFAULT_SEED})")
    p_gen.add_argument("--days", type=int, help=f"trading days (default {synthetic.DEFAULT_DAYS})")
    p_gen.add_argument("--start", help=f"first calendar date (default {synthetic.DEFAULT_START})")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
