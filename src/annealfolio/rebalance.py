"""Quarterly rebalancing backtester.

The strategy portfolio is bought at the start date, marked to market
daily, and reviewed every ``period_months``: held names with weak trailing
returns or elevated volatility are sold at the close, and the proceeds
(pooled with residual cash) are reinvested in same-sector replacements.
Both purchases are :func:`pipeline.buy`: the opening one raises
SolverError when it buys nothing, as ``run_pipeline`` does; a repurchase
asks it for as many names as were sold, and one that buys nothing, fails
in the solver or would spend more than ``pipeline.MAX_BUDGET`` leaves the
proceeds in cash with a note on the event. Each purchase screens q and,
for hybrid, ``risk_free_rate`` against the statistics it is given, as
``buy`` documents, and a refusal raises InputError at the opening or at
a review alike.
A buy-and-hold benchmark runs alongside for comparison.

Estimation windows: every purchase, the opening one and each repurchase,
estimates from the returns on or before its own date, a prefix of the one
returns series of the whole price range. An opening purchase with fewer
than two such returns (a start on the first or second price date) is the
one exception: it estimates over the full series, which reproduces the
usual single-period experiment design.
"""

from __future__ import annotations

import calendar
import logging
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from datetime import date
from json.encoder import encode_basestring_ascii
from typing import Callable, Mapping, Sequence

import numpy as np

from .allocator import WeightVector
from .errors import InputError, SolverError, check_field
from .marketdata import (
    AssetStats,
    PriceMatrix,
    ReturnsMatrix,
    SectorMap,
    compute_returns,
    estimate_stats,
)
from .pipeline import MAX_BUDGET, Holdings, PipelineConfig, buy, portfolio_value, to_shares

# Unused here; perfbench/tracer.py requires these names at this import site.
from .allocator import max_sharpe_weights
from .pipeline import optimize_integer_shares, select_assets

log = logging.getLogger(__name__)

StatsProvider = Callable[[Sequence[str]], AssetStats]

# json.dumps's spelling of the constants and of the non-finite float reprs
_JSON_WORDS = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class RebalancePolicy:
    """Review cadence and the rules that flag a holding as risky.

    A held name is flagged when its trailing mean daily return is at or
    below ``risk_return_threshold``, or when its trailing volatility lies
    strictly above the ``risk_vol_quantile`` quantile of the held names'
    trailing volatilities (strict, so a quantile of 1.0 disables the
    volatility rule and exact ties never flag). The quantile is numpy's
    default ``linear`` method, Hyndman & Fan (1996) type 7.
    """

    period_months: int = 3
    risk_return_threshold: float = 0.0
    risk_vol_quantile: float = 0.8
    lookback_days: int = 63

    def __post_init__(self):
        for name, *rule in (
            ("period_months", int, 1),
            ("risk_return_threshold", float),
            ("risk_vol_quantile", float, 0, 1),
            ("lookback_days", int, 2),
        ):
            object.__setattr__(self, name, check_field(name, getattr(self, name), *rule))


@dataclass(frozen=True)
class RebalanceEvent:
    """One review: what was sold, what was bought, and with what budget.

    ``new_budget`` pools sale proceeds with the cash held before the event;
    ``cash_after`` is what remains once the purchases settle, so
    proceeds + prior cash = cost + cash_after at every event.
    """

    date: date
    sold: dict[str, tuple[int, float]]
    bought: dict[str, tuple[int, float]]
    new_budget: float
    universe_used: tuple[str, ...]
    cash_after: float = 0.0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "date": self.date.isoformat(),
            "sold": {t: {"shares": s, "proceeds": p} for t, (s, p) in sorted(self.sold.items())},
            "bought": {t: {"shares": s, "cost": c} for t, (s, c) in sorted(self.bought.items())},
            "new_budget": self.new_budget,
            "universe_used": list(self.universe_used),
            "cash_after": self.cash_after,
            "note": self.note,
        }


@dataclass(frozen=True)
class HealthReport:
    """Per-asset trailing statistics plus portfolio-level state at a review."""

    as_of: date
    asset_stats: dict[str, tuple[float, float]]  # ticker -> (mean daily return, daily vol)
    flagged: tuple[str, ...]
    value: float
    profit: float | None


@dataclass(frozen=True)
class BacktestReport:
    dates: tuple[date, ...]
    algo_values: tuple[float, ...]
    bench_values: tuple[float, ...]
    events: tuple[RebalanceEvent, ...]
    final_algo: float
    final_bench: float
    config_echo: dict
    initial_holdings: dict | None = None

    def artifacts(self) -> tuple[str, str]:
        """The backtest_report.json and backtest_plot.csv texts, each date and value formatted once."""
        days = [d.isoformat() for d in self.dates]
        algo, bench = [list(map(float.__repr__, v)) for v in (self.algo_values, self.bench_values)]
        csv = "\n".join(["date,algo_value,bench_value", *map(",".join, zip(days, algo, bench))]) + "\n"
        json_float = _JSON_WORDS.get  # json's NaN and Infinity for repr's nan and inf
        report = {"dates": _Texts(map(encode_basestring_ascii, days)), "algo": _Texts(map(json_float, algo, algo)),
                  "bench": _Texts(map(json_float, bench, bench)), "events": [e.to_dict() for e in self.events],
                  "final": {"algo": self.final_algo, "bench": self.final_bench},
                  "initial": self.initial_holdings, "config": self.config_echo}
        return layout_json(report) + "\n", csv


class _Texts(list):
    """A list whose items are already JSON texts."""


def layout_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of str-keyed dicts, lists, tuples and scalars, one ``str.join``
    a container (json.dumps indents in pure Python before 3.13). ``pad`` precedes ``obj``'s closing bracket."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        return _JSON_WORDS.get(text := float.__repr__(obj), text)
    if obj is None or obj is True or obj is False:
        return _JSON_WORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(k)}: {layout_json(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = obj if type(obj) is _Texts else [layout_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def add_months(d: date, months: int) -> date | None:
    """Calendar-month shift, clamping the day into the target month; None past 9999-12-31."""
    total = d.month - 1 + months
    year = d.year + total // 12
    if year > date.max.year:
        return None
    month = total % 12 + 1
    day = min(d.day, calendar.monthrange(year, month)[1])
    return date(year, month, day)


def _history_end(returns: ReturnsMatrix, as_of: date, lookback: int) -> int:
    """How many returns fall on or before ``as_of``; InputError when fewer than ``lookback``."""
    end = bisect_right(returns.dates, as_of)
    if end < lookback:
        raise InputError(
            f"insufficient history: need {lookback} daily returns up to {as_of}, have {end}"
        )
    return end


def _book_values(h: Holdings, prices: PriceMatrix, lo: int, hi: int) -> list[float]:
    """Values of book ``h`` on price rows lo..hi-1, as :func:`portfolio_value` gives them.

    Cash heads a column of each held ticker's shares x close, added down in
    ticker order by one reduction along the outer axis. numpy adds such a
    reduction a row at a time only while each row has two or more lanes (a
    lone lane is summed pairwise), hence the spare lane when hi - lo = 1.
    """
    held = h.held_tickers()
    cols = [prices.tickers.index(t) for t in held]
    terms = np.zeros((1 + len(held), max(hi - lo, 2)))
    terms[0] = h.cash
    shares = np.array([h.shares[t] for t in held], dtype=float)
    terms[1:, : hi - lo] = prices.values[lo:hi, cols].T * shares[:, None]
    return np.add.reduce(terms, axis=0)[: hi - lo].tolist()


def _trailing_stats(
    returns: ReturnsMatrix, held: Sequence[str], as_of: date, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and volatility (ddof 1) of each held ticker's last ``lookback`` returns up to ``as_of``."""
    end = _history_end(returns, as_of, lookback)
    cols = []
    for t in held:
        if t not in returns.tickers:
            raise InputError(f"no return history for held ticker {t!r}")
        cols.append(returns.tickers.index(t))
    data = returns.values[end - lookback:end, cols]
    return data.mean(axis=0), data.std(axis=0, ddof=1)


def _linear_quantile(values: np.ndarray, q: float) -> float:
    """``float(np.quantile(values, q))`` on volatilities (never -0.0): numpy's default
    ``linear`` method (Hyndman & Fan type 7), by the same arithmetic, bit for bit."""
    s = np.sort(values).tolist()
    v = (len(s) - 1) * q
    # numpy reads index -1 on both sides (so t = v + 1) at the top, and when a NaN (sorted last) is present
    lo, hi = (int(v), int(v) + 1) if v < len(s) - 1 and s[-1] == s[-1] else (-1, -1)
    a, b, t = s[lo], s[hi], v - lo
    # numpy's _lerp: the two forms differ in the last bit, which decides a tie with b
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def health_check(
    holdings: Holdings,
    prices_at: Mapping[str, float],
    returns: ReturnsMatrix,
    policy: RebalancePolicy,
    as_of: date,
    initial_value: float | None = None,
) -> HealthReport:
    """Trailing mean/vol per held asset, the flagged set, value, and profit.

    ``prices_at`` is the review day's ticker -> close mapping, as
    ``PriceMatrix.prices_at(as_of)`` returns it.
    """
    held = holdings.held_tickers()
    stats: dict[str, tuple[float, float]] = {}
    flagged: tuple[str, ...] = ()
    if held:
        means, vols = _trailing_stats(returns, held, as_of, policy.lookback_days)
        stats = {t: (float(mu), float(vol)) for t, mu, vol in zip(held, means, vols)}
        vol_cut = _linear_quantile(vols, policy.risk_vol_quantile)
        flagged = tuple(
            t
            for t, mu, vol in zip(held, means, vols)
            if mu <= policy.risk_return_threshold or vol > vol_cut
        )
    value = portfolio_value(holdings, prices_at)
    profit = None if initial_value is None else value - initial_value
    return HealthReport(as_of, stats, flagged, value, profit)


def _candidate_universe(
    flagged: Sequence[str],
    held: Sequence[str],
    universe: Sequence[str],
    sectors: SectorMap,
) -> tuple[tuple[str, ...], bool]:
    """Same-sector replacements first; widen to the full universe if too thin.

    Too thin means fewer candidates than names to replace, or a sold
    sector that supplies no candidate.
    """
    sold_sectors = {sectors.sector_of(t) for t in flagged}
    excluded = set(flagged) | set(held)
    in_sector = tuple(
        t for t in sorted(universe) if t not in excluded and sectors.sector_of(t) in sold_sectors
    )
    if len(in_sector) >= len(flagged) and {sectors.sector_of(t) for t in in_sector} == sold_sectors:
        return in_sector, False
    widened = tuple(t for t in sorted(universe) if t not in excluded)
    return widened, True


def rebalance_step(
    holdings: Holdings,
    flagged: set[str] | Sequence[str],
    prices_at: Mapping[str, float],
    sectors: SectorMap,
    stats_provider: StatsProvider,
    cfg: PipelineConfig,
    as_of: date,
) -> tuple[Holdings, RebalanceEvent]:
    """Sell every flagged holding and redeploy the proceeds.

    Proceeds pool with residual cash to form the new budget. Replacement
    candidates come from the sold names' sectors, excluding sold and
    currently held tickers; if that universe cannot supply N = |flagged|
    names it widens to all sectors, and if still too thin the step holds
    cash and records a degenerate event. A pooled budget above
    ``pipeline.MAX_BUDGET``, the most a purchase accepts, is held as cash
    the same way, so the ledger stays exact: proceeds plus prior cash equal
    ``cash_after``. Repurchase failures inside the optimizer likewise
    degrade to holding cash rather than aborting, and a repurchase whose
    optimum buys nothing is noted the same way.
    """
    flagged = sorted(set(flagged))
    held = holdings.held_tickers()
    if any(t not in held for t in flagged):
        raise InputError("flagged tickers must be currently held")
    if not flagged:
        return holdings, RebalanceEvent(
            as_of, {}, {}, holdings.cash, (), holdings.cash, "no holdings flagged"
        )

    sold: dict[str, tuple[int, float]] = {}
    proceeds = 0.0
    retained = dict(holdings.shares)
    for t in flagged:
        count = retained.pop(t)
        if t not in prices_at:
            raise InputError(f"no price available for {t!r} on {as_of}")
        amount = count * float(prices_at[t])
        sold[t] = (count, amount)
        proceeds += amount
    new_budget = proceeds + holdings.cash

    remaining_held = tuple(t for t in held if t not in sold)
    universe = tuple(sorted(prices_at.keys()))
    candidates, widened = _candidate_universe(flagged, remaining_held, universe, sectors)
    notes = ["widened to all sectors"] if widened else []

    bought_holdings = Holdings({}, new_budget, as_of)
    if len(candidates) < len(flagged):
        notes.append("degenerate: not enough candidates, holding cash")
    elif new_budget > MAX_BUDGET:
        notes.append(f"degenerate: pooled budget {new_budget} above the {MAX_BUDGET:g} budget cap, holding cash")
    else:
        try:
            bought_holdings, _ = buy(
                stats_provider(candidates), prices_at, replace(cfg, budget=new_budget), k=len(flagged)
            )
        except SolverError as exc:
            notes.append(f"degenerate: repurchase failed ({exc}), holding cash")
            log.warning("rebalance on %s could not repurchase: %s", as_of, exc)
        else:
            if not bought_holdings.shares:
                notes.append("degenerate: repurchase bought nothing, holding cash")

    # candidates exclude every name still held, so a purchase only adds names
    bought = {t: (n, n * float(prices_at[t])) for t, n in bought_holdings.shares.items()}
    cash = bought_holdings.cash
    event = RebalanceEvent(as_of, sold, bought, new_budget, candidates, cash, "; ".join(notes))
    return Holdings({**retained, **bought_holdings.shares}, cash, as_of), event


def run_backtest(
    prices: PriceMatrix,
    sectors: SectorMap,
    initial_budget: float,
    cfg: PipelineConfig,
    policy: RebalancePolicy,
    benchmark: WeightVector | str,
    start: date | None = None,
    end: date | None = None,
) -> BacktestReport:
    """Daily-valued backtest with periodic reviews against a buy-and-hold benchmark.

    Review boundaries fall at start + k * period_months, rolled forward to
    the next trading date; boundaries past the end of the range stop the
    rebalancing but valuation continues. Each distinct review day inside
    the range produces exactly one event (possibly a no-op), so boundaries
    that roll forward to the same trading day share one. Event k derives its
    sampler seed as cfg.seed + k so rebalances are reproducible. A price
    ticker without a sector, or fewer than ``lookback_days`` returns up to
    the first review, raises InputError before anything is bought.
    """
    if not initial_budget > 0:
        raise InputError("initial budget must be positive")
    missing = sorted(set(prices.tickers) - set(sectors.entries))
    if missing:
        raise InputError(f"no sector recorded for ticker {missing[0]!r}")
    first, last = prices.dates[0], prices.dates[-1]
    start = prices.first_date_on_or_after(start or first)
    if start is None:
        raise InputError("start date is past the end of the data")
    end = end if end is not None else last
    if end < start:
        raise InputError("end date precedes start date")
    lo, hi = bisect_left(prices.dates, start), bisect_right(prices.dates, end)
    trading = prices.dates[lo:hi]
    if not trading:
        raise InputError("no trading dates in the requested range")

    if isinstance(benchmark, str):
        if benchmark not in prices.tickers:
            raise InputError(f"benchmark ticker {benchmark!r} not in the price data")
        benchmark = WeightVector((benchmark,), np.array([1.0]))
    bench_holdings = to_shares(benchmark, prices.prices_at(start), initial_budget, start)

    boundaries: list[date] = []
    k = 1
    while True:
        target = add_months(start, k * policy.period_months)
        mapped = target and prices.first_date_on_or_after(target)
        if mapped is None or mapped > end:
            break
        boundaries.append(mapped)
        k += 1
    if not boundaries:
        log.warning(
            "no rebalance boundary falls inside the data range "
            "(period %d months, span %s..%s)",
            policy.period_months,
            start,
            end,
        )

    returns_all = compute_returns(prices)
    if boundaries:
        # the opening purchase always holds something, so the first review needs this history
        _history_end(returns_all, boundaries[0], policy.lookback_days)

    def make_provider(as_of: date) -> StatsProvider:
        # compute_returns on the window up to as_of gives the first rows of
        # returns_all, ratio for ratio; take copies them in C order, as that
        # window is laid out, so estimate_stats adds them in the same order
        end_row = bisect_right(returns_all.dates, as_of)

        def provider(tickers: Sequence[str]) -> AssetStats:
            cols = [returns_all.tickers.index(t) for t in tickers]
            rets = ReturnsMatrix(
                returns_all.dates[:end_row], tickers, returns_all.values[:end_row].take(cols, axis=1)
            )
            return estimate_stats(rets)

        return provider

    # the opening purchase estimates up to start, or over the full series
    # when fewer than two returns fall on or before start
    history_end = start
    if bisect_right(returns_all.dates, start) < 2:
        log.info("fewer than two returns up to %s; initial estimates use the full series", start)
        history_end = last
    opening_stats = make_provider(history_end)(prices.tickers)
    holdings, _ = buy(opening_stats, prices.prices_at(start), replace(cfg, budget=initial_budget), start)
    initial_holdings = holdings.to_dict()

    # the book is constant between reviews, so each holding period is valued
    # at once; a review day belongs to the period after the review
    reviews = list(dict.fromkeys(boundaries))
    cuts = [bisect_left(prices.dates, d) for d in reviews] + [hi]
    events: list[RebalanceEvent] = []
    algo_values = _book_values(holdings, prices, lo, cuts[0])
    for k, d in enumerate(reviews, start=1):
        prices_at = prices.prices_at(d)
        report = health_check(holdings, prices_at, returns_all, policy, d, initial_budget)
        holdings, event = rebalance_step(
            holdings,
            set(report.flagged),
            prices_at,
            sectors,
            make_provider(d),
            replace(cfg, seed=cfg.seed + k),
            d,
        )
        events.append(event)
        algo_values += _book_values(holdings, prices, cuts[k - 1], cuts[k])
    bench_values = _book_values(bench_holdings, prices, lo, hi)

    config_echo = {
        "pipeline": asdict(cfg),
        "policy": asdict(policy),
        "initial_budget": initial_budget,
        "benchmark": benchmark.as_dict(),
        "start": start.isoformat(),
        "end": end.isoformat(),
        "seed": cfg.seed,
    }
    return BacktestReport(
        trading,
        tuple(algo_values),
        tuple(bench_values),
        tuple(events),
        algo_values[-1],
        bench_values[-1],
        config_echo,
        initial_holdings,
    )
