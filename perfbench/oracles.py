"""Independent oracles for the benchmark's output checks.

Everything here is written against numpy alone and never calls into
``annealfolio``, so a defect in the program cannot hide behind a shared
helper. Each oracle runs outside every timed region.
"""

from __future__ import annotations

import math

import numpy as np

ANNUALIZATION = 252.0
REL_TOL = 1e-9


def estimate_stats(closes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Annualized mean and covariance of simple daily returns (ddof=1, x252)."""
    closes = np.asarray(closes, dtype=float)
    r = closes[1:] / closes[:-1] - 1.0
    mu = r.mean(axis=0)
    d = r - mu
    sigma = d.T @ d / (r.shape[0] - 1)
    return mu * ANNUALIZATION, sigma * ANNUALIZATION


def _all_states(n: int) -> np.ndarray:
    codes = np.arange(1 << n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(float)


def qubo_minimum(linear, upper, k: int | None = None) -> tuple[float, np.ndarray]:
    """Exact minimum of ``linear.x + x'Ux`` over x in {0,1}^n (U strictly upper).

    With ``k`` the search is restricted to states with exactly k ones.
    Meet in the middle: the low and high halves are enumerated apart and
    combined as one (2^h x 2^(n-h)) energy table, so n = 20 costs a single
    1024 x 1024 array instead of 2^20 rows. Returns (energy, argmin state).
    """
    linear = np.asarray(linear, dtype=float)
    U = np.triu(np.asarray(upper, dtype=float), 1)
    n = len(linear)
    if n > 22:
        raise ValueError(f"exact enumeration capped at n=22, got n={n}")
    h = n // 2
    A, B = _all_states(h), _all_states(n - h)
    Ua, Ub, Uab = U[:h, :h], U[h:, h:], U[:h, h:]
    Ea = A @ linear[:h] + np.einsum("si,si->s", A @ Ua, A)
    Eb = B @ linear[h:] + np.einsum("si,si->s", B @ Ub, B)
    E = Ea[:, None] + Eb[None, :] + (A @ Uab) @ B.T
    if k is not None:
        ones = A.sum(axis=1)[:, None] + B.sum(axis=1)[None, :]
        E = np.where(ones == k, E, np.inf)
    ia, ib = np.unravel_index(int(np.argmin(E)), E.shape)
    if not np.isfinite(E[ia, ib]):
        raise ValueError(f"no state has exactly {k} ones")
    return float(E[ia, ib]), np.concatenate([A[ia], B[ib]])


def best_subset(mu, sigma, k: int, q: float = 1.0) -> tuple[float, tuple[int, ...]]:
    """Best k-subset of ``q x'Sigma x - mu'x``: (objective, sorted indices)."""
    sigma = np.asarray(sigma, dtype=float)
    linear = q * np.diag(sigma) - np.asarray(mu, dtype=float)
    upper = np.triu(2.0 * q * sigma, 1)
    value, x = qubo_minimum(linear, upper, k)
    return value, tuple(int(i) for i in np.flatnonzero(x > 0.5))


def subset_objective(mu, sigma, idx, q: float = 1.0) -> float:
    x = np.zeros(len(mu))
    x[list(idx)] = 1.0
    return q * float(x @ sigma @ x) - float(np.asarray(mu) @ x)


def share_objective(counts, prices, mu, sigma, q_dollar: float) -> float:
    """Dollar-scale integer-share objective ``q y'Sigma y - mu'y``, y = p * counts."""
    y = np.asarray(prices, dtype=float) * np.asarray(counts, dtype=float)
    return q_dollar * float(y @ sigma @ y) - float(np.asarray(mu) @ y)


def share_grid_optimum(mu, sigma, prices, budget: float, q_dollar: float,
                       chunk: int = 1 << 16) -> tuple[float, np.ndarray]:
    """Integer-grid brute force over whole-share counts with spend <= budget.

    Walks the grid prod(U_i + 1), U_i = floor(budget / p_i), in chunks of
    ``chunk`` points so memory stays flat. Returns (objective, counts).
    """
    prices = np.asarray(prices, dtype=float)
    uppers = np.floor(budget / prices + 1e-12).astype(np.int64)
    radix = uppers + 1
    size = int(np.prod(radix))
    best_val, best_counts = math.inf, None
    for lo in range(0, size, chunk):
        codes = np.arange(lo, min(lo + chunk, size), dtype=np.int64)
        counts = np.empty((len(codes), len(prices)))
        for i, r in enumerate(radix):
            counts[:, i] = codes % r
            codes = codes // r
        Y = counts * prices
        ok = Y.sum(axis=1) <= budget + 1e-6
        if not ok.any():
            continue
        Y, counts = Y[ok], counts[ok]
        vals = q_dollar * np.einsum("si,si->s", Y @ sigma, Y) - Y @ mu
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_counts = float(vals[i]), counts[i].astype(np.int64)
    return best_val, best_counts


def matches_optimum(achieved: float, exact: float) -> bool:
    return achieved <= exact + max(REL_TOL, REL_TOL * abs(exact))


def tts99(seconds: float, p: float) -> float | None:
    """Time to reach the ground state with 99 % confidence (Ronnow et al. 2014).

    ``seconds`` is the cost of one call and ``p`` the fraction of its
    restarts that reached the ground state. Clamped to one call when
    p >= 0.99; ``None`` when p = 0 (the call never hit).
    """
    if p <= 0.0:
        return None
    if p >= 0.99:
        return seconds
    return seconds * math.log(0.01) / math.log(1.0 - p)


def replay_ledger(report: dict, closes: np.ndarray, tickers, dates, budget: float) -> list[str]:
    """Replay a backtest report's trades against the closes; return the problems found.

    Checks: the opening purchase fits the budget; at every event the sold
    counts equal the counts held, proceeds and costs equal shares x close,
    proceeds + prior cash = cost + cash after, cost never exceeds the pooled
    budget and cash never goes negative; the last reported value equals the
    replayed positions at the last close. A ticker missing from a share map
    means 0 shares.
    """
    col = {t: j for j, t in enumerate(tickers)}
    row = {d: i for i, d in enumerate(dates)}
    problems: list[str] = []
    tol = 0.005

    def close(t, d):
        return float(closes[row[d], col[t]])

    report_dates = report["dates"]
    start = report_dates[0]
    initial = report["initial"]
    held = {t: int(c) for t, c in initial["shares"].items() if int(c) > 0}
    cash = float(initial["cash"])
    spend = sum(c * close(t, start) for t, c in held.items())
    if spend > budget + 1e-6:
        problems.append(f"opening purchase {spend:.2f} exceeds budget {budget:.2f}")
    if cash < 0 or abs(spend + cash - budget) > tol:
        problems.append(f"opening cash {cash:.2f} does not balance spend {spend:.2f}")
    for ev in report["events"]:
        d = ev["date"]
        proceeds = 0.0
        for t, v in ev["sold"].items():
            if held.get(t, 0) != int(v["shares"]):
                problems.append(f"{d}: sold {v['shares']} {t} but held {held.get(t, 0)}")
            if abs(v["proceeds"] - int(v["shares"]) * close(t, d)) > tol:
                problems.append(f"{d}: proceeds of {t} do not match the close")
            held.pop(t, None)
            proceeds += v["proceeds"]
        cost = 0.0
        for t, v in ev["bought"].items():
            if abs(v["cost"] - int(v["shares"]) * close(t, d)) > tol:
                problems.append(f"{d}: cost of {t} does not match the close")
            held[t] = held.get(t, 0) + int(v["shares"])
            cost += v["cost"]
        pooled = proceeds + cash
        if abs(ev["new_budget"] - pooled) > tol:
            problems.append(f"{d}: new budget {ev['new_budget']:.2f} != proceeds + cash {pooled:.2f}")
        if cost > pooled + 1e-6:
            problems.append(f"{d}: spent {cost:.2f} of {pooled:.2f}")
        if ev["cash_after"] < 0 or abs(pooled - (cost + ev["cash_after"])) > tol:
            problems.append(f"{d}: ledger does not balance")
        cash = float(ev["cash_after"])
    last = report_dates[-1]
    value = cash + sum(c * close(t, last) for t, c in held.items())
    if len(report["algo"]) != len(report_dates) or abs(report["algo"][-1] - value) > tol:
        problems.append(f"final value {report['algo'][-1]:.2f} != replayed {value:.2f}")
    return problems
