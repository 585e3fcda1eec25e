"""Span tracer installed from the outside, at each layer boundary of ``annealfolio``.

The package's modules import names directly (``from .sampler import
simulated_anneal``), so a wrapper must replace the name at every import
site, not only where it is defined. ``install`` does that for the sites in
``SITES`` and ``METHOD_SITES`` and ``uninstall`` puts the originals back.
Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers
after the traced pass.

A span's self time is its duration minus the durations of its direct
children. Calls made by wrapped functions whose results the metrics need
(models, sample sets, loaded matrices) are captured by reference and read
only after the pass, so no analysis runs inside a timed span.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

import oracles

# (module, name at that import site, span name, required)
SITES = (
    ("pipeline", "simulated_anneal", "sampler.anneal", True),
    ("pipeline", "best_feasible", "sampler.feasible", True),
    ("pipeline", "_exhaustive_feasible_selection", "sampler.exhaustive", False),
    ("pipeline", "exhaustive_solve", "sampler.exhaustive", False),
    ("pipeline", "build_mvo_qubo", "model.build", True),
    ("pipeline", "build_mpt_model", "model.build", True),
    ("pipeline", "penalize_inequality", "model.build", True),
    ("pipeline", "compute_returns", "marketdata.estimate", True),
    ("pipeline", "estimate_stats", "marketdata.estimate", True),
    ("pipeline", "max_sharpe_weights", "allocator.max_sharpe", True),
    ("pipeline", "select_assets", "pipeline.select", True),
    ("pipeline", "optimize_integer_shares", "pipeline.shares", True),
    ("pipeline", "to_shares", "pipeline.to_shares", True),
    ("rebalance", "select_assets", "pipeline.select", True),
    ("rebalance", "optimize_integer_shares", "pipeline.shares", True),
    ("rebalance", "to_shares", "pipeline.to_shares", True),
    ("rebalance", "portfolio_value", "pipeline.value", True),
    ("rebalance", "compute_returns", "marketdata.estimate", True),
    ("rebalance", "estimate_stats", "marketdata.estimate", True),
    ("rebalance", "max_sharpe_weights", "allocator.max_sharpe", True),
    ("rebalance", "health_check", "rebalance.health", True),
    ("rebalance", "rebalance_step", "rebalance.step", True),
    ("cli", "load_prices", "marketdata.load", True),
    ("cli", "load_sectors", "marketdata.load", True),
    ("cli", "run_pipeline", "pipeline.run", True),
    ("cli", "run_backtest", "rebalance.backtest", True),
)
# (module, class, method, span name)
METHOD_SITES = (
    ("marketdata", "PriceMatrix", "prices_at", "marketdata.prices_at"),
    ("marketdata", "PriceMatrix", "window", "marketdata.window"),
    ("marketdata", "PriceMatrix", "restrict", "marketdata.window"),
)
# spans whose arguments and results the metrics read after the pass
CAPTURED = {"sampler.anneal", "sampler.feasible", "model.build", "marketdata.load"}
ROOT = "cli"


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "op", "args", "result")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.child = 0.0
        self.args = self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    def wrap(self, fn, name: str):
        capture = name in CAPTURED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
            if capture:
                span.args, span.result = (args, kwargs), result
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every site; return the optional sites that do not exist."""
        missing = []
        for mod_name, attr, span, required in SITES:
            mod = importlib.import_module(f"annealfolio.{mod_name}")
            if not hasattr(mod, attr):
                if required:
                    self.uninstall()
                    raise AttributeError(f"annealfolio.{mod_name} has no {attr}")
                missing.append(f"{mod_name}.{attr}")
                continue
            self._patch(mod, attr, span)
        for mod_name, cls_name, attr, span in METHOD_SITES:
            cls = getattr(importlib.import_module(f"annealfolio.{mod_name}"), cls_name)
            self._patch(cls, attr, span)
        return missing

    def _patch(self, owner, attr, span):
        original = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, span))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def to_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"id": i, "parent": index.get(id(s.parent)), "op": s.op, "name": s.name,
             "start": s.start, "end": s.end, "self": s.self_time}
            for i, s in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# per-layer metrics


def _quad_terms(model) -> int:
    quad = model.quadratic
    if isinstance(quad, dict):
        return sum(1 for v in quad.values() if v != 0.0)
    return int(np.count_nonzero(np.triu(np.asarray(quad), 1)))


def _upper(model) -> np.ndarray:
    quad = model.quadratic
    if isinstance(quad, dict):
        U = np.zeros((model.n, model.n))
        for (i, j), v in quad.items():
            U[i, j] = v
        return U
    return np.triu(np.asarray(quad, dtype=float), 1)


def _qubo_of(built):
    """The QUBO inside a builder's return value (model, model + slack, or constrained)."""
    if isinstance(built, tuple):
        built = built[0]
    return getattr(built, "objective", built)


def _anneal_call(span):
    (args, kwargs) = span.args
    names = ("m", "schedule", "seed")
    call = dict(zip(names, args))
    call.update(kwargs)
    if call.get("schedule") is None:
        from annealfolio.sampler import AnnealSchedule
        call["schedule"] = AnnealSchedule()
    return call


def _anneal_tts(span, exact_cap: int) -> tuple[float, float] | None:
    """(p, tts99) for one anneal call, or None when its model is too large to enumerate."""
    model = _anneal_call(span)["m"]
    if not hasattr(model, "quadratic") or model.n > exact_cap:
        return None
    ground, _ = oracles.qubo_minimum(model.linear, _upper(model))
    ground += model.offset
    records = span.result.records
    total = sum(r.count for r in records)
    tol = max(1e-9, 1e-9 * abs(ground))
    p = sum(r.count for r in records if r.energy <= ground + tol) / total
    return p, oracles.tts99(span.self_time, p)


def _peak_alloc_mb(span) -> float:
    """tracemalloc peak of one re-run of an anneal call, made after the pass."""
    call = _anneal_call(span)
    fn = importlib.import_module("annealfolio.sampler").simulated_anneal
    tracemalloc.start()
    try:
        fn(call["m"], call["schedule"], call.get("seed", 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def layer_metrics(tracer: Tracer, op_walls: list[float], exact_cap: int = 20) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    ``op_walls`` are the traced operations' wall times measured around
    each command by the runner; the part of them no span's self time
    covers is ``trace.unattributed_frac``.
    """
    by = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by.get(name, ()))

    def self_s(name):
        return sum(s.self_time for s in by.get(name, ()))

    def per_call_children(name, child):
        parents = by.get(name, ())
        if not parents:
            return 0.0
        ids = {id(p) for p in parents}
        n = sum(1 for s in by.get(child, ()) if id(s.parent) in ids)
        return n / len(parents)

    m = {}
    for layer in ("marketdata.load", "marketdata.estimate", "marketdata.prices_at",
                  "marketdata.window", "allocator.max_sharpe", "model.build", "sampler.anneal",
                  "sampler.exhaustive", "pipeline.select", "pipeline.shares", "pipeline.value",
                  "rebalance.health", "rebalance.step"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("sampler.feasible", "pipeline.to_shares", "pipeline.run",
                  "rebalance.backtest", ROOT):
        m[f"{layer}.self_s"] = self_s(layer)

    loads = by.get("marketdata.load", ())
    rows = sum(int(np.size(s.result.values)) for s in loads if hasattr(s.result, "values"))
    m["marketdata.load.rows"] = rows
    m["marketdata.load.us_per_row"] = 1e6 * m["marketdata.load.self_s"] / rows if rows else 0.0

    models = [_qubo_of(s.result) for s in by.get("model.build", ())]
    m["model.build.vars"] = sum(q.n for q in models)
    m["model.build.quad_terms"] = sum(_quad_terms(q) for q in models)

    anneals = by.get("sampler.anneal", ())
    flips = mb = 0.0
    for s in anneals:
        call = _anneal_call(s)
        n, sch = call["m"].n, call["schedule"]
        flips += n * sch.sweeps * sch.restarts
        mb = max(mb, 8.0 * sch.restarts * sch.sweeps * n / 1e6)
    m["sampler.anneal.flip_attempts"] = flips
    m["sampler.anneal.ns_per_flip"] = 1e9 * m["sampler.anneal.self_s"] / flips if flips else 0.0
    m["sampler.anneal.uniform_mb"] = mb
    largest = max(anneals, key=lambda s: _anneal_call(s)["m"].n, default=None)
    m["sampler.anneal.peak_alloc_mb"] = _peak_alloc_mb(largest) if largest else 0.0

    feasible = total = 0
    for s in by.get("sampler.feasible", ()):
        (args, kwargs) = s.args
        sampleset = args[0] if args else kwargs["s"]
        constraints = args[1] if len(args) > 1 else kwargs["constraints"]
        tolerance = args[2] if len(args) > 2 else kwargs.get("tolerance", 1e-9)
        for r in sampleset.records:
            x = np.array([1.0 if ch == "1" else 0.0 for ch in r.state])
            total += r.count
            if all(c.satisfied_by(x, tolerance) for c in constraints):
                feasible += r.count
    m["sampler.feasible_frac"] = feasible / total if total else 0.0

    tts, misses = [], 0
    for s in anneals:
        res = _anneal_tts(s, exact_cap)
        if res is None:
            continue
        if res[1] is None:
            misses += 1
        else:
            tts.append(res[1])
    m["sampler.tts99_p50_s"] = statistics.median(tts) if tts else 0.0
    m["sampler.tts_miss_calls"] = misses

    m["pipeline.select.anneals_per_call"] = per_call_children("pipeline.select", "sampler.anneal")
    m["pipeline.shares.anneals_per_call"] = per_call_children("pipeline.shares", "sampler.anneal")

    # an event is one health check plus the rebalance step that follows it
    healths, steps = by.get("rebalance.health", ()), by.get("rebalance.step", ())
    events = [h.duration + s.duration for h, s in zip(healths, steps)]
    m["rebalance.event_p50_s"] = statistics.median(events) if events else 0.0

    wall = sum(op_walls)
    covered = sum(s.self_time for s in tracer.spans)
    m["trace.unattributed_frac"] = (wall - covered) / wall if wall else 0.0
    return m
