"""Layered, oracle-checked benchmark for annealfolio.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload select --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One run is one process, one client, one operation at a time (closed
loop). An operation is one in-process ``annealfolio.cli.main([...])``
command on generated CSV files. BLAS/OpenMP are pinned to one thread.

With ``--trace 0`` the run measures the end-to-end metrics: after one
untimed warm-up operation it makes passes over the workload's instance
list until ``--seconds`` have gone (the first pass always completes).
A fixed calibration kernel (``calibrate.py``) is timed between
operations; every time is scaled to a host of fixed speed, and an
instance's latency is the median of its scaled runs.
With ``--trace 1`` it makes one untraced and one traced pass over every
other instance of the list and reports per-layer metrics; the traced outputs
must be byte-identical to the untraced ones.

Every output is judged by the benchmark's own oracles after timing ends.
An operation fails on a non-zero exit, an exception, a failed oracle or
ledger check, or an output that differs from an earlier run of the same
instance. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; details
(units, sample counts, the hit-rate base, the environment) go to
``perfbench/results/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
MEASURE_CAP_S = 120.0  # a run never measures longer, whatever --seconds says
CAL_SHARE = 0.1        # calibration time after an operation, as a share of its time



def units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# operations


class Op:
    """One execution of one instance."""

    __slots__ = ("inst", "started", "seconds", "error", "digest", "result")

    def __init__(self, inst):
        self.inst = inst
        self.error = self.digest = self.result = None


def fresh_import():
    """Import annealfolio from scratch (module code re-executed) and return its CLI."""
    for name in [n for n in sys.modules if n == "annealfolio" or n.startswith("annealfolio.")]:
        del sys.modules[name]
    importlib.import_module("annealfolio")
    return importlib.import_module("annealfolio.cli")


def execute(main, wl, inst, inputs: Path, outputs: Path) -> Op:
    """Run one command in-process, timing only the ``main`` call; keep its output digest."""
    op = Op(inst)
    out = outputs / inst.name
    shutil.rmtree(out, ignore_errors=True)
    argv = wl.argv(inst, inputs, out)
    sink = io.StringIO()
    rc = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = op.started = perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            op.error = traceback.format_exc(limit=4)
        op.seconds = perf_counter() - t0
    if op.error is None and rc != 0:
        op.error = f"exit code {rc}: {sink.getvalue()[-400:]}"
    if op.error is None:
        try:
            h = hashlib.sha256()
            for f in sorted(out.iterdir()):
                h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
            op.digest = h.hexdigest()
            op.result = (out / wl.result_file).read_bytes()
        except OSError as exc:
            op.error = f"missing output: {exc}"
    return op


def judge(wl, ops: list[Op]) -> dict:
    """Mark failed ops in place; return the oracle's verdict per instance."""
    first: dict[str, Op] = {}
    for op in ops:
        if op.error is not None:
            continue
        ref = first.setdefault(op.inst.name, op)
        if op.digest != ref.digest:
            op.error = "output differs from an earlier run of the same instance"
    verdicts = {}
    for name, ref in first.items():
        try:
            verdicts[name] = wl.check(ref.inst, json.loads(ref.result))
        except (KeyError, TypeError, ValueError) as exc:
            verdicts[name] = None
            ref.error = f"unreadable output: {exc!r}"
            continue
        if verdicts[name].problems:
            for op in ops:
                if op.inst.name == name and op.error is None:
                    op.error = "oracle: " + "; ".join(verdicts[name].problems[:3])
    return verdicts


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it, and that percentile.

    Below 22 samples that percentile would not lie above the median, so the
    maximum is returned instead, with percentile 100.
    """
    xs = sorted(samples)
    if len(xs) < 22:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


# ---------------------------------------------------------------------------
# a run


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Setup:
    """The workload's set-up: import annealfolio afresh and write every input file.

    ``rep`` times one set-up. Drawing and oracle-screening the instances
    happens once, in the first rep, untimed. ``reps`` holds (start, seconds).
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.plan = None
        self.reps: list[tuple[float, float]] = []

    def rep(self, inputs: Path):
        import workloads

        started = t0 = perf_counter()
        cli = fresh_import()
        t_import = perf_counter() - t0
        wl = workloads.WORKLOADS[self.workload](sys.modules["annealfolio"])
        if self.plan is None:
            self.plan = wl.plan(self.seed)
        warmup, instances = self.plan
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        t0 = perf_counter()
        for inst in [warmup] + [i for i in instances if i is not warmup]:
            wl.write(inst, inputs)
        self.reps.append((started, t_import + perf_counter() - t0))
        return cli, wl


def measure(cli, wl, warmup, instances, inputs, outputs, seconds, setup: Setup, spare: Path):
    """Warm-up, then passes over the instances until ``seconds`` have gone.

    The first pass always completes. Later passes run an instance only if
    its fastest latency so far still fits before the deadline, so a run
    overshoots ``seconds`` by little even when one operation takes long.
    The calibration kernel runs after every operation, for at least
    ``CAL_SHARE`` of that operation's time. The remaining set-up reps run
    between operations, spread evenly over the measurement, so their
    median does not hang on one moment's load.
    """
    speed = calibrate.Speed()
    ops = [execute(cli.main, wl, warmup, inputs, outputs)]
    speed.sample(at_least=0.2)
    timed: list[Op] = []
    best: dict[str, float] = {}
    start = perf_counter()
    span = min(seconds, MEASURE_CAP_S)
    deadline = start + span
    slots = [start + span * k / SETUP_REPS for k in range(1, SETUP_REPS)]
    ran = True
    while ran:
        ran = False
        for inst in instances:
            now = perf_counter()
            if now >= start + MEASURE_CAP_S:
                ran = False
                break
            if slots and now >= slots[0]:
                slots.pop(0)
                setup.rep(spare)
                speed.sample()
            if inst.name in best and now + best[inst.name] > deadline:
                continue
            op = execute(cli.main, wl, inst, inputs, outputs)
            speed.sample(at_least=CAL_SHARE * op.seconds)
            timed.append(op)
            best[inst.name] = min(op.seconds, best.get(inst.name, op.seconds))
            ran = True
    for _ in slots:
        setup.rep(spare)
        speed.sample()
    shutil.rmtree(spare, ignore_errors=True)
    return ops + timed, timed, speed


def end_to_end(timed, instances, verdicts, setup: Setup, speed) -> tuple[dict, dict]:
    """End-to-end metrics from the timed operations, in calibrated seconds.

    Every time is multiplied by ``speed.scale`` at the moment it was taken,
    which removes the host's drift (see ``calibrate.py``). An instance's
    latency is the median of its scaled runs; the spread across instances
    (median, tail) shows how latency depends on the input. ``wall_s`` is
    one pass over the instance list at those latencies, and the rates
    divide the work of one pass by it. The unscaled figures go to the
    details.
    """
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for op in timed:
        scaled.setdefault(op.inst.name, []).append(op.seconds * speed.scale(op.started))
        raw.setdefault(op.inst.name, []).append(op.seconds)
    latency = {name: statistics.median(v) for name, v in scaled.items()}
    latencies = list(latency.values())
    tail_s, tail_pct = tail(latencies)
    per_pass = len(instances) / len(latencies)
    wall = sum(latencies) * per_pass
    good = [verdicts[name] for name in latency if verdicts.get(name) is not None]
    checked, hits = sum(v.checked for v in good), sum(v.hits for v in good)
    busy = sum(latency[name] for name in latency if verdicts.get(name) is not None)
    metrics = {
        "setup_s": statistics.median(t * speed.scale(at) for at, t in setup.reps),
        "wall_s": wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "portfolios_per_s": sum(v.portfolios for v in good) / busy if busy else 0.0,
        "sim_days_per_s": sum(v.days for v in good) / busy if busy else 0.0,
        "hit_rate": hits / checked if checked else 0.0,
    }
    details = {
        "ops": [[op.inst.name, op.started, op.seconds, op.seconds * speed.scale(op.started)]
                for op in timed],
        "op_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "timed_ops": len(timed),
        "hit_base": {"hits": hits, "checked": checked},
        "calibration": {"nominal_s": calibrate.NOMINAL_S, "median_s": speed.median_s(),
                        "samples": speed.samples},
        "unscaled": {"setup_s": statistics.median(t for _, t in setup.reps),
                     "wall_s": sum(statistics.median(v) for v in raw.values()) * per_pass},
    }
    return metrics, details


def traced(cli, wl, warmup, instances, inputs, outputs, spans_path: Path):
    import tracer as tracing

    subset = instances[::2]
    ops = [execute(cli.main, wl, warmup, inputs, outputs)]
    plain = [execute(cli.main, wl, inst, inputs, outputs) for inst in subset]
    tr = tracing.Tracer()
    missing = tr.install()
    try:
        main = tr.wrap(cli.main, tracing.ROOT)
        spans = []
        for i, inst in enumerate(subset):
            tr.op = i
            spans.append(execute(main, wl, inst, inputs, outputs))
    finally:
        tr.uninstall()
    for a, b in zip(plain, spans):
        if a.error is None and b.error is None and a.digest != b.digest:
            b.error = "traced output differs from the untraced output"
    ops += plain + spans
    verdicts = judge(wl, ops)

    m = tracing.layer_metrics(tr, [op.seconds for op in spans])
    untraced_wall = sum(op.seconds for op in plain)
    traced_wall = sum(op.seconds for op in spans)
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    m["trace.wall_s"] = traced_wall
    m["trace.ops"] = len(spans)
    events = traded = 0
    for op in spans:
        evs = json.loads(op.result).get("events") if op.error is None else None
        if evs is not None:
            events += len(evs)
            traded += sum(1 for e in evs if e["bought"])
    m["rebalance.events"] = events
    m["rebalance.traded_frac"] = traded / events if events else 0.0
    m["fail_frac"] = sum(op.error is not None for op in ops) / len(ops)
    with spans_path.open("w", encoding="utf-8") as fh:
        for rec in tr.to_records():
            fh.write(json.dumps(rec) + "\n")
    details = {"optional_sites_missing": missing, "traced_ops": len(spans),
               "hit_base": {"hits": sum(v.hits for v in verdicts.values() if v),
                            "checked": sum(v.checked for v in verdicts.values() if v)}}
    return ops, m, details


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    import workloads  # noqa: F401  (fails early if the benchmark files are incomplete)

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(parents=True, exist_ok=True)
    inputs, outputs = work / "inputs", work / "outputs"
    try:
        setup = Setup(workload, seed)
        cli, wl = setup.rep(inputs)
        warmup, instances = setup.plan
        if trace:
            ops, metrics, details = traced(cli, wl, warmup, instances, inputs, outputs,
                                           results / f"{tag}-spans.jsonl")
            kind = "per_layer"
        else:
            ops, timed, speed = measure(cli, wl, warmup, instances, inputs, outputs, seconds,
                                        setup, work / "setup-rep")
            # read before the oracles run, so their arrays do not count
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            verdicts = judge(wl, ops)
            metrics, details = end_to_end(timed, instances, verdicts, setup, speed)
            metrics["peak_rss_mb"] = peak_kb / 1024.0
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f"{op.inst.name}: {op.error}" for op in ops if op.error is not None]
    out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in units(kind).items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_reps_s": [t for _, t in setup.reps],
        "environment": environment(root), "metrics": out_metrics, "details": details,
        "failures": failures[:20],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in failures[:5]:
        print(f"failed {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": len(failures),
                      "metrics": out_metrics}))
    return 0


def run_all(seed: int, seconds: float, root: Path) -> int:
    """Every workload, untraced then traced, each in a fresh process; print every metric."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            res = json.loads(lines[-1])
            rec = json.loads((HERE / "results" / f"{name}-seed{seed}-trace{trace}.json").read_text())
            base = rec["details"]["hit_base"]
            print(f"== {name} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"fail_frac={res['failed'] / res['attempted']:.4f} "
                  f"hit_rate base {base['hits']}/{base['checked']}")
            for k, v in res["metrics"].items():
                print(f"  {k:<36} {v['value']:>14.6g} {v['unit']}")
            if "op_tail_percentile" in rec["details"]:
                d = rec["details"]
                print(f"  (op_tail_s is p{d['op_tail_percentile']:.1f} of "
                      f"{d['latency_samples']} instance latencies)")
            status |= not res["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("shares", "select", "backtest-long"))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "annealfolio" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/annealfolio", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.all:
        return run_all(args.seed, args.seconds, root)
    if not args.workload:
        ap.error("--workload or --all is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
