"""Low-energy state search for QUBO/Ising models and for k-subset selection.

Two solvers share the :class:`SampleSet` result type, distinct 0/1 states
as rows of one uint8 array with their energies and sample counts: a
seeded simulated annealer and one exhaustive enumerator of QUBO models,
the exact solver at small sizes and the annealer's oracle.
:func:`simulated_anneal` moves by single flips on a QUBO or Ising model
(the fully_quantum share band) and by swaps of a held name for a free one
on a :class:`KSubsetModel` (the hybrid selection q x'Sigma x - mu'x over
k-subsets), so there the count stays k with no penalty. The pipeline
never enumerates: its selection swap-descends every restart's best state,
and at k = 1 or k = n - 1, where one swap reaches every k-subset, it
swap-descends one start without annealing.

Reproducibility contract: the random stream is numpy's PCG64. In both
move sets restart r draws from ``PCG64(seed).jumped(r)``, so the first r
restarts are identical no matter how many run in total, and parallel or
serial execution merges to the same result. An anneal builds one
``PCG64(seed)`` and one ``Generator``, and ``PCG64.advance`` moves them to
each restart's stream (:class:`_RestartStreams`).

Restarts run in lockstep in both move sets, so a step is a handful of
numpy calls whose cost grows far slower than their number; the selection
spends its budget on many short restarts. The swap steps are
elementwise per restart (:func:`_swap_walk`). What follows is the flip
anneal's.

Each restart's uniforms come from one call that covers its initial state
and as many sweeps as fit ``_DRAW_VALUES`` over all restarts; a longer
anneal draws again in whole threshold blocks, continuing the same PCG64
streams. Thresholds are made per block of at most ``_SWEEP_BLOCK`` sweeps
and ``_BLOCK_DRAWS`` restart-sweeps. Whatever the sweep count, an anneal
holds at most 8 * max(_DRAW_VALUES, R * n * (block + 1)) bytes of uniforms
(2 MiB unless one block needs more) and 8 * n * max(_BLOCK_DRAWS, R) bytes
of thresholds. Each accepted move updates the local fields with one BLAS
rank-1 product, coupling column times the restarts' flip signs; the signs
are -1, 0 or +1, so the products are exact under any BLAS, FMA use or
thread count, and hot sweeps apply the update at every step without
testing for an acceptance. Once sweeps turn cold it skips runs of rejected
moves, comparing the rest of a sweep at once, and after a sweep that
accepts nothing it compares the same deltas with every later sweep of the
block and jumps to the first that accepts. The once-per-sweep bookkeeping
uses only exact float operations on the signs each step keeps: flip
directions change sign by subtracting them twice, and the accepted deltas
are summed in step order. None of this changes a result: the SampleSet is
bit-for-bit the one a step-by-step pass over one up-front array of
uniforms gives, and the tests keep that pass as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError, check_field
from .model import (
    IsingModel,
    KSubsetModel,
    LinearConstraint,
    QuboModel,
    ising_to_qubo,
    quadratic_symmetric,
    qubo_energies,
)

EXHAUSTIVE_CAP = 24
_ENUM_CHUNK = 1 << 18
_SWEEP_BLOCK = 64  # most sweeps of Metropolis thresholds held at once
_BLOCK_DRAWS = 2048  # most restart-sweeps of them held at once
_DRAW_VALUES = 1 << 18  # uniforms (2 MiB) one draw of every restart holds, unless one block needs more
# numpy's PCG64 jump, (golden ratio - 1) * 2**128: restart r's stream, jumped(r), is r of them on
_PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule for :func:`simulated_anneal`.

    Both of the pipeline's anneals, the selection and the fully_quantum
    share band, run the defaults: 32 restarts of 100 sweeps. On a QUBO or
    Ising model one sweep is one Metropolis flip attempt per variable, in
    index order, and an unset start (None) is (max coefficient magnitude *
    n). On a :class:`KSubsetModel` one sweep is one proposed swap in every
    restart, and an unset start is ptp(mu) plus the largest
    q(Sigma_ii - 2 Sigma_ij + Sigma_jj), the scale of one swap's cost.
    Every unset start is floored at 10x ``t_final``. Cooling is geometric:
    sweep s of S runs at t_initial * (t_final / t_initial) ** (s / (S - 1)).
    """

    t_initial: float | None = None
    t_final: float = 1e-3
    sweeps: int = 100
    restarts: int = 32

    def __post_init__(self):
        check_field("t_initial", self.t_initial, float, low=0, allow=(None,))
        check_field("t_final", self.t_final, float, low=0)
        if self.t_initial is not None and self.t_final >= self.t_initial:
            raise InputError("t_final must be below t_initial")
        check_field("sweeps", self.sweeps, int, low=1)
        check_field("restarts", self.restarts, int, low=1)

    def resolve_t_initial(self, model: QuboModel | IsingModel | KSubsetModel) -> float:
        if self.t_initial is not None:
            return self.t_initial
        if isinstance(model, KSubsetModel):
            scale = float(np.ptp(model.mu) + swap_curvature(model.sigma, model.q).max())
        else:
            scale = model.max_coefficient() * model.n
        return max(scale, 10.0 * self.t_final)

    def temperatures(self, t0: float) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([t0])
        frac = np.arange(self.sweeps) / (self.sweeps - 1)
        return t0 * (self.t_final / t0) ** frac


class SampleRecord(NamedTuple):
    state: np.ndarray
    energy: float
    count: int


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Distinct 0/1 states in (energy, state) order, ties broken lexicographically.

    ``states`` is a read-only (m, n) uint8 array of distinct rows, ``energies``
    holds each row's energy and ``counts`` how many samples reached it.
    """

    states: np.ndarray
    energies: np.ndarray
    counts: np.ndarray
    seed: int | None

    def __post_init__(self):
        for arr in (self.states, self.energies, self.counts):
            arr.flags.writeable = False

    @property
    def best_energy(self) -> float:
        return float(self.energies[0])

    @property
    def records(self) -> tuple[SampleRecord, ...]:
        """Each row as (state, energy, count), in row order."""
        return tuple(map(SampleRecord, self.states, self.energies.tolist(), self.counts.tolist()))


def _merge_samples(X: np.ndarray, E: np.ndarray, seed: int) -> SampleSet:
    """The samples X (rows of 0/1, n >= 1) with energies E, each distinct row once with its first energy.

    np.unique of the rows' bytes sorts them by state; a stable sort by energy keeps that order within a tie.
    """
    X = np.ascontiguousarray(X, dtype=np.uint8)
    _, first, counts = np.unique(X.view((np.void, X.shape[1])).ravel(), return_index=True, return_counts=True)
    order = np.argsort(E[first], kind="stable")
    return SampleSet(X[first[order]], E[first[order]], counts[order], seed)


def _first_rows(X: np.ndarray, E: np.ndarray, k: int | None, place: np.ndarray):
    """The first k rows of (X, E) in (energy, state) order; every row when k is None."""
    if k is not None and len(E) > k:
        # every row among the first k has an energy at most the k-th smallest
        keep = np.flatnonzero(E <= np.partition(E, k - 1)[k - 1])
        X, E = X[keep], E[keep]
    order = np.lexsort((X @ place, E))[:k]
    return X[order], E[order]


def exhaustive_solve(m: QuboModel, top_k: int | None = None) -> SampleSet:
    """Enumerate all 2^n states; exact but capped at n <= EXHAUSTIVE_CAP variables.

    The one exact solver, the oracle the annealer is checked against.
    States stream in chunks. Rows are in (energy, state) order, ties
    broken by the lexicographically first state, and ``top_k`` (k >= 1)
    returns exactly the first k rows of that order while holding no
    more than k states per chunk. Without top_k the SampleSet holds every
    state, which gets heavy past n ~ 20; prefer a truncation there.
    """
    if m.n > EXHAUSTIVE_CAP:
        raise InputError(f"exhaustive solve capped at n={EXHAUSTIVE_CAP}, got n={m.n}")
    if top_k is not None and top_k < 1:
        raise InputError("top_k must be at least 1")
    size = 1 << m.n
    bit_cols = np.arange(m.n, dtype=np.uint32)
    # x @ place orders states as their bitstrings sort: x_0 is the leading bit
    place = 2.0 ** np.arange(m.n - 1, -1, -1)

    best_states: list[np.ndarray] = []
    best_energies: list[np.ndarray] = []
    for lo in range(0, size, _ENUM_CHUNK):
        hi = min(lo + _ENUM_CHUNK, size)
        codes = np.arange(lo, hi, dtype=np.uint32)
        X = ((codes[:, None] >> bit_cols) & 1).astype(float)
        E = qubo_energies(m, X)
        if top_k is not None:
            X, E = _first_rows(X, E, top_k, place)
        best_states.append(X)
        best_energies.append(E)
    X, E = _first_rows(np.concatenate(best_states), np.concatenate(best_energies), top_k, place)
    # enumerated states are distinct, and at n = 0 the one state is empty
    return SampleSet(X.astype(np.uint8), E, np.ones(len(E), dtype=np.intp), None)


class _RestartStreams:
    """Restart r's uniforms from ``PCG64(seed).jumped(r)``, every restart on one PCG64 and one Generator."""

    def __init__(self, seed: int):
        self.bits = np.random.PCG64(seed)
        self.gen = np.random.Generator(self.bits)

    def fill(self, u: np.ndarray) -> None:
        """Fill row r of the (R, m) ``u`` with restart r's next m values, where its last fill stopped."""
        R, m = u.shape
        for row in u:
            self.gen.random(out=row)
            self.bits.advance((_PCG64_JUMP - m) % 2**128)  # to restart r + 1's stream
        self.bits.advance((m - R * _PCG64_JUMP) % 2**128)  # back to restart 0's


def _restart_bests(qm: QuboModel, schedule: AnnealSchedule, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Best state per restart, an (R, n) uint8 array in restart order, and its energy.

    All restarts run in lockstep (vectorized), each on its own PCG64
    stream. The state is restart-minor: the flip direction D = 1 - 2x and
    the local fields G are (n, R) arrays, so one variable's lanes are
    contiguous. One ``random`` call per restart draws its initial state
    and every sweep that fits _DRAW_VALUES uniforms over all restarts; a
    longer stream takes further draws of whole blocks. The draw buffer
    holds at most 8 * max(_DRAW_VALUES, R * n * (block + 1)) bytes, 2 MiB
    unless one block needs more. log(u) is taken once per draw, and
    Metropolis thresholds are made per block of sweeps as (-T) * log(u) in
    one multiply; negation is exact and rounding to nearest is symmetric
    in sign, so that is T * -log(u) bit for bit. A sweep's threshold row
    views are bound the first time it runs hot. The best-so-far is
    refreshed at every sweep boundary and energies are re-evaluated
    exactly at the end.

    A step only updates G, by the rank-1 product of coupling column i and
    the step's signs sgn = D[i] * accept (one BLAS call). Each sgn entry is
    -1, 0 or +1, so every product is exact whatever the BLAS: G gets the
    same additions, in the same order, as a step-by-step pass. A hot sweep
    runs every step without a branch, since adding the +-0 of a rejected
    step leaves G as it was. Each step keeps its signs in its own row of
    sgns (a cold sweep zeroes them first), and flip directions and
    energies are brought up to date from them at the sweep boundary with
    same-dtype float operations, all exact: sgns * D is 1 where a restart
    flipped the variable and +-0 elsewhere, so its row sums count the
    variables that flipped, and D - sgns - sgns negates exactly the
    flipped +-1 entries. The sweep's accepted deltas, deltas * that 1 or
    +-0, sit in the rows under E, and one reduction along that outer axis
    sums them; numpy adds such a reduction a row at a time, so E gets them
    in step order, as a step-by-step pass adds them.

    After a sweep in which at most half the variables flipped in any
    restart, the next sweep compares all its remaining steps at once and
    jumps to the next variable some restart accepts: nothing changes in
    between, so every delta and comparison has the operands a step-by-step
    pass would use. If such a sweep accepts nothing at all, D, G, E and the
    deltas stay as they are for every later sweep of the block, so one call
    compares those deltas with all their thresholds and the loop goes on at
    the first sweep that accepts anything; the sweeps it passes change
    neither the energies nor the best-so-far. While the fields stay finite
    the result is the step-by-step pass's, bit for bit; only the sign of
    zeros no comparison reads can differ on the way.
    """
    n, R, S = qm.n, schedule.restarts, schedule.sweeps
    neg_temps = -schedule.temperatures(schedule.resolve_t_initial(qm))
    a = qm.linear
    Bsym = quadratic_symmetric(qm)

    block = min(S, _SWEEP_BLOCK, max(_BLOCK_DRAWS // R, 1))
    # a draw holds the initial state and every sweep that fits _DRAW_VALUES; whole blocks unless it ends the stream
    fit = _DRAW_VALUES // (R * n) - 1
    per_draw = S if S <= fit else max(fit // block, 1) * block
    u = np.empty((R, (per_draw + 1) * n))
    streams = _RestartStreams(seed)
    streams.fill(u)
    X = np.less(u[:, :n], 0.5).astype(float)
    sweep_u = u.reshape(R, per_draw + 1, n)[:, 1:]

    G = np.ascontiguousarray((a + X @ Bsym).T)
    D = np.ascontiguousarray((1.0 - 2.0 * X).T)
    deltas = np.empty((n, R))
    accepts = np.empty((n, R), dtype=bool)
    sgns = np.empty((n, R))
    took = np.empty((n, R))
    per_var = np.empty(n)
    ones = np.ones(R)
    # The energy E heads a column of every step's accepted delta, summed
    # down in step order at the sweep boundary. numpy adds a reduction's
    # rows one at a time only while each row has two or more lanes (a lone
    # lane is summed pairwise), hence the spare lane when R = 1.
    energy_steps = np.zeros((n + 1, max(R, 2)))
    energy_sum = np.empty(energy_steps.shape[1])
    E = energy_steps[0, :R]
    accepted_deltas = energy_steps[1:, :R]
    E[:] = qubo_energies(qm, X)
    bestD = D.copy()
    bestE = E.copy()
    improved = np.empty(R, dtype=bool)
    dG = np.empty((n, R))
    # Each variable's row views, bound once (the arrays are only written in
    # place): its signs also as a (1, R) row, and its coupling column
    # Bsym[:, i] (= row i) as a contiguous (n, 1).
    steps = list(zip(D, G, deltas, accepts, sgns, sgns[:, None, :], Bsym[:, :, None]))
    multiply, less, dot, add, subtract = np.multiply, np.less, np.dot, np.add, np.subtract

    thresholds = np.empty((block, n, R))
    threshold_rows = [None] * block  # a sweep's row views, bound when it first runs hot
    frozen = np.empty((block, n, R), dtype=bool)
    hot = True
    for b0 in range(0, S, block):
        nb, d = min(block, S - b0), b0 % per_draw
        if not d:
            drawn = u[:, n : n + min(per_draw, S - b0) * n]
            if b0:
                streams.fill(drawn)
            with np.errstate(divide="ignore"):
                np.log(drawn, out=drawn)
        multiply(neg_temps[b0 : b0 + nb, None, None], sweep_u[:, d : d + nb].transpose(1, 2, 0), thresholds[:nb])
        k = 0
        while k < nb:
            if hot:
                if threshold_rows[k] is None:
                    threshold_rows[k] = list(thresholds[k])
                for (Di, Gi, delta, accept, sgn, sgn_row, column), th_i in zip(steps, threshold_rows[k]):
                    multiply(Di, Gi, delta)
                    less(delta, th_i, accept)
                    multiply(Di, accept, sgn)
                    dot(column, sgn_row, dG)
                    add(G, dG, G)
            else:
                th = thresholds[k]
                flips = 0
                sgns.fill(0.0)
                i = 0
                while i < n:
                    multiply(D[i:], G[i:], deltas[i:])
                    rest = less(deltas[i:], th[i:], accepts[i:]).reshape(-1)
                    first = int(rest.argmax())
                    if not rest[first]:
                        break
                    i += first // R
                    Di, _, _, accept, sgn, sgn_row, column = steps[i]
                    multiply(Di, accept, sgn)
                    dot(column, sgn_row, dG)
                    add(G, dG, G)
                    flips += 1
                    i += 1
                if not flips:
                    # Frozen: nothing changed, so every later sweep of the
                    # block compares these same deltas. Go to the first of
                    # them that accepts anything, or past the block.
                    later = less(deltas, thresholds[k + 1 : nb], frozen[k + 1 : nb]).reshape(-1)
                    k = k + 1 + int(later.argmax()) // (n * R) if later.any() else nb
                    continue
            multiply(sgns, D, took)  # 1 where a restart flipped the variable, else +-0
            if hot:
                flips = np.count_nonzero(dot(took, ones, per_var))
            hot = 2 * flips > n
            multiply(deltas, took, accepted_deltas)
            add.reduce(energy_steps, 0, None, energy_sum)
            E[:] = energy_sum[:R]
            subtract(D, sgns, D)  # D - 2 sgn negates exactly the flipped +-1 entries
            subtract(D, sgns, D)
            if np.count_nonzero(less(E, bestE, improved)):
                np.copyto(bestE, E, where=improved)
                np.copyto(bestD, D, where=improved)
            k += 1

    bestX = np.ascontiguousarray((1.0 - bestD.T) / 2.0)
    return bestX.astype(np.uint8), qubo_energies(qm, bestX)


def simulated_anneal(
    m: QuboModel | IsingModel | KSubsetModel,
    schedule: AnnealSchedule = AnnealSchedule(),
    seed: int = 0,
) -> SampleSet:
    """Seeded Metropolis annealing: single flips of a QUBO/Ising model, swaps of a k-subset model.

    Each restart starts from a uniform random state (a uniform random
    k-subset for a :class:`KSubsetModel`) and performs ``schedule.sweeps``
    sweeps while the temperature cools geometrically from t_initial to
    t_final; a move with energy change d is accepted when d <= 0,
    otherwise with probability exp(-d / T). A QUBO sweep tries one flip
    per variable; a k-subset sweep proposes one swap of a held name for a
    free one (:func:`_swap_walk`), so every state holds k names. Ising
    inputs are converted to the exact QUBO twin first, so reported
    energies match the source model; states are 0/1 rows x, spins s = 2x - 1.
    The sample set holds each restart's best state, its energy re-evaluated
    exactly, and how many restarts ended there.

    Deterministic: fixed (model, schedule, seed) reproduces the SampleSet
    bit for bit.
    """
    if isinstance(m, KSubsetModel):
        held = _swap_restart_bests(m, schedule, seed)
        X = np.zeros((len(held), m.n), dtype=np.uint8)
        np.put_along_axis(X, held, 1, axis=1)
        return _merge_samples(X, _subset_energies(m, held), seed)
    qm = ising_to_qubo(m) if isinstance(m, IsingModel) else m
    if qm.n < 1:
        raise InputError("model must have at least one variable")
    return _merge_samples(*_restart_bests(qm, schedule, seed), seed)


def swap_curvature(sigma: np.ndarray, q: float) -> np.ndarray:
    """q((Sigma_ii - 2 Sigma_ij) + Sigma_jj) for every (i, j): swapping held i for free j changes
    q x'Sigma x - mu'x by g_j - g_i plus this, with g = 2q Sigma x - mu."""
    d = np.diag(sigma)
    return q * ((d[:, None] - 2.0 * sigma) + d)


def _subset_energies(m: KSubsetModel, held: np.ndarray) -> np.ndarray:
    """q x'Sigma x - mu'x of each row's held names (R, k), summed in slot order without BLAS."""
    field = m.sigma[held].sum(axis=1)  # Sigma x
    return (m.q * np.take_along_axis(field, held, 1) - m.mu[held]).sum(axis=1)


def _swap_walk(m: KSubsetModel, schedule: AnnealSchedule, seed: int):
    """Every step of the k-subset anneal's restarts, in lockstep, on ``schedule``.

    Yields (held, E) at the start and after each step: held is the (R, k)
    array of each restart's held names and E its objective, both updated
    in place. Each restart also keeps its free names, so a swap of held
    slot a for free slot b exchanges two entries and the count stays k. A
    step proposes, in every restart, swapping a uniform random held name i
    for a uniform random free name j, scores it as (g_j - g_i) +
    q((Sigma_ii - 2 Sigma_ij) + Sigma_jj) with g = 2q Sigma x - mu, and
    accepts when that is below -T log(u). Only the restarts that accept
    update g, by 2q(Sigma_j - Sigma_i).

    Restart r's uniforms come from its own ``PCG64(seed).jumped(r)``
    stream: n for the start (its k smallest name the held set), then
    three per step for the held slot, the free slot and the Metropolis
    threshold. One ``random`` call per restart covers the start and as
    many steps as fit _DRAW_VALUES uniforms over all restarts; a longer
    anneal draws again, continuing the same streams. A draw holds at most
    8 * max(_DRAW_VALUES, R * (n + 3)) bytes. Every update is elementwise
    per restart, so no result depends on the BLAS, on the thread count or
    on how many other restarts run.
    """
    mu, sigma, q, k, n = m.mu, m.sigma, m.q, m.k, m.n
    curv = swap_curvature(sigma, q)
    R, S = schedule.restarts, schedule.sweeps
    neg_temps = -schedule.temperatures(schedule.resolve_t_initial(m))
    streams = _RestartStreams(seed)
    block = min(S, max((_DRAW_VALUES // R - n) // 3, 1))
    rows = np.arange(R)
    # held, free and G are indexed through flat views: restart r's slot a of held is held_at[r * k + a]
    row_n = rows * n
    for b0 in range(0, S, block):
        nb = min(block, S - b0)
        u = np.empty((R, (0 if b0 else n) + 3 * nb))
        streams.fill(u)
        if not b0:
            order = np.argsort(u[:, :n], axis=1, kind="stable")
            held, free = order[:, :k].copy(), order[:, k:].copy()
            held_at, free_at = held.reshape(-1), free.reshape(-1)
            G = 2.0 * q * sigma[held].sum(axis=1) - mu  # 2q Sigma x - mu, adding the held rows in slot order
            G_at = G.reshape(-1)
            E = _subset_energies(m, held)
            yield held, E
        steps = u[:, u.shape[1] - 3 * nb :].reshape(R, nb, 3).transpose(2, 1, 0)
        outs = (steps[0] * k).astype(np.intp) + rows * k  # (nb, R) flat slots of held
        intos = (steps[1] * (n - k)).astype(np.intp) + rows * (n - k)
        with np.errstate(divide="ignore"):
            thresholds = neg_temps[b0 : b0 + nb, None] * np.log(steps[2])  # T * -log(u), bit for bit
        for a, b, th in zip(outs, intos, thresholds):
            i, j = held_at[a], free_at[b]
            delta = (G_at[row_n + j] - G_at[row_n + i]) + curv[i, j]
            acc = (delta < th).nonzero()[0]
            if acc.size:
                i, j = i[acc], j[acc]
                held_at[a[acc]], free_at[b[acc]] = j, i
                dG = np.subtract(sigma.take(j, 0), sigma.take(i, 0))
                dG *= 2.0 * q
                G[acc] = dG + G.take(acc, 0)  # G + 2q(Sigma_j - Sigma_i), bit for bit
                E[acc] += delta[acc]
            yield held, E


def _swap_restart_bests(m: KSubsetModel, schedule: AnnealSchedule, seed: int) -> np.ndarray:
    """Each restart's first lowest-E visited held set, an (R, k) array in restart order.

    Restart r's row depends only on the model, the schedule, ``seed`` and r.
    """
    walk = _swap_walk(m, schedule, seed)
    held, E = next(walk)
    best_held, best_E = held.copy(), E.copy()
    improved = np.empty(len(E), dtype=bool)
    for held, E in walk:
        if np.count_nonzero(np.less(E, best_E, improved)):
            np.copyto(best_E, E, where=improved)
            np.copyto(best_held, held, where=improved[:, None])
    return best_held


def best_feasible(
    s: SampleSet, constraints: Sequence[LinearConstraint], tolerance: float = 1e-9
) -> np.ndarray | None:
    """The lowest-energy state (first in row order) satisfying every constraint, or None.

    Absence of a feasible state is a value, not an error.
    """
    feasible = np.ones(len(s.states), dtype=bool)
    for c in constraints:
        if len(c.coeffs) != s.states.shape[1]:
            raise InputError("constraint length does not match sample variable count")
        feasible &= c.satisfied_by(s.states, tolerance)
    return next(iter(s.states[feasible]), None)
