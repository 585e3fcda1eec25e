import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio import sampler
from annealfolio.errors import InputError
from annealfolio.marketdata import AssetStats
from annealfolio.model import (
    KSubsetModel,
    LinearConstraint,
    QuboModel,
    build_mpt_model,
    build_mvo_qubo,
    ising_to_qubo,
    penalize_inequality,
    qubo_energies,
    qubo_energy,
    qubo_to_ising,
    quadratic_symmetric,
)
from annealfolio.pipeline import _share_penalty
from annealfolio.sampler import (
    AnnealSchedule,
    SampleRecord,
    SampleSet,
    _array_to_state,
    _make_sampleset,
    _restart_bests,
    best_feasible,
    exhaustive_solve,
    simulated_anneal,
    state_to_array,
    swap_curvature,
)

FAST = AnnealSchedule(sweeps=200, restarts=8)


def random_qubo(rng, n, scale=1.0):
    lin = rng.uniform(-scale, scale, n)
    quad = {
        (i, j): float(rng.uniform(-scale, scale))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return QuboModel(n, lin, quad, 0.0)


def random_stats(rng, n):
    returns = rng.normal(0.0005, 0.01, (60, n))
    sigma = np.cov(returns, rowvar=False) * 252.0
    return AssetStats(tuple(f"T{i}" for i in range(n)), returns.mean(axis=0) * 252.0, (sigma + sigma.T) / 2.0)


def tied_minima_model():
    # f(x) = -x0 - x1 + 2 x0 x1: minima (1,0) and (0,1) at energy -1
    return QuboModel(2, np.array([-1.0, -1.0]), {(0, 1): 2.0}, 0.0)


class TestExhaustive:
    def test_tied_minima_both_present(self):
        s = exhaustive_solve(tied_minima_model())
        assert s.records[0].energy == pytest.approx(-1.0)
        assert s.records[1].energy == pytest.approx(-1.0)
        assert {s.records[0].state, s.records[1].state} == {"01", "10"}

    def test_zero_model_all_states(self):
        s = exhaustive_solve(QuboModel(3, np.zeros(3), {}, 0.0))
        assert len(s.records) == 8
        assert all(r.energy == 0.0 for r in s.records)

    def test_single_variable(self):
        s = exhaustive_solve(QuboModel(1, np.array([1.0]), {}, 0.0))
        assert s.best().state == "0"
        assert s.best().energy == 0.0

    def test_cap_enforced(self):
        with pytest.raises(InputError, match="capped"):
            exhaustive_solve(QuboModel(25, np.zeros(25), {}, 0.0))

    def test_top_k(self):
        s = exhaustive_solve(tied_minima_model(), top_k=2)
        assert len(s.records) == 2
        assert s.best_energy == pytest.approx(-1.0)

    def test_energies_ascending_with_lex_ties(self):
        rng = np.random.default_rng(5)
        s = exhaustive_solve(random_qubo(rng, 6))
        energies = [r.energy for r in s.records]
        assert energies == sorted(energies)
        for a, b in zip(s.records, s.records[1:]):
            if a.energy == b.energy:
                assert a.state < b.state


def small_integer_qubo(rng, n):
    # coefficients in {-2, ..., 2}: exact energies with many ties
    quad = {(i, j): float(rng.integers(-2, 3)) for i in range(n) for j in range(i + 1, n)}
    return QuboModel(n, rng.integers(-2, 3, n).astype(float), quad, 0.0)


class TestExhaustiveOrder:
    @pytest.mark.parametrize("chunk", [4, sampler._ENUM_CHUNK], ids=["chunks-of-4", "one-chunk"])
    def test_top_k_is_the_head_of_the_full_order(self, chunk, monkeypatch):
        monkeypatch.setattr(sampler, "_ENUM_CHUNK", chunk)
        rng = np.random.default_rng(9)
        for _ in range(40):
            m = small_integer_qubo(rng, int(rng.integers(1, 8)))
            full = exhaustive_solve(m).records
            for k in (1, 2, 3, 5, len(full)):
                assert exhaustive_solve(m, top_k=k).records == full[:k]

    def test_ties_go_to_the_lexicographically_first_state(self):
        # -x0 - x1 - x2 + 2 (x0 x1 + x0 x2 + x1 x2): three one-hot minima at -1
        m = QuboModel(3, -np.ones(3), {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0})
        assert exhaustive_solve(m).records[0].state == "001"
        assert exhaustive_solve(m, top_k=1).best().state == "001"
        zero = QuboModel(20, np.zeros(20))
        assert [r.state for r in exhaustive_solve(zero, top_k=2).records] == ["0" * 20, "0" * 19 + "1"]


class TestSimulatedAnneal:
    def test_determinism(self):
        rng = np.random.default_rng(1)
        m = random_qubo(rng, 10)
        s1 = simulated_anneal(m, FAST, seed=99)
        s2 = simulated_anneal(m, FAST, seed=99)
        assert s1 == s2

    def test_default_sweeps_resolve_to_1000(self):
        m = random_qubo(np.random.default_rng(8), 6)
        schedule = AnnealSchedule(restarts=2)
        assert schedule.sweeps is None
        assert schedule.resolve() == AnnealSchedule(sweeps=1000, restarts=2)
        assert schedule.resolve(7).sweeps == 7 and FAST.resolve(7, 3) == FAST
        assert AnnealSchedule().resolve(7, 3, 2.0) == AnnealSchedule(t_initial=2.0, sweeps=7, restarts=3)
        expected = simulated_anneal(m, AnnealSchedule(sweeps=1000, restarts=2), seed=4)
        assert simulated_anneal(m, schedule, seed=4) == expected

    def test_finds_tied_minimum(self):
        s = simulated_anneal(tied_minima_model(), FAST, seed=7)
        assert s.best_energy == pytest.approx(-1.0)

    def test_different_seeds_allowed_to_differ(self):
        rng = np.random.default_rng(2)
        m = random_qubo(rng, 12)
        s1 = simulated_anneal(m, AnnealSchedule(sweeps=5, restarts=1), seed=1)
        s2 = simulated_anneal(m, AnnealSchedule(sweeps=5, restarts=1), seed=2)
        # not asserting inequality (could coincide); both must be valid records
        for s in (s1, s2):
            for rec in s.records:
                assert rec.energy == pytest.approx(qubo_energy(m, rec.state), abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_energy_audit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        m = random_qubo(rng, n)
        s = simulated_anneal(m, AnnealSchedule(sweeps=50, restarts=4), seed=seed)
        for rec in s.records:
            assert rec.energy == pytest.approx(qubo_energy(m, rec.state), abs=1e-9)
        assert sum(r.count for r in s.records) == 4

    def test_monotone_restart_prefix(self):
        rng = np.random.default_rng(3)
        m = random_qubo(rng, 10)
        few = AnnealSchedule(sweeps=100, restarts=4)
        many = AnnealSchedule(sweeps=100, restarts=12)
        states_few, e_few = _restart_bests(m, few, seed=5)
        states_many, e_many = _restart_bests(m, many, seed=5)
        # the first 4 restarts are identical regardless of the total count
        assert states_many[:4] == states_few
        assert np.allclose(e_many[:4], e_few)
        assert min(e_many) <= min(e_few)

    def test_exhaustive_lower_bounds_sa(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            m = random_qubo(rng, n)
            sa = simulated_anneal(m, FAST, seed=int(rng.integers(0, 1 << 32)))
            ex = exhaustive_solve(m, top_k=1)
            assert ex.best_energy <= sa.best_energy + 1e-9

    def test_ising_input_energies_match_source(self):
        rng = np.random.default_rng(6)
        m = random_qubo(rng, 6)
        im = qubo_to_ising(m)
        s = simulated_anneal(im, FAST, seed=11)
        from annealfolio.model import ising_energy

        for rec in s.records[:5]:
            spins = 2 * state_to_array(rec.state) - 1
            assert rec.energy == pytest.approx(ising_energy(im, spins), abs=1e-9)

    def test_geometric_schedule(self):
        sched = AnnealSchedule(t_initial=10.0, t_final=0.1, sweeps=3, restarts=2)
        assert sched.temperatures(10.0) == pytest.approx([10.0, 1.0, 0.1], rel=1e-15)
        assert AnnealSchedule(sweeps=1).temperatures(4.0).tolist() == [4.0]

    def test_schedule_validation(self):
        with pytest.raises(InputError):
            AnnealSchedule(t_initial=1.0, t_final=2.0)
        with pytest.raises(InputError):
            AnnealSchedule(sweeps=0)
        for bad in (
            {"sweeps": 10.5},
            {"sweeps": True},
            {"restarts": 2.0},
            {"t_final": None},
            {"t_final": float("nan")},
            {"t_initial": float("inf")},
            {"t_initial": "5"},
        ):
            with pytest.raises(InputError, match="must be"):
                AnnealSchedule(**bad)
        assert AnnealSchedule(sweeps=np.int64(10), restarts=np.int64(2)).sweeps == 10

    def test_records_in_energy_order(self):
        s = simulated_anneal(tied_minima_model(), AnnealSchedule(sweeps=20, restarts=3), seed=2)
        assert s.seed == 2 and sum(r.count for r in s.records) == 3
        energies = [r.energy for r in s.records]
        assert energies == sorted(energies)


def reference_restart_bests(qm, schedule, seed):
    """Step-by-step annealer kept as the reference for ``_restart_bests``.

    One numpy step per (sweep, variable) over restart-major arrays, with all
    R * S * n uniforms drawn up front. The production kernel must return the
    same states and the same energy bytes.
    """
    n, R, S = qm.n, schedule.restarts, schedule.sweeps
    t0 = schedule.resolve_t_initial(qm)
    temps = schedule.temperatures(t0)
    a = qm.linear
    Bsym = quadratic_symmetric(qm)

    X = np.empty((R, n))
    logu = np.empty((R, S * n))
    base = np.random.PCG64(seed)
    for r in range(R):
        gen = np.random.Generator(base.jumped(r))
        X[r] = (gen.random(n) < 0.5).astype(float)
        u = gen.random(S * n)
        with np.errstate(divide="ignore"):
            logu[r] = -np.log(u)

    G = a + X @ Bsym
    E = qubo_energies(qm, X)
    bestX = X.copy()
    bestE = E.copy()

    step = 0
    for s_idx in range(S):
        T = temps[s_idx]
        for i in range(n):
            xi = X[:, i]
            delta = (1.0 - 2.0 * xi) * G[:, i]
            accept = delta < T * logu[:, step]
            step += 1
            if accept.any():
                sgn = np.where(accept, 1.0 - 2.0 * xi, 0.0)
                X[:, i] = xi + sgn
                E += delta * accept
                G += sgn[:, None] * Bsym[i]
        improved = E < bestE
        if improved.any():
            bestE[improved] = E[improved]
            bestX[improved] = X[improved]

    final_E = qubo_energies(qm, bestX)
    return [_array_to_state(row) for row in bestX], final_E


def assert_same_as_reference(qm, schedule, seed):
    states, energies = _restart_bests(qm, schedule, seed)
    ref_states, ref_energies = reference_restart_bests(qm, schedule, seed)
    assert states == ref_states
    assert energies.tobytes() == ref_energies.tobytes()


class TestRestartStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
    def test_advanced_streams_are_numpys_jumps(self, seed):
        # _restart_bests expands SeedSequence(seed) once and advances a PCG64
        # built from those words by r jumps; the contract names
        # PCG64(seed).jumped(r), so a change to numpy's SeedSequence or jump fails here
        gens = sampler._restart_generators(seed, 64)
        for r in (0, 1, 31, 63):
            jumped = np.random.Generator(np.random.PCG64(seed).jumped(r))
            assert gens[r].bit_generator.state == jumped.bit_generator.state
            assert gens[r].random(5).tobytes() == jumped.random(5).tobytes()

    def test_fewer_restarts_are_a_prefix(self):
        few, many = sampler._restart_generators(7, 3), sampler._restart_generators(7, 32)
        assert [g.bit_generator.state for g in few] == [g.bit_generator.state for g in many[:3]]


def count_random_calls(monkeypatch):
    """A list that gets one entry per ``random`` call on the generators ``_restart_generators`` returns:
    the size of its ``out`` array, or None."""
    calls = []
    make = sampler._restart_generators

    class Counted:
        def __init__(self, gen):
            self.gen = gen

        def random(self, *args, out=None, **kwargs):
            calls.append(None if out is None else out.size)
            return self.gen.random(*args, out=out, **kwargs)

    monkeypatch.setattr(sampler, "_restart_generators", lambda seed, restarts: [Counted(g) for g in make(seed, restarts)])
    return calls


class TestUniformDraws:
    def test_one_draw_per_restart_at_selection_size(self, monkeypatch):
        # 128 restarts x 20 variables x (1 + 100 sweeps) uniforms fit one draw per restart
        m = build_mvo_qubo(random_stats(np.random.default_rng(20), 20), q=1.0, B=5)
        calls = count_random_calls(monkeypatch)
        simulated_anneal(m, AnnealSchedule(sweeps=100, restarts=128), seed=3)
        assert len(calls) == 128

    def test_memory_does_not_grow_with_sweeps(self):
        # 12 variables x 32 restarts: 500 sweeps take one draw, 1,000 and 5,000
        # take draws of 640 sweeps, the most whole 64-sweep blocks the budget holds
        n, restarts = 12, 32
        m = random_qubo(np.random.default_rng(31), n)
        peaks = {}
        for sweeps in (500, 1000, 5000):
            tracemalloc.start()
            try:
                simulated_anneal(m, AnnealSchedule(sweeps=sweeps, restarts=restarts), seed=1)
                peaks[sweeps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the draw budget and one threshold block, 8 bytes a value, plus the
        # (n, restarts) state, the bound row views and the 8-byte-a-sweep schedule
        bound = 8 * (sampler._DRAW_VALUES + sampler._SWEEP_BLOCK * n * restarts) + (384 << 10)
        assert peaks[500] <= peaks[5000] <= bound
        assert abs(peaks[5000] - peaks[1000]) < 64 << 10


class TestKernelMatchesReference:
    """The block-streamed, run-skipping kernel against the step-by-step loop.

    Sweep counts run below, at, just above and far from a multiple of the
    uniform block.
    """

    @pytest.mark.parametrize(
        "n, restarts, sweeps",
        list(itertools.product([1, 2, 5, 12, 35], [1, 3, 32, 128], [1, 63, 64, 65, 1000])),
    )
    def test_random_models(self, n, restarts, sweeps):
        rng = np.random.default_rng(1000 * n + restarts + sweeps)
        m = random_qubo(rng, n)
        assert_same_as_reference(m, AnnealSchedule(sweeps=sweeps, restarts=restarts), seed=n + sweeps)

    @pytest.mark.parametrize(
        "schedule",
        [
            AnnealSchedule(t_final=0.5, sweeps=300, restarts=16),
            AnnealSchedule(t_initial=3.0, t_final=0.01, sweeps=129, restarts=8),
            AnnealSchedule(t_initial=0.5, t_final=0.05, sweeps=200, restarts=5),
            AnnealSchedule(t_initial=0.3, t_final=0.01, sweeps=200, restarts=32),
        ],
    )
    def test_schedules(self, schedule):
        m = random_qubo(np.random.default_rng(11), 9, scale=2.0)
        assert_same_as_reference(m, schedule, seed=3)

    def test_zero_coupling_model(self):
        m = QuboModel(6, np.array([1.0, -1.0, 0.0, 2.0, -0.5, 0.0]), {}, 0.25)
        assert_same_as_reference(m, AnnealSchedule(sweeps=150, restarts=7), seed=4)

    def test_integer_coefficients(self):
        # exact ties and zero local fields, where only the sign of a zero may differ
        rng = np.random.default_rng(13)
        lin = rng.integers(-2, 3, 10).astype(float)
        quad = {(i, j): float(rng.integers(-2, 3)) for i in range(10) for j in range(i + 1, 10)}
        assert_same_as_reference(QuboModel(10, lin, quad, 1.0), AnnealSchedule(sweeps=200, restarts=16), seed=5)

    def test_ising_input(self):
        im = qubo_to_ising(random_qubo(np.random.default_rng(12), 8))
        schedule = AnnealSchedule(sweeps=130, restarts=6)
        states, energies = reference_restart_bests(ising_to_qubo(im), schedule, 9)
        assert simulated_anneal(im, schedule, seed=9) == _make_sampleset(states, energies, 9, 8)

    @pytest.mark.parametrize("n", [12, 20])
    def test_selection_models(self, n):
        stats = random_stats(np.random.default_rng(n), n)
        m = build_mvo_qubo(stats, q=1.0, B=n // 3)
        assert_same_as_reference(m, AnnealSchedule(sweeps=130, restarts=32), seed=n)

    def test_integer_share_model(self):
        rng = np.random.default_rng(21)
        stats = random_stats(rng, 5)
        budget = 3000.0
        cm = build_mpt_model(stats, rng.uniform(40.0, 400.0, 5), budget, 1.0 / budget)
        budget_con = cm.constraints[0]
        lam = _share_penalty(cm.objective, budget_con.coeffs)
        m, _ = penalize_inequality(cm.objective, budget_con, lam, 1.0)
        assert m.n == 38
        assert_same_as_reference(m, AnnealSchedule(sweeps=130, restarts=128), seed=7)

    @pytest.mark.parametrize("sweeps", [65, 130, 200])
    def test_low_initial_temperature(self, sweeps):
        # three double wells x0 + x1 - 3 x0 x1: leaving 00 for the minimum 11
        # takes one uphill flip, so most sweeps accept nothing; such runs end
        # inside a block of uniforms or cross into the next, and the rare
        # escapes decide which restarts reach 11
        m = QuboModel(6, np.ones(6), {(0, 1): -3.0, (2, 3): -3.0, (4, 5): -3.0})
        schedule = AnnealSchedule(t_initial=0.3, t_final=0.05, sweeps=sweeps, restarts=4)
        assert_same_as_reference(m, schedule, seed=sweeps)

    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize(
        "n, c, q, sweeps, seed",
        [(13, -0.5, 0.1, 209, 0), (12, -0.9, 0.3, 251, 5), (11, -1.0, 0.2, 112, 12)],
    )
    def test_permutation_symmetric_model(self, n, c, q, sweeps, seed, restarts):
        # every state with the same number of ones has the same exact energy,
        # so which one a restart keeps rests on the last bit of its running
        # energy, and the accepted deltas must be added in step order
        m = QuboModel(n, np.full(n, c), {(i, j): q for i in range(n) for j in range(i + 1, n)})
        assert_same_as_reference(m, AnnealSchedule(sweeps=sweeps, restarts=restarts), seed=seed)

    @pytest.mark.parametrize("restarts", [1, 3, 128])
    @pytest.mark.parametrize("draw", ["one block", "partial last", "default"])
    def test_draw_budget(self, monkeypatch, draw, restarts):
        # 150 sweeps in threshold blocks of 64 (16 at 128 restarts): a draw of one
        # block, one of two blocks and a short last draw, or the whole stream at once
        n, sweeps = 10, 150
        m = build_mvo_qubo(random_stats(np.random.default_rng(23), n), q=1.0, B=3)
        block = min(sampler._SWEEP_BLOCK, sampler._BLOCK_DRAWS // restarts)
        per_draw = {"one block": block, "partial last": 2 * block, "default": sweeps}[draw]
        if draw != "default":
            monkeypatch.setattr(sampler, "_DRAW_VALUES", restarts * n * (per_draw + 1))
        calls = count_random_calls(monkeypatch)
        assert_same_as_reference(m, AnnealSchedule(sweeps=sweeps, restarts=restarts), seed=8)
        assert len(calls) == restarts * -(-sweeps // per_draw)

    def test_all_zero_variable(self):
        # variable 3 has no terms: its delta is exactly +-0 and is accepted at
        # every step, so no sweep ever accepts nothing
        rng = np.random.default_rng(17)
        lin = rng.uniform(-1.0, 1.0, 8)
        lin[3] = 0.0
        quad = {(i, j): float(rng.uniform(-1.0, 1.0)) for i in range(8) for j in range(i + 1, 8)}
        m = QuboModel(8, lin, {ij: v for ij, v in quad.items() if 3 not in ij})
        assert_same_as_reference(m, AnnealSchedule(sweeps=200, restarts=16), seed=6)

def subset_value(mu, sigma, q, held):
    """q x'Sigma x - mu'x of the names ``held``, summed pair by pair."""
    held = list(held)
    return q * sum(sigma[i, j] for i in held for j in held) - sum(mu[i] for i in held)


def swap_start(mu, sigma, q, schedule):
    return schedule.t_initial or max(float(np.ptp(mu) + swap_curvature(sigma, q).max()), 10.0 * schedule.t_final)


def reference_swap_walk(mu, sigma, q, k, schedule, seed, r):
    """Restart r of the swap anneal one step at a time, from its own PCG64(seed).jumped(r) stream,
    with every proposal scored by evaluating the objective before and after. Its held names after each step."""
    n, S = len(mu), schedule.sweeps
    temps = schedule.temperatures(swap_start(mu, sigma, q, schedule))
    u = np.random.Generator(np.random.PCG64(seed).jumped(r)).random(n + 3 * S)
    order = np.argsort(u[:n], kind="stable").tolist()
    held, free = order[:k], order[k:]
    path = [list(held)]
    for s in range(S):
        a, b, w = u[n + 3 * s : n + 3 * s + 3]
        a, b = int(a * k), int(b * (n - k))
        moved = held[:a] + [free[b]] + held[a + 1 :]
        if subset_value(mu, sigma, q, moved) - subset_value(mu, sigma, q, held) < temps[s] * -np.log(w):
            free[b], held = held[a], moved
        path.append(list(held))
    return path


def swap_walk_path(stats, q, k, schedule, seed):
    """Every (held, E) that ``sampler._swap_walk`` yields on the resolved ``schedule``, copied."""
    walk = sampler._swap_walk(KSubsetModel(stats.mu, stats.sigma, q, k), schedule.resolve(), seed)
    return [(h.copy(), e.copy()) for h, e in walk]


def swap_bests(stats, q, k, schedule, seed):
    """Each restart's best held names, (R, k) in restart order."""
    return sampler._swap_restart_bests(KSubsetModel(stats.mu, stats.sigma, q, k), schedule.resolve(), seed)


class TestSwapAnneal:
    @pytest.mark.parametrize("n, k", [(4, 2), (6, 1), (6, 3), (7, 6), (9, 4)])
    def test_every_step_keeps_k_names_and_scores_the_exact_change(self, n, k):
        rng = np.random.default_rng([41, n, k])
        for trial in range(3):
            stats = random_stats(rng, n)
            q = float(rng.choice([0.1, 1.0, 10.0]))
            path = swap_walk_path(stats, q, k, AnnealSchedule(sweeps=60, restarts=6), trial)
            assert len(path) == 61
            moved = 0
            for (before, E0), (after, E1) in zip(path, path[1:]):
                for r in range(6):
                    assert len(set(after[r].tolist())) == k and set(after[r].tolist()) <= set(range(n))
                    exact = subset_value(stats.mu, stats.sigma, q, after[r])
                    change = exact - subset_value(stats.mu, stats.sigma, q, before[r])
                    assert E1[r] - E0[r] == pytest.approx(change, abs=1e-12 * (1.0 + abs(exact)))
                    if sorted(after[r].tolist()) != sorted(before[r].tolist()):
                        moved += 1
                        assert len(set(after[r].tolist()) - set(before[r].tolist())) == 1
            assert moved > 30

    @pytest.mark.parametrize("restarts, sweeps, seed", [(1, 50, 0), (5, 80, 3), (12, 200, 2**31 - 1)])
    def test_matches_one_restart_reference(self, restarts, sweeps, seed):
        rng = np.random.default_rng([43, restarts])
        stats = random_stats(rng, 10)
        for k, q in ((2, 1.0), (5, 10.0), (8, 0.1)):
            schedule = AnnealSchedule(sweeps=sweeps, restarts=restarts).resolve()
            path = swap_walk_path(stats, q, k, schedule, seed)
            for r in range(restarts):
                assert [h[r].tolist() for h, _ in path] == reference_swap_walk(stats.mu, stats.sigma, q, k, schedule, seed, r)

    def test_best_state_is_the_lowest_visited(self):
        stats = random_stats(np.random.default_rng(44), 9)
        schedule = AnnealSchedule(sweeps=100, restarts=8)
        best = swap_bests(stats, 1.0, 4, schedule, 5)
        assert best.shape == (8, 4)
        path = swap_walk_path(stats, 1.0, 4, schedule, 5)
        for r, held in enumerate(best):
            lowest = min(range(len(path)), key=lambda s: path[s][1][r])  # first of the lowest
            assert held.tolist() == path[lowest][0][r].tolist()

    def test_sampleset_holds_every_restarts_best_with_its_exact_energy(self):
        stats = random_stats(np.random.default_rng(44), 9)
        schedule = AnnealSchedule(sweeps=100, restarts=8)
        s = simulated_anneal(KSubsetModel(stats.mu, stats.sigma, 1.0, 4), schedule, seed=5)
        assert s.model_n == 9 and s.seed == 5 and sum(r.count for r in s.records) == 8
        states = {}
        for held in swap_bests(stats, 1.0, 4, schedule, 5):
            state = "".join("1" if i in held else "0" for i in range(9))
            states[state] = states.get(state, 0) + 1
        assert {r.state: r.count for r in s.records} == states
        for r in s.records:
            exact = subset_value(stats.mu, stats.sigma, 1.0, np.flatnonzero(state_to_array(r.state)))
            assert r.energy == pytest.approx(exact, abs=1e-12)

    def test_restart_rows_do_not_depend_on_the_restart_count(self):
        stats = random_stats(np.random.default_rng(45), 16)
        for R in (1, 8, 64):
            few = swap_bests(stats, 1.0, 5, AnnealSchedule(sweeps=100, restarts=R), 9)
            many = swap_bests(stats, 1.0, 5, AnnealSchedule(sweeps=100, restarts=2 * R), 9)
            assert few.tobytes() == many[:R].tobytes()

    def test_one_draw_per_restart_at_selection_size(self, monkeypatch):
        stats = random_stats(np.random.default_rng(46), 20)
        calls = count_random_calls(monkeypatch)
        swap_bests(stats, 1.0, 5, AnnealSchedule(sweeps=300, restarts=128), 3)
        assert len(calls) == 128

    @pytest.mark.parametrize("per_draw", [1, 7, 40])
    def test_draw_budget(self, monkeypatch, per_draw):
        # streams drawn a few steps at a time continue where the last draw stopped, and no
        # draw of all restarts, the first with its n start values, exceeds _DRAW_VALUES
        stats = random_stats(np.random.default_rng(47), 12)
        schedule = AnnealSchedule(sweeps=90, restarts=4)
        whole = swap_bests(stats, 1.0, 3, schedule, 2)
        monkeypatch.setattr(sampler, "_DRAW_VALUES", 4 * (12 + 3 * per_draw))
        calls = count_random_calls(monkeypatch)
        assert swap_bests(stats, 1.0, 3, schedule, 2).tobytes() == whole.tobytes()
        assert len(calls) == 4 * -(-90 // per_draw)
        assert calls[:4] == [12 + 3 * per_draw] * 4 and 4 * max(calls) <= sampler._DRAW_VALUES

    def test_unset_fields_resolve(self):
        # the start is ptp(mu) plus the largest swap curvature (its floor:
        # TestSweepResolution); sweeps and restarts take the direct-call defaults
        stats = random_stats(np.random.default_rng(48), 8)
        m = KSubsetModel(stats.mu, stats.sigma, 1.0, 3)
        start = float(np.ptp(stats.mu) + swap_curvature(stats.sigma, 1.0).max())
        assert 0.0 < start < 10.0
        assert AnnealSchedule().resolve_t_initial(m) == start

        def path(schedule):
            return [(h.tolist(), e.tolist()) for h, e in swap_walk_path(stats, 1.0, 3, schedule, 4)]

        assert path(AnnealSchedule(sweeps=200, restarts=8)) == path(AnnealSchedule(t_initial=start, sweeps=200, restarts=8))
        assert path(AnnealSchedule(sweeps=200, restarts=8)) != path(AnnealSchedule(t_initial=1.1 * start, sweeps=200, restarts=8))
        unset = simulated_anneal(m, AnnealSchedule(), seed=4)
        assert unset == simulated_anneal(m, AnnealSchedule(sweeps=1000, restarts=32), seed=4)

    def test_cardinality_needs_a_swap(self):
        stats = random_stats(np.random.default_rng(49), 4)
        for k in (0, 4, 5):
            with pytest.raises(InputError, match="1 <= k < n"):
                KSubsetModel(stats.mu, stats.sigma, 1.0, k)


class TestBestFeasible:
    def test_filter_then_rank(self):
        records = (
            SampleRecord("11", -5.0, 1),
            SampleRecord("10", -3.0, 1),
        )
        s = SampleSet(records, seed=0, model_n=2)
        c = LinearConstraint(np.array([1.0, 1.0]), "eq", 1.0)
        assert best_feasible(s, [c]) == "10"

    def test_empty_constraints_gives_global_best(self):
        s = SampleSet((SampleRecord("01", -2.0, 1), SampleRecord("00", 0.0, 1)), 0, 2)
        assert best_feasible(s, []) == "01"

    def test_no_feasible_returns_none(self):
        s = SampleSet((SampleRecord("00", 0.0, 1),), 0, 2)
        c = LinearConstraint(np.array([1.0, 1.0]), "eq", 1.0)
        assert best_feasible(s, [c]) is None

    def test_le_constraint(self):
        s = SampleSet((SampleRecord("11", -5.0, 1), SampleRecord("01", -1.0, 1)), 0, 2)
        c = LinearConstraint(np.array([3.0, 3.0]), "le", 4.0)
        assert best_feasible(s, [c]) == "01"

    def test_length_mismatch(self):
        s = SampleSet((SampleRecord("00", 0.0, 1),), 0, 2)
        with pytest.raises(InputError):
            best_feasible(s, [LinearConstraint(np.array([1.0]), "eq", 1.0)])
