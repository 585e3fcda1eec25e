import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealfolio.errors import InputError
from annealfolio.marketdata import AssetStats
from annealfolio.model import (
    ConstrainedModel,
    IsingModel,
    LinearConstraint,
    QuboModel,
    affordable_shares,
    build_mpt_model,
    build_mvo_qubo,
    encode_integer,
    ising_energy,
    ising_to_qubo,
    penalize_equality,
    penalize_inequality,
    qubo_energies,
    qubo_energy,
    qubo_to_ising,
)
from annealfolio.pipeline import _dollar_objective


def all_states(n):
    return [np.array(bits, dtype=float) for bits in itertools.product((0, 1), repeat=n)]


def random_qubo(rng, n, scale=2.0):
    lin = rng.uniform(-scale, scale, n)
    quad = {
        (i, j): float(rng.uniform(-scale, scale))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return QuboModel(n, lin, quad, float(rng.uniform(-scale, scale)))


class TestEnergy:
    def setup_method(self):
        self.m = QuboModel(2, np.array([3.0, 0.0]), {(0, 1): 1.0}, 0.0)

    def test_all_zero(self):
        assert qubo_energy(self.m, [0, 0]) == 0.0

    def test_all_one(self):
        assert qubo_energy(self.m, [1, 1]) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            qubo_energy(self.m, [1, 0, 1])

    def test_quadratic_keys_validated(self):
        with pytest.raises(InputError):
            QuboModel(2, np.zeros(2), {(1, 0): 1.0})
        with pytest.raises(InputError):
            QuboModel(2, np.zeros(2), {(0, 0): 1.0})

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(InputError, match=r"linear\[1\] must be finite"):
            QuboModel(3, [1.0, bad, -1.0], {(0, 1): 1.0})
        with pytest.raises(InputError, match=r"quadratic coefficient \(0, 2\) must be finite"):
            QuboModel(3, np.zeros(3), {(0, 1): 1.0, (0, 2): bad})
        with pytest.raises(InputError, match="offset must be finite"):
            QuboModel(3, np.zeros(3), {}, bad)
        with pytest.raises(InputError, match=r"h\[0\] must be finite"):
            IsingModel(2, [bad, 0.0])
        with pytest.raises(InputError, match=r"quadratic coefficient \(0, 1\) must be finite"):
            IsingModel(2, np.zeros(2), {(0, 1): bad})
        with pytest.raises(InputError, match="offset must be finite"):
            IsingModel(2, np.zeros(2), {}, bad)

    def test_array_input_matches_mapping(self):
        U = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -2.5], [0.0, 0.0, 0.0]])
        lin = np.zeros(3)
        m = QuboModel(3, lin, U)
        im = IsingModel(3, lin, U)
        assert np.array_equal(m.quadratic, QuboModel(3, np.zeros(3), {(0, 1): 1.0, (1, 2): -2.5}).quadratic)
        assert np.array_equal(im.J, U)
        U[1, 0] = 7.0  # each model keeps its own read-only copies
        lin[0] = np.inf
        assert m.quadratic[1, 0] == 0.0
        assert m.linear[0] == 0.0 and im.h[0] == 0.0
        for stored in (m.quadratic, m.linear, im.J, im.h):
            with pytest.raises(ValueError):
                stored[..., -1] = 3.0

    @pytest.mark.parametrize(
        "i, j, value, match",
        [
            (1, 1, 1.0, r"entry \(1, 1\) must be zero on and below the diagonal"),
            (2, 0, -3.0, r"entry \(2, 0\) must be zero on and below the diagonal"),
            (0, 2, float("inf"), r"coefficient \(0, 2\) must be finite"),
            (0, 1, float("nan"), r"coefficient \(0, 1\) must be finite"),
        ],
        ids=["diagonal", "lower", "inf", "nan"],
    )
    def test_array_input_validated(self, i, j, value, match):
        U = np.zeros((3, 3))
        U[i, j] = value
        with pytest.raises(InputError, match=match):
            QuboModel(3, np.zeros(3), U)
        with pytest.raises(InputError, match=match):
            IsingModel(3, np.zeros(3), U)
        with pytest.raises(InputError, match="shape"):
            QuboModel(2, np.zeros(2), U)

    def test_ising_energy_rejects_non_spins(self):
        m = IsingModel(2, np.array([1.0, -1.0]), {}, 0.0)
        with pytest.raises(InputError):
            ising_energy(m, [0, 1])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        m = random_qubo(rng, 5)
        X = np.array(all_states(5))
        batch = qubo_energies(m, X)
        for row, e in zip(X, batch):
            assert e == pytest.approx(qubo_energy(m, row), abs=1e-12)


class TestQuboIsing:
    def test_worked_example(self):
        # f(x) = 3 x0 + x0 x1
        m = QuboModel(2, np.array([3.0, 0.0]), {(0, 1): 1.0}, 0.0)
        im = qubo_to_ising(m)
        assert im.h[0] == pytest.approx(7 / 4)
        assert im.h[1] == pytest.approx(1 / 4)
        assert im.J[0, 1] == pytest.approx(1 / 4)
        assert im.offset == pytest.approx(7 / 4)

    def test_zero_model(self):
        im = qubo_to_ising(QuboModel(3, np.zeros(3), {}, 0.0))
        assert np.all(im.h == 0.0) and not im.J.any() and im.offset == 0.0

    def test_single_variable(self):
        im = qubo_to_ising(QuboModel(1, np.array([1.0]), {}, 0.0))
        assert im.h[0] == pytest.approx(0.5)
        assert im.offset == pytest.approx(0.5)

    def test_inverse_worked_example(self):
        im = IsingModel(2, np.array([7 / 4, 1 / 4]), {(0, 1): 1 / 4}, 7 / 4)
        m = ising_to_qubo(im)
        assert m.linear[0] == pytest.approx(3.0)
        assert m.linear[1] == pytest.approx(0.0, abs=1e-15)
        assert m.quadratic[0, 1] == pytest.approx(1.0)
        assert m.offset == pytest.approx(0.0, abs=1e-15)

    def test_zero_ising(self):
        m = ising_to_qubo(IsingModel(2, np.zeros(2), {}, 0.0))
        assert np.all(m.linear == 0.0) and not m.quadratic.any() and m.offset == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    def test_round_trip_and_energy_equivalence(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_qubo(rng, n)
        im = qubo_to_ising(m)
        back = ising_to_qubo(im)
        assert np.allclose(back.linear, m.linear, atol=1e-12)
        assert back.offset == pytest.approx(m.offset, abs=1e-12)
        assert np.max(np.abs(back.quadratic - m.quadratic), initial=0.0) <= 1e-12
        for x in all_states(n):
            s = 2 * x - 1
            assert qubo_energy(m, x) == pytest.approx(ising_energy(im, s), abs=1e-9)


class TestPenalizeEquality:
    def test_worked_example(self):
        base = QuboModel(2, np.zeros(2), {}, 0.0)
        c = LinearConstraint(np.array([1.0, 1.0]), "eq", 1.0)
        out = penalize_equality(base, c, 10.0)
        assert out.linear.tolist() == [-10.0, -10.0]
        assert out.quadratic[0, 1] == 20.0
        assert out.offset == 10.0
        assert qubo_energy(out, [1, 0]) == pytest.approx(0.0)
        assert qubo_energy(out, [0, 1]) == pytest.approx(0.0)
        assert qubo_energy(out, [0, 0]) == pytest.approx(10.0)
        assert qubo_energy(out, [1, 1]) == pytest.approx(10.0)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(InputError):
            LinearConstraint(np.zeros(2), "eq", 0.0)

    def test_full_cardinality_forces_all_ones(self):
        n = 4
        base = QuboModel(n, np.zeros(n), {}, 0.0)
        c = LinearConstraint(np.ones(n), "eq", float(n))
        out = penalize_equality(base, c, 5.0)
        for x in all_states(n):
            e = qubo_energy(out, x)
            if x.sum() == n:
                assert e == pytest.approx(0.0, abs=1e-12)
            else:
                assert e > 0

    def test_nonpositive_lambda(self):
        base = QuboModel(2, np.zeros(2), {}, 0.0)
        c = LinearConstraint(np.ones(2), "eq", 1.0)
        with pytest.raises(InputError):
            penalize_equality(base, c, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    def test_feasible_zero_infeasible_positive(self, seed, n):
        rng = np.random.default_rng(seed)
        base = QuboModel(n, np.zeros(n), {}, 0.0)
        coeffs = rng.integers(1, 4, n).astype(float)
        beta = float(coeffs[: max(1, n // 2)].sum())
        lam = 3.0
        out = penalize_equality(base, LinearConstraint(coeffs, "eq", beta), lam)
        violations = []
        for x in all_states(n):
            v = float(coeffs @ x) - beta
            e = qubo_energy(out, x)
            if abs(v) < 1e-12:
                assert e == pytest.approx(0.0, abs=1e-9)
            else:
                violations.append((abs(v), e))
        if violations:
            smallest = min(v for v, _ in violations)
            assert all(e >= lam * smallest**2 - 1e-9 for _, e in violations)


class TestPenalizeInequality:
    def test_budget_with_slack(self):
        base = QuboModel(1, np.zeros(1), {}, 0.0)
        c = LinearConstraint(np.array([30.0]), "le", 100.0)
        out, slack = penalize_inequality(base, c, 2.0, slack_granularity=1.0)
        assert slack.start == 1
        assert sum(slack.bit_weights) == 100
        # x = 1 with slack 70 is exactly feasible: zero penalty
        slack_bits = _bits_for_value(slack.bit_weights, 70)
        state = np.array([1.0] + slack_bits)
        assert qubo_energy(out, state) == pytest.approx(0.0, abs=1e-9)

    def test_zero_rhs_degenerates_to_equality(self):
        base = QuboModel(2, np.zeros(2), {}, 0.0)
        c = LinearConstraint(np.array([1.0, 2.0]), "le", 0.0)
        out, slack = penalize_inequality(base, c, 4.0)
        assert slack.width == 0
        assert out.n == 2
        assert qubo_energy(out, [0, 0]) == pytest.approx(0.0)
        assert qubo_energy(out, [1, 0]) > 0

    def test_forced_violation_carries_penalty(self):
        # single binary whose reward beats the violation cost of 150 > budget 100
        base = QuboModel(1, np.array([-10_000.0]), {}, 0.0)
        c = LinearConstraint(np.array([150.0]), "le", 100.0)
        lam = 1.0
        out, slack = penalize_inequality(base, c, lam, slack_granularity=1.0)
        # enumerate every state; minimum-energy state must pay >= lam * 50^2
        best = None
        for bits in np.ndindex(*(2,) * out.n):
            x = np.array(bits, dtype=float)
            e = qubo_energy(out, x)
            if best is None or e < best[0]:
                best = (e, x)
        e, x = best
        assert x[0] == 1.0  # reward forces the buy
        violation_penalty = e - (-10_000.0)
        assert violation_penalty >= lam * 50.0**2 - 1e-9

    def test_bad_params(self):
        base = QuboModel(1, np.zeros(1), {}, 0.0)
        c = LinearConstraint(np.array([1.0]), "le", 5.0)
        with pytest.raises(InputError):
            penalize_inequality(base, c, 0.0)
        with pytest.raises(InputError):
            penalize_inequality(base, c, 1.0, slack_granularity=0.0)


def _bits_for_value(weights, value):
    """Greedy decomposition; works for truncated-binary weight lists."""
    bits = [0] * len(weights)
    remaining = value
    for idx in sorted(range(len(weights)), key=lambda i: -weights[i]):
        if weights[idx] <= remaining:
            bits[idx] = 1
            remaining -= weights[idx]
    assert remaining == 0, f"{value} not representable by {weights}"
    return [float(b) for b in bits]


class TestEncodeInteger:
    def test_examples(self):
        assert encode_integer(5).bit_weights == (1, 2, 2)
        assert encode_integer(0).bit_weights == ()
        assert encode_integer(7).bit_weights == (1, 2, 4)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            encode_integer(-1)

    @given(st.integers(min_value=0, max_value=64))
    def test_surjective_and_bounded(self, upper):
        enc = encode_integer(upper)
        assert sum(enc.bit_weights) == upper
        reachable = set()
        for bits in itertools.product((0, 1), repeat=enc.width):
            reachable.add(sum(w * b for w, b in zip(enc.bit_weights, bits)))
        assert reachable == set(range(upper + 1))

    def test_lower_offset(self):
        enc = encode_integer(9, index=2, lower=4)
        assert (enc.index, enc.lower, enc.upper, enc.bit_weights) == (2, 4, 9, (1, 2, 2))
        decode = ConstrainedModel(QuboModel(3, np.zeros(3)), (), (enc,)).decode_integers
        assert decode([0, 0, 0]).tolist() == [4] and decode([1, 0, 1]).tolist() == [7] and decode([1, 1, 1]).tolist() == [9]
        assert {int(decode(b)[0]) for b in itertools.product((0, 1), repeat=3)} == set(range(4, 10))
        assert encode_integer(5, lower=5).bit_weights == ()

    def test_bad_lower_rejected(self):
        for lower in (-1, 6):
            with pytest.raises(InputError, match="lower bound"):
                encode_integer(5, lower=lower)


def make_stats(mu, sigma, tickers=None):
    mu = np.asarray(mu, dtype=float)
    tickers = tuple(tickers or (f"T{i}" for i in range(len(mu))))
    return AssetStats(tickers, mu, np.asarray(sigma, dtype=float))


class TestBuildMvoQubo:
    def test_zero_covariance_ranks_by_return(self):
        stats = make_stats([0.1, 0.2, 0.3], np.zeros((3, 3)))
        m = build_mvo_qubo(stats, q=1.0, B=2, lam=1.0)
        feasible = [x for x in all_states(3) if x.sum() == 2]
        best = min(feasible, key=lambda x: qubo_energy(m, x))
        assert best.tolist() == [0.0, 1.0, 1.0]

    def test_variance_breaks_return_ties(self):
        stats = make_stats([0.1, 0.1], np.diag([0.01, 0.04]))
        m = build_mvo_qubo(stats, q=1.0, B=1)
        best = min(all_states(2), key=lambda x: qubo_energy(m, x))
        assert best.tolist() == [1.0, 0.0]

    def test_weak_penalty_gives_infeasible_minimum(self):
        stats = make_stats([10.0, 10.0], np.zeros((2, 2)))
        m = build_mvo_qubo(stats, q=1.0, B=1, lam=0.1)
        best = min(all_states(2), key=lambda x: qubo_energy(m, x))
        assert best.sum() != 1  # constraint violated at the global minimum

    def test_auto_penalty_keeps_minimum_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = rng.normal(0, 0.01, (n, n))
            sigma = A @ A.T
            stats = make_stats(rng.uniform(-0.002, 0.002, n), sigma)
            B = int(rng.integers(1, n + 1))
            m = build_mvo_qubo(stats, q=1.0, B=B)
            best = min(all_states(n), key=lambda x: qubo_energy(m, x))
            assert best.sum() == B

    def test_errors(self):
        stats = make_stats([0.1, 0.2], np.zeros((2, 2)))
        with pytest.raises(InputError):
            build_mvo_qubo(stats, q=1.0, B=3)
        with pytest.raises(InputError):
            build_mvo_qubo(stats, q=0.0, B=1)
        with pytest.raises(InputError):
            build_mvo_qubo(stats, q=1.0, B=1, lam=-1.0)


class TestAffordableShares:
    def test_count_at_the_cap_is_kept(self):
        counts = affordable_shares([1.0, 4.0], 2.0**62)
        assert counts.tolist() == [2**62, 2**60] and counts.dtype == np.int64

    @pytest.mark.parametrize("closes", [[1.0, 1e-5, 2e-5], [1.0, 1e-300]])
    def test_count_past_int64_room_rejected(self, closes):
        # 1e15 / 1e-5 = 1e20 shares, past int64; 1e15 / 1e-300 is past the float range
        message = f"budget 1000000000000000.0 buys more than 2**62 shares at close {closes[1]:g}"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            affordable_shares(closes, 1e15)


class TestBuildMptModel:
    def test_share_bounds(self):
        stats = make_stats([0.1, 0.1], np.zeros((2, 2)))
        cm = build_mpt_model(stats, [30.0, 40.0], budget=100.0, q=1.0)
        assert [e.upper for e in cm.encodings] == [3, 2]

    def test_single_asset_spends_fully(self):
        stats = make_stats([0.1], [[0.0]])
        cm = build_mpt_model(stats, [50.0], budget=100.0, q=1.0)
        best = None
        for bits in itertools.product((0, 1), repeat=cm.total_bits):
            x = np.array(bits, dtype=float)
            if not cm.constraints[0].satisfied_by(x, 1e-9):
                continue
            e = qubo_energy(cm.objective, x)
            if best is None or e < best[0]:
                best = (e, cm.decode_integers(x))
        assert best[1] == [2]

    def test_huge_risk_aversion_buys_nothing(self):
        stats = make_stats([0.1], [[0.5]])
        cm = build_mpt_model(stats, [50.0], budget=100.0, q=1e9)
        best = min(
            (np.array(b, dtype=float) for b in itertools.product((0, 1), repeat=cm.total_bits)),
            key=lambda x: qubo_energy(cm.objective, x),
        )
        assert cm.decode_integers(best) == [0]

    def test_errors(self):
        stats = make_stats([0.1], [[0.0]])
        with pytest.raises(InputError):
            build_mpt_model(stats, [-1.0], budget=100.0, q=1.0)
        with pytest.raises(InputError):
            build_mpt_model(stats, [50.0], budget=0.0, q=1.0)

    def test_batched_decode_matches_each_row(self):
        # every row of a 2-D bit array decodes as that row alone, and as lower
        # plus the weighted bits of its encoding; the band has nonzero lower bounds
        stats = make_stats([0.1, 0.2, 0.05], np.diag([0.01, 0.02, 0.03]))
        cm = build_mpt_model(stats, [30.0, 45.0, 20.0], 1000.0, 1e-3, [2, 0, 5], [5, 3, 12])
        X = np.array(all_states(cm.total_bits))
        batch = cm.decode_integers(X)
        assert batch.shape == (len(X), 3) and batch.dtype == np.int64
        starts = np.cumsum([0] + [e.width for e in cm.encodings])
        for x, row in zip(X, batch):
            expected = [e.lower + int(x[a:b] @ e.bit_weights) for e, a, b in zip(cm.encodings, starts, starts[1:])]
            assert row.tolist() == cm.decode_integers(x).tolist() == expected
        with pytest.raises(InputError, match="expected 7 bits"):
            cm.decode_integers(X[:, :6])

    def test_band_energy_is_dollar_objective(self):
        rng = np.random.default_rng(8)
        n = 3
        A = rng.normal(0, 0.3, (n, n))
        stats = make_stats(rng.uniform(-0.1, 0.4, n), A @ A.T)
        prices = rng.uniform(20.0, 90.0, n)
        budget, q = 1000.0, 1e-3
        lower, upper = [2, 0, 5], [5, 3, 8]
        cm = build_mpt_model(stats, prices, budget, q, lower, upper)
        assert [(e.lower, e.upper) for e in cm.encodings] == list(zip(lower, upper))
        assert cm.total_bits == 6
        con = cm.constraints[0]
        assert con.relation == "le" and con.rhs == pytest.approx(budget - prices @ lower, rel=1e-15)
        seen = set()
        for x in all_states(cm.total_bits):
            counts = cm.decode_integers(x)
            seen.add(tuple(counts))
            exact = _dollar_objective(counts, prices, stats, q)
            assert qubo_energy(cm.objective, x) == pytest.approx(exact, rel=1e-9, abs=1e-12)
            assert con.coeffs @ x + prices @ lower == pytest.approx(prices @ counts, rel=1e-12)
        assert seen == set(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper))))

    def test_default_bounds_are_affordable_range(self):
        stats = make_stats([0.1, 0.2], np.diag([0.01, 0.02]))
        default = build_mpt_model(stats, [30.0, 40.0], 100.0, 1.0)
        explicit = build_mpt_model(stats, [30.0, 40.0], 100.0, 1.0, [0, 0], [3, 2])
        assert default.encodings == explicit.encodings
        assert np.array_equal(default.objective.linear, explicit.objective.linear)
        assert np.array_equal(default.objective.quadratic, explicit.objective.quadratic)
        assert np.array_equal(default.constraints[0].coeffs, explicit.constraints[0].coeffs)
        assert default.objective.offset == explicit.objective.offset == 0.0
        assert default.constraints[0].rhs == explicit.constraints[0].rhs == 100.0

    def test_band_errors(self):
        stats = make_stats([0.1, 0.2], np.zeros((2, 2)))
        with pytest.raises(InputError, match="more than the budget"):
            build_mpt_model(stats, [30.0, 40.0], 100.0, 1.0, [2, 2], [3, 2])
        with pytest.raises(InputError, match="match the number of assets"):
            build_mpt_model(stats, [30.0, 40.0], 100.0, 1.0, [0], [3])
        with pytest.raises(InputError, match="lower bound"):
            build_mpt_model(stats, [30.0, 40.0], 100.0, 1.0, [3, 0], [2, 2])


class TestModelDump:
    def test_builders_are_pure(self):
        stats = make_stats([0.1, 0.2], np.diag([0.01, 0.02]))
        m1 = build_mvo_qubo(stats, q=1.5, B=1)
        m2 = build_mvo_qubo(stats, q=1.5, B=1)
        assert np.array_equal(m1.linear, m2.linear)
        assert np.array_equal(m1.quadratic, m2.quadratic)
        assert m1.offset == m2.offset
