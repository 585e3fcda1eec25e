"""Binary quadratic models and problem builders.

Two equivalent substrates are supported: QUBO over x in {0,1}^n and the
Ising form over spins s in {-1,+1}^n, connected by the exact substitution
x = (1 + s) / 2. Linear constraints are lowered into quadratic penalties,
integer share counts are expanded into weighted binaries, and the two
portfolio problems (cardinality-constrained selection and budgeted
integer shares) are assembled here.

Conventions:
- the quadratic part is one dense (n, n) float array that is zero on and
  below the diagonal: entry [i, j], i < j, couples variables i and j.
  Diagonal terms are folded into the linear vector because x_i^2 = x_i.
  Constructors also take the sparse form, a {(i, j): value} mapping.
- builders are pure: identical inputs give coefficient-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .marketdata import AssetStats


def _strict_upper(n: int, quadratic) -> np.ndarray:
    """Validated read-only (n, n) coupling array from a {(i, j): v} mapping or an array.

    An array input is copied, so the model never shares it with the caller.
    """
    if quadratic is None or isinstance(quadratic, Mapping):
        entries = dict(quadratic or {})
        keys = np.array(list(entries))
        if keys.size and keys.dtype.kind not in "iu":
            raise InputError("quadratic keys must be integer pairs (i, j)")
        i, j = keys.astype(np.int64).reshape(len(entries), 2).T
        bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
        if bad.size:
            k = bad[0]
            raise InputError(f"quadratic key ({i[k]}, {j[k]}) must satisfy 0 <= i < j < n={n}")
        U = np.zeros((n, n))
        U[i, j] = list(entries.values())
    else:
        U = np.array(quadratic, dtype=float)
        if U.shape != (n, n):
            raise InputError(f"quadratic has shape {U.shape}, expected ({n}, {n})")
        bad = np.argwhere(np.tril(U) != 0.0)
        if bad.size:
            i, j = bad[0]
            raise InputError(
                f"quadratic entry ({i}, {j}) must be zero on and below the diagonal, got {U[i, j]}"
            )
    bad = np.argwhere(~np.isfinite(U))
    if bad.size:
        i, j = bad[0]
        raise InputError(f"quadratic coefficient ({i}, {j}) must be finite, got {U[i, j]}")
    U.flags.writeable = False
    return U


def _finite_terms(name: str, values: np.ndarray, offset: float) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputError(f"{name}[{bad[0]}] must be finite, got {values[bad[0]]}")
    if not math.isfinite(offset):
        raise InputError(f"offset must be finite, got {offset}")


def _max_abs(linear: np.ndarray, upper: np.ndarray) -> float:
    return max(float(np.max(np.abs(linear), initial=0.0)), float(np.max(np.abs(upper), initial=0.0)))


@dataclass(frozen=True)
class QuboModel:
    """Quadratic objective over binary variables.

    energy(x) = offset + sum_i linear[i] x_i + sum_{i<j} quadratic[i,j] x_i x_j

    ``quadratic`` may be given as a {(i, j): value} mapping (i < j) or as an
    (n, n) array that is zero on and below the diagonal; it is stored as
    the array. ``linear`` and ``quadratic`` are read-only copies, never the
    caller's arrays.
    """

    n: int
    linear: np.ndarray
    quadratic: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        lin = np.zeros(self.n) if self.linear is None else np.array(self.linear, dtype=float)
        if lin.shape != (self.n,):
            raise InputError(f"linear has shape {lin.shape}, expected ({self.n},)")
        lin.flags.writeable = False
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", _strict_upper(self.n, self.quadratic))
        object.__setattr__(self, "offset", float(self.offset))
        _finite_terms("linear", lin, self.offset)

    def max_coefficient(self) -> float:
        """Largest coefficient magnitude across linear and quadratic terms."""
        return _max_abs(self.linear, self.quadratic)


@dataclass(frozen=True)
class IsingModel:
    """Spin-variable twin of :class:`QuboModel`, with ``J`` stored the same way.

    energy(s) = offset + sum_i h[i] s_i + sum_{i<j} J[i,j] s_i s_j
    """

    n: int
    h: np.ndarray
    J: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        h = np.zeros(self.n) if self.h is None else np.array(self.h, dtype=float)
        if h.shape != (self.n,):
            raise InputError(f"h has shape {h.shape}, expected ({self.n},)")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", _strict_upper(self.n, self.J))
        object.__setattr__(self, "offset", float(self.offset))
        _finite_terms("h", h, self.offset)

    def max_coefficient(self) -> float:
        return _max_abs(self.h, self.J)


@dataclass(frozen=True)
class LinearConstraint:
    """sum_i coeffs[i] x_i (== | <=) rhs over the model's binaries."""

    coeffs: np.ndarray
    relation: str
    rhs: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.relation not in ("eq", "le"):
            raise InputError(f"relation must be 'eq' or 'le', got {self.relation!r}")
        if c.ndim != 1 or not np.any(c != 0.0):
            raise InputError("constraint needs at least one nonzero coefficient")

    def satisfied_by(self, x: np.ndarray, tolerance: float = 1e-9):
        """Whether ``x`` satisfies the constraint; a 2-D ``x`` is tested row by row."""
        lhs = np.asarray(x) @ self.coeffs
        if self.relation == "eq":
            return np.abs(lhs - self.rhs) <= tolerance
        return lhs <= self.rhs + tolerance


@dataclass(frozen=True)
class IntegerEncoding:
    """Binary expansion of an integer variable in [lower, upper].

    The value is lower plus the weighted bits. Truncated binary weights
    (1, 2, ..., 2^(k-1), R): every value in [lower, upper] is reachable and
    no bit assignment exceeds upper, since the weights sum to
    upper - lower exactly.
    """

    index: int
    upper: int
    bit_weights: tuple[int, ...]
    lower: int = 0

    @property
    def width(self) -> int:
        return len(self.bit_weights)


@dataclass(frozen=True)
class SlackEncoding:
    """Slack variable appended by :func:`penalize_inequality`.

    Slack bits live at model indices [start, start + len(bit_weights));
    the slack value is granularity * sum(bit_weights[j] * b_j).
    """

    start: int
    granularity: float
    bit_weights: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.bit_weights)


@dataclass(frozen=True)
class ConstrainedModel:
    """Quadratic objective plus explicit linear constraints over encoded binaries."""

    objective: QuboModel
    constraints: tuple[LinearConstraint, ...]
    encodings: tuple[IntegerEncoding, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "encodings", tuple(self.encodings))
        for c in self.constraints:
            if len(c.coeffs) != self.objective.n:
                raise InputError("constraint length does not match objective variable count")

    @property
    def total_bits(self) -> int:
        return sum(e.width for e in self.encodings)

    def decode_integers(self, bits) -> np.ndarray:
        """The integers (encoding order) a bit vector, or each row of a 2-D array of them, encodes."""
        bits = np.asarray(bits)
        if bits.shape[-1:] != (self.total_bits,):
            raise InputError(f"expected {self.total_bits} bits, got {bits.shape[-1:]}")
        weights = np.zeros((self.total_bits, len(self.encodings)), dtype=np.int64)
        owner = np.repeat(np.arange(len(self.encodings)), [e.width for e in self.encodings])
        weights[np.arange(self.total_bits), owner] = [w for e in self.encodings for w in e.bit_weights]
        return bits.astype(np.int64) @ weights + [e.lower for e in self.encodings]


@dataclass(frozen=True)
class KSubsetModel:
    """q x'Sigma x - mu'x over the 0/1 x with exactly k ones, 1 <= k < n: the hybrid selection.

    No penalty holds the count at k; :func:`sampler.simulated_anneal`
    anneals it with swaps of a held name for a free one. ``mu`` and
    ``sigma`` are read-only copies, never the caller's arrays.
    """

    mu: np.ndarray
    sigma: np.ndarray
    q: float
    k: int

    def __post_init__(self):
        mu, sigma = np.array(self.mu, dtype=float), np.array(self.sigma, dtype=float)
        n = len(mu)
        if mu.shape != (n,) or sigma.shape != (n, n):
            raise InputError(f"mu {mu.shape} and sigma {sigma.shape} must be (n,) and (n, n)")
        if not 1 <= self.k < n:
            raise InputError(f"k-subset model needs 1 <= k < n, got k={self.k}, n={n}")
        for name, arr in (("mu", mu), ("sigma", sigma)):
            _finite_terms(name, arr.reshape(-1), 0.0)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "q", float(self.q))

    @property
    def n(self) -> int:
        return len(self.mu)


# ---------------------------------------------------------------------------
# energy evaluation


def qubo_energy(m: QuboModel, x) -> float:
    """Objective value at the binary assignment ``x``, a length-n array or sequence of 0/1."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (m.n,):
        raise InputError(f"state length {arr.shape} does not match n={m.n}")
    return m.offset + float(m.linear @ arr) + float(arr @ m.quadratic @ arr)


def ising_energy(m: IsingModel, s) -> float:
    """Energy at spin assignment ``s`` (entries must be -1 or +1)."""
    arr = np.asarray(s, dtype=float)
    if arr.shape != (m.n,):
        raise InputError(f"spin length {arr.shape} does not match n={m.n}")
    if np.any(np.abs(arr) != 1.0):
        raise InputError("spins must be -1 or +1")
    return m.offset + float(m.h @ arr) + float(arr @ m.J @ arr)


def quadratic_symmetric(m: QuboModel) -> np.ndarray:
    """Dense symmetric coupling matrix with zero diagonal."""
    return m.quadratic + m.quadratic.T


def flip_costs(m: QuboModel) -> np.ndarray:
    """Each variable's largest single-flip energy change, |a_i| + sum_j |B_ij|."""
    return np.abs(m.linear) + np.abs(quadratic_symmetric(m)).sum(axis=1)


def qubo_energies(m: QuboModel, X: np.ndarray) -> np.ndarray:
    """Vectorized energies for a batch of states (rows of ``X``)."""
    X = np.asarray(X, dtype=float)
    return m.offset + X @ m.linear + np.einsum("si,si->s", X @ m.quadratic, X)


# ---------------------------------------------------------------------------
# QUBO <-> Ising


def qubo_to_ising(m: QuboModel) -> IsingModel:
    """Exact spin form via x_i = (1 + s_i) / 2; the offset absorbs constants."""
    J = m.quadratic / 4.0
    h = m.linear / 2.0 + J.sum(axis=0) + J.sum(axis=1)
    offset = m.offset + float(np.sum(m.linear)) / 2.0 + float(J.sum())
    return IsingModel(m.n, h, J, offset)


def ising_to_qubo(m: IsingModel) -> QuboModel:
    """Exact binary form via s_i = 2 x_i - 1 (inverse of :func:`qubo_to_ising`)."""
    linear = 2.0 * m.h - 2.0 * (m.J.sum(axis=0) + m.J.sum(axis=1))
    offset = m.offset - float(np.sum(m.h)) + float(m.J.sum())
    return QuboModel(m.n, linear, 4.0 * m.J, offset)


# ---------------------------------------------------------------------------
# constraint penalties


def penalize_equality(m: QuboModel, c: LinearConstraint, lam: float) -> QuboModel:
    """Add lam * (coeffs . x - rhs)^2 to the objective.

    The expansion uses x_i^2 = x_i, so squared coefficients land in the
    linear vector. The penalty is exactly zero on feasible assignments and
    at least lam * (smallest nonzero violation)^2 otherwise.
    """
    if not lam > 0:
        raise InputError(f"penalty weight must be positive, got {lam}")
    if c.relation != "eq":
        raise InputError("penalize_equality requires an 'eq' constraint")
    if len(c.coeffs) != m.n:
        raise InputError("constraint length does not match model")
    pi, beta = c.coeffs, c.rhs
    linear = m.linear + lam * (pi * pi - 2.0 * beta * pi)
    quad = m.quadratic + np.triu(np.outer(2.0 * lam * pi, pi), 1)
    return QuboModel(m.n, linear, quad, m.offset + lam * beta * beta)


def penalize_inequality(
    m: QuboModel,
    c: LinearConstraint,
    lam: float,
    slack_granularity: float = 1.0,
) -> tuple[QuboModel, SlackEncoding]:
    """Lower coeffs . x <= rhs into a penalty using a binary-encoded slack.

    A slack value sigma in [0, rhs] at resolution ``slack_granularity`` is
    appended and the equality coeffs . x + sigma = rhs is penalized. Any
    assignment with coeffs . x <= rhs admits a slack setting within one
    granularity step of exact, so feasible states carry (near-)zero
    penalty; with rhs = 0 the slack is empty and the constraint degenerates
    to an equality.
    """
    if not lam > 0:
        raise InputError(f"penalty weight must be positive, got {lam}")
    if not slack_granularity > 0:
        raise InputError(f"slack granularity must be positive, got {slack_granularity}")
    if c.relation != "le":
        raise InputError("penalize_inequality requires a 'le' constraint")
    if c.rhs < 0:
        raise InputError("inequality rhs must be nonnegative")
    steps = int(math.floor(c.rhs / slack_granularity + 1e-12))
    enc = encode_integer(steps)
    slack = SlackEncoding(m.n, slack_granularity, enc.bit_weights)

    pad = (0, slack.width)
    extended = QuboModel(m.n + slack.width, np.pad(m.linear, pad), np.pad(m.quadratic, pad), m.offset)
    slack_coeffs = slack_granularity * np.array(slack.bit_weights, dtype=float)
    eq = LinearConstraint(np.concatenate([c.coeffs, slack_coeffs]), "eq", c.rhs)
    return penalize_equality(extended, eq, lam), slack


def encode_integer(upper: int, index: int = 0, lower: int = 0) -> IntegerEncoding:
    """Truncated-binary encoding of an integer variable in [lower, upper]."""
    if upper < 0:
        raise InputError(f"upper bound must be nonnegative, got {upper}")
    if not 0 <= lower <= upper:
        raise InputError(f"lower bound must be in [0, {upper}], got {lower}")
    upper, lower = int(upper), int(lower)
    span = upper - lower
    k = 0
    while (1 << (k + 1)) - 1 <= span:
        k += 1
    weights = [1 << b for b in range(k)]
    remainder = span - ((1 << k) - 1)
    if remainder > 0:
        weights.append(remainder)
    return IntegerEncoding(index, upper, tuple(weights), lower)


# ---------------------------------------------------------------------------
# problem builders


def default_selection_penalty(stats: AssetStats, q: float) -> float:
    """Penalty weight that makes any single-asset cardinality violation unprofitable.

    q * max|sigma_ii| + max|mu_i| + 1 exceeds the largest per-variable
    objective swing for statistics at everyday scales.
    """
    max_var = float(np.max(np.abs(np.diag(stats.sigma)))) if stats.n else 0.0
    max_mu = float(np.max(np.abs(stats.mu))) if stats.n else 0.0
    return q * max_var + max_mu + 1.0


def build_mvo_qubo(
    stats: AssetStats,
    q: float,
    B: int,
    lam: float | None = None,
) -> QuboModel:
    """Mean-variance asset selection as a QUBO.

    Objective: q x' Sigma x - mu' x + lam (1' x - B)^2 over x in {0,1}^n,
    so exactly B assets should be picked. Diagonal covariance terms fold
    into the linear part. ``lam=None`` uses
    :func:`default_selection_penalty`.
    """
    n = stats.n
    if not q > 0:
        raise InputError(f"risk aversion q must be positive, got {q}")
    if not 1 <= B <= n:
        raise InputError(f"cardinality B={B} must be in [1, {n}]")
    if lam is None:
        lam = default_selection_penalty(stats, q)
    if not lam > 0:
        raise InputError(f"penalty weight must be positive, got {lam}")
    linear = q * np.diag(stats.sigma) - stats.mu
    base = QuboModel(n, linear, 2.0 * q * np.triu(stats.sigma, 1), 0.0)
    card = LinearConstraint(np.ones(n), "eq", float(B))
    return penalize_equality(base, card, lam)


def affordable_shares(prices: Sequence[float], budget: float) -> np.ndarray:
    """Most whole shares of each asset that the budget buys on its own: floor(budget / p_i).

    A count above 2**62, past which int64 has no room for the share band and descent steps, raises InputError.
    """
    p = np.asarray(prices, dtype=float)
    cheap = p < budget / 2**62
    if cheap.any():
        raise InputError(f"budget {budget} buys more than 2**62 shares at close {p[cheap][0]:g}")
    return np.floor(budget / p + 1e-12).astype(np.int64)


def build_mpt_model(
    stats: AssetStats,
    prices: Sequence[float],
    budget: float,
    q: float,
    lower: Sequence[int] | None = None,
    upper: Sequence[int] | None = None,
) -> ConstrainedModel:
    """Budgeted integer-share portfolio problem over encoded binaries.

    Each asset gets an integer share count x_i in [lower_i, upper_i]
    (default [0, floor(budget / p_i)]), encoded as lower_i plus weighted
    bits; the objective is expressed in invested dollars y_i = p_i x_i:

        q * sum_ij sigma_ij y_i y_j - sum_i mu_i y_i

    The dollars y0 = p * lower held at the lower bounds are folded into the
    linear terms and the offset, so every state's energy is its exact
    dollar objective. The single inequality is on the bits: their spend is
    at most budget - p . lower (kept explicit; lower it into a penalty
    before sampling).
    """
    p = np.asarray(prices, dtype=float)
    n = stats.n
    if p.shape != (n,):
        raise InputError("price vector length does not match stats")
    if np.any(p <= 0):
        raise InputError("all prices must be positive")
    if not budget > 0:
        raise InputError(f"budget must be positive, got {budget}")
    if not q > 0:
        raise InputError(f"risk aversion q must be positive, got {q}")
    lo = np.zeros(n, dtype=np.int64) if lower is None else np.asarray(lower, dtype=np.int64)
    hi = affordable_shares(p, budget) if upper is None else np.asarray(upper, dtype=np.int64)
    if lo.shape != (n,) or hi.shape != (n,):
        raise InputError("share bound vectors must match the number of assets")
    y0 = p * lo
    rest = float(budget - y0.sum())
    if rest < 0:
        raise InputError(f"lower share bounds cost {y0.sum()}, more than the budget {budget}")

    encodings = []
    dollar: list[float] = []
    owner: list[int] = []
    for i in range(n):
        enc = encode_integer(int(hi[i]), index=i, lower=int(lo[i]))
        encodings.append(enc)
        for w in enc.bit_weights:
            dollar.append(p[i] * w)
            owner.append(i)

    nbits = len(dollar)
    c = np.asarray(dollar, dtype=float)
    own = np.asarray(owner, dtype=int)
    # M[t, u] = sigma[owner_t, owner_u] * c_t * c_u
    M = stats.sigma[np.ix_(own, own)] * np.outer(c, c)
    sigma_y0 = stats.sigma @ y0
    linear = -stats.mu[own] * c + q * np.diag(M) + 2.0 * q * sigma_y0[own] * c
    offset = q * float(y0 @ sigma_y0) - float(stats.mu @ y0)
    objective = QuboModel(nbits, linear, 2.0 * q * np.triu(M, 1), offset)
    budget_con = (LinearConstraint(c, "le", rest),) if nbits else ()
    return ConstrainedModel(objective, budget_con, tuple(encodings))
