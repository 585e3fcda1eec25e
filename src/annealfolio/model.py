"""Binary quadratic models and problem builders.

Two equivalent substrates are supported: QUBO over x in {0,1}^n and the
Ising form over spins s in {-1,+1}^n, connected by the exact substitution
x = (1 + s) / 2. Linear constraints are lowered into quadratic penalties,
integer share counts are expanded into weighted binaries, and the two
portfolio problems (cardinality-constrained selection and budgeted
integer shares) are assembled here.

Conventions:
- quadratic coefficient maps are strictly upper triangular (keys i < j);
  diagonal terms are folded into the linear vector because x_i^2 = x_i.
- builders are pure: identical inputs give coefficient-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError
from .marketdata import AssetStats


def _canonical_quadratic(n: int, quadratic) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for (i, j), v in dict(quadratic or {}).items():
        if not (0 <= i < j < n):
            raise InputError(f"quadratic key ({i}, {j}) must satisfy 0 <= i < j < n={n}")
        v = float(v)
        if not math.isfinite(v):
            raise InputError(f"quadratic coefficient ({i}, {j}) must be finite, got {v}")
        if v != 0.0:
            out[(i, j)] = v
    return out


def _finite_terms(name: str, values: np.ndarray, offset: float) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputError(f"{name}[{bad[0]}] must be finite, got {values[bad[0]]}")
    if not math.isfinite(offset):
        raise InputError(f"offset must be finite, got {offset}")


@dataclass(frozen=True)
class QuboModel:
    """Quadratic objective over binary variables.

    energy(x) = offset + sum_i linear[i] x_i + sum_{i<j} quadratic[i,j] x_i x_j
    """

    n: int
    linear: np.ndarray
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        lin = np.zeros(self.n) if self.linear is None else np.asarray(self.linear, dtype=float)
        if lin.shape != (self.n,):
            raise InputError(f"linear has shape {lin.shape}, expected ({self.n},)")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", _canonical_quadratic(self.n, self.quadratic))
        object.__setattr__(self, "offset", float(self.offset))
        _finite_terms("linear", lin, self.offset)

    def max_coefficient(self) -> float:
        """Largest coefficient magnitude across linear and quadratic terms."""
        m = float(np.max(np.abs(self.linear))) if self.n else 0.0
        if self.quadratic:
            m = max(m, max(abs(v) for v in self.quadratic.values()))
        return m

    def to_dict(self) -> dict:
        """Deterministic dump: quadratic entries sorted by (i, j)."""
        return {
            "n": self.n,
            "linear": [float(v) for v in self.linear],
            "quadratic": [[i, j, self.quadratic[(i, j)]] for i, j in sorted(self.quadratic)],
            "offset": self.offset,
        }


@dataclass(frozen=True)
class IsingModel:
    """Spin-variable twin of :class:`QuboModel`.

    energy(s) = offset + sum_i h[i] s_i + sum_{i<j} J[i,j] s_i s_j
    """

    n: int
    h: np.ndarray
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        h = np.zeros(self.n) if self.h is None else np.asarray(self.h, dtype=float)
        if h.shape != (self.n,):
            raise InputError(f"h has shape {h.shape}, expected ({self.n},)")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", _canonical_quadratic(self.n, self.J))
        object.__setattr__(self, "offset", float(self.offset))
        _finite_terms("h", h, self.offset)

    def max_coefficient(self) -> float:
        m = float(np.max(np.abs(self.h))) if self.n else 0.0
        if self.J:
            m = max(m, max(abs(v) for v in self.J.values()))
        return m


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

    def satisfied_by(self, x: np.ndarray, tolerance: float = 1e-9) -> bool:
        lhs = float(self.coeffs @ x)
        if self.relation == "eq":
            return abs(lhs - self.rhs) <= tolerance
        return lhs <= self.rhs + tolerance

    def to_dict(self) -> dict:
        return {"coeffs": [float(v) for v in self.coeffs], "relation": self.relation, "rhs": self.rhs}


@dataclass(frozen=True)
class IntegerEncoding:
    """Binary expansion of an integer variable in [0, upper].

    Truncated binary weights (1, 2, ..., 2^(k-1), R): every value in
    [0, upper] is reachable and no bit assignment exceeds upper, since the
    weights sum to upper exactly.
    """

    index: int
    upper: int
    bit_weights: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.bit_weights)

    def decode(self, bits: Sequence[int]) -> int:
        if len(bits) != self.width:
            raise InputError(f"expected {self.width} bits, got {len(bits)}")
        return int(sum(w * int(b) for w, b in zip(self.bit_weights, bits)))

    def to_dict(self) -> dict:
        return {"index": self.index, "upper": self.upper, "bit_weights": list(self.bit_weights)}


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
    variable_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "encodings", tuple(self.encodings))
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        for c in self.constraints:
            if len(c.coeffs) != self.objective.n:
                raise InputError("constraint length does not match objective variable count")

    @property
    def total_bits(self) -> int:
        return sum(e.width for e in self.encodings)

    def decode_integers(self, bits: Sequence[int]) -> list[int]:
        """Recover the integer variables from a bit assignment (encoding order)."""
        out = []
        pos = 0
        for enc in self.encodings:
            out.append(enc.decode(bits[pos : pos + enc.width]))
            pos += enc.width
        return out

    def to_dict(self) -> dict:
        d = self.objective.to_dict()
        d["constraints"] = [c.to_dict() for c in self.constraints]
        d["encodings"] = [e.to_dict() for e in self.encodings]
        d["variable_names"] = list(self.variable_names)
        return d


# ---------------------------------------------------------------------------
# energy evaluation


def _as_bits(x, n: int) -> np.ndarray:
    if isinstance(x, str):
        if any(ch not in "01" for ch in x):
            raise InputError(f"bitstring may contain only 0/1, got {x!r}")
        arr = np.array([1.0 if ch == "1" else 0.0 for ch in x])
    else:
        arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise InputError(f"state length {arr.shape} does not match n={n}")
    return arr


def qubo_energy(m: QuboModel, x) -> float:
    """Objective value at binary assignment ``x`` (sequence or '01' string)."""
    arr = _as_bits(x, m.n)
    e = m.offset + float(m.linear @ arr)
    for (i, j), v in m.quadratic.items():
        e += v * arr[i] * arr[j]
    return e


def ising_energy(m: IsingModel, s) -> float:
    """Energy at spin assignment ``s`` (entries must be -1 or +1)."""
    arr = np.asarray(s, dtype=float)
    if arr.shape != (m.n,):
        raise InputError(f"spin length {arr.shape} does not match n={m.n}")
    if np.any(np.abs(arr) != 1.0):
        raise InputError("spins must be -1 or +1")
    e = m.offset + float(m.h @ arr)
    for (i, j), v in m.J.items():
        e += v * arr[i] * arr[j]
    return e


def quadratic_upper(m: QuboModel) -> np.ndarray:
    """Dense strictly upper-triangular coefficient matrix."""
    Q = np.zeros((m.n, m.n))
    for (i, j), v in m.quadratic.items():
        Q[i, j] = v
    return Q


def quadratic_symmetric(m: QuboModel) -> np.ndarray:
    """Dense symmetric coupling matrix with zero diagonal."""
    Q = quadratic_upper(m)
    return Q + Q.T


def qubo_energies(m: QuboModel, X: np.ndarray) -> np.ndarray:
    """Vectorized energies for a batch of states (rows of ``X``)."""
    X = np.asarray(X, dtype=float)
    Qu = quadratic_upper(m)
    return m.offset + X @ m.linear + np.einsum("si,si->s", X @ Qu, X)


# ---------------------------------------------------------------------------
# QUBO <-> Ising


def qubo_to_ising(m: QuboModel) -> IsingModel:
    """Exact spin form via x_i = (1 + s_i) / 2; the offset absorbs constants."""
    h = m.linear / 2.0
    J: dict[tuple[int, int], float] = {}
    offset = m.offset + float(np.sum(m.linear)) / 2.0
    for (i, j), v in m.quadratic.items():
        J[(i, j)] = v / 4.0
        h[i] += v / 4.0
        h[j] += v / 4.0
        offset += v / 4.0
    return IsingModel(m.n, h, J, offset)


def ising_to_qubo(m: IsingModel) -> QuboModel:
    """Exact binary form via s_i = 2 x_i - 1 (inverse of :func:`qubo_to_ising`)."""
    linear = 2.0 * m.h.copy()
    quad: dict[tuple[int, int], float] = {}
    offset = m.offset - float(np.sum(m.h))
    for (i, j), v in m.J.items():
        quad[(i, j)] = 4.0 * v
        linear[i] -= 2.0 * v
        linear[j] -= 2.0 * v
        offset += v
    return QuboModel(m.n, linear, quad, offset)


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
    quad = dict(m.quadratic)
    nz = np.nonzero(pi)[0]
    for a in range(len(nz)):
        for b in range(a + 1, len(nz)):
            i, j = int(nz[a]), int(nz[b])
            quad[(i, j)] = quad.get((i, j), 0.0) + 2.0 * lam * pi[i] * pi[j]
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

    n_ext = m.n + slack.width
    lin_ext = np.zeros(n_ext)
    lin_ext[: m.n] = m.linear
    extended = QuboModel(n_ext, lin_ext, dict(m.quadratic), m.offset)
    coeffs_ext = np.zeros(n_ext)
    coeffs_ext[: m.n] = c.coeffs
    for j, w in enumerate(slack.bit_weights):
        coeffs_ext[m.n + j] = slack_granularity * w
    eq = LinearConstraint(coeffs_ext, "eq", c.rhs)
    return penalize_equality(extended, eq, lam), slack


def encode_integer(upper: int, index: int = 0) -> IntegerEncoding:
    """Truncated-binary encoding of an integer variable in [0, upper]."""
    if upper < 0:
        raise InputError(f"upper bound must be nonnegative, got {upper}")
    upper = int(upper)
    weights: list[int] = []
    k = 0
    while (1 << (k + 1)) - 1 <= upper:
        k += 1
    weights = [1 << b for b in range(k)]
    remainder = upper - ((1 << k) - 1)
    if remainder > 0:
        weights.append(remainder)
    return IntegerEncoding(index, upper, tuple(weights))


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
    quad: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = 2.0 * q * stats.sigma[i, j]
            if v != 0.0:
                quad[(i, j)] = v
    base = QuboModel(n, linear, quad, 0.0)
    card = LinearConstraint(np.ones(n), "eq", float(B))
    return penalize_equality(base, card, lam)


def build_mpt_model(
    stats: AssetStats,
    prices: Sequence[float],
    budget: float,
    q: float,
) -> ConstrainedModel:
    """Budgeted integer-share portfolio problem over encoded binaries.

    Each asset gets an integer share count x_i in [0, floor(budget / p_i)]
    expanded into weighted bits; the objective is expressed in invested
    dollars y_i = p_i x_i:

        q * sum_ij sigma_ij y_i y_j - sum_i mu_i y_i

    subject to the single inequality sum_i y_i <= budget (kept explicit;
    lower it with :func:`penalize_inequality` before sampling).
    """
    p = np.asarray(prices, dtype=float)
    if p.shape != (stats.n,):
        raise InputError("price vector length does not match stats")
    if np.any(p <= 0):
        raise InputError("all prices must be positive")
    if not budget > 0:
        raise InputError(f"budget must be positive, got {budget}")
    if not q > 0:
        raise InputError(f"risk aversion q must be positive, got {q}")

    encodings = []
    names: list[str] = []
    dollar: list[float] = []
    owner: list[int] = []
    for i, ticker in enumerate(stats.tickers):
        upper = int(math.floor(budget / p[i] + 1e-12))
        enc = encode_integer(upper, index=i)
        encodings.append(enc)
        for j, w in enumerate(enc.bit_weights):
            names.append(f"{ticker}[{j}]")
            dollar.append(p[i] * w)
            owner.append(i)

    nbits = len(dollar)
    c = np.asarray(dollar)
    own = np.asarray(owner, dtype=int)
    # M[t, u] = sigma[owner_t, owner_u] * c_t * c_u
    if nbits:
        M = stats.sigma[np.ix_(own, own)] * np.outer(c, c)
        linear = -stats.mu[own] * c + q * np.diag(M)
    else:
        M = np.zeros((0, 0))
        linear = np.zeros(0)
    quad: dict[tuple[int, int], float] = {}
    for t in range(nbits):
        for u in range(t + 1, nbits):
            v = 2.0 * q * M[t, u]
            if v != 0.0:
                quad[(t, u)] = v
    objective = QuboModel(nbits, linear, quad, 0.0)
    if nbits:
        budget_con = (LinearConstraint(c, "le", float(budget)),)
    else:
        budget_con = ()
    return ConstrainedModel(objective, budget_con, tuple(encodings), tuple(names))
