"""Model mathematics for populations of binary undirected networks.

A network on ``V`` labeled nodes is stored as the vector of its
``L = V(V-1)/2`` lower-triangular adjacency entries, ordered column-wise:
``(2,1), (3,1), ..., (V,1), (3,2), ..., (V,2), ..., (V,V-1)``.

Each mixture component ``h`` defines per-edge log-odds
``S(h) = Z + D(h)`` where ``Z`` is shared across components and
``D(h)_l = sum_r lambda(h)_r X(h)_vr X(h)_ur`` is a low-rank symmetric
deviation. Edge probabilities are ``pi(h) = logistic(S(h))`` and a network
in group ``y`` is generated by picking component ``h`` with probability
``nu_hy`` and drawing independent Bernoulli edges. ``MixtureParameters``
holds the factors of all components stacked: ``X`` is (H, V, R) and
``lam`` is (H, R); the mixing weights ``nu`` are (2, H), row y for group y.

Everything here is pure: randomness enters only through an explicit
``numpy.random.Generator``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeIndexMap",
    "edge_index_map",
    "edge_count",
    "node_count",
    "NetworkObservation",
    "MixtureParameters",
    "vectorize",
    "matricize",
    "logistic_map",
    "bernoulli_log_pmf",
    "component_log_pmf",
    "conditional_log_pmf",
    "marginal_log_pmf",
    "joint_log_pmf",
    "sample_network",
    "sample_cohort",
    "sample_joint_cohort",
]

# float64 logistic saturates to exactly 0/1 for |s| > ~37; keep pi in the
# open interval so log terms stay finite.
_PI_LO = np.nextafter(0.0, 1.0)
_PI_HI = np.nextafter(1.0, 0.0)


def _check_integers(obj, *names) -> None:
    """Refuse a field of obj that is not an int or a numpy integer (a bool
    is refused too), naming the field."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def edge_count(V: int) -> int:
    """Number of unordered node pairs, L = V(V-1)/2."""
    if V < 2:
        raise ValueError(f"need at least 2 nodes, got V={V}")
    return V * (V - 1) // 2


def node_count(L: int) -> int:
    """Inverse of edge_count; errors if L is not triangular."""
    V = int(round((1 + np.sqrt(1 + 8 * L)) / 2))
    if L < 1 or edge_count(max(V, 2)) != L:
        raise ValueError(f"L={L} is not V(V-1)/2 for any integer V")
    return V


def _edge_slot(V: int, v, u):
    """Zero-based linear index of edge (v, u), 1 <= u < v <= V, for ints or
    int arrays; unchecked and computed from V alone (no V x V table)."""
    return (u - 1) * V - u * (u - 1) // 2 + (v - u) - 1


class EdgeIndexMap:
    """Bijection between node pairs (v, u), v > u, and linear edge indices.

    Nodes are labeled 1..V; linear indices run 1..L, column-wise down the
    lower triangle. Zero-based companion arrays ``rows0``/``cols0`` (node
    positions of edge slot ``l-1``) are exposed for vectorized work, and so
    is the (V, V) boolean mask ``upper`` of the strict upper triangle: its
    row-major order is edge order, so ``A.T[upper]`` is the edge vector of
    a symmetric matrix A, which a mask gathers or scatters faster than the
    index pair.
    """

    def __init__(self, V: int):
        self.V = int(V)
        self.L = edge_count(self.V)
        self.cols0, self.rows0 = np.triu_indices(self.V, 1)
        self.upper = np.triu(np.ones((self.V, self.V), dtype=bool), 1)
        for index in (self.rows0, self.cols0, self.upper):
            index.setflags(write=False)

    def edge_index(self, v: int, u: int) -> int:
        """Linear index in 1..L of the edge between nodes v and u (1-based)."""
        if not (1 <= u < v <= self.V):
            raise ValueError(f"need 1 <= u < v <= V={self.V}, got (v={v}, u={u})")
        return _edge_slot(self.V, v, u) + 1

    def edge_pair(self, l: int) -> tuple[int, int]:
        """Node pair (v, u), v > u, of linear edge index l in 1..L."""
        if not (1 <= l <= self.L):
            raise ValueError(f"edge index {l} outside 1..L={self.L}")
        return int(self.rows0[l - 1]) + 1, int(self.cols0[l - 1]) + 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"EdgeIndexMap(V={self.V}, L={self.L})"


@functools.lru_cache(maxsize=64)
def edge_index_map(V: int) -> EdgeIndexMap:
    """Cached EdgeIndexMap for a node count."""
    return EdgeIndexMap(V)


def _is_binary(a: np.ndarray) -> bool:
    """Whether every entry of a is 0 or 1."""
    return bool(np.logical_or(a == 0, a == 1).all())


def vectorize(adjacency: np.ndarray) -> np.ndarray:
    """Lower-triangular column-wise vector of a symmetric binary adjacency.

    The diagonal is ignored. Raises on non-square, asymmetric, or
    non-binary off-diagonal input.
    """
    A = np.asarray(adjacency)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {A.shape}")
    V = A.shape[0]
    emap = edge_index_map(V)
    lower = A.T[emap.upper]
    upper = A[emap.upper]
    if not np.array_equal(lower, upper):
        bad = int(np.flatnonzero(lower != upper)[0])
        v, u = emap.edge_pair(bad + 1)
        raise ValueError(f"adjacency not symmetric at nodes ({v}, {u})")
    edges = np.asarray(lower)
    if not _is_binary(edges):
        raise ValueError("adjacency entries must be 0 or 1 off the diagonal")
    return edges.astype(np.int8)


def matricize(edges: np.ndarray, V: int | None = None) -> np.ndarray:
    """Symmetric adjacency with zero diagonal from an edge vector."""
    e = np.asarray(edges)
    if e.ndim != 1:
        raise ValueError("edge vector must be one-dimensional")
    if V is None:
        V = node_count(e.shape[0])
    emap = edge_index_map(V)
    if e.shape[0] != emap.L:
        raise ValueError(f"edge vector length {e.shape[0]} != L={emap.L} for V={V}")
    A = np.zeros((V, V), dtype=e.dtype)
    A[emap.upper] = e
    A.T[emap.upper] = e
    return A


@dataclass(frozen=True)
class NetworkObservation:
    """One subject: binary edge vector, group label, identifier."""

    edges: np.ndarray
    label: int
    subject_id: str

    def __post_init__(self):
        e = np.asarray(self.edges)
        if e.ndim != 1:
            raise ValueError("edges must be a 1-d vector")
        if not _is_binary(e):
            raise ValueError(f"non-binary edge values for subject {self.subject_id!r}")
        node_count(e.shape[0])  # validates triangular length
        object.__setattr__(self, "edges", e.astype(np.int8))
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")

    @property
    def V(self) -> int:
        return node_count(self.edges.shape[0])


def _deviations(XW: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(..., L) edge-wise forms sum_r XW_vr X_ur of stacks (..., V, R)."""
    emap = edge_index_map(X.shape[-2])
    return (XW @ np.swapaxes(X, -1, -2))[..., emap.rows0, emap.cols0]


_SIMPLEX_TOL = 1e-10


def _check_simplex(nu: np.ndarray, H: int) -> np.ndarray:
    """nu as a float (2, H) array whose rows are probability vectors."""
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (2, H):
        raise ValueError(f"nu must be (2, H)={2, H}, got {nu.shape}")
    if (nu < 0).any() or not np.isfinite(nu).all():
        raise ValueError("nu entries must be finite and nonnegative")
    sums = nu.sum(axis=1)
    if (np.abs(sums - 1.0) > _SIMPLEX_TOL).any():
        raise ValueError(f"nu rows must sum to 1 within {_SIMPLEX_TOL}, "
                         f"got {sums.tolist()!r}")
    return nu


def _check_label(y: int) -> int:
    if y not in (0, 1):
        raise ValueError(f"group label must be 0 or 1, got {y!r}")
    return int(y)


@dataclass(frozen=True)
class MixtureParameters:
    """Full generative state: shared log-odds Z (L,), node factors X
    (H, V, R) and nonnegative column weights lam (H, R) of every component,
    mixing weights nu (2, H) with row y for group y, group prevalence, and
    the dependence indicator T (T=0 forces nu[0] == nu[1] entrywise)."""

    Z: np.ndarray
    X: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    pY1: float
    T: int

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=np.float64)
        if Z.ndim != 1 or not np.isfinite(Z).all():
            raise ValueError("Z must be a finite 1-d vector")
        V = node_count(Z.shape[0])
        X = np.asarray(self.X, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        if X.ndim != 3 or X.shape[0] < 1 or X.shape[1] != V:
            raise ValueError(f"X must be (H >= 1, V={V}, R), got {X.shape}")
        H, R = X.shape[0], X.shape[2]
        if lam.shape != (H, R):
            raise ValueError(f"lam must be (H, R)={H, R}, got {lam.shape}")
        if not np.isfinite(X).all() or not np.isfinite(lam).all():
            raise ValueError("factors must be finite")
        if (lam < 0).any():
            raise ValueError("lam entries must be nonnegative")
        nu = _check_simplex(self.nu, H)
        if self.T not in (0, 1):
            raise ValueError(f"T must be 0 or 1, got {self.T!r}")
        if self.T == 0 and not np.array_equal(nu[0], nu[1]):
            raise ValueError("T=0 requires nu[0] == nu[1] entrywise")
        if not (0.0 < self.pY1 < 1.0):
            raise ValueError(f"pY1 must lie strictly in (0, 1), got {self.pY1!r}")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "nu", nu)

    @property
    def V(self) -> int:
        return self.X.shape[1]

    @property
    def L(self) -> int:
        return self.Z.shape[0]

    @property
    def H(self) -> int:
        return self.X.shape[0]

    @property
    def R(self) -> int:
        return self.X.shape[2]

    def similarities(self) -> np.ndarray:
        """(H, L) matrix of per-component edge log-odds S(h) = Z + D(h)."""
        return self.Z + _deviations(self.X * self.lam[:, None, :], self.X)

    def edge_probabilities(self) -> np.ndarray:
        """(H, L) matrix of per-component edge probabilities."""
        return logistic_map(self.similarities())

    def group_edge_probability(self, y: int) -> np.ndarray:
        """Marginal edge probabilities within group y: sum_h nu_hy pi(h)."""
        return self.nu[_check_label(y)] @ self.edge_probabilities()


def logistic_map(S: np.ndarray) -> np.ndarray:
    """Elementwise logistic 1/(1+exp(-S)), clipped to the open unit interval.

    Raises on non-finite input. The clip keeps log pi and log(1-pi) finite;
    it changes values only where float64 would round to exactly 0 or 1.
    """
    S = np.asarray(S, dtype=np.float64)
    if not np.isfinite(S).all():
        raise ValueError("log-odds must be finite")
    return np.clip(_expit(S), _PI_LO, _PI_HI)


def _expit(S):
    """Elementwise 1/(1+exp(-S)), unclipped. exp overflows below S = -709;
    the resulting inf maps to exactly 0, the correct limit."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-S))


def _logit(p):
    """Elementwise log(p / (1 - p)), the inverse of _expit."""
    return np.log(p / (1.0 - p))


def _check_edges(a: np.ndarray, L: int | None = None) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError("edge vector must be 1-d")
    if not _is_binary(a):
        raise ValueError("edge vector entries must be 0 or 1")
    if L is not None and a.shape[0] != L:
        raise ValueError(f"edge vector length {a.shape[0]} != {L}")
    return a.astype(np.float64)


def _check_probs(pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1:
        raise ValueError("probability vector must be 1-d")
    if not ((pi > 0.0) & (pi < 1.0)).all():
        raise ValueError("edge probabilities must lie strictly in (0, 1)")
    return pi


def bernoulli_log_pmf(y: int, p: float) -> float:
    """log Bernoulli(y; p) with the log(0) = -inf convention at p in {0,1}."""
    if y not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {y!r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    q = p if y == 1 else 1.0 - p
    return float(np.log(q)) if q > 0.0 else float("-inf")


def component_log_pmf(a: np.ndarray, pi: np.ndarray) -> float:
    """Log pmf of independent Bernoulli edges: sum a log pi + (1-a) log(1-pi)."""
    pi = _check_probs(pi)
    a = _check_edges(a, pi.shape[0])
    return float(a @ np.log(pi) + (1.0 - a) @ np.log1p(-pi))


def _component_log_liks(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(..., n, H) log-likelihoods sum_l A_il S_hl - softplus(S_hl) of edge
    rows A (n, L) under log-odds S (..., H, L); raises on non-finite S.
    softplus is max(s, 0) + log1p(e^-|s|), exact at saturated log-odds."""
    if not np.isfinite(S).all():
        raise ValueError("log-odds must be finite")
    softplus = np.maximum(S, 0.0) + np.log1p(np.exp(-np.abs(S)))
    return A @ np.swapaxes(S, -1, -2) - softplus.sum(axis=-1)[..., None, :]


def _log_mixture(comp_lp: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log sum_h w_h exp(comp_lp_h) over the last axis, weights broadcasting
    against comp_lp. Zero weights drop out exactly (their terms are masked
    before the max shift), and all-zero weights give -inf."""
    masked = np.where(weights > 0.0, comp_lp, -np.inf)
    m = masked.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return m[..., 0] + np.log(np.sum(weights * np.exp(masked - m), axis=-1))


def _mixture_log_pmf(a: np.ndarray, params: MixtureParameters,
                     weights: np.ndarray) -> float:
    a = _check_edges(a, params.L)
    comp_lp = _component_log_liks(params.similarities(), a[None])[0]
    return float(_log_mixture(comp_lp, weights))


def conditional_log_pmf(a: np.ndarray, params: MixtureParameters, y: int) -> float:
    """log p(a | y) = log sum_h nu_hy prod_l Bern(a_l; pi(h)_l)."""
    return _mixture_log_pmf(a, params, params.nu[_check_label(y)])


def marginal_log_pmf(a: np.ndarray, params: MixtureParameters) -> float:
    """log p(a) with component weights averaged over the group prevalence."""
    w = (1.0 - params.pY1) * params.nu[0] + params.pY1 * params.nu[1]
    return _mixture_log_pmf(a, params, w)


def joint_log_pmf(y: int, a: np.ndarray, params: MixtureParameters) -> float:
    """log p(y, a) = log Bern(y; pY1) + log p(a | y)."""
    return bernoulli_log_pmf(y, params.pY1) + conditional_log_pmf(a, params, y)


def _categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf categorical draws, one per row of unnormalized probs
    (..., H) and uniform u (...): the first h whose cumulative sum exceeds
    u times the row total. Rows of probs broadcast against u."""
    cum = np.cumsum(probs, axis=-1)
    idx = np.sum(cum <= u[..., None] * cum[..., -1:], axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def sample_network(pi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli edge vector with probabilities pi."""
    pi = _check_probs(pi)
    return (rng.random(pi.shape[0]) < pi).astype(np.int8)


def _draw_subjects(params: MixtureParameters, y: np.ndarray, u: np.ndarray,
                   U: np.ndarray):
    """Subjects with labels y (n,): component G_i is the categorical draw
    from nu[y_i] at uniform u_i, and edge l is present when U_il < pi(G_i)_l.
    Returns (observations with ids s0000, s0001, ..., assignments G)."""
    G = _categorical(params.nu[y], u)
    A = (U < params.edge_probabilities()[G]).astype(np.int8)
    obs = [NetworkObservation(edges=a, label=int(label), subject_id=f"s{i:04d}")
           for i, (a, label) in enumerate(zip(A, y))]
    return obs, G


def sample_cohort(params: MixtureParameters, n0: int, n1: int,
                  rng: np.random.Generator) -> list[NetworkObservation]:
    """Simulate a labeled cohort: n0 group-0 subjects then n1 group-1."""
    if n0 < 0 or n1 < 0 or n0 + n1 == 0:
        raise ValueError(f"need n0, n1 >= 0 with n0+n1 > 0, got ({n0}, {n1})")
    u, U = np.empty(n0 + n1), np.empty((n0 + n1, params.L))
    for rows in (slice(0, n0), slice(n0, None)):
        rng.random(out=u[rows])
        rng.random(out=U[rows])
    return _draw_subjects(params, np.repeat([0, 1], [n0, n1]), u, U)[0]


def sample_joint_cohort(params: MixtureParameters, n: int,
                        rng: np.random.Generator):
    """Simulate n subjects with labels drawn from the prevalence pY1.

    Returns (observations, component assignments). Used by procedures that
    need the full joint draw, e.g. prior-predictive checks.
    """
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    y = (rng.random(n) < params.pY1).astype(np.int64)
    U = rng.random((n, 1 + params.L))
    return _draw_subjects(params, y, U[:, 0], U[:, 1:])
