"""Gibbs sampler for the mixture-of-low-rank-factorizations model.

Conjugacy comes from Polya-Gamma augmentation: given omega_il ~ PG(1, S_l)
tilted at the subject's component similarity, every Bernoulli edge factor
becomes Gaussian in (Z, factors). One sweep updates, in order:

    assignments -> omega -> Z -> factors -> mixing weights and T -> pY1

Assignments are drawn with omega collapsed out (plain Bernoulli
likelihoods) and omega is refreshed immediately afterwards, which together
amount to a joint draw of (assignments, omega) from their conditional; the
remaining blocks are standard conjugate conditionals. The omega block
returns only the per-component sums W (H, L) that Z and the factors read.
Factor updates run in scaled coordinates Xbar = X sqrt(lambda) so the
shrinkage auxiliaries theta stay conjugate without changing the
similarities. Given W the components' factor conditionals are
independent, so the factor block is batched across components. The
sequential node scan runs on the occupied components only, one stacked
(k, R, R) Cholesky factorization per node for the k occupied ones; an
empty component's rows are drawn directly from their N(0, diag(lambda_h))
prior. The column-swap and theta scans then run on all H components at
once.
The sweep runs on plain arrays (AugmentedState); parameter objects are
built only at the boundaries. The state carries the subjects' (n, H)
log-likelihoods under S, computed once per sweep: the next sweep's
assignment draw and the log joint of the trace both read them.

All randomness flows through one Generator in a fixed order, so a seeded
run is reproducible bit for bit.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .core import (MixtureParameters, NetworkObservation, _categorical,
                   _component_log_liks, _deviations, _is_binary, edge_index_map)
from .pg import polya_gamma
from .priors import (HyperParameters, _draw_weights_and_T, _theta_shapes,
                     lam_from_theta, log_prior_from_arrays, sample_prior)

__all__ = [
    "SamplerConfig",
    "CohortData",
    "AugmentedState",
    "PosteriorDraws",
    "update_assignments",
    "update_omega",
    "update_Z",
    "update_factors",
    "update_weights_and_T",
    "update_pY",
    "gibbs_sweep",
    "log_joint",
    "run_chain",
]


def _check_seed(seed) -> None:
    """Reject what numpy would refuse as a seed, naming the value."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length controls. kept draws = floor((n_iter - burn_in)/thin)."""

    n_iter: int = 5000
    burn_in: int = 1000
    thin: int = 4
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.burn_in < 0 or self.n_iter <= self.burn_in:
            raise ValueError(f"need 0 <= burn_in < n_iter, got "
                             f"burn_in={self.burn_in}, n_iter={self.n_iter}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        if self.n_draws < 1:
            raise ValueError("configuration keeps zero draws")

    @property
    def n_draws(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin


class CohortData:
    """Stacked cohort: edge matrix A (n, L), labels y (n,), subject ids.
    Edges and labels must be 0 or 1 and the ids unique.

    The checksum is a sha256 over a canonical byte serialization of
    (V, ids, labels, edges); archives store it so downstream commands can
    confirm they are looking at the cohort the chain was fit to.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray, subject_ids: tuple[str, ...],
                 V: int):
        labels = np.asarray(y)
        self.A = np.ascontiguousarray(A, dtype=np.float64)
        self.y = np.ascontiguousarray(labels, dtype=np.int64)
        self.subject_ids = tuple(subject_ids)
        self.V = int(V)
        self.L = edge_index_map(self.V).L
        if self.A.ndim != 2 or self.A.shape != (self.y.shape[0], self.L):
            raise ValueError("edge matrix shape does not match labels and V")
        if len(self.subject_ids) != self.y.shape[0]:
            raise ValueError("subject id count does not match labels")
        if not _is_binary(self.A):
            raise ValueError("edge matrix entries must be 0 or 1")
        if not _is_binary(labels):
            bad = np.unique(labels[(labels != 0) & (labels != 1)]).tolist()
            raise ValueError(f"labels must be 0 or 1, got {bad}")
        if len(set(self.subject_ids)) != len(self.subject_ids):
            raise ValueError("duplicate subject ids in cohort")
        self.checksum = self._checksum()

    @classmethod
    def from_observations(cls, observations) -> "CohortData":
        obs = list(observations)
        if not obs:
            raise ValueError("empty cohort")
        V = obs[0].V
        for o in obs:
            if not isinstance(o, NetworkObservation):
                raise TypeError("cohort entries must be NetworkObservation")
            if o.V != V:
                raise ValueError(f"subject {o.subject_id!r} has {o.V} nodes, "
                                 f"expected {V}")
        A = np.stack([o.edges for o in obs]).astype(np.float64)
        y = np.array([o.label for o in obs], dtype=np.int64)
        return cls(A, y, tuple(o.subject_id for o in obs), V)

    def _checksum(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(b"netmix-cohort-v1")
        hasher.update(np.uint32(self.V).tobytes())
        hasher.update(np.uint32(self.n).tobytes())
        for i, sid in enumerate(self.subject_ids):
            hasher.update(sid.encode("utf-8") + b"\x00")
            hasher.update(bytes([int(self.y[i])]))
            hasher.update(self.A[i].astype(np.uint8).tobytes())
        return hasher.hexdigest()

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n0(self) -> int:
        return int(np.sum(self.y == 0))

    @property
    def n1(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def single_group(self) -> bool:
        return self.n0 == 0 or self.n1 == 0


def as_cohort(data) -> CohortData:
    """Coerce a list of observations (or pass through a CohortData)."""
    if isinstance(data, CohortData):
        return data
    return CohortData.from_observations(data)


@dataclass
class AugmentedState:
    """Everything the sweep conditions on: Z (L,), scaled factors
    Xbar (H, V, R), shrinkage auxiliaries theta (H, R) with lambda =
    lam_from_theta(theta), weights nu (2, H), pY1, T, assignments (n,)
    in 0..H-1, the deviations D (H, L) of Xbar, so S = Z + D, and the
    log-likelihoods LL (n, H) = _component_log_liks(S, A) of the cohort's
    edge rows A. LL belongs to that cohort: a state moved to other data
    needs it recomputed."""

    Z: np.ndarray
    Xbar: np.ndarray
    theta: np.ndarray
    nu: np.ndarray
    pY1: float
    T: int
    assignments: np.ndarray
    D: np.ndarray
    LL: np.ndarray

    @classmethod
    def from_params(cls, params: MixtureParameters, theta: np.ndarray,
                    assignments: np.ndarray, A: np.ndarray) -> "AugmentedState":
        """State of a parameter object scored on edge rows A (n, L); theta
        is taken as given."""
        Xbar = params.X * np.sqrt(params.lam)[:, None, :]
        D = _deviations(Xbar, Xbar)
        return cls(params.Z.copy(), Xbar, np.array(theta, dtype=np.float64),
                   params.nu, params.pY1, params.T,
                   np.asarray(assignments, dtype=np.int64), D,
                   _component_log_liks(params.Z + D, A))

    @property
    def lam(self) -> np.ndarray:
        return lam_from_theta(self.theta)

    @property
    def X(self) -> np.ndarray:
        return self.Xbar / np.sqrt(self.lam)[:, None, :]

    def to_params(self) -> MixtureParameters:
        """The validated parameter object of this state."""
        return MixtureParameters(Z=self.Z, X=self.X, lam=self.lam, nu=self.nu,
                                 pY1=self.pY1, T=self.T)


def update_assignments(LL: np.ndarray, nu: np.ndarray, cohort: CohortData,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw assignments from Pr(G_i = h) proportional to nu_{y_i,h} times
    the Bernoulli likelihood exp(LL_ih) of subject i under component h, LL
    being the state's (n, H) log-likelihoods. Rows are only max-shifted
    before exp: _categorical normalizes them itself."""
    with np.errstate(divide="ignore"):
        lognu = np.log(nu)
    logpost = LL + lognu[cohort.y]
    logpost -= logpost.max(axis=1, keepdims=True)
    return _categorical(np.exp(logpost), rng.random(cohort.n))


def _component_sums(x: np.ndarray, assignments: np.ndarray,
                    H: int) -> np.ndarray:
    """(H, L) sums of the rows of x (n, L) by component: row h sums the
    rows i with assignments[i] == h and is zero for an empty component."""
    sums = np.zeros((H, x.shape[1]))
    for h in np.unique(assignments):
        sums[h] = x[assignments == h].sum(axis=0)
    return sums


def update_omega(S: np.ndarray, assignments: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw omega_il ~ PG(1, S_l of subject i's component) exactly and
    return its per-component sums W (H, L), W_h = sum_{i: G_i = h} omega_i.

    The tilts take only the H L distinct values of S, so the sampler gets S
    and the assignments, tables only the occupied components' tilts and
    gathers those tables itself; the n L draws are still one exact
    PG(1, .) variable per (subject, edge), accepted by the series test in
    ratio form."""
    return _component_sums(polya_gamma(S, rng, assignments), assignments,
                           S.shape[0])


def update_Z(D: np.ndarray, W: np.ndarray, cohort: CohortData,
             hyper: HyperParameters, rng: np.random.Generator) -> np.ndarray:
    """Conjugate normal update of the shared log-odds, edgewise.

    Posterior precision 1/z_var + sum_h W_hl; posterior mean is
    variance * (sum_i (a_il - 1/2) - sum_h W_hl D_hl + z_mean/z_var).
    """
    prec = 1.0 / hyper.z_var + W.sum(axis=0)
    # edge counts minus n/2: sums of halves, exact in float64
    resid = cohort.A.sum(axis=0) - 0.5 * cohort.n - (W * D).sum(axis=0)
    mean = (resid + hyper.z_mean / hyper.z_var) / prec
    return mean + rng.standard_normal(hyper.L) / np.sqrt(prec)


def update_factors(Xbar: np.ndarray, theta: np.ndarray, Z: np.ndarray,
                   W: np.ndarray, assignments: np.ndarray, cohort: CohortData,
                   hyper: HyperParameters,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Update of the scaled factors and shrinkage weights, batched across
    components.

    Given the omega sums W the components' conditionals are independent.
    An empty component has W = kappa = 0, so the conditional of its rows
    is the N(0, diag(lambda_h)) prior and they are drawn from it directly.
    The rows of the occupied components are conjugate normal, drawn in a
    sequential scan over nodes run on those components only (node v sees
    the new rows of nodes before it). Column swaps and theta follow on all
    H components; they change lambda but not Xbar, hence not the
    similarities. Draw order: the (V, H, R) node noise, then H uniforms
    per swap step, then H gammas per theta step. Returns new (Xbar, theta).
    """
    emap = edge_index_map(hyper.V)
    V, R, H = hyper.V, hyper.R, hyper.H
    shapes = _theta_shapes(hyper)
    n_h = np.bincount(assignments, minlength=H)
    occ, empty = np.flatnonzero(n_h), np.flatnonzero(n_h == 0)
    kappa = (_component_sums(cohort.A, assignments, H)[occ]
             - 0.5 * n_h[occ, None] - Z * W[occ])
    # (V, k, V): node v reads one contiguous (k, V) slab
    Wm = np.zeros((V, occ.size, V))
    Wm[emap.rows0, :, emap.cols0] = Wm[emap.cols0, :, emap.rows0] = W[occ].T
    Km = np.zeros((V, occ.size, V))
    Km[emap.rows0, :, emap.cols0] = Km[emap.cols0, :, emap.rows0] = kappa.T

    Xbar, theta = Xbar.copy(), theta.copy()
    lam = lam_from_theta(theta)
    prior_prec = np.zeros((occ.size, R, R))
    prior_prec[:, np.arange(R), np.arange(R)] = 1.0 / lam[occ]
    noise = rng.standard_normal((V, H, R, 1))
    Xs = Xbar[occ]
    XsT = Xs.transpose(0, 2, 1)  # a view: sees each node's new rows
    node_noise = noise[:, occ]

    # node-by-node Gaussian scan of the occupied components. With
    # P = C C^T, x = C^-T (C^-1 b + e) has mean P^-1 b and covariance P^-1.
    for v in range(V):
        P = prior_prec + XsT @ (Wm[v][:, :, None] * Xs)
        chol = np.linalg.cholesky(P)
        half = np.linalg.solve(chol, XsT @ Km[v][:, :, None]) + node_noise[v]
        Xs[:, v] = np.linalg.solve(chol.transpose(0, 2, 1), half)[..., 0]
    Xbar[occ] = Xs
    # empty components: the scan on P = diag(1/lam) and b = 0 would
    # compute noise / sqrt(1/lam); this is that value bit for bit,
    # which noise * sqrt(lam) is not
    root_prec = np.sqrt(1.0 / lam[empty])[:, None]
    Xbar[empty] = noise[..., 0][:, empty].transpose(1, 0, 2) / root_prec

    # Metropolis column swaps: the likelihood only sees the column sum
    # sum_r Xbar_r Xbar_r^T, so swapping adjacent columns is accepted on
    # the Gaussian prior ratio alone. Without this the active column can
    # get stuck in a low-lambda slot and the ordering never mixes.
    col_ss = (Xbar * Xbar).sum(axis=1)
    for j in range(R - 1):
        log_acc = (0.5 * (1.0 / lam[:, j] - 1.0 / lam[:, j + 1])
                   * (col_ss[:, j] - col_ss[:, j + 1]))
        swap = np.flatnonzero(np.log(rng.random(H)) < log_acc)
        Xbar[swap, :, j:j + 2] = Xbar[swap][:, :, [j + 1, j]]
        col_ss[swap, j:j + 2] = col_ss[swap][:, [j + 1, j]]

    # shrinkage scan: theta_m | rest with the other thetas current. A
    # component whose lambda spans more than the float range overflows
    # the products; its rate is then not finite and the draw refused.
    for m in range(R):
        masked = theta.copy()
        masked[:, m] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            tau = np.cumprod(masked, axis=1)
            rate = 1.0 + 0.5 * np.sum(tau[:, m:] * col_ss[:, m:], axis=1)
        bad = np.flatnonzero(~np.isfinite(rate))
        if bad.size:
            raise ValueError(f"shrinkage rate of factor component index "
                             f"{bad[0]} is {rate[bad[0]]} at column index {m}: "
                             f"its lambda spans more than the float range")
        shape = shapes[m] + 0.5 * V * (R - m)
        theta[:, m] = rng.gamma(shape, 1.0 / rate)
    return Xbar, theta


def update_weights_and_T(assignments: np.ndarray, cohort: CohortData,
                         hyper: HyperParameters,
                         rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Joint draw of (nu, T) given assignments, with nu collapsed out of the
    T step (Dirichlet-multinomial marginals); nu is (2, H)."""
    H = hyper.H
    counts = np.bincount(cohort.y * H + assignments, minlength=2 * H)
    return _draw_weights_and_T(counts.reshape(2, H).astype(float), hyper, rng)


def update_pY(cohort: CohortData, hyper: HyperParameters,
              rng: np.random.Generator) -> float:
    """Beta(a1 + n1, a0 + n0) draw for the group-1 prevalence."""
    return float(rng.beta(hyper.a1 + cohort.n1, hyper.a0 + cohort.n0))


def gibbs_sweep(state: AugmentedState, cohort: CohortData, hyper: HyperParameters,
                rng: np.random.Generator) -> AugmentedState:
    """One full systematic scan; returns a new state, scored on cohort."""
    G = update_assignments(state.LL, state.nu, cohort, rng)
    W = update_omega(state.Z + state.D, G, rng)
    Z = update_Z(state.D, W, cohort, hyper, rng)
    Xbar, theta = update_factors(state.Xbar, state.theta, Z, W, G, cohort,
                                 hyper, rng)
    nu, T = update_weights_and_T(G, cohort, hyper, rng)
    pY1 = update_pY(cohort, hyper, rng)
    D = _deviations(Xbar, Xbar)
    return AugmentedState(Z=Z, Xbar=Xbar, theta=theta, nu=nu,
                          pY1=pY1, T=T, assignments=G, D=D,
                          LL=_component_log_liks(Z + D, cohort.A))


def log_joint(state: AugmentedState, cohort: CohortData,
              hyper: HyperParameters) -> float:
    """Complete-data log joint of (params, assignments, labels, networks),
    with omega marginalized out, the likelihood read from state.LL. Used
    for the convergence trace."""
    lp = log_prior_from_arrays(state.Z, state.X, state.theta, state.nu,
                               state.pY1, state.T, hyper)
    lp += float(state.LL[np.arange(cohort.n), state.assignments].sum())
    picked = state.nu[cohort.y, state.assignments]
    with np.errstate(divide="ignore"):
        lp += float(np.log(picked).sum())
    lp += float(cohort.n1 * np.log(state.pY1)
                + cohort.n0 * np.log1p(-state.pY1))
    return lp


@dataclass
class PosteriorDraws:
    """Thinned post-burn-in draws, stacked along axis 0.

    nu has shape (K, 2, H) with group index first; assignments are stored
    0-based. lam is not stored: the property derives the (K, H, R) stack
    from theta on each access, so per-draw readers slice theta instead.
    Edge probabilities are recomputed from Z, X and lam when needed. meta
    carries the dimensions, hyperparameters, sampler configuration, and
    the cohort checksum.
    """

    Z: np.ndarray
    X: np.ndarray
    theta: np.ndarray
    nu: np.ndarray
    pY1: np.ndarray
    T: np.ndarray
    assignments: np.ndarray
    log_joint_trace: np.ndarray
    meta: dict

    @property
    def n_draws(self) -> int:
        return self.Z.shape[0]

    @property
    def lam(self) -> np.ndarray:
        return lam_from_theta(self.theta)

    def params_at(self, k: int) -> MixtureParameters:
        """Rebuild the validated parameter object for draw k."""
        return MixtureParameters(Z=self.Z[k], X=self.X[k],
                                 lam=lam_from_theta(self.theta[k]),
                                 nu=self.nu[k], pY1=float(self.pY1[k]),
                                 T=int(self.T[k]))


def run_chain(data, hyper: HyperParameters, config: SamplerConfig) -> PosteriorDraws:
    """Run the Gibbs sampler and collect thinned post-burn-in draws.

    Initialization is a fresh prior draw. Single-group cohorts are fit
    normally but flagged in meta (the group-difference test needs both
    groups). Identical data, hyper, and config give identical results.
    Raises ValueError at the first sweep whose log joint is not finite.
    """
    cohort = as_cohort(data)
    if cohort.V != hyper.V:
        raise ValueError(f"cohort has V={cohort.V} nodes but "
                         f"hyperparameters say V={hyper.V}")
    rng = np.random.default_rng(config.seed)
    params, theta = sample_prior(hyper, rng)
    G = _categorical(params.nu[cohort.y], rng.random(cohort.n))
    state = AugmentedState.from_params(params, theta, G, cohort.A)

    K = config.n_draws
    V, R, H, L, n = hyper.V, hyper.R, hyper.H, hyper.L, cohort.n
    out = PosteriorDraws(
        Z=np.empty((K, L)),
        X=np.empty((K, H, V, R)),
        theta=np.empty((K, H, R)),
        nu=np.empty((K, 2, H)),
        pY1=np.empty(K),
        T=np.empty(K, dtype=np.int8),
        assignments=np.empty((K, n), dtype=np.int32),
        log_joint_trace=np.empty(config.n_iter),
        meta={
            "V": V, "R": R, "H": H, "L": L,
            "n": n, "n0": cohort.n0, "n1": cohort.n1,
            "single_group": cohort.single_group,
            "subject_ids": list(cohort.subject_ids),
            "data_checksum": cohort.checksum,
            "hyper": asdict(hyper),
            "sampler": asdict(config),
        },
    )

    k = 0
    for it in range(1, config.n_iter + 1):
        state = gibbs_sweep(state, cohort, hyper, rng)
        lj = log_joint(state, cohort, hyper)
        if not np.isfinite(lj):
            raise ValueError(
                f"log joint is {lj} at sweep {it} (dirichlet_conc="
                f"{hyper.dirichlet_conc:g}); a tiny concentration underflows "
                f"mixing weights to exact zeros")
        out.log_joint_trace[it - 1] = lj
        if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
            for name in ("Z", "X", "theta", "nu", "pY1", "T", "assignments"):
                getattr(out, name)[k] = getattr(state, name)
            k += 1
    assert k == K
    return out
