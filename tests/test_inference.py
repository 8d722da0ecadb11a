"""Gibbs sampler: full conditionals, sweep mechanics, and chain behavior."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import betaln, expit, logit
from scipy.stats import kendalltau

from netmix import inference, pg
from netmix.core import (MixtureParameters, _component_log_liks,
                         edge_index_map, sample_cohort)
from netmix.inference import (AugmentedState, CohortData, SamplerConfig,
                              as_cohort, gibbs_sweep,
                              log_joint, run_chain, update_assignments,
                              update_factors, update_omega, update_pY,
                              update_weights_and_T, update_Z)
from netmix.priors import (HyperParameters, _theta_shapes, lam_from_theta,
                           sample_prior)
from netmix.synthetic import shifted_mixture_truth

# ----------------------------------------------------------- helpers


def _flat_params(V):
    """One component at log-odds 0 on every edge."""
    return MixtureParameters(Z=np.zeros(V * (V - 1) // 2),
                             X=np.zeros((1, V, 1)), lam=np.zeros((1, 1)),
                             nu=np.ones((2, 1)), pY1=0.5, T=0)


def _two_level_params(p_low, p_high, V, nu0, nu1, T=1, pY1=0.5):
    """Two components with constant edge probabilities p_high (index 0)
    and p_low (index 1); the nonnegative weight carries the high side."""
    L = V * (V - 1) // 2
    gap = float(logit(p_high) - logit(p_low))
    return MixtureParameters(Z=np.full(L, float(logit(p_low))),
                             X=np.stack([np.ones((V, 1)), np.zeros((V, 1))]),
                             lam=np.array([[gap], [0.0]]),
                             nu=np.array([nu0, nu1], float), pY1=pY1, T=T)


def _state_for(params, theta, A, assignments=None):
    """State of params scored on edge rows A (n, L)."""
    G = np.zeros(A.shape[0]) if assignments is None else assignments
    return AugmentedState.from_params(params, theta, G, A)


def _empty_cohort(V):
    L = V * (V - 1) // 2
    return CohortData(A=np.zeros((0, L)), y=np.zeros(0, dtype=np.int64),
                      subject_ids=(), V=V)


def _cohort_from_edges(edge_rows, labels, V):
    A = np.atleast_2d(np.asarray(edge_rows, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    ids = tuple(f"s{i:03d}" for i in range(y.shape[0]))
    return CohortData(A=A, y=y, subject_ids=ids, V=V)


# ------------------------------------------------------ configuration


def test_sampler_config_draw_arithmetic():
    assert SamplerConfig(n_iter=5000, burn_in=1000, thin=4).n_draws == 1000
    assert SamplerConfig(n_iter=101, burn_in=100, thin=1).n_draws == 1
    assert SamplerConfig(n_iter=107, burn_in=100, thin=3).n_draws == 2


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_iter=100, burn_in=100)
    with pytest.raises(ValueError):
        SamplerConfig(n_iter=100, burn_in=-1)
    with pytest.raises(ValueError):
        SamplerConfig(n_iter=100, burn_in=50, thin=0)
    with pytest.raises(ValueError, match="zero draws"):
        SamplerConfig(n_iter=101, burn_in=100, thin=2)
    for seed, shown in ((-1, "-1"), (1.5, "1.5"), (True, "True"),
                        ("3", "'3'")):
        with pytest.raises(ValueError, match=rf"non-negative integer, got {shown}$"):
            SamplerConfig(seed=seed)
    assert SamplerConfig(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("kwargs, shown", [
    ({"n_iter": 10.5, "burn_in": 2}, "n_iter must be an integer, got 10.5"),
    ({"n_iter": 10, "burn_in": 2, "thin": 1.5},
     "thin must be an integer, got 1.5"),
    ({"n_iter": 10, "burn_in": 2.0}, "burn_in must be an integer, got 2.0"),
    ({"n_iter": 10, "burn_in": 2, "thin": True},
     "thin must be an integer, got True"),
])
def test_sampler_config_refuses_non_integer_counts(kwargs, shown):
    # before, these constructed and run_chain raised a TypeError
    with pytest.raises(ValueError, match=f"^{shown}$"):
        SamplerConfig(**kwargs)
    counts = SamplerConfig(n_iter=np.int64(10), burn_in=np.int32(2))
    assert counts.n_draws == 2


# ------------------------------------------------------------ cohort


def test_cohort_from_observations():
    params = _two_level_params(0.2, 0.8, 4, [1.0, 0.0], [0.0, 1.0])
    obs = sample_cohort(params, 3, 4, np.random.default_rng(0))
    cohort = CohortData.from_observations(obs)
    assert cohort.n == 7 and cohort.n0 == 3 and cohort.n1 == 4
    assert cohort.V == 4 and cohort.L == 6
    assert not cohort.single_group
    assert cohort.A.shape == (7, 6)
    assert as_cohort(cohort) is cohort
    assert as_cohort(obs).checksum == cohort.checksum


def test_cohort_checksum_sensitivity():
    base = _cohort_from_edges(np.zeros((2, 6)), [0, 1], 4)
    flipped = np.zeros((2, 6))
    flipped[0, 3] = 1.0
    assert _cohort_from_edges(flipped, [0, 1], 4).checksum != base.checksum
    relabeled = _cohort_from_edges(np.zeros((2, 6)), [1, 1], 4)
    assert relabeled.checksum != base.checksum
    assert relabeled.single_group
    same = _cohort_from_edges(np.zeros((2, 6)), [0, 1], 4)
    assert same.checksum == base.checksum


def test_cohort_validation():
    with pytest.raises(ValueError, match="empty"):
        CohortData.from_observations([])
    params = _two_level_params(0.2, 0.8, 4, [1.0, 0.0], [0.0, 1.0])
    obs = sample_cohort(params, 2, 2, np.random.default_rng(1))
    dup = obs + [obs[0]]
    with pytest.raises(ValueError, match="duplicate"):
        CohortData.from_observations(dup)
    with pytest.raises(ValueError):
        CohortData(A=np.zeros((2, 5)), y=np.zeros(2, dtype=np.int64),
                   subject_ids=("a", "b"), V=4)


@pytest.mark.parametrize("A, y, ids, pattern", [
    ([[0, 3, 0], [1, 0, 1]], [0, 1], ("a", "b"), "edge matrix entries must be 0 or 1"),
    ([[0, 1, 0], [1, 0, 1]], [0, 2], ("a", "b"), r"labels must be 0 or 1, got \[2\]"),
    ([[0, 1, 0], [1, 0, 1]], [-1, 1], ("a", "b"), r"labels must be 0 or 1, got \[-1\]"),
    ([[0, 1, 0], [1, 0, 1]], [0.5, 1], ("a", "b"), r"labels must be 0 or 1, got \[0.5\]"),
    ([[0, 1, 0], [1, 0, 1]], [0, 1], ("a", "a"), "duplicate subject ids"),
])
def test_cohort_data_checks_its_inputs(A, y, ids, pattern):
    with pytest.raises(ValueError, match=pattern):
        CohortData(A=np.array(A, dtype=np.float64), y=np.array(y), subject_ids=ids, V=3)


# ------------------------------------------------------- assignments


def test_assignments_single_component():
    V = 4
    params = _flat_params(V)
    cohort = _cohort_from_edges(np.eye(6)[:3], [0, 0, 1], V)
    state = _state_for(params, np.ones((1, 1)), cohort.A)
    G = update_assignments(state.LL, state.nu, cohort,
                           np.random.default_rng(1))
    assert np.array_equal(G, np.zeros(3))


def test_assignments_degenerate_weights():
    params = _two_level_params(0.2, 0.8, 4, [0.0, 1.0], [0.0, 1.0])
    cohort = _cohort_from_edges(np.eye(6)[:4], [0, 1, 0, 1], 4)
    state = _state_for(params, np.ones((2, 1)), cohort.A)
    for seed in range(20):
        G = update_assignments(state.LL, state.nu, cohort,
                               np.random.default_rng(seed))
        assert np.array_equal(G, np.ones(4))


def test_assignments_overwhelming_likelihood():
    # components at constant 0.9 vs 0.1, subject from the 0.9 one (V=20)
    V = 20
    params = _two_level_params(0.1, 0.9, V, [0.5, 0.5], [0.5, 0.5])
    rng = np.random.default_rng(3)
    a = (rng.random(params.L) < 0.9).astype(np.float64)
    cohort = _cohort_from_edges([a], [0], V)
    state = _state_for(params, np.ones((2, 1)), cohort.A)
    loglik = _component_log_liks(state.Z + state.D, cohort.A)[0] + np.log(0.5)
    post = np.exp(loglik - np.logaddexp(loglik[0], loglik[1]))
    assert post[0] > 1.0 - 1e-10
    for seed in range(50):
        G = update_assignments(state.LL, state.nu, cohort,
                               np.random.default_rng(seed))
        assert G[0] == 0


# ------------------------------------------------------------- omega


def test_omega_zero_tilt_moments():
    V = 4
    params = _flat_params(V)
    cohort = _cohort_from_edges(np.zeros((400, 6)), [0] * 200 + [1] * 200, V)
    state = _state_for(params, np.ones((1, 1)), cohort.A)
    S = state.Z + state.D
    W = update_omega(S, state.assignments, np.random.default_rng(2))
    assert W.shape == (1, 6)
    assert (W > 0).all()
    # W sums the 400 x 6 draws, so W.sum() / 2400 is their mean
    assert abs(W.sum() / 2400 - 0.25) < 0.01
    again = update_omega(S, state.assignments, np.random.default_rng(2))
    assert np.array_equal(W, again)


def test_omega_uses_assigned_component():
    # component 0 tilts every edge to |S| = logit(0.9), component 1 sits
    # at S = 0, so their rows must have means tanh(c/2)/(2c) and 1/4
    params = _two_level_params(0.5, 0.9, 4, [0.5, 0.5], [0.5, 0.5])
    n_half = 300
    cohort = _cohort_from_edges(np.zeros((2 * n_half, 6)),
                                [0] * n_half + [1] * n_half, 4)
    state = _state_for(params, np.ones((2, 1)), cohort.A,
                       assignments=[0] * n_half + [1] * n_half)
    W = update_omega(state.Z + state.D, state.assignments,
                     np.random.default_rng(6))
    c = float(logit(0.9))
    mean = W.sum(axis=1) / (n_half * 6)
    assert abs(mean[0] - np.tanh(c / 2) / (2 * c)) < 0.02
    assert abs(mean[1] - 0.25) < 0.02


def _subject_sums(x, G, H):
    """(H, L) sums of the rows of x by component, subject by subject in
    ascending order; an empty component's row is zero."""
    sums = np.zeros((H, x.shape[1]))
    for i, h in enumerate(G):
        sums[h] += x[i]
    return sums


def _omega_case(name):
    """(S, G) for the omega sums test: tilts on both sides of 1/t, only
    small tilts, a single component, or the extremes of the PG tests."""
    rng = np.random.default_rng(17)
    if name == "mixed":  # components 1 and 3 empty
        return rng.normal(0, 3, (4, 50)), rng.choice([0, 2], 200)
    if name == "small-only":  # |S| < 3 keeps every z below 1/t = 1.5625
        return rng.uniform(-3, 3, (3, 50)), rng.integers(0, 3, 120)
    if name == "one-component":
        return rng.normal(0, 3, (1, 50)), np.zeros(90, dtype=np.intp)
    # the extremes, with both signs; other tilts beyond ~1e307 are left out:
    # a draw there is ~1/z, its quarter subnormal, so the sums may round
    # differently (float max passes, as its draw 2**-1023 quarters exactly)
    S = rng.normal(0, 3, (3, 50))
    extremes = [1e-300, 1e154, 1e200, 1e300, np.finfo(np.float64).max]
    S[0, :5], S[2, 10:15] = extremes, np.negative(extremes)
    return S, rng.choice([0, 2], 150)


@pytest.mark.parametrize("block", [64, 4096])
@pytest.mark.parametrize("case", ["mixed", "small-only", "one-component",
                                  "extreme"])
def test_omega_sums_equal_the_subject_sums_of_the_draws(monkeypatch, block,
                                                        case):
    # rows of 50 entries: one per block at 64, 81 per block at 4096
    monkeypatch.setattr(pg, "_BLOCK_ENTRIES", block)
    S, G = _omega_case(case)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    W = update_omega(S, G, rng_a)
    expected = _subject_sums(pg.polya_gamma(S, rng_b, G), G, S.shape[0])
    assert np.array_equal(W, expected)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_omega_block_memory_does_not_grow_with_the_subjects():
    # 456 subjects at L = 2278 (the Desikan edge count): the omega block's
    # traced peak stays below half of one (n, L) float64 matrix
    n, L, H = 456, 2278, 15
    rng = np.random.default_rng(12)
    S, G = rng.normal(0, 3, (H, L)), rng.integers(0, H, n)
    update_omega(S[:, :2], G[:2], rng)  # one-time allocations stay untraced
    tracemalloc.start()
    try:
        update_omega(S, G, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * L * 8


@pytest.mark.parametrize("n,L,H,seed", [(40, 190, 4, 0), (114, 2278, 15, 1),
                                         (7, 3, 5, 2)])
def test_edge_counts_equal_the_component_sums(n, L, H, seed):
    # bit for bit: the counts are sums of 0/1 entries, exact in any order
    rng = np.random.default_rng(seed)
    A = (rng.random((n, L)) < 0.4).astype(np.float64)
    G = rng.integers(0, max(1, H - 2), n)  # the last two components empty
    sums = _subject_sums(A, G, H)
    occupied = np.unique(G)
    assert np.array_equal(inference._edge_counts(A, G, occupied),
                          sums[occupied])
    assert np.array_equal(inference._edge_counts(A, G, np.arange(H)), sums)


# ----------------------------------------------------------------- Z


def test_update_Z_no_data_is_prior():
    hyper = HyperParameters(V=4, H=1, R=1, z_mean=0.5, z_var=2.0)
    params = _flat_params(4)
    cohort = _empty_cohort(4)
    state = _state_for(params, np.ones((1, 1)), cohort.A)
    rng = np.random.default_rng(7)
    draws = np.concatenate([update_Z(state.D, np.zeros((1, 6)), cohort,
                                     hyper, rng)
                            for _ in range(2000)])
    assert abs(draws.mean() - 0.5) < 4 * np.sqrt(2.0 / draws.size)
    assert abs(draws.var() / 2.0 - 1.0) < 0.05


def test_update_Z_frozen_single_edge():
    # one subject, one edge, omega=1, a=1, D=0, z_mean=0, z_var=1:
    # posterior mean 0.25, variance 0.5
    hyper = HyperParameters(V=2, H=1, R=1, z_mean=0.0, z_var=1.0)
    cohort = _cohort_from_edges([[1.0]], [1], 2)
    D, W = np.zeros((1, 1)), np.ones((1, 1))
    z = update_Z(D, W, cohort, hyper, np.random.default_rng(123))
    expected = 0.25 + np.random.default_rng(123).standard_normal(1) / np.sqrt(2.0)
    assert np.allclose(z, expected, atol=1e-14)
    rng = np.random.default_rng(0)
    draws = np.array([update_Z(D, W, cohort, hyper, rng)[0]
                      for _ in range(10_000)])
    assert abs(draws.mean() - 0.25) < 0.03
    assert abs(draws.var() - 0.5) < 0.03


def test_update_Z_sign_of_sufficient_statistic():
    # six subjects in one flat component (D = 0), every omega = 1
    hyper = HyperParameters(V=4, H=1, R=1, z_mean=0.0, z_var=10.0)
    D, W = np.zeros((1, 6)), np.full((1, 6), 6.0)
    for fill, sign in ((1.0, 1.0), (0.0, -1.0)):
        cohort = _cohort_from_edges(np.full((6, 6), fill), [0, 0, 0, 1, 1, 1], 4)
        rng = np.random.default_rng(5)
        draws = np.stack([update_Z(D, W, cohort, hyper, rng)
                          for _ in range(200)])
        assert (sign * draws.mean(axis=0) > 0).all()


# ------------------------------------------------------------ factors


def test_update_factors_empty_component_is_prior():
    # with no data the joint kernel over (X, theta) leaves the prior
    # invariant, so one update from a fresh prior state is a prior draw:
    # X entries standard normal, E[lam_2/lam_1] = 1/(mig_a2 - 1)
    hyper = HyperParameters(V=4, H=1, R=2)
    cohort = _empty_cohort(4)
    rng = np.random.default_rng(31)
    reps = 3000
    X_draws = np.empty((reps, 8))
    ratio = np.empty(reps)
    for i in range(reps):
        params, theta = sample_prior(hyper, rng)
        state = _state_for(params, theta, cohort.A)
        Xbar, th = update_factors(state.Xbar, state.theta, state.Z,
                                  np.zeros((1, 6)), state.assignments,
                                  cohort, hyper, rng)
        X_draws[i] = (Xbar[0] / np.sqrt(np.cumprod(1.0 / th[0]))).ravel()
        ratio[i] = 1.0 / th[0, 1]
    assert np.abs(X_draws.mean(axis=0)).max() < 0.1
    cov = np.cov(X_draws, rowvar=False)
    assert np.abs(np.diag(cov) - 1.0).max() < 0.12
    off = cov[~np.eye(8, dtype=bool)]
    assert np.abs(off).max() < 0.1
    assert abs(ratio.mean() - 1.0 / 2.5) < 0.03


def test_update_factors_keeps_lam_consistent():
    hyper = HyperParameters(V=5, H=2, R=3)
    rng = np.random.default_rng(2)
    params, theta = sample_prior(hyper, rng)
    truth = _two_level_params(0.3, 0.7, 5, [0.5, 0.5], [0.5, 0.5])
    obs = sample_cohort(truth, 5, 5, rng)
    cohort = CohortData.from_observations(obs)
    state = _state_for(params, theta, cohort.A,
                       assignments=rng.integers(0, 2, 10))
    W = update_omega(state.Z + state.D, state.assignments, rng)
    before = (state.Xbar.copy(), state.theta.copy())
    Xbar, th = update_factors(state.Xbar, state.theta, state.Z, W,
                              state.assignments, cohort, hyper, rng)
    assert Xbar.shape == (2, 5, 3) and th.shape == (2, 3)
    assert (th > 0).all() and np.isfinite(Xbar).all()
    assert np.array_equal(state.Xbar, before[0])  # inputs left untouched
    assert np.array_equal(state.theta, before[1])
    new = replace(state, Xbar=Xbar, theta=th)
    lam = new.to_params().lam
    assert np.allclose(lam, np.cumprod(1.0 / th, axis=1), rtol=1e-10)
    assert (lam > 0).all()


def test_update_factors_node_conditional():
    # node 0 is scanned first, so its new row is drawn from N(b/P, 1/P)
    # given the input rows of the other nodes: P = 1/lambda + sum_u
    # w_0u x_u^2 and b = sum_u kappa_0u x_u. R = 1, so no swap step moves it
    hyper = HyperParameters(V=3, H=2, R=1)
    emap = edge_index_map(3)
    cohort = _cohort_from_edges([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]],
                                [0, 0, 1, 1], 3)
    G = np.zeros(4, dtype=np.int64)  # component 1 stays empty
    Xbar = np.array([[[0.8], [-1.3], [0.5]], [[0.3], [0.2], [-0.6]]])
    theta = np.array([[10.0], [1.0]])  # lambda = 0.1 on the occupied one
    Z = np.array([0.2, -0.4, 0.1])
    W = np.array([[1.5, 0.7, 2.0], [0.0, 0.0, 0.0]])
    kappa = cohort.A.sum(axis=0) - 0.5 * cohort.n - Z * W[0]
    P, b = 1.0 / 0.1, 0.0
    for l in range(hyper.L):
        r, c = emap.rows0[l], emap.cols0[l]
        if 0 in (r, c):
            x_u = Xbar[0, r + c, 0]  # the other end of edge l
            P += W[0, l] * x_u ** 2
            b += kappa[l] * x_u
    rng = np.random.default_rng(19)
    reps = 20_000
    draws = np.array([update_factors(Xbar, theta, Z, W, G, cohort, hyper,
                                     rng)[0][0, 0, 0] for _ in range(reps)])
    z_mean = (draws.mean() - b / P) / np.sqrt(1.0 / (P * reps))
    z_var = (draws.var(ddof=1) - 1.0 / P) / (np.sqrt(2.0 / (reps - 1)) / P)
    assert abs(z_mean) < 5 and abs(z_var) < 5, (z_mean, z_var)


class _Replay:
    """Serves update_factors' draws to the per-component reference loop.
    The block takes them from rng in this order: one (V, k, V + R) normal
    block for the k occupied components, one (|empty|, V, R) block for the
    empty ones, random(H) per swap step, then gamma(shape, (H,) scale) per
    theta step. The reference asks for them component by component."""

    def __init__(self, rng, hyper, occupied):
        V, H, R = hyper.V, hyper.H, hyper.R
        occupied = np.asarray(occupied)
        empty = np.setdiff1d(np.arange(H), occupied)
        self.noise = rng.standard_normal((V, occupied.size, V + R))
        self.prior = rng.standard_normal((empty.size, V, R))
        self.u = [rng.random(H) for _ in range(R - 1)]
        # Generator.gamma(shape, scale) is scale * standard_gamma(shape)
        shapes = _theta_shapes(hyper)
        self.g = [rng.standard_gamma(shapes[m] + 0.5 * V * (R - m), H)
                  for m in range(R)]
        self.V, self.R = V, R
        self.calls = {"node": 0, "prior": 0, "random": 0, "gamma": 0}

    def _next(self, kind):
        k = self.calls[kind]
        self.calls[kind] += 1
        return k

    def standard_normal(self, size):
        if size == self.V + self.R:  # an occupied component's node
            c, v = divmod(self._next("node"), self.V)
            return self.noise[v, c]
        return self.prior[self._next("prior")]  # an empty component's rows

    def random(self):
        h, j = divmod(self._next("random"), self.R - 1)
        return self.u[j][h]

    def gamma(self, shape, scale):
        h, m = divmod(self._next("gamma"), self.R)
        return scale * self.g[m][h]


def _reference_update_factors(Xbar, theta, Z, W, assignments, cohort,
                              hyper, rng):
    """The factor block one component at a time: a 2-D perturbation-form
    solve per (component, node), scalar swap and theta steps."""
    emap = edge_index_map(hyper.V)
    V, R, H = hyper.V, hyper.R, hyper.H
    shapes = _theta_shapes(hyper)
    n_h = np.bincount(assignments, minlength=H)
    kappa = (_subject_sums(cohort.A, assignments, H)
             - 0.5 * n_h[:, None] - Z * W)
    Wm = np.zeros((H, V, V))
    Wm[:, emap.rows0, emap.cols0] = Wm[:, emap.cols0, emap.rows0] = W
    Km = np.zeros((H, V, V))
    Km[:, emap.rows0, emap.cols0] = Km[:, emap.cols0, emap.rows0] = kappa

    Xbar, theta = Xbar.copy(), theta.copy()
    for h in range(H):
        Xh, theta_h = Xbar[h], theta[h]
        lam = np.cumprod(1.0 / theta_h)
        if n_h[h] == 0:
            Xh[:] = rng.standard_normal((V, R)) * np.sqrt(lam)
        else:
            for v in range(V):
                # x = P^-1 (b + eta), eta = lam^-1/2 e1 + Xh^T (sqrt(w) e2)
                w = Wm[h, v]
                e = rng.standard_normal(V + R)
                P = np.diag(1.0 / lam) + Xh.T @ (w[:, None] * Xh)
                rhs = (Xh.T @ (Km[h, v] + np.sqrt(w) * e[:V])
                       + e[V:] / np.sqrt(lam))
                Xh[v] = np.linalg.solve(P, rhs)
        col_ss = (Xh * Xh).sum(axis=0)
        for j in range(R - 1):
            log_acc = (0.5 * (1.0 / lam[j] - 1.0 / lam[j + 1])
                       * (col_ss[j] - col_ss[j + 1]))
            if np.log(rng.random()) < log_acc:
                Xh[:, [j, j + 1]] = Xh[:, [j + 1, j]]
                col_ss[[j, j + 1]] = col_ss[[j + 1, j]]
        for m in range(R):
            masked = theta_h.copy()
            masked[m] = 1.0
            tau = np.cumprod(masked)
            shape = shapes[m] + 0.5 * V * (R - m)
            rate = 1.0 + 0.5 * np.sum(tau[m:] * col_ss[m:])
            theta_h[m] = rng.gamma(shape, 1.0 / rate)
    return Xbar, theta


@pytest.mark.parametrize("V,H,R,n", [(68, 15, 10, 114), (6, 3, 1, 10),
                                     (6, 1, 3, 10)],
                         ids=["paper_shape", "R1", "H1"])
def test_update_factors_matches_per_component_reference(V, H, R, n):
    hyper = HyperParameters(V=V, H=H, R=R)
    rng = np.random.default_rng(V * 100 + H * 10 + R)
    params, theta = sample_prior(hyper, rng)
    A = (rng.random((n, hyper.L)) < 0.4).astype(np.float64)
    cohort = _cohort_from_edges(A, rng.integers(0, 2, n), V)
    # at paper shape only the first third of the components hold subjects
    G = rng.integers(0, max(1, H // 3), n)
    state = _state_for(params, theta, cohort.A, assignments=G)
    W = update_omega(state.Z + state.D, G, rng)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    Xbar, th = update_factors(state.Xbar, state.theta, state.Z, W, G, cohort,
                              hyper, rng)
    occupied = np.unique(G)
    replay = _Replay(ref_rng, hyper, occupied)
    Xref, thref = _reference_update_factors(state.Xbar, state.theta, state.Z,
                                            W, G, cohort, hyper, replay)
    assert replay.calls == {"node": occupied.size * V,
                            "prior": H - occupied.size,
                            "random": H * (R - 1), "gamma": H * R}
    assert np.array_equal(Xbar, Xref)
    assert np.array_equal(th, thref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _factor_inputs(V, H, R, occupied, n, seed):
    """Prior state, random cohort and fresh omega sums W with exactly the
    components in `occupied` holding subjects."""
    hyper = HyperParameters(V=V, H=H, R=R)
    rng = np.random.default_rng(seed)
    params, theta = sample_prior(hyper, rng)
    A = (rng.random((n, hyper.L)) < 0.4).astype(np.float64)
    cohort = _cohort_from_edges(A, rng.integers(0, 2, n), V)
    G = rng.permutation(np.asarray(occupied)[np.arange(n) % len(occupied)])
    state = _state_for(params, theta, cohort.A, assignments=G)
    W = update_omega(state.Z + state.D, G, rng)
    return state, W, cohort, hyper


# lambda = cumprod(1/theta) = 1e-300, 1e-150, 1, 1e150, 1e300: adjacent
# columns one factor 1e150 apart, so the swap and theta steps stay finite
_EXTREME_THETA = np.array([1e300, 1e-150, 1e-150, 1e-150, 1e-150])


@pytest.mark.parametrize("V,H,R,occupied,n,extreme", [
    (68, 15, 10, (4, 11), 114, False),
    (10, 9, 4, (0, 3, 7), 12, False),
    (20, 4, 3, (0, 1, 2, 3), 40, False),
    (6, 1, 3, (0,), 10, False),
    (6, 3, 1, (0, 2), 10, False),
    (10, 3, 5, (0, 2), 12, True),
], ids=["paper_2_of_15", "gaps", "all_occupied", "H1", "R1",
        "extreme_lam_empty"])
def test_update_factors_equals_the_replayed_reference(V, H, R, occupied, n,
                                                     extreme):
    # the stacked scan over the occupied components against the reference
    # over all H components one at a time, with the Generator left in the
    # state the block's draws leave it in
    state, W, cohort, hyper = _factor_inputs(V, H, R, occupied, n, seed=V + H)
    theta = state.theta.copy()
    if extreme:
        theta[1] = _EXTREME_THETA
        assert lam_from_theta(theta[1]).min() <= 1e-299
        assert lam_from_theta(theta[1]).max() >= 1e299
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    Xbar, th = update_factors(state.Xbar, theta, state.Z, W,
                              state.assignments, cohort, hyper, rng)
    Xref, thref = _reference_update_factors(
        state.Xbar, theta, state.Z, W, state.assignments, cohort, hyper,
        _Replay(ref_rng, hyper, occupied))
    assert np.array_equal(Xbar, Xref)
    assert np.array_equal(th, thref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.isfinite(Xbar).all() and (th > 0).all()


def test_update_factors_refuses_an_overflowing_shrinkage_rate():
    # lambda = 1e300, 1e150, 1, 1e-150, 1e-300 on an empty component: the
    # theta scan's products overflow, and that ends in one ValueError, not
    # in a RuntimeWarning and a component whose every lambda is inf
    state, W, cohort, hyper = _factor_inputs(10, 3, 5, (0, 2), 12, seed=13)
    theta = state.theta.copy()
    theta[1] = [1e-300, 1e150, 1e150, 1e150, 1e150]
    assert np.isfinite(lam_from_theta(theta[1])).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="component index 1 is inf"):
            update_factors(state.Xbar, theta, state.Z, W, state.assignments,
                           cohort, hyper, np.random.default_rng(7))


@pytest.mark.parametrize("H,occupied", [(15, (4, 11)), (4, (0, 1, 2, 3))],
                         ids=["2_of_15", "all_occupied"])
def test_update_factors_scans_the_occupied_components_only(monkeypatch, H,
                                                           occupied):
    V, R = 12, 3
    state, W, cohort, hyper = _factor_inputs(V, H, R, occupied, 20, seed=5)
    shapes = []
    solve = np.linalg.solve
    monkeypatch.setattr(inference.np.linalg, "solve",
                        lambda P, b: shapes.append(P.shape) or solve(P, b))

    def no_cholesky(P):
        raise AssertionError("the factor block factorizes a precision")

    monkeypatch.setattr(inference.np.linalg, "cholesky", no_cholesky)
    update_factors(state.Xbar, state.theta, state.Z, W, state.assignments,
                   cohort, hyper, np.random.default_rng(3))
    assert shapes == [(len(occupied), R, R)] * V


def test_sign_flip_does_not_change_downstream_updates():
    # flipping an X column's sign leaves the similarities, hence the
    # omega and Z conditionals, unchanged
    hyper = HyperParameters(V=4, H=1, R=2)
    rng = np.random.default_rng(9)
    params, theta = sample_prior(hyper, rng)
    Xf = params.X.copy()
    Xf[0, :, 0] = -Xf[0, :, 0]
    flipped = MixtureParameters(
        Z=params.Z, X=Xf, lam=params.lam,
        nu=params.nu, pY1=params.pY1, T=params.T)
    assert np.allclose(params.similarities(), flipped.similarities(),
                       atol=1e-12)
    cohort = _cohort_from_edges(np.eye(6)[:2], [0, 1], 4)
    s_a = _state_for(params, theta, cohort.A)
    s_b = _state_for(flipped, theta, cohort.A)
    assert np.array_equal(s_a.D, s_b.D)
    om_a = update_omega(s_a.Z + s_a.D, s_a.assignments, np.random.default_rng(4))
    om_b = update_omega(s_b.Z + s_b.D, s_b.assignments, np.random.default_rng(4))
    assert np.array_equal(om_a, om_b)
    z_a = update_Z(s_a.D, om_a, cohort, hyper, np.random.default_rng(4))
    z_b = update_Z(s_b.D, om_b, cohort, hyper, np.random.default_rng(4))
    assert np.array_equal(z_a, z_b)


# ------------------------------------------------------ weights and T


def _weights_state(counts0, counts1, V=4):
    """Assignments and cohort with the given per-group component counts."""
    G, y = [], []
    for h, c in enumerate(counts0):
        G += [h] * c
        y += [0] * c
    for h, c in enumerate(counts1):
        G += [h] * c
        y += [1] * c
    cohort = _cohort_from_edges(np.zeros((len(y), 6)), y, V)
    return np.array(G, dtype=np.int64), cohort


def _beta_moment_prob_t1(counts0, counts1, conc, prior_t1):
    """Independent route for H=2: the Dirichlet-multinomial sequence
    marginal is the Beta moment E[nu^k (1-nu)^m] = B(c+k, c+m)/B(c, c)."""

    def m(c):
        return betaln(conc + c[0], conc + c[1]) - betaln(conc, conc)

    c0 = np.asarray(counts0, float)
    c1 = np.asarray(counts1, float)
    log_t1 = np.log(prior_t1) + m(c0) + m(c1)
    log_t0 = np.log1p(-prior_t1) + m(c0 + c1)
    return float(expit(log_t1 - log_t0))


@pytest.mark.parametrize("counts0,counts1,bound,side", [
    ((5, 5), (5, 5), 0.5, "below"),    # equal counts favor H0
    ((10, 0), (0, 10), 0.95, "above"),  # disjoint support favors H1
])
def test_weights_and_T_posterior_probability(counts0, counts1, bound, side):
    hyper = HyperParameters(V=4, H=2, R=1, dirichlet_conc=0.5, prior_T1=0.5)
    G, cohort = _weights_state(counts0, counts1)
    prob = _beta_moment_prob_t1(counts0, counts1, 0.5, 0.5)
    if side == "below":
        assert prob < bound
    else:
        assert prob > bound
    n_rep = 4000
    hits = sum(update_weights_and_T(G, cohort, hyper,
                                    np.random.default_rng(s))[1]
               for s in range(n_rep))
    se = np.sqrt(prob * (1 - prob) / n_rep)
    assert abs(hits / n_rep - prob) < 4 * se + 1e-3


def test_weights_and_T_degenerate_prior():
    G, cohort = _weights_state((5, 5), (5, 5))
    for prior, expected in ((1.0, 1), (0.0, 0)):
        hyper = HyperParameters(V=4, H=2, R=1, dirichlet_conc=0.5,
                                prior_T1=prior)
        for seed in range(10):
            nu, T = update_weights_and_T(G, cohort, hyper,
                                         np.random.default_rng(seed))
            assert T == expected
            if T == 0:
                assert np.array_equal(nu[0], nu[1])


def test_weights_and_T_posterior_dirichlet_mean():
    # conditional on T=1, nu_y ~ Dirichlet(conc + counts_y)
    counts0, counts1 = (12, 2), (2, 12)
    hyper = HyperParameters(V=4, H=2, R=1, dirichlet_conc=0.5, prior_T1=0.5)
    G, cohort = _weights_state(counts0, counts1)
    nu0s = []
    for seed in range(3000):
        nu, T = update_weights_and_T(G, cohort, hyper,
                                     np.random.default_rng(seed))
        if T == 1:
            nu0s.append(nu[0, 0])
    assert len(nu0s) > 500
    expected = (0.5 + 12) / (0.5 + 12 + 0.5 + 2)
    assert abs(np.mean(nu0s) - expected) < 0.02


# ---------------------------------------------------------------- pY


def test_update_pY_posterior_beta():
    hyper = HyperParameters(V=4, H=1, R=1, a0=1.0, a1=1.0)
    y = [0] * 50 + [1] * 42
    cohort = _cohort_from_edges(np.zeros((92, 6)), y, 4)
    drawn = update_pY(cohort, hyper, np.random.default_rng(77))
    expected = float(np.random.default_rng(77).beta(43.0, 51.0))
    assert drawn == expected
    rng = np.random.default_rng(1)
    draws = np.array([update_pY(cohort, hyper, rng)
                      for _ in range(5000)])
    assert abs(draws.mean() - 43.0 / 94.0) < 0.003


def test_update_pY_no_data_is_prior():
    hyper = HyperParameters(V=4, H=1, R=1, a0=2.0, a1=3.0)
    drawn = update_pY(_empty_cohort(4), hyper, np.random.default_rng(5))
    expected = float(np.random.default_rng(5).beta(3.0, 2.0))
    assert drawn == expected


def test_update_pY_concentrates():
    hyper = HyperParameters(V=4, H=1, R=1)
    y = [1] * 5000
    cohort = _cohort_from_edges(np.zeros((5000, 6)), y, 4)
    rng = np.random.default_rng(2)
    draws = np.array([update_pY(cohort, hyper, rng)
                      for _ in range(200)])
    assert draws.min() > 0.99


# ------------------------------------------------------- sweep and chain


def _small_fit_inputs(seed=0, n0=6, n1=6):
    truth = _two_level_params(0.25, 0.75, 4, [1.0, 0.0], [0.0, 1.0])
    obs = sample_cohort(truth, n0, n1, np.random.default_rng(seed))
    cohort = CohortData.from_observations(obs)
    hyper = HyperParameters(V=4, H=2, R=1)
    return cohort, hyper


def test_gibbs_sweep_produces_valid_state():
    cohort, hyper = _small_fit_inputs()
    rng = np.random.default_rng(3)
    params, theta = sample_prior(hyper, rng)
    state = _state_for(params, theta, cohort.A,
                       assignments=rng.integers(0, 2, cohort.n))
    new = gibbs_sweep(state, cohort, hyper, rng)
    assert new.assignments.shape == (cohort.n,)
    assert ((new.assignments >= 0) & (new.assignments < hyper.H)).all()
    assert np.isfinite(log_joint(new, cohort, hyper))
    # D tracks the new factors; the parameter object validates the rest
    # (T=0 draws keep the weights tied)
    again = AugmentedState.from_params(new.to_params(), new.theta,
                                       new.assignments, cohort.A)
    assert np.allclose(again.D, new.D, atol=1e-10)
    # the carried likelihoods are those of the new state's S
    assert np.array_equal(new.LL, _component_log_liks(new.Z + new.D, cohort.A))
    assert new.T in (0, 1)


def test_run_chain_schedule_and_meta():
    cohort, hyper = _small_fit_inputs()
    config = SamplerConfig(n_iter=21, burn_in=20, thin=1, seed=4)
    draws = run_chain(cohort, hyper, config)
    assert draws.n_draws == 1
    assert draws.Z.shape == (1, 6)
    assert draws.X.shape == (1, 2, 4, 1)
    assert draws.nu.shape == (1, 2, 2)
    assert draws.log_joint_trace.shape == (21,)
    assert draws.meta["V"] == 4 and draws.meta["n"] == 12
    assert draws.meta["n0"] == 6 and draws.meta["n1"] == 6
    assert draws.meta["data_checksum"] == cohort.checksum
    assert draws.meta["sampler"]["seed"] == 4
    assert not draws.meta["single_group"]


def test_run_chain_deterministic():
    cohort, hyper = _small_fit_inputs(seed=1)
    config = SamplerConfig(n_iter=40, burn_in=10, thin=2, seed=9)
    a = run_chain(cohort, hyper, config)
    b = run_chain(cohort, hyper, config)
    for name in ("Z", "X", "theta", "nu", "pY1", "T", "assignments",
                 "log_joint_trace"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    c = run_chain(cohort, hyper, SamplerConfig(n_iter=40, burn_in=10,
                                               thin=2, seed=10))
    assert not np.array_equal(a.Z, c.Z)


def test_run_chain_scores_the_subjects_once_per_sweep(monkeypatch):
    # one evaluation for the initial state, then one per sweep, shared by
    # that sweep's log joint and the next sweep's assignment draw
    cohort, hyper = _small_fit_inputs()
    calls = []
    score = inference._component_log_liks
    monkeypatch.setattr(inference, "_component_log_liks",
                        lambda S, A: calls.append(1) or score(S, A))
    run_chain(cohort, hyper, SamplerConfig(n_iter=15, burn_in=5, thin=2, seed=2))
    assert len(calls) == 15 + 1


def test_run_chain_rejects_dimension_mismatch():
    cohort, _ = _small_fit_inputs()
    with pytest.raises(ValueError, match="V="):
        run_chain(cohort, HyperParameters(V=5, H=2, R=1),
                  SamplerConfig(n_iter=10, burn_in=5, thin=1))


def test_run_chain_rejects_non_finite_log_joint():
    # Dirichlet(1e-8 + counts) draws underflow to exact zeros for empty
    # components, so the log joint leaves the reals at the first sweep
    obs = sample_cohort(shifted_mixture_truth(8, seed=3).params, 6, 6,
                        np.random.default_rng(3))
    hyper = HyperParameters(V=8, H=3, R=2, dirichlet_conc=1e-8)
    with pytest.raises(ValueError,
                       match=r"at sweep 1 \(dirichlet_conc=1e-08\)"):
        run_chain(obs, hyper, SamplerConfig(n_iter=60, burn_in=10, thin=2,
                                            seed=3))


def test_run_chain_single_group_flagged():
    truth = _two_level_params(0.25, 0.75, 4, [1.0, 0.0], [0.0, 1.0])
    obs = sample_cohort(truth, 8, 0, np.random.default_rng(2))
    draws = run_chain(obs, HyperParameters(V=4, H=2, R=1),
                      SamplerConfig(n_iter=30, burn_in=10, thin=2, seed=0))
    assert draws.meta["single_group"]


def test_run_chain_draws_are_valid_parameters():
    cohort, hyper = _small_fit_inputs(seed=5)
    draws = run_chain(cohort, hyper,
                      SamplerConfig(n_iter=60, burn_in=20, thin=2, seed=1))
    assert draws.n_draws == 20
    for k in range(draws.n_draws):
        params = draws.params_at(k)  # constructor enforces the invariants
        if params.T == 0:
            assert np.array_equal(params.nu[0], params.nu[1])
    assert np.isfinite(draws.log_joint_trace).all()


def test_run_chain_trace_has_no_drift():
    cohort, hyper = _small_fit_inputs(seed=7, n0=10, n1=10)
    draws = run_chain(cohort, hyper,
                      SamplerConfig(n_iter=400, burn_in=100, thin=4, seed=3))
    tail = draws.log_joint_trace[200:]
    assert np.isfinite(tail).all()
    tau = kendalltau(np.arange(tail.size), tail)
    assert tau.pvalue > 0.01


def test_run_chain_recovers_group_probabilities():
    # well-specified recovery: posterior mean group edge probabilities
    # within 0.05 MAE of the generating truth at V=20, n=100
    truth = shifted_mixture_truth(20, seed=0)
    obs = sample_cohort(truth.params, 50, 50, np.random.default_rng(11))
    hyper = HyperParameters(V=20, H=3, R=2)
    draws = run_chain(obs, hyper,
                      SamplerConfig(n_iter=600, burn_in=200, thin=2, seed=0))
    est = {0: np.zeros(truth.pi0.size), 1: np.zeros(truth.pi0.size)}
    for k in range(draws.n_draws):
        pi = draws.params_at(k).edge_probabilities()
        for y in (0, 1):
            est[y] += draws.nu[k, y] @ pi
    for y, target in ((0, truth.pi0), (1, truth.pi1)):
        mae = np.abs(est[y] / draws.n_draws - target).mean()
        assert mae < 0.05, f"group {y}: MAE {mae:.4f}"
