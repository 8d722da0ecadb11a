"""Prior sampling and log-density evaluation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist
from scipy.stats import dirichlet, gamma, norm

from netmix.core import joint_log_pmf, sample_joint_cohort
from netmix.priors import (HyperParameters, log_prior_from_arrays,
                           mixing_weights_log_prior, sample_prior)


def test_defaults():
    h = HyperParameters(V=20)
    assert (h.H, h.R) == (15, 10)
    assert (h.a0, h.a1) == (1.0, 1.0)
    assert (h.z_mean, h.z_var) == (0.0, 10.0)
    assert (h.mig_a1, h.mig_a2) == (2.5, 3.5)
    assert h.dirichlet_conc == pytest.approx(1.0 / 15)
    assert h.prior_T1 == 0.5
    assert h.L == 190


def test_validation():
    with pytest.raises(ValueError):
        HyperParameters(V=1)
    with pytest.raises(ValueError):
        HyperParameters(V=4, H=0)
    with pytest.raises(ValueError):
        HyperParameters(V=4, R=0)
    with pytest.raises(ValueError):
        HyperParameters(V=4, a0=0.0)
    with pytest.raises(ValueError):
        HyperParameters(V=4, z_var=-1.0)
    with pytest.raises(ValueError):
        HyperParameters(V=4, prior_T1=1.5)
    with pytest.raises(ValueError):
        HyperParameters(V=4, dirichlet_conc=0.0)
    for name in ("a0", "a1", "z_var", "mig_a1", "mig_a2", "dirichlet_conc"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive "
                                                 "and finite"):
                HyperParameters(V=4, **{name: value})
    # degenerate prior odds are allowed: they pin T
    assert HyperParameters(V=4, prior_T1=0.0).prior_T1 == 0.0
    assert HyperParameters(V=4, prior_T1=1.0).prior_T1 == 1.0


@pytest.mark.parametrize("kwargs, shown", [
    ({"V": 6, "H": 2.0}, "H must be an integer, got 2.0"),
    ({"V": 6, "R": 2.5}, "R must be an integer, got 2.5"),
    ({"V": 6.0}, "V must be an integer, got 6.0"),
    ({"V": 6, "H": True}, "H must be an integer, got True"),
])
def test_validation_refuses_non_integer_sizes(kwargs, shown):
    # before, these constructed and sample_prior raised a numpy TypeError
    with pytest.raises(ValueError, match=f"^{shown}$"):
        HyperParameters(**kwargs)
    sizes = HyperParameters(V=np.int64(6), H=np.int32(2), R=np.int64(3))
    assert sample_prior(sizes, np.random.default_rng(0))[0].X.shape == (2, 6, 3)


def test_sample_prior_shapes_and_support():
    hyper = HyperParameters(V=5, H=3, R=2)
    params, theta = sample_prior(hyper, np.random.default_rng(0))
    assert params.V == 5 and params.H == 3 and params.R == 2
    assert theta.shape == (3, 2)
    assert (theta > 0).all()
    assert np.allclose(params.lam, np.cumprod(1.0 / theta, axis=1),
                       rtol=1e-12)
    assert 0.0 < params.pY1 < 1.0
    pi = params.edge_probabilities()
    assert ((pi > 0) & (pi < 1)).all()


def test_sample_prior_degenerate_T():
    hyper0 = HyperParameters(V=4, H=2, R=1, prior_T1=0.0)
    hyper1 = HyperParameters(V=4, H=2, R=1, prior_T1=1.0)
    rng = np.random.default_rng(4)
    for _ in range(25):
        p0, _ = sample_prior(hyper0, rng)
        p1, _ = sample_prior(hyper1, rng)
        assert p0.T == 0 and np.array_equal(p0.nu[0], p0.nu[1])
        assert p1.T == 1


def test_shared_weights_under_T0():
    hyper = HyperParameters(V=4, H=4, R=1, prior_T1=0.0)
    params, _ = sample_prior(hyper, np.random.default_rng(2))
    assert np.array_equal(params.nu[0], params.nu[1])


def test_strong_shrinkage_kills_high_columns():
    # E[lam_3/lam_1] = E[1/theta_2] E[1/theta_3] = (a2 - 1)^-2
    hyper = HyperParameters(V=4, H=1, R=3, mig_a2=20.0)
    rng = np.random.default_rng(8)
    ratios = np.empty(10_000)
    for i in range(ratios.size):
        _, theta = sample_prior(hyper, rng)
        ratios[i] = 1.0 / (theta[0, 1] * theta[0, 2])
    assert ratios.mean() < 0.01


def test_flat_beta_prevalence():
    hyper = HyperParameters(V=4, H=1, R=1)
    rng = np.random.default_rng(13)
    m = np.mean([sample_prior(hyper, rng)[0].pY1 for _ in range(10_000)])
    assert abs(m - 0.5) < 0.02


def test_log_prior_density_matches_scipy():
    hyper = HyperParameters(V=4, H=2, R=2, z_mean=0.3, z_var=2.0,
                            mig_a1=2.0, mig_a2=3.0, a0=2.0, a1=1.5,
                            dirichlet_conc=0.7, prior_T1=0.4)
    rng = np.random.default_rng(21)
    params, theta = sample_prior(hyper, rng)

    expected = beta_dist.logpdf(params.pY1, hyper.a1, hyper.a0)
    expected += norm.logpdf(params.Z, hyper.z_mean,
                            np.sqrt(hyper.z_var)).sum()
    expected += norm.logpdf(params.X).sum()
    shapes = np.full(hyper.R, hyper.mig_a2)
    shapes[0] = hyper.mig_a1
    expected += gamma.logpdf(theta, shapes).sum()
    alpha = np.full(hyper.H, hyper.dirichlet_conc)
    if params.T == 1:
        expected += (np.log(hyper.prior_T1)
                     + dirichlet.logpdf(params.nu[0], alpha)
                     + dirichlet.logpdf(params.nu[1], alpha))
    else:
        expected += (np.log1p(-hyper.prior_T1)
                     + dirichlet.logpdf(params.nu[0], alpha))
    assert np.isclose(log_prior_from_arrays(params.Z, params.X, theta,
                                            params.nu, params.pY1, params.T,
                                            hyper),
                      expected, atol=1e-9, rtol=0)


def test_log_prior_density_column_sign_flip_invariant():
    hyper = HyperParameters(V=4, H=2, R=2)
    params, theta = sample_prior(hyper, np.random.default_rng(5))
    Xf = params.X.copy()
    Xf[0, :, 1] = -Xf[0, :, 1]
    a, b = (log_prior_from_arrays(params.Z, X, theta, params.nu, params.pY1,
                                  params.T, hyper) for X in (params.X, Xf))
    assert np.isclose(a, b, atol=1e-10, rtol=0)


def test_mixing_weights_prior_support():
    hyper = HyperParameters(V=4, H=2, R=1, dirichlet_conc=0.5)
    nu_a = np.array([0.3, 0.7])
    nu_b = np.array([0.6, 0.4])
    assert mixing_weights_log_prior(np.array([nu_a, nu_b]), 0, hyper) == -np.inf
    assert np.isfinite(mixing_weights_log_prior(np.array([nu_a, nu_b]), 1, hyper))
    assert np.isfinite(mixing_weights_log_prior(np.array([nu_a, nu_a]), 0, hyper))
    # simplex boundary scores -inf under conc < 1
    assert mixing_weights_log_prior(np.array([[1.0, 0.0], [1.0, 0.0]]), 0,
                                    hyper) == -np.inf
    with pytest.raises(ValueError):
        mixing_weights_log_prior(np.array([nu_a, nu_a]), 2, hyper)


def test_degenerate_prior_odds_density():
    hyper = HyperParameters(V=4, H=2, R=1, prior_T1=1.0)
    nu = np.array([0.5, 0.5])
    assert mixing_weights_log_prior(np.array([nu, nu]), 0, hyper) == -np.inf
    assert np.isfinite(mixing_weights_log_prior(np.array([nu, nu]), 1, hyper))


@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.floats(1.5, 4.0))
@settings(max_examples=30, deadline=None)
def test_theta_scaling_property(seed, m, c):
    # multiplying theta_m by c > 1 divides lam_r by c for every r >= m
    hyper = HyperParameters(V=4, H=1, R=3)
    _, theta = sample_prior(hyper, np.random.default_rng(seed))
    lam = np.cumprod(1.0 / theta[0])
    scaled = theta[0].copy()
    scaled[m] *= c
    lam2 = np.cumprod(1.0 / scaled)
    assert np.allclose(lam2[m:], lam[m:] / c, rtol=1e-12)
    assert np.allclose(lam2[:m], lam[:m], rtol=1e-12)
    assert (lam2 > 0).all()


def test_prior_draws_simulate_finite_joint():
    # prior draw -> cohort from that draw -> joint pmf stays finite
    hyper = HyperParameters(V=4, H=3, R=2)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params, _ = sample_prior(hyper, rng)
        pi = params.edge_probabilities()
        assert ((pi > 0) & (pi < 1)).all()
    for _ in range(50):
        params, _ = sample_prior(hyper, rng)
        obs, _ = sample_joint_cohort(params, 3, rng)
        for o in obs:
            lp = joint_log_pmf(o.label, o.edges, params)
            assert np.isfinite(lp)
