"""Brute-force enumeration oracle and its agreement with the main path."""
import numpy as np
import pytest
from scipy.special import logit

from netmix.core import (MixtureParameters, conditional_log_pmf,
                         marginal_log_pmf)
from netmix.oracle import ExactPmfTable, enumerate_pmf, exact_cramers_v
from netmix.priors import HyperParameters, sample_prior
from netmix.testing import cramers_v


def _single_component_params(V, pi_value):
    L = V * (V - 1) // 2
    return MixtureParameters(Z=np.full(L, float(logit(pi_value))),
                             X=np.zeros((1, V, 1)), lam=np.zeros((1, 1)),
                             nu=np.ones((2, 1)), pY1=0.5, T=0)


def _two_level_params(p_low, p_high, V=4):
    # group 0 sits on the p_low component, group 1 on p_high
    L = V * (V - 1) // 2
    gap = float(logit(p_high) - logit(p_low))
    return MixtureParameters(Z=np.full(L, float(logit(p_low))),
                             X=np.stack([np.zeros((V, 1)), np.ones((V, 1))]),
                             lam=np.array([[0.0], [gap]]),
                             nu=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             pY1=0.5, T=1)


def test_uniform_single_component():
    table = enumerate_pmf(_single_component_params(4, 0.5))
    assert table.probs.shape == (64,)
    assert np.allclose(table.probs, 1.0 / 64.0, atol=1e-15)


def test_table_normalization_random_draws():
    rng = np.random.default_rng(0)
    hyper = HyperParameters(V=4, H=2, R=2)
    for _ in range(20):
        params, _ = sample_prior(hyper, rng)
        for y in (None, 0, 1):
            table = enumerate_pmf(params, y)
            assert abs(np.sum(table.probs, dtype=np.longdouble) - 1.0) < 1e-12


def test_edge_marginal_identity():
    rng = np.random.default_rng(3)
    hyper = HyperParameters(V=4, H=3, R=2)
    for _ in range(10):
        params, _ = sample_prior(hyper, rng)
        pi = params.edge_probabilities()
        for y in (0, 1):
            table = enumerate_pmf(params, y)
            expected = params.nu[y] @ pi
            got = np.array([table.edge_marginal(l) for l in range(1, 7)])
            assert np.allclose(got, expected, atol=1e-12, rtol=0)


def test_prob_of_indexing():
    params = _two_level_params(0.2, 0.8)
    table = enumerate_pmf(params, y=1)
    edges = np.array([1, 0, 1, 0, 0, 1], dtype=np.int8)
    # bit l-1 of the config encodes edge l
    config = 1 + 4 + 32
    assert table.prob_of(edges) == table.probs[config]
    direct = np.exp(conditional_log_pmf(edges, params, 1))
    assert np.isclose(table.prob_of(edges), direct, atol=1e-14)


def test_exact_cramers_v_zero_under_shared_weights():
    rng = np.random.default_rng(5)
    hyper = HyperParameters(V=4, H=2, R=1, prior_T1=0.0)
    params, _ = sample_prior(hyper, rng)
    assert np.allclose(exact_cramers_v(params), 0.0, atol=1e-12)


def test_exact_cramers_v_analytic_case():
    rho = exact_cramers_v(_two_level_params(0.2, 0.8))
    assert np.allclose(rho, 0.6, atol=1e-12)


def test_exact_matches_main_path():
    rng = np.random.default_rng(9)
    hyper = HyperParameters(V=4, H=3, R=2)
    for _ in range(25):
        params, _ = sample_prior(hyper, rng)
        assert np.allclose(exact_cramers_v(params), cramers_v(params),
                           atol=1e-12, rtol=0)


def test_oracle_pmf_matches_main_path_pointwise():
    rng = np.random.default_rng(12)
    hyper = HyperParameters(V=4, H=2, R=2)
    configs = [np.array([(c >> l) & 1 for l in range(6)], dtype=np.int8)
               for c in range(64)]
    for _ in range(10):
        params, _ = sample_prior(hyper, rng)
        for y, table in ((0, enumerate_pmf(params, 0)),
                         (None, enumerate_pmf(params, None))):
            for c, a in enumerate(configs):
                main = (marginal_log_pmf(a, params) if y is None
                        else conditional_log_pmf(a, params, y))
                assert abs(np.exp(main) - table.probs[c]) < 1e-10


def test_rejects_large_V():
    params = _single_component_params(6, 0.5)
    with pytest.raises(ValueError, match="V <= 5"):
        enumerate_pmf(params)


@pytest.mark.parametrize("y", [2, -1])
def test_rejects_bad_label(y):
    with pytest.raises(ValueError, match="group label"):
        enumerate_pmf(_two_level_params(0.2, 0.8), y=y)


def test_table_validation():
    with pytest.raises(ValueError, match="entries"):
        ExactPmfTable(V=4, probs=np.full(32, 1.0 / 32.0))
    with pytest.raises(ValueError, match="sums"):
        ExactPmfTable(V=4, probs=np.full(64, 1.0 / 60.0))
    bad = np.full(64, 1.0 / 64.0)
    bad[0] = -bad[0]
    bad[1] += 2.0 / 64.0
    with pytest.raises(ValueError, match="nonnegative"):
        ExactPmfTable(V=4, probs=bad)
    table = enumerate_pmf(_single_component_params(4, 0.3))
    with pytest.raises(ValueError):
        table.edge_marginal(0)
    with pytest.raises(ValueError):
        table.edge_marginal(7)
