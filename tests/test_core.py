"""Edge indexing, vectorization, pmf evaluation, and cohort simulation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmix.core import (MixtureParameters, NetworkObservation, _categorical,
                         _component_log_liks, _log_mixture,
                         bernoulli_log_pmf, component_log_pmf,
                         conditional_log_pmf, edge_count, edge_index_map,
                         joint_log_pmf, logistic_map, marginal_log_pmf,
                         matricize, node_count, sample_cohort,
                         sample_joint_cohort, sample_network, vectorize)
from netmix.priors import HyperParameters, sample_prior

# ---------------------------------------------------------------- indexing


def test_edge_count_and_inverse():
    assert edge_count(2) == 1
    assert edge_count(4) == 6
    assert edge_count(68) == 2278
    assert node_count(6) == 4
    assert node_count(2278) == 68
    with pytest.raises(ValueError):
        edge_count(1)
    with pytest.raises(ValueError):
        node_count(7)


def test_edge_index_known_values():
    m68 = edge_index_map(68)
    assert m68.edge_index(2, 1) == 1
    assert m68.edge_index(68, 67) == 2278
    m4 = edge_index_map(4)
    assert m4.edge_index(3, 2) == 4


def test_edge_index_pair_roundtrip():
    m = edge_index_map(7)
    for l in range(1, m.L + 1):
        v, u = m.edge_pair(l)
        assert v > u >= 1
        assert m.edge_index(v, u) == l


def test_edge_index_rejects_bad_pairs():
    m = edge_index_map(4)
    for v, u in [(1, 1), (2, 3), (5, 1), (0, 1), (4, 0)]:
        with pytest.raises(ValueError):
            m.edge_index(v, u)
    with pytest.raises(ValueError):
        m.edge_pair(0)
    with pytest.raises(ValueError):
        m.edge_pair(7)


def test_edge_ordering_is_columnwise():
    m = edge_index_map(4)
    pairs = [m.edge_pair(l) for l in range(1, 7)]
    assert pairs == [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3)]


# ------------------------------------------------------------ vectorize


def test_vectorize_zeros_and_complete():
    assert np.array_equal(vectorize(np.zeros((4, 4))), np.zeros(6))
    complete = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(vectorize(complete), np.ones(6))


def test_vectorize_single_edge_position():
    A = np.zeros((4, 4), dtype=int)
    A[2, 1] = A[1, 2] = 1  # nodes (3, 2) in 1-based labels
    e = vectorize(A)
    expected = np.zeros(6, dtype=np.int8)
    expected[3] = 1  # linear index 4
    assert np.array_equal(e, expected)


def test_vectorize_ignores_diagonal():
    assert np.array_equal(vectorize(np.eye(4)), np.zeros(6))


def test_vectorize_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        vectorize(np.zeros((3, 4)))
    asym = np.zeros((3, 3))
    asym[1, 0] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        vectorize(asym)
    two = np.zeros((3, 3))
    two[1, 0] = two[0, 1] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        vectorize(two)


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_vectorize_matricize_roundtrip(V, seed):
    e = (np.random.default_rng(seed).random(edge_count(V)) < 0.5).astype(np.int8)
    A = matricize(e, V)
    assert np.array_equal(A, A.T)
    assert np.array_equal(np.diag(A), np.zeros(V))
    assert np.array_equal(vectorize(A), e)


# ------------------------------------------------------- similarities


def _component_similarity(Z, X, lam):
    """S = Z + D of one component (V, R) via a single-component
    MixtureParameters."""
    params = MixtureParameters(Z=Z, X=X[None], lam=lam[None],
                               nu=np.ones((2, 1)), pY1=0.5, T=0)
    return params.similarities()[0]


def test_component_similarity_zero_weight_is_Z():
    Z = np.arange(6, dtype=float)
    X = np.random.default_rng(0).standard_normal((4, 2))
    assert np.array_equal(_component_similarity(Z, X, np.zeros(2)), Z)


def test_component_similarity_dead_column_irrelevant():
    Z = np.zeros(6)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 2))
    lam = np.array([1.0, 0.0])
    S = _component_similarity(Z, X, lam)
    X2 = X.copy()
    X2[:, 1] = rng.standard_normal(4)  # only the dead column changes
    S2 = _component_similarity(Z, X2, lam)
    assert np.allclose(S, S2, atol=0, rtol=0)


def test_component_similarity_frozen_rank_one():
    # V=4, Z=0, lam=(2,), X = (1, -1, 3, 0): D_l = 2 x_v x_u columnwise
    S = _component_similarity(np.zeros(6),
                              np.array([[1.0], [-1.0], [3.0], [0.0]]),
                              np.array([2.0]))
    assert np.allclose(S, [-2.0, 6.0, 0.0, -6.0, 0.0, 0.0], atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_similarity_column_sign_flip_invariant(seed, col):
    m = edge_index_map(5)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal(m.L)
    X = rng.standard_normal((5, 3))
    lam = rng.gamma(1.0, 1.0, 3)
    S = _component_similarity(Z, X, lam)
    Xf = X.copy()
    Xf[:, col] = -Xf[:, col]
    Sf = _component_similarity(Z, Xf, lam)
    assert np.allclose(S, Sf, atol=1e-12, rtol=0)


def test_logistic_map_values():
    assert logistic_map(np.array([0.0]))[0] == 0.5
    assert abs(logistic_map(np.array([50.0]))[0] - 1.0) < 1e-12
    assert abs(logistic_map(np.array([np.log(3.0)]))[0] - 0.75) < 1e-15
    with pytest.raises(ValueError):
        logistic_map(np.array([np.inf]))


def test_logistic_map_monotone_and_open_interval():
    s = np.linspace(-800, 800, 2001)
    p = logistic_map(s)
    assert (np.diff(p) >= 0).all()
    assert (p > 0).all() and (p < 1).all()


# -------------------------------------------------------------- pmfs


def _two_component_params(V=4, seed=0):
    rng = np.random.default_rng(seed)
    L = edge_count(V)
    X, lam = [], []
    for _ in range(2):  # draw order: X then lam, component by component
        X.append(rng.standard_normal((V, 2)))
        lam.append(rng.gamma(1.0, 0.5, 2))
    nu0 = rng.dirichlet(np.ones(2))
    nu1 = rng.dirichlet(np.ones(2))
    return MixtureParameters(Z=rng.standard_normal(L), X=np.stack(X),
                             lam=np.stack(lam),
                             nu=np.array([nu0, nu1]),
                             pY1=float(rng.uniform(0.2, 0.8)), T=1)


def _all_configs(L):
    for c in range(2 ** L):
        yield np.array([(c >> l) & 1 for l in range(L)], dtype=np.int8)


def test_component_log_pmf_uniform():
    pi = np.full(6, 0.5)
    a = np.zeros(6, dtype=np.int8)
    assert np.isclose(component_log_pmf(a, pi), np.log(2.0 ** -6), atol=1e-14)


def test_component_log_pmf_hand_value():
    val = component_log_pmf(np.array([1, 0]), np.array([0.9, 0.2]))
    assert np.isclose(val, np.log(0.72), atol=1e-14)


def test_component_log_pmf_normalizes():
    pi = np.random.default_rng(3).uniform(0.05, 0.95, 3)  # V=3, L=3
    total = sum(np.exp(component_log_pmf(a, pi)) for a in _all_configs(3))
    assert abs(total - 1.0) < 1e-12


def test_conditional_marginal_joint_normalize():
    params = _two_component_params(V=3, seed=7)
    for y in (0, 1):
        total = sum(np.exp(conditional_log_pmf(a, params, y))
                    for a in _all_configs(3))
        assert abs(total - 1.0) < 1e-12
    total = sum(np.exp(marginal_log_pmf(a, params)) for a in _all_configs(3))
    assert abs(total - 1.0) < 1e-12
    total = sum(np.exp(joint_log_pmf(y, a, params))
                for y in (0, 1) for a in _all_configs(3))
    assert abs(total - 1.0) < 1e-12


def test_joint_is_prevalence_times_conditional():
    params = _two_component_params(V=4, seed=11)
    a = np.array([1, 0, 1, 1, 0, 0], dtype=np.int8)
    for y in (0, 1):
        expected = (bernoulli_log_pmf(y, params.pY1)
                    + conditional_log_pmf(a, params, y))
        assert np.isclose(joint_log_pmf(y, a, params), expected, atol=1e-14)


def test_bernoulli_log_pmf_degenerate_convention():
    assert bernoulli_log_pmf(0, 1.0) == -np.inf
    assert bernoulli_log_pmf(1, 1.0) == 0.0
    assert bernoulli_log_pmf(1, 0.0) == -np.inf
    with pytest.raises(ValueError):
        bernoulli_log_pmf(2, 0.5)
    with pytest.raises(ValueError):
        bernoulli_log_pmf(0, 1.5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conditional_pmf_component_permutation_invariant(seed):
    params = _two_component_params(V=4, seed=seed)
    swapped = MixtureParameters(Z=params.Z, X=params.X[::-1],
                                lam=params.lam[::-1],
                                nu=params.nu[:, ::-1],
                                pY1=params.pY1, T=params.T)
    a = (np.random.default_rng(seed).random(6) < 0.5).astype(np.int8)
    for y in (0, 1):
        assert np.isclose(conditional_log_pmf(a, params, y),
                          conditional_log_pmf(a, swapped, y), atol=1e-12)


# ---------------------------------------------------------- simulation


def test_sample_network_frequency():
    rng = np.random.default_rng(0)
    pi = np.full(6, 0.7)
    draws = np.stack([sample_network(pi, rng) for _ in range(10_000)])
    assert np.all(np.abs(draws.mean(axis=0) - 0.7) < 0.02)


def test_categorical_skips_zero_probability_components():
    # u = 0 exactly must not pick a leading component of probability zero
    assert _categorical(np.array([[0.0, 1.0]]), np.array([0.0]))[0] == 1
    # one probability row shared by several uniforms
    assert np.array_equal(_categorical(np.array([0.0, 0.5, 0.5]),
                                       np.array([0.0, 0.5, 0.999])), [1, 2, 2])


def test_sample_network_validates_probs():
    with pytest.raises(ValueError):
        sample_network(np.array([0.0, 0.5]), np.random.default_rng(0))


def test_sample_cohort_layout_and_determinism():
    params = _two_component_params(V=4, seed=2)
    obs = sample_cohort(params, 3, 2, np.random.default_rng(5))
    assert [o.label for o in obs] == [0, 0, 0, 1, 1]
    assert len({o.subject_id for o in obs}) == 5
    again = sample_cohort(params, 3, 2, np.random.default_rng(5))
    for a, b in zip(obs, again):
        assert a.subject_id == b.subject_id and a.label == b.label
        assert np.array_equal(a.edges, b.edges)
    with pytest.raises(ValueError):
        sample_cohort(params, 0, 0, np.random.default_rng(0))


def test_sample_cohort_group_separation():
    # group 0 pinned to the sparse component, group 1 to the dense one
    V, L = 6, 15
    base = np.full(L, -1.4)  # expit ~ 0.2
    params = MixtureParameters(Z=base,
                               X=np.stack([np.zeros((V, 1)), np.ones((V, 1))]),
                               lam=np.array([[0.0], [2.8]]),
                               nu=np.array([[1.0, 0.0], [0.0, 1.0]]),
                               pY1=0.5, T=1)
    obs = sample_cohort(params, 200, 200, np.random.default_rng(9))
    dens0 = np.mean([o.edges.mean() for o in obs if o.label == 0])
    dens1 = np.mean([o.edges.mean() for o in obs if o.label == 1])
    se = np.sqrt(0.25 / (200 * L))
    assert dens1 - dens0 > 5 * se


def test_sample_joint_cohort_returns_assignments():
    params = _two_component_params(V=4, seed=4)
    obs, G = sample_joint_cohort(params, 50, np.random.default_rng(1))
    assert len(obs) == 50 and G.shape == (50,)
    assert set(np.unique(G)) <= {0, 1}
    labels = np.array([o.label for o in obs])
    assert set(np.unique(labels)) <= {0, 1}


def _loop_cohort(params, n0, n1, rng):
    """Reference: one sample_network call per subject, group by group."""
    pi = params.edge_probabilities()
    obs = []
    for y, n in ((0, n0), (1, n1)):
        G = _categorical(params.nu[y], rng.random(n))
        obs += [NetworkObservation(edges=sample_network(pi[g], rng), label=y,
                                   subject_id=f"s{len(obs) + k:04d}")
                for k, g in enumerate(G)]
    return obs


def _loop_joint_cohort(params, n, rng):
    """Reference: label uniforms, then per subject one component uniform
    and one sample_network call."""
    y = (rng.random(n) < params.pY1).astype(np.int64)
    pi = params.edge_probabilities()
    G = np.empty(n, dtype=np.int64)
    obs = []
    for i in range(n):
        G[i] = _categorical(params.nu[y[i]], rng.random(1))[0]
        obs.append(NetworkObservation(edges=sample_network(pi[G[i]], rng),
                                      label=int(y[i]), subject_id=f"s{i:04d}"))
    return obs, G


def _assert_same_subjects(obs, ref):
    assert [(o.subject_id, o.label) for o in obs] == \
        [(o.subject_id, o.label) for o in ref]
    for o, r in zip(obs, ref):
        assert o.edges.dtype == r.edges.dtype == np.int8
        assert np.array_equal(o.edges, r.edges)


@pytest.mark.parametrize("V, H, R, n0, n1", [
    (68, 15, 10, 57, 57),  # paper shape
    (4, 3, 2, 6, 5),
    (5, 2, 1, 0, 7),
    (5, 2, 1, 7, 0),
])
def test_vectorized_draws_match_per_subject_loops(V, H, R, n0, n1):
    hyper = HyperParameters(V=V, H=H, R=R, prior_T1=1.0)  # nu[0] != nu[1]
    params, _ = sample_prior(hyper, np.random.default_rng(V))
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    _assert_same_subjects(sample_cohort(params, n0, n1, rng),
                          _loop_cohort(params, n0, n1, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    obs, G = sample_joint_cohort(params, n0 + n1, rng)
    ref, ref_G = _loop_joint_cohort(params, n0 + n1, ref_rng)
    _assert_same_subjects(obs, ref)
    assert G.dtype == ref_G.dtype and np.array_equal(G, ref_G)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_log_mixture_weights():
    lp = np.array([-1.0, -2.0, -3.0])
    assert _log_mixture(lp, np.array([0.5, 0.0, 0.5])) == pytest.approx(
        np.log(0.5 * np.exp(-1.0) + 0.5 * np.exp(-3.0)), rel=1e-15)
    assert _log_mixture(lp, np.zeros(3)) == -np.inf
    # a zero weight on the largest term must not shift the others to underflow
    assert _log_mixture(np.array([0.0, -5000.0]), np.array([0.0, 1.0])) == -5000.0
    # weights broadcast: rows (2, H) against subjects (n, 1, H)
    out = _log_mixture(np.stack([lp, lp - 1.0])[:, None, :],
                       np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert out.shape == (2, 2)
    assert np.array_equal(out, [[-1.0, -np.inf], [-2.0, -np.inf]])


def test_log_mixture_saturated_log_odds():
    # |S| >= 40 on every edge: the components' likelihoods differ by
    # hundreds of nats, so the live terms underflow unless the max shift
    # skips the zero-weight component, here each subject's likeliest one
    rng = np.random.default_rng(8)
    S = rng.choice([-1.0, 1.0], size=(4, 60)) * rng.uniform(40.0, 80.0, (4, 60))
    A = (S[[0, 1, 2, 3, 0, 1]] > 0).astype(np.float64)  # subject i fits i % 4
    comp_lp = _component_log_liks(S, A)  # (6, 4)
    best = comp_lp == comp_lp.max(axis=1, keepdims=True)
    for w in (np.full((6, 4), 0.25), np.where(best, 0.0, 1.0 / 3.0)):
        live = np.where(w > 0, comp_lp + np.log(np.where(w > 0, w, 1.0)),
                        -np.inf)
        got = _log_mixture(comp_lp, w)
        assert np.isfinite(got).all()
        assert np.allclose(got, np.logaddexp.reduce(live, axis=1),
                           rtol=1e-13, atol=0.0)


def test_network_observation_validation():
    with pytest.raises(ValueError):
        NetworkObservation(edges=np.array([0, 2, 0]), label=0, subject_id="x")
    with pytest.raises(ValueError):
        NetworkObservation(edges=np.zeros(3, dtype=np.int8), label=2,
                           subject_id="x")
    with pytest.raises(ValueError):
        NetworkObservation(edges=np.zeros(4, dtype=np.int8), label=0,
                           subject_id="x")  # 4 is not triangular


def test_mixture_parameters_validation():
    good = _two_component_params()
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureParameters(Z=good.Z, X=good.X, lam=good.lam,
                          nu=np.array([[0.5, 0.6], good.nu[1]]),
                          pY1=0.5, T=1)
    with pytest.raises(ValueError, match=r"nu\[0\] == nu\[1\]"):
        MixtureParameters(Z=good.Z, X=good.X, lam=good.lam,
                          nu=np.array([[0.4, 0.6], [0.6, 0.4]]),
                          pY1=0.5, T=0)
    with pytest.raises(ValueError, match="pY1"):
        MixtureParameters(Z=good.Z, X=good.X, lam=good.lam,
                          nu=good.nu, pY1=1.0, T=1)
    lam = good.lam.copy()
    lam[1, 0] = -0.1
    bad_factors = [
        (good.X[0], good.lam, "X must be"),            # X not 3-d
        (good.X[:, :3], good.lam, "X must be"),        # V != 4 of Z
        (good.X[:0], good.lam[:0], "X must be"),       # H = 0
        (good.X, good.lam[:, :1], "lam must be"),      # lam not (H, R)
        (good.X, good.lam[0], "lam must be"),
        (good.X, lam, "nonnegative"),
        (np.full_like(good.X, np.nan), good.lam, "finite"),
    ]
    for X, lam, message in bad_factors:
        with pytest.raises(ValueError, match=message):
            MixtureParameters(Z=good.Z, X=X, lam=lam, nu=good.nu,
                              pY1=0.5, T=1)
    bad_weights = [
        (good.nu[0], 1, r"nu must be \(2, H\)"),               # 1-d
        (np.vstack([good.nu, good.nu[:1]]), 1, "nu must be"),  # (3, H)
        (np.full((2, 3), 1.0 / 3.0), 1, "nu must be"),         # H != 2 of X
        (np.array([good.nu[0], [0.3, 0.3]]), 1, "sum to 1"),   # row 1
        (np.array([[1.2, -0.2], good.nu[1]]), 1, "nonnegative"),
        (np.array([[np.nan, 1.0], good.nu[1]]), 1, "finite"),
        (np.array([[0.5, 0.5], [0.5 + 1e-12, 0.5 - 1e-12]]), 0,
         r"nu\[0\] == nu\[1\]"),                               # T=0, unequal
    ]
    for nu, T, message in bad_weights:
        with pytest.raises(ValueError, match=message):
            MixtureParameters(Z=good.Z, X=good.X, lam=good.lam, nu=nu,
                              pY1=0.5, T=T)
    a = np.zeros(good.L, dtype=np.int8)
    for y in (2, -1):
        with pytest.raises(ValueError, match="group label"):
            conditional_log_pmf(a, good, y)
        with pytest.raises(ValueError, match="group label"):
            good.group_edge_probability(y)


def test_group_edge_probability_mixes_components():
    params = _two_component_params(V=4, seed=6)
    pi = params.edge_probabilities()
    for y in (0, 1):
        expected = params.nu[y] @ pi
        assert np.allclose(params.group_edge_probability(y), expected,
                           atol=1e-15)
