"""Group-difference tests, classical baseline, and classification."""
import numpy as np
import pytest
from scipy.special import expit, logit

from netmix import testing
from netmix.core import MixtureParameters, conditional_log_pmf, sample_cohort
from netmix.inference import (CohortData, PosteriorDraws, SamplerConfig,
                              run_chain)
from netmix.priors import HyperParameters
from netmix.testing import (ClassificationResult, TestReport, bh_reject,
                            classify, compute_test_report, cramers_v,
                            cramers_v_from_probs, evaluate_classifier,
                            fisher_baseline, fisher_edge_pvalues, global_test)
from netmix.testing import test_degree as flag_degree

# ----------------------------------------------------------- helpers


def _two_level_params(p_low, p_high, V, nu0, nu1, T=1, pY1=0.5):
    L = V * (V - 1) // 2
    gap = float(logit(p_high) - logit(p_low))
    return MixtureParameters(Z=np.full(L, float(logit(p_low))),
                             X=np.stack([np.ones((V, 1)), np.zeros((V, 1))]),
                             lam=np.array([[gap], [0.0]]),
                             nu=np.array([nu0, nu1], float), pY1=pY1, T=T)


def _gap_params(V=4):
    """Group 0 at 0.2 on every edge, group 1 at 0.8; Cramer V is 0.6."""
    return _two_level_params(0.2, 0.8, V, [0.0, 1.0], [1.0, 0.0])


def _tied_params(V=4):
    return _two_level_params(0.2, 0.8, V, [0.5, 0.5], [0.5, 0.5], T=0)


def _draws_from_params(params_list, single_group=False):
    """Hand-packed PosteriorDraws for testing the posterior functionals.
    The parameters have R = 1, so theta = 1/lam, and theta = inf gives
    lam = 0."""
    Z = np.stack([p.Z for p in params_list])
    X = np.stack([p.X for p in params_list])
    with np.errstate(divide="ignore"):
        theta = np.stack([1.0 / p.lam for p in params_list])
    nu = np.stack([p.nu for p in params_list])
    return PosteriorDraws(
        Z=Z, X=X, theta=theta, nu=nu,
        pY1=np.array([p.pY1 for p in params_list]),
        T=np.array([p.T for p in params_list], dtype=np.int8),
        assignments=np.zeros((len(params_list), 0), dtype=np.int32),
        log_joint_trace=np.zeros(1),
        meta={"single_group": single_group, "V": params_list[0].V})


def _cohort_from_edges(edge_rows, labels, V):
    A = np.atleast_2d(np.asarray(edge_rows, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    ids = tuple(f"s{i:03d}" for i in range(y.shape[0]))
    return CohortData(A=A, y=y, subject_ids=ids, V=V)


# ------------------------------------------------------- global test


def test_global_test_is_mean_of_T():
    draws = _draws_from_params([_gap_params()] * 3 + [_tied_params()])
    assert global_test(draws) == 0.75
    assert global_test(_draws_from_params([_gap_params()] * 4)) == 1.0


def test_global_test_single_group_raises():
    draws = _draws_from_params([_gap_params()], single_group=True)
    with pytest.raises(ValueError, match="both groups"):
        global_test(draws)


# --------------------------------------------------------- cramers v


def test_cramers_v_balanced_gap():
    # pY1 = 1/2, conditionals 0.2 and 0.8: marginal 1/2, and
    # rho^2 = (0.3^2) / (0.5 * 0.5) = 0.36
    v = cramers_v_from_probs(np.array([0.2]), np.array([0.8]), 0.5)
    assert abs(v[0] - 0.6) < 1e-12


def test_cramers_v_zero_when_equal():
    p = np.array([0.0, 0.3, 0.5, 1.0])
    assert np.array_equal(cramers_v_from_probs(p, p.copy(), 0.7),
                          np.zeros(4))


def test_cramers_v_degenerate_edges():
    # marginal exactly 0 with equal conditionals scores 0
    v = cramers_v_from_probs(np.array([0.0]), np.array([0.0]), 0.5)
    assert v[0] == 0.0
    # marginal 0 but conditionals disagree is contradictory
    with pytest.raises(ValueError, match="degenerate"):
        cramers_v_from_probs(np.array([0.0]), np.array([0.7]), 0.0)


def test_cramers_v_validation():
    with pytest.raises(ValueError, match="pY1"):
        cramers_v_from_probs(np.array([0.2]), np.array([0.8]), 1.5)
    with pytest.raises(ValueError, match="align"):
        cramers_v_from_probs(np.zeros(3), np.zeros(4), 0.5)


def test_cramers_v_of_parameters():
    v = cramers_v(_gap_params())
    assert v.shape == (6,)
    assert np.allclose(v, 0.6, atol=1e-12)
    assert np.array_equal(cramers_v(_tied_params()), np.zeros(6))


# -------------------------------------------------- local functionals


def test_local_test_degenerate_cases():
    def exceed(params_list, epsilon):
        draws = _draws_from_params(params_list)
        return compute_test_report(draws, epsilon).rho_exceed

    assert np.array_equal(exceed([_gap_params()], 0.1), np.ones(6))
    assert np.array_equal(exceed([_tied_params()], 0.1), np.zeros(6))
    assert np.array_equal(exceed([_gap_params(), _tied_params()], 0.1),
                          np.full(6, 0.5))
    # associations at 0.6 do not clear a larger threshold
    assert np.array_equal(exceed([_gap_params()], 0.7), np.zeros(6))


def test_local_test_epsilon_validation():
    draws = _draws_from_params([_gap_params()])
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            compute_test_report(draws, bad)


def test_edge_difference_values():
    gap = compute_test_report(_draws_from_params([_gap_params()]))
    assert np.allclose(gap.edge_diff, 0.6, atol=1e-12)
    tie = compute_test_report(_draws_from_params([_tied_params()]))
    assert np.allclose(tie.edge_diff, 0.0, atol=1e-15)


def test_functionals_invariant_to_component_relabeling():
    p = _gap_params()
    swapped = MixtureParameters(Z=p.Z, X=p.X[::-1], lam=p.lam[::-1],
                                nu=p.nu[:, ::-1].copy(),
                                pY1=p.pY1, T=p.T)
    a = compute_test_report(_draws_from_params([p]), 0.1)
    b = compute_test_report(_draws_from_params([swapped]), 0.1)
    assert np.allclose(a.rho_exceed, b.rho_exceed, atol=1e-12)
    assert np.allclose(a.edge_diff, b.edge_diff, atol=1e-12)


def _reference_functionals(draws, cohort, epsilon):
    """Per-draw loops over validated parameter objects: exceedance
    frequency, mean group difference and classification probabilities."""
    exceed, diff, probs = 0.0, 0.0, 0.0
    for k in range(draws.n_draws):
        params = draws.params_at(k)
        pi = params.edge_probabilities()
        p0, p1 = params.nu[0] @ pi, params.nu[1] @ pi
        exceed = exceed + (cramers_v_from_probs(p0, p1, params.pY1) > epsilon)
        diff = diff + (p1 - p0)
        lp = np.array([[np.log(params.pY1 if y else 1.0 - params.pY1)
                        + conditional_log_pmf(a, params, y) for y in (0, 1)]
                       for a in cohort.A])
        probs = probs + np.exp(lp[:, 1] - np.logaddexp(lp[:, 0], lp[:, 1]))
    K = draws.n_draws
    return exceed / K, diff / K, probs / K


@pytest.mark.parametrize("block_bytes", [None, 1800])
def test_blocked_functionals_match_per_draw_loop(monkeypatch, block_bytes):
    # 1800 bytes hold three (H, V, V) = (3, 5, 5) Gram stacks, so ten draws
    # run in four blocks, the last one partial
    if block_bytes is not None:
        monkeypatch.setattr(testing, "_BLOCK_BYTES", block_bytes)
    truth = _two_level_params(0.2, 0.8, 5, [0.7, 0.3], [0.2, 0.8])
    obs = sample_cohort(truth, 8, 8, np.random.default_rng(3))
    draws = run_chain(obs, HyperParameters(V=5, H=3, R=2),
                      SamplerConfig(n_iter=40, burn_in=20, thin=2, seed=5))
    cohort = CohortData.from_observations(obs)
    exceed, diff, probs = _reference_functionals(draws, cohort, 0.1)
    report = compute_test_report(draws, epsilon=0.1)
    assert np.array_equal(report.rho_exceed, exceed)
    assert np.allclose(report.edge_diff, diff, rtol=0, atol=1e-12)
    assert np.allclose(classify(draws, cohort).probabilities, probs,
                       rtol=0, atol=1e-12)


# -------------------------------------------------------- test report


def test_compute_test_report_applies_cutoff():
    draws = _draws_from_params([_gap_params()] * 3 + [_tied_params()])
    report = compute_test_report(draws, epsilon=0.1, cutoff=0.7)
    assert report.pr_H1 == 0.75
    assert report.epsilon == 0.1 and report.decision_cutoff == 0.7
    assert np.allclose(report.rho_exceed, 0.75)
    assert report.significant_edges.all()  # 0.75 > 0.7
    strict = compute_test_report(draws, epsilon=0.1, cutoff=0.75)
    assert not strict.significant_edges.any()  # strict inequality
    assert report.L == 6 and report.V == 4


def test_compute_test_report_single_group():
    draws = _draws_from_params([_gap_params()], single_group=True)
    report = compute_test_report(draws)
    assert report.pr_H1 is None
    assert report.rho_exceed.shape == (6,)


def test_compute_test_report_cutoff_validation():
    draws = _draws_from_params([_gap_params()])
    with pytest.raises(ValueError, match="cutoff"):
        compute_test_report(draws, cutoff=1.0)


def test_test_report_validation():
    ok = dict(pr_H1=0.5, rho_exceed=np.zeros(6), epsilon=0.1,
              edge_diff=np.zeros(6), decision_cutoff=0.95)
    TestReport(**ok)
    with pytest.raises(ValueError, match="shape"):
        TestReport(**{**ok, "edge_diff": np.zeros(5)})
    with pytest.raises(ValueError, match="exceedance"):
        TestReport(**{**ok, "rho_exceed": np.full(6, 1.5)})
    with pytest.raises(ValueError, match="exceedance"):
        TestReport(**{**ok, "rho_exceed": np.full(6, np.nan)})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="edge differences"):
            TestReport(**{**ok, "edge_diff": np.full(6, bad)})
    with pytest.raises(ValueError, match="pr_H1"):
        TestReport(**{**ok, "pr_H1": float("nan")})
    with pytest.raises(ValueError, match="epsilon"):
        TestReport(**{**ok, "epsilon": 0.0})
    with pytest.raises(ValueError, match="pr_H1"):
        TestReport(**{**ok, "pr_H1": 1.2})
    with pytest.raises(ValueError):
        TestReport(**{**ok, "rho_exceed": np.zeros(7),
                      "edge_diff": np.zeros(7)})


def test_test_report_flags_the_edges_above_the_cutoff():
    ok = dict(pr_H1=0.5, rho_exceed=np.array([0.1, 0.2, 0.96]), epsilon=0.1,
              edge_diff=np.zeros(3), decision_cutoff=0.95)
    flags = TestReport(**ok).significant_edges
    assert flags.dtype == bool
    assert flags.tolist() == [False, False, True]
    assert TestReport(**{**ok, "decision_cutoff": 0.05}).significant_edges.all()
    assert not TestReport(**{**ok, "decision_cutoff": 0.99}).significant_edges.any()
    # strict inequality: an exceedance equal to the cutoff is not flagged
    report = TestReport(**{**ok, "rho_exceed": np.array([0.1, 0.2, 0.95])})
    assert not report.significant_edges.any()
    with pytest.raises(TypeError):
        TestReport(**ok, significant_edges=np.array([True, True, True]))


# -------------------------------------------------------- test degree


def test_test_degree_counts_incident_edges():
    # V=4, flag edges 1=(2,1) and 2=(3,1): node 1 touches both
    sig = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
    assert np.array_equal(flag_degree(sig), [2, 1, 1, 0])
    sig_last = np.array([0, 0, 0, 0, 0, 1], dtype=bool)  # edge 6 = (4,3)
    assert np.array_equal(flag_degree(sig_last), [0, 0, 1, 1])
    assert np.array_equal(flag_degree(np.zeros(6, bool)), np.zeros(4))


def test_test_degree_sums_to_twice_flag_count():
    rng = np.random.default_rng(0)
    for _ in range(10):
        sig = rng.random(15) < 0.4  # V = 6
        assert flag_degree(sig).sum() == 2 * sig.sum()


# ------------------------------------------------------ classification


def test_classify_prevalence_only_when_groups_tied():
    # identical group conditionals make the network uninformative, so the
    # posterior label probability is exactly the prevalence
    params = _two_level_params(0.2, 0.8, 4, [0.5, 0.5], [0.5, 0.5],
                               T=0, pY1=0.3)
    draws = _draws_from_params([params])
    rng = np.random.default_rng(1)
    cohort = _cohort_from_edges((rng.random((5, 6)) < 0.5).astype(float),
                                [0, 1, 0, 1, 0], 4)
    result = classify(draws, cohort)
    assert np.allclose(result.probabilities, 0.3, atol=1e-12)
    assert np.array_equal(result.predicted, np.zeros(5))
    assert result.subject_ids == cohort.subject_ids
    assert np.array_equal(result.labels, cohort.y)


def test_classify_threshold_is_one_half():
    cohort = _cohort_from_edges(np.zeros((1, 6)), [0], 4)
    for prevalence, label in ((0.6, 1), (0.4, 0)):
        params = _two_level_params(0.2, 0.8, 4, [0.5, 0.5], [0.5, 0.5],
                                   T=0, pY1=prevalence)
        result = classify(_draws_from_params([params]), cohort)
        assert result.probabilities[0] == pytest.approx(prevalence,
                                                        abs=1e-12)
        assert result.predicted[0] == label


def test_classify_separates_extreme_networks():
    draws = _draws_from_params([_gap_params(8)])
    cohort = _cohort_from_edges(np.stack([np.ones(28), np.zeros(28)]),
                                [1, 0], 8)
    result = classify(draws, cohort)
    assert result.probabilities[0] > 0.999
    assert result.probabilities[1] < 0.001
    assert np.array_equal(result.predicted, [1, 0])


def test_classify_relabeling_invariance():
    p = _gap_params()
    swapped = MixtureParameters(Z=p.Z, X=p.X[::-1], lam=p.lam[::-1],
                                nu=p.nu[:, ::-1].copy(),
                                pY1=p.pY1, T=p.T)
    rng = np.random.default_rng(2)
    cohort = _cohort_from_edges((rng.random((6, 6)) < 0.5).astype(float),
                                [0, 0, 0, 1, 1, 1], 4)
    pa = classify(_draws_from_params([p]), cohort).probabilities
    pb = classify(_draws_from_params([swapped]), cohort).probabilities
    assert np.allclose(pa, pb, atol=1e-12)


def test_classify_saturated_log_odds_matches_pmf():
    # log-odds 40 and 45 both round to probability 1 in float64, yet the
    # two components still score edge-absent networks differently
    V, L = 4, 6
    params = MixtureParameters(Z=np.full(L, 40.0),
                               X=np.stack([np.zeros((V, 1)), np.ones((V, 1))]),
                               lam=np.array([[0.0], [5.0]]),
                               nu=np.array([[0.8, 0.2], [0.3, 0.7]]),
                               pY1=0.4, T=1)
    edges = np.ones((3, L))
    edges[1, 0] = edges[2, :2] = 0.0
    cohort = _cohort_from_edges(edges, [0, 1, 0], V)
    result = classify(_draws_from_params([params]), cohort)
    expected = [expit(conditional_log_pmf(a, params, 1)
                      - conditional_log_pmf(a, params, 0) + logit(0.4))
                for a in edges.astype(np.int8)]
    assert np.allclose(result.probabilities, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("pY1", [1e-300, 0.4, 1.0 - 1e-16])
@pytest.mark.parametrize("sign", [1, -1], ids=["group1", "group0"])
def test_classify_extreme_log_odds_matches_scipy(sign, pY1):
    # log-odds -400 (component 0) and -240 (component 1) on every edge; a
    # present edge moves log p(a|1) - log p(a|0) by 160, so 0, 1 and 5
    # present edges give differences 0, +-160 and +-800, and exp(800)
    # overflows. pY1 puts the prevalence's log-odds between -691 and +37.
    V, L = 4, 6
    nu = np.eye(2) if sign == 1 else np.eye(2)[::-1]
    params = MixtureParameters(Z=np.full(L, -400.0),
                               X=np.stack([np.zeros((V, 1)), np.ones((V, 1))]),
                               lam=np.array([[0.0], [160.0]]),
                               nu=nu.copy(), pY1=pY1, T=1)
    edges = np.zeros((3, L))
    edges[1, 0] = edges[2, :5] = 1.0
    cohort = _cohort_from_edges(edges, [0, 1, 0], V)
    result = classify(_draws_from_params([params]), cohort)
    diffs = [conditional_log_pmf(a, params, 1) - conditional_log_pmf(a, params, 0)
             for a in edges.astype(np.int8)]
    assert diffs == pytest.approx([0.0, 160.0 * sign, 800.0 * sign], abs=1e-9)
    expected = expit(np.array(diffs) + logit(pY1))
    np.testing.assert_allclose(result.probabilities, expected,
                               rtol=1e-15, atol=0.0)


def test_classify_dimension_mismatch():
    draws = _draws_from_params([_gap_params(4)])
    cohort = _cohort_from_edges(np.zeros((2, 10)), [0, 1], 5)
    with pytest.raises(ValueError, match="does not match"):
        classify(draws, cohort)


def test_evaluate_classifier_hand_case():
    result = ClassificationResult(
        subject_ids=("a", "b", "c", "d"),
        labels=np.array([0, 0, 1, 1]),
        probabilities=np.array([0.1, 0.4, 0.35, 0.8]))
    auc, acc = evaluate_classifier(result)
    assert auc == pytest.approx(0.75)
    assert acc == pytest.approx(0.75)


def test_evaluate_classifier_perfect_and_tied():
    perfect = ClassificationResult(
        subject_ids=("a", "b", "c", "d"),
        labels=np.array([0, 0, 1, 1]),
        probabilities=np.array([0.1, 0.2, 0.8, 0.9]))
    assert evaluate_classifier(perfect) == (1.0, 1.0)
    tied = ClassificationResult(
        subject_ids=("a", "b", "c", "d"),
        labels=np.array([0, 1, 0, 1]),
        probabilities=np.full(4, 0.5))
    auc, acc = evaluate_classifier(tied)
    assert auc == pytest.approx(0.5)
    assert acc == pytest.approx(0.5)


def test_evaluate_classifier_auc_matches_rank_formula():
    from scipy.stats import rankdata
    rng = np.random.default_rng(31)
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[:rng.integers(1, n)]] = 1
        probs = rng.integers(0, 8, n) / 7.0  # heavy ties
        result = ClassificationResult(
            subject_ids=tuple(f"s{i}" for i in range(n)), labels=labels,
            probabilities=probs)
        n1 = int(labels.sum())
        n0 = n - n1
        ranks = rankdata(probs)
        expected = (ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1)
        assert evaluate_classifier(result)[0] == expected


def test_evaluate_classifier_one_class_raises():
    result = ClassificationResult(
        subject_ids=("a", "b"), labels=np.array([1, 1]),
        probabilities=np.array([0.6, 0.7]))
    with pytest.raises(ValueError, match="both groups"):
        evaluate_classifier(result)


def test_classification_result_validation():
    with pytest.raises(ValueError, match="align"):
        ClassificationResult(subject_ids=("a", "b"), labels=np.array([0]),
                             probabilities=np.array([0.5]))
    with pytest.raises(ValueError, match="probabilities"):
        ClassificationResult(subject_ids=("a",), labels=np.array([0]),
                             probabilities=np.array([1.5]))
    with pytest.raises(ValueError, match="probabilities"):
        ClassificationResult(subject_ids=("a",), labels=np.array([0]),
                             probabilities=np.array([np.nan]))


def test_classification_result_predicts_at_one_half():
    result = ClassificationResult(subject_ids=("a", "b", "c"),
                                  labels=np.array([0, 1, 1]),
                                  probabilities=np.array([0.25, 0.5, 0.75]))
    assert result.predicted.dtype == np.int8
    assert result.predicted.tolist() == [0, 1, 1]
    # a label that contradicts its probability cannot be stored
    with pytest.raises(TypeError):
        ClassificationResult(subject_ids=("a",), labels=np.array([0]),
                             probabilities=np.array([0.25]),
                             predicted=np.array([1], dtype=np.int8))


def test_classifier_roundtrip_on_sampled_cohort():
    # labels sampled from the model itself should be recoverable almost
    # perfectly when the groups are far apart
    params = _gap_params(8)
    obs = sample_cohort(params, 50, 50, np.random.default_rng(3))
    draws = _draws_from_params([params])
    result = classify(draws, obs)
    auc, acc = evaluate_classifier(result)
    assert auc > 0.99 and acc > 0.95


def test_classifier_permuted_labels_are_chance():
    params = _gap_params(8)
    obs = sample_cohort(params, 50, 50, np.random.default_rng(4))
    cohort = CohortData.from_observations(obs)
    rng = np.random.default_rng(5)
    shuffled = CohortData(A=cohort.A, y=rng.permutation(cohort.y),
                          subject_ids=cohort.subject_ids, V=cohort.V)
    auc, _ = evaluate_classifier(classify(_draws_from_params([params]),
                                          shuffled))
    assert abs(auc - 0.5) < 0.15


# ---------------------------------------------------- fisher baseline


def test_fisher_pvalues_identical_groups():
    A = np.tile(np.eye(6)[:3], (2, 1))
    cohort = _cohort_from_edges(A, [0, 0, 0, 1, 1, 1], 4)
    assert np.allclose(fisher_edge_pvalues(cohort), 1.0)


def test_fisher_pvalue_extreme_table():
    # 10 vs 0 and 0 vs 10 on a single edge: two-sided p = 2 / C(20, 10)
    A = np.concatenate([np.ones((10, 1)), np.zeros((10, 1))])
    cohort = _cohort_from_edges(A, [0] * 10 + [1] * 10, 2)
    p = fisher_edge_pvalues(cohort)
    assert p.shape == (1,)
    assert np.isclose(p[0], 2.0 / 184756.0, rtol=1e-10)


def test_fisher_single_group_raises():
    cohort = _cohort_from_edges(np.zeros((3, 6)), [1, 1, 1], 4)
    with pytest.raises(ValueError, match="both groups"):
        fisher_edge_pvalues(cohort)


def test_bh_reject_hand_cases():
    assert np.array_equal(
        bh_reject(np.array([0.01, 0.04, 0.03, 0.2]), 0.05),
        [True, False, False, False])
    assert np.array_equal(
        bh_reject(np.array([0.01, 0.02, 0.03, 0.9]), 0.1),
        [True, True, True, False])
    # step-up: the k=2 comparison rescues the k=1 p-value
    assert np.array_equal(bh_reject(np.array([0.03, 0.049]), 0.05),
                          [True, True])
    assert not bh_reject(np.array([0.2, 0.5, 0.9]), 0.05).any()


def test_bh_reject_validation():
    with pytest.raises(ValueError, match="p-values"):
        bh_reject(np.array([0.5, 1.5]), 0.05)
    with pytest.raises(ValueError, match="p-values"):  # was never rejected
        bh_reject(np.array([0.001, np.nan]), 0.05)
    with pytest.raises(ValueError, match="level"):
        bh_reject(np.array([0.5]), 0.0)
    assert bh_reject(np.zeros(0), 0.05).shape == (0,)


def test_fisher_baseline_flags_only_different_edge():
    # edge 1 flips between groups, edges 2 and 3 are constant
    A = np.zeros((20, 3))
    A[:10, 0] = 1.0
    cohort = _cohort_from_edges(A, [0] * 10 + [1] * 10, 3)
    reject = fisher_baseline(cohort, fdr_level=0.05)
    assert np.array_equal(reject, [True, False, False])
    same = _cohort_from_edges(np.zeros((8, 3)), [0] * 4 + [1] * 4, 3)
    assert not fisher_baseline(same).any()
