"""Acceptance criteria, one test per criterion.

Each test records a pass/fail line through the `criterion` fixture; the
terminal summary lists all of them. Settings (component counts, chain
lengths, seeds) are calibrated so the statistical criteria have wide
margins at the stated tolerances while keeping the suite runnable.
"""
import math
import time
from dataclasses import replace

import numpy as np

from netmix.cli import run_cli
from netmix.core import (_component_log_liks, component_log_pmf,
                         conditional_log_pmf, joint_log_pmf, marginal_log_pmf,
                         sample_cohort, sample_joint_cohort)
from netmix.inference import (AugmentedState, CohortData, SamplerConfig,
                              gibbs_sweep, run_chain)
from netmix.oracle import enumerate_pmf, exact_cramers_v
from netmix.pg import polya_gamma
from netmix.priors import HyperParameters, sample_prior
from netmix.synthetic import (clique_difference_truth, null_mixture_truth,
                              rank_one_truth, separable_truth,
                              shifted_mixture_truth)
from netmix.testing import (classify, compute_test_report, cramers_v,
                            cramers_v_from_probs, evaluate_classifier,
                            fisher_baseline, global_test)


def _all_edge_vectors(L):
    return (np.arange(2 ** L)[:, None] >> np.arange(L)) & 1


def test_criterion_1_pmf_normalization(criterion):
    """100 prior draws at V=4: component, conditional, marginal, and joint
    pmfs each sum to 1 over the full enumeration within 1e-10."""
    t0 = time.perf_counter()
    hyper = HyperParameters(V=4, H=5, R=4)
    rng = np.random.default_rng(2024)
    configs = _all_edge_vectors(6)
    worst = 0.0
    oracle_gap = 0.0
    for i in range(100):
        params, _ = sample_prior(hyper, rng)
        pi = params.edge_probabilities()
        sums = []
        for h in range(hyper.H):
            sums.append(math.fsum(math.exp(component_log_pmf(a, pi[h]))
                                  for a in configs))
        for y in (0, 1):
            sums.append(math.fsum(math.exp(conditional_log_pmf(a, params, y))
                                  for a in configs))
        sums.append(math.fsum(math.exp(marginal_log_pmf(a, params))
                              for a in configs))
        sums.append(math.fsum(math.exp(joint_log_pmf(y, a, params))
                              for y in (0, 1) for a in configs))
        worst = max(worst, max(abs(s - 1.0) for s in sums))
        if i < 10:
            # spot-check the main path against the brute-force enumeration
            table = enumerate_pmf(params)
            main = np.array([math.exp(marginal_log_pmf(a, params))
                             for a in configs])
            oracle_gap = max(oracle_gap, np.abs(table.probs - main).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and oracle_gap <= 1e-10 and elapsed < 10.0
    criterion(1, ok, f"worst |sum-1|={worst:.2e}, oracle gap="
                     f"{oracle_gap:.2e}, {elapsed:.1f}s")


def test_criterion_2_association_matches_oracle(criterion):
    """cramers_v agrees with the enumeration oracle to 1e-12 on 100 prior
    draws, and the balanced 0.2/0.8 case gives exactly 0.6."""
    hyper = HyperParameters(V=4, H=5, R=3)
    rng = np.random.default_rng(7)
    gap = 0.0
    for _ in range(100):
        params, _ = sample_prior(hyper, rng)
        gap = max(gap, np.abs(cramers_v(params)
                              - exact_cramers_v(params)).max())
    analytic = abs(cramers_v_from_probs(np.array([0.2]),
                                        np.array([0.8]), 0.5)[0] - 0.6)
    ok = gap <= 1e-12 and analytic <= 1e-12
    criterion(2, ok, f"max oracle gap={gap:.2e}, "
                     f"analytic gap={analytic:.2e}")


def _batch_se(x, n_batches=40):
    b = x[: (x.size // n_batches) * n_batches]
    means = b.reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def test_criterion_3_geweke_prior_recovery(criterion):
    """Successive-conditional simulator at V=4, n=5: sweeping the sampler
    and redrawing the data leaves the prior invariant, so the chain's
    marginal means of pY1, mean(Z), and T must match the prior (0.5, 0,
    0.5) within 3 batch-means standard errors."""
    t0 = time.perf_counter()
    hyper = HyperParameters(V=4, H=3, R=2)
    n, cycles = 5, 30_000
    rng = np.random.default_rng(99)
    params, theta = sample_prior(hyper, rng)
    obs, G = sample_joint_cohort(params, n, rng)
    cohort = CohortData.from_observations(obs)
    state = AugmentedState.from_params(params, theta, G, cohort.A)
    rec = np.empty((cycles, 3))
    for i in range(cycles):
        state = gibbs_sweep(state, cohort, hyper, rng)
        rec[i] = (state.pY1, state.Z.mean(), state.T)
        obs, G = sample_joint_cohort(state.to_params(), n, rng)
        cohort = CohortData.from_observations(obs)
        # the redrawn networks need the state's likelihoods rescored
        state = replace(state, assignments=np.asarray(G, dtype=np.int64),
                        LL=_component_log_liks(state.Z + state.D, cohort.A))
    elapsed = time.perf_counter() - t0
    targets = (0.5, hyper.z_mean, hyper.prior_T1)
    zs = []
    for j, target in enumerate(targets):
        se = _batch_se(rec[:, j])
        zs.append(abs(rec[:, j].mean() - target) / se)
    ok = max(zs) <= 3.0 and elapsed < 600.0
    criterion(3, ok, f"|z| pY1={zs[0]:.2f}, mean(Z)={zs[1]:.2f}, "
                     f"T={zs[2]:.2f} over {cycles} cycles, {elapsed:.0f}s")


def _fit_pr_h1(truth, data_seed, chain_seed):
    obs = sample_cohort(truth.params, 50, 50,
                        np.random.default_rng([data_seed, 77]))
    draws = run_chain(obs, HyperParameters(V=20, H=4, R=3),
                      SamplerConfig(n_iter=900, burn_in=300, thin=3,
                                    seed=chain_seed))
    return global_test(draws)


def test_criterion_4_global_test_power_and_level(criterion):
    """Shifted two-component truths (every edge gap >= 0.4) must yield
    Pr(H1) > 0.99 in at least 9/10 replicates; matched-mixture nulls must
    yield Pr(H1) < 0.5 in at least 9/10."""
    h1 = sum(_fit_pr_h1(shifted_mixture_truth(20, seed=s), s, s) > 0.99
             for s in range(10))
    h0 = sum(_fit_pr_h1(null_mixture_truth(20, seed=s), 100 + s, s) < 0.5
             for s in range(10))
    ok = h1 >= 9 and h0 >= 9
    criterion(4, ok, f"H1 detected {h1}/10, H0 kept {h0}/10")


def test_criterion_5_edge_screen_error_rates(criterion):
    """Ten clique scenarios (10 truly different edges each, gap 0.55):
    pooled type I <= 0.01, type II <= 0.20, FDR <= 0.05 at epsilon=0.1
    and cutoff 0.95, with the Fisher/BH baseline strictly worse on
    type II."""
    tp = fp = fn = tn = fisher_fn = 0
    for s in range(10):
        truth = clique_difference_truth(20, seed=s)
        obs = sample_cohort(truth.params, 20, 20,
                            np.random.default_rng([s, 5]))
        draws = run_chain(obs, HyperParameters(V=20, H=4, R=2),
                          SamplerConfig(n_iter=1000, burn_in=400, thin=3,
                                        seed=s))
        report = compute_test_report(draws, epsilon=0.1, cutoff=0.95)
        true_mask = np.zeros(190, dtype=bool)
        true_mask[truth.different_edges] = True
        sig = report.significant_edges
        tp += int((sig & true_mask).sum())
        fp += int((sig & ~true_mask).sum())
        fn += int((~sig & true_mask).sum())
        tn += int((~sig & ~true_mask).sum())
        fisher = fisher_baseline(obs, fdr_level=0.05)
        fisher_fn += int((~fisher & true_mask).sum())
    type1 = fp / (fp + tn)
    type2 = fn / (fn + tp)
    fdr = fp / max(tp + fp, 1)
    fisher_type2 = fisher_fn / (fn + tp)
    ok = (type1 <= 0.01 and type2 <= 0.20 and fdr <= 0.05
          and fisher_type2 > type2)
    criterion(5, ok, f"typeI={type1:.4f}, typeII={type2:.3f}, "
                     f"FDR={fdr:.3f}, fisher typeII={fisher_type2:.3f}")


def test_criterion_6_classification(criterion):
    """Separable truth at V=20, n=100: in-sample AUC >= 0.95 and
    held-out AUC >= 0.85 on a 3/4 - 1/4 split."""
    truth = separable_truth(20, seed=7)
    obs = sample_cohort(truth.params, 50, 50, np.random.default_rng(21))
    hyper = HyperParameters(V=20, H=3, R=2)
    draws = run_chain(obs, hyper,
                      SamplerConfig(n_iter=800, burn_in=300, thin=2, seed=6))
    auc_in, _ = evaluate_classifier(classify(draws, obs))
    train = [obs[i] for i in range(100) if i % 4 != 3]
    held = [obs[i] for i in range(100) if i % 4 == 3]
    draws_tr = run_chain(train, hyper,
                         SamplerConfig(n_iter=800, burn_in=300, thin=2,
                                       seed=8))
    auc_out, _ = evaluate_classifier(classify(draws_tr, held))
    ok = auc_in >= 0.95 and auc_out >= 0.85
    criterion(6, ok, f"AUC in-sample={auc_in:.3f} (n=100), "
                     f"held-out={auc_out:.3f} (n=25)")


def test_criterion_7_polya_gamma_moments(criterion):
    """200,000 draws at c in {0, 1, 2} match E[PG(1,c)] = tanh(c/2)/(2c)
    (1/4 at c=0) within 0.002."""
    rng = np.random.default_rng(123)
    gaps = {}
    for c in (0.0, 1.0, 2.0):
        target = 0.25 if c == 0.0 else math.tanh(c / 2) / (2 * c)
        draws = polya_gamma(np.full(200_000, c), rng)
        gaps[c] = abs(float(draws.mean()) - target)
    ok = max(gaps.values()) < 0.002
    criterion(7, ok, ", ".join(f"c={c:g}: |err|={g:.2e}"
                               for c, g in gaps.items()))


def test_criterion_8_byte_identical_reruns(criterion, tmp_path):
    """The same manifest, config, and seed produce byte-identical draw
    archives and test reports across two full runs."""
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("scenario = shifted\nv = 8\nn0 = 8\nn1 = 8\n"
                       "seed = 4\n")
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text("h = 2\nr = 1\nn_iter = 80\nburn_in = 40\n"
                       "thin = 2\nseed = 13\n")
    blobs = {}
    for run in ("a", "b"):
        sim = tmp_path / f"sim_{run}"
        out = tmp_path / f"out_{run}"
        assert run_cli(["simulate", "--config", str(sim_cfg),
                        "--out-dir", str(sim)]) == 0
        assert run_cli(["fit", "--manifest", str(sim / "manifest.csv"),
                        "--config", str(fit_cfg),
                        "--out-dir", str(out)]) == 0
        assert run_cli(["test", "--archive", str(out / "draws.bin"),
                        "--out-dir", str(out)]) == 0
        blobs[run] = {
            "manifest": (sim / "manifest.csv").read_bytes(),
            "draws": (out / "draws.bin").read_bytes(),
            "report": (out / "test_report.json").read_bytes(),
        }
    same = {k: blobs["a"][k] == blobs["b"][k] for k in blobs["a"]}
    ok = all(same.values())
    criterion(8, ok, f"identical: manifest={same['manifest']}, "
                     f"draws={same['draws']}, report={same['report']}")


def test_criterion_9_rank_recovery(criterion):
    """Rank-one truth fit with R=5: the shrinkage prior must push the
    dominant component's second factor weight below a tenth of the first
    (posterior mean of lam_2/lam_1 < 0.1)."""
    truth = rank_one_truth(20, weight=1.2, seed=3)
    obs = sample_cohort(truth.params, 400, 400, np.random.default_rng(12))
    hyper = HyperParameters(V=20, H=2, R=5, mig_a2=10.0)
    draws = run_chain(obs, hyper,
                      SamplerConfig(n_iter=2000, burn_in=1000, thin=2,
                                    seed=12))
    ratios = np.empty(draws.n_draws)
    lams = draws.lam
    for k in range(draws.n_draws):
        counts = np.bincount(draws.assignments[k], minlength=2)
        lam = lams[k, int(np.argmax(counts))]
        ratios[k] = lam[1] / lam[0]
    mean_ratio = float(ratios.mean())
    criterion(9, mean_ratio < 0.1,
              f"posterior mean lam2/lam1={mean_ratio:.4f}")
