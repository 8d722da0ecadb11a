"""Simulation-based calibration of the full sampler (Talts et al. 2018).

Each replicate draws a parameter state from the prior, simulates a
labelled cohort from it, and fits that cohort with run_chain. When the
sampler targets the right posterior, the rank of the true value among the
kept draws is uniform on 0..K. The check covers pY1, one entry of Z and
T; T is binary, so ties with the true value are broken uniformly at
random. Seeds, replicate count, chain schedule and the family-wise level
are fixed in advance; the rank histograms are tested with a chi-square
goodness-of-fit test at level 0.001 split over the three quantities
(Bonferroni).

A second check ranks quantities that see the Z and factor blocks at R = 2
and do not change when components are relabelled or the factors are
rotated: the data log-likelihood at the draw, ||Z||^2, and the
subject-averaged log-odds of two fixed edges. It has its own family-wise
level, split the same way.
"""
import time

import numpy as np
from scipy.stats import chisquare

from netmix.core import _component_log_liks, _deviations, sample_joint_cohort
from netmix.inference import CohortData, SamplerConfig, run_chain
from netmix.priors import HyperParameters, sample_prior

FAMILY_LEVEL = 0.001
N_REPLICATES = 100
N_BINS = 4


def _rank(truth: float, draws: np.ndarray, rng: np.random.Generator) -> int:
    """Rank of truth among the draws, ties placed uniformly at random."""
    below = int(np.sum(draws < truth))
    ties = int(np.sum(draws == truth))
    return below + int(rng.integers(0, ties + 1))


def test_sbc_rank_uniformity():
    t0 = time.perf_counter()
    hyper = HyperParameters(V=4, H=2, R=1)
    config = dict(n_iter=80, burn_in=20, thin=4)
    n_subjects = 16
    rng = np.random.default_rng(20180406)
    ranks = np.empty((N_REPLICATES, 3), dtype=np.int64)
    for rep in range(N_REPLICATES):
        params, _ = sample_prior(hyper, rng)
        obs, _ = sample_joint_cohort(params, n_subjects, rng)
        draws = run_chain(CohortData.from_observations(obs), hyper,
                          SamplerConfig(seed=int(rng.integers(2**31)),
                                        **config))
        ranks[rep] = (_rank(params.pY1, draws.pY1, rng),
                      _rank(params.Z[0], draws.Z[:, 0], rng),
                      _rank(params.T, draws.T, rng))
    elapsed = time.perf_counter() - t0
    n_ranks = SamplerConfig(**config).n_draws + 1
    assert n_ranks % N_BINS == 0
    pvalues = {}
    for j, name in enumerate(("pY1", "Z[0]", "T")):
        counts = np.bincount(ranks[:, j] * N_BINS // n_ranks,
                             minlength=N_BINS)
        pvalues[name] = float(chisquare(counts).pvalue)
    worst = min(pvalues.values())
    detail = ", ".join(f"{k}: p={v:.4f}" for k, v in pvalues.items())
    assert worst > FAMILY_LEVEL / len(pvalues), detail
    assert elapsed < 60.0, f"{elapsed:.1f}s; {detail}"


def _invariants(Z, X, lam, assignments, A):
    """Per-draw (log-likelihood of A, ||Z||^2, mean log-odds of edges 0
    and L-1 over subjects) for stacks Z (K, L), X (K, H, V, R), lam
    (K, H, R) and assignments (K, n)."""
    S = Z[:, None, :] + _deviations(X * lam[:, :, None, :], X)
    subject_S = np.take_along_axis(S, assignments[:, :, None], axis=1)
    loglik = np.take_along_axis(_component_log_liks(S, A),
                                assignments[:, :, None], axis=2)
    return np.column_stack([loglik.sum(axis=(1, 2)), (Z * Z).sum(axis=1),
                            subject_S[:, :, 0].mean(axis=1),
                            subject_S[:, :, -1].mean(axis=1)])


def test_sbc_factor_invariants():
    # many short chains (7 kept draws, 8 ranks) on small cohorts: a
    # doubled Z conditional variance shifts the loglik and ||Z||^2 ranks
    # by a fraction of their spread per replicate, so power comes from
    # the replicate count; with more subjects the factors absorb more of
    # the extra Z noise and the shift shrinks
    t0 = time.perf_counter()
    hyper = HyperParameters(V=4, H=2, R=2)
    config = dict(n_iter=48, burn_in=20, thin=4)
    n_subjects, n_replicates = 8, 300
    rng = np.random.default_rng(20111126)
    names = ("loglik", "|Z|^2", "S_G[0]", "S_G[L-1]")
    ranks = np.empty((n_replicates, len(names)), dtype=np.int64)
    for rep in range(n_replicates):
        params, _ = sample_prior(hyper, rng)
        obs, G = sample_joint_cohort(params, n_subjects, rng)
        cohort = CohortData.from_observations(obs)
        draws = run_chain(cohort, hyper,
                          SamplerConfig(seed=int(rng.integers(2**31)),
                                        **config))
        truth = _invariants(params.Z[None], params.X[None], params.lam[None],
                            G[None], cohort.A)[0]
        at_draws = _invariants(draws.Z, draws.X, draws.lam,
                               draws.assignments.astype(np.int64), cohort.A)
        ranks[rep] = [_rank(truth[j], at_draws[:, j], rng)
                      for j in range(len(names))]
    elapsed = time.perf_counter() - t0
    n_ranks = SamplerConfig(**config).n_draws + 1
    assert n_ranks % N_BINS == 0
    pvalues = {}
    for j, name in enumerate(names):
        counts = np.bincount(ranks[:, j] * N_BINS // n_ranks,
                             minlength=N_BINS)
        pvalues[name] = float(chisquare(counts).pvalue)
    worst = min(pvalues.values())
    detail = ", ".join(f"{k}: p={v:.2e}" for k, v in pvalues.items())
    assert worst > FAMILY_LEVEL / len(pvalues), detail
    assert elapsed < 60.0, f"{elapsed:.1f}s; {detail}"
