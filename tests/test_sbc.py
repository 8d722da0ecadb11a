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
"""
import time

import numpy as np
from scipy.stats import chisquare

from netmix.core import sample_joint_cohort
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
