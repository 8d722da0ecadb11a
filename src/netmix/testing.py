"""Group-difference tests and label prediction from posterior draws.

The global test reports Pr(T = 1 | data), the posterior probability that
the mixing weights differ between groups. The local test screens edges by
the posterior probability that the per-edge association coefficient
exceeds a practical-relevance threshold epsilon; edges whose exceedance
probability passes a decision cutoff are flagged. A Fisher exact test per
edge with Benjamini-Hochberg correction is included as the classical
baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (MixtureParameters, _component_log_liks, _deviations,
                   _expit, _log_mixture, _logit, edge_index_map, logistic_map,
                   node_count)
from .inference import PosteriorDraws, as_cohort
from .priors import lam_from_theta

__all__ = [
    "TestReport",
    "ClassificationResult",
    "global_test",
    "cramers_v",
    "cramers_v_from_probs",
    "compute_test_report",
    "test_degree",
    "classify",
    "evaluate_classifier",
    "fisher_edge_pvalues",
    "bh_reject",
    "fisher_baseline",
]

DEFAULT_EPSILON = 0.1
DEFAULT_CUTOFF = 0.95


@dataclass(frozen=True)
class TestReport:
    """Output of the two-group comparison.

    pr_H1 is None when the cohort had a single group (global test
    undefined). rho_exceed[l] is the posterior probability that edge l's
    association exceeds epsilon; significant_edges is rho_exceed >
    decision_cutoff, and a report whose flags disagree is refused;
    edge_diff is the posterior mean difference in group edge
    probabilities (group 1 minus group 0).
    """

    pr_H1: float | None
    rho_exceed: np.ndarray
    epsilon: float
    edge_diff: np.ndarray
    significant_edges: np.ndarray
    decision_cutoff: float

    def __post_init__(self):
        rho = np.asarray(self.rho_exceed, dtype=np.float64)
        diff = np.asarray(self.edge_diff, dtype=np.float64)
        sig = np.asarray(self.significant_edges, dtype=bool)
        if not (rho.shape == diff.shape == sig.shape) or rho.ndim != 1:
            raise ValueError("per-edge vectors must share one 1-d shape")
        node_count(rho.shape[0])
        if not ((rho >= 0) & (rho <= 1)).all():  # NaN fails both
            raise ValueError("exceedance probabilities must lie in [0, 1]")
        if not np.isfinite(diff).all():
            raise ValueError("edge differences must be finite")
        if not (0.0 < self.epsilon < 1.0 and 0.0 < self.decision_cutoff < 1.0):
            raise ValueError("epsilon and cutoff must lie in (0, 1)")
        if self.pr_H1 is not None and not (0.0 <= self.pr_H1 <= 1.0):
            raise ValueError("pr_H1 must lie in [0, 1]")
        if not np.array_equal(sig, rho > self.decision_cutoff):
            raise ValueError("significant edges must be those whose "
                             "exceedance probability is above the cutoff")
        object.__setattr__(self, "rho_exceed", rho)
        object.__setattr__(self, "edge_diff", diff)
        object.__setattr__(self, "significant_edges", sig)

    @property
    def L(self) -> int:
        return self.rho_exceed.shape[0]

    @property
    def V(self) -> int:
        return node_count(self.L)


@dataclass(frozen=True)
class ClassificationResult:
    """Per-subject posterior probabilities of group 1 and hard labels at
    the 0.5 threshold."""

    subject_ids: tuple[str, ...]
    labels: np.ndarray
    probabilities: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        pred = np.asarray(self.predicted, dtype=np.int8)
        n = len(self.subject_ids)
        if not (probs.shape == labels.shape == pred.shape == (n,)):
            raise ValueError("classification arrays must align with subjects")
        if not ((probs >= 0) & (probs <= 1)).all():  # NaN fails both
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "predicted", pred)


def global_test(draws: PosteriorDraws) -> float:
    """Posterior probability that the groups differ in mixture weights."""
    if draws.meta.get("single_group"):
        raise ValueError("global test needs both groups in the cohort")
    return float(np.mean(draws.T))


def cramers_v_from_probs(p0: np.ndarray, p1: np.ndarray, pY1) -> np.ndarray:
    """Association coefficient of (label, edge) from the group-conditional
    edge probabilities and the group-1 prevalence.

    pY1 may be an array that broadcasts against p0 and p1. Degenerate
    edges (marginal probability exactly 0 or 1) score 0 when the
    conditionals agree and raise otherwise.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=np.float64))
    p1 = np.atleast_1d(np.asarray(p1, dtype=np.float64))
    if p0.shape != p1.shape:
        raise ValueError("conditional probability vectors must align")
    w1 = np.asarray(pY1, dtype=np.float64)
    if not ((w1 >= 0.0) & (w1 <= 1.0)).all():
        raise ValueError("pY1 must lie in [0, 1]")
    w0 = 1.0 - w1
    marg = w0 * p0 + w1 * p1
    degenerate = (marg <= 0.0) | (marg >= 1.0)
    if degenerate.any():
        if not np.array_equal(p0[degenerate], p1[degenerate]):
            raise ValueError("degenerate edge with unequal group conditionals")
    # both cells of the 2x2 share the squared numerator, so the chi-square
    # collapses to (p_y - marg)^2 / (marg (1-marg))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = (w0 * (p0 - marg) ** 2
                + w1 * (p1 - marg) ** 2) / (marg * (1.0 - marg))
    return np.sqrt(np.where(degenerate, 0.0, rho2))


def cramers_v(params: MixtureParameters) -> np.ndarray:
    """Per-edge association implied by one parameter state."""
    pi = params.edge_probabilities()
    p0 = params.nu[0] @ pi
    p1 = params.nu[1] @ pi
    return cramers_v_from_probs(p0, p1, params.pY1)


# cap on one block's (k, H, V, V) Gram matrices (one draw at V=68, H=15).
# A block's temporaries must stay small enough for malloc to recycle them
# from its heap: blocks of several MiB are handed back to the OS and
# faulted in again on every call unless the heap's trim threshold has grown
# past them, which makes post-fit time depend on the allocation history.
_BLOCK_BYTES = 2**20


def _edge_log_odds_blocks(draws: PosteriorDraws):
    """Yield (draw slice, (k, H, L) edge log-odds) block by block."""
    K, H, V, _ = draws.X.shape
    step = max(1, _BLOCK_BYTES // (8 * H * V * V))
    for sl in (slice(i, i + step) for i in range(0, K, step)):
        X = draws.X[sl]
        S = _deviations(X * lam_from_theta(draws.theta[sl])[:, :, None, :], X)
        S += draws.Z[sl][:, None, :]
        yield sl, S


def _edge_functionals(draws: PosteriorDraws,
                      epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(exceedance probabilities, mean edge differences) of the draws from
    one pass over the blocks, which both read through the group edge
    probabilities."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    exceed = np.zeros(draws.Z.shape[1])
    diff = np.zeros(draws.Z.shape[1])
    for sl, S in _edge_log_odds_blocks(draws):
        p = draws.nu[sl] @ logistic_map(S)
        rho = cramers_v_from_probs(p[:, 0], p[:, 1], draws.pY1[sl][:, None])
        exceed += (rho > epsilon).sum(axis=0)
        diff += (p[:, 1] - p[:, 0]).sum(axis=0)
    return exceed / draws.n_draws, diff / draws.n_draws


def compute_test_report(draws: PosteriorDraws, epsilon: float = DEFAULT_EPSILON,
                        cutoff: float = DEFAULT_CUTOFF) -> TestReport:
    """Assemble the global and local tests into one report.

    Single-group fits get pr_H1 = None; the local quantities are still
    computed (they are posterior functionals and remain defined, though
    uninformative without both groups).
    """
    if not (0.0 < cutoff < 1.0):
        raise ValueError(f"cutoff must lie in (0, 1), got {cutoff!r}")
    single = bool(draws.meta.get("single_group"))
    pr = None if single else global_test(draws)
    exceed, diff = _edge_functionals(draws, epsilon)
    return TestReport(pr_H1=pr, rho_exceed=exceed, epsilon=epsilon,
                      edge_diff=diff, significant_edges=exceed > cutoff,
                      decision_cutoff=cutoff)


def test_degree(significant_edges: np.ndarray) -> np.ndarray:
    """Number of flagged edges incident to each node (V,)."""
    sig = np.asarray(significant_edges, dtype=bool)
    V = node_count(sig.shape[0])
    emap = edge_index_map(V)
    return np.bincount(np.concatenate([emap.rows0[sig], emap.cols0[sig]]),
                       minlength=V)


def classify(draws: PosteriorDraws, data) -> ClassificationResult:
    """Posterior predictive Pr(y = 1 | network) averaged over draws.

    Each draw contributes Pr(y=1) pi(a|1) / sum_y Pr(y) pi(a|y) with the
    draw's own mixture; the reported probability is the draw average.
    """
    cohort = as_cohort(data)
    if cohort.L != draws.Z.shape[1]:
        raise ValueError("cohort node count does not match the fitted draws")
    probs = np.zeros(cohort.n)
    prior_log_odds = _logit(draws.pY1)
    for sl, S in _edge_log_odds_blocks(draws):
        comp_lp = _component_log_liks(S, cohort.A)  # (k, n, H)
        lp_y = _log_mixture(comp_lp[:, :, None, :],
                            draws.nu[sl][:, None])  # (k, n, 2)
        probs += _expit(lp_y[..., 1] - lp_y[..., 0]
                        + prior_log_odds[sl, None]).sum(axis=0)
    probs /= draws.n_draws
    return ClassificationResult(subject_ids=cohort.subject_ids,
                                labels=cohort.y.copy(),
                                probabilities=probs,
                                predicted=(probs >= 0.5).astype(np.int8))


def evaluate_classifier(result: ClassificationResult) -> tuple[float, float]:
    """(AUC, accuracy) of a classification result against its labels.

    AUC is the Mann-Whitney statistic (ties count one half) over n0 n1;
    raises if only one group is present since AUC is undefined there.
    """
    y = result.labels
    n1 = int((y == 1).sum())
    n0 = y.shape[0] - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("AUC needs both groups present in the labels")
    p0 = np.sort(result.probabilities[y == 0])
    p1 = result.probabilities[y == 1]
    pairs = np.searchsorted(p0, p1, "left") + np.searchsorted(p0, p1, "right")
    auc = pairs.sum() / 2.0 / (n0 * n1)
    accuracy = float(np.mean(result.predicted == y))
    return float(auc), accuracy


def fisher_edge_pvalues(data) -> np.ndarray:
    """Two-sided Fisher exact test p-value per edge (2x2 table of
    label x edge-presence counts)."""
    from scipy.stats import fisher_exact  # slow to import; only needed here
    cohort = as_cohort(data)
    if cohort.single_group:
        raise ValueError("Fisher baseline needs both groups in the cohort")
    A0 = cohort.A[cohort.y == 0]
    A1 = cohort.A[cohort.y == 1]
    k0 = A0.sum(axis=0).astype(np.int64)
    k1 = A1.sum(axis=0).astype(np.int64)
    n0, n1 = A0.shape[0], A1.shape[0]
    pvals = np.empty(cohort.L)
    for l in range(cohort.L):
        table = [[int(k0[l]), n0 - int(k0[l])],
                 [int(k1[l]), n1 - int(k1[l])]]
        pvals[l] = fisher_exact(table, alternative="two-sided")[1]
    return pvals


def bh_reject(pvals: np.ndarray, level: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections at the given FDR level."""
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1 or not ((p >= 0) & (p <= 1)).all():  # NaN fails both
        raise ValueError("p-values must be a 1-d vector in [0, 1]")
    if not (0.0 < level < 1.0):
        raise ValueError(f"FDR level must lie in (0, 1), got {level!r}")
    m = p.shape[0]
    order = np.argsort(p, kind="stable")
    thresh = level * (np.arange(1, m + 1) / m)
    passing = np.flatnonzero(p[order] <= thresh)
    reject = np.zeros(m, dtype=bool)
    if passing.size:
        reject[order[:passing[-1] + 1]] = True
    return reject


def fisher_baseline(data, fdr_level: float = 0.05) -> np.ndarray:
    """Classical per-edge screen: Fisher exact p-values with BH control."""
    return bh_reject(fisher_edge_pvalues(data), fdr_level)
