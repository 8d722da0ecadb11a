"""Synthetic ground truths for power studies and calibration checks.

Each builder returns a fully specified MixtureParameters, from which its
truth derives what a study needs to score itself (true per-edge
probabilities, association coefficients, which edges truly differ).
Deviations are built from nonnegative rank-one factors, so every truth
lies inside the model family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MixtureParameters, _logit, edge_count, edge_index_map
from .testing import cramers_v

__all__ = [
    "SyntheticTruth",
    "shifted_mixture_truth",
    "null_mixture_truth",
    "clique_difference_truth",
    "separable_truth",
    "rank_one_truth",
]


@dataclass(frozen=True)
class SyntheticTruth:
    """A ground-truth parameter state; its summaries are derived on access,
    different_edges as the 0-based indices where pi0 != pi1."""

    params: MixtureParameters

    @property
    def pi0(self) -> np.ndarray:
        return self.params.group_edge_probability(0)

    @property
    def pi1(self) -> np.ndarray:
        return self.params.group_edge_probability(1)

    @property
    def rho(self) -> np.ndarray:
        return cramers_v(self.params)

    @property
    def different_edges(self) -> np.ndarray:
        return np.flatnonzero(self.pi0 != self.pi1)


def _two_level_truth(V: int, spread: float, shift: float, seed: int,
                     shared: bool) -> SyntheticTruth:
    """Components at log-odds c -/+ shift, c drawn per edge in (-spread,
    spread), via an all-ones deviation of weight 2 shift (weights must be
    nonnegative, so Z carries the low side); group y is on component y
    unless the groups share weights."""
    base = np.random.default_rng(seed).uniform(-spread, spread, edge_count(V))
    X = np.stack([np.zeros((V, 1)), np.ones((V, 1))])
    nu, T = (np.full((2, 2), 0.5), 0) if shared else (np.eye(2), 1)
    return SyntheticTruth(MixtureParameters(
        Z=base - shift, X=X, lam=np.array([[0.0], [2.0 * shift]]),
        nu=nu, pY1=0.5, T=T))


def shifted_mixture_truth(V: int, shift: float = 1.1, seed: int = 0) -> SyntheticTruth:
    """Group-separated truth: group 0 networks live at log-odds c - shift,
    group 1 at c + shift, c drawn once per edge in (-0.3, 0.3).

    With shift 1.1 the per-edge probability gap is at least ~0.49.
    """
    return _two_level_truth(V, 0.3, shift, seed, shared=False)


def null_mixture_truth(V: int, shift: float = 0.8, seed: int = 0) -> SyntheticTruth:
    """Heterogeneous but group-independent truth: both groups draw from the
    same two-component mixture, so every association is exactly zero."""
    return _two_level_truth(V, 0.3, shift, seed, shared=True)


def clique_difference_truth(V: int, clique_size: int = 5,
                            low: float = 0.2, high: float = 0.75,
                            seed: int = 0) -> SyntheticTruth:
    """Sparse localized difference: edges inside a clique of the first
    clique_size nodes have probability `low` in group 0 and `high` in
    group 1; all other edges are identical across groups.

    The deviation is exactly rank one (indicator factors scaled by the
    logit gap), so clique_size k gives k(k-1)/2 truly different edges
    when low != high.
    """
    if not (2 <= clique_size <= V):
        raise ValueError(f"clique_size must lie in 2..V, got {clique_size}")
    rng = np.random.default_rng(seed)
    emap = edge_index_map(V)
    in_clique = (emap.rows0 < clique_size) & (emap.cols0 < clique_size)
    Z = rng.uniform(_logit(0.35), _logit(0.6), emap.L)
    Z[in_clique] = _logit(low)
    gap = float(_logit(high) - _logit(low))
    X = np.zeros((2, V, 1))
    X[1, :clique_size, 0] = 1.0
    return SyntheticTruth(MixtureParameters(
        Z=Z, X=X, lam=np.array([[0.0], [gap]]), nu=np.eye(2), pY1=0.5, T=1))


def separable_truth(V: int, shift: float = 0.9, seed: int = 0) -> SyntheticTruth:
    """Classification truth: the two groups concentrate on two components
    whose edge probabilities differ by roughly expit(c+shift) - expit(c-shift)
    on every edge, enough signal to separate subjects from one network."""
    return _two_level_truth(V, 0.5, shift, seed, shared=False)


def rank_one_truth(V: int, weight: float = 1.2, share: float = 0.75,
                   seed: int = 0) -> SyntheticTruth:
    """Shared mixture of a dominant component with an exactly rank-one
    deviation and a flat component; used to check that the shrinkage prior
    kills the spare columns when fit with extra rank.

    The flat component matters: deviations are sums of lam_r X_r X_r^T with
    lam_r >= 0, hence positive semidefinite, so its presence pins Z at the
    baseline and stops Z from absorbing the dominant component's signal
    (with a lone component that split is unidentified and the fitted rank
    drifts)."""
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"share must lie in [0, 1], got {share}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.9, 1.5, size=(V, 1)) * rng.choice([-1.0, 1.0], size=(V, 1))
    Z = rng.uniform(-0.5, 0.5, edge_count(V))
    return SyntheticTruth(MixtureParameters(
        Z=Z, X=np.stack([x, np.zeros((V, 1))]),
        lam=np.array([[weight], [0.0]]),
        nu=np.tile([share, 1.0 - share], (2, 1)), pY1=0.5, T=0))
