"""Prior distributions: sampling and log-density evaluation.

Shared log-odds Z gets an iid normal prior, node factors are iid standard
normal, and the column weights lambda_r follow a multiplicative inverse
gamma chain: lambda_r = prod_{m<=r} 1/theta_m with theta_1 ~ Gamma(mig_a1, 1)
and theta_m ~ Gamma(mig_a2, 1) for m >= 2 (rate parameterization), which
stochastically shrinks higher columns toward zero. Mixing weights are
Dirichlet, either shared across groups (T=0) or group-specific (T=1), and
the group prevalence pY1 is Beta(a1, a0).

The densities' log Gamma terms come from math.lgamma, entry by entry: they
only ever take scalars and vectors of length H or R, and importing
scipy.special for them would cost a fit a few hundred milliseconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MixtureParameters, _check_integers, edge_count

__all__ = [
    "HyperParameters",
    "lam_from_theta",
    "sample_prior",
    "log_prior_from_arrays",
    "mixing_weights_log_prior",
]


@dataclass(frozen=True)
class HyperParameters:
    """Hyperparameters of the full model for a fixed node count V.

    dirichlet_conc defaults to 1/H so the total concentration is 1
    regardless of the truncation level.
    """

    V: int
    H: int = 15
    R: int = 10
    a0: float = 1.0
    a1: float = 1.0
    z_mean: float = 0.0
    z_var: float = 10.0
    mig_a1: float = 2.5
    mig_a2: float = 3.5
    dirichlet_conc: float | None = None
    prior_T1: float = 0.5

    def __post_init__(self):
        _check_integers(self, "V", "H", "R")
        edge_count(self.V)  # validates V >= 2
        if self.H < 1 or self.R < 1:
            raise ValueError(f"need H >= 1 and R >= 1, got H={self.H}, R={self.R}")
        if self.dirichlet_conc is None:
            object.__setattr__(self, "dirichlet_conc", 1.0 / self.H)
        for name in ("a0", "a1", "z_var", "mig_a1", "mig_a2", "dirichlet_conc"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        if not (0.0 <= self.prior_T1 <= 1.0):
            raise ValueError("prior_T1 must lie in [0, 1]")
        if not np.isfinite(self.z_mean):
            raise ValueError("z_mean must be finite")

    @property
    def L(self) -> int:
        return edge_count(self.V)


def _theta_shapes(hyper: HyperParameters) -> np.ndarray:
    shapes = np.full(hyper.R, hyper.mig_a2)
    shapes[0] = hyper.mig_a1
    return shapes


def lam_from_theta(theta: np.ndarray) -> np.ndarray:
    """Column weights lambda = cumprod(1/theta) along the last axis of
    theta (..., R); the one definition every module derives lambda by."""
    return np.cumprod(1.0 / theta, axis=-1)


def _sampler_lam(theta: np.ndarray) -> np.ndarray:
    """lam_from_theta of a sampler state's theta (H, R). The sampler divides
    by lambda, so a lambda of 0 or inf, which only extreme multiplicative
    gamma shapes draw, raises a ValueError naming the component."""
    with np.errstate(all="ignore"):
        lam = lam_from_theta(theta)
    if not (lam.min() > 0.0 and lam.max() < np.inf):  # a NaN fails too
        h, r = np.argwhere(~(np.isfinite(lam) & (lam > 0.0)))[0]
        raise ValueError(f"lambda of factor component index {h} is {lam[h, r]} "
                         f"at column index {r}: the multiplicative gamma shapes "
                         f"mig_a1/mig_a2 draw theta outside the float range")
    return lam


def sample_prior(hyper: HyperParameters,
                 rng: np.random.Generator) -> tuple[MixtureParameters, np.ndarray]:
    """Draw (parameters, theta) from the prior.

    theta is the (H, R) array of multiplicative inverse gamma auxiliaries;
    lambda = lam_from_theta(theta). Draw order is fixed
    (pY1, Z, theta, X, T, weights) so a seeded generator
    reproduces byte-identical results.
    """
    pY1 = float(rng.beta(hyper.a1, hyper.a0))
    Z = rng.normal(hyper.z_mean, np.sqrt(hyper.z_var), hyper.L)
    shapes = _theta_shapes(hyper)
    theta = rng.gamma(shape=shapes, scale=1.0, size=(hyper.H, hyper.R))
    X = rng.standard_normal((hyper.H, hyper.V, hyper.R))
    nu, T = _draw_weights_and_T(np.zeros((2, hyper.H)), hyper, rng)
    params = MixtureParameters(Z=Z, X=X, lam=_sampler_lam(theta), nu=nu,
                               pY1=pY1, T=T)
    return params, theta


def _log_dirichlet_multinomial(counts: np.ndarray, conc: float) -> float:
    lg = math.lgamma
    counts = counts.tolist()
    H, N, g = len(counts), sum(counts), lg(conc)
    return (lg(H * conc) - lg(H * conc + N)
            + sum(lg(conc + c) - g for c in counts))


def _draw_weights_and_T(counts: np.ndarray, hyper: HyperParameters,
                        rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Joint draw of (nu, T) given component counts (2, H), row y for group
    y, with nu collapsed out of the T step (Dirichlet-multinomial
    marginals). Zero counts draw from the prior: the marginals vanish,
    Pr(T=1) = prior_T1."""
    conc = hyper.dirichlet_conc
    with np.errstate(divide="ignore"):
        prior_t1 = float(np.log(hyper.prior_T1))
        prior_t0 = float(np.log1p(-hyper.prior_T1))
    log_t1 = (prior_t1
              + _log_dirichlet_multinomial(counts[0], conc)
              + _log_dirichlet_multinomial(counts[1], conc))
    log_t0 = prior_t0 + _log_dirichlet_multinomial(counts[0] + counts[1], conc)
    # Pr(T=1) = expit(d); math.exp(-d) overflows below d = -709, where
    # Pr(T=1) < 1e-307 is taken as 0
    d = log_t1 - log_t0
    T = int(rng.random() < (1.0 / (1.0 + math.exp(-d)) if d > -709.0 else 0.0))
    alpha = np.full(hyper.H, conc)
    if T == 1:
        nu = np.array([rng.dirichlet(alpha + c) for c in counts])
    else:
        nu = np.tile(rng.dirichlet(alpha + counts[0] + counts[1]), (2, 1))
    return nu, T


def _dirichlet_log_pdf(w: np.ndarray, alpha: np.ndarray) -> float:
    # -inf on the simplex boundary by the usual density convention
    if (w <= 0.0).any():
        return float("-inf")
    return float(math.lgamma(alpha.sum())
                 - sum(map(math.lgamma, alpha.tolist()))
                 + ((alpha - 1.0) * np.log(w)).sum())


def mixing_weights_log_prior(nu: np.ndarray, T: int,
                             hyper: HyperParameters) -> float:
    """Log prior of (nu, T), nu (2, H), including the Bernoulli(prior_T1)
    mass. A T=0 state with nu[0] != nu[1] is outside the support and scores
    -inf.
    """
    nu = np.asarray(nu, dtype=np.float64)
    alpha = np.full(hyper.H, hyper.dirichlet_conc)
    with np.errstate(divide="ignore"):
        log_t1 = float(np.log(hyper.prior_T1))
        log_t0 = float(np.log1p(-hyper.prior_T1))
    if T == 1:
        return (log_t1
                + _dirichlet_log_pdf(nu[0], alpha)
                + _dirichlet_log_pdf(nu[1], alpha))
    if T == 0:
        if not np.array_equal(nu[0], nu[1]):
            return float("-inf")
        return log_t0 + _dirichlet_log_pdf(nu[0], alpha)
    raise ValueError(f"T must be 0 or 1, got {T!r}")


def log_prior_from_arrays(Z: np.ndarray, X: np.ndarray, theta: np.ndarray,
                          nu: np.ndarray, pY1: float, T: int,
                          hyper: HyperParameters) -> float:
    """Joint log prior density of a state given as arrays: X (H, V, R),
    theta (H, R), which fixes lambda, and nu (2, H); unchecked."""
    lg = math.lgamma
    lp = 0.0
    # pY1 ~ Beta(a1, a0); Beta(x; a, b) on pY1 with a = a1 pairing group 1
    a, b = hyper.a1, hyper.a0
    lp += float(lg(a + b) - lg(a) - lg(b)
                + (a - 1.0) * np.log(pY1)
                + (b - 1.0) * np.log1p(-pY1))
    # Z iid normal
    resid = Z - hyper.z_mean
    lp += float(-0.5 * hyper.L * np.log(2.0 * np.pi * hyper.z_var)
                - 0.5 * (resid @ resid) / hyper.z_var)
    # factors iid standard normal
    lp += float(-0.5 * X.size * np.log(2.0 * np.pi) - 0.5 * np.sum(X * X))
    # theta: independent gammas, rate 1
    shapes = _theta_shapes(hyper)
    lp += float(np.sum((shapes - 1.0) * np.log(theta) - theta
                       - np.array([lg(s) for s in shapes.tolist()])))
    # mixing weights and dependence indicator
    lp += mixing_weights_log_prior(nu, T, hyper)
    return lp
