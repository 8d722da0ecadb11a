"""Brute-force reference computations for tiny node counts.

Everything here enumerates all 2^L networks explicitly and works in plain
linear-space Python floats with compensated summation (math.fsum), on
purpose: it shares only the parameter types with the vectorized log-space
main path, so agreement between the two is meaningful evidence.

Applicable for V <= 5 (L <= 10, at most 1024 configurations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MixtureParameters, edge_index_map

__all__ = ["ExactPmfTable", "enumerate_pmf", "exact_cramers_v"]

_MAX_V = 5

# same open-interval guard as the production logistic; part of the model
# definition, restated here rather than imported
_PI_LO = np.nextafter(0.0, 1.0)
_PI_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class ExactPmfTable:
    """Exhaustive pmf over all binary networks on V nodes.

    probs[c] is the probability of the network whose edge l (1-based) is
    present iff bit (l-1) of c is set. Entries must sum to 1 within 1e-12.
    """

    V: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        L = self.V * (self.V - 1) // 2
        if probs.shape != (2 ** L,):
            raise ValueError(f"need 2^L={2 ** L} entries, got {probs.shape}")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "probs", probs)

    @property
    def L(self) -> int:
        return self.V * (self.V - 1) // 2

    def prob_of(self, edges) -> float:
        """Probability of one explicit edge vector."""
        config = 0
        for l, bit in enumerate(edges):
            if bit:
                config |= 1 << l
        return float(self.probs[config])

    def edge_marginal(self, l: int) -> float:
        """P(edge l present), l in 1..L."""
        if not (1 <= l <= self.L):
            raise ValueError(f"edge index {l} outside 1..L={self.L}")
        mask = 1 << (l - 1)
        return math.fsum(float(p) for c, p in enumerate(self.probs) if c & mask)


def _component_edge_probs(params: MixtureParameters, h: int) -> list[float]:
    """Per-edge probabilities of component h via scalar arithmetic."""
    emap = edge_index_map(params.V)
    X, lam = params.X[h], params.lam[h]
    out = []
    for l in range(emap.L):
        v = int(emap.rows0[l])
        u = int(emap.cols0[l])
        terms = [float(lam[r]) * float(X[v, r]) * float(X[u, r])
                 for r in range(params.R)]
        s = float(params.Z[l]) + math.fsum(terms)
        p = 1.0 / (1.0 + math.exp(-s)) if s > -700 else 0.0
        out.append(min(max(p, float(_PI_LO)), float(_PI_HI)))
    return out


def enumerate_pmf(params: MixtureParameters, y: int | None = None) -> ExactPmfTable:
    """Exact pmf table of p(a | y), or of the marginal p(a) when y is None."""
    if params.V > _MAX_V:
        raise ValueError(f"enumeration limited to V <= {_MAX_V}, got V={params.V}")
    L = params.L
    if y is None:
        weights = [(1.0 - params.pY1) * float(params.nu[0, h])
                   + params.pY1 * float(params.nu[1, h])
                   for h in range(params.H)]
    elif y in (0, 1):
        weights = [float(w) for w in params.nu[int(y)]]
    else:
        raise ValueError(f"group label must be 0 or 1, got {y!r}")
    comp_pi = [_component_edge_probs(params, h) for h in range(params.H)]

    probs = np.empty(2 ** L, dtype=np.float64)
    for config in range(2 ** L):
        contribs = []
        for h in range(params.H):
            pi = comp_pi[h]
            prob = 1.0
            for l in range(L):
                prob *= pi[l] if (config >> l) & 1 else 1.0 - pi[l]
            contribs.append(weights[h] * prob)
        probs[config] = math.fsum(contribs)
    return ExactPmfTable(V=params.V, probs=probs)


def exact_cramers_v(params: MixtureParameters) -> np.ndarray:
    """Per-edge association between group label and edge indicator.

    Builds the exact 2x2 joint of (y, a_l) for every edge by marginalizing
    the enumerated group-conditional tables, then applies the definition of
    the (2x2, one degree of freedom) association coefficient directly.
    """
    table0 = enumerate_pmf(params, y=0)
    table1 = enumerate_pmf(params, y=1)
    pY = [1.0 - params.pY1, params.pY1]
    rho = np.empty(params.L, dtype=np.float64)
    for l in range(1, params.L + 1):
        cond = [table0.edge_marginal(l), table1.edge_marginal(l)]
        marg1 = math.fsum(pY[yv] * cond[yv] for yv in (0, 1))
        marg = [1.0 - marg1, marg1]
        if min(marg) <= 0.0:
            if cond[0] == cond[1]:
                rho[l - 1] = 0.0
                continue
            raise ValueError(
                f"edge {l}: degenerate marginal with unequal conditionals")
        # (p(a=0|y) - p(a=0)) = -(p(a=1|y) - p(a=1)), so both cells share
        # the squared numerator
        rho2 = math.fsum(
            pY[yv] * (cond[yv] - marg1) ** 2 / marg[a]
            for yv in (0, 1) for a in (0, 1)
        )
        rho[l - 1] = math.sqrt(rho2)
    return rho
