"""Exact sampler for the Polya-Gamma distribution PG(1, c).

Alternating-series rejection sampler for the Jacobi-type J*(1, z)
distribution with tilt z = |c|/2; a PG(1, c) draw is J*(1, z)/4. The
proposal mixes a truncated exponential (right tail, x > t) with a
truncated inverse Gaussian (left piece, x <= t) at the classic crossover
t = 0.64, and the accept/reject decision uses the partial sums of the
alternating series for the J* density, so acceptance is exact, not
approximate.

The tilt-only quantities (z, the exponential rate fz and the branch
probability, which costs two log_ndtr calls) are tabled once per distinct
tilt: the caller may pass a table c of distinct tilts plus the rows to
draw from, as the Gibbs sampler does with its (H, L) similarities and the
subjects' assignments. The rejection loop then walks the output in fixed
blocks of whole rows, about _BLOCK_ENTRIES entries each, gathering the
block's tables, with per-entry bookkeeping inside the block. At that size
the loop's float64 temporaries (~256 KiB) stay in cache and are recycled
from malloc's heap; output-sized temporaries of a few MiB are handed back
to the OS and faulted in again on every call. Each block consumes its own
uniforms in turn, so results are reproducible given a seeded Generator,
the input order and the block size.
"""
from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr

__all__ = ["polya_gamma", "polya_gamma_draw"]

_T = 0.64
_MAX_SERIES_TERMS = 10_000
_MAX_REJECTION_ROUNDS = 10_000
# entries per block of the rejection loop, rounded down to whole rows: a
# block's float64 temporaries (~256 KiB) stay in L2 and in malloc's heap
_BLOCK_ENTRIES = 2**15


def _exp_branch_prob(z: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Probability of proposing from the exponential (x > t) branch."""
    rt = np.sqrt(1.0 / _T)
    x0 = np.log(fz) + fz * _T
    b = rt * (_T * z - 1.0)
    a = -rt * (_T * z + 1.0)
    # exp can overflow for huge z; the resulting inf maps to probability 0,
    # which is the correct limit (mass concentrates left of t)
    with np.errstate(over="ignore"):
        q_over_p = (4.0 / np.pi) * (np.exp(x0 - z + log_ndtr(b))
                                    + np.exp(x0 + z + log_ndtr(a)))
    return 1.0 / (1.0 + q_over_p)


def _series_coef(n: int, x: np.ndarray) -> np.ndarray:
    """n-th coefficient of the alternating series for the J*(1, z=0) kernel."""
    k = (n + 0.5) * np.pi
    right = k * np.exp(-0.5 * k * k * x)
    with np.errstate(divide="ignore"):
        left = np.exp(-1.5 * (np.log(0.5 * np.pi) + np.log(x))
                      + np.log(k) - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x > _T, right, left)


def _rtigauss(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse Gaussian IG(1/z, 1) truncated to (0, t], vectorized."""
    out = np.empty_like(z)

    # small tilt: rejection from the t-truncated chi-like proposal
    idx = np.flatnonzero(z < 1.0 / _T)
    rounds = 0
    while idx.size:
        m = idx.size
        e1 = rng.standard_exponential(m)
        e2 = rng.standard_exponential(m)
        valid = e1 * e1 <= 2.0 * e2 / _T
        x = _T / (1.0 + _T * e1) ** 2
        accept = valid & (rng.random(m) <= np.exp(-0.5 * z[idx] ** 2 * x))
        out[idx[accept]] = x[accept]
        idx = idx[~accept]
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("truncated inverse Gaussian sampler stalled")

    # larger tilt: sample IG(mu, 1) directly, keep draws inside (0, t]
    idx = np.flatnonzero(z >= 1.0 / _T)
    rounds = 0
    while idx.size:
        mu = 1.0 / z[idx]
        y = rng.standard_normal(idx.size) ** 2
        muy = mu * y
        x = mu + 0.5 * mu * muy - 0.5 * mu * np.sqrt(4.0 * muy + muy * muy)
        flip = rng.random(idx.size) > mu / (mu + x)
        x = np.where(flip, mu * mu / x, x)
        accept = x <= _T
        out[idx[accept]] = x[accept]
        idx = idx[~accept]
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("truncated inverse Gaussian sampler stalled")

    return out


def _draw_block(z: np.ndarray, fz: np.ndarray, p_exp: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Exact J*(1, z) draws for one block, given its tilt tables."""
    draws = np.empty_like(z)
    pending = np.arange(z.size)
    rounds = 0
    while pending.size:
        m = pending.size
        zz = z[pending]
        use_exp = rng.random(m) < p_exp[pending]
        prop = np.empty(m)
        n_exp = int(use_exp.sum())
        if n_exp:
            prop[use_exp] = _T + rng.standard_exponential(n_exp) / fz[pending[use_exp]]
        if m - n_exp:
            prop[~use_exp] = _rtigauss(zz[~use_exp], rng)

        # squeeze via partial sums: odd terms bound from below (accept),
        # even terms from above (reject); ties accept, which also settles
        # the fully underflowed S = Y = 0 case
        s = _series_coef(0, prop)
        y = rng.random(m) * s
        accepted = np.zeros(m, dtype=bool)
        active = np.arange(m)
        n = 1
        while active.size:
            coef = _series_coef(n, prop[active])
            if n & 1:
                s[active] -= coef
                acc = y[active] <= s[active]
                accepted[active[acc]] = True
                active = active[~acc]
            else:
                s[active] += coef
                rej = y[active] > s[active]
                active = active[~rej]
            n += 1
            if n > _MAX_SERIES_TERMS:  # pragma: no cover
                raise RuntimeError("alternating series did not resolve")

        draws[pending[accepted]] = prop[accepted]
        pending = pending[~accepted]
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("rejection sampler stalled")
    return draws


def polya_gamma(c: np.ndarray, rng: np.random.Generator,
                rows: np.ndarray | None = None) -> np.ndarray:
    """Independent PG(1, t) draws, one per entry t of c, or of c[rows]
    when rows is given.

    With rows, c holds the distinct tilts (say S, one row per component)
    and the integer array rows indexes its first axis (say the
    assignments); the result has the shape of c[rows] and equals
    polya_gamma(c[rows], rng) bit for bit under the same seed, without the
    tilt-only work per gathered entry.
    """
    c = np.asarray(c, dtype=np.float64)
    if not np.isfinite(c).all():
        raise ValueError("tilt values must be finite")
    width = int(np.prod(c.shape[1:]))
    z = 0.5 * np.abs(c).reshape(c.shape[0] if c.ndim else 1, width)
    fz = 0.125 * np.pi ** 2 + 0.5 * z * z
    p_exp = _exp_branch_prob(z, fz)
    if rows is None:
        shape, rows = c.shape, np.arange(z.shape[0])
    else:
        rows = np.asarray(rows)
        shape, rows = rows.shape + c.shape[1:], rows.ravel()

    out = np.empty((rows.size, width))
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        out[start:start + step] = _draw_block(
            z[block].ravel(), fz[block].ravel(), p_exp[block].ravel(),
            rng).reshape(block.size, width)
    out *= 0.25
    return out.reshape(shape)


def polya_gamma_draw(c: float, rng: np.random.Generator) -> float:
    """Single PG(1, c) draw."""
    return float(polya_gamma(np.asarray([c], dtype=np.float64), rng)[0])
