"""Distributional checks for the Polya-Gamma sampler.

The oracle is the infinite-sum-of-gammas representation
PG(1, c) = (1/(2 pi^2)) sum_k g_k / ((k - 1/2)^2 + c^2/(4 pi^2)),
g_k iid standard exponential, truncated at 10,000 terms. Truncating
removes ~1/(2 pi^2 K) of the mean, invisible at these sample sizes.
"""
import numpy as np
import pytest
from scipy.stats import ks_2samp

from netmix import pg
from netmix.pg import polya_gamma, polya_gamma_draw

_ORACLE_TERMS = 10_000


def pg_mean(c: float) -> float:
    if c == 0.0:
        return 0.25
    return float(np.tanh(c / 2.0) / (2.0 * c))


def oracle_draws(c: float, n: int, rng: np.random.Generator) -> np.ndarray:
    k = np.arange(1, _ORACLE_TERMS + 1)
    denom = (k - 0.5) ** 2 + c * c / (4.0 * np.pi ** 2)
    out = np.zeros(n)
    for start in range(0, _ORACLE_TERMS, 500):  # chunked to bound memory
        d = denom[start:start + 500]
        out += rng.standard_exponential((n, d.size)) @ (1.0 / d)
    return out / (2.0 * np.pi ** 2)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0, 10.0, 40.0])
def test_sample_mean_matches_moment_formula(c):
    rng = np.random.default_rng(17)
    draws = polya_gamma(np.full(50_000, c), rng)
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - pg_mean(c)) < 4 * se + 1e-6


def test_oracle_agrees_with_moment_formula():
    rng = np.random.default_rng(3)
    for c in (0.0, 1.0, 3.0):
        d = oracle_draws(c, 20_000, rng)
        se = d.std() / np.sqrt(d.size)
        assert abs(d.mean() - pg_mean(c)) < 4 * se + 1e-4


def test_distribution_matches_oracle():
    # two-sample KS against the independent construction, 1% level
    rng = np.random.default_rng(11)
    for c in (0.0, 1.0, 2.5):
        sampler = polya_gamma(np.full(20_000, c), rng)
        oracle = oracle_draws(c, 20_000, rng)
        stat = ks_2samp(sampler, oracle).statistic
        crit = 1.628 * np.sqrt(2.0 / 20_000)
        assert stat < crit, f"c={c}: KS {stat:.5f} >= {crit:.5f}"


def test_symmetry_in_tilt_sign():
    rng = np.random.default_rng(7)
    pos = polya_gamma(np.full(100_000, 1.5), rng)
    neg = polya_gamma(np.full(100_000, -1.5), rng)
    stat = ks_2samp(pos, neg).statistic
    crit = 1.628 * np.sqrt(2.0 / 100_000)
    assert stat < crit


def test_positive_support_and_shape():
    rng = np.random.default_rng(0)
    c = rng.normal(0, 3, (7, 11))
    draws = polya_gamma(c, rng)
    assert draws.shape == (7, 11)
    assert (draws > 0).all()


def test_deterministic_under_seed():
    a = polya_gamma(np.linspace(-4, 4, 64), np.random.default_rng(5))
    b = polya_gamma(np.linspace(-4, 4, 64), np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_scalar_wrapper_and_validation():
    x = polya_gamma_draw(0.3, np.random.default_rng(1))
    assert isinstance(x, float) and x > 0
    with pytest.raises(ValueError):
        polya_gamma(np.array([np.nan]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        polya_gamma(np.array([np.inf]), np.random.default_rng(0))


# ------------------------------------------------- distinct tilts, blocks


@pytest.fixture
def small_blocks(monkeypatch):
    # 64 entries: rows of 20 entries go three to a block
    monkeypatch.setattr(pg, "_BLOCK_ENTRIES", 64)


def test_rows_draw_has_gathered_shape(small_blocks):
    rng = np.random.default_rng(2)
    S = rng.normal(0, 3, (3, 4, 5))
    rows = np.array([2, 0, 0, 1, 2, 2, 1, 0, 1, 2, 0])  # blocks 3, 3, 3, 2
    draws = polya_gamma(S, rng, rows)
    assert draws.shape == S[rows].shape == (11, 4, 5)
    assert (draws > 0).all()


def test_rows_draw_matches_moment_formula_per_tilt(monkeypatch):
    # 20,000 rows of width 3 in blocks of 1,365 rows: 15 blocks, the last
    # one partial
    monkeypatch.setattr(pg, "_BLOCK_ENTRIES", 2**12)
    S = np.array([[0.0, 0.5, 1.0], [2.0, 10.0, 40.0], [-1.0, -2.0, 0.0]])
    rng = np.random.default_rng(23)
    rows = rng.integers(0, 3, 20_000)
    draws = polya_gamma(S, rng, rows)
    for h in range(3):
        for l in range(3):
            d = draws[rows == h, l]
            se = d.std() / np.sqrt(d.size)
            assert abs(d.mean() - pg_mean(S[h, l])) < 4 * se + 1e-6


def test_rows_draw_deterministic_and_equal_to_gathered_tilts(small_blocks):
    S = np.random.default_rng(4).normal(0, 3, (3, 20))
    rows = np.array([1, 0, 2, 2, 1, 0, 0, 2, 1, 1])  # blocks 3, 3, 3, 1
    a = polya_gamma(S, np.random.default_rng(5), rows)
    b = polya_gamma(S, np.random.default_rng(5), rows)
    gathered = polya_gamma(S[rows], np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.array_equal(a, gathered)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rows_draw_rejects_non_finite_tilt_anywhere(small_blocks, bad):
    S = np.zeros((3, 20))
    S[2, 7] = bad  # component 2 is not drawn from
    with pytest.raises(ValueError):
        polya_gamma(S, np.random.default_rng(0), np.array([0, 1, 1, 0]))


# ------------------------------------- the series test as first written


def _series_coef(n, x):
    """n-th coefficient a_n(x) of the alternating series for J*(1, 0)."""
    k = (n + 0.5) * np.pi
    right = k * np.exp(-0.5 * k * k * x)
    with np.errstate(divide="ignore"):
        left = np.exp(-1.5 * (np.log(0.5 * np.pi) + np.log(x))
                      + np.log(k) - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x > pg._T, right, left)


def _reference_block(z, fz, p_exp, rng):
    """One block with y = U a_0 tested against the partial sums S_n."""
    draws = np.empty_like(z)
    pending = np.arange(z.size)
    while pending.size:
        m = pending.size
        use_exp = rng.random(m) < p_exp[pending]
        prop = np.empty(m)
        n_exp = int(use_exp.sum())
        if n_exp:
            prop[use_exp] = pg._T + rng.standard_exponential(n_exp) / fz[pending[use_exp]]
        if m - n_exp:
            prop[~use_exp] = pg._rtigauss(z[pending][~use_exp], rng)
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
                active = active[y[active] <= s[active]]
            n += 1
        draws[pending[accepted]] = prop[accepted]
        pending = pending[~accepted]
    return draws


def reference_polya_gamma(c, rng):
    """PG(1, c) draws, tables for every row of c, blocks of whole rows."""
    c = np.asarray(c, dtype=np.float64)
    c2 = c.reshape(c.shape[0], -1)
    z = 0.5 * np.abs(c2)
    fz = 0.125 * np.pi ** 2 + 0.5 * z * z
    p_exp = pg._exp_branch_prob(z, fz)
    step = max(1, pg._BLOCK_ENTRIES // c2.shape[1])
    out = [_reference_block(z[i:i + step].ravel(), fz[i:i + step].ravel(),
                            p_exp[i:i + step].ravel(), rng)
           for i in range(0, c2.shape[0], step)]
    return 0.25 * np.concatenate(out).reshape(c.shape)


@pytest.mark.parametrize("c", [0.0, 1e-8, -1e-8, 0.5, 1.0, 2.5, 10.0, 40.0,
                               700.0])
def test_draws_equal_the_reference_series_test(monkeypatch, c):
    # 20,000 draws in blocks of 4,096 entries; at small tilts a few in
    # 10,000 decisions need more than the first series term
    monkeypatch.setattr(pg, "_BLOCK_ENTRIES", 2**12)
    plain = np.full(20_000, c)
    assert np.array_equal(polya_gamma(plain, np.random.default_rng(31)),
                          reference_polya_gamma(plain, np.random.default_rng(31)))
    # rows 1 and 3 are never drawn from; rows of 50 entries, 81 per block
    S = np.stack([np.full(50, c), np.full(50, 3.0), np.full(50, -c),
                  np.full(50, 1e300)])
    rows = np.random.default_rng(33).choice([0, 2], 400)
    assert np.array_equal(polya_gamma(S, np.random.default_rng(32), rows),
                          reference_polya_gamma(S[rows], np.random.default_rng(32)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-300, 1e154, 1e200, 1e300,
                               np.finfo(np.float64).max])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_extreme_tilts(c, sign):
    draws = polya_gamma(np.full(20_000, sign * c), np.random.default_rng(8))
    assert np.isfinite(draws).all() and (draws > 0).all()
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - np.tanh(c / 2) / 2 / c) < 4 * se + 1e-12 * draws.mean()
