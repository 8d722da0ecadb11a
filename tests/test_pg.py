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
