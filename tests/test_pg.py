"""Distributional checks for the Polya-Gamma sampler.

The oracle is the infinite-sum-of-gammas representation
PG(1, c) = (1/(2 pi^2)) sum_k g_k / ((k - 1/2)^2 + c^2/(4 pi^2)),
g_k iid standard exponential, truncated at 10,000 terms. Truncating
removes ~1/(2 pi^2 K) of the mean, invisible at these sample sizes.
"""
import numpy as np
import pytest
from scipy.special import erfcx, log_ndtr
from scipy.stats import ks_2samp

from netmix import pg
from netmix.pg import polya_gamma, polya_gamma_sums

_ORACLE_TERMS = 10_000


def pg_mean(c: float) -> float:
    if c == 0.0:
        return 0.25
    return float(np.tanh(c / 2.0) / (2.0 * c))


def pg_var(c: float) -> float:
    if c == 0.0:
        return 1.0 / 24.0
    return float((np.sinh(c) - c) / (4.0 * c ** 3 * np.cosh(c / 2.0) ** 2))


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


@pytest.mark.parametrize("c", [0.0, 1.0, 2.5, 3.1, 3.2, 6.0])
def test_mean_and_variance_match_moment_formulas(c):
    # 2 < c < 3.125 puts z = c/2 just below 1/t, where the small-tilt
    # inverse-Gaussian proposal carries most of the left piece's mass
    draws = polya_gamma(np.full(200_000, c), np.random.default_rng(19))
    dev = draws - draws.mean()
    var = np.mean(dev ** 2)
    mean_se = np.sqrt(var / draws.size)
    var_se = np.sqrt((np.mean(dev ** 4) - var ** 2) / draws.size)
    assert abs(draws.mean() - pg_mean(c)) < 4.5 * mean_se, \
        f"mean z {(draws.mean() - pg_mean(c)) / mean_se:.2f}"
    assert abs(var - pg_var(c)) < 4.5 * var_se, \
        f"variance z {(var - pg_var(c)) / var_se:.2f}"


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


def test_non_finite_tilts_are_rejected():
    with pytest.raises(ValueError):
        polya_gamma(np.array([np.nan]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        polya_gamma(np.array([np.inf]), np.random.default_rng(0))


def test_first_term_squeeze_bound_lies_below_the_ratio():
    # a uniform at or below _SURE accepts without the series, so _SURE must
    # not exceed 1 - 3 exp(-2k) as the sampler computes it: its smallest
    # k is 2/t, at x = t from the left, and right of t k exceeds pi^2 t / 2
    t = np.array([pg._T])
    for k in (2.0 / t, 0.5 * np.pi ** 2 * t):
        assert pg._SURE < (1.0 - 3.0 * np.exp(-2.0 * k))[0]
    # and the sampler's own series accepts a uniform at _SURE on either side
    left = np.linspace(0.05, pg._T, 100_001)
    x = np.concatenate([left, np.nextafter(left + pg._T - 0.05, np.inf)])
    assert pg._series_rejects(x, np.full(x.size, pg._SURE)).size == 0


def test_erfcx_matches_scipy():
    # every range: the erf route, the middle and tail fractions and the
    # reflection, up to the largest argument the tilt tables give
    y = np.concatenate([np.linspace(-26.0, 1000.0, 400_001),
                        np.logspace(3, 150, 1000)])
    assert np.max(np.abs(pg._erfcx(y, y * y) / erfcx(y) - 1.0)) <= 4e-15
    y = np.array([-27.0, -1e150])
    assert (pg._erfcx(y, y * y) == np.inf).all()


def _log_ndtr_branch_prob(z, fz):
    """The branch probability through scipy's log_ndtr, term by term."""
    rt = np.sqrt(1.0 / pg._T)
    x0 = np.log(fz) + fz * pg._T
    b = rt * (pg._T * z - 1.0)
    a = -rt * (pg._T * z + 1.0)
    with np.errstate(over="ignore"):
        q_over_p = (4.0 / np.pi) * (np.exp(x0 - z + log_ndtr(b))
                                    + np.exp(x0 + z + log_ndtr(a)))
    return 1.0 / (1.0 + q_over_p)


def test_branch_probability_matches_the_log_ndtr_formula(monkeypatch):
    z = np.concatenate([np.linspace(0.0, 60.0, 120_001),
                        np.logspace(-300, np.log10(pg._Z_MAX), 3001)])
    fz = 0.125 * np.pi ** 2 + 0.5 * z * z
    p, expected = pg._exp_branch_prob(z, fz), _log_ndtr_branch_prob(z, fz)
    rel = np.abs(p - expected) / np.where(expected > 0.0, expected, 1.0)
    assert rel[z <= 5.0].max() <= 4e-15
    assert rel[z <= 45.0].max() <= 1e-12
    assert (p[expected == 0.0] == 0.0).all() and p.min() >= 0.0
    # chunks of 8 tilts give the same bits
    monkeypatch.setattr(pg, "_BLOCK_ENTRIES", 64)
    assert np.array_equal(pg._exp_branch_prob(z, fz), p)


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


# the proposal in plain boolean-mask form, with no squeeze, kept apart from
# pg so the reference does not check the index-array rewrite against itself
def _reference_rtigauss(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse Gaussian IG(1/z, 1) truncated to (0, t], vectorized."""
    out = np.empty_like(z)

    # small tilt: u = 1/sqrt(x) is a normal tail on u > 1/sqrt(t) thinned
    # by exp(-z^2 x/2); exponential proposal u = a + E/rate at Robert's rate
    a = 1.0 / np.sqrt(pg._T)
    rate = 0.5 * (a + np.sqrt(a * a + 4.0))
    c, h = np.sqrt(pg._T) / rate, 0.5 / rate ** 2  # 1/(rate a), 1/(2 rate^2)
    idx = np.flatnonzero(z < 1.0 / pg._T)
    rounds = 0
    while idx.size:
        m = idx.size
        e = rng.standard_exponential(m)
        x = pg._T / (1.0 + c * e) ** 2  # 1/u^2
        # -(u - rate)^2/2 = -h (e - 1)^2, since rate^2 - a rate = 1
        accept = rng.random(m) <= np.exp(-0.5 * z[idx] ** 2 * x - h * (e - 1.0) ** 2)
        out[idx[accept]] = x[accept]
        idx = idx[~accept]
        rounds += 1
        if rounds > pg._MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("truncated inverse Gaussian sampler stalled")

    # larger tilt: sample IG(mu, 1) directly, keep draws inside (0, t]
    idx = np.flatnonzero(z >= 1.0 / pg._T)
    rounds = 0
    while idx.size:
        mu = 1.0 / z[idx]
        y = rng.standard_normal(idx.size) ** 2
        muy = mu * y
        x = mu + 0.5 * mu * muy - 0.5 * mu * np.sqrt(4.0 * muy + muy * muy)
        # past _Z_MAX mu * mu underflows, and mu^2 / x equals x in float64
        flip = (rng.random(idx.size) > mu / (mu + x)) & (mu > 1.0 / pg._Z_MAX)
        x = np.where(flip, mu * mu / x, x)
        accept = x <= pg._T
        out[idx[accept]] = x[accept]
        idx = idx[~accept]
        rounds += 1
        if rounds > pg._MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("truncated inverse Gaussian sampler stalled")

    return out


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
            prop[~use_exp] = _reference_rtigauss(z[pending][~use_exp], rng)
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
    zt = np.minimum(z, pg._Z_MAX)
    fz = 0.125 * np.pi ** 2 + 0.5 * zt * zt
    p_exp = pg._exp_branch_prob(zt, fz)
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


@pytest.mark.parametrize("block", [64, 4096])
def test_mixed_tilts_in_one_block_equal_the_reference(monkeypatch, block):
    # normal(0, 3) tilts put z on both sides of 1/t = 1.5625, so one block
    # mixes both inverse-Gaussian paths, flips and both proposal branches,
    # next to zero and extreme tilts; components 2 and 5 are never drawn
    # from; 200 rows of 50 entries, one or 81 rows per block
    monkeypatch.setattr(pg, "_BLOCK_ENTRIES", block)
    S = np.random.default_rng(41).normal(0, 3, (6, 50))
    extremes = [0.0, 1e-300, 1e200, -1e300, np.finfo(np.float64).max]
    S[1, 20:25] = S[4, :5] = extremes
    rows = np.random.default_rng(43).choice([0, 1, 3, 4], 200)
    rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
    draws = polya_gamma(S, rng, rows)
    with np.errstate(over="ignore"):  # the reference's series at x ~ 1e-308
        expected = reference_polya_gamma(S[rows], ref_rng)
    assert np.array_equal(draws, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


_BAD_ROWS = {"negative": [-1, -1], "past-end": [0, 2], "float": [0.0, 1.0],
             "bool": [True, False], "str": ["0"]}


@pytest.mark.parametrize("draw,rows", [
    pytest.param(draw, rows, id=name + suffix)
    for draw, suffix in ((polya_gamma, ""), (polya_gamma_sums, "-sums"))
    for name, rows in _BAD_ROWS.items()])
def test_rows_must_index_the_tilt_table(draw, rows):
    # unchecked, [-1, -1] would wrap round and draw PG(1, 50) from row 1,
    # and nothing may be drawn before the check
    c = np.array([[0.0, 0.0], [50.0, 50.0]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"rows must be integers in 0\.\.1"):
        draw(c, rng, rows)
    assert rng.bit_generator.state == state


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-300, 1e154, 1e200, 1e300,
                               np.finfo(np.float64).max])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_extreme_tilts(c, sign):
    draws = polya_gamma(np.full(20_000, sign * c), np.random.default_rng(8))
    assert np.isfinite(draws).all() and (draws > 0).all()
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - np.tanh(c / 2) / 2 / c) < 4 * se + 1e-12 * draws.mean()
