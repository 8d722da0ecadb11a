"""Exact sampler for the Polya-Gamma distribution PG(1, c).

Alternating-series rejection sampler for the Jacobi-type J*(1, z)
distribution with tilt z = |c|/2; a PG(1, c) draw is J*(1, z)/4. The
proposal mixes a truncated exponential (right tail, x > t) with a
truncated inverse Gaussian IG(1/z, 1) (left piece, x <= t) at the classic
crossover t = 0.64, and the accept/reject decision uses the partial sums
S_n of the alternating series for the J* density, so acceptance is exact,
not approximate.

Left piece. At tilts z >= 1/t the inverse Gaussian is drawn directly and
kept when it falls inside (0, t]. At smaller tilts, u = 1/sqrt(x) has
density proportional to exp(-u^2/2 - z^2 x/2) on u > a = 1/sqrt(t): a
normal tail thinned by exp(-z^2 x/2). The tail is proposed as
u = a + E/rate, E standard exponential, at Robert's (1995) optimal rate
rate = (a + sqrt(a^2 + 4))/2 = 1.804, whose acceptance probability
exp(-(u - rate)^2/2) averages 0.895 over the tail. One uniform decides
both steps at once, U <= exp(-(u - rate)^2/2 - z^2 x/2), so a try costs
one exponential and one uniform.

Series test. It runs in ratio form, U against S_n / a_0, whose terms
a_n / a_0 = (2n + 1) exp(-n (n + 1) k) take one exp each (k = pi^2 x / 2
right of t, 2 / x left of it). The first-term ratio 1 - 3 exp(-2k) is
never below 1 - 3 exp(-4/t) = 0.9942, reached at x = t from the left, so
a uniform at or below that bound (_SURE, less a rounding margin) accepts
with no arithmetic at all. Only the other ~0.6% of entries compute k and
the series, on their compacted subset. Proposals are written straight
into the output rows.

The tilt-only quantities (z, the exponential rate fz, the branch
probability, which costs two erfcx values, and the small-tilt -z^2/2)
are tabled once per distinct tilt: the caller may pass a table c of
distinct tilts plus the rows to draw from, as the Gibbs sampler does with
its (H, L) similarities and the subjects' assignments, and only the rows
drawn from are tabled. The rejection loop walks the output in fixed
blocks of whole rows, about _BLOCK_ENTRIES entries each, gathering the
block's tables and drawing into one block-sized buffer that every block
reuses; output-sized temporaries (a few MiB) would go back to the OS and
be faulted in again on every call. Each block consumes its own uniforms
in turn, so results are reproducible given a seeded Generator, the input
order and the block size.

One block walk serves both entry points. polya_gamma copies each block,
scaled by 1/4, into its output. polya_gamma_sums, which the Gibbs sampler
calls, needs only the sums of the draws by tilt row (by component): it
adds each block's rows into those sums in ascending output-row (subject)
order and scales the sums by 0.25 once, after summing. As 0.25 is a
power of two, that equals summing the scaled draws bit for bit, unless a
draw scaled by 1/4 is subnormal (tilts beyond ~1e307). So the sampler's working memory is one
block plus the tables, whatever the number of rows.

The loop works on index arrays, not boolean masks. The masks that split a
block between the two proposal branches, and between accepted and
rejected entries, are close to random, and numpy's masked copy x[mask]
costs several times what np.flatnonzero, take and fancy assignment cost
together on such a mask. So each mask is turned into ascending indices
once, every proposal is written to the output (a rejected one is
overwritten in a later round), and the pending entries' tables are
compacted along with them. A block's first round draws every entry, so
it writes to the output without index gathers.

Branch probability. The left piece's mass carries two normal CDFs, and
written through erfcx(y) = exp(y^2) erfc(y) their Gaussian factors cancel
the exponentials around them, leaving q/p in closed form in two erfcx
values. numpy has no erfcx, so _erfcx evaluates Cephes' rational
approximations (after Cody 1969) in three ranges, with a reflection for
negative arguments, and _exp_branch_prob passes it both arguments of a
chunk of tilts in one call. This keeps scipy, whose import costs a few
hundred milliseconds, out of every fit.
"""
from __future__ import annotations

import numpy as np

__all__ = ["polya_gamma", "polya_gamma_sums"]

_T = 0.64
_MAX_SERIES_TERMS = 10_000
_MAX_REJECTION_ROUNDS = 10_000
# entries per block of the rejection loop, rounded down to whole rows: a
# block's float64 temporaries (~256 KiB) stay in L2 and in malloc's heap
_BLOCK_ENTRIES = 2**15
# z^2 overflows and 1/z^2 underflows a little past this tilt; the tables use
# min(z, _Z_MAX), as the exponential branch's probability is 0.0 from z ~ 50
_Z_MAX = 1e150
# Robert's optimal exponential rate for the normal tail u > a = 1/sqrt(t)
# of the small-tilt left piece, with c = 1/(rate a) and h = 1/(2 rate^2)
_TAIL_RATE = 0.5 * (1.0 / np.sqrt(_T) + np.sqrt(1.0 / _T + 4.0))
_TAIL_C = np.sqrt(_T) / _TAIL_RATE
_TAIL_H = 0.5 / _TAIL_RATE ** 2
# the smallest first-term ratio 1 - 3 exp(-2k) takes, at k = 2/t (k >= 2/t
# left of t and k > pi^2 t / 2 right of it), less a margin for rounding: a
# uniform at or below it accepts without the proposal's series
_SURE = 1.0 - 3.0 * np.exp(-4.0 / _T) - 1e-12


# erfcx(y) = exp(y^2) erfc(y) from the rational approximations of Cephes'
# ndtr.c (Moshier), which follow Cody (1969); coefficients highest power
# first. |y| < 1, by way of erf: erf(y) = y P(y^2) / Q(y^2)
_ERF_P = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_Q = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# 1 <= y < 8: erfcx(y) = P(y) / Q(y)
_ERFCX_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
            7.46321056442269912687e0, 4.86371970985681366614e1,
            1.96520832956077098242e2, 5.26445194995477358631e2,
            9.34528527171957607540e2, 1.02755188689515710272e3,
            5.57535335369399327526e2)
_ERFCX_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
            3.54937778887819891062e2, 9.75708501743205489753e2,
            1.82390916687909736289e3, 2.24633760818710981792e3,
            1.65666309194161350182e3, 5.57535340817727675546e2)
# y >= 8: erfcx(y) = w P(w) / Q(w) at w = 1/y, Cephes' degree-5 over
# degree-6 fraction in y with both parts divided by y^6, so no power of a
# huge y overflows
_ERFCX_TAIL_P = (2.97886665372100240670e0, 7.40974269950448939160e0,
                 6.16021097993053585195e0, 5.01905042251180477414e0,
                 1.27536670759978104416e0, 5.64189583547755073984e-1)
_ERFCX_TAIL_Q = (3.36907645100081516050e0, 9.60896809063285878198e0,
                 1.70814450747565897222e1, 1.20489539808096656605e1,
                 9.39603524938001434673e0, 2.26052863220117276590e0, 1.0)
# the branch probability's arguments y-+ = (1 -+ t z) / sqrt(2t)
_Y_AT_0 = 1.0 / np.sqrt(2.0 * _T)
_Y_SLOPE = _T * _Y_AT_0
# q/p = _Q_SCALE fz (erfcx(y-) + erfcx(y+)): (4/pi) e^{t pi^2/8 - 1/(2t)} / 2
_Q_SCALE = (2.0 / np.pi) * np.exp(_T * np.pi ** 2 / 8.0 - 0.5 / _T)


def _poly(coef: tuple, x: np.ndarray) -> np.ndarray:
    """coef[0] x^k + ... + coef[k] by Horner's rule, in place on one new
    array: on a few hundred entries numpy's per-call cost, not the
    arithmetic, dominates, so a leading 1 costs no multiply."""
    if coef[0] == 1.0:
        acc = x + coef[1]
    else:
        acc = x * coef[0]
        acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _fraction(p: tuple, q: tuple, x: np.ndarray) -> np.ndarray:
    """P(x) / Q(x) for coefficient tuples p and q, as _poly takes them."""
    out = _poly(p, x)
    out /= _poly(q, x)
    return out


def _erfcx_erf(x: np.ndarray) -> np.ndarray:
    """erfcx(x) = exp(x^2) (1 - erf(x)) for |x| <= 1."""
    u = x * x
    e = _poly(_ERF_P, u)
    e *= x
    q = _poly(_ERF_Q, u)
    np.subtract(q, e, out=e)
    e /= q
    e *= np.exp(u, out=u)
    return e


def _erfcx(y: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """exp(y^2) erfc(y) for a 1-d float64 array y, given y2 = y^2, to a
    relative error of a few 1e-16 but for the exp(y^2) of a negative y,
    which inherits the rounding of y2 (so a caller computes it from exact
    inputs where it can); inf where exp(y^2) overflows (y below about
    -26.6)."""
    a = np.abs(y)
    out = np.empty_like(y)
    i = np.flatnonzero(a < 1.0)
    if i.size:
        out[i] = _erfcx_erf(y.take(i))
    i = np.flatnonzero((a >= 1.0) & (a < 8.0))
    if i.size:
        out[i] = _fraction(_ERFCX_P, _ERFCX_Q, a.take(i))
    i = np.flatnonzero(a >= 8.0)
    if i.size:
        w = np.divide(1.0, a.take(i))
        out[i] = w * _fraction(_ERFCX_TAIL_P, _ERFCX_TAIL_Q, w)
    # the reflection erfcx(-x) = 2 exp(x^2) - erfcx(x)
    i = np.flatnonzero(y <= -1.0)
    if i.size:
        with np.errstate(over="ignore"):
            out[i] = 2.0 * np.exp(y2.take(i)) - out.take(i)
    return out


def _exp_branch_prob(z: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Probability p of proposing from the exponential (x > t) branch,
    evaluated in chunks of _BLOCK_ENTRIES / 8 tilts to bound its memory.

    The left piece's two terms exp(x0 -+ z) Phi(b-+), Phi(b) =
    erfcx(-b/sqrt(2)) exp(-b^2/2) / 2, lose their exponentials to each
    other: q/p = _Q_SCALE fz (erfcx(y-) + erfcx(y+)). Each chunk's y- and
    y+ go to _erfcx in one call, with y-+^2 = 1/(2t) -+ z + t z^2 / 2, which
    rounds less than y * y. For huge z the erfcx(y-) term, or its product
    with fz, overflows to inf and p is 0, the correct limit: the mass
    concentrates left of t."""
    zf = z.reshape(-1)
    q_over_p = np.empty(z.shape)
    qf = q_over_p.reshape(-1)
    step = max(1, _BLOCK_ENTRIES // 8)
    for start in range(0, zf.size, step):
        zc = zf[start:start + step]
        tz = zc * _Y_SLOPE
        c = 0.5 / _T + (0.5 * _T) * (zc * zc)
        e = _erfcx(np.concatenate([_Y_AT_0 - tz, _Y_AT_0 + tz]),
                   np.concatenate([c - zc, c + zc])).reshape(2, -1)
        np.add(e[0], e[1], out=qf[start:start + step])
    with np.errstate(over="ignore"):
        q_over_p *= fz
    q_over_p *= _Q_SCALE
    q_over_p += 1.0
    return np.divide(1.0, q_over_p, out=q_over_p)


def _rtigauss(z: np.ndarray, neg_half_z2: np.ndarray,
              rng: np.random.Generator, out: np.ndarray,
              dst: np.ndarray) -> None:
    """Inverse Gaussian IG(1/z, 1) truncated to (0, t], vectorized; the
    draw for z[i] is written to out[dst[i]]. neg_half_z2 is -z^2/2 from the
    clipped tilt."""
    # small tilt: the thinned normal tail in u = 1/sqrt(x) > a; u = a + E/rate
    # gives x = t / (1 + c E)^2 and, as rate^2 - a rate = 1, the tail's
    # -(u - rate)^2/2 = -h (E - 1)^2
    small = np.flatnonzero(z < 1.0 / _T)
    idx, neg_half_z2 = dst.take(small), neg_half_z2.take(small)
    rounds = 0
    while idx.size:
        e = rng.standard_exponential(idx.size)
        x = _TAIL_C * e
        x += 1.0
        x *= x
        np.divide(_T, x, out=x)
        e -= 1.0
        e *= e
        e *= _TAIL_H
        log_acc = neg_half_z2 * x
        log_acc -= e
        accept = rng.random(idx.size) <= np.exp(log_acc, out=log_acc)
        out[idx] = x  # a rejected entry is overwritten in a later round
        keep = np.flatnonzero(~accept)
        idx, neg_half_z2 = idx.take(keep), neg_half_z2.take(keep)
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("truncated inverse Gaussian sampler stalled")

    # larger tilt: sample IG(mu, 1) directly, keep draws inside (0, t]
    large = np.flatnonzero(z >= 1.0 / _T)
    idx = dst.take(large)
    mu = 1.0 / z.take(large)
    rounds = 0
    while idx.size:
        muy = mu * rng.standard_normal(idx.size) ** 2
        x = mu + 0.5 * mu * muy - 0.5 * mu * np.sqrt(4.0 * muy + muy * muy)
        # past _Z_MAX mu * mu underflows, and mu^2 / x equals x in float64
        flip = np.flatnonzero((rng.random(idx.size) > mu / (mu + x)) & (mu > 1 / _Z_MAX))
        x[flip] = mu.take(flip) ** 2 / x.take(flip)
        out[idx] = x
        keep = np.flatnonzero(x > _T)
        idx, mu = idx.take(keep), mu.take(keep)
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("truncated inverse Gaussian sampler stalled")


def _series_rejects(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Positions i where the alternating series rejects proposal x[i]
    given its uniform u[i]."""
    # partial sums over a_0: odd terms bound from below (accept), even
    # terms from above (reject), ties accept; k may overflow for x near
    # the smallest float, where the ratio is 1
    with np.errstate(over="ignore"):
        k = 2.0 / x
        right = np.flatnonzero(x > _T)
        k[right] = 0.5 * np.pi ** 2 * x.take(right)
        s = 1.0 - 3.0 * np.exp(-2.0 * k)
    rejected = np.zeros(x.size, dtype=bool)
    active = np.flatnonzero(u > s)
    n = 2
    while active.size:
        term = (2 * n + 1) * np.exp(-n * (n + 1) * k.take(active))
        if n & 1:
            s[active] -= term
            active = active[u.take(active) > s.take(active)]
        else:
            s[active] += term
            over = u.take(active) > s.take(active)
            rejected[active[over]] = True
            active = active[~over]
        n += 1
        if n > _MAX_SERIES_TERMS:  # pragma: no cover
            raise RuntimeError("alternating series did not resolve")
    return np.flatnonzero(rejected)


def _draw_block(z: np.ndarray, fz: np.ndarray, p_exp: np.ndarray,
                neg_half_z2: np.ndarray, rng: np.random.Generator,
                draws: np.ndarray) -> None:
    """Exact J*(1, z) draws for one block, given its tilt tables, written
    to draws; after a round the tables keep only the pending entries. The
    first round draws every entry, so it indexes draws directly."""
    pending = None
    rounds = 0
    while z.size:
        use_exp = rng.random(z.size) < p_exp
        exp_idx, ig_idx = np.flatnonzero(use_exp), np.flatnonzero(~use_exp)
        exp_dst, ig_dst = ((exp_idx, ig_idx) if pending is None else
                           (pending.take(exp_idx), pending.take(ig_idx)))
        # a rejected entry is overwritten in a later round
        x = rng.standard_exponential(exp_idx.size)
        x /= fz.take(exp_idx)
        x += _T
        draws[exp_dst] = x
        _rtigauss(z.take(ig_idx), neg_half_z2.take(ig_idx), rng, draws,
                  ig_dst)

        # the first-term ratio 1 - 3 exp(-2k) is at least _SURE, so only
        # the uniforms above it need the proposal's series
        u = rng.random(z.size)
        unsure = np.flatnonzero(u > _SURE)
        unsure_dst = unsure if pending is None else pending.take(unsure)
        keep = unsure.take(_series_rejects(draws.take(unsure_dst),
                                           u.take(unsure)))
        pending = keep if pending is None else pending.take(keep)
        z, fz, p_exp, neg_half_z2 = (a.take(keep) for a in
                                     (z, fz, p_exp, neg_half_z2))
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:  # pragma: no cover
            raise RuntimeError("rejection sampler stalled")


def _tilts(c: np.ndarray, rows: np.ndarray | None):
    """The tilts z = |c|/2 of the rows of c drawn from, as a (rows, entries)
    table, rows as indices into it, the rows of c it holds and the shape of
    c[rows]; raises ValueError for non-finite tilts or rows that do not
    index c."""
    c = np.asarray(c, dtype=np.float64)
    if not np.isfinite(c).all():
        raise ValueError("tilt values must be finite")
    c2 = c.reshape(c.shape[0] if c.ndim else 1, int(np.prod(c.shape[1:])))
    if rows is None:
        used = rows = np.arange(c2.shape[0])
        shape = c.shape
    else:
        shape = np.shape(rows) + c.shape[1:]
        used, rows = np.unique(np.ravel(rows), return_inverse=True)
        if used.dtype.kind not in "iu" or ((used < 0) | (used >= len(c2))).any():
            raise ValueError(f"rows must be integers in 0..{len(c2) - 1}")
        c2 = c2[used]
    return 0.5 * np.abs(c2), rows, used, shape


def _blocks(z: np.ndarray, rows: np.ndarray, rng: np.random.Generator):
    """The block walk of both entry points: yields (start, block, draws) for
    each block of whole output rows, in order; block holds its rows'
    indices into the tilt table z and draws their J*(1, z) draws, unscaled,
    in one buffer that the next block reuses."""
    zt = np.minimum(z, _Z_MAX)
    fz = 0.125 * np.pi ** 2 + 0.5 * zt * zt
    p_exp = _exp_branch_prob(zt, fz)
    neg_half_z2 = -0.5 * zt ** 2
    del zt  # the walk holds only the tables it reads
    step = max(1, _BLOCK_ENTRIES // max(z.shape[1], 1))
    buf = np.empty((min(step, rows.size), z.shape[1]))
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        draws = buf[:block.size]
        _draw_block(z[block].ravel(), fz[block].ravel(), p_exp[block].ravel(),
                    neg_half_z2[block].ravel(), rng, draws.reshape(-1))
        yield start, block, draws


def polya_gamma(c: np.ndarray, rng: np.random.Generator,
                rows: np.ndarray | None = None) -> np.ndarray:
    """Independent PG(1, t) draws, one per entry t of c, or of c[rows]
    when rows is given.

    With rows, c holds the distinct tilts (say S, one row per component)
    and the integer array rows indexes its first axis (say the
    assignments); the result has the shape of c[rows] and equals
    polya_gamma(c[rows], rng) bit for bit under the same seed; the tilt
    tables are built only for the rows drawn from. Rows that are not
    integers in 0..len(c) - 1 raise ValueError before anything is drawn.
    """
    z, rows, _, shape = _tilts(c, rows)
    out = np.empty((rows.size, z.shape[1]))
    for start, _, draws in _blocks(z, rows, rng):
        np.multiply(draws, 0.25, out=out[start:start + len(draws)])
    return out.reshape(shape)


def polya_gamma_sums(c: np.ndarray, rng: np.random.Generator,
                     rows: np.ndarray) -> np.ndarray:
    """Sums of the draws of polya_gamma(c, rng, rows) by the row of c each
    was drawn from: an array of the shape of c whose row h sums the draws
    i with rows[i] == h and is zero for a row never drawn from.

    It consumes the same random numbers as polya_gamma, and its sums equal
    those of polya_gamma's draws added row by row in ascending order, bit
    for bit unless a draw scaled by 1/4 is subnormal (tilts beyond
    ~1e307); only one block of draws exists at a time. Rows are checked as
    by polya_gamma."""
    z, rows, used, _ = _tilts(c, rows)
    sums = np.zeros((np.shape(c)[0], z.shape[1]))
    for _, block, draws in _blocks(z, rows, rng):
        for i, h in enumerate(used.take(block).tolist()):
            sums[h] += draws[i]
    sums *= 0.25  # a power of two: as if each draw were scaled first
    return sums.reshape(np.shape(c))
