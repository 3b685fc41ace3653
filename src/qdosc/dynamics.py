"""Analytic expectation-value evolution from coherent-class initial states,
the summation-identity residual and the scaling-collapse transform.

Time conventions: the q model evolves in the dimensionless tau = omega_q * t,
the anharmonic model in raw t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PhaseUnwrapError
from .params import Anharmonic, LambdaIndex, ModelParams, QOsc, validate_index
from .params import _closure_rates, _level_q
from .qcore import _weight_window, q_exponential, q_number, q_stirling2, stirling2

# phases per term chunk of _phase_sum's tables, a few 0.5 MB real work
# arrays whatever K; a chunk holds at least one term, so a grid of one point
# per block takes O(T) arrays
_PHASE_BLOCK = 1 << 16
# complex cells per tile of _phase_sum's (ceil(T/B), B) sums, 0.5 MB, so a
# tile's slope sums, values and departures are combined while in cache
_PHASE_TILE = 1 << 15


@dataclass(frozen=True)
class TimeSeries:
    """Complex expectation values over a time grid, with the series' tail
    bound. Times that are not finite, and values beyond double precision,
    inf or NaN, raise DomainError."""

    times: np.ndarray
    values: np.ndarray
    truncation_tail: float

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise DomainError("times and values must have matching shapes")
        if not np.isfinite(self.times).all():
            raise DomainError("times must be finite")
        if len(self.times) > 1 and not (self.times[1:] > self.times[:-1]).all():
            raise DomainError("times must be strictly increasing")
        if not np.isfinite(self.values).all():
            bad = np.count_nonzero(~np.isfinite(self.values))
            raise DomainError(
                f"{bad} of {len(self.values)} expectation values overflow double precision"
            )
        self.times.setflags(write=False)
        self.values.setflags(write=False)


def _phase_sum(
    rate: np.ndarray,
    t: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    rate0: np.ndarray,
    size: int | None = None,
) -> np.ndarray:
    """sum_k c_k e^{i w_k t_j}, w_k = rate0 + rate r_k, for real r and c, by
    block angle addition over blocks of `size` points.

    rate and rate0 are 1-D arrays of S rates each: a stack of S series
    that share t, r and c, whose sums are the rows of an (S, T) result;
    one series is the stack S = 1. A stack pays once for the checks of t,
    the departures d_j and each term chunk's tables, and takes one stacked
    matmul per tile, which NumPy makes one BLAS product per series of the
    shape a one-series call makes. The term chunks and the tiles depend on
    T, B and K, not on S: a chunk of fewer terms would add its products in
    another order, and a tile of other rows could take another BLAS path.
    So each row has the bits of its series' stack of one, and a stack's
    tables hold up to S _PHASE_BLOCK phases; every caller stacks S <= 4
    series.

    Write j = bB + i with B = size, t_b the grid point j = bB, v_i = fl(i h)
    with h = (t_{T-1} - t_0)/(T - 1), and d_j = t_j - t_b - v_i the grid's
    departure from t_b + v_i. Then

        sum_k c_k e^{i w_k t_j} = sum_k e^{i w_k t_b} c_k e^{i w_k v_i} (1 + i w_k d_j) + R_j,

    which is the outer table e^{i w_k t_b} (ceil(T/B) x K) times the inner
    tables c_k e^{i w_k v_i} and c_k w_k e^{i w_k v_i} (B x K): two complex
    matmuls and O((T/B + B) K) cos and sin, in chunks of terms whose tables
    hold about _PHASE_BLOCK phases, each summed into the result tile by tile
    of about _PHASE_TILE cells. So whatever K, a call holds the result, d,
    one slope tile (the whole grid's slope sums where several chunks add
    to them) and tables of at most _PHASE_BLOCK phases. d_j is
    exact up to its last rounding: t_j - t_b exact by Sterbenz on qualifying
    blocks, TwoSum elsewhere, and the rest by Sterbenz where the grid is
    uniform. Each w_k is formed as a double-double, Dekker's product
    rate r_k plus rate0 by TwoSum, and each table angle w_k s as another
    (Dekker's products for w_k s, and for n 2pi with n = rint(w_k s / 2pi)
    and 2pi to 106 bits), reduced to about [-pi, pi] and rounded once to
    double. So the global rate rate0 costs no phase of its own, and its
    angle rate0 t is as exact as the others.

    With u = 2^-53 and t_max = max|t_j|, the error relative to sum_k |c_k|
    is at most the |c_k|-weighted mean over k of

        (2 pi + 2K + 6) u + 36 u^2 W_k t_max + (w_k d_max)^2 / 2 + (2K + 7) u |w_k| d_max,

    with |w_k| = |rate0 + rate r_k| <= W_k = |rate0| + |rate r_k|: the two
    table angles' final roundings (pi u each, |angle| <= pi); cos, sin and
    the K-term complex contraction; the double-double remainders (12 u^2
    W_k |s| per table, |s| <= t_max for t_b and <= 2 t_max for v_i; W_k,
    since the low part of w_k keeps the scale of rate r_k where rate0
    cancels it); R_j, since |e^{ix} - 1 - ix| <= x^2/2; and the rounding
    of the first-order term and of d_j.

    Before any table is built, a grid on which that bound keeps no digit,
    36 u^2 W t_max >= 1 rad with W = |rate0| + |rate| max|r_k| >= W_k, or
    where Dekker's split of 2 t_max, |rate|, max|r_k| or W is not finite,
    raises DomainError naming the first such quantity and its value. On
    any other grid of finite times every split is finite and every table
    angle below 1/(18 u^2), so every table is finite. A stack checks its
    series in order and raises the DomainError of the first it refuses,
    the error of that series' own call.
    Times that are not finite give sums that are not, which TimeSeries
    refuses by naming the times.

    By default B = ceil(sqrt(T)), if R_j's bound, d_max^2 sum_k |c_k|
    w_k^2 / 2, is at most eps sum_k |c_k| < inf; that last condition is what
    makes a grid uniform. Every other grid, T = 1 among them, takes B = 1,
    the point sum: the table e^{i w_k t_j} (T x K) times c, with no
    departure, so the last two terms of the bound vanish and every angle
    w_k t_j is reduced in double-double. Each series of a stack is gated on
    its own rates. Where the gate splits a stack, the series it keeps are
    one stacked call at B and the rest another at B = 1, in that order,
    each row written back to its place; the call at B forms the departures
    d_j once more. T = 0 gives an empty (S, 0) sum.
    """
    n_t = len(t)
    if not n_t:
        return np.empty((len(rate), 0), dtype=complex)
    t_max, r_max = _abs_max(t), float(np.abs(r).max(initial=0.0))
    for one, one0 in zip(rate.tolist(), rate0.tolist()):
        w_max = abs(one0) + abs(one) * r_max
        # each quantity, its value and the number Dekker's split scales
        splits = (
            ("the time span max|t|", t_max, 2.0 * t_max),
            ("the rate", one, one),
            ("max|r_k|", r_max, r_max),
            ("the largest rate |rate0| + |rate| max|r_k|", w_max, w_max),
        )
        if math.isfinite(t_max):
            for name, value, x in splits:
                if not math.isfinite(_SPLIT * x):
                    raise DomainError(
                        f"phase angles overflow double precision: {name} = {value:.3e}"
                        " has no finite Dekker split"
                    )
        if math.isfinite(t_max) and not 9.0 * _EPS**2 * w_max * t_max < 1.0:  # 36 u^2
            raise DomainError(f"phase angles up to {w_max * t_max:.3e} rad keep no correct digit")
    if size is None:
        size = math.isqrt(n_t - 1) + 1
    # a time that is not finite gives inf or NaN, which the gate refuses and
    # TimeSeries or PhaseCurve refuses at B = 1
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = _two_sum(rate0[:, None], *_two_prod(rate[:, None], r))
        if size > 1:
            v = np.arange(0.0, size) * ((t[-1] - t[0]) / max(n_t - 1, 1))
            tb, d = _departures(t, size, v)
            d_max = _abs_max(d.ravel()[:n_t])
            abs_c = np.abs(c)
            bound = _EPS * abs_c.sum()
            # the series whose own rates pass the gate
            kept = np.array(
                [0.5 * np.dot(abs_c, np.square(w * d_max)) <= bound < np.inf for w in hi]
            )
            if not kept.any():
                size = 1
            elif not kept.all():
                # a split stack: the kept series by blocks, then the rest by
                # points, each one stacked call
                out = np.empty((len(rate), n_t), dtype=complex)
                for sel, b in ((kept, size), (~kept, 1)):
                    out[sel] = _phase_sum(rate[sel], t, r, c, rate0[sel], b)
                return out
        n_b = -(-n_t // size)
        # chunks of terms whose tables hold about _PHASE_BLOCK phases
        terms = max(1, _PHASE_BLOCK // (n_b + size))
        if size == 1:
            # the point sum: the first chunk's product is taken and later
            # ones are added in place, so one chunk gives one matmul's bits
            chunks = (slice(a, a + terms) for a in range(0, len(c), terms))
            parts = (_table_cis(t, hi[:, k], lo[:, k]) @ c[k, None] for k in chunks)
            out = next(parts)
            for x in parts:
                out += x
            return out[..., 0]
        s = np.concatenate((tb, v))
        # tiles of whole block rows, of at most _PHASE_TILE cells (or of 4
        # rows) and of equal size to a row: BLAS gives a tile the bits of
        # the whole product, but not a small last tile, which takes its
        # matrix-vector path at one row and, beyond 128 terms, its
        # single-threaded path at a few
        n_tiles = -(-n_b // max(4, _PHASE_TILE // size))
        # the slope sums: the whole grid's where several chunks add to
        # them before d multiplies them, else the largest tile's
        whole = len(c) > terms
        slope_rows = n_b if whole else -(-n_b // n_tiles)
        out = np.empty((len(hi), n_b, size), dtype=complex)
        slope = np.empty((len(hi), slope_rows, size), dtype=complex)
        ends = [n_b * i // n_tiles for i in range(n_tiles + 1)]
        tiles = [
            (slice(a, b), out[:, a:b], slope[:, a:b] if whole else slope[:, : b - a], d[a:b])
            for a, b in zip(ends, ends[1:])
        ]
        for start in range(0, len(c), terms):
            k = slice(start, start + terms)
            tables = _table_cis(s, hi[:, k], lo[:, k])
            inner = tables[:, n_b:]
            inner *= c[k]
            parts = (inner.transpose(0, 2, 1), (inner * hi[:, None, k]).transpose(0, 2, 1))
            last = start + terms >= len(c)
            for rows, o, sl, d_r in tiles:
                outer = tables[:, rows]
                # as in the point sum, one chunk gives one matmul's bits
                for x, acc in zip(parts, (o, sl)):
                    if start:
                        acc += outer @ x
                    else:
                        np.matmul(outer, x, out=acc)
                if last:
                    # out += i d slope, while the tile is in cache
                    sl *= d_r
                    o.real -= sl.imag
                    o.imag += sl.real
    return out.reshape(len(hi), -1)[:, :n_t]


_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for a 53-bit mantissa
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - fl(2 pi), to 53 more bits
_EPS = np.finfo(float).eps


def _abs_max(x: np.ndarray) -> float:
    """max|x| of a non-empty x as max(-min x, max x), by the ufuncs' own
    reductions and with no |x| copy; NaN if x holds one."""
    return float(np.maximum.reduce(x, initial=-np.minimum.reduce(x)))


def _two_prod(a, b):
    """p = fl(a b) and e with p + e = a b exactly, broadcast (Dekker)."""
    p = a * b
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    b_hi = b * _SPLIT
    b_hi -= b_hi - b
    a_lo = a - a_hi
    b_lo = b - b_hi
    e = a_hi * b_hi - p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


def _two_sum(a, hi, lo):
    """The double-double a + (hi + lo) as s + e, s = fl(a + hi), with the
    rounding error of that sum by TwoSum (Knuth) added to lo."""
    s = a + hi
    b = s - a
    e = (a - (s - b)) + (hi - b)
    e += lo
    return s, e


def _table_cis(s: np.ndarray, w_hi: np.ndarray, w_lo: np.ndarray) -> np.ndarray:
    """e^{i w_k s_j} for w = w_hi + w_lo, the angle reduced mod 2 pi in
    double-double before its one rounding to double, as cos x + i sin x
    written into one complex array: the bits of np.exp(1j * x) in about half
    its time (x += 0.0 gives x = -0.0 the sine +0.0 of 1j * x). Rates of
    shape (..., K) give tables of shape (..., len(s), K), one per row of
    rates, each element by the same operations as one row alone."""
    w_hi, w_lo = w_hi[..., None, :], w_lo[..., None, :]
    p, e = _two_prod(s[:, None], w_hi)
    e += s[:, None] * w_lo
    n = np.rint(p / (2.0 * math.pi))
    n_hi, n_lo = _two_prod(n, 2.0 * math.pi)
    e -= n_lo
    e -= n * _TWO_PI_LO
    p -= n_hi  # exact: p and n_hi are within a factor 2, or n = 0
    out = np.empty(p.shape, dtype=complex)
    x = np.add(p, e, out=out.imag)
    np.cos(x, out=out.real)
    np.sin(x, out=x)
    x += 0.0
    return out


def _departures(t: np.ndarray, size: int, v: np.ndarray):
    """The block starts t_b and d_j = t_j - t_b - v_i over whole blocks of
    `size`, the last one padded (its padding's d_j are dropped later).
    t_j - t_b is exact by Sterbenz on qualifying blocks, TwoSum elsewhere: a
    block qualifies where t_b = 0 or each of its times, judged by their min
    and max, is within a factor 2 of t_b. Then v_i is subtracted, exactly on
    a uniform grid (Sterbenz). An exact difference has the TwoSum error
    +0.0, which d += 0.0 stands for. That sum changes only a -0.0, and
    fl(t_j - t_b) - v_i is -0.0 only for t_j = -0.0, t_b = +0.0 and
    v_i = +0.0 with i > 0: for v_i = fl(i h), only where h = 0, on a grid
    whose ends are equal. So it runs only there."""
    n_t, full = len(t), len(t) // size
    starts = np.arange(0, n_t, size)
    tb = t[starts]
    d = np.zeros((len(starts), size))
    np.subtract(t[: full * size].reshape(full, size), tb[:full, None], out=d[:full])
    d.ravel()[full * size : n_t] = t[full * size :] - tb[-1]
    lo, hi = np.minimum.reduceat(t, starts), np.maximum.reduceat(t, starts)
    # t_j between t_b / 2 and 2 t_b, or t_b = 0 and t_j finite
    half, twice = 0.5 * tb, 2.0 * tb
    exact = (np.minimum(half, twice) <= lo) & (hi <= np.maximum(half, twice))
    exact |= (tb == 0) & (hi - lo < np.inf)
    d -= v
    if size > 1 and v[1] == 0:
        d += 0.0
    if not exact.all():
        # TwoSum on the other blocks, the last one padded with t[-1]
        rows = np.flatnonzero(~exact)
        tj = t[np.minimum(rows[:, None] * size + np.arange(size), n_t - 1)]
        b = tb[rows, None]
        s = tj - b
        part = s + b
        d[rows] += (tj - part) + (part - s - b)
    return tb, d


def _amplitude_sq(alpha: complex) -> float:
    """|alpha|^2, or DomainError for an alpha that is not finite or whose
    |alpha|^2 is beyond double precision."""
    try:
        a2 = abs(complex(alpha)) ** 2
    except OverflowError:  # abs of a complex, or the square
        a2 = math.inf
    if not math.isfinite(a2):
        raise DomainError(
            f"|alpha|^2 must be finite in double precision, got alpha={alpha}"
        )
    return a2


def _series(
    params: ModelParams,
    alpha: complex,
    indices,
    grid,
    tol: float = 1e-12,
) -> list[TimeSeries]:
    """The (q-)Poisson-weighted phase sum of both models, from their closure
    coefficients (c_same, c_up), for each (n, m) of indices:

        <L^{n,m}> = (alpha*)^n e^{i c_same t} sum_k [k]^m P(alpha, k) e^{i c_up [k] t},

    in raw t for the anharmonic model and in tau = omega t for the q model;
    tol defaults to evolve's. The weight window depends on m and not on n,
    and the rates on n and not on m, so each is formed once per call, and
    the n's of one m share their terms: they are one stacked _phase_sum
    call per m. Every series has the bits of its one-index call.
    """
    indices = [validate_index(idx) for idx in indices]
    times = np.asarray(grid, dtype=float)
    a2, q = _amplitude_sq(alpha), _level_q(params)
    # tau = omega t: the q model's tau rates are its rates at omega = 1,
    # which round as [n] and [n](q - 1) do
    tau_model = replace(params, omega=1.0) if isinstance(params, QOsc) else params
    rates, out = {}, {}
    for m in dict.fromkeys(m for _, m in indices):
        # the window refuses a tol <= 0 and an amplitude outside the radius,
        # also for n = m = 0
        _, lev, w, tail, _ = _weight_window(a2, q, m, tol)
        ns = list(dict.fromkeys(n for n, k in indices if k == m))
        if m == 0 and 0 in ns:
            ns.remove(0)
            out[0, 0] = TimeSeries(times, np.ones_like(times, dtype=complex), 0.0)
        if not ns:
            continue
        for n in ns:
            if n not in rates:
                rates[n] = _closure_rates(tau_model, n)
        c_same, c_up = np.array([rates[n] for n in ns]).T
        # an overflow here, in a phase or a value, reaches TimeSeries as inf
        # or NaN, which it refuses
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _phase_sum(c_up, times, lev, lev**m * w, c_same)
            for n, values in zip(ns, sums):
                values *= np.conj(alpha) ** n
                out[n, m] = TimeSeries(times, values, tail)
    return [out[idx] for idx in indices]


def evolve_q_expectation(
    params: QOsc,
    alpha: complex,
    idx: LambdaIndex,
    tau_grid: np.ndarray,
    tol: float = 1e-12,
) -> TimeSeries:
    """q-Poisson-weighted phase sum for the q-coherent expectation

        <L^{n,m}>_tau = (alpha*)^n e^{i [n] tau}
                        sum_k [k]^m P_q(alpha, k) e^{i [n](q-1)[k] tau}.
    """
    if not isinstance(params, QOsc):
        raise DomainError("evolve_q_expectation requires q-model parameters")
    return _series(params, alpha, [idx], tau_grid, tol)[0]


def evolve_anharmonic_expectation(
    params: Anharmonic,
    alpha: complex,
    idx: LambdaIndex,
    t_grid: np.ndarray,
    tol: float = 1e-12,
) -> TimeSeries:
    """Poisson-weighted phase sum for the coherent-state expectation

        <L^{n,m}>_t = (alpha*)^n e^{i(n w1 + n^2 w2) t}
                      sum_k k^m P(alpha, k) e^{i 2 n w2 k t}.

    Periodic up to a global phase with revival period pi / omega2.
    """
    if not isinstance(params, Anharmonic):
        raise DomainError(
            "evolve_anharmonic_expectation requires anharmonic parameters"
        )
    return _series(params, alpha, [idx], t_grid, tol)[0]


def _closed(params: Anharmonic, alpha: complex, indices, t_grid) -> list[TimeSeries]:
    """evolve_anharmonic_closed for each (n, m) of indices. The n's of one m
    share the r-sum's terms, so each m is one stacked _phase_sum call over
    its n's. The decay factor exp[|alpha|^2 (e^{i c_up t} - 1)] depends on
    n and not on m, so it is one stacked call over every n, formed after
    the first r-sums as in a one-index call; every trace has the bits of
    its one-index call."""
    indices = [validate_index(idx) for idx in indices]
    ts = np.asarray(t_grid, dtype=float)
    a2 = _amplitude_sq(alpha)
    rates = {n: _closure_rates(params, n) for n, _ in indices}
    decays, out = {}, {}
    for m in dict.fromkeys(m for _, m in indices):
        # S(2, m) = 2^(m-1) - 1 is beyond double precision: refuse before the
        # O(m^2) exact-integer Stirling row is built
        if m > 1024:
            raise DomainError(f"S(2, m) = 2^(m-1) - 1 overflows double precision at m={m}")
        try:
            coeffs = np.array([stirling2(r, m) * a2**r for r in range(m + 1)])
        except OverflowError:  # a2**r of a Python float
            raise DomainError(
                f"|alpha|^(2r) overflows double precision at alpha={alpha}, m={m}"
            ) from None
        ns = list(dict.fromkeys(n for n, k in indices if k == m))
        c_same, c_up = np.array([rates[n] for n in ns]).T
        # an overflow here, in a phase or a value, reaches TimeSeries as inf
        # or NaN, which it refuses
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _phase_sum(c_up, ts, np.arange(m + 1.0), coeffs, c_same)
            if not decays:
                ups = np.array([up for _, up in rates.values()])
                decay = _phase_sum(ups, ts, np.ones(1), np.ones(1), np.zeros_like(ups))
                decay -= 1.0
                decay *= a2
                decays = dict(zip(rates, np.exp(decay, out=decay)))
            for n, values in zip(ns, sums):
                values *= decays[n]
                values *= np.conj(alpha) ** n
                out[n, m] = TimeSeries(ts, values, 0.0)
    return [out[idx] for idx in indices]


def evolve_anharmonic_closed(
    params: Anharmonic,
    alpha: complex,
    idx: LambdaIndex,
    t_grid: np.ndarray,
) -> TimeSeries:
    """Closed form of the anharmonic expectation (finite r-sum, no series
    truncation):

        (alpha*)^n e^{i(n w1 + n^2 w2) t} exp[|alpha|^2 (e^{i 2 n w2 t} - 1)]
        * sum_{r=0}^{m} S^{r,m} |alpha|^{2r} e^{i 2 n w2 r t}.

    The r-sum, its global phase included, and e^{i c_up t} are _phase_sum's,
    so every angle is reduced mod 2 pi in double-double as the series' are.
    """
    if not isinstance(params, Anharmonic):
        raise DomainError("evolve_anharmonic_closed requires anharmonic parameters")
    return _closed(params, alpha, [idx], t_grid)[0]


def relation_identity_residual(x: float, q: float, m: int) -> float:
    """Relative residual of the moment identity

        sum_k [k]^m x^k/[k]! = sum_{r=0}^{m} S_q^{r,m} x^r exp_q(x).
    """
    return next(_moment_residuals(x, q, [m]))


def _moment_residuals(x: float, q: float, ms):
    """relation_identity_residual(x, q, m) for each m of ms, in turn.
    exp_q(x) does not depend on m, so it is formed once, where a one-m call
    forms it: after the first moment sum and its Stirling sum. Each side
    keeps its own window: the moment sum's depends on m."""
    exp_q = None
    for m in ms:
        if m < 0:
            raise DomainError(f"m must be nonnegative, got {m}")
        _, lev, w, _, log_total = _weight_window(x, q, m, 1e-16)
        with np.errstate(over="ignore"):
            lhs = float(np.dot(lev**m, w) * np.exp(log_total))
        if not math.isfinite(lhs):
            raise DomainError(f"the moment sum at x={x} overflows double precision at q={q}")
        stirling = math.fsum(q_stirling2(r, m, q) * x**r for r in range(m + 1))
        if exp_q is None:
            exp_q = q_exponential(x, q)
        rhs = stirling * exp_q
        yield abs(lhs - rhs) / abs(rhs) if lhs != rhs else 0.0  # both 0 at x = 0


@dataclass(frozen=True)
class PhaseCurve:
    """Band-entry phase trace tagged with its provenance. Taus or phases
    that are not finite raise DomainError."""

    taus: np.ndarray
    values: np.ndarray  # complex ratios band(tau)/band(0)
    n: int
    m: int
    q: float
    j_col: int

    def __post_init__(self):
        if not (np.isfinite(self.taus).all() and np.isfinite(self.values).all()):
            raise DomainError("taus and their phases must be finite")


def band_phase_trace(
    params: QOsc, idx: LambdaIndex, j_col: int, taus: np.ndarray
) -> PhaseCurve:
    """Ratio of the evolved to the initial band entry (j_col + n, j_col).

    The evolution multiplies the entry prod_{i=1..n} sqrt([j+i]_q) [j]_q^m
    by a pure phase at rate [j+n]_q - [j]_q (in tau), so the ratio is
    computed directly. For q > 0 the entry vanishes exactly when j_col = 0
    and m >= 1, where the phase is undefined; n = 0 has no phase to
    normalize, so both raise DomainError. The curve is _band_curves' of the
    one pair.
    """
    return _band_curves(params.q, j_col, [idx], taus)[0]


def _band_curves(q: float, j_col: int, pairs, taus) -> list[PhaseCurve]:
    """band_phase_trace of the q model for each (n, m) of pairs, over the
    float array of taus.

    m enters a curve only through the refusal at j_col = 0, m >= 1, since
    (a†a)^m commutes with H: each n's phase is formed once, tagged with its
    first pair's m, and a later pair of another m takes a copy tagged with
    its own. The distinct n's, in first-seen order, are one stacked
    _phase_sum point sum of one term, so each angle is reduced in
    double-double, each curve has the bits of its own call, and _phase_sum
    refuses the taus on which it keeps no correct digit. Each refusal is the
    DomainError of a pair's own call: the pairs' indices in order, then a
    level beyond double precision, then the taus, for the first n that they
    refuse.
    """
    taus = np.asarray(taus, dtype=float)
    first = {}
    for idx in pairs:
        n, m = validate_index(idx)
        if n < 1 or j_col < 0:
            raise DomainError(f"need n >= 1 and j_col >= 0, got n={n}, j_col={j_col}")
        if j_col == 0 and m >= 1:
            raise DomainError(f"band entry vanishes at (n={n}, m={m}, j={j_col})")
        first.setdefault(n, m)
    rates = np.array([q_number(j_col + n, q) for n in first]) - q_number(j_col, q)
    one = np.ones(1)
    values = _phase_sum(rates, taus, one, one, np.zeros(len(rates)), 1)
    curves = {n: PhaseCurve(taus, v, n, m, q, j_col) for (n, m), v in zip(first.items(), values)}
    return [curves[n] if first[n] == m else replace(curves[n], m=m) for n, m in pairs]


def collapse_transform(traces: list[PhaseCurve]) -> list[np.ndarray]:
    """Unwrap each curve's phase and divide by [n]_q; for fixed (q, j_col)
    the outputs coincide pointwise with tau * q^j_col.

    Grids whose expected phase step reaches pi in size, forward or backward,
    are refused: a wrapped step beyond pi is indistinguishable from its
    alias, so silent unwrapping would fake the collapse. An empty grid
    raises DomainError.
    """
    out = []
    for tr in traces:
        if len(tr.taus) == 0:
            raise DomainError(f"empty tau grid for (n={tr.n}, m={tr.m})")
        nq = q_number(tr.n, tr.q)
        _check_phase_step(tr.taus, nq, tr.n, tr.m, tr.q, tr.j_col)
        raw = np.angle(tr.values)
        # whole turns that bring each step within pi, times 2 pi to 106 bits
        turns = np.cumsum(np.rint(np.diff(raw, prepend=raw[0]) / (-2.0 * math.pi)))
        unwrapped, lo = _two_prod(turns, 2.0 * math.pi)
        unwrapped += lo + turns * _TWO_PI_LO + raw
        out.append(unwrapped / nq)
    return out


def _check_phase_step(taus, nq: float, n: int, m: int, q: float, j_col: int) -> None:
    """Refuse a grid whose expected phase step, at [n]_q = nq, reaches pi
    in size."""
    if len(taus) > 1:
        max_step = float(np.max(np.abs(np.diff(taus)))) * nq * q**j_col
        if max_step >= math.pi:
            raise PhaseUnwrapError(
                f"phase step {max_step:.3e} >= pi for (n={n}, m={m}, "
                f"j_col={j_col}); refine the tau grid"
            )
