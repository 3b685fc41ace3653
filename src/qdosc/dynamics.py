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
    rate: float,
    t: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    rate0: float,
    size: int | None = None,
) -> np.ndarray:
    """sum_k c_k e^{i w_k t_j}, w_k = rate0 + rate r_k, for real r and c, by
    block angle addition over blocks of `size` points.

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
    angle below 1/(18 u^2), so every table is finite.
    Times that are not finite give sums that are not, which TimeSeries
    refuses by naming the times.

    By default B = ceil(sqrt(T)), if R_j's bound, d_max^2 sum_k |c_k|
    w_k^2 / 2, is at most eps sum_k |c_k| < inf; that last condition is what
    makes a grid uniform. Every other grid, T = 1 among them, takes B = 1,
    the point sum: the table e^{i w_k t_j} (T x K) times c, with no
    departure, so the last two terms of the bound vanish and every angle
    w_k t_j is reduced in double-double. T = 0 gives an empty sum.
    """
    n_t = len(t)
    if not n_t:
        return np.empty(0, dtype=complex)
    t_max, r_max = _abs_max(t), float(np.abs(r).max(initial=0.0))
    w_max = abs(rate0) + abs(rate) * r_max
    # each quantity, its value and the number Dekker's split scales
    splits = (
        ("the time span max|t|", t_max, 2.0 * t_max),
        ("the rate", rate, rate),
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
        w_hi, w_lo = _two_sum(rate0, *_two_prod(rate, r))
        if size > 1:
            v = np.arange(0.0, size) * ((t[-1] - t[0]) / max(n_t - 1, 1))
            tb, d = _departures(t, size, v)
            d_max = _abs_max(d.ravel()[:n_t])
            abs_c = np.abs(c)
            remainder = 0.5 * np.dot(abs_c, np.square(w_hi * d_max))
            if not remainder <= _EPS * abs_c.sum() < np.inf:
                size = 1
        n_b = -(-n_t // size)
        # chunks of terms whose tables hold about _PHASE_BLOCK phases
        terms = max(1, _PHASE_BLOCK // (n_b + size))
        if size == 1:
            # the point sum: the first chunk's product is taken and later
            # ones are added in place, so one chunk gives one matmul's bits
            chunks = (slice(a, a + terms) for a in range(0, len(c), terms))
            sums = (_table_cis(t, w_hi[k], w_lo[k]) @ c[k, None] for k in chunks)
            out = next(sums)
            for x in sums:
                out += x
            return out.ravel()
        s = np.concatenate((tb, v))
        # tiles of whole block rows, of at most _PHASE_TILE cells (or of 4
        # rows) and of equal size to a row: BLAS gives a tile the bits of the
        # whole product, but not a small last tile, which takes its
        # matrix-vector path at one row and, beyond 128 terms, its
        # single-threaded path at a few
        n_tiles = -(-n_b // max(4, _PHASE_TILE // size))
        # the slope sums: the whole grid's where several chunks add to them
        # before d multiplies them, else the largest tile's
        whole = len(c) > terms
        slope_rows = n_b if whole else -(-n_b // n_tiles)
        out = np.empty((n_b, size), dtype=complex)
        slope = np.empty((slope_rows, size), dtype=complex)
        ends = [n_b * i // n_tiles for i in range(n_tiles + 1)]
        tiles = [
            (slice(a, b), out[a:b], slope[a:b] if whole else slope[: b - a], d[a:b])
            for a, b in zip(ends, ends[1:])
        ]
        for start in range(0, len(c), terms):
            k = slice(start, start + terms)
            tables = _table_cis(s, w_hi[k], w_lo[k])
            inner = tables[n_b:]
            inner *= c[k]
            parts = (inner.T, (inner * w_hi[k]).T)
            last = start + terms >= len(c)
            for rows, o, sl, d_r in tiles:
                outer = tables[rows]
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
    return out.ravel()[:n_t]


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
    its time (x += 0.0 gives x = -0.0 the sine +0.0 of 1j * x)."""
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
    params: ModelParams, alpha: complex, idx: LambdaIndex, grid, tol: float
) -> TimeSeries:
    """The (q-)Poisson-weighted phase sum of both models, from their closure
    coefficients (c_same, c_up):

        <L^{n,m}> = (alpha*)^n e^{i c_same t} sum_k [k]^m P(alpha, k) e^{i c_up [k] t},

    in raw t for the anharmonic model and in tau = omega t for the q model.
    """
    n, m = validate_index(idx)
    times = np.asarray(grid, dtype=float)
    # the window refuses a tol <= 0 and an amplitude outside the radius, also
    # for n = m = 0
    _, lev, w, tail, _ = _weight_window(_amplitude_sq(alpha), _level_q(params), m, tol)
    if n == 0 and m == 0:
        return TimeSeries(times, np.ones_like(times, dtype=complex), 0.0)
    # tau = omega t: the q model's tau rates are its rates at omega = 1,
    # which round as [n] and [n](q - 1) do
    tau_model = replace(params, omega=1.0) if isinstance(params, QOsc) else params
    c_same, c_up = _closure_rates(tau_model, n)
    # an overflow here, in a phase or a value, reaches TimeSeries as inf or
    # NaN, which it refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = _phase_sum(c_up, times, lev, lev**m * w, c_same)
        values *= np.conj(alpha) ** n
    return TimeSeries(times, values, tail)


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
    return _series(params, alpha, idx, tau_grid, tol)


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
    return _series(params, alpha, idx, t_grid, tol)


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
    n, m = validate_index(idx)
    ts = np.asarray(t_grid, dtype=float)
    a2 = _amplitude_sq(alpha)
    c_same, c_up = _closure_rates(params, n)
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
    # an overflow here, in a phase or a value, reaches TimeSeries as inf or
    # NaN, which it refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = _phase_sum(c_up, ts, np.arange(m + 1.0), coeffs, c_same)
        decay = _phase_sum(c_up, ts, np.ones(1), np.ones(1), 0.0)
        decay -= 1.0
        decay *= a2
        values *= np.exp(decay, out=decay)
        values *= np.conj(alpha) ** n
    return TimeSeries(ts, values, 0.0)


def relation_identity_residual(x: float, q: float, m: int) -> float:
    """Relative residual of the moment identity

        sum_k [k]^m x^k/[k]! = sum_{r=0}^{m} S_q^{r,m} x^r exp_q(x).
    """
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    _, lev, w, _, log_total = _weight_window(x, q, m, 1e-16)
    with np.errstate(over="ignore"):
        lhs = float(np.dot(lev**m, w) * np.exp(log_total))
    if not math.isfinite(lhs):
        raise DomainError(f"the moment sum at x={x} overflows double precision at q={q}")
    rhs = math.fsum(q_stirling2(r, m, q) * x**r for r in range(m + 1)) * q_exponential(
        x, q
    )
    return abs(lhs - rhs) / abs(rhs) if lhs != rhs else 0.0  # both 0 at x = 0


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
    normalize, so both raise DomainError. The phase is _phase_sum's point
    sum of one term, so its angle is reduced in double-double and _phase_sum
    refuses the taus on which it keeps no correct digit.
    """
    n, m = validate_index(idx)
    if n < 1 or j_col < 0:
        raise DomainError(f"need n >= 1 and j_col >= 0, got n={n}, j_col={j_col}")
    if j_col == 0 and m >= 1:
        raise DomainError(f"band entry vanishes at (n={n}, m={m}, j={j_col})")
    taus = np.asarray(taus, dtype=float)
    rate = q_number(j_col + n, params.q) - q_number(j_col, params.q)
    values = _phase_sum(rate, taus, np.ones(1), np.ones(1), 0.0, 1)
    return PhaseCurve(taus, values, n, m, params.q, j_col)


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
        nq = _check_phase_step(tr.taus, tr.n, tr.m, tr.q, tr.j_col)
        raw = np.angle(tr.values)
        # whole turns that bring each step within pi, times 2 pi to 106 bits
        turns = np.cumsum(np.rint(np.diff(raw, prepend=raw[0]) / (-2.0 * math.pi)))
        unwrapped, lo = _two_prod(turns, 2.0 * math.pi)
        unwrapped += lo + turns * _TWO_PI_LO + raw
        out.append(unwrapped / nq)
    return out


def _check_phase_step(taus, n: int, m: int, q: float, j_col: int) -> float:
    """[n]_q, refusing a grid whose expected phase step reaches pi in size."""
    nq = q_number(n, q)
    if len(taus) > 1:
        max_step = float(np.max(np.abs(np.diff(taus)))) * nq * q**j_col
        if max_step >= math.pi:
            raise PhaseUnwrapError(
                f"phase step {max_step:.3e} >= pi for (n={n}, m={m}, "
                f"j_col={j_col}); refine the tau grid"
            )
    return nq
