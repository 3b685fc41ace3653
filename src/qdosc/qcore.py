"""q-arithmetic and combinatorics: q-numbers, the q-exponential, (q-)Stirling
numbers of the second kind and the mode-centred window of (q-)Poisson
weights used by every coherent state.

Nothing here forms a q-factorial. Probability weights are products of term
ratios below 1 outward from their mode, and the Stirling numbers come from a
recurrence of nonnegative terms, so nothing cancels and nothing overflows for
moderate deformations even at large order.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError

# longest level vector of _weight_window: 16 MB, |alpha| up to ~1400 at q = 1
_MAX_LEVELS = 1 << 21


def _require_positive_q(q: float) -> None:
    if not 0 < q < math.inf:
        raise DomainError(f"q must be positive and finite, got q={q}")


def _check_radius(x: float, q: float) -> None:
    """Require q > 0 and |x| inside the radius of convergence of
    sum_k x^k/[k]_q!, which is 1/(1-q) for q < 1 and unbounded otherwise."""
    _require_positive_q(q)
    if q < 1.0 and abs(x) >= 1.0 / (1.0 - q):
        raise ConvergenceError(
            f"|x|={abs(x)} outside radius {1.0 / (1.0 - q)} for q={q}"
        )


@np.errstate(over="ignore")
def _q_ratio(n, q: float):
    """(q^n - 1)/(q - 1), inf beyond double precision, for q > 0 and an int or
    int-array n >= 0: n at q == 1, else expm1(x)/expm1(log q), x = n log q,
    where |x| < 0.5, which keeps the digits q^n - 1 cancels and [1] = 1, and
    _power_ratio elsewhere; NumPy's ufuncs give both kinds the same bits."""
    if q == 1.0:
        return n * 1.0
    log_q = np.log(q)
    x = n * log_q
    if isinstance(x, np.ndarray):
        near = np.expm1(x) / np.expm1(log_q)
        return np.where(abs(x) < 0.5, near, _power_ratio(n, q))
    if abs(x) < 0.5:
        return np.expm1(x) / np.expm1(log_q)
    return _power_ratio(n, q)


def _power_ratio(n, q: float):
    """(q^n - 1)/(q - 1) for q != 1, and q^(n-1) (q/(q-1)) - 1/(q-1) where
    q^n overflows: for q > 2, [n]_q is finite one level past q^n."""
    power = np.power(q, n)
    over = power == math.inf
    if not over.any():
        return (power - 1.0) / (q - 1.0)
    far = np.power(q, n - 1) * (q / (q - 1.0)) - 1.0 / (q - 1.0)
    return np.where(over, far, (power - 1.0) / (q - 1.0))


def q_number(n, q: float):
    """Basic q-number [n]_q = (q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1) for
    q > 0, within 3 ulp.

    n is a nonnegative int, or an integer ndarray mapped elementwise (one
    call gives the level vector of a whole truncated Fock space), with the
    same bits. A q that is not positive and finite, a negative n and a value
    beyond double precision raise DomainError.
    """
    _require_positive_q(q)
    array = isinstance(n, np.ndarray)
    if (n.min(initial=0) if array else n) < 0:
        raise DomainError(f"n must be nonnegative, got n={np.min(n)}")
    try:
        val = _q_ratio(n, q)
    except OverflowError:  # an int n beyond double precision
        val = math.inf
    if not (np.isfinite(val).all() if array else math.isfinite(val)):
        raise DomainError(f"[n]_q overflows double precision at q={q}")
    return val if array else float(val)


def q_exponential(x: float, q: float, tol: float = 1e-14) -> float:
    """q-deformed exponential sum_k x^k/[k]_q! for x >= 0, over the window
    of _weight_window. For q < 1 the series has radius of convergence
    1/(1-q). Negative x, where the alternating sum cancels, a tol that is not
    positive and a sum beyond double precision raise DomainError."""
    log_total = _weight_window(x, q, 0, tol)[4]
    try:
        return math.exp(log_total)
    except OverflowError:
        raise DomainError(f"exp_q({x}) overflows double precision at q={q}") from None


def stirling2(r: int, m: int) -> float:
    """Classical Stirling number of the second kind S(r, m), the q = 1 case
    of q_stirling2, correctly rounded."""
    return q_stirling2(r, m, 1.0)


def q_stirling2(s: int, m: int, q: float) -> float:
    """q-deformed Stirling number of the second kind S_q^{s,m}, the
    coefficient of (a†)^{n+s} a^s in the normal-ordered (a†)^n (a†a)^m.

    It vanishes for s > m and is read from the row S_q^{0..m,m} of
    _stirling_row otherwise. A q that is not positive and finite, a negative
    index and an entry beyond double precision raise DomainError.
    """
    # a plain function over the cache, so that benchmarks/tracer.py, which
    # wraps functions only, still sees and times every call
    _require_positive_q(q)
    if s < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    if s > m:
        return 0.0
    val = _stirling_row(m, q)[s]
    # false for inf, NaN and an exact int beyond the largest double
    if not val <= sys.float_info.max:
        raise DomainError(f"S_q^({s},{m}) overflows double precision at q={q}")
    return float(val)


@functools.lru_cache(maxsize=256, typed=True)
def _stirling_row(m: int, q: float) -> np.ndarray:
    """The row S_q^{0..m,m} of the positive-term recurrence

        S^{s,M+1} = [s]_q S^{s,M} + q^(s-1) S^{s-1,M},   S^{0,0} = 1

    (Katriel & Kibler, J. Phys. A 25, 2683 (1992)), one level M at a time.
    Every term is nonnegative, so nothing cancels, and an entry depends on
    entries at the same or smaller s only: an inf at a larger s never
    reaches a smaller one. At q = 1 the recurrence runs in exact Python
    ints, which q_stirling2 rounds correctly. A level [s]_q or a power
    q^(s-1) beyond double precision is inf, and so are the entries that
    depend on it, at s or above: q_stirling2 refuses those and returns the
    rest, so S^{1,m} = 1 whatever m. Finite levels have the bits of
    q_number, which is _q_ratio plus its check. The row costs O(m^2).
    """
    if q == 1.0:
        lv = np.arange(m + 1).astype(object)
        qp = np.ones(m, dtype=object)
    else:
        lv = _q_ratio(np.arange(m + 1), q)
        with np.errstate(over="ignore"):
            qp = float(q) ** np.arange(m)
    row = np.zeros(m + 1, dtype=lv.dtype)
    row[0] = 1
    # an entry beyond double precision becomes inf, or NaN where an
    # underflowed q^(s-1) meets it; q_stirling2 refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        for M in range(m):
            row[M + 1] = qp[M] * row[M]
            row[1 : M + 1] = lv[1 : M + 1] * row[1 : M + 1] + qp[:M] * row[:M]
            row[0] = 0
    row.flags.writeable = False
    return row


def _mode_weights(x: float, lv: np.ndarray):
    """p_k ~ x^k / (lv[1] ... lv[k]) on [0, len(lv) - 1), for x >= 0 and levels
    rising from lv[0] = 0, as products of ratios <= 1 outward from the mode,
    the last k with lv[k] <= x (at most len(lv) - 2), where p = 1. Returns
    (ratio, mode, p), ratio[k - 1] = x / lv[k] = p_k / p_{k-1}."""
    ratio = x / lv[1:]
    mode = min(int(np.count_nonzero(ratio >= 1.0)), len(ratio) - 1)
    p = np.ones(len(ratio))
    p[mode + 1 :] = np.cumprod(ratio[mode:-1])
    p[:mode] = np.cumprod(lv[mode:0:-1] / x)[::-1]
    return ratio, mode, p


def _weight_window(x: float, q: float, m: int = 0, tol: float = 1e-14):
    """Window [k0, k1] of the (q-)Poisson weights w_k ~ x^k/[k]_q!, x >= 0, on
    the levels q_number(k, q), from _mode_weights. Each side stops on a
    geometric bound of the [k]^m-weighted terms beyond it, relative to the
    kept sum: above the mode on the ratio (x/[k+1]) ([k+1]/[k])^m < 1, which
    does not grow with k; below it on [k]/x < 1. The lower bound stays below
    2^-54 tol, half an ulp of the upper side's budget, so k1 is where a walk
    from k = 0 on the same stopping ratio would stop.

    Returns (k0, levels and weights on the window, the weights normalized,
    the relative tail bound of both sides, ln of the raw window sum).
    Raises DomainError for x < 0 or a tol that is not positive, and
    ConvergenceError outside the radius or when the window does not close
    within _MAX_LEVELS levels.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got tol={tol}")
    if not x >= 0.0:
        raise DomainError(f"x must be nonnegative, got x={x}")
    _check_radius(x, q)
    if x == 0.0:
        return 0, np.zeros(1), np.ones(1), 0.0, 0.0
    # the mode solves [k]_q = x; the spread is about sqrt(x) terms at q = 1,
    # and for q > 1 the weights fall like q^(-j^2/2) j terms past the mode
    mode = x if q == 1.0 else math.log1p(x * (q - 1.0)) / math.log(q)
    size = mode + 10.0 * math.sqrt(mode) + 48.0
    if q > 1.0:
        size = min(size, mode + math.sqrt(200.0 / math.log(q)) + 4.0)
    low_tol = 2.0**-54 * tol
    while size <= _MAX_LEVELS:
        size = int(size)
        lv = q_number(np.arange(size), q)
        ratio, mode, p = _mode_weights(x, lv)
        # each bound b r/(1 - r) < c is tested as b r < c (1 - r): no division,
        # and false for r >= 1, so a vector that ends by the mode doubles
        k0, low = 0, 0.0
        # the bound at k = 1, p_1/(x - 1) > p_0, must be below low_tol * mode
        if p[0] < low_tol * mode:
            lo = lv[1 : mode + 1]
            kept = np.cumsum(p[mode:0:-1])[::-1]
            below = p[1 : mode + 1] * lo**m * lo
            k0 = int(np.argmin(below < low_tol * kept * (x - lo)))
            if k0:
                low = float(below[k0 - 1] / (x - lo[k0 - 1]))
        start = max(mode, 1)
        total = np.cumsum(p[k0:])[start - k0 :]
        # a power beyond double precision is inf, and inf or NaN in `above`
        # (NaN where p_k is 0), which never closes the window; a tol near
        # the largest double makes tol * total inf, which closes it at once
        with np.errstate(over="ignore", invalid="ignore"):
            rho = ratio[start:] * (lv[start + 1 :] / lv[start:-1]) ** m
            powers = lv[start:-1] ** m
            above = p[start:] * powers * rho
            closes = above < (tol * total - low) * (1.0 - rho)
        i = int(np.argmax(closes))
        if closes[i]:
            break
        # [k]^m rises with k: once it overflows, no longer vector closes
        if np.isinf(powers[-1]):
            raise DomainError(
                f"[k]^m overflows double precision at m={m} before the window closes"
            )
        size *= 2
    else:
        raise ConvergenceError(f"weight window does not close within {_MAX_LEVELS} levels")
    k1 = start + i
    # a correctly rounded sum leaves only the divisions' last-ulp defect to
    # park on the largest weight
    s = math.fsum(p[k0 : k1 + 1])
    w = p[k0 : k1 + 1] / s
    w[int(np.argmax(w))] += 1.0 - math.fsum(w)
    up = above[i] / (1.0 - rho[i])
    log_total = math.fsum(np.log(ratio[:mode]).tolist()) + math.log(s)
    return k0, lv[k0 : k1 + 1], w, (low + up) / s, log_total
