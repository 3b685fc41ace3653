"""q-arithmetic and combinatorics: q-numbers, q-factorials, the q-exponential,
(q-)Stirling numbers of the second kind, binomial weights and the
mode-centred window of (q-)Poisson weights used by every coherent state.

All factorial-like magnitudes are kept in log space and probability weights
are products of term ratios below 1 outward from their mode, so nothing here
overflows for moderate deformations even at large order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError

# switch-over width for the q -> 1 limit of (q^n - 1)/(q - 1)
_Q_ONE_WINDOW = 1e-8

# longest level vector of _weight_window: 16 MB, |alpha| up to ~1400 at q = 1
_MAX_LEVELS = 1 << 21


def _require_positive_q(q: float) -> None:
    if not q > 0:
        raise DomainError(f"q must be positive, got q={q}")


def _check_radius(x: float, q: float) -> None:
    """Require q > 0 and |x| inside the radius of convergence of
    sum_k x^k/[k]_q!, which is 1/(1-q) for q < 1 and unbounded otherwise."""
    _require_positive_q(q)
    if q < 1.0 and abs(x) >= 1.0 / (1.0 - q):
        raise ConvergenceError(
            f"|x|={abs(x)} outside radius {1.0 / (1.0 - q)} for q={q}"
        )


def _q_ratio(n, q: float, expm1):
    """(q^n - 1)/(q - 1) for an int or int-array n, expm1 matching n's kind."""
    if abs(q - 1.0) < _Q_ONE_WINDOW:
        # first-order expansion about q = 1; the neglected term is O(n^3 eps^2)
        return n * (1.0 + 0.5 * (n - 1) * (q - 1.0))
    if q > 0:
        return expm1(n * math.log(q)) / math.expm1(math.log(q))
    return (1.0 - q**n) / (1.0 - q)


def q_number(n, q: float):
    """Basic q-number (q^n - 1)/(q - 1), with a stable q -> 1 branch.

    n is a nonnegative int, or an integer ndarray mapped elementwise (one
    call gives the level vector of a whole truncated Fock space). Any real
    q is accepted; q <= 0 falls back to the raw ratio, whose denominator is
    then bounded away from zero. A value beyond double precision raises
    DomainError.
    """
    if isinstance(n, np.ndarray):
        if n.size and n.min() < 0:
            raise DomainError(f"n must be nonnegative, got n={n.min()}")
        with np.errstate(over="ignore"):
            val = _q_ratio(n, q, np.expm1)
        finite = bool(np.isfinite(val).all())
    else:
        if n < 0:
            raise DomainError(f"n must be nonnegative, got n={n}")
        try:
            val = _q_ratio(n, q, math.expm1)
        except OverflowError:
            val = math.inf
        finite = math.isfinite(val)
    if not finite:
        raise DomainError(f"[n]_q overflows double precision at q={q}")
    return val


def log_q_factorial(n: int, q: float) -> float:
    """ln([n]_q!) accumulated as a sum of logs (the raw product overflows
    for q > 1 near n ~ 40)."""
    _require_positive_q(q)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got n={n}")
    return math.fsum(math.log(q_number(k, q)) for k in range(2, n + 1))


def q_factorial(n: int, q: float) -> float:
    """[n]_q! as a float; raises DomainError where it leaves double
    precision, where log_q_factorial still serves."""
    try:
        return math.exp(log_q_factorial(n, q))
    except OverflowError:
        raise DomainError(f"[{n}]_q! overflows double precision at q={q}") from None


def q_exponential(x: float, q: float, tol: float = 1e-14) -> float:
    """q-deformed exponential sum_k x^k/[k]_q! for x >= 0, over the window
    of _weight_window. For q < 1 the series has radius of convergence
    1/(1-q). Negative x, where the alternating sum cancels, and a sum beyond
    double precision raise DomainError."""
    log_total = _weight_window(x, q, 0, tol)[4]
    try:
        return math.exp(log_total)
    except OverflowError:
        raise DomainError(f"exp_q({x}) overflows double precision at q={q}") from None


def stirling2(r: int, m: int) -> float:
    """Classical Stirling number of the second kind via the finite sum
    sum_k (-1)^(r-k) k^m / (k! (r-k)!), evaluated in exact rational
    arithmetic (convention 0^0 = 1)."""
    if r < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    total = Fraction(0)
    for k in range(r + 1):
        km = 1 if (k == 0 and m == 0) else k**m
        total += Fraction(
            (-1) ** (r - k) * km, math.factorial(k) * math.factorial(r - k)
        )
    return float(total)


def q_stirling2(s: int, m: int, q: float) -> float:
    """q-deformed Stirling number of the second kind,

        S_q^{s,m} = sum_{k=0}^{s} (-1)^{s-k} q^{((s-k)^2-(s-k))/2}
                    [k]_q^m / ([k]_q! [s-k]_q!),

    with the convention [0]_q^0 = 1.  The alternating sum is accumulated
    with fsum; term magnitudes are formed by direct products when every
    factor fits in double precision and in log space otherwise.  A term or
    sum beyond double precision raises DomainError.

    The coefficient depends on (s, m, q) alone, so each one is computed once
    and remembered.
    """
    # a plain function over the cache, so that benchmarks/tracer.py, which
    # wraps functions only, still sees and times every call
    return _q_stirling2(s, m, q)


@functools.lru_cache(maxsize=4096, typed=True)
def _q_stirling2(s: int, m: int, q: float) -> float:
    _require_positive_q(q)
    if s < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    lnq = math.log(q)
    levels = [q_number(k, q) for k in range(s + 1)]
    logs = [math.log(lv) for lv in levels[2:]]
    # ln([k]_q!) summed exactly as log_q_factorial does
    ln_fact = [math.fsum(logs[: max(k - 1, 0)]) for k in range(s + 1)]
    terms = []
    try:
        for k in range(s + 1):
            r = s - k
            if k == 0 and m > 0:
                continue  # [0]_q^m = 0
            sign = -1.0 if r % 2 else 1.0
            tri = (r * r - r) // 2
            ln_pow = tri * lnq
            ln_level = m * math.log(levels[k]) if k > 0 else 0.0
            ln_den = ln_fact[k] + ln_fact[r]
            ln_mag = ln_pow + ln_level - ln_den
            factors = (ln_pow, ln_level, ln_pow + ln_level, ln_den, ln_mag)
            if max(map(abs, factors)) < 690.0:
                # direct products keep an extra couple of digits vs exp(ln_mag)
                num = q**tri * (levels[k] ** m if k > 0 else 1.0)
                den = math.exp(ln_fact[k]) * math.exp(ln_fact[r])
                terms.append(sign * num / den)
            else:
                terms.append(sign * math.exp(ln_mag))
        return math.fsum(terms)
    except OverflowError:
        raise DomainError(f"S_q^({s},{m}) overflows double precision at q={q}") from None


@dataclass(frozen=True)
class WeightDistribution:
    """Normalized nonnegative weight sequence."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.weights)), self.weights))

    def variance(self) -> float:
        k = np.arange(len(self.weights))
        mu = self.mean()
        return float(np.dot((k - mu) ** 2, self.weights))


def binomial_weights(j: int, p: float) -> WeightDistribution:
    """Binomial weights B(j, k, p) = C(j,k) p^(j-k) (1-p)^k for k = 0..j.

    Note the convention: p sits on the (j-k) power, so the mean of the
    k-index is j(1-p).
    """
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    k = np.arange(j + 1)
    comb = np.array([math.comb(j, int(kk)) for kk in k], dtype=float)
    w = comb * p ** (j - k) * (1.0 - p) ** k
    return WeightDistribution(weights=w)


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
    Raises DomainError for x < 0 and ConvergenceError outside the radius
    or when the window does not close within _MAX_LEVELS levels.
    """
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
        rho = ratio[start:] * (lv[start + 1 :] / lv[start:-1]) ** m
        above = p[start:] * lv[start:-1] ** m * rho
        total = np.cumsum(p[k0:])[start - k0 :]
        closes = above < (tol * total - low) * (1.0 - rho)
        i = int(np.argmax(closes))
        if closes[i]:
            break
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
