"""q-arithmetic and combinatorics: q-numbers, q-factorials, the q-exponential,
(q-)Stirling numbers of the second kind, binomial weights and the
term-ratio recursion behind the (q-)Poisson weights used by the dynamics.

All factorial-like magnitudes are kept in log space and probability weights
are built by term-ratio recursions, so nothing here overflows for moderate
deformations even at large order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError

# switch-over width for the q -> 1 limit of (q^n - 1)/(q - 1)
_Q_ONE_WINDOW = 1e-8

_MAX_TERMS = 100_000

# term size at which _ratio_weights renormalizes its running terms
_RESCALE_AT = 1e280


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
    """q-deformed exponential sum_k x^k/[k]_q! via term-ratio recursion.

    For q < 1 the series has radius of convergence 1/(1-q).
    """
    _check_radius(x, q)
    total = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= x / q_number(k, q)
        total += term
        ratio = abs(x) / q_number(k + 1, q)
        if ratio < 1.0 and abs(term) * ratio / (1.0 - ratio) < tol * abs(total):
            return total
        if k > _MAX_TERMS:
            raise ConvergenceError("q_exponential failed to converge")


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
    """
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


def _ratio_weights(level, x: float, m: int, tol: float):
    """Terms w_0 = 1, w_k = w_{k-1} x / level(k) of the exponential series
    (level(k) = k) or its deformed form (level(k) = [k]_q), truncated when
    the certified tail of the level^m-weighted sum drops below tol relative
    to the running sum of the w_k.

    level(k) must be nondecreasing with nonincreasing successive ratios,
    which holds for both k and [k]_q. Returns (weights normalized by their
    partial sum, levels level(0..K-1), relative tail, raw partial sum).
    A term beyond _RESCALE_AT divides the kept terms and the sum by itself,
    so large x still gives finite weights; the raw partial sum, restored
    from the product of those divisors, is inf where it leaves double
    precision.
    """
    w = [1.0]
    lev = [level(0)]
    total = 1.0
    scale = 1.0
    tail = 0.0
    while x > 0.0:
        k = len(w)
        lv = level(k)
        nxt = w[-1] * x / lv
        if nxt > _RESCALE_AT:
            w = [v / nxt for v in w]
            total /= nxt
            scale *= nxt
            nxt = 1.0
        w.append(nxt)
        lev.append(lv)
        total += nxt
        lv_next = level(k + 1)
        rho = (x / lv_next) * (lv_next / lv) ** m
        if rho < 1.0:
            tail = nxt * max(lv, 1.0) ** m * rho / (1.0 - rho)
            if tail < tol * total:
                break
        if k > _MAX_TERMS:
            raise ConvergenceError("weight recursion failed to terminate")
    w_arr = np.array(w) / total
    # park the last-ulp normalization defect on the largest weight
    w_arr[int(np.argmax(w_arr))] += 1.0 - math.fsum(w_arr)
    return w_arr, np.array(lev), tail / total, total * scale
