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

# phases per row block of _phase_sum: a few 0.5 MB real work arrays,
# whatever the grid length
_PHASE_BLOCK = 1 << 16


@dataclass(frozen=True)
class TimeSeries:
    """Complex expectation values over a time grid, with the series' tail bound."""

    times: np.ndarray
    values: np.ndarray
    truncation_tail: float

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise DomainError("times and values must have matching shapes")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise DomainError("times must be strictly increasing")
        self.times.setflags(write=False)
        self.values.setflags(write=False)


def _horner(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k z^k by Horner's rule, in place in one complex vector."""
    acc = np.full(z.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc *= z
        acc += ck
    return acc


def _cis(a, b) -> np.ndarray:
    """e^{ix} for the real product x = a * b, broadcast, as cos(x) + i sin(x)
    written into one complex array with no other temporary: the bits of
    np.exp(1j * x) in about half its time. 1j * x has imaginary part x + 0,
    so x = -0.0 gives +0.0 there, and so does this."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    x = np.multiply(a, b, out=out.imag)
    np.cos(x, out=out.real)
    np.sin(x, out=x)
    x += 0.0
    return out


def _phase_sum(rate: float, t: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k e^{i rate t r_k} for real r and c, as cos and sin over row
    blocks of about _PHASE_BLOCK phases, so memory stays O(len(t))."""
    out = np.empty(t.shape, dtype=complex)
    rows = max(1, _PHASE_BLOCK // len(r))
    for start in range(0, len(t), rows):
        x = np.outer(t[start : start + rows], r)
        x *= rate
        out.real[start : start + rows] = np.cos(x) @ c
        out.imag[start : start + rows] = np.sin(x, out=x) @ c
    return out


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
    q = _level_q(params)
    # the window refuses a tol <= 0 and an amplitude outside the radius, also
    # for n = m = 0
    k0, lev, w, tail, _ = _weight_window(_amplitude_sq(alpha), q, m, tol)
    if n == 0 and m == 0:
        return TimeSeries(times, np.ones_like(times, dtype=complex), 0.0)
    # tau = omega t: the q model's tau rates are its rates at omega = 1,
    # which round as [n] and [n](q - 1) do
    tau_model = replace(params, omega=1.0) if isinstance(params, QOsc) else params
    c_same, c_up = _closure_rates(tau_model, n)
    if q == 1.0:
        # the z of evolve_anharmonic_closed, so both round their phases alike
        z = _cis(c_up, times)
        sums = z**k0 * _horner(z, lev**m * w)
    else:
        sums = _phase_sum(c_up, times, lev, lev**m * w)
    values = np.conj(alpha) ** n * _cis(c_same, times) * sums
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
    """
    if not isinstance(params, Anharmonic):
        raise DomainError("evolve_anharmonic_closed requires anharmonic parameters")
    n, m = validate_index(idx)
    ts = np.asarray(t_grid, dtype=float)
    a2 = _amplitude_sq(alpha)
    c_same, c_up = _closure_rates(params, n)
    rot = _cis(c_up, ts)
    poly = np.zeros_like(ts, dtype=complex)
    for r in range(m + 1):
        poly += stirling2(r, m) * a2**r * rot**r
    # (alpha*)^n e^{i c_same t} exp[a2 (rot - 1)] poly, in place and in that
    # order; rot is not needed past poly
    decay = np.subtract(rot, 1.0, out=rot)
    np.multiply(a2, decay, out=decay)
    values = np.multiply(np.conj(alpha) ** n, _cis(c_same, ts))
    values *= np.exp(decay, out=decay)
    values *= poly
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
    return abs(lhs - rhs) / abs(rhs)


@dataclass(frozen=True)
class PhaseCurve:
    """Band-entry phase trace tagged with its provenance."""

    taus: np.ndarray
    values: np.ndarray  # complex ratios band(tau)/band(0)
    n: int
    m: int
    q: float
    j_col: int


def band_phase_trace(
    params: QOsc, idx: LambdaIndex, j_col: int, taus: np.ndarray
) -> PhaseCurve:
    """Ratio of the evolved to the initial band entry (j_col + n, j_col).

    The evolution multiplies the entry prod_{i=1..n} sqrt([j+i]_q) [j]_q^m
    by a pure phase at rate [j+n]_q - [j]_q (in tau), so the ratio is
    computed directly. For q > 0 the entry vanishes exactly when j_col = 0
    and m >= 1, where the phase is undefined; n = 0 has no phase to
    normalize, so both raise DomainError.
    """
    n, m = validate_index(idx)
    if n < 1 or j_col < 0:
        raise DomainError(f"need n >= 1 and j_col >= 0, got n={n}, j_col={j_col}")
    if j_col == 0 and m >= 1:
        raise DomainError(f"band entry vanishes at (n={n}, m={m}, j={j_col})")
    taus = np.asarray(taus, dtype=float)
    rate = q_number(j_col + n, params.q) - q_number(j_col, params.q)
    values = _cis(rate, taus)
    return PhaseCurve(taus, values, n, m, params.q, j_col)


def collapse_transform(traces: list[PhaseCurve]) -> list[np.ndarray]:
    """Unwrap each curve's phase and divide by [n]_q; for fixed (q, j_col)
    the outputs coincide pointwise with tau * q^j_col.

    Grids whose expected phase step reaches pi are refused: a wrapped step
    beyond pi is indistinguishable from its alias, so silent unwrapping
    would fake the collapse. An empty grid raises DomainError.
    """
    out = []
    for tr in traces:
        if len(tr.taus) == 0:
            raise DomainError(f"empty tau grid for (n={tr.n}, m={tr.m})")
        nq = q_number(tr.n, tr.q)
        if len(tr.taus) > 1:
            max_step = float(np.max(np.diff(tr.taus))) * nq * tr.q**tr.j_col
            if max_step >= math.pi:
                raise PhaseUnwrapError(
                    f"phase step {max_step:.3f} >= pi for (n={tr.n}, m={tr.m}, "
                    f"j_col={tr.j_col}); refine the tau grid"
                )
        raw = np.angle(tr.values)
        steps = np.diff(raw)
        wrapped = (steps + math.pi) % (2.0 * math.pi) - math.pi
        unwrapped = np.concatenate(([raw[0]], raw[0] + np.cumsum(wrapped)))
        out.append(unwrapped / nq)
    return out
