"""Closed-form algebraic structure of both oscillators: closure coefficients,
the binomial and power-law multicommutator expansions, the element-wise
dynamical-scaling check and the normal-ordering coefficient generator.

Each closed form is the one band of Lambda^{n,m} times a factor per Fock
column, and is built as that band (_expansion_band, _power_law_band) from a
level vector the caller builds once per model. expansion_matrix and
power_law_multicommutator package the band as a dense operator; the dense
engine in fock is the oracle the bands are verified against. The
normal-ordered oracle is real and takes its ladder powers from
_ladder_powers, which a suite calls once per model for every (n, M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .dynamics import band_phase_trace
from .fock import (
    FockOperator,
    _band_operator,
    _finite_band,
    _lambda_band,
    build_ladder,
)
from .params import (
    Anharmonic,
    LambdaIndex,
    ModelParams,
    QOsc,
    _closure_rates,
    _level_q,
    energy,
    level_value,
    validate_index,
)
from .qcore import q_number, q_stirling2


@dataclass(frozen=True)
class ClosureCoeffs:
    """Coefficients of [H, L^{n,m}] = c_same * L^{n,m} + c_up * L^{n,m+1}."""

    c_same: float
    c_up: float


class ExpansionTerm(NamedTuple):
    k: int  # shift of the m index
    coeff: float


def closure_coeffs(params: ModelParams, n: int) -> ClosureCoeffs:
    """Structure coefficients of the partial Lie algebra; both vanish at n = 0
    (powers of the number operator are constants of motion)."""
    return ClosureCoeffs(*_closure_rates(params, n))


def expansion_scale(params: ModelParams, n: int) -> float:
    """The per-commutation scale Z = c_same + c_up: E(n) q for the q model,
    n (omega1 + (n+2) omega2) for the anharmonic one."""
    return sum(_closure_rates(params, n))


def anharmonic_p(params: Anharmonic, n: int) -> float:
    """Binomial parameter p_n = (w + n)/(w + n + 2), w = omega1/omega2."""
    if params.omega2 <= 0:
        raise DomainError("p_n requires omega2 > 0")
    w = params.omega1 / params.omega2
    return (w + n) / (w + n + 2.0)


def multicommutator_expansion(
    params: ModelParams, n: int, m: int, j: int
) -> list[ExpansionTerm]:
    """The j-fold commutator with H as a combination of higher-m band
    operators: term k has coefficient C(j, k) c_same^(j-k) c_up^k, which is
    Z^j times the binomial weight B(j, k, p), p = c_same/Z.

    q model: p = 1/q, requires q > 1 (the weights alternate in sign
    otherwise -- use the power-law form for general q).  Anharmonic model:
    p = p_n.  c_up = 0 (n = 0, or omega2 = 0) keeps the single k = 0 term.
    A coefficient beyond double precision raises DomainError.
    """
    validate_index((n, m))
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    if isinstance(params, QOsc) and params.q <= 1.0:
        raise DomainError(
            "binomial expansion requires q > 1; use power_law_multicommutator"
        )
    c_same, c_up = _closure_rates(params, n)
    try:
        coeffs = [
            math.comb(j, k) * c_same ** (j - k) * c_up**k
            for k in range(j + 1 if c_up else 1)
        ]
        if all(map(math.isfinite, coeffs)):
            return [ExpansionTerm(k, c) for k, c in enumerate(coeffs)]
    except OverflowError:  # a power, or C(j, k) as a float
        pass
    raise DomainError(
        f"the {j}-fold expansion coefficients overflow double precision at n={n}"
    )


def _expansion_band(
    params: ModelParams, lam: np.ndarray, lv: np.ndarray, n: int, m: int, j: int
) -> np.ndarray:
    """The binomial expansion sum_k coeff_k L^{n,m+k} as its one band on
    sub-diagonal n: lam, the L^{n,m} band, times sum_k coeff_k [c]^k in Fock
    column c, read from the level vector lv."""
    terms = multicommutator_expansion(params, n, m, j)
    lv = lv[: len(lam)]
    with np.errstate(over="ignore", invalid="ignore"):
        band = lam * sum(coeff * lv**k for k, coeff in terms)
    return _finite_band(band, len(lam) + n)


def expansion_matrix(
    params: ModelParams, n: int, m: int, j: int, D: int
) -> FockOperator:
    """Materialize the binomial expansion sum_k coeff_k L^{n,m+k}, the band
    of _expansion_band, as a dense operator."""
    lv = level_value(params, np.arange(D))
    band = _expansion_band(params, _lambda_band(lv, (n, m), D), lv, n, m, j)
    return _band_operator(band, -n)


def _power_law_band(
    params: QOsc, lam: np.ndarray, lv: np.ndarray, n: int, m: int, j: int
) -> np.ndarray:
    """The general-q closed form L^{n,m} (E(n) [a, a†])^j as its one band on
    sub-diagonal n. [a, a†] is diagonal with entries [c+1] - [c], so the
    band is lam, the L^{n,m} band, times (E(n) ([c+1] - [c]))^j in Fock
    column c, read from the level vector lv (one level beyond the band)."""
    if not isinstance(params, QOsc):
        raise DomainError("power-law form is specific to the q model")
    validate_index((n, m))
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    lv = lv[: len(lam) + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        band = lam * (energy(params, n) * (lv[1:] - lv[:-1])) ** j
    return _finite_band(band, len(lam) + n)


def power_law_multicommutator(
    params: QOsc, n: int, m: int, j: int, D: int
) -> FockOperator:
    """General-q closed form L^{n,m} (E(n)[a, a†])^j, the band of
    _power_law_band, as a dense operator.

    Valid for any q > 0; must match the iterated commutator on interior
    columns.
    """
    # the band reads the levels below D and, at n = 0, [D]
    lv = level_value(params, np.arange(max(D, D - n + 1)))
    band = _power_law_band(params, _lambda_band(lv, (n, m), D), lv, n, m, j)
    return _band_operator(band, -n)


def scaling_phase_check(
    params: QOsc, n: int, m: int, tau: float | np.ndarray, j_col: int
) -> float:
    """Element-wise reading of the dynamical scaling law.

    The band entry (j+n, j) of the evolved operator gains phase
    [n]_q * tau * q^j; after dividing by [n]_q the result is independent of
    (n, m).  Returns the worst circular distance (in the normalized phase)
    between the measured and predicted values over tau, a scalar or an
    array.
    """
    if not isinstance(params, QOsc):
        raise DomainError("scaling check is specific to the q model")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    ratio = band_phase_trace(params, LambdaIndex(n, m), j_col, taus).values
    nq = q_number(n, params.q)
    predicted = nq * taus * params.q**j_col
    delta = np.angle(ratio * np.exp(-1j * predicted))
    return float(np.abs(delta).max(initial=0.0)) / nq


def normal_order_expansion(n: int, M: int, q: float) -> list[tuple[int, float]]:
    """Coefficients (s, S_q^{s,M}) writing (a†)^n (a†a)^M as
    sum_s S_q^{s,M} (a†)^{n+s} a^s."""
    validate_index((n, M))
    return [(s, q_stirling2(s, M, q)) for s in range(M + 1)]


def _ladder_powers(
    params: ModelParams, D: int, k_max: int, s_max: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The dense powers (a†)^k, k <= k_max, and a^s, s <= s_max, from one
    build_ladder. Each is np.linalg.matrix_power's own: a running product
    would round differently. A power beyond double precision raises
    DomainError."""
    a, adag = build_ladder(params, D)
    with np.errstate(over="ignore", invalid="ignore"):
        up = [np.linalg.matrix_power(adag.matrix, k) for k in range(k_max + 1)]
        down = [np.linalg.matrix_power(a.matrix, s) for s in range(s_max + 1)]
    if not all(np.isfinite(p).all() for p in up + down):
        raise DomainError(f"ladder powers overflow double precision at D={D}")
    return up, down


def _normal_order_dense(
    n: int, M: int, q: float, up: list[np.ndarray], down: list[np.ndarray]
) -> np.ndarray:
    """sum_s S_q^{s,M} (a†)^{n+s} a^s as a real dense matrix, from the
    ladder powers up and down of _ladder_powers (k_max >= n + M, s_max >= M).
    A sum beyond double precision raises DomainError."""
    mat = np.zeros(up[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, coeff in normal_order_expansion(n, M, q):
            mat += coeff * (up[n + s] @ down[s])
    if not np.isfinite(mat).all():
        raise DomainError(f"normal-ordered entries overflow double precision at D={len(mat)}")
    return mat


def normal_order_matrix(params: ModelParams, idx: LambdaIndex, D: int) -> FockOperator:
    """Materialize the normal-ordered expansion as a matrix (oracle side of
    the normal-ordering identity)."""
    n, M = validate_index(idx)
    up, down = _ladder_powers(params, D, n + M, M)
    return FockOperator(_normal_order_dense(n, M, _level_q(params), up, down), margin=n)
