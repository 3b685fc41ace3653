"""Closed-form algebraic structure of both oscillators: closure coefficients,
the binomial and power-law multicommutator expansions, the element-wise
dynamical-scaling check and the normal-ordering coefficient generator.

Each closed form is the one band of Lambda^{n,m} times a factor per Fock
column that does not depend on m. It is built as that band
(expansion_band, power_law_band) from the Lambda band, which carries m,
and a level vector the caller builds once per model. expansion_matrix,
power_law_multicommutator and normal_order_matrix package a closed form as
a dense operator from the oracle in fock, which the bands are verified
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .dynamics import _phase_sum, band_phase_trace
from .fock import (
    FockOperator,
    _band_operator,
    _finite,
    _ladder_powers,
    _lambda_band,
    _levels,
    _ordered_products,
    _ordered_sum,
)
from .params import (
    Anharmonic,
    LambdaIndex,
    ModelParams,
    QOsc,
    _closure_rates,
    _level_q,
    energy,
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


def expansion_band(
    params: ModelParams, lam: np.ndarray, lv: np.ndarray, n: int, j: int
) -> np.ndarray:
    """The binomial expansion sum_k coeff_k L^{n,m+k} as its one band on
    sub-diagonal n: lam, the L^{n,m} band, times sum_k coeff_k [c]^k in Fock
    column c, read from the level vector lv. Neither the coefficients nor
    the factor depend on m, so lam may be a stack of bands over m on
    leading axes."""
    terms = multicommutator_expansion(params, n, 0, j)
    lv = lv[: lam.shape[-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        band = lam * sum(coeff * lv**k for k, coeff in terms)
    return _finite(band, lam.shape[-1] + n)


def expansion_matrix(
    params: ModelParams, n: int, m: int, j: int, D: int
) -> FockOperator:
    """Materialize the binomial expansion sum_k coeff_k L^{n,m+k}, the band
    of expansion_band, as a dense operator."""
    lv = _levels(params, D)
    band = expansion_band(params, _lambda_band(lv, (n, m), D), lv, n, j)
    return _band_operator(band, -n)


def power_law_band(
    params: QOsc, lam: np.ndarray, lv: np.ndarray, n: int, j: int
) -> np.ndarray:
    """The general-q closed form L^{n,m} (E(n) [a, a†])^j as its one band on
    sub-diagonal n. [a, a†] is diagonal with entries [c+1] - [c], so the
    band is lam, the L^{n,m} band, times (E(n) ([c+1] - [c]))^j in Fock
    column c, read from the level vector lv (one level beyond the band).
    As for expansion_band, lam may be a stack of bands on leading axes."""
    if not isinstance(params, QOsc):
        raise DomainError("power-law form is specific to the q model")
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    lv = lv[: lam.shape[-1] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        band = lam * (energy(params, n) * (lv[1:] - lv[:-1])) ** j
    return _finite(band, lam.shape[-1] + n)


def power_law_multicommutator(
    params: QOsc, n: int, m: int, j: int, D: int
) -> FockOperator:
    """General-q closed form L^{n,m} (E(n)[a, a†])^j, the band of
    power_law_band, as a dense operator.

    Valid for any q > 0; must match the iterated commutator on interior
    columns.
    """
    # the band reads the levels below D and, at n = 0, [D]
    lv = _levels(params, D, int(n == 0))
    band = power_law_band(params, _lambda_band(lv, (n, m), D), lv, n, j)
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
    nq = np.array([q_number(n, params.q)])
    return float(_scaling_residual(ratio[None], nq, params.q, j_col, taus)[0])


def _scaling_residual(
    ratio: np.ndarray, nq: np.ndarray, q: float, j_col: int, taus: np.ndarray
) -> np.ndarray:
    """scaling_phase_check's residuals from a stack of measured phases,
    ratio (S, T) over the float array taus, and their [n]_q, nq (S,): the
    S residuals from one stacked phase sum, each with the bits of its
    stack of one."""
    one = np.ones(1)
    rate = nq * q**j_col
    predicted = _phase_sum(rate, taus, one, one, np.zeros_like(rate), 1)
    delta = np.angle(ratio * np.conj(predicted))
    return np.abs(delta).max(axis=-1, initial=0.0) / nq


def normal_order_expansion(n: int, M: int, q: float) -> list[tuple[int, float]]:
    """Coefficients (s, S_q^{s,M}) writing (a†)^n (a†a)^M as
    sum_s S_q^{s,M} (a†)^{n+s} a^s."""
    validate_index((n, M))
    return [(s, q_stirling2(s, M, q)) for s in range(M + 1)]


def normal_order_matrix(params: ModelParams, idx: LambdaIndex, D: int) -> FockOperator:
    """Materialize the normal-ordered expansion as a matrix (oracle side of
    the normal-ordering identity)."""
    n, M = validate_index(idx)
    up, down = _ladder_powers(params, D, n + M, M)
    terms = normal_order_expansion(n, M, _level_q(params))
    return FockOperator(_ordered_sum(terms, _ordered_products(n, up, down)), margin=n)
