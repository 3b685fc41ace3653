"""Closed-form algebraic structure of both oscillators: closure coefficients,
the binomial and power-law multicommutator expansions, the element-wise
dynamical-scaling check and the normal-ordering coefficient generator.

Each closed form is the one band of Lambda^{n,m} times a factor per Fock
column; the dense engine in fock is the oracle they are verified against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .dynamics import band_phase_trace
from .fock import FockOperator, _band_operator, _lambda_band, build_ladder
from .params import (
    Anharmonic,
    LambdaIndex,
    ModelParams,
    QOsc,
    energy,
    level_value,
    validate_index,
)
from .qcore import binomial_weights, q_number, q_stirling2


@dataclass(frozen=True)
class ClosureCoeffs:
    """Coefficients of [H, L^{n,m}] = c_same * L^{n,m} + c_up * L^{n,m+1}."""

    c_same: float
    c_up: float


class ExpansionTerm(NamedTuple):
    k: int  # shift of the m index
    coeff: complex


def closure_coeffs(params: ModelParams, n: int) -> ClosureCoeffs:
    """Structure coefficients of the partial Lie algebra; both vanish at n = 0
    (powers of the number operator are constants of motion)."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if isinstance(params, QOsc):
        e_n = params.omega * q_number(n, params.q)
        return ClosureCoeffs(c_same=e_n, c_up=e_n * (params.q - 1.0))
    return ClosureCoeffs(
        c_same=n * params.omega1 + n * n * params.omega2,
        c_up=2.0 * n * params.omega2,
    )


def expansion_scale(params: ModelParams, n: int) -> float:
    """The per-commutation scale Z: E(n) q for the q model,
    n (omega1 + (n+2) omega2) for the anharmonic one."""
    if isinstance(params, QOsc):
        return energy(params, n) * params.q
    return n * (params.omega1 + (n + 2) * params.omega2)


def anharmonic_p(params: Anharmonic, n: int) -> float:
    """Binomial parameter p_n = (w + n)/(w + n + 2), w = omega1/omega2."""
    if params.omega2 <= 0:
        raise DomainError("p_n requires omega2 > 0")
    w = params.omega1 / params.omega2
    return (w + n) / (w + n + 2.0)


def multicommutator_expansion(
    params: ModelParams, n: int, m: int, j: int
) -> list[ExpansionTerm]:
    """The j-fold commutator with H as a binomial-weighted combination of
    higher-m band operators: term k has coefficient Z^j B(j, k, p).

    q model: p = 1/q, requires q > 1 (the binomial weights go negative
    otherwise -- use the power-law form for general q).  Anharmonic model:
    p = p_n; omega2 = 0 degenerates to the single k = 0 term.
    """
    validate_index((n, m))
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    if isinstance(params, QOsc):
        if params.q <= 1.0:
            raise DomainError(
                "binomial expansion requires q > 1; use power_law_multicommutator"
            )
        p = 1.0 / params.q
    else:
        if params.omega2 == 0.0:
            z = expansion_scale(params, n)
            return [ExpansionTerm(0, complex(z**j))]
        p = anharmonic_p(params, n)
    z = expansion_scale(params, n)
    if j == 0:
        return [ExpansionTerm(0, 1.0 + 0.0j)]
    b = binomial_weights(j, p).weights
    return [ExpansionTerm(k, complex(z**j * b[k])) for k in range(j + 1)]


def expansion_matrix(
    params: ModelParams, n: int, m: int, j: int, D: int
) -> FockOperator:
    """Materialize the binomial expansion sum_k coeff_k L^{n,m+k} as one
    band: the L^{n,m} band times sum_k coeff_k [c]^k in Fock column c."""
    terms = multicommutator_expansion(params, n, m, j)
    band = _lambda_band(params, LambdaIndex(n, m), D)
    lv = level_value(params, np.arange(D - n))
    with np.errstate(over="ignore", invalid="ignore"):
        band = band * sum(coeff * lv**k for k, coeff in terms)
    return _band_operator(D, band, -n, margin=n)


def power_law_multicommutator(
    params: QOsc, n: int, m: int, j: int, D: int
) -> FockOperator:
    """General-q closed form: L^{n,m} (E(n) [a, a†])^j.

    Valid for any q > 0; must match the iterated commutator on interior
    columns.  [a, a†] is diagonal with entries [c+1] - [c], so the form is
    the L^{n,m} band times (E(n) ([c+1] - [c]))^j in Fock column c.
    """
    if not isinstance(params, QOsc):
        raise DomainError("power-law form is specific to the q model")
    idx = validate_index((n, m))
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    band = _lambda_band(params, idx, D)
    lv = level_value(params, np.arange(D - n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        band = band * (energy(params, n) * (lv[1:] - lv[:-1])) ** j
    return _band_operator(D, band, -n, margin=n)


def scaling_phase_check(
    params: QOsc, n: int, m: int, tau: float, j_col: int
) -> float:
    """Element-wise reading of the dynamical scaling law.

    The band entry (j+n, j) of the evolved operator gains phase
    [n]_q * tau * q^j; after dividing by [n]_q the result is independent of
    (n, m).  Returns the circular distance (in the normalized phase) between
    the measured and predicted values.
    """
    if not isinstance(params, QOsc):
        raise DomainError("scaling check is specific to the q model")
    ratio = band_phase_trace(params, LambdaIndex(n, m), j_col, [tau]).values[0]
    nq = q_number(n, params.q)
    predicted = nq * tau * params.q**j_col
    delta = cmath.phase(ratio * cmath.exp(-1j * predicted))
    return abs(delta) / nq


def normal_order_expansion(n: int, M: int, q: float) -> list[tuple[int, float]]:
    """Coefficients (s, S_q^{s,M}) writing (a†)^n (a†a)^M as
    sum_s S_q^{s,M} (a†)^{n+s} a^s."""
    validate_index((n, M))
    return [(s, q_stirling2(s, M, q)) for s in range(M + 1)]


def normal_order_matrix(params: ModelParams, idx: LambdaIndex, D: int) -> FockOperator:
    """Materialize the normal-ordered expansion as a matrix (oracle side of
    the normal-ordering identity)."""
    n, M = LambdaIndex(*idx)
    q = params.q if isinstance(params, QOsc) else 1.0
    a, adag = build_ladder(params, D)
    mat = np.zeros((D, D), dtype=complex)
    for s, coeff in normal_order_expansion(n, M, q):
        term = np.linalg.matrix_power(adag.matrix, n + s) @ np.linalg.matrix_power(
            a.matrix, s
        )
        mat += coeff * term
    return FockOperator(D, mat, margin=n)
