"""Parameter isomorphism between the anharmonic and q-deformed oscillators.

For a fixed supra-index n the anharmonic algebra coefficients coincide with
those of a q model at

    q(n) = (w + n + 2)/(w + n),    w = omega1/omega2,
    omega_q [n]_q = n omega1 + n^2 omega2,

with the binomial parameter matching exactly: 1/q(n) = p_n.  q(n) > 1 for
every valid input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import anharmonic_p, expansion_scale, multicommutator_expansion
from .errors import DomainError
from .params import Anharmonic, QOsc, _closure_rates
from .qcore import q_number

# time grid of the coefficient-function residual
T_GRID = np.linspace(0.0, 1.0, 17)
T_GRID.setflags(write=False)


@dataclass(frozen=True)
class IsoMap:
    """Mapped q-model parameters equivalent to an anharmonic model at index n."""

    n: int
    q: float
    omega_q: float
    p_n: float
    source: Anharmonic

    def q_params(self) -> QOsc:
        return QOsc(q=self.q, omega=self.omega_q)


@dataclass(frozen=True)
class ResidualReport:
    """Numerical residuals of the isomorphism, all expected at machine scale."""

    p_residual: float  # |1/q - p_n|
    z_residual: float  # |Z_q - Z_n|
    table_residual: float  # expansion coefficient tables, scaled by Z^j
    coeff_fn_residual: float  # evolution coefficient functions over a time grid
    iso: IsoMap

    def max_residual(self) -> float:
        residuals = [
            self.p_residual,
            self.z_residual,
            self.table_residual,
            self.coeff_fn_residual,
        ]
        return float(np.max(residuals))  # np.max keeps a NaN, max() may not


def map_to_q(omega1: float, omega2: float, n: int) -> IsoMap:
    """Map anharmonic parameters to the equivalent q model at supra-index n.

    The parameters are validated as an Anharmonic model; omega2 = 0, which
    that model allows, degenerates to q = 1 and is rejected.
    """
    source = Anharmonic(omega1=omega1, omega2=omega2)
    if omega2 == 0:
        raise DomainError(f"omega2 must be positive, got {omega2}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    w = omega1 / omega2
    q = (w + n + 2.0) / (w + n)
    nq = q_number(n, q)
    target = _closure_rates(source, n)[0]
    omega_q = target / nq
    p_n = anharmonic_p(source, n)
    iso = IsoMap(n=n, q=q, omega_q=omega_q, p_n=p_n, source=source)
    if not q > 1.0:
        raise DomainError(f"mapped q={q} not > 1")
    if abs(1.0 / q - p_n) > 1e-12:
        raise DomainError("mapped q does not invert to p_n")
    if abs(omega_q * nq - target) > 1e-12 * target:
        raise DomainError("mapped omega_q does not reproduce the closure coefficient")
    return iso


def _table_residual(qp: QOsc, ap: Anharmonic, n: int, j_max: int, z: float) -> float:
    """Worst difference of the two expansion coefficient tables, j <= j_max,
    scaled by Z^j."""
    table_res = 0.0
    for j in range(j_max + 1):
        tq = multicommutator_expansion(qp, n, 0, j)
        ta = multicommutator_expansion(ap, n, 0, j)
        scale = z**j if j > 0 else 1.0
        for (kq, cq), (ka, ca) in zip(tq, ta):
            assert kq == ka
            table_res = np.maximum(table_res, abs(cq - ca) / scale)
    return float(table_res)


def _coeff_fn_residual(qp: QOsc, ap: Anharmonic, n: int, j_max: int) -> float:
    """Worst difference of the evolution coefficient functions
    e^{i c1 t} (i c2 t)^r / r!, r <= j_max, over T_GRID, relative with a
    floor of 1."""
    c1_q, c2_q = _closure_rates(qp, n)
    c1_a, c2_a = _closure_rates(ap, n)
    fn_res = 0.0
    for r in range(j_max + 1):
        fq = np.exp(1j * c1_q * T_GRID) * (1j * c2_q * T_GRID) ** r / math.factorial(r)
        fa = np.exp(1j * c1_a * T_GRID) * (1j * c2_a * T_GRID) ** r / math.factorial(r)
        denom = np.maximum(1.0, np.abs(fa))
        fn_res = np.maximum(fn_res, np.max(np.abs(fq - fa) / denom))
    return float(fn_res)


def isomorphism_residuals(
    omega1: float, omega2: float, n: int, j_max: int = 6
) -> ResidualReport:
    """Quantify how exactly the mapped q model reproduces the anharmonic
    algebra: binomial parameter, commutation scale Z, the full expansion
    coefficient tables up to depth j_max (scaled by Z^j) and the evolution
    coefficient functions e^{i c1 t} (i c2 t)^r / r! over T_GRID
    (relative, floored at 1). A negative j_max raises DomainError.
    """
    if j_max < 0:
        raise DomainError(f"j_max must be nonnegative, got {j_max}")
    iso = map_to_q(omega1, omega2, n)
    qp = iso.q_params()
    ap = iso.source
    p_res = abs(1.0 / iso.q - iso.p_n)
    z_q = expansion_scale(qp, n)
    z_a = expansion_scale(ap, n)
    z_res = abs(z_q - z_a)

    # Z^j and the terms of e^{i c1 t} (i c2 t)^r / r! leave double precision
    # at large depth, and r! does beyond r = 170
    try:
        with np.errstate(over="raise", invalid="raise"):
            table_res = _table_residual(qp, ap, n, j_max, abs(z_a))
            fn_res = _coeff_fn_residual(qp, ap, n, j_max)
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        raise DomainError(
            f"isomorphism residuals at depth j_max={j_max} leave double "
            f"precision at n={n}"
        ) from exc

    return ResidualReport(
        p_residual=p_res,
        z_residual=z_res,
        table_residual=table_res,
        coeff_fn_residual=fn_res,
        iso=iso,
    )
