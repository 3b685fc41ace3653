"""Model parameter bundles and operator index labels (hbar = 1 throughout)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError
from .qcore import q_number


@dataclass(frozen=True)
class QOsc:
    """Deformed oscillator: a a† - q a† a = 1, H = omega * a† a."""

    q: float
    omega: float = 1.0

    def __post_init__(self):
        if not (self.q > 0 and math.isfinite(self.q)):
            raise DomainError(f"q must be positive and finite, got {self.q}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise DomainError(f"omega must be positive and finite, got {self.omega}")


@dataclass(frozen=True)
class Anharmonic:
    """Second-order anharmonic oscillator: H = omega1 * N + omega2 * N^2."""

    omega1: float
    omega2: float

    def __post_init__(self):
        if not (self.omega1 > 0 and math.isfinite(self.omega1)):
            raise DomainError(f"omega1 must be positive and finite, got {self.omega1}")
        if not (self.omega2 >= 0 and math.isfinite(self.omega2)):
            raise DomainError(f"omega2 must be nonnegative and finite, got {self.omega2}")


ModelParams = Union[QOsc, Anharmonic]


class LambdaIndex(NamedTuple):
    """Index pair (n, m) of the band operator (a†)^n (a† a)^m."""

    n: int
    m: int


def _level_q(params: ModelParams) -> float:
    """The q of the model's levels [k]_q; the anharmonic integers are q = 1."""
    return params.q if isinstance(params, QOsc) else 1.0


def level_value(params: ModelParams, k):
    """Eigenvalue [k]_q, q = _level_q(params), of the (deformed) number operator
    a† a at level k; an integer ndarray k gives the levels elementwise."""
    return q_number(k, _level_q(params))


def _closure_rates(params: ModelParams, n: int) -> tuple[float, float]:
    """(c_same, c_up) of [H, L^{n,m}] = c_same L^{n,m} + c_up L^{n,m+1} in raw
    time: E(n) and E(n)(q - 1) for the q model, n w1 + n^2 w2 and 2 n w2 for
    the anharmonic one. Every other model-specific rate derives from these."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    try:
        if isinstance(params, QOsc):
            e_n = params.omega * q_number(n, params.q)
            rates = e_n, e_n * (params.q - 1.0)
        else:
            rates = n * params.omega1 + n * n * params.omega2, 2.0 * n * params.omega2
    except OverflowError:  # an int n beyond double precision
        rates = (math.inf,)
    if not all(map(math.isfinite, rates)):
        raise DomainError(f"closure rates overflow double precision at n={n} for {params}")
    return rates


def energy(params: ModelParams, k):
    """Hamiltonian eigenvalue at Fock level k; an integer ndarray k gives
    the spectrum elementwise. A value beyond double precision raises
    DomainError."""
    try:
        with np.errstate(over="ignore"):
            if isinstance(params, QOsc):
                e = params.omega * q_number(k, params.q)
            else:
                e = params.omega1 * k + params.omega2 * k * k
    except OverflowError:  # an int k beyond double precision
        e = math.inf
    if not np.isfinite(e).all():
        raise DomainError(f"energy overflows double precision for {params}")
    return e


def validate_index(idx: LambdaIndex) -> LambdaIndex:
    idx = LambdaIndex(*idx)
    if idx.n < 0 or idx.m < 0:
        raise DomainError(f"index components must be nonnegative, got {idx}")
    return idx
