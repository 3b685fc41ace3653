"""Model parameter bundles and operator index labels (hbar = 1 throughout)."""

from __future__ import annotations

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
        if not self.q > 0:
            raise DomainError(f"q must be positive, got {self.q}")
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")


@dataclass(frozen=True)
class Anharmonic:
    """Second-order anharmonic oscillator: H = omega1 * N + omega2 * N^2."""

    omega1: float
    omega2: float

    def __post_init__(self):
        if not self.omega1 > 0:
            raise DomainError(f"omega1 must be positive, got {self.omega1}")
        if self.omega2 < 0:
            raise DomainError(f"omega2 must be nonnegative, got {self.omega2}")


ModelParams = Union[QOsc, Anharmonic]


class LambdaIndex(NamedTuple):
    """Index pair (n, m) of the band operator (a†)^n (a† a)^m."""

    n: int
    m: int


def level_value(params: ModelParams, k):
    """Eigenvalue of the (deformed) number operator a† a at level k; an
    integer ndarray k gives the levels elementwise."""
    if isinstance(params, QOsc):
        return q_number(k, params.q)
    return k.astype(float) if isinstance(k, np.ndarray) else float(k)


def energy(params: ModelParams, k):
    """Hamiltonian eigenvalue at Fock level k; an integer ndarray k gives
    the spectrum elementwise."""
    if isinstance(params, QOsc):
        return params.omega * q_number(k, params.q)
    return params.omega1 * k + params.omega2 * k * k


def validate_index(idx: LambdaIndex) -> LambdaIndex:
    idx = LambdaIndex(*idx)
    if idx.n < 0 or idx.m < 0:
        raise DomainError(f"index components must be nonnegative, got {idx}")
    return idx
