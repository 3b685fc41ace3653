"""Truncated Fock-space matrix engine.

Everything here is the literal, brute-force side of the library: dense
operators, explicit commutators and phase evolution. It serves as the
oracle against which the closed-form algebra and dynamics are verified.

Every operator built here is a single band, computed from one level
vector and stored densely. Entries beyond double precision raise
DomainError rather than turning into inf.

Truncation bookkeeping: both Hamiltonians are diagonal, so cutting the
ladder at dimension D only contaminates the top `margin` Fock levels of an
operator (the raising degree accumulated while building it). Identities
are asserted on interior columns only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, TruncationError
from .params import LambdaIndex, ModelParams, QOsc, energy, level_value
from .qcore import _check_radius, _ratio_weights


@dataclass(frozen=True)
class FockOperator:
    """Dense complex matrix on a D-dimensional truncated Fock space.

    margin counts the top Fock levels whose rows/columns are contaminated
    by the truncation.
    """

    dim: int
    matrix: np.ndarray
    margin: int = 0

    def __post_init__(self):
        if self.matrix.shape != (self.dim, self.dim):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match dim {self.dim}"
            )
        self.matrix.setflags(write=False)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.dim, self.matrix.conj().T.copy(), self.margin)

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        off = self.matrix - np.diag(np.diag(self.matrix))
        scale = max(1.0, float(np.abs(np.diag(self.matrix)).max(initial=0.0)))
        return bool(np.abs(off).max(initial=0.0) <= tol * scale)


@dataclass(frozen=True)
class FockState:
    """Complex amplitudes over the Fock basis with a certified tail bound."""

    dim: int
    amplitudes: np.ndarray
    tail_bound: float

    def __post_init__(self):
        if self.amplitudes.shape != (self.dim,):
            raise DimensionError("amplitude length does not match dim")
        self.amplitudes.setflags(write=False)


def _check_dim(D: int) -> None:
    if D < 2:
        raise DimensionError(f"dimension must be >= 2, got {D}")


def _band_operator(D: int, band: np.ndarray, k: int, margin: int) -> FockOperator:
    """D x D operator holding `band` on diagonal k (k > 0 above the main
    diagonal, k < 0 below it)."""
    if not np.isfinite(band).all():
        raise DomainError(f"operator entries overflow double precision at D={D}")
    return FockOperator(D, np.diag(band.astype(complex), k), margin)


def build_ladder(params: ModelParams, D: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation/creation pair: a|n> = sqrt([n]) |n-1> (row = n-1, col = n)."""
    _check_dim(D)
    a = _band_operator(D, np.sqrt(level_value(params, np.arange(1, D))), 1, margin=1)
    return a, a.dagger()


def build_hamiltonian(params: ModelParams, D: int) -> FockOperator:
    """Diagonal Hamiltonian; truncation-exact (margin 0)."""
    _check_dim(D)
    return _band_operator(D, energy(params, np.arange(D)), 0, margin=0)


def build_lambda(params: ModelParams, idx: LambdaIndex, D: int) -> FockOperator:
    """Band operator (a†)^n (a† a)^m with the single nonzero band

        entry(j + n, j) = (prod_{i=1}^{n} sqrt([j+i])) * [j]^m.

    The convention 0^0 = 1 keeps idx = (n, 0) equal to the bare (a†)^n.
    """
    _check_dim(D)
    n, m = idx = LambdaIndex(*idx)
    if n < 0 or m < 0:
        raise DomainError(f"index components must be nonnegative, got {idx}")
    if n >= D:
        raise DimensionError(f"raising degree n={n} must be < D={D}")
    lv = level_value(params, np.arange(D))
    band = np.ones(D - n)
    with np.errstate(over="ignore"):
        for i in range(1, n + 1):
            band *= np.sqrt(lv[i : D - n + i])
        band *= lv[: D - n] ** m
    return _band_operator(D, band, -n, margin=n)


def commutator(A: FockOperator, B: FockOperator) -> FockOperator:
    if A.dim != B.dim:
        raise DimensionError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return FockOperator(
        A.dim, A.matrix @ B.matrix - B.matrix @ A.matrix, A.margin + B.margin
    )


def multicommutator_matrix(H: FockOperator, O: FockOperator, j: int) -> FockOperator:
    """j-fold nested commutator [H, ... [H, O] ... ]; j = 0 returns O."""
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    out = O
    for _ in range(j):
        out = commutator(H, out)
    return out


def heisenberg_evolve(O: FockOperator, H: FockOperator, t: float) -> FockOperator:
    """Heisenberg evolution e^{+iHt} O e^{-iHt} for diagonal H.

    Exact in the truncated space: entry (r, c) picks up e^{i(E_r - E_c) t}.
    t is raw time; for the q model pass t = tau / omega_q.
    """
    if O.dim != H.dim:
        raise DimensionError(f"dimension mismatch: {O.dim} vs {H.dim}")
    if not H.is_diagonal():
        raise DomainError("heisenberg_evolve requires a diagonal Hamiltonian")
    phases = np.exp(1j * np.diag(H.matrix).real * t)
    return FockOperator(O.dim, O.matrix * np.outer(phases, phases.conj()), O.margin)


def coherent_dim(params: ModelParams, alpha: complex, tol: float = 1e-14) -> int:
    """Smallest dimension at which a coherent state of amplitude alpha has
    occupation tail mass below tol."""
    w, _, _, _ = _ratio_weights(
        lambda k: level_value(params, k), abs(alpha) ** 2, 0, tol
    )
    return len(w) + 1


def coherent_state(
    params: ModelParams,
    alpha: complex,
    D: int | None = None,
    tol: float = 1e-14,
) -> FockState:
    """(q-)coherent state, the normalized eigenstate of the annihilator:
    amplitudes c_k proportional to alpha^k / sqrt([k]!).

    D = None picks the dimension adaptively so the tail mass is below tol.
    The eigenvalue relation a|alpha> = alpha|alpha> is verified on the
    first D-1 components before returning.
    """
    a2 = abs(alpha) ** 2
    if isinstance(params, QOsc):
        _check_radius(a2, params.q)
    if D is None:
        D = coherent_dim(params, alpha, tol)
    _check_dim(D)
    lv = level_value(params, np.arange(D + 1))
    probs = np.cumprod(np.concatenate(([1.0], a2 / lv[1:D])))
    total = probs.sum()
    # geometric bound on the occupation mass beyond the cutoff
    r = a2 / lv[D]
    tail = probs[-1] * r / (1.0 - r) if r < 1.0 else math.inf
    if not tail < tol * total:
        raise TruncationError(
            f"tail bound {tail / total:.3e} exceeds tol {tol} at dim {D}"
        )
    probs /= total + tail
    phase = cmath.phase(alpha) if alpha != 0 else 0.0
    amps = np.sqrt(probs) * np.exp(1j * phase * np.arange(D))
    state = FockState(D, amps, tail_bound=tail / (total + tail))
    a, _ = build_ladder(params, D)
    resid = np.abs((a.matrix @ amps - alpha * amps)[: D - 1]).max()
    if resid > 1e-10 * max(1.0, abs(alpha)):
        raise TruncationError(f"eigenvalue relation violated: residual {resid:.3e}")
    return state


def expectation(state: FockState, O: FockOperator) -> complex:
    """<psi|O|psi> in the truncated space."""
    if state.dim != O.dim:
        raise DimensionError(f"dimension mismatch: {state.dim} vs {O.dim}")
    return complex(np.vdot(state.amplitudes, O.matrix @ state.amplitudes))
