"""Truncated Fock-space matrix engine.

Everything here is the literal, brute-force side of the library: dense
operators, explicit commutators and phase evolution. It serves as the
oracle against which the closed-form algebra and dynamics are verified.

A commutator whose first operand is exactly diagonal, as both Hamiltonians
are, is formed element-wise in O(D^2) and is exact: for a real diagonal it
has the bits of the two O(D^3) matmuls, which every other operand still
takes. A commutator beyond double precision raises DomainError.

Every operator built here is a single band, computed from one level
vector and stored densely in the band's own dtype: levels, energies,
Lambda and the ladders are real float64 matrices, so their products are
dgemm, not zgemm. A product of single-band matrices has at most one
nonzero term per entry, so it rounds alike in real and complex
arithmetic. Entries beyond double precision raise DomainError rather than
turning into inf. The closed forms in algebra are handed over as bands,
not matrices: the band of Lambda^{n,m} (_lambda_band, read from a level
vector the caller builds once per model) scaled per column.
_band_operator packages a band densely; its dimension and margin follow
from the band's length and diagonal.

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
from .params import LambdaIndex, ModelParams, energy, level_value, validate_index
from .qcore import _mode_weights


@dataclass(frozen=True)
class FockOperator:
    """Square dense matrix on a truncated Fock space, dimension dim: float64
    for a real band, complex128 for a complex one.

    margin counts the top Fock levels whose rows/columns are contaminated
    by the truncation.
    """

    matrix: np.ndarray
    margin: int = 0

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionError(f"matrix shape {self.matrix.shape} is not square")
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T.copy(), self.margin)


# largest truncation dimension: one real D x D matrix at 4096 is 134 MB
_MAX_DIM = 4096


def _check_dim(D: int) -> None:
    """Refuse a dimension outside [2, _MAX_DIM] before anything is allocated."""
    if not 2 <= D <= _MAX_DIM:
        raise DimensionError(f"dimension (--dim) must be in [2, {_MAX_DIM}], got {D}")


def _finite_band(band: np.ndarray, D: int) -> np.ndarray:
    """band itself, or DomainError when an entry is beyond double precision."""
    if not np.isfinite(band).all():
        raise DomainError(f"operator entries overflow double precision at D={D}")
    return band


def _band_operator(band: np.ndarray, k: int) -> FockOperator:
    """Operator holding `band` on diagonal k (k < 0 below the main diagonal),
    in the band's own dtype, of dimension len(band) + |k| and margin |k|."""
    return FockOperator(np.diag(_finite_band(band, len(band) + abs(k)), k), abs(k))


def build_ladder(params: ModelParams, D: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation/creation pair: a|n> = sqrt([n]) |n-1> (row = n-1, col = n)."""
    _check_dim(D)
    a = _band_operator(np.sqrt(level_value(params, np.arange(1, D))), 1)
    return a, a.dagger()


def build_hamiltonian(params: ModelParams, D: int) -> FockOperator:
    """Diagonal Hamiltonian; truncation-exact (margin 0)."""
    _check_dim(D)
    return _band_operator(energy(params, np.arange(D)), 0)


def _lambda_band(lv: np.ndarray, idx: LambdaIndex, D: int) -> np.ndarray:
    """The one nonzero band of Lambda^{n,m} at dimension D, indexed by Fock
    column j = 0..D-1-n:

        entry(j + n, j) = (prod_{i=1}^{n} sqrt([j+i])) * [j]^m,

    read from the model's level vector lv[k] = [k], which must cover k < D;
    entries beyond D are not read. The convention 0^0 = 1 keeps idx = (n, 0)
    equal to the bare (a†)^n. Entries beyond double precision raise
    DomainError.
    """
    _check_dim(D)
    n, m = validate_index(idx)
    if n >= D:
        raise DimensionError(f"raising degree n={n} must be < D={D}")
    band = np.ones(D - n)
    with np.errstate(over="ignore"):
        for i in range(1, n + 1):
            band *= np.sqrt(lv[i : D - n + i])
        band *= lv[: D - n] ** m
    return _finite_band(band, D)


def build_lambda(params: ModelParams, idx: LambdaIndex, D: int) -> FockOperator:
    """Band operator (a†)^n (a† a)^m, holding _lambda_band on sub-diagonal n."""
    band = _lambda_band(level_value(params, np.arange(D)), idx, D)
    return _band_operator(band, -LambdaIndex(*idx).n)


def _is_exactly_diagonal(M: np.ndarray) -> bool:
    """True when every off-diagonal entry of the square matrix M is exactly 0.

    In row-major order the D(D-1) off-diagonal entries are the runs of D
    between consecutive diagonal entries, so M.flat[1:] viewed as
    (D-1) x (D+1) holds one run per row and a diagonal entry in its last
    column. O(D^2), and a view of a contiguous M.
    """
    D = M.shape[0]
    return not M.ravel()[1:].reshape(D - 1, D + 1)[:, :D].any()


def commutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """[A, B] = AB - BA, with margin A.margin + B.margin.

    When A is exactly diagonal, each entry of A @ B is the one rounded
    product d_r B_rc plus exact zeros, so the element-wise
    d_r B_rc - B_rc d_c gives, for real d, the same bits in O(D^2). The test
    is exact, with no tolerance: a tiny off-diagonal entry still
    contributes to the dense products. Any other A takes those two matmuls.
    A result beyond double precision raises DomainError instead of holding
    inf or NaN.
    """
    if A.dim != B.dim:
        raise DimensionError(f"dimension mismatch: {A.dim} vs {B.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        if _is_exactly_diagonal(A.matrix):
            d = np.diag(A.matrix)
            out = d[:, None] * B.matrix - B.matrix * d[None, :]
        else:
            out = A.matrix @ B.matrix - B.matrix @ A.matrix
    if not np.isfinite(out).all():
        raise DomainError(f"commutator entries overflow double precision at D={A.dim}")
    return FockOperator(out, A.margin + B.margin)


def heisenberg_evolve(O: FockOperator, H: FockOperator, t: float) -> FockOperator:
    """Heisenberg evolution e^{+iHt} O e^{-iHt} for diagonal H.

    Exact in the truncated space: entry (r, c) picks up e^{i(E_r - E_c) t}.
    t is raw time; for the q model pass t = tau / omega_q. H must be exactly
    diagonal: the phases would drop any off-diagonal entry, however small.
    """
    if O.dim != H.dim:
        raise DimensionError(f"dimension mismatch: {O.dim} vs {H.dim}")
    if not _is_exactly_diagonal(H.matrix):
        raise DomainError("heisenberg_evolve requires a diagonal Hamiltonian")
    phases = np.exp(1j * np.diag(H.matrix).real * t)
    return FockOperator(O.matrix * np.outer(phases, phases.conj()), O.margin)


def coherent_state(
    params: ModelParams, alpha: complex, D: int, tol: float = 1e-14
) -> np.ndarray:
    """(q-)coherent state, the normalized eigenstate of the annihilator, as
    its D read-only complex amplitudes c_k proportional to alpha^k / sqrt([k]!).

    The occupation mass beyond D - 1 must have a geometric bound below tol.
    The eigenvalue relation a|alpha> = alpha|alpha> is verified on the
    first D-1 components before returning.
    """
    _check_dim(D)
    lv = level_value(params, np.arange(D + 1))
    ratio, _, probs = _mode_weights(abs(alpha) ** 2, lv)
    total = probs.sum()
    # geometric bound on the occupation mass beyond the cutoff
    r = ratio[-1]
    tail = probs[-1] * r / (1.0 - r) if r < 1.0 else math.inf
    if not tail < tol * total:
        raise TruncationError(f"tail bound {tail / total:.3e} exceeds tol {tol} at dim {D}")
    probs /= total + tail
    phase = cmath.phase(alpha) if alpha != 0 else 0.0
    amps = np.sqrt(probs) * np.exp(1j * phase * np.arange(D))
    amps.setflags(write=False)
    # a|alpha> = alpha|alpha> on the ladder band: sqrt([k+1]) c_{k+1} = alpha c_k
    resid = np.abs(np.sqrt(lv[1:D]) * amps[1:] - alpha * amps[:-1]).max()
    if resid > 1e-10 * max(1.0, abs(alpha)):
        raise TruncationError(f"eigenvalue relation violated: residual {resid:.3e}")
    return amps


def expectation(state: np.ndarray, O: FockOperator) -> complex:
    """<psi|O|psi> in the truncated space, for the amplitude vector psi."""
    if state.shape != (O.dim,):
        raise DimensionError(f"state of shape {state.shape} does not match dim {O.dim}")
    return complex(np.vdot(state, O.matrix @ state))
