"""Truncated Fock-space matrix engine: the dense oracle.

Everything here is the literal, brute-force side of the library: dense
operators, explicit commutators, ladder powers, normal-ordered sums and the
evolved coherent state. It is the oracle the closed-form algebra and
dynamics are verified against, and it uses nothing from them: callers hand
in the normal-ordering coefficients, and the oracle forms its own phases.

The package's own oracle and closed forms exchange arrays: level vectors,
bands and dense ndarrays. FockOperator, a read-only square matrix with its
truncation margin, is the public dense API over the same helpers, which
the benchmarks call; no private routine builds one but _band_operator.
_levels is the one place a dimension D becomes a level vector, and it
refuses D out of range with DimensionError before anything is allocated.

Every operator is a single band, computed from one level vector and stored
densely in the band's own dtype: levels, energies, Lambda and the ladders
are real float64 matrices, so their products are dgemm. A product of
single-band matrices has at most one nonzero term per entry, so it rounds
alike in real and complex arithmetic. A band or dense array beyond double
precision raises DomainError (_finite) rather than holding inf or NaN.

_band_array places a band, or a stack of bands on leading axes, on
diagonal k; _diag_commutator commutes a diagonal with a matrix, or a stack
of them, element-wise in O(D^2), with the bits of the two O(D^3) matmuls
for a real diagonal. So verify commutes a stack of the m index with H once
per depth. _band_operator and commutator wrap them for one operator.
_ordered_products forms each ladder product (a†)^{n+s} a^s once per n,
and _ordered_sum adds one expansion's terms.

Row tiles: the only D x D array a dense helper allocates is the one it
returns. Its intermediates, such as the second product of a commutator or
the complex copy of a real Lambda that a complex product takes, are row
tiles of at most _ROW_TILE cells, from the one iterator _row_tiles; so
are verify's residuals. At D = 512 a whole D x D temporary is 2-4 MB:
each one is a fresh allocation that the kernel maps and faults in page by
page, and then it is read back from memory rather than cache. A tile is
reused while it is in cache. Element-wise arithmetic is the same per
entry whatever the tiling, in the same operand order, and a BLAS product
of a block of rows gives that block of the whole product, so every tiled
helper keeps the bits of its one-shot formula. A stack that fits one
tile, every stack at D = 64, takes one pass as before.

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
from .params import LambdaIndex, ModelParams, QOsc, energy, level_value, validate_index
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


def _levels(params: ModelParams, D: int, extra: int = 0) -> np.ndarray:
    """The level vector [k], k < D + extra, at truncation dimension D, after
    _check_dim: the one place a dimension becomes a level vector."""
    _check_dim(D)
    return level_value(params, np.arange(D + extra))


# cells per row tile of the dense helpers, 256 KB of float64, as
# dynamics._PHASE_TILE sizes _phase_sum's tiles: a tile and its few
# temporaries stay in cache, and no helper allocates a D x D temporary
_ROW_TILE = 1 << 15
# _row_tiles' one tile of a whole array, by its number of axes, built
# once: most calls at D = 64 take it
_WHOLE = [[(slice(None),) * max(ndim - 1, 0)] for ndim in range(65)]


def _row_tiles(shape: tuple[int, ...], cells: int = _ROW_TILE) -> list[tuple]:
    """Basic index tuples, one per row tile, that cover an array of `shape`
    in order: the last axis is the columns, every other axis holds rows.
    A tile takes whole matrices of a stack while they fit in `cells`
    cells, and else a block of rows of one matrix; blocks are split evenly
    and hold at least 4 rows of a matrix that has them, so a BLAS product
    of a block takes the path of the whole product (not its matrix-vector
    path at one row). Each index names every axis but the last, the rows
    as a slice, so X[idx] is the tile and d[idx[-1]] its rows' entries of
    a diagonal d. An array of at most `cells` cells, and a 1-D array, is
    one tile. A helper that holds two tile-sized arrays at once asks for
    half the budget."""
    if len(shape) < 2 or math.prod(shape) <= cells:
        return _WHOLE[len(shape)]
    return _tiles(shape[:-1], max(8, cells // shape[-1]))


def _tiles(lead: tuple[int, ...], rows: int) -> list[tuple]:
    """_row_tiles over the row axes lead, in tiles of at most `rows` rows."""
    inner = math.prod(lead[1:])
    if inner > rows:
        return [(i, *t) for i in range(lead[0]) for t in _tiles(lead[1:], rows)]
    n = lead[0]
    count = -(-n // max(rows // max(inner, 1), 1))
    ends = [n * i // count for i in range(count + 1)]
    rest = (slice(None),) * (len(lead) - 1)
    return [(slice(a, b), *rest) for a, b in zip(ends, ends[1:])]


def _finite(a: np.ndarray, D: int, what: str = "operator entries") -> np.ndarray:
    """a itself, or DomainError naming `what` if an entry is inf or NaN,
    checked row tile by row tile."""
    for idx in _row_tiles(a.shape):
        if not np.isfinite(a[idx]).all():
            raise DomainError(f"{what} overflow double precision at D={D}")
    return a


def _band_array(band: np.ndarray, k: int) -> np.ndarray:
    """The dense square array holding `band` on diagonal k (k < 0 below the
    main diagonal) and zeros elsewhere, in the band's own dtype, of side
    band.shape[-1] + |k|. Leading axes of band stack: a (S, L) band gives
    S matrices, each np.diag(band[s], k) bit for bit. A band beyond double
    precision raises DomainError."""
    L = band.shape[-1]
    D = L + abs(k)
    out = np.zeros(band.shape[:-1] + (D, D), dtype=band.dtype)
    # diagonal k runs D + 1 cells apart from entry (max(-k, 0), max(k, 0))
    start = max(-k, 0) * D + max(k, 0)
    flat = out.reshape(*band.shape[:-1], D * D)
    flat[..., start : start + L * (D + 1) : D + 1] = _finite(band, D)
    return out


def _band_operator(band: np.ndarray, k: int) -> FockOperator:
    """Operator holding the 1-D `band` on diagonal k, _band_array's, of
    dimension len(band) + |k| and margin |k|."""
    return FockOperator(_band_array(band, k), abs(k))


def build_ladder(params: ModelParams, D: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation/creation pair: a|n> = sqrt([n]) |n-1> (row = n-1, col = n)."""
    a = _band_operator(np.sqrt(_levels(params, D)[1:]), 1)
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
    n, m = validate_index(idx)
    if n >= D:
        raise DimensionError(f"raising degree n={n} must be < D={D}")
    band = np.ones(D - n)
    with np.errstate(over="ignore"):
        for i in range(1, n + 1):
            band *= np.sqrt(lv[i : D - n + i])
        band *= lv[: D - n] ** m
    return _finite(band, D)


def build_lambda(params: ModelParams, idx: LambdaIndex, D: int) -> FockOperator:
    """Band operator (a†)^n (a† a)^m, holding _lambda_band on sub-diagonal n."""
    band = _lambda_band(_levels(params, D), idx, D)
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


def _diag_commutator(d: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[diag(d), X] element-wise, d_r X_rc - X_rc d_c, in O(D^2) for the
    1-D d of length D. Leading axes of X stack: each (D, D) slice gets its
    own commutator with the one diagonal. The result, laid out as X, is
    formed row tile by row tile: the tile d_r X_rc, then X_rc d_c in the
    result, subtracted from it. A result beyond double precision raises
    DomainError instead of holding inf or NaN."""
    out = None
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in _row_tiles(X.shape):
            x = X[idx]
            first = d[idx[-1], None] * x
            if out is None:
                # allocated after the first tile's product, which is then
                # freed below the result rather than at the top of the heap,
                # where malloc may hand it back to the kernel for the next
                # call to fault in again (about 4x the page faults in the
                # closure suite at D = 64)
                out = np.empty_like(X, dtype=first.dtype)
            o = out[idx]
            np.multiply(x, d, out=o)
            np.subtract(first, o, out=o)
            del first  # before the next tile's is formed
            _finite(o, X.shape[-1], "commutator entries")
    return out


def commutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """[A, B] = AB - BA, with margin A.margin + B.margin.

    When A is exactly diagonal, each entry of A @ B is the one rounded
    product d_r B_rc plus exact zeros, so _diag_commutator gives, for real
    d, the same bits in O(D^2). The test is exact, with no tolerance: a
    tiny off-diagonal entry still contributes to the dense products. Any
    other A takes those two matmuls. A result beyond double precision
    raises DomainError instead of holding inf or NaN.
    """
    if A.dim != B.dim:
        raise DimensionError(f"dimension mismatch: {A.dim} vs {B.dim}")
    if _is_exactly_diagonal(A.matrix):
        out = _diag_commutator(np.diag(A.matrix), B.matrix)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _finite(A.matrix @ B.matrix - B.matrix @ A.matrix, A.dim, "commutator entries")
    return FockOperator(out, A.margin + B.margin)


def heisenberg_evolve(O: FockOperator, H: FockOperator, t: float) -> FockOperator:
    """Heisenberg evolution e^{+iHt} O e^{-iHt} for diagonal H.

    Exact in the truncated space: entry (r, c) picks up e^{i(E_r - E_c) t}.
    t is raw time; for the q model pass t = tau / omega_q. H must be exactly
    diagonal: the phases would drop any off-diagonal entry, however small.
    The result is np.multiply(np.outer(p, p.conj()), O), p = e^{i E t}, in
    that operand order, which a complex O rounds by, formed row tile by row
    tile.
    """
    if O.dim != H.dim:
        raise DimensionError(f"dimension mismatch: {O.dim} vs {H.dim}")
    if not _is_exactly_diagonal(H.matrix):
        raise DomainError("heisenberg_evolve requires a diagonal Hamiltonian")
    phases = np.exp(1j * np.diag(H.matrix).real * t)
    conj, out = phases.conj(), np.empty(O.matrix.shape, dtype=complex)
    for idx in _row_tiles(out.shape):
        rows = idx[-1]
        np.multiply(np.outer(phases[rows], conj), O.matrix[rows], out=out[rows])
    return FockOperator(out, O.margin)


def coherent_state(
    params: ModelParams, alpha: complex, D: int, tol: float = 1e-14
) -> np.ndarray:
    """(q-)coherent state, the normalized eigenstate of the annihilator, as
    its D read-only complex amplitudes c_k proportional to alpha^k / sqrt([k]!).

    The occupation mass beyond D - 1 must have a geometric bound below tol.
    The eigenvalue relation a|alpha> = alpha|alpha> is verified on the
    first D-1 components before returning.
    """
    lv = _levels(params, D, 1)
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


def _ladder_powers(
    params: ModelParams, D: int, k_max: int, s_max: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The dense powers (a†)^k, k <= k_max, and a^s, s <= s_max, of one
    ladder array a and its transpose a†. Each is np.linalg.matrix_power's
    own: a running product would round differently. A power beyond double
    precision raises DomainError."""
    a = _band_array(np.sqrt(_levels(params, D)[1:]), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        up = [np.linalg.matrix_power(a.T, k) for k in range(k_max + 1)]
        down = [np.linalg.matrix_power(a, s) for s in range(s_max + 1)]
    for p in up + down:
        _finite(p, D, "ladder powers")
    return up, down


def _ordered_products(n: int, up: list[np.ndarray], down: list[np.ndarray]) -> list[np.ndarray]:
    """The dense products (a†)^{n+s} a^s, one for each power a^s in down,
    from the ladder powers up and down of _ladder_powers. A caller summing
    several expansions of one n forms each product once."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [up[n + s] @ p for s, p in enumerate(down)]


def _ordered_sum(terms: list[tuple[int, float]], products: list[np.ndarray]) -> np.ndarray:
    """sum_s coeff products[s] over the terms (s, coeff), in their order, as
    a real dense matrix, summed row tile by row tile. A sum beyond double
    precision raises DomainError."""
    mat = np.zeros(products[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in _row_tiles(mat.shape):
            tile = mat[idx]
            for s, coeff in terms:
                tile += coeff * products[s][idx]
            _finite(tile, len(mat), "normal-ordered entries")
    return mat


def _oracle_state(
    params: ModelParams, alpha: complex, times: np.ndarray, D: int
) -> tuple[np.ndarray, np.ndarray]:
    """The truncated coherent state evolved over the whole grid as one D x T
    array Psi = e^{-iEt} psi under the spectrum E of the diagonal H, its
    phases np.exp of -iEt in place, and conj(Psi), both read-only. Neither
    depends on the operator, so a suite builds them once per model."""
    psi0 = coherent_state(params, alpha, D)
    E = energy(params, np.arange(D))
    scale = params.omega if isinstance(params, QOsc) else 1.0
    t = np.asarray(times, dtype=float) / scale
    psi = np.empty(np.broadcast_shapes((D, 1), t.shape), dtype=complex)
    np.multiply(-E[:, None], t, out=psi)
    psi *= 1j
    np.exp(psi, out=psi)
    psi *= psi0[:, None]
    psi_conj = np.conj(psi)
    psi.setflags(write=False)
    psi_conj.setflags(write=False)
    return psi, psi_conj


def _oracle_series(lam: np.ndarray, psi: np.ndarray, psi_conj: np.ndarray) -> np.ndarray:
    """<Psi(t)| L |Psi(t)> over the grid from the dense product L @ Psi,
    taken row tile by row tile of L, so a real L is cast to complex one
    tile at a time rather than whole; each block of rows has the bits of
    the whole product's."""
    prod = np.empty(psi.shape, dtype=np.result_type(lam, psi))
    for (rows,) in _row_tiles(lam.shape):
        np.matmul(lam[rows], psi, out=prod[rows])
    return np.einsum("dt,dt->t", psi_conj, prod)
