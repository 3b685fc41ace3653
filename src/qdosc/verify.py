"""Verification suites: every algebraic identity checked against the
truncated Fock-space matrix oracle, packaged as machine-readable records.

Band entries grow like q^(n j) with the column index, so identity residuals
are measured element-wise relative to the reference entry, with a floor of 1
on the denominator. Every suite measures them with band_rel_error.

The oracle side of every identity is dense, and fock builds every dense
array of it as a plain ndarray, not a FockOperator: the dense Lambda, its
commutators with H (the spectrum params.energy gives), the normal-ordered
matrix products and the evolved coherent state. Each suite builds a
model's level vector once (fock._levels, which refuses a dimension out of
range first), each Lambda band once from it, and the oracle's per-model
state once: the ladder powers and the state Psi. Every dense operator is
one real band, so its products and absolute values take float64
arithmetic. The closed-form side, from algebra and dynamics, is handed
over as its band, and band_rel_error compares the two; it gives the bits
of interior_rel_error, the same residual of two dense matrices, on the
band's dense form. No suite calls interior_rel_error.

The closure, multicommutator and power-law suites hold one stack of the m
index per (model, n): the (S, D-n) stack of Lambda bands, its (S, D, D)
dense form and its commutators with H, formed once per depth for the whole
stack. The closed forms do not depend on m, so the band functions form the
whole stack's bands at once, and band_rel_error compares a stack in one
call: the largest of its slices' values. The normal-order suite forms each
ladder product (a†)^{n+s} a^s once per n (fock._ordered_products) and sums
each M's terms in their s order; its checked columns depend on M, so it
compares per M.

Residuals are reduced row tile by row tile (fock._row_tiles): one
reducer, _tile_max, takes the largest of the tiles' maxima by np.maximum,
which keeps a NaN, and a maximum is exact, so band_rel_error and
interior_rel_error keep the bits of their one-shot formulas while neither
holds a D x D temporary. band_rel_error reads the dense side's |entries|
off the band one tile at a time; interior_rel_error, a thin wrapper over
the reducer, holds a tile's differences and floors at once, so it takes
tiles of half the budget.

The dense suites build every model's level vector before any model's
dense array, so a level beyond double precision, such as q = 1.2 at
D = 4096, is refused at once rather than after the other models' oracles.

The analytic suites form what an index does not enter once per pass, and
every residual and trace keeps the bits of the public one-index call:

- scaling: the entry (j + n, j) of the evolved Lambda^{n,m} turns at the
  rate [j + n] - [j] for every m, since (a†a)^m commutes with H, so m
  enters scaling_phase_check and band_phase_trace only through the
  refusal at j = 0, m >= 1. Each (q, j_col, n) forms its residual and
  collapse curve once, and the residual is yielded once for each m of the
  grid. The n's of a (q, j_col) differ only in their rates, so their
  phases on each grid are one dynamics._band_curves call, band_phase_trace's
  routine, and their predicted phases one stacked dynamics._phase_sum call;
- relation: exp_q(x) does not depend on m, so it is formed once per
  (q, x); the moment sum keeps its own window for each m, apart from the
  window of exp_q;
- dynamics-oracle: the weight window depends on (|alpha|^2, q, m, tol) and
  not on n, and the closed form's decay factor on n and not on m, so the
  index-list forms under evolve_* (dynamics._series, dynamics._closed)
  form each once per call. The n's of one m share their terms,
  so each m is one stacked phase sum, and the decay one over n.

Each suite checks one fixed grid, the module constants below, and its
report records the grid; the truncation dimension D is the only argument
a suite takes. Each check is a generator of residuals judged by _check.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _scaling_residual,
    closure_coeffs,
    expansion_band,
    normal_order_expansion,
    power_law_band,
)
from .dynamics import _band_curves, _closed, _moment_residuals, _series, collapse_transform
from .errors import ConvergenceError
from .fock import (
    _band_array,
    _check_dim,
    _diag_commutator,
    _ladder_powers,
    _lambda_band,
    _levels,
    _ordered_products,
    _ordered_sum,
    _oracle_series,
    _oracle_state,
    _ROW_TILE,
    _row_tiles,
    build_lambda,
)
from .isomap import isomorphism_residuals
from .params import Anharmonic, LambdaIndex, ModelParams, QOsc, energy
from .qcore import _check_radius, q_number

DEFAULT_DIM = 64
Q_GRID = (0.5, 1.0, 1.2, 2.0)
ANHARMONIC_DEFAULT = Anharmonic(omega1=10.0, omega2=1.0)

# the fixed grids of the suites; each report records the ones it used
CLOSURE_NM_MAX = 4  # n, m of [H, L^{n,m}]
ITERATED_J_MAX = 6  # commutator depth of multicommutator and power-law
ITERATED_NM_MAX = 3  # n, m of multicommutator and power-law
NORMAL_ORDER_M_MAX = 5
NORMAL_ORDER_N_MAX = 3
RELATION_M_MAX = 5
ISOMORPHISM_J_MAX = 6
ORACLE_NM_MAX = 3  # n, m of dynamics-oracle


@dataclass
class CheckResult:
    check_id: str
    params: dict
    max_residual: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.max_residual = float(self.max_residual)
        self.passed = bool(
            math.isfinite(self.max_residual) and self.max_residual < self.tolerance
        )

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _rel_ratio(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|t - r| / max(|r|, 1) element-wise for float or complex r and t,
    in two arrays the size of r."""
    ratio = np.abs(t - r)
    den = np.abs(r)
    np.maximum(den, 1.0, out=den)
    ratio /= den
    return ratio


def _tile_max(a: np.ndarray, tile_max, cells: int = _ROW_TILE) -> np.float64:
    """The largest value tile_max(idx) over the row tiles idx of a, of at
    most `cells` cells (fock._row_tiles; there is at least one). np.maximum
    keeps a NaN of any tile, and a maximum is exact, so it does not depend
    on the tiling."""
    maxima = (tile_max(idx) for idx in _row_tiles(a.shape, cells))
    worst = next(maxima)
    for m in maxima:
        worst = np.maximum(worst, m)
    return worst


def interior_rel_error(ref: np.ndarray, test: np.ndarray, max_col: int) -> float:
    """Element-wise difference on columns 0..max_col, relative with a floor
    of 1 on the denominator: the largest |t - r| / max(|r|, 1), taken row
    tile by row tile.

    Band entries span hundreds of orders of magnitude: for q > 1 they grow
    like q^(n j) (relative error is the meaningful measure), while for
    q < 1 they decay to zero through subtractive cancellation (absolute
    error at machine scale is the best any evaluation can do).
    """
    r = ref[:, : max_col + 1]
    t = test[:, : max_col + 1]
    # a tile's ratio holds two arrays, so tiles of half the budget hold
    # both within one
    cells = _ROW_TILE // 2
    return float(_tile_max(r, lambda idx: _rel_ratio(r[idx], t[idx]).max(initial=0.0), cells))


def band_rel_error(ref: np.ndarray, test: np.ndarray, max_col: int, k: int) -> float:
    """interior_rel_error(ref, test, max_col) with one side, ref or test,
    given as the band it holds on diagonal k (k < 0 below the main
    diagonal) and the other as a dense matrix. Leading axes stack: a
    (S, L) band against an (S, D, D) array gives the largest of the S
    slices' values.

    Bit for bit the value of interior_rel_error on the band's dense form:
    on the band the same element-wise ratios; off it the band side is 0, so
    every off-band entry d of the dense side in the checked columns counts
    as |d| (band as reference) or |d| / max(|d|, 1) (dense as reference).
    The maximum of the ratios does not depend on their order, and a NaN,
    or an off-band inf with the dense side as reference, gives NaN there
    as here.
    """
    band_is_ref = ref.ndim < test.ndim
    band, dense = (ref, test) if band_is_ref else (test, ref)
    cols = dense[..., : max_col + 1]
    on = np.diagonal(cols, k, axis1=-2, axis2=-1)
    b = band[..., : on.shape[-1]]
    r, t = (b, on) if band_is_ref else (on, b)
    worst = _rel_ratio(r, t).max(initial=0.0)
    n_rows, n_cols = cols.shape[-2:]

    def off_band(idx):
        """max |d| over the tile's entries off diagonal k."""
        rows = range(n_rows)[idx[-1]]
        off = np.abs(cols[idx], order="C")
        # in C order its entries (i, i + k) lie n_cols + 1 cells apart, the
        # tile's rows laid end to end
        lo, hi = max(rows.start, -k), min(rows.stop, n_cols - k)
        if lo < hi:
            start = (lo - rows.start) * (n_cols + 1) + rows.start + k
            flat = off.reshape(*off.shape[:-2], -1)
            flat[..., start : start + (hi - lo) * (n_cols + 1) : n_cols + 1] = 0.0
        return off.max(initial=0.0)

    top = _tile_max(cols, off_band)
    if not band_is_ref:
        # |d| / max(|d|, 1) is min(|d|, 1) exactly, so nondecreasing in |d|
        top = top / np.maximum(top, 1.0)
    return float(np.maximum(worst, top))


def _check(check_id: str, params: dict, tolerance: float, residuals) -> CheckResult:
    """The check check_id: the worst of its stream of residuals, consumed
    in order, against tolerance. The worst is np.maximum's reduction, which
    keeps a NaN at any position (Python's max(0.0, nan) is 0.0), and a
    non-finite worst fails. A stream that yields nothing has checked
    nothing: its worst is NaN, so it fails too."""
    values = list(residuals)
    worst = np.maximum.reduce(values) if values else math.nan
    return CheckResult(check_id, params, worst, tolerance)


def _model_tag(params: ModelParams) -> dict:
    if isinstance(params, QOsc):
        return {"model": "qosc", "q": params.q, "omega": params.omega}
    return {"model": "anharmonic", "omega1": params.omega1, "omega2": params.omega2}


def _closure_models():
    return [QOsc(q=q, omega=1.0) for q in Q_GRID] + [ANHARMONIC_DEFAULT]


def _closure_residuals(params: ModelParams, lv: np.ndarray, D: int):
    """[H, L^{n,m}] and [H, L^{n,m}†] against their one-band right-hand
    sides, for n, m up to CLOSURE_NM_MAX, each n's m as one stack, from the
    model's level vector lv."""
    h = energy(params, np.arange(D))
    for n in range(CLOSURE_NM_MAX + 1):
        cc = closure_coeffs(params, n)
        bands = np.array([_lambda_band(lv, (n, m), D) for m in range(CLOSURE_NM_MAX + 2)])
        rhs = cc.c_same * bands[:-1] + cc.c_up * bands[1:]
        lam = _band_array(bands[:-1], -n)
        yield band_rel_error(rhs, _diag_commutator(h, lam), D - 1 - n, -n)
        lhs_d = _diag_commutator(h, lam.transpose(0, 2, 1))
        yield band_rel_error(-rhs, lhs_d.transpose(0, 2, 1), D - 1 - n, -n)


def suite_closure(D: int = DEFAULT_DIM) -> list[CheckResult]:
    """[H, L^{n,m}] = c_same L^{n,m} + c_up L^{n,m+1}, plus the daggered
    version with sign-flipped coefficients. The right-hand side is one band
    on sub-diagonal n, the daggered one its negative on the transpose."""
    grid = {"dim": D, "nm_max": CLOSURE_NM_MAX}
    models = _closure_models()
    levels = [_levels(p, D) for p in models]
    return [
        _check("closure", {**_model_tag(p), **grid}, 1e-10, _closure_residuals(p, lv, D))
        for p, lv in zip(models, levels)
    ]


def _iterated_residuals(params: ModelParams, closed_band, lv: np.ndarray, D: int):
    """The band closed_band(params, lam, lv, n, j), lam the stack of the
    L^{n,m} bands over m and lv the model's level vector, against the
    dense iterated commutators [H, ...[H, L^{n,m}]...] on the exact columns
    0..D-1-n. At each depth the bands are built before the commutator, so
    their DomainError precedes any overflow in the oracle."""
    h = energy(params, np.arange(D))
    for n in range(ITERATED_NM_MAX + 1):
        lam = np.array([_lambda_band(lv, (n, m), D) for m in range(ITERATED_NM_MAX + 1)])
        iterated = _band_array(lam, -n)
        for j in range(ITERATED_J_MAX + 1):
            closed = closed_band(params, lam, lv, n, j)
            if j > 0:
                iterated = _diag_commutator(h, iterated)
            yield band_rel_error(iterated, closed, D - 1 - n, -n)


_ITERATED_GRID = {"j_max": ITERATED_J_MAX, "nm_max": ITERATED_NM_MAX}


def suite_multicommutator(D: int = DEFAULT_DIM) -> list[CheckResult]:
    """Binomial expansion vs the literal iterated commutator (q > 1 and
    anharmonic)."""
    models = [QOsc(q=1.2), QOsc(q=2.0), ANHARMONIC_DEFAULT]
    levels = [_levels(p, D) for p in models]
    return [
        _check(
            "multicommutator",
            {**_model_tag(p), "dim": D, **_ITERATED_GRID},
            1e-9,
            _iterated_residuals(p, expansion_band, lv, D),
        )
        for p, lv in zip(models, levels)
    ]


def suite_power_law(D: int = DEFAULT_DIM) -> list[CheckResult]:
    """General-q closed form L^{n,m} (E(n)[a,a†])^j vs the iterated
    commutator, including q < 1. At n = 0 the band reads the level [D]."""
    qs = (0.5, 1.2, 2.0)
    levels = [_levels(QOsc(q=q), D, 1) for q in qs]
    return [
        _check(
            "power_law",
            {"model": "qosc", "q": q, "dim": D, **_ITERATED_GRID},
            1e-9,
            _iterated_residuals(QOsc(q=q), power_law_band, lv, D),
        )
        for q, lv in zip(qs, levels)
    ]


def _scaling_residuals(q: float, j_col: int):
    """The element-wise phase residual of the scaling law for each (n, m),
    then the deviation of the collapsed curves from tau q^j_col.

    m enters neither: the entry (j_col + n, j_col) turns at the rate
    [j_col + n] - [j_col] for every m, since (a†a)^m commutes with H. So
    each n's residual is scaling_phase_check's at m = 0, formed once and
    yielded once for each m of the grid, and its curve, band_phase_trace's
    at m = 0, stands for every m's in the collapse: a repeated row leaves
    the largest deviation as it is."""
    taus_check = np.linspace(0.0, 10.0, 21)
    taus_collapse = np.linspace(0.0, 10.0, 2001)
    # the band entry vanishes at j_col = 0 for m >= 1; its phase is undefined
    ms = (0, 1, 2) if j_col else (0,)
    ns = (1, 2, 3)
    # the three n's phases on each grid, and their predicted phases, each
    # one stacked point sum
    pairs = [(n, 0) for n in ns]
    ratio = np.array([r.values for r in _band_curves(q, j_col, pairs, taus_check)])
    nqs = q_number(np.array(ns), q)
    for residual in _scaling_residual(ratio, nqs, q, j_col, taus_check).tolist():
        for _ in ms:
            yield residual
    normalized = collapse_transform(_band_curves(q, j_col, pairs, taus_collapse))
    target = taus_collapse * q**j_col
    yield np.abs(np.vstack(normalized) - target).max()


def suite_scaling() -> list[CheckResult]:
    """Element-wise phase residual of the scaling law and the cross-(n, m)
    collapse deviation."""
    return [
        _check(
            "scaling",
            {"model": "qosc", "q": q, "j_col": j_col},
            1e-9,
            _scaling_residuals(q, j_col),
        )
        for q in (1.2, 2.0)
        for j_col in (0, 1, 3)
    ]


def _normal_order_residuals(q: float, lv: np.ndarray, D: int):
    """Each L^{n,M} band, from the level vector lv, against its normally
    ordered dense expansion, the ladder products (a†)^{n+s} a^s formed once
    per n for every M."""
    n_max, M_max = NORMAL_ORDER_N_MAX, NORMAL_ORDER_M_MAX
    params = QOsc(q=q)
    up, down = _ladder_powers(params, D, n_max + M_max, M_max)
    for n in range(n_max + 1):
        products = _ordered_products(n, up, down)
        for M in range(M_max + 1):
            lam = _lambda_band(lv, LambdaIndex(n, M), D)
            ordered = _ordered_sum(normal_order_expansion(n, M, q), products)
            yield band_rel_error(lam, ordered, D - 1 - n - M, -n)


def suite_normal_order(D: int = DEFAULT_DIM) -> list[CheckResult]:
    """L^{n,M} equals its normally ordered expansion as matrices."""
    grid = {"dim": D, "M_max": NORMAL_ORDER_M_MAX, "n_max": NORMAL_ORDER_N_MAX}
    levels = [_levels(QOsc(q=q), D) for q in Q_GRID]
    return [
        _check(
            "normal_order",
            {"model": "qosc", "q": q, **grid},
            1e-9,
            _normal_order_residuals(q, lv, D),
        )
        for q, lv in zip(Q_GRID, levels)
    ]


def _relation_residuals(q: float):
    """The moment/Stirling identity at each x inside the radius of
    convergence, relation_identity_residual's for each m, with exp_q(x)
    formed once per x: it does not depend on m."""
    for x in (0.1, 0.5, 1.0, 2.0):
        try:
            _check_radius(x, q)
        except ConvergenceError:
            continue
        yield from _moment_residuals(x, q, range(RELATION_M_MAX + 1))


def suite_relation() -> list[CheckResult]:
    """Moment/Stirling summation identity."""
    return [
        _check("relation", {"q": q, "m_max": RELATION_M_MAX}, 1e-10, _relation_residuals(q))
        for q in Q_GRID
    ]


def suite_isomorphism() -> list[CheckResult]:
    """Residuals of the anharmonic <-> q-model coefficient isomorphism."""
    return [
        _check(
            "isomorphism",
            {"omega1": ratio, "omega2": 1.0, "j_max": ISOMORPHISM_J_MAX},
            1e-12,
            (
                isomorphism_residuals(ratio, 1.0, n, ISOMORPHISM_J_MAX).max_residual()
                for n in (1, 2, 3, 4)
            ),
        )
        for ratio in (1.0, 5.0, 10.0, 100.0)
    ]


def oracle_expectation_series(
    params: ModelParams,
    alpha: complex,
    idx: LambdaIndex,
    times: np.ndarray,
    D: int = DEFAULT_DIM,
) -> np.ndarray:
    """Brute-force trace in the Schrodinger picture, fock._oracle_series of
    fock._oracle_state. `times` is tau for the q model and raw t for the
    anharmonic one."""
    psi, psi_conj = _oracle_state(params, alpha, times, D)
    return _oracle_series(build_lambda(params, idx, D).matrix, psi, psi_conj)


# the (n, m) of every dynamics-oracle check
_ORACLE_INDICES = [
    LambdaIndex(n, m) for n in range(ORACLE_NM_MAX + 1) for m in range(ORACLE_NM_MAX + 1)
]


def _oracle_residuals(params: ModelParams, traces, alpha: complex, times, D: int):
    """Each analytic trace, the values over times in _ORACLE_INDICES order,
    against the matrix oracle, relative to the oracle's largest |value|."""
    state = _oracle_state(params, alpha, times, D)
    lv = _levels(params, D)
    for idx, values in zip(_ORACLE_INDICES, traces):
        oracle = _oracle_series(_band_array(_lambda_band(lv, idx, D), -idx.n), *state)
        scale = max(1e-300, float(np.abs(oracle).max()))
        yield np.abs(values - oracle).max() / scale


def _max_abs_diffs(traces, others):
    """The largest |difference| of each pair of traces."""
    for a, b in zip(traces, others):
        yield np.abs(a - b).max()


def suite_dynamics_oracle(D: int = DEFAULT_DIM) -> list[CheckResult]:
    """Analytic phase-sum dynamics vs the matrix oracle, the closed-form
    vs series anharmonic cross-check, and the q = 1 bridge."""
    alpha, times = 0.8, np.linspace(0.0, 10.0, 101)
    grid = {"alpha": alpha, "nm_max": ORACLE_NM_MAX}
    oracle_grid = {"alpha": alpha, "dim": D, "nm_max": ORACLE_NM_MAX}
    pq, ap = QOsc(q=1.2), ANHARMONIC_DEFAULT

    def traces(stacked, params, t=times):
        """The values of each index's trace, by the index-list form stacked
        under evolve_*."""
        return [ts.values for ts in stacked(params, alpha, _ORACLE_INDICES, t)]

    # the anharmonic series feed two checks, so they are computed once
    series = traces(_series, ap)
    # harmonic bridge: q -> 1 with omega_q = omega1 vs omega2 = 0, compared
    # at the same physical instants over the q model's native tau in [0, 10]
    bridge_q = QOsc(q=1.0 + 1e-9, omega=10.0)
    bridge_a = Anharmonic(omega1=10.0, omega2=0.0)
    harmonic = traces(_series, bridge_a, times / bridge_q.omega)
    return [
        _check(
            "dynamics_oracle_q",
            {**_model_tag(pq), **oracle_grid},
            1e-8,
            _oracle_residuals(pq, traces(_series, pq), alpha, times, D),
        ),
        _check(
            "dynamics_oracle_anharmonic",
            {**_model_tag(ap), **oracle_grid},
            1e-8,
            _oracle_residuals(ap, series, alpha, times, D),
        ),
        _check(
            "closed_vs_series",
            {**_model_tag(ap), **grid},
            1e-10,
            _max_abs_diffs(series, traces(_closed, ap)),
        ),
        _check(
            "q1_bridge",
            {"omega1": 10.0, **grid},
            1e-6,
            _max_abs_diffs(harmonic, traces(_series, bridge_q)),
        ),
    ]


SUITES = {
    "closure": suite_closure,
    "multicommutator": suite_multicommutator,
    "power-law": suite_power_law,
    "scaling": suite_scaling,
    "normal-order": suite_normal_order,
    "relation": suite_relation,
    "isomorphism": suite_isomorphism,
    "dynamics-oracle": suite_dynamics_oracle,
}


def run_suite(name: str, D: int = DEFAULT_DIM) -> list[CheckResult]:
    """Run one suite by name, or all of them in order; D reaches the suites
    whose signature takes it, the others do not truncate. A D outside the
    range of fock._check_dim is refused before any suite runs."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    _check_dim(D)
    out = []
    for key in SUITES if name == "all" else [name]:
        suite = SUITES[key]
        # signature() follows functools.wraps, so a wrapped suite reads the same
        out.extend(suite(D=D) if "D" in inspect.signature(suite).parameters else suite())
    return out
