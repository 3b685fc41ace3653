"""Verification suites: every algebraic identity checked against the
truncated Fock-space matrix oracle, packaged as machine-readable records.

Band entries grow like q^(n j) with the column index, so identity residuals
are measured element-wise relative to the reference entry (entries that are
exactly zero in the reference are measured against the column scale).

Worst residuals are accumulated with np.maximum, which keeps a NaN
(Python's max(0.0, nan) is 0.0), and a check with a non-finite worst
residual fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    closure_coeffs,
    expansion_matrix,
    normal_order_matrix,
    power_law_multicommutator,
    scaling_phase_check,
)
from .dynamics import (
    band_phase_trace,
    collapse_transform,
    evolve_anharmonic_closed,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
    relation_identity_residual,
)
from .errors import ConvergenceError, DomainError
from .fock import (
    _is_exactly_diagonal,
    build_hamiltonian,
    build_lambda,
    coherent_state,
    commutator,
)
from .isomap import isomorphism_residuals
from .params import Anharmonic, LambdaIndex, ModelParams, QOsc
from .qcore import _check_radius

DEFAULT_DIM = 64
Q_GRID = (0.5, 1.0, 1.2, 2.0)
ANHARMONIC_DEFAULT = Anharmonic(omega1=10.0, omega2=1.0)


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


def interior_rel_error(ref: np.ndarray, test: np.ndarray, max_col: int) -> float:
    """Element-wise difference on columns 0..max_col, relative with a floor
    of 1 on the denominator.

    Band entries span hundreds of orders of magnitude: for q > 1 they grow
    like q^(n j) (relative error is the meaningful measure), while for
    q < 1 they decay to zero through subtractive cancellation (absolute
    error at machine scale is the best any evaluation can do).
    """
    r = ref[:, : max_col + 1]
    t = test[:, : max_col + 1]
    diff = np.abs(t - r)
    denom = np.maximum(np.abs(r), 1.0)
    return float((diff / denom).max(initial=0.0))


def _model_tag(params: ModelParams) -> dict:
    if isinstance(params, QOsc):
        return {"model": "qosc", "q": params.q, "omega": params.omega}
    return {"model": "anharmonic", "omega1": params.omega1, "omega2": params.omega2}


def _closure_models(q_grid=Q_GRID):
    return [QOsc(q=q, omega=1.0) for q in q_grid] + [ANHARMONIC_DEFAULT]


def suite_closure(D: int = DEFAULT_DIM, nm_max: int = 4) -> list[CheckResult]:
    """[H, L^{n,m}] = c_same L^{n,m} + c_up L^{n,m+1}, plus the daggered
    version with sign-flipped coefficients."""
    results = []
    for params in _closure_models():
        H = build_hamiltonian(params, D)
        worst = 0.0
        for n in range(nm_max + 1):
            cc = closure_coeffs(params, n)
            for m in range(nm_max + 1):
                lam = build_lambda(params, LambdaIndex(n, m), D)
                lam_up = build_lambda(params, LambdaIndex(n, m + 1), D)
                lhs = commutator(H, lam).matrix
                rhs = cc.c_same * lam.matrix + cc.c_up * lam_up.matrix
                worst = np.maximum(worst, interior_rel_error(rhs, lhs, D - 1 - n))
                lhs_d = commutator(H, lam.dagger()).matrix
                rhs_d = -cc.c_same * lam.matrix.conj().T - cc.c_up * lam_up.matrix.conj().T
                worst = np.maximum(
                    worst, interior_rel_error(rhs_d.T, lhs_d.T, D - 1 - n)
                )
        results.append(
            CheckResult(
                check_id="closure",
                params={**_model_tag(params), "dim": D, "nm_max": nm_max},
                max_residual=worst,
                tolerance=1e-10,
            )
        )
    return results


def _iterated_vs_closed(
    params: ModelParams, closed_form, D: int, j_max: int, nm_max: int
) -> float:
    """Worst residual of closed_form(params, n, m, j, D) against the dense iterated
    commutator [H, ...[H, L^{n,m}]...] on the exact columns 0..D-1-n. The closed
    form is built first, so its DomainError precedes any overflow in the oracle."""
    H = build_hamiltonian(params, D)
    worst = 0.0
    for n in range(nm_max + 1):
        for m in range(nm_max + 1):
            iterated = build_lambda(params, LambdaIndex(n, m), D)
            for j in range(j_max + 1):
                closed = closed_form(params, n, m, j, D)
                if j > 0:
                    iterated = commutator(H, iterated)
                worst = np.maximum(
                    worst, interior_rel_error(iterated.matrix, closed.matrix, D - 1 - n)
                )
    return worst


def suite_multicommutator(
    D: int = DEFAULT_DIM, j_max: int = 6, nm_max: int = 3
) -> list[CheckResult]:
    """Binomial expansion vs the literal iterated commutator (q > 1 and
    anharmonic)."""
    return [
        CheckResult(
            check_id="multicommutator",
            params={**_model_tag(params), "dim": D, "j_max": j_max, "nm_max": nm_max},
            max_residual=_iterated_vs_closed(params, expansion_matrix, D, j_max, nm_max),
            tolerance=1e-9,
        )
        for params in [QOsc(q=1.2), QOsc(q=2.0), ANHARMONIC_DEFAULT]
    ]


def suite_power_law(
    D: int = DEFAULT_DIM, j_max: int = 6, nm_max: int = 3
) -> list[CheckResult]:
    """General-q closed form L^{n,m} (E(n)[a,a†])^j vs the iterated
    commutator, including q < 1."""
    return [
        CheckResult(
            check_id="power_law",
            params={"model": "qosc", "q": q, "dim": D, "j_max": j_max, "nm_max": nm_max},
            max_residual=_iterated_vs_closed(
                QOsc(q=q), power_law_multicommutator, D, j_max, nm_max
            ),
            tolerance=1e-9,
        )
        for q in (0.5, 1.2, 2.0)
    ]


def suite_scaling() -> list[CheckResult]:
    """Element-wise phase residual of the scaling law and the cross-(n, m)
    collapse deviation."""
    results = []
    taus_check = np.linspace(0.0, 10.0, 21)
    taus_collapse = np.linspace(0.0, 10.0, 2001)
    for q in (1.2, 2.0):
        params = QOsc(q=q)
        for j_col in (0, 1, 3):
            worst_phase = 0.0
            curves = []
            for n in (1, 2, 3):
                for m in (0, 1, 2):
                    if m >= 1 and j_col == 0:
                        continue  # band entry vanishes; phase undefined
                    worst_phase = np.maximum(
                        worst_phase, scaling_phase_check(params, n, m, taus_check, j_col)
                    )
                    curves.append(
                        band_phase_trace(params, LambdaIndex(n, m), j_col, taus_collapse)
                    )
            normalized = collapse_transform(curves)
            target = taus_collapse * q**j_col
            worst_dev = np.abs(np.vstack(normalized) - target).max()
            worst = np.maximum(worst_phase, worst_dev)
            results.append(
                CheckResult(
                    check_id="scaling",
                    params={"model": "qosc", "q": q, "j_col": j_col},
                    max_residual=worst,
                    tolerance=1e-9,
                )
            )
    return results


def suite_normal_order(D: int = 32, M_max: int = 5, n_max: int = 3) -> list[CheckResult]:
    """L^{n,M} equals its normally ordered expansion as matrices."""
    results = []
    for q in Q_GRID:
        params = QOsc(q=q)
        worst = 0.0
        for n in range(n_max + 1):
            for M in range(M_max + 1):
                lam = build_lambda(params, LambdaIndex(n, M), D)
                ordered = normal_order_matrix(params, LambdaIndex(n, M), D)
                worst = np.maximum(
                    worst, interior_rel_error(lam.matrix, ordered.matrix, D - 1 - n - M)
                )
        results.append(
            CheckResult(
                check_id="normal_order",
                params={"model": "qosc", "q": q, "dim": D, "M_max": M_max, "n_max": n_max},
                max_residual=worst,
                tolerance=1e-9,
            )
        )
    return results


def suite_relation(m_max: int = 5) -> list[CheckResult]:
    """Moment/Stirling summation identity."""
    results = []
    for q in Q_GRID:
        worst = 0.0
        for x in (0.1, 0.5, 1.0, 2.0):
            try:
                _check_radius(x, q)
            except ConvergenceError:
                continue
            for m in range(m_max + 1):
                worst = np.maximum(worst, relation_identity_residual(x, q, m))
        results.append(
            CheckResult(
                check_id="relation",
                params={"q": q, "m_max": m_max},
                max_residual=worst,
                tolerance=1e-10,
            )
        )
    return results


def suite_isomorphism(j_max: int = 6) -> list[CheckResult]:
    """Residuals of the anharmonic <-> q-model coefficient isomorphism."""
    results = []
    for ratio in (1.0, 5.0, 10.0, 100.0):
        worst = 0.0
        for n in (1, 2, 3, 4):
            rep = isomorphism_residuals(ratio, 1.0, n, j_max=j_max)
            worst = np.maximum(worst, rep.max_residual())
        results.append(
            CheckResult(
                check_id="isomorphism",
                params={"omega1": ratio, "omega2": 1.0, "j_max": j_max},
                max_residual=worst,
                tolerance=1e-12,
            )
        )
    return results


def oracle_expectation_series(
    params: ModelParams,
    alpha: complex,
    idx: LambdaIndex,
    times: np.ndarray,
    D: int = DEFAULT_DIM,
) -> np.ndarray:
    """Brute-force trace in the Schrodinger picture: the truncated coherent
    state evolved over the whole grid as one D x T array
    Psi = e^{-iEt} psi under the diagonal of the dense H, then
    <Psi(t)| L |Psi(t)> from one dense product L @ Psi.  `times` is tau for
    the q model and raw t for the anharmonic one."""
    state = coherent_state(params, alpha, D)
    H = build_hamiltonian(params, D)
    if not _is_exactly_diagonal(H.matrix):
        raise DomainError("the dynamics oracle requires a diagonal Hamiltonian")
    lam = build_lambda(params, idx, D)
    scale = params.omega if isinstance(params, QOsc) else 1.0
    t = np.asarray(times, dtype=float) / scale
    # Psi is built in place, so the series peaks at two D x T complex arrays
    psi = np.empty((D, t.size), dtype=complex)
    np.multiply.outer(-np.diag(H.matrix).real, t, out=psi)
    psi *= 1j
    np.exp(psi, out=psi)
    psi *= state.amplitudes[:, None]
    lam_psi = lam.matrix @ psi
    return np.einsum("dt,dt->t", np.conj(psi, out=psi), lam_psi)


def suite_dynamics_oracle(D: int = DEFAULT_DIM, nm_max: int = 3) -> list[CheckResult]:
    """Analytic phase-sum dynamics vs the matrix oracle, the closed-form
    vs series anharmonic cross-check, and the q = 1 bridge."""
    results = []
    alpha = 0.8
    times = np.linspace(0.0, 10.0, 101)

    ap = ANHARMONIC_DEFAULT
    worst_closed = 0.0
    for check_id, params, evolve in (
        ("dynamics_oracle_q", QOsc(q=1.2), evolve_q_expectation),
        ("dynamics_oracle_anharmonic", ap, evolve_anharmonic_expectation),
    ):
        worst = 0.0
        for n in range(nm_max + 1):
            for m in range(nm_max + 1):
                idx = LambdaIndex(n, m)
                series = evolve(params, alpha, idx, times)
                oracle = oracle_expectation_series(params, alpha, idx, times, D)
                scale = max(1e-300, float(np.abs(oracle).max()))
                worst = np.maximum(worst, np.abs(series.values - oracle).max() / scale)
                if params is ap:
                    closed = evolve_anharmonic_closed(ap, alpha, idx, times)
                    worst_closed = np.maximum(
                        worst_closed, np.abs(series.values - closed.values).max()
                    )
        results.append(
            CheckResult(
                check_id=check_id,
                params={**_model_tag(params), "alpha": alpha, "dim": D, "nm_max": nm_max},
                max_residual=worst,
                tolerance=1e-8,
            )
        )
    results.append(
        CheckResult(
            check_id="closed_vs_series",
            params={**_model_tag(ap), "alpha": alpha, "nm_max": nm_max},
            max_residual=worst_closed,
            tolerance=1e-10,
        )
    )

    # harmonic bridge: q -> 1 with omega_q = omega1 vs omega2 = 0, compared
    # at the same physical instants over the q model's native tau in [0, 10]
    bridge_q = QOsc(q=1.0 + 1e-9, omega=10.0)
    bridge_a = Anharmonic(omega1=10.0, omega2=0.0)
    worst = 0.0
    for n in range(nm_max + 1):
        for m in range(nm_max + 1):
            sa = evolve_anharmonic_expectation(
                bridge_a, alpha, LambdaIndex(n, m), times / bridge_q.omega
            )
            sq = evolve_q_expectation(bridge_q, alpha, LambdaIndex(n, m), times)
            worst = np.maximum(worst, np.abs(sa.values - sq.values).max())
    results.append(
        CheckResult(
            check_id="q1_bridge",
            params={"omega1": 10.0, "alpha": alpha, "nm_max": nm_max},
            max_residual=worst,
            tolerance=1e-6,
        )
    )
    return results


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


# suites whose truncation dimension D run_suite passes on
_DIM_SUITES = (
    "closure",
    "multicommutator",
    "power-law",
    "normal-order",
    "dynamics-oracle",
)


def run_suite(name: str, D: int | None = None) -> list[CheckResult]:
    """Run one suite by name, or all of them in order; D reaches only the
    suites that truncate, the others ignore it."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    out = []
    for key in SUITES if name == "all" else [name]:
        if D is not None and key in _DIM_SUITES:
            out.extend(SUITES[key](D=D))
        else:
            out.extend(SUITES[key]())
    return out
