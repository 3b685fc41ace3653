"""The earlier per-element implementations, kept as independent references.

The Fock builders used to fill their band one matrix element at a time from
a scalar q-number, and the weight recursion existed twice: a plain term-ratio
version for the coherent-state dimension and a moment-aware version for the
expectation series. The coherent-state phase sums were one dense T x K
product exp(i t r_k) @ c, and q_stirling2 recomputed both q-factorials for
every term. The closed forms of the algebra were dense matrix expressions:
a sum of j + 1 dense Lambdas, a matrix power of the dense [a, a†], and a
dense Heisenberg evolution per scaling point; the coherent state was a
cumulative product of its weights from k = 0, checked against the dense
ladder. The dynamics oracle evolved the operator in the Heisenberg picture
once per time point. The vectorised builders, the single recursion, the
streaming phase-sum evaluators, the tabulated q_stirling2, the band forms,
the mode-centred coherent state and the batched Schrodinger-picture oracle
that replaced them must reproduce these forms.
"""

import math

import numpy as np
import pytest

from qdosc import (
    Anharmonic,
    ConvergenceError,
    DimensionError,
    DomainError,
    LambdaIndex,
    QOsc,
    build_hamiltonian,
    build_ladder,
    build_lambda,
    coherent_dim,
    coherent_state,
    commutator,
    energy,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
    expansion_matrix,
    expectation,
    heisenberg_evolve,
    log_q_factorial,
    multicommutator_expansion,
    power_law_multicommutator,
    q_factorial,
    q_number,
    q_stirling2,
    scaling_phase_check,
)
from qdosc.dynamics import _PHASE_BLOCK, band_phase_trace
from qdosc.qcore import _ratio_weights
from qdosc.verify import interior_rel_error, oracle_expectation_series

MODELS = [QOsc(q=0.5), QOsc(q=1.0), QOsc(q=1.2), QOsc(q=2.0), Anharmonic(10.0, 1.0)]


def ref_q_number(n, q):
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    if abs(q - 1.0) < 1e-8:
        return n * (1.0 + 0.5 * (n - 1) * (q - 1.0))
    if q > 0:
        return math.expm1(n * math.log(q)) / math.expm1(math.log(q))
    return (q**n - 1.0) / (q - 1.0)


def ref_level(params, k):
    if isinstance(params, QOsc):
        return ref_q_number(k, params.q)
    return float(k)


def ref_energy(params, k):
    if isinstance(params, QOsc):
        return params.omega * ref_q_number(k, params.q)
    return params.omega1 * k + params.omega2 * k * k


def ref_ladder(params, D):
    a = np.zeros((D, D), dtype=complex)
    for n in range(1, D):
        a[n - 1, n] = math.sqrt(ref_level(params, n))
    return a


def ref_hamiltonian(params, D):
    return np.diag(np.array([ref_energy(params, n) for n in range(D)], dtype=complex))


def ref_lambda(params, n, m, D):
    mat = np.zeros((D, D), dtype=complex)
    for j in range(D - n):
        band = 1.0
        for i in range(1, n + 1):
            band *= math.sqrt(ref_level(params, j + i))
        lv = ref_level(params, j)
        mat[j + n, j] = band * (lv**m if not (lv == 0.0 and m == 0) else 1.0)
    return mat


def ref_weighted_series(level, alpha_sq, m, tol):
    w = [1.0]
    lev = [level(0)]
    total = 1.0
    tail = 0.0
    while alpha_sq > 0.0:
        k = len(w)
        lv = level(k)
        nxt = w[-1] * alpha_sq / lv
        w.append(nxt)
        lev.append(lv)
        total += nxt
        lv_next = level(k + 1)
        growth = (lv_next / lv) ** m if m > 0 else 1.0
        rho = (alpha_sq / lv_next) * growth
        if rho < 1.0:
            u = nxt * (max(lv, 1.0) ** m if m > 0 else 1.0)
            tail = u * rho / (1.0 - rho)
            if tail < tol * total:
                break
    w_arr = np.array(w) / total
    w_arr[int(np.argmax(w_arr))] += 1.0 - math.fsum(w_arr)
    return w_arr, np.array(lev), tail / total, total


def ref_ratio_weights(ratio_at, tol):
    w = [1.0]
    total = 1.0
    tail = 0.0
    while True:
        k = len(w)
        nxt = w[-1] * ratio_at(k)
        if nxt == 0.0:
            break
        w.append(nxt)
        total += nxt
        r_next = ratio_at(k + 1)
        if r_next < 1.0:
            tail = nxt * r_next / (1.0 - r_next)
            if tail < tol * total:
                break
    return np.array(w) / (total + tail), tail / (total + tail)


def _model_id(params):
    return f"q={params.q}" if isinstance(params, QOsc) else "anharmonic"


@pytest.mark.parametrize("D", [2, 64, 512])
@pytest.mark.parametrize("params", MODELS, ids=_model_id)
class TestBuildersMatchLoops:
    def test_ladder_and_hamiltonian(self, params, D):
        a, adag = build_ladder(params, D)
        ref = ref_ladder(params, D)
        np.testing.assert_allclose(a.matrix, ref, rtol=1e-14, atol=0)
        np.testing.assert_allclose(adag.matrix, ref.conj().T, rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            build_hamiltonian(params, D).matrix,
            ref_hamiltonian(params, D),
            rtol=1e-14,
            atol=0,
        )

    def test_lambda(self, params, D):
        for n in range(5):
            for m in range(5):
                if n >= D:
                    with pytest.raises(DimensionError):
                        build_lambda(params, LambdaIndex(n, m), D)
                    continue
                try:
                    ref = ref_lambda(params, n, m, D)
                except OverflowError:
                    ref = None
                if ref is None or not np.isfinite(ref).all():
                    # the loop overflowed; the vector form must say so
                    with pytest.raises(DomainError):
                        build_lambda(params, LambdaIndex(n, m), D)
                    continue
                lam = build_lambda(params, LambdaIndex(n, m), D)
                np.testing.assert_allclose(lam.matrix, ref, rtol=1e-14, atol=0)


LEVELS = {
    "anharmonic": float,
    "q=1.1": lambda k: q_number(k, 1.1),
    "q=1.2": lambda k: q_number(k, 1.2),
}


@pytest.mark.parametrize("tol", [1e-12, 1e-16])
@pytest.mark.parametrize("alpha_sq", [0.64, 1.0, 9.0])
@pytest.mark.parametrize("level", list(LEVELS.values()), ids=list(LEVELS))
class TestRecursionMatchesLoops:
    @pytest.mark.parametrize("m", range(4))
    def test_moment_series(self, level, alpha_sq, m, tol):
        w, lev, tail, total = _ratio_weights(level, alpha_sq, m, tol)
        w_ref, lev_ref, tail_ref, total_ref = ref_weighted_series(
            level, alpha_sq, m, tol
        )
        assert len(w) == len(w_ref)
        assert np.all(np.abs(w - w_ref) <= 4 * np.spacing(w_ref))
        np.testing.assert_array_equal(lev, lev_ref)
        assert tail == tail_ref and total == total_ref

    def test_plain_ratio_weights_length(self, level, alpha_sq, tol):
        w, _, _, _ = _ratio_weights(level, alpha_sq, 0, tol)
        w_ref, _ = ref_ratio_weights(lambda k: alpha_sq / level(k), tol)
        assert len(w) == len(w_ref)
        # the old form also normalized by the tail bound, which is below tol,
        # and did not park the last-ulp normalization defect
        np.testing.assert_allclose(w, w_ref, rtol=2 * tol, atol=1e-15)


@pytest.mark.parametrize("params", MODELS, ids=_model_id)
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.8])
def test_coherent_dim_matches_loop(params, alpha):
    w_ref, _ = ref_ratio_weights(
        lambda k: abs(alpha) ** 2 / ref_level(params, k), 1e-14
    )
    want = 2 if alpha == 0 else len(w_ref) + 1
    assert coherent_dim(params, alpha) == want


def ref_expectation(params, alpha, n, m, t, tol=1e-12):
    """The phase sum as one dense T x K matrix exp(i rate t r_k) times c."""
    a2 = abs(alpha) ** 2
    if isinstance(params, QOsc):
        q = params.q
        w, lev, _, _ = _ratio_weights(lambda k: q_number(k, q), a2, m, tol)
        nq = q_number(n, q)
        rate, global_rate = nq * (q - 1.0), nq
    else:
        w, lev, _, _ = _ratio_weights(float, a2, m, tol)
        rate = 2.0 * n * params.omega2
        global_rate = n * params.omega1 + n * n * params.omega2
    phases = np.exp(1j * rate * np.outer(t, lev))
    return np.conj(alpha) ** n * np.exp(1j * global_rate * t) * (phases @ (lev**m * w))


def _nonuniform(span):
    rng = np.random.default_rng(7)
    return np.sort(np.unique(rng.uniform(0.0, span, 3001)))


# The dense form rounds each phase rate * (t k) once; Horner's powers of
# e^{i rate t} round differently, and the two drift apart as
# eps * rate * t * k. Over two revival periods (t <= 2 pi at omega2 = 1)
# that stays below 5e-14; the q form rounds its phases as the dense form does.
SPAN = 2.0 * math.pi
GRIDS = {
    "T=0": np.array([]),
    "T=1": np.array([0.7]),
    "T=2^16+7": np.linspace(0.0, SPAN, _PHASE_BLOCK + 7),
    "nonuniform": _nonuniform(SPAN),
}
SERIES_MODELS = [
    QOsc(q=0.5),
    QOsc(q=1.1),
    QOsc(q=1.0 + 1e-9),
    QOsc(q=2.0),
    Anharmonic(10.0, 0.0),
    Anharmonic(10.0, 1.0),
]


def _series_id(params):
    if isinstance(params, QOsc):
        return f"q={params.q!r}"
    return f"omega2={params.omega2}"


@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
@pytest.mark.parametrize("amp", [0.8, 3.0])
@pytest.mark.parametrize("params", SERIES_MODELS, ids=_series_id)
def test_phase_sums_match_dense_product(params, amp, grid):
    alpha = amp * complex(math.cos(0.7), math.sin(0.7))
    is_q = isinstance(params, QOsc)
    evolve = evolve_q_expectation if is_q else evolve_anharmonic_expectation
    outside_radius = is_q and params.q < 1 and amp**2 >= 1 / (1 - params.q)
    for n in range(4):
        for m in range(4):
            if outside_radius:
                with pytest.raises(ConvergenceError):
                    evolve(params, alpha, LambdaIndex(n, m), grid)
                continue
            got = evolve(params, alpha, LambdaIndex(n, m), grid).values
            assert got.shape == grid.shape
            if not grid.size or (n, m) == (0, 0):
                continue
            want = ref_expectation(params, alpha, n, m, grid)
            # the weights are positive, so |value(0)| bounds the whole trace
            scale = abs(ref_expectation(params, alpha, n, m, np.zeros(1))[0])
            err = np.abs(got - want).max() / scale
            assert err <= 1e-13, (n, m, err)


def ref_q_stirling2(s, m, q):
    lnq = math.log(q)
    terms = []
    try:
        for k in range(s + 1):
            r = s - k
            if k == 0 and m > 0:
                continue
            sign = -1.0 if r % 2 else 1.0
            tri = (r * r - r) // 2
            ln_pow = tri * lnq
            ln_level = m * math.log(q_number(k, q)) if k > 0 else 0.0
            ln_den = log_q_factorial(k, q) + log_q_factorial(r, q)
            ln_mag = ln_pow + ln_level - ln_den
            factors = (ln_pow, ln_level, ln_pow + ln_level, ln_den, ln_mag)
            if max(map(abs, factors)) < 690.0:
                num = q**tri * (q_number(k, q) ** m if k > 0 else 1.0)
                den = q_factorial(k, q) * q_factorial(r, q)
                terms.append(sign * num / den)
            else:
                terms.append(sign * math.exp(ln_mag))
        return math.fsum(terms)
    except OverflowError:
        raise DomainError("overflow") from None


@pytest.mark.parametrize("q", [0.3, 0.9, 1.0, 1.0 + 1e-9, 1.2, 2.0, 3.0])
def test_q_stirling2_matches_per_term_factorials(q):
    for s in range(0, 43, 3):
        for m in range(0, 43, 6):
            try:
                want = ref_q_stirling2(s, m, q)
            except DomainError:
                with pytest.raises(DomainError):
                    q_stirling2(s, m, q)
                continue
            assert q_stirling2(s, m, q) == want, (s, m)


def ref_expansion_matrix(params, n, m, j, D):
    """The binomial expansion as a sum of j + 1 dense Lambda^{n, m+k}."""
    return sum(
        coeff * build_lambda(params, LambdaIndex(n, m + k), D).matrix
        for k, coeff in multicommutator_expansion(params, n, m, j)
    )


def ref_power_law(params, n, m, j, D):
    """Lambda^{n,m} (E(n) [a, a†])^j with the dense ladder; the truncated
    [a, a†] is wrong in its last diagonal entry."""
    a, adag = build_ladder(params, D)
    core = energy(params, n) * commutator(a, adag).matrix
    lam = build_lambda(params, LambdaIndex(n, m), D).matrix
    return lam @ np.linalg.matrix_power(core, j)


def ref_scaling_ratio(params, n, m, tau, j_col, D):
    """Evolved over initial band entry (j_col + n, j_col) of the dense
    Heisenberg evolution."""
    lam = build_lambda(params, LambdaIndex(n, m), D)
    H = build_hamiltonian(params, D)
    evolved = heisenberg_evolve(lam, H, tau / params.omega)
    return evolved.matrix[j_col + n, j_col] / lam.matrix[j_col + n, j_col]


# the grids of verify.suite_multicommutator, suite_power_law and suite_scaling
D_DENSE = 64
NM = [(n, m) for n in range(4) for m in range(4)]


@pytest.mark.parametrize(
    "params", [QOsc(q=1.2), QOsc(q=2.0), Anharmonic(10.0, 1.0)], ids=_model_id
)
def test_expansion_band_matches_dense_sum(params):
    for n, m in NM:
        for j in range(7):
            want = ref_expansion_matrix(params, n, m, j, D_DENSE)
            got = expansion_matrix(params, n, m, j, D_DENSE).matrix
            err = interior_rel_error(want, got, D_DENSE - 1)
            assert err <= 1e-13, (n, m, j, err)


@pytest.mark.parametrize("q", [0.5, 1.2, 2.0])
def test_power_law_band_matches_dense_power(q):
    params = QOsc(q=q)
    for n, m in NM:
        for j in range(7):
            want = ref_power_law(params, n, m, j, D_DENSE)
            got = power_law_multicommutator(params, n, m, j, D_DENSE).matrix
            err = interior_rel_error(want, got, D_DENSE - 2 - n)
            assert err <= 1e-13, (n, m, j, err)


@pytest.mark.parametrize("q", [1.2, 2.0])
def test_scaling_phase_matches_dense_evolution(q):
    params = QOsc(q=q)
    for j_col in (0, 1, 3):
        for n in (1, 2, 3):
            for m in (0, 1, 2):
                if m >= 1 and j_col == 0:
                    continue
                for tau in np.linspace(0.0, 10.0, 21):
                    tau = float(tau)
                    want = ref_scaling_ratio(params, n, m, tau, j_col, D_DENSE)
                    got = band_phase_trace(params, LambdaIndex(n, m), j_col, [tau])
                    assert abs(got.values[0] - want) <= 1e-13, (j_col, n, m, tau)
                    nq = q_number(n, q)
                    drift = want * np.exp(-1j * nq * tau * q**j_col)
                    want_check = abs(np.angle(drift)) / nq
                    got_check = scaling_phase_check(params, n, m, tau, j_col)
                    assert abs(got_check - want_check) <= 1e-13


def ref_coherent_amplitudes(params, alpha, D):
    """Coherent-state amplitudes from the cumulative product of the weights
    from k = 0, normalized with the geometric tail bound."""
    a2 = abs(alpha) ** 2
    lv = np.array([ref_level(params, k) for k in range(D + 1)])
    probs = np.cumprod(np.concatenate(([1.0], a2 / lv[1:D])))
    r = a2 / lv[D]
    probs /= probs.sum() + probs[-1] * r / (1.0 - r)
    phase = math.atan2(alpha.imag, alpha.real) if alpha != 0 else 0.0
    return np.sqrt(probs) * np.exp(1j * phase * np.arange(D))


@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.4j, 0.8, -1.5j, 3.0])
@pytest.mark.parametrize("params", MODELS, ids=_model_id)
def test_coherent_state_matches_cumulative_product(params, alpha):
    if isinstance(params, QOsc) and params.q < 1 and abs(alpha) ** 2 >= 2.0:
        with pytest.raises(ConvergenceError):
            coherent_state(params, alpha)
        return
    st = coherent_state(params, alpha)
    want = ref_coherent_amplitudes(params, complex(alpha), st.dim)
    np.testing.assert_allclose(st.amplitudes, want, rtol=1e-12, atol=0)


def ref_oracle_series(params, alpha, n, m, times, D):
    """The dynamics oracle as one Heisenberg-evolved operator per time point."""
    state = coherent_state(params, alpha, D)
    H = build_hamiltonian(params, D)
    lam = build_lambda(params, LambdaIndex(n, m), D)
    scale = params.omega if isinstance(params, QOsc) else 1.0
    return np.array(
        [expectation(state, heisenberg_evolve(lam, H, t / scale)) for t in times],
        dtype=complex,
    )


ORACLE_GRIDS = {
    "T=0": np.array([]),
    "T=1": np.array([0.7]),
    "T=101": np.linspace(0.0, 10.0, 101),
    "nonuniform": np.sort(np.random.default_rng(11).uniform(0.0, 10.0, 13)),
}


@pytest.mark.parametrize("grid", list(ORACLE_GRIDS.values()), ids=list(ORACLE_GRIDS))
@pytest.mark.parametrize("D", [64, 512])
@pytest.mark.parametrize(
    "params", [QOsc(q=0.5), QOsc(q=1.2), Anharmonic(10.0, 1.0)], ids=_model_id
)
def test_batched_oracle_matches_heisenberg_loop(params, D, grid):
    alpha = 0.8 * complex(math.cos(0.7), math.sin(0.7))
    # the reference costs about 5 ms per time point at D = 512, so there the
    # 101-point grid runs on three (n, m) pairs and the other grids on all
    pairs = NM if D == 64 or grid.size < 101 else [(1, 0), (2, 1), (3, 3)]
    for n, m in pairs:
        got = oracle_expectation_series(params, alpha, LambdaIndex(n, m), grid, D)
        assert got.shape == grid.shape and got.dtype == complex
        if not grid.size:
            continue
        want = ref_oracle_series(params, alpha, n, m, grid, D)
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 1e-14, (n, m, err)
