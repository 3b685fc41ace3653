"""The earlier per-element implementations, kept as independent references.

The Fock builders used to fill their band one matrix element at a time from
a scalar q-number, and the weight recursion existed twice: a plain
term-ratio version for the coherent-state dimension and a moment-aware
version for the expectation series. Those two became one walk from k = 0
that renormalized its terms past 1e280, and the q-exponential summed its own
series in a loop. The coherent-state phase sums were one dense T x K product
exp(i t r_k) @ c. The closed forms of the algebra were dense matrix
expressions: a sum of j + 1 dense Lambdas, a matrix power of the dense
[a, a†], and a dense Heisenberg evolution per scaling point; the coherent
state was a cumulative product of its weights from k = 0, checked against
the dense ladder. The dynamics oracle evolved the operator in the Heisenberg
picture once per time point. Every commutator was two dense matmuls, and the
evolve command formatted its file one row and one scalar at a time. Each
series wrote its model's rates itself, and the binomial expansion scaled
binomial weights by Z^j. The verify suites compared dense closed forms with
dense oracles through interior_rel_error, the purely imaginary phases were
np.exp(1j * x), and the collapse command formatted its file one row at a
time. The vectorised builders, the mode-centred weight window, the streaming
phase-sum evaluators, the band forms, the mode-centred coherent state, the
batched Schrodinger-picture oracle, the element-wise commutator with a
diagonal operand, the column-wise trace writer, the series and expansion
built from the closure coefficients, the band comparisons of the suites and
the cos/sin phases that replaced them must reproduce these forms.

Both series sum their phases by block angle addition from table angles
reduced in double-double: in blocks of about sqrt(T) points on a uniform
grid, and of one point on any other grid, where the per-point row blocks
of plain double phases used to be. Every grid is held to a 40-digit mpmath
sum of the same phases where the dense product is itself too coarse. Each
series multiplied its sum by a global phase e^{i c_same t} from the one
double product c_same t, as the dense form still does; the phase sum now
adds c_same to every term's rate, so that phase is held to the 40-digit sum
at long times too. The anharmonic series was a polynomial in e^{i c_up t}
by Horner's rule, kept here as _horner; the phase sum must follow it within
the drift of its powers. The closed form took e^{i c_same t} and e^{i c_up t}
from double products and summed its Stirling polynomial in the powers of
e^{i c_up t}, kept here as ref_anharmonic_closed; it now takes its r-sum and
e^{i c_up t} from the same phase sum, is held to a 40-digit mpmath closed
form and must follow the old form within the drift of its phases.

The (q-)Stirling numbers are the exception: their alternating per-term sum
cancels catastrophically in floating point, so no float form of it is a
reference. It is evaluated exactly in integers and rounded once, and the
recurrence that replaced it must match that.
"""

import functools
import io
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdosc import (
    Anharmonic,
    collapse_transform,
    ConvergenceError,
    DimensionError,
    DomainError,
    LambdaIndex,
    QOsc,
    energy,
    evolve_anharmonic_closed,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
    multicommutator_expansion,
    q_exponential,
    q_number,
    q_stirling2,
    scaling_phase_check,
    stirling2,
)
from qdosc import cli, dynamics
from qdosc.algebra import anharmonic_p, expansion_scale
from qdosc import verify
from qdosc.algebra import (
    closure_coeffs,
    expansion_matrix,
    normal_order_matrix,
    power_law_multicommutator,
)
from qdosc.dynamics import (
    _PHASE_BLOCK,
    TimeSeries,
    _band_curves,
    _phase_sum,
    _table_cis,
    band_phase_trace,
)
from qdosc.fock import (
    FockOperator,
    build_hamiltonian,
    build_ladder,
    build_lambda,
    coherent_state,
    commutator,
    expectation,
    heisenberg_evolve,
)
from qdosc.params import _closure_rates, _level_q, validate_index
from qdosc.qcore import _check_radius, _weight_window
from qdosc.verify import interior_rel_error, oracle_expectation_series

from one_series import one_series_sum

MODELS = [QOsc(q=0.5), QOsc(q=1.0), QOsc(q=1.2), QOsc(q=2.0), Anharmonic(10.0, 1.0)]


@functools.lru_cache(maxsize=None)
def ref_q_number(n, q):
    # the geometric sum 1 + q + ... + q^(n-1), with no closed form in it
    return math.fsum(q**k for k in range(n))


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


_MAX_TERMS = 100_000

# term size at which ref_walk_weights renormalizes its running terms
_RESCALE_AT = 1e280


def ref_walk_weights(level, x: float, m: int, tol: float):
    """Terms w_0 = 1, w_k = w_{k-1} x / level(k) of the exponential series
    (level(k) = k) or its deformed form (level(k) = [k]_q), truncated when
    the certified tail of the level^m-weighted sum drops below tol relative
    to the running sum of the w_k.

    level(k) must be nondecreasing with nonincreasing successive ratios,
    which holds for both k and [k]_q. Returns (weights normalized by their
    partial sum, levels level(0..K-1), relative tail, raw partial sum).
    A term beyond _RESCALE_AT divides the kept terms and the sum by itself,
    so large x still gives finite weights; the raw partial sum, restored
    from the product of those divisors, is inf where it leaves double
    precision.
    """
    w = [1.0]
    lev = [level(0)]
    total = 1.0
    scale = 1.0
    tail = 0.0
    while x > 0.0:
        k = len(w)
        lv = level(k)
        nxt = w[-1] * x / lv
        if nxt > _RESCALE_AT:
            w = [v / nxt for v in w]
            total /= nxt
            scale *= nxt
            nxt = 1.0
        w.append(nxt)
        lev.append(lv)
        total += nxt
        lv_next = level(k + 1)
        rho = (x / lv_next) * (lv_next / lv) ** m
        if rho < 1.0:
            tail = nxt * max(lv, 1.0) ** m * rho / (1.0 - rho)
            if tail < tol * total:
                break
        if k > _MAX_TERMS:
            raise ConvergenceError("weight recursion failed to terminate")
    w_arr = np.array(w) / total
    # park the last-ulp normalization defect on the largest weight
    w_arr[int(np.argmax(w_arr))] += 1.0 - math.fsum(w_arr)
    return w_arr, np.array(lev), tail / total, total * scale


def ref_q_exponential(x: float, q: float, tol: float = 1e-14) -> float:
    """q-deformed exponential sum_k x^k/[k]_q! via term-ratio recursion.

    For q < 1 the series has radius of convergence 1/(1-q).
    """
    _check_radius(x, q)
    total = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= x / q_number(k, q)
        total += term
        ratio = abs(x) / q_number(k + 1, q)
        if ratio < 1.0 and abs(term) * ratio / (1.0 - ratio) < tol * abs(total):
            return total
        if k > _MAX_TERMS:
            raise ConvergenceError("q_exponential failed to converge")


def scalar_level(q):
    """The walk's scalar level function for the q that _weight_window takes:
    the integers for q = 1, the anharmonic levels, else [k]_q."""
    return float if q == 1.0 else lambda k: q_number(k, q)


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


LEVELS = {"anharmonic": 1.0, "q=1.1": 1.1, "q=1.2": 1.2}


# Walk and window round differently: the walk's w_k carries about k roundings
# from k = 0, the window's about |k - mode| from the mode, and the window sums
# its weights with fsum. Over these cases the weights sit up to 7 ulp
# (1.6e-15) apart, and against 40-digit mpmath weights the window sits within
# 4.1e-15 and the walk within 3.7e-15; tails and sums differ by up to 8.2e-16.
@pytest.mark.parametrize("tol", [1e-12, 1e-16])
@pytest.mark.parametrize("alpha_sq", [0.64, 1.0, 9.0])
@pytest.mark.parametrize("q", list(LEVELS.values()), ids=list(LEVELS))
class TestRecursionMatchesLoops:
    @pytest.mark.parametrize("m", range(4))
    def test_moment_series(self, q, alpha_sq, m, tol):
        k0, lev, w, tail, log_total = _weight_window(alpha_sq, q, m, tol)
        w_ref, lev_ref, tail_ref, total_ref = ref_walk_weights(
            scalar_level(q), alpha_sq, m, tol
        )
        # the whole walk is the window here, and it stops where the walk does
        assert k0 == 0 and len(w) == len(w_ref)
        np.testing.assert_array_equal(lev, q_number(np.arange(len(w)), q))
        # scalar and array q_number may differ in the last ulp
        assert np.all(np.abs(lev - lev_ref) <= np.spacing(lev_ref))
        np.testing.assert_allclose(w, w_ref, rtol=1e-14, atol=0)
        assert tail == pytest.approx(tail_ref, rel=1e-14)
        assert math.exp(log_total) == pytest.approx(total_ref, rel=1e-14)

    def test_plain_ratio_weights_length(self, q, alpha_sq, tol):
        k0, _, w, _, _ = _weight_window(alpha_sq, q, 0, tol)
        level = scalar_level(q)
        w_ref, _ = ref_ratio_weights(lambda k: alpha_sq / level(k), tol)
        assert k0 == 0 and len(w) == len(w_ref)
        # the old form also normalized by the tail bound, which is below tol,
        # and did not park the last-ulp normalization defect
        np.testing.assert_allclose(w, w_ref, rtol=2 * tol, atol=1e-15)


def coherent_dim(params, alpha, tol=1e-14):
    """The dimension one level past the weight window, k1 + 2, where the
    coherent state's tail is below tol."""
    k0, _, w, _, _ = _weight_window(abs(alpha) ** 2, _level_q(params), 0, tol)
    return k0 + len(w) + 1


@pytest.mark.parametrize("params", MODELS, ids=_model_id)
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.8, 3.0, 30.0])
def test_coherent_dim_matches_loop(params, alpha):
    a2 = abs(alpha) ** 2
    if isinstance(params, QOsc) and params.q < 1 and a2 >= 1 / (1 - params.q):
        with pytest.raises(ConvergenceError):
            coherent_dim(params, alpha)
        return
    # the walk from k = 0 also where the window starts above it (alpha = 30)
    w_ref, _, _, _ = ref_walk_weights(lambda k: ref_level(params, k), a2, 0, 1e-14)
    assert coherent_dim(params, alpha) == len(w_ref) + 1


@pytest.mark.parametrize("q", [3.0, 1e6, 1e12])
def test_coherent_dim_matches_loop_at_large_q(q):
    # past the mode the weights fall like q^(-j^2/2): a handful of levels,
    # of which a long level vector would overflow for q = 1e6
    for alpha in (1.0, 30.0):
        w_ref, _, _, _ = ref_walk_weights(lambda k: q_number(k, q), alpha**2, 0, 1e-14)
        assert coherent_dim(QOsc(q=q), alpha) == len(w_ref) + 1


@pytest.mark.parametrize("q,x", [(0.5, 1.0), (0.5, 1.9), (1.0, 0.64), (1.0, 9.0),
                                 (1.2, 2.0), (2.0, 3.0)])  # fmt: skip
def test_q_exponential_matches_loop(q, x):
    assert q_exponential(x, q) == pytest.approx(ref_q_exponential(x, q), rel=1e-13)


def _ref_terms(params, alpha, n, m, tol):
    """The independent walk's levels r_k, coefficients c_k = r_k^m w_k and
    the model's phase rates (rate, global_rate)."""
    a2 = abs(alpha) ** 2
    if isinstance(params, QOsc):
        q = params.q
        w, lev, _, _ = ref_walk_weights(scalar_level(q), a2, m, tol)
        nq = q_number(n, q)
        return lev, lev**m * w, nq * (q - 1.0), nq
    w, lev, _, _ = ref_walk_weights(float, a2, m, tol)
    global_rate = n * params.omega1 + n * n * params.omega2
    return lev, lev**m * w, 2.0 * n * params.omega2, global_rate


def ref_expectation(params, alpha, n, m, t, tol=1e-12):
    """The phase sum as one dense T x K matrix exp(i rate t r_k) times c."""
    lev, c, rate, global_rate = _ref_terms(params, alpha, n, m, tol)
    phases = np.exp(1j * rate * np.outer(t, lev))
    return np.conj(alpha) ** n * np.exp(1j * global_rate * t) * (phases @ c)


@functools.lru_cache(maxsize=1 << 15)
def _mp_cis(rate0, rate, rk, tj):
    """e^{i (rate0 + rate r_k) t_j} at 40 digits for the doubles given."""
    with mpmath.workdps(40):
        w = mpmath.mpf(rate0) + mpmath.mpf(rate) * mpmath.mpf(rk)
        return mpmath.expj(w * mpmath.mpf(tj))


def mp_phase_sum(rate, t, r, c, rate0=0.0):
    """sum_k c_k e^{i (rate0 + rate r_k) t_j} at 40 digits, with the exact
    phases of the doubles rate0, rate, r_k and t_j, rounded once to complex."""
    with mpmath.workdps(40):
        return np.array([
            complex(mpmath.fsum(mpmath.mpf(ck) * _mp_cis(rate0, rate, rk, tj) for rk, ck in zip(r, c)))
            for tj in t
        ])  # fmt: skip


def mp_expectation(params, alpha, n, m, t, tol=1e-12):
    """ref_expectation's sum, with its global phase, at 40 digits."""
    lev, c, rate, global_rate = _ref_terms(params, alpha, n, m, tol)
    return np.conj(alpha) ** n * mp_phase_sum(rate, t, lev, c, global_rate)


def _nonuniform(span):
    rng = np.random.default_rng(7)
    return np.sort(np.unique(rng.uniform(0.0, span, 3001)))


# The dense form rounds each phase rate * t * r_k twice in double. Both
# series sum their phases by block angle addition from phases reduced in
# double-double, which is more accurate than the dense form itself: at
# q = 2, |alpha| = 3 on the 2^16 + 7 grid the dense form is 1.45e-13 from
# the 40-digit sum at (n, m) = (2, 3) and 3.0e-13 at (3, 3). So every series
# on that grid and on the nonuniform one is held to the 40-digit sum, on the
# last 8 rows, every (T // 64)-th row and the 8 rows farthest from the dense
# form; the one-point grid keeps the dense reference.
SPAN = 2.0 * math.pi
GRIDS = {
    "T=0": np.array([]),
    "T=1": np.array([0.7]),
    "T=2^16+7": np.linspace(0.0, SPAN, _PHASE_BLOCK + 7),
    "nonuniform": _nonuniform(SPAN),
}
SERIES_MODELS = [
    QOsc(q=0.5),
    QOsc(q=1.0),
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


@pytest.mark.parametrize("grid_id", list(GRIDS))
@pytest.mark.parametrize("amp", [0.8, 3.0])
@pytest.mark.parametrize("params", SERIES_MODELS, ids=_series_id)
def test_phase_sums_match_dense_product(params, amp, grid_id):
    grid = GRIDS[grid_id]
    alpha = amp * complex(math.cos(0.7), math.sin(0.7))
    is_q = isinstance(params, QOsc)
    evolve = evolve_q_expectation if is_q else evolve_anharmonic_expectation
    outside_radius = is_q and params.q < 1 and amp**2 >= 1 / (1 - params.q)
    to_mpmath = grid_id in ("T=2^16+7", "nonuniform")
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
            if to_mpmath:
                T = len(grid)
                rows = set(range(T - 8, T)) | set(range(0, T, T // 64))
                rows |= set(np.argsort(np.abs(got - want))[-8:].tolist())
                rows = sorted(rows)
                got, want = got[rows], mp_expectation(params, alpha, n, m, grid[rows])
            err = np.abs(got - want).max() / scale
            assert err <= 1e-13, (n, m, err)


# The global phase e^{i c_same t} is summed with the levels' phases, its
# angle reduced in double-double. As one double product c_same t it was the
# largest error at long times: 7.4e-12 at q = 1.2, |alpha| = 3, (n, m) =
# (2, 1), and 1.8e-11 at omega2 = 0.1, (n, m) = (1, 0), on this grid.
LONG_TAU_CASES = [
    (QOsc(q=0.5), 0.8),
    (QOsc(q=1.2), 3.0),
    (QOsc(q=2.0), 3.0),
    (Anharmonic(10.0, 1.0), 3.0),
    (Anharmonic(10.0, 0.1), 3.0),
]


@pytest.mark.parametrize(
    "params, amp", LONG_TAU_CASES, ids=[_series_id(p) for p, _ in LONG_TAU_CASES]
)
def test_series_at_long_tau_match_mpmath(params, amp):
    grid = np.linspace(5e4, 1e5, 200_001)
    rows = np.linspace(0, len(grid) - 1, 20).astype(int)
    alpha = amp * complex(math.cos(0.7), math.sin(0.7))
    evolve = evolve_q_expectation if isinstance(params, QOsc) else evolve_anharmonic_expectation
    for n, m in [(1, 0), (2, 1), (3, 3)]:
        got = evolve(params, alpha, LambdaIndex(n, m), grid).values[rows]
        want = mp_expectation(params, alpha, n, m, grid[rows])
        # the weights are positive, so |value(0)| bounds the whole trace
        scale = abs(ref_expectation(params, alpha, n, m, np.zeros(1))[0])
        err = np.abs(got - want).max() / scale
        assert err <= 1e-14, (n, m, err)


UNIFORM_GRIDS = {
    "[0,10]": np.linspace(0.0, 10.0, 401),
    "[0,1e5]": np.linspace(0.0, 1e5, 200_001),
    "[1e-3,1e5]": np.linspace(1e-3, 1e5, 200_001),
    # the grid of qdosc evolve --tau-max 1e5 --steps 200000
    "cli[0,1e5]": np.linspace(0.0, 1e5, 200_000),
    "[-50,50]": np.linspace(-50.0, 50.0, 4097),
    "[1e4,1e4+10]": np.linspace(1e4, 1e4 + 10.0, 1001),
    "[-1e3,-1]": np.linspace(-1e3, -1.0, 10_001),
}
# q = 0.5 converges only for |alpha|^2 < 2
BLOCK_CASES = [(0.5, 0.8)] + [(q, amp) for q in (1.05, 1.2, 2.0) for amp in (0.8, 3.0, 5.0)]
# where the first-order remainder bound exceeds eps: t_j rounds by up to
# 1.45e-11 on these grids, and the |c_k|-weighted w_k^2 at (n, m) = (3, 3)
# makes d_max^2 sum_k |c_k| w_k^2 / 2 = 1.9 eps sum_k |c_k|. These take
# blocks of one point.
ONE_POINT_CASES = {
    (2.0, 5.0, "[1e-3,1e5]", (3, 3)),
    (2.0, 5.0, "cli[0,1e5]", (3, 3)),
}
OTHER_GRIDS = {
    "T=1": np.array([0.7]),
    "T=1 at 7e4": np.array([7e4 + 0.123]),
    "nonuniform [0,10]": np.sort(np.random.default_rng(5).uniform(0.0, 10.0, 501)),
    "nonuniform [5e4,1e5]": _nonuniform(5e4) + 5e4,
}


def _q_phase_terms(q, amp, n, m):
    """The q series' weights c and levels, with its own rates: [n] global,
    [n](q - 1) per level."""
    _, lev, w, _, _ = _weight_window(amp**2, q, m, 1e-12)
    rate0 = q_number(n, q)
    return rate0 * (q - 1.0), lev, lev**m * w, rate0


def _block_bound(grid, rate, lev, c, rate0):
    """_phase_sum's bound relative to sum_k |c_k| without its grid terms,
    which vanish for one-point blocks and only add otherwise."""
    u = 2.0**-53
    # W_k t_max of the bound, W_k = |rate0| + |rate r_k| >= |w_k|
    w_t = (abs(rate0) + np.abs(rate * lev)) * np.abs(grid).max()
    per_k = (2 * math.pi + 2 * len(c) + 6) * u + 36 * u**2 * w_t
    return np.dot(c, per_k) / c.sum()


class TestBlockPhaseSum:
    @pytest.mark.parametrize("grid_id", list(UNIFORM_GRIDS))
    @pytest.mark.parametrize("q, amp", BLOCK_CASES)
    def test_matches_mpmath_within_the_documented_bound(self, q, amp, grid_id):
        grid = UNIFORM_GRIDS[grid_id]
        T = len(grid)
        # the whole grid, its first blocks (where t_j - t_b may round) and its end
        rows = np.linspace(0, T - 1, 16).tolist() + np.linspace(1, 3 * math.isqrt(T), 8).tolist()
        rows = sorted(set(int(j) for j in rows) | set(range(T - 4, T)))
        for n, m in [(1, 0), (2, 1), (3, 3)]:
            rate, lev, c, rate0 = _q_phase_terms(q, amp, n, m)
            got = one_series_sum(rate, grid, lev, c, rate0)
            if (q, amp, grid_id, (n, m)) in ONE_POINT_CASES:
                assert np.array_equal(got, one_series_sum(rate, grid, lev, c, rate0, 1))
            want = mp_phase_sum(rate, grid[rows], lev, c, rate0)
            err = np.abs(got[rows] - want).max() / c.sum()
            assert err <= 1e-13, (n, m, err)
            bound = _block_bound(grid, rate, lev, c, rate0)
            assert err <= bound, (n, m, err, bound)

    @pytest.mark.parametrize("grid_id", list(OTHER_GRIDS))
    @pytest.mark.parametrize("q, amp", [(1.2, 0.8), (1.2, 3.0), (2.0, 5.0)])
    def test_other_grids_take_one_point_blocks_within_the_bound(self, q, amp, grid_id):
        grid = OTHER_GRIDS[grid_id]
        rows = np.unique(np.linspace(0, len(grid) - 1, 24).astype(int))
        for n, m in [(1, 0), (2, 1), (3, 3)]:
            rate, lev, c, rate0 = _q_phase_terms(q, amp, n, m)
            got = one_series_sum(rate, grid, lev, c, rate0)
            assert np.array_equal(got, one_series_sum(rate, grid, lev, c, rate0, 1))
            want = mp_phase_sum(rate, grid[rows], lev, c, rate0)
            err = np.abs(got[rows] - want).max() / c.sum()
            bound = _block_bound(grid, rate, lev, c, rate0)
            assert err <= min(bound, 1e-15), (n, m, err, bound)

    def test_only_gate_refused_grids_fall_back_to_one_point_blocks(self, monkeypatch):
        # the point sum forms its tables on the grid itself, the block sum
        # on ceil(T/B) block starts and B offsets
        points = []
        table_cis = dynamics._table_cis

        def spy(s, w_hi, w_lo):
            points.append(len(s))
            return table_cis(s, w_hi, w_lo)

        monkeypatch.setattr(dynamics, "_table_cis", spy)
        nonuniform = OTHER_GRIDS["nonuniform [0,10]"]
        runs = [(evolve_q_expectation, QOsc(q=1.2)),
                (evolve_anharmonic_expectation, Anharmonic(10.0, 1.0))]  # fmt: skip
        for evolve, params in runs:
            for grid, want in [(np.linspace(0.0, 10.0, 2), 1 + 2),
                               (np.linspace(0.0, 10.0, 101), 10 + 11),
                               (nonuniform, len(nonuniform))]:  # fmt: skip
                points.clear()
                evolve(params, 0.8, LambdaIndex(2, 1), grid)
                assert set(points) == {want}

    def test_empty_grid_gives_an_empty_sum(self):
        rate, lev, c, rate0 = _q_phase_terms(1.2, 0.8, 2, 1)
        for size in (None, 1):
            got = one_series_sum(rate, np.array([]), lev, c, rate0, size)
            assert got.shape == (0,) and got.dtype == complex


def ref_departures(t, size, v):
    """_departures as it was: t padded to whole blocks with t[-1], fl(t_j -
    t_b) and its rounding error by TwoSum on every row, then v_i
    subtracted."""
    blocks = -(-len(t) // size)
    tj = np.empty((blocks, size))
    tj.ravel()[: len(t)] = t
    tj.ravel()[len(t) :] = t[-1]
    tb = tj[:, :1].copy()
    d = tj - tb
    part = d + tb
    err = tj - part
    part -= d
    part -= tb
    err += part
    d -= v
    d += err
    return tb[:, 0], d


_rng = np.random.default_rng(11)
DEPARTURE_GRIDS = {
    **{
        f"[0,4pi] T={T}": np.linspace(0.0, 4 * math.pi, T)
        for T in (1, 2, 256**2, 256**2 + 1, 200_000)
    },
    # block 0 mixes 1e-3 with times beyond 2e-3, so fl(t_j - t_b) rounds there
    "[1e-3,1e5]": np.linspace(1e-3, 1e5, 200_001),
    "[5e4,1e5]": np.linspace(5e4, 1e5, 200_001),
    "[-1e3,-1]": np.linspace(-1e3, -1.0, 10_001),
    "[-50,50]": np.linspace(-50.0, 50.0, 4097),
    "sorted random": np.sort(_rng.uniform(0.0, 10.0, 5001)),
    "unsorted": _rng.uniform(-10.0, 10.0, 5001),
    # t_0 = t_{T-1} gives h = 0, so fl(-0.0 - 0.0) - v_i is -0.0 where +0.0 was
    "signed zeros": np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.0, 0.25, -0.0, 0.0, -0.0, 0.0]),
    # blocks of 11 points that span a factor 2.5, beyond Sterbenz's 2
    "geometric": np.geomspace(1.0, 1e4, 101),
    "-geometric": -np.geomspace(1.0, 1e4, 101),
    "not finite": np.array([0.0, 1.0, np.inf, 3.0, -np.inf, 5.0, np.nan, 7.0, 8.0, 9.0]),
}


@pytest.mark.parametrize("grid_id", list(DEPARTURE_GRIDS))
def test_departures_keep_the_bits_of_twosum_on_every_row(grid_id, monkeypatch):
    t = DEPARTURE_GRIDS[grid_id]
    T = len(t)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _phase_sum
        for size in {math.isqrt(T - 1) + 1, 1, 7}:
            v = np.arange(size) * ((t[-1] - t[0]) / max(T - 1, 1))
            tb, d = dynamics._departures(t, size, v)
            want_tb, want_d = ref_departures(t, size, v)
            assert tb.tobytes() == want_tb.tobytes()
            assert d.shape == want_d.shape
            assert d.ravel()[:T].tobytes() == want_d.ravel()[:T].tobytes()
        rate, lev, c, rate0 = _q_phase_terms(1.2, 0.8, 2, 1)
        got = one_series_sum(rate, t, lev, c, rate0)
        monkeypatch.setattr(dynamics, "_departures", ref_departures)
        assert got.tobytes() == one_series_sum(rate, t, lev, c, rate0).tobytes()


def ref_phase_sum(rate, t, r, c, rate0, size=None):
    """_phase_sum as it was before its sums were tiled, on ref_departures:
    one matmul per part over all block rows, then slope *= d and the
    combine over the whole grid. The gates that raise are left out."""
    n_t = len(t)
    if size is None:
        size = math.isqrt(n_t - 1) + 1
    v = np.arange(size) * ((t[-1] - t[0]) / max(n_t - 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        tb, d = ref_departures(t, size, v)
        w_hi, w_lo = dynamics._two_sum(rate0, *dynamics._two_prod(rate, r))
        if size > 1:
            d_t = d.ravel()[:n_t]
            d_max = max(-d_t.min(), d_t.max())
            abs_c = np.abs(c)
            remainder = 0.5 * np.dot(abs_c, np.square(w_hi * d_max))
            if not remainder <= np.finfo(float).eps * abs_c.sum() < np.inf:
                return ref_phase_sum(rate, t, r, c, rate0, 1)
        s = np.concatenate((tb, v))
        terms = max(1, _PHASE_BLOCK // len(s))
        for start in range(0, len(c), terms):
            k = slice(start, start + terms)
            tables = _table_cis(s, w_hi[k], w_lo[k])
            outer, inner = tables[: len(tb)], tables[len(tb) :]
            inner *= c[k]
            parts = [outer @ x.T for x in (inner, inner * w_hi[k])[:size]]
            sums = list(map(np.add, sums, parts, sums)) if start else parts
        out = sums[0]
        if size > 1:
            slope = np.multiply(sums[1], d, out=sums[1])
            out.real -= slope.imag
            out.imag += slope.real
    return out.ravel()[:n_t]


_line = np.linspace(0.0, 1.0, 121)
# d += 0.0 turns -0.0 into +0.0 only where h = 0, on grids whose ends are
# equal: fl(t_j - t_b) - v_i is -0.0 only for t_j = -0.0, t_b = +0.0 and
# v_i = +0.0 with i > 0
SIGNED_ZERO_GRIDS = {
    "starts at +0.0": _line,
    "starts at -0.0": np.concatenate(([-0.0], _line[1:])),
    "-0.0 after +0.0, ends apart": np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.0, 0.25, -0.0, 1.0]),
    "-0.0 after +0.0, ends equal": np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.0, 0.25, -0.0, 0.0]),
    "ends +0.0 and -0.0": np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.25, -0.0, 0.0, -0.0]),
    "ends -0.0 and +0.0": np.array([-0.0, 0.0, -0.0, 0.5, 0.0, -0.0, 0.25, -0.0, 0.0]),
    "a later block starts at +0.0": np.concatenate((-_line[:0:-1], [0.0, -0.0, -0.0], _line[1:])),
    "all zeros": np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0]),
}


@pytest.mark.parametrize("grid_id", list(SIGNED_ZERO_GRIDS))
def test_signed_zeros_keep_the_bits_of_twosum_in_d_and_the_sums(grid_id):
    t = SIGNED_ZERO_GRIDS[grid_id]
    T = len(t)
    rate, lev, c, rate0 = _q_phase_terms(1.2, 0.8, 2, 1)
    for size in {math.isqrt(T - 1) + 1, 1, 2, 3, 7}:
        v = np.arange(size) * ((t[-1] - t[0]) / (T - 1))
        tb, d = dynamics._departures(t, size, v)
        want_tb, want_d = ref_departures(t, size, v)
        assert tb.tobytes() == want_tb.tobytes()
        assert d.ravel()[:T].tobytes() == want_d.ravel()[:T].tobytes()
        got = one_series_sum(rate, t, lev, c, rate0, size)
        assert got.tobytes() == ref_phase_sum(rate, t, lev, c, rate0, size).tobytes()


def _one_term():
    return 0.05, np.ones(1), np.ones(1), 1.3


# (terms, grid, block size) of the tiled sum; the q terms have K = 23 at
# (1.2, 3), 15 at (2, 5) and 317 at (1 + 1e-9, 17), which takes several
# term chunks
TILE_CASES = {
    "T=101, one tile": (_q_phase_terms(1.2, 3.0, 2, 1), np.linspace(0.0, 4 * math.pi, 101), 11),
    "T=2e5, K=1": (_one_term(), np.linspace(0.0, 4 * math.pi, 200_000), 448),
    "T=2e5, K=23": (_q_phase_terms(1.2, 3.0, 2, 1), np.linspace(0.0, 4 * math.pi, 200_000), 448),
    "T=226101, rows a multiple of the tile": (
        _one_term(), np.linspace(0.0, 4 * math.pi, 226_101), 476),
    "T=2^16+7": (_q_phase_terms(1.2, 3.0, 2, 1), np.linspace(0.0, SPAN, _PHASE_BLOCK + 7), 257),
    "T=2e5, K=317": (_q_phase_terms(1.0 + 1e-9, 17.0, 2, 1), np.linspace(0.0, 4 * math.pi, 200_000), 448),
    # 180 terms a chunk: beyond 128, OpenBLAS sums a small tile in another order
    "T=33000, K=317": (_q_phase_terms(1.0 + 1e-9, 17.0, 2, 1), np.linspace(0.0, 10.0, 33_000), 182),
    "nonuniform, B=1": (_q_phase_terms(1.2, 3.0, 2, 1),
                        np.sort(np.random.default_rng(13).uniform(0.0, 10.0, 70_001)), 1),
    "gate-refused, B=1": (_q_phase_terms(2.0, 5.0, 3, 3), UNIFORM_GRIDS["[1e-3,1e5]"], 1),
    "decreasing": (_q_phase_terms(1.2, 3.0, 2, 1), np.linspace(50.0, -50.0, 200_001), 448),
    "[1e-3,1e5]": (_q_phase_terms(1.2, 3.0, 2, 1), UNIFORM_GRIDS["[1e-3,1e5]"], 448),
    "[-50,50]": (_q_phase_terms(1.2, 3.0, 2, 1), np.linspace(-50.0, 50.0, 200_001), 448),
}


@pytest.mark.parametrize("case", list(TILE_CASES))
def test_tiled_phase_sum_keeps_the_bits_of_the_whole_grid_sum(case, monkeypatch):
    (rate, lev, c, rate0), grid, size = TILE_CASES[case]
    # the table points: ceil(T/B) block starts and B offsets, or at B = 1
    # the point sum's grid itself
    points = []
    table_cis = dynamics._table_cis

    def spy(s, w_hi, w_lo):
        points.append(len(s))
        return table_cis(s, w_hi, w_lo)

    monkeypatch.setattr(dynamics, "_table_cis", spy)
    got = one_series_sum(rate, grid, lev, c, rate0)
    T = len(grid)
    assert points[-1] == (T if size == 1 else -(-T // size) + size)
    assert got.tobytes() == ref_phase_sum(rate, grid, lev, c, rate0).tobytes()


# the (rate, rate0) of a stack's series: distinct rates, one rate0 = 0
STACK_RATES = (np.array([0.05, 0.013, 0.031, 0.002]), np.array([1.3, 0.0, 2.9, 0.7]))
# (levels, weights) of K terms; 317 spans several term chunks
STACK_TERMS = {
    1: _one_term()[1:3],
    3: (np.arange(3.0), np.array([0.0, 2.5, 6.25])),
    45: _q_phase_terms(1.0, 3.5, 1, 0)[1:3],
    317: _q_phase_terms(1.0 + 1e-9, 17.0, 2, 1)[1:3],
}


def _stack_grid(T, uniform):
    if uniform:
        return np.linspace(0.0, 4 * math.pi, T)
    return np.sort(np.random.default_rng(T).uniform(0.0, 4 * math.pi, T))


# (T, uniform grid, K, block size); a non-uniform grid, T = 1 and B = 1
# take the point sum, of T K angles a series, so the longest point sums
# are left out
STACK_CASES = [
    (T, uniform, K, size)
    for T in (0, 1, 2, 21, 101, 2001, _PHASE_BLOCK + 7, 200_000)
    for uniform in (True, False)
    for K in STACK_TERMS
    for size in (None, 1)
    if (uniform or T > 1)
    and (uniform and size is None and T > 1 or T * K <= 2_200_000)
]


@pytest.mark.parametrize(
    "T, uniform, K, size",
    STACK_CASES,
    ids=[
        f"T={T}-{'uniform' if u else 'nonuniform'}-K={K}-B={'default' if s is None else s}"
        for T, u, K, s in STACK_CASES
    ],
)
def test_stacked_phase_sum_rows_are_the_one_series_sums(T, uniform, K, size):
    grid = _stack_grid(T, uniform)
    lev, c = STACK_TERMS[K]
    rates, rate0s = STACK_RATES
    ones = [
        one_series_sum(a, grid, lev, c, a0, size) for a, a0 in zip(rates.tolist(), rate0s.tolist())
    ]
    for S in (1, 3, 4):
        got = _phase_sum(rates[:S], grid, lev, c, rate0s[:S], size)
        assert got.shape == (S, T)
        for row, one in zip(got, ones):
            assert row.tobytes() == one.tobytes()


def test_stacked_phase_sum_gates_each_series_on_its_own_rates(monkeypatch):
    # the q = 2, |alpha| = 5, (3, 3) series fails the first-order gate on
    # this grid, whose points round by up to 1.45e-11, and so does a faster
    # one of its terms; slow series of the same terms pass it
    rate, lev, c, rate0 = _q_phase_terms(2.0, 5.0, 3, 3)
    grid = UNIFORM_GRIDS["[1e-3,1e5]"]
    series = {
        "refused": (rate, rate0),
        "refused faster": (1.5 * rate, rate0),
        "kept": (1e-3, 0.5),
        "kept at rate0 0": (2e-3, 0.0),
    }
    stacks = {
        "refused first": ("refused", "kept", "kept at rate0 0"),
        "refused between": ("kept", "refused", "kept at rate0 0"),
        "refused last": ("kept", "kept at rate0 0", "refused"),
        "two refused interleaved": ("refused", "kept", "refused faster", "kept at rate0 0"),
    }
    T = len(grid)
    B = math.isqrt(T - 1) + 1
    # the table points: one chunk of terms by blocks, or by points chunks
    # of one term at this T
    by_blocks, by_points = [-(-T // B) + B], [T] * len(c)
    points = []
    table_cis = dynamics._table_cis

    def spy(s, w_hi, w_lo):
        points.append(len(s))
        return table_cis(s, w_hi, w_lo)

    monkeypatch.setattr(dynamics, "_table_cis", spy)
    ones = {}
    for name, (a, a0) in series.items():
        points.clear()
        ones[name] = one_series_sum(a, grid, lev, c, a0)
        assert points == (by_points if name.startswith("refused") else by_blocks), name
    for stack, names in stacks.items():
        rates, rate0s = np.array([series[name] for name in names]).T
        points.clear()
        got = _phase_sum(rates, grid, lev, c, rate0s)
        # the kept series by blocks in one stacked call, then the refused
        # ones by points in another, whatever their places in the stack
        assert points == by_blocks + by_points, stack
        assert got.shape == (len(names), T), stack
        for row, name in zip(got, names):
            assert row.tobytes() == ones[name].tobytes(), (stack, name)


def test_stacked_phase_sum_raises_the_first_refused_series_error(monkeypatch):
    grid, lev, c = np.array([0.0, 1e20]), np.arange(3.0), np.ones(3)
    # a series it keeps, one whose angles keep no digit and one whose rate
    # has no finite Dekker split
    kept, no_digit, no_split = (1e-3, 0.0), (1e13, 0.0), (1e301, 0.0)

    def refusal(series):
        rate, rate0 = series
        with pytest.raises(DomainError) as err:
            one_series_sum(rate, grid, lev, c, rate0)
        return str(err.value)

    assert refusal(no_digit) != refusal(no_split)

    def refuse(*args):
        raise AssertionError("a table was built before the refusal")

    monkeypatch.setattr(dynamics, "_table_cis", refuse)
    for stack in ((kept, no_digit, no_split), (kept, no_split, no_digit), (no_split, kept)):
        first = next(series for series in stack if series is not kept)
        rates, rate0s = np.array(stack).T
        with pytest.raises(DomainError) as err:
            _phase_sum(rates, grid, lev, c, rate0s)
        assert str(err.value) == refusal(first)


# (n, m) pairs with repeated n's and mixed m's; at j_col = 0 only m = 0
# keeps a phase
BAND_PAIRS = [(3, 2), (1, 0), (3, 0), (2, 1), (1, 2), (3, 2), (2, 0), (1, 0)]


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "sorted random"])
@pytest.mark.parametrize("j_col", [0, 1, 3])
def test_stacked_band_curves_are_the_one_pair_traces(j_col, uniform):
    q, taus = 1.5, _stack_grid(2001, uniform)
    pairs = [(n, m) for n, m in BAND_PAIRS if j_col or not m]
    got = _band_curves(q, j_col, pairs, taus)
    assert len(got) == len(pairs)
    for (n, m), curve in zip(pairs, got):
        one = band_phase_trace(QOsc(q=q), LambdaIndex(n, m), j_col, taus)
        assert (curve.n, curve.m, curve.q, curve.j_col) == (n, m, q, j_col)
        assert (one.n, one.m, one.q, one.j_col) == (n, m, q, j_col)
        assert curve.taus.tobytes() == one.taus.tobytes()
        assert curve.values.tobytes() == one.values.tobytes()
        # a pair alone is the one-term point sum of its rate
        rate = q_number(j_col + n, q) - q_number(j_col, q)
        alone = one_series_sum(rate, taus, np.ones(1), np.ones(1), 0.0, 1)
        assert one.values.tobytes() == alone.tobytes()


BAND_REFUSALS = {
    "vanishing entry": (1.5, 0, [(1, 0), (2, 1), (1, 2)], np.linspace(0.0, 10.0, 21)),
    "n = 0 before a negative m": (1.5, 1, [(1, 0), (0, 2), (2, -1)], np.linspace(0.0, 10.0, 21)),
    "negative m": (1.5, 1, [(1, 0), (2, -1), (0, 1)], np.linspace(0.0, 10.0, 21)),
    "negative column": (1.5, -1, [(1, 0)], np.linspace(0.0, 10.0, 21)),
    # [1100]_2 and [1200]_2 overflow; [1]_2 does not
    "level overflow": (2.0, 0, [(1, 0), (1100, 0), (1200, 0)], np.linspace(0.0, 10.0, 21)),
    # at tau = 1e30 the rates of n = 2 and 3 keep no digit, that of n = 1 does
    "taus": (1.5, 1, [(1, 0), (3, 0), (2, 0), (1, 2)], np.array([0.0, 1e30])),
}


@pytest.mark.parametrize("case", sorted(BAND_REFUSALS))
def test_stacked_band_curves_raise_the_first_refused_pair_error(case):
    q, j_col, pairs, taus = BAND_REFUSALS[case]
    errors = []
    for idx in pairs:
        try:
            band_phase_trace(QOsc(q=q), LambdaIndex(*idx), j_col, taus)
        except DomainError as err:
            errors.append(str(err))
    # the pairs refused on their own, the first of them named as its own
    # call names it
    assert len(errors) >= 2 or case == "negative column"
    with pytest.raises(DomainError) as err:
        _band_curves(q, j_col, pairs, taus)
    assert str(err.value) == errors[0]


def ref_evolve_q_expectation(params, alpha, idx, tau_grid, tol=1e-12):
    """The q-model series with its own rates [n] and [n](q - 1)."""
    if not isinstance(params, QOsc):
        raise DomainError("evolve_q_expectation requires q-model parameters")
    n, m = validate_index(idx)
    if tol <= 0:
        raise DomainError("tol must be positive")
    q = params.q
    taus = np.asarray(tau_grid, dtype=float)
    # the window refuses an amplitude outside the radius, also for n = m = 0
    _, lev, w, tail, _ = _weight_window(abs(alpha) ** 2, q, m, tol)
    if n == 0 and m == 0:
        return TimeSeries(taus, np.ones_like(taus, dtype=complex), 0.0)
    nq = q_number(n, q)
    values = one_series_sum(nq * (q - 1.0), taus, lev, lev**m * w, nq)
    values *= np.conj(alpha) ** n
    return TimeSeries(taus, values, tail)


def ref_evolve_anharmonic_expectation(params, alpha, idx, t_grid, tol=1e-12):
    """The anharmonic series with its own rates n w1 + n^2 w2 and 2 n w2."""
    if not isinstance(params, Anharmonic):
        raise DomainError(
            "evolve_anharmonic_expectation requires anharmonic parameters"
        )
    n, m = validate_index(idx)
    if tol <= 0:
        raise DomainError("tol must be positive")
    ts = np.asarray(t_grid, dtype=float)
    a2 = abs(alpha) ** 2
    if n == 0 and m == 0:
        return TimeSeries(ts, np.ones_like(ts, dtype=complex), 0.0)
    _, lev, w, tail, _ = _weight_window(a2, 1.0, m, tol)
    c1 = n * params.omega1 + n * n * params.omega2
    c2 = 2.0 * n * params.omega2
    values = one_series_sum(c2, ts, lev, lev**m * w, c1)
    values *= np.conj(alpha) ** n
    return TimeSeries(ts, values, tail)


def _horner(z, c):
    """sum_k c_k z^k by Horner's rule, in place in one complex vector."""
    acc = np.full(z.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc *= z
        acc += ck
    return acc


def horner_anharmonic_sum(c2, alpha, m, t, tol=1e-12):
    """The anharmonic phase sum as it was: the powers z^k of z = e^{i c2 t},
    the z of evolve_anharmonic_closed, by Horner's rule from z^k0."""
    k0, lev, w, _, _ = _weight_window(abs(alpha) ** 2, 1.0, m, tol)
    z = np.exp(1j * c2 * t)
    return z**k0 * _horner(z, lev**m * w)


def ref_binomial_weights(j, p):
    """Binomial weights B(j, k, p) = C(j,k) p^(j-k) (1-p)^k for k = 0..j."""
    if j < 0:
        raise DomainError(f"j must be nonnegative, got {j}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    k = np.arange(j + 1)
    comb = np.array([math.comb(j, int(kk)) for kk in k], dtype=float)
    return comb * p ** (j - k) * (1.0 - p) ** k


def ref_expansion_scale(params, n):
    """Z as its own per-model formula: E(n) q, or n (omega1 + (n+2) omega2)."""
    if isinstance(params, QOsc):
        return energy(params, n) * params.q
    return n * (params.omega1 + (n + 2) * params.omega2)


def ref_multicommutator_expansion(params, n, m, j):
    """Z^j times the binomial weights B(j, k, p), p = 1/q or p_n."""
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
            z = ref_expansion_scale(params, n)
            return [(0, complex(z**j))]
        p = anharmonic_p(params, n)
    z = ref_expansion_scale(params, n)
    if j == 0:
        return [(0, 1.0 + 0.0j)]
    b = ref_binomial_weights(j, p)
    return [(k, complex(z**j * b[k])) for k in range(j + 1)]


CLOSURE_GRIDS = {
    "T=401": np.linspace(0.0, 10.0, 401),
    "T=4097 offset": np.linspace(-50.0, 950.0, 4097),
    "nonuniform": np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 257)),
}


# the q model's tau rates are its closure coefficients at omega = 1, which
# round as [n] and [n](q - 1) do. Both uniform grids take _phase_sum's
# blocks of about sqrt(T) points, the nonuniform one blocks of one point.
@pytest.mark.parametrize("grid", list(CLOSURE_GRIDS.values()), ids=list(CLOSURE_GRIDS))
@pytest.mark.parametrize("amp", [0.8, 3.0, 30.0])
@pytest.mark.parametrize("omega", [1.0, 2.5])
def test_series_from_closure_coeffs_is_bit_identical(omega, amp, grid):
    alpha = amp * complex(math.cos(0.7), math.sin(0.7))
    runs = [
        (QOsc(q=q, omega=omega), evolve_q_expectation, ref_evolve_q_expectation)
        for q in (0.5, 1.0, 1.0 + 1e-9, 1.2, 2.0)
    ] + [
        (Anharmonic(w1, omega), evolve_anharmonic_expectation,
         ref_evolve_anharmonic_expectation)
        for w1 in (omega, 10.0)
    ]  # fmt: skip
    for params, evolve, ref in runs:
        for n in range(4):
            for m in range(4):
                idx = LambdaIndex(n, m)
                try:
                    want = ref(params, alpha, idx, grid)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        evolve(params, alpha, idx, grid)
                    continue
                got = evolve(params, alpha, idx, grid)
                assert np.array_equal(got.values, want.values), (params, n, m)
                assert got.truncation_tail == want.truncation_tail


# Horner's powers z^k carry k times the rounding of the phase c2 t of z, so
# the two sums drift apart as eps * c2 * t * k, plus eps per Horner step.
# Both sides take the series' global factor e^{i c1 t} from its exactly
# reduced angle.
@pytest.mark.parametrize("grid_id", list(CLOSURE_GRIDS))
@pytest.mark.parametrize("amp", [0.8, 3.0, 30.0])
@pytest.mark.parametrize("omega", [1.0, 2.5])
def test_anharmonic_series_follows_horner_within_phase_drift(omega, amp, grid_id):
    grid = CLOSURE_GRIDS[grid_id]
    params = Anharmonic(10.0, omega)
    alpha = amp * complex(math.cos(0.7), math.sin(0.7))
    t_max = np.abs(grid).max()
    for n in range(1, 4):
        c1 = n * params.omega1 + n * n * params.omega2
        c2 = 2.0 * n * params.omega2
        for m in range(4):
            got = evolve_anharmonic_expectation(params, alpha, LambdaIndex(n, m), grid).values
            glob = _table_cis(grid, np.array([c1]), np.zeros(1))[:, 0]
            old = horner_anharmonic_sum(c2, alpha, m, grid)
            old *= np.conj(alpha) ** n * glob
            _, lev, w, _, _ = _weight_window(amp**2, 1.0, m, 1e-12)
            c = lev**m * w
            err = np.abs(got - old).max() / (amp**n * c.sum())
            bound = np.finfo(float).eps * np.dot(c, lev * c2 * t_max + 2 * len(c)) / c.sum()
            assert err <= bound, (n, m, err, bound)


EXPANSION_MODELS = [
    QOsc(q=1.2),
    QOsc(q=2.0, omega=2.5),
    QOsc(q=1.0 + 1e-6),
    Anharmonic(10.0, 1.0),
    Anharmonic(3.3, 0.7),
    Anharmonic(3.0, 0.0),
]


@pytest.mark.parametrize("params", EXPANSION_MODELS, ids=_series_id)
def test_expansion_from_closure_coeffs_matches_binomial_weights(params):
    # C(j,k) c_same^(j-k) c_up^k against Z^j B(j, k, c_same/Z): the two round
    # differently, by a few ulp of Z^j
    for n in range(6):
        z = ref_expansion_scale(params, n)
        assert expansion_scale(params, n) == pytest.approx(z, rel=1e-15, abs=0)
        for j in range(7):
            got = dict(multicommutator_expansion(params, n, 0, j))
            want = dict(ref_multicommutator_expansion(params, n, 0, j))
            # at n = 0 both coefficients vanish, and c_up = 0 keeps one term
            assert set(got) <= set(want)
            for k, coeff in want.items():
                assert abs(got.get(k, 0.0) - coeff) <= 1e-14 * abs(z) ** j, (n, j, k)


def exact_q_stirling2(s, ms, q):
    """The per-term sum

        S_q^{s,m} = sum_k (-1)^(s-k) q^C(s-k,2) [k]_q^m / ([k]_q! [s-k]_q!)

    evaluated exactly at the float q's own value a/b, for each m in ms, as a
    pair of ints (num, den). With [k]_q = N[k] / b^(k-1) and
    [k]_q! = F[k] / b^C(k,2), term k is coef[k] N[k]^m b^(C(k,2) - m(k-1))
    / F[s], where F[s] / (F[k] F[s-k]) is an integer (a Gaussian binomial).
    Ints instead of Fractions skip a gcd per operation, which dominates here.
    """
    a, b = q.as_integer_ratio()
    N = [0] + [sum(a**i * b ** (k - 1 - i) for i in range(k)) for k in range(1, s + 1)]
    F = [1]
    for k in range(1, s + 1):
        F.append(F[-1] * N[k])
    coef = [
        (-1) ** (s - k) * a ** ((s - k) * (s - k - 1) // 2) * (F[s] // (F[k] * F[s - k]))
        for k in range(s + 1)
    ]
    out = {}
    for m in ms:
        ks = range(0 if m == 0 else 1, s + 1)  # [0]_q^0 = 1, [0]_q^m = 0
        powers = {k: k * (k - 1) // 2 - m * (k - 1) for k in ks}
        low = min(powers.values(), default=0)
        num = sum(coef[k] * N[k] ** m * b ** (p - low) for k, p in powers.items())
        out[m] = (num * b ** max(low, 0), F[s] * b ** max(-low, 0))
    return out


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0, 1.0 + 1e-9, 1.2, 2.0, 3.0])
def test_q_stirling2_matches_per_term_factorials(q):
    # in floating point the per-term sum is off by up to 4e32 (q = 0.9) and
    # 2e307 (q = 0.3) relative on this grid; exactly, it is the reference
    for s in range(0, 43, 3):
        for m, (num, den) in exact_q_stirling2(s, range(0, 43, 6), q).items():
            try:
                want = num / den  # correctly rounded
            except OverflowError:
                with pytest.raises(DomainError):
                    q_stirling2(s, m, q)
                continue
            got = q_stirling2(s, m, q)
            # floored at the smallest normal double: subnormals lose bits
            assert abs(got - want) <= 1e-13 * max(abs(want), sys.float_info.min), (s, m)


def test_stirling2_is_the_correctly_rounded_exact_sum():
    for r in range(61):
        for m, (num, den) in exact_q_stirling2(r, range(61), 1.0).items():
            assert stirling2(r, m) == num / den, (r, m)


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


# a uniform stretch at each end of [0, 1e5] and points between
BAND_TAUS = np.concatenate((
    np.linspace(0.0, 10.0, 41),
    np.linspace(1e5 - 1.0, 1e5, 41),
    np.random.default_rng(29).uniform(0.0, 1e5, 40),
))  # fmt: skip


@pytest.mark.parametrize("q", [0.5, 1.2, 2.0])
@pytest.mark.parametrize("j_col", [0, 3])
def test_band_phase_matches_the_exact_phase_of_its_rate(q, j_col):
    # the double product rate * tau alone is up to about 1e-10 rad off at
    # tau = 1e5; the reduced angle is rounded once, within pi u
    for n in (1, 2, 3):
        rate = q_number(j_col + n, q) - q_number(j_col, q)
        got = band_phase_trace(QOsc(q=q), LambdaIndex(n, 0), j_col, BAND_TAUS).values
        want = np.array([_mp_cis(0.0, rate, 1.0, tau) for tau in BAND_TAUS], dtype=complex)
        assert np.abs(got - want).max() <= 4e-16, n


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
            coherent_dim(params, alpha)
        return
    st = coherent_state(params, alpha, coherent_dim(params, alpha))
    want = ref_coherent_amplitudes(params, complex(alpha), len(st))
    np.testing.assert_allclose(st, want, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [27.0, 30.0])
def test_large_coherent_state_matches_walk_at_every_level(alpha):
    # every level below the cutoff against the walk from k = 0, including
    # the hundreds of normal doubles below the series window (k >= 50 at
    # alpha = 30); both underflow to 0 or subnormals below that
    tol = 1e-14
    w_ref, _, _, _ = ref_walk_weights(float, alpha**2, 0, tol)
    params = Anharmonic(10.0, 1.0)
    assert coherent_dim(params, alpha, tol) == len(w_ref) + 1
    st = coherent_state(params, alpha, len(w_ref) + 1, tol=tol)
    probs = np.abs(st[:-1]) ** 2
    assert np.count_nonzero(probs[: len(probs) // 2] >= np.finfo(float).tiny) > 400
    np.testing.assert_allclose(probs, w_ref, rtol=1e-12, atol=np.finfo(float).tiny)


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


def ref_commutator(A, B):
    with np.errstate(over="ignore", invalid="ignore"):
        return A @ B - B @ A


# every (n, m) <= 3 at D = 64; at D = 512 one pair, since each reference
# commutator there is two 46-ms matmuls
COMMUTATOR_PAIRS = {2: [(0, 0), (1, 0), (1, 3)], 64: NM, 512: [(2, 1)]}


@pytest.mark.parametrize("D", [2, 64, 512])
@pytest.mark.parametrize("params", MODELS, ids=_model_id)
def test_diagonal_commutator_matches_dense_products(params, D):
    H = build_hamiltonian(params, D)
    for n, m in COMMUTATOR_PAIRS[D]:
        try:
            lam = build_lambda(params, LambdaIndex(n, m), D)
        except DomainError:
            continue  # q = 2 at D = 512: the operator itself overflows
        for X in (lam, lam.dagger()):
            for j in range(1, 7):
                want = ref_commutator(H.matrix, X.matrix)
                if not np.isfinite(want).all():
                    with pytest.raises(DomainError):
                        commutator(H, X)
                    break
                X = commutator(H, X)
                assert np.array_equal(X.matrix, want), (n, m, j)
                assert X.margin == lam.margin  # H has margin 0


def test_nearly_diagonal_operand_takes_the_dense_products():
    params = QOsc(q=1.2)
    D = 64
    H = build_hamiltonian(params, D).matrix.copy()
    H[3, 17] = 1e-300
    A = FockOperator(H)
    lam = build_lambda(params, LambdaIndex(2, 1), D)
    assert np.array_equal(commutator(A, lam).matrix, ref_commutator(H, lam.matrix))
    # the element-wise form drops the 1e-300 entry's products
    d = np.diag(H)
    elementwise = d[:, None] * lam.matrix - lam.matrix * d[None, :]
    assert not np.array_equal(commutator(A, lam).matrix, elementwise)


@pytest.mark.parametrize("params", MODELS, ids=_model_id)
def test_ladder_commutator_unchanged(params):
    a, adag = build_ladder(params, 64)
    got = commutator(a, adag)
    assert np.array_equal(got.matrix, ref_commutator(a.matrix, adag.matrix))
    assert got.margin == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_commutator_raises_domain_error():
    params = QOsc(q=2.0)
    H = build_hamiltonian(params, 96)
    lam = build_lambda(params, LambdaIndex(1, 1), 96)
    with pytest.raises(DomainError):
        for _ in range(10):
            lam = commutator(H, lam)
    # the dense-product path refuses an overflowing product the same way
    big = FockOperator(np.full((4, 4), 1e200, dtype=complex))
    with pytest.raises(DomainError):
        commutator(big, FockOperator(np.triu(big.matrix)))


def ref_trace_rows(time_col, times, values):
    """The evolve command's per-row formatter: one scalar at a time."""
    fmt = lambda x: repr(float(x))  # noqa: E731
    rows = [f"{time_col},re,im,abs,arg"]
    for t, v in zip(times, values):
        cells = [t, v.real, v.imag, abs(v), np.angle(v)]
        rows.append(",".join(fmt(x) for x in cells))
    return "\n".join(rows) + "\n"


def ref_trace_json(time_col, times, values):
    payload = [
        {
            time_col: float(t),
            "re": v.real,
            "im": v.imag,
            "abs": abs(v),
            "arg": float(np.angle(v)),
        }
        for t, v in zip(times, values)
    ]
    return json.dumps(payload, indent=2) + "\n"


REF_TRACE = {"csv": ref_trace_rows, "json": ref_trace_json}


def _around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# signed zeros, the least subnormal, and the floats at and on either side of
# each switch of spelling: repr's between positional and exponent form (1e16
# and 1e-4), and those of the CSV writer's digits between fixed and exponent
# form (1e-5), between one- and two-digit exponents (1e-10) and to exponents
# that need a sign (1e16)
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, *_around(1e16), *_around(1e-5), 9.999999999999999e-05,
    1e-4, *_around(1e-10), 1.5e-07, 1.5e300,
]  # fmt: skip


def _hard_trace():
    """Values where np.abs differs from the scalar abs in many entries, with
    every pair of EDGE_FLOATS as (re, im) in the first and the last rows,
    over more rows than three CSV blocks and not a whole number of them."""
    rng = np.random.default_rng(5)
    size = 3 * cli._CSV_BLOCK + 1000
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    edges = [complex(x, y) for x in EDGE_FLOATS for y in EDGE_FLOATS]
    values[: len(edges)] = edges
    values[-len(edges) :] = edges[::-1]
    times = np.concatenate(([-0.0], np.cumsum(rng.uniform(0.1, 1.0, size - 1))))
    times[-len(EDGE_FLOATS) :] = EDGE_FLOATS
    return times, values


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_writer_matches_per_row_formatter(tmp_path, fmt):
    times, values = _hard_trace()
    assert (np.abs(values) != np.array([abs(v) for v in values])).any()
    out = tmp_path / f"trace.{fmt}"
    cli._write_trace(str(out), fmt, "t", times, values)
    assert out.read_text() == REF_TRACE[fmt]("t", times, values)


def ref_csv_text(columns):
    """The CSV writer's rows without a header, one repr per cell."""
    rows = zip(*(c.tolist() for c in columns))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _csv_body(columns):
    buf = io.StringIO()
    cli._write_csv(buf, [f"c{i}" for i in range(len(columns))], columns)
    return buf.getvalue().split("\n", 1)[1]


def _decades(rng):
    """Each power of ten from the least subnormal to the largest double, its
    neighbours and random mantissas of its decade, in both signs."""
    values = [5e-324, sys.float_info.max]
    for e in range(-323, 309):
        p = float(f"1e{e}")
        values += _around(p) + [float(f"{m!r}e{e}") for m in rng.uniform(1.0, 10.0, 20).tolist()]
    values = np.array([v for v in values if math.isfinite(v)])
    return np.concatenate([values, -values])


def test_csv_writer_spells_every_float_as_repr():
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    patterns = bits.view(float)
    patterns = patterns[np.isfinite(patterns)]
    special = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
    values = np.concatenate([special, EDGE_FLOATS, _decades(rng), patterns])
    values = values[: len(values) // 3 * 3]
    # three columns: cells are spelled first, inside and last in a row
    columns = [values[0::3], values[1::3], values[2::3]]
    assert len(columns[0]) > 2 * cli._CSV_BLOCK
    got, want = _csv_body(columns).split("\n"), ref_csv_text(columns).split("\n")
    # the first few differing rows, not a diff of a 40 MB text
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_csv_writer_spells_finite_floats_as_repr(rows):
    columns = [np.array(c, dtype=float) for c in zip(*rows)]
    assert _csv_body(columns) == ref_csv_text(columns)


# (flags, the dynamics function the command calls, time column)
EVOLVE_RUNS = {
    "qosc-series": (["--model", "qosc", "--q", "1.3"], evolve_q_expectation, "tau"),
    "anharmonic-closed": (["--model", "anharmonic"], evolve_anharmonic_closed, "t"),
    "anharmonic-series": (["--model", "anharmonic"], evolve_anharmonic_expectation, "t"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("run", list(EVOLVE_RUNS), ids=list(EVOLVE_RUNS))
def test_evolve_file_matches_per_row_formatter(tmp_path, run, fmt):
    flags, evolve, time_col = EVOLVE_RUNS[run]
    out = tmp_path / f"trace.{fmt}"
    method = run.split("-")[1]
    args = ["evolve", *flags, "--method", method, "--alpha-re", "1.1",
            "--alpha-im", "-0.6", "--n", "2", "--m", "1", "--steps", "3001",
            "--format", fmt, "--out", str(out)]  # fmt: skip
    assert cli.main(args) == 0
    cfg = cli.DEFAULTS["evolve"]
    anharmonic = Anharmonic(cfg["omega1"], cfg["omega2"])
    params = QOsc(q=1.3) if run.startswith("qosc") else anharmonic
    grid = np.linspace(0.0, cfg["tau_max"], 3001)
    ts = evolve(params, complex(1.1, -0.6), LambdaIndex(2, 1), grid)
    assert out.read_text() == REF_TRACE[fmt](time_col, ts.times, ts.values)


def ref_collapse_text(params, j_col, pairs, taus):
    """The collapse command's per-row formatter."""
    fmt = lambda x: repr(float(x))  # noqa: E731
    curves = [band_phase_trace(params, LambdaIndex(n, m), j_col, taus) for n, m in pairs]
    normalized = collapse_transform(curves)
    rows = [",".join(["tau"] + [f"n{n}_m{m}" for n, m in pairs])]
    for i, tau in enumerate(taus):
        rows.append(",".join([fmt(tau)] + [fmt(c[i]) for c in normalized]))
    stacked = np.vstack(normalized)
    max_dev = float(np.max(np.abs(stacked[:, None, :] - stacked[None, :, :])))
    rows.append(
        ",".join(["max_pairwise_deviation", fmt(max_dev)] + [""] * (len(pairs) - 1))
    )
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("steps", [1, 2001, cli._CSV_BLOCK + 7, 4 * cli._CSV_BLOCK + 7])
def test_collapse_file_matches_per_row_formatter(tmp_path, steps):
    out = tmp_path / "collapse.csv"
    args = ["collapse", "--q", "2.0", "--j-col", "3", "--n-list", "1,2,3",
            "--m-list", "0,2", "--tau-max", "0.5", "--steps", str(steps),
            "--out", str(out)]  # fmt: skip
    assert cli.main(args) == 0
    pairs = [(n, m) for n in (1, 2, 3) for m in (0, 2)]
    taus = np.linspace(0.0, 0.5, steps)
    assert out.read_text() == ref_collapse_text(QOsc(q=2.0), 3, pairs, taus)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(
        np.atleast_1d(a).view(np.uint64), np.atleast_1d(b).view(np.uint64)
    )


def _unit_cis(x):
    """_table_cis of the angles x at rate 1: at |x| <= pi it takes n = 0,
    so its last step is cos x + i sin x of x itself."""
    return _table_cis(np.asarray(x, dtype=float), np.ones(1), np.zeros(1))[:, 0]


@pytest.mark.parametrize("c", [0.0, 1e-300, 0.2, 1.0, 11.0, 416.0, 3.1e5, 7.3e12])
def test_cis_has_the_bits_of_the_complex_exponential(c):
    t = np.concatenate(
        ([0.0, -0.0, np.pi, -np.pi], np.linspace(-np.pi, np.pi, 20001), np.linspace(-1.0, 1.0, 999))
    )
    x = np.clip(c * (t / max(c, 1.0)), -np.pi, np.pi)
    assert _same_bits(_unit_cis(x), np.exp(1j * x))


def test_cis_keeps_the_sign_of_zero_of_the_complex_exponential():
    x = np.array([-0.0, 0.0, -1e-320, 1e-320, -np.pi, np.pi])
    want = np.exp(1j * x)
    assert np.signbit(want.imag[0]) == False  # noqa: E712 -- 1j * -0.0 is +0j
    assert _same_bits(_unit_cis(x), want)
    assert _same_bits(_unit_cis([-0.0]), np.exp(1j * np.array([-0.0])))


def ref_anharmonic_closed(params, alpha, n, m, ts):
    """The closed-form anharmonic trace as it was: np.exp phases of the
    double products c_same t and c_up t, the powers rot**r of its polynomial
    and out-of-place products."""
    a2 = abs(alpha) ** 2
    c_same = n * params.omega1 + n * n * params.omega2
    c_up = 2.0 * n * params.omega2
    rot = np.exp(1j * c_up * ts)
    poly = np.zeros_like(ts, dtype=complex)
    for r in range(m + 1):
        poly += stirling2(r, m) * a2**r * rot**r
    return np.conj(alpha) ** n * np.exp(1j * c_same * ts) * np.exp(a2 * (rot - 1.0)) * poly


def mp_anharmonic_closed(params, alpha, n, m, t):
    """The closed form at 40 digits with the double rates of _closure_rates,
    the double |alpha|^2 and the exact phases (c_same + c_up r) t_j, rounded
    once to complex."""
    c_same, c_up = _closure_rates(params, n)
    with mpmath.workdps(40):
        a2 = mpmath.mpf(abs(complex(alpha)) ** 2)
        coeffs = [mpmath.mpf(stirling2(r, m)) * a2**r for r in range(m + 1)]
        head = mpmath.mpc(np.conj(alpha)) ** n
        out = []
        for tj in t:
            rot = _mp_cis(0.0, c_up, 1.0, tj)
            poly = mpmath.fsum(ck * _mp_cis(c_same, c_up, r, tj) for r, ck in enumerate(coeffs))
            out.append(complex(head * mpmath.exp(a2 * (rot - 1)) * poly))
    return np.array(out)


def _closed_scale(alpha, m):
    """sum_r S(r, m) |alpha|^{2r}, which times |alpha|^n bounds every |value|
    of the closed form (positive coefficients, |exp[a2 (rot - 1)]| <= 1)."""
    a2 = abs(alpha) ** 2
    return math.fsum(stirling2(r, m) * a2**r for r in range(m + 1))


CLOSED_MODELS = [Anharmonic(10.0, 1.0), Anharmonic(10.0, 0.1), Anharmonic(3.7, 0.2),
                 Anharmonic(1.0, 0.0)]  # fmt: skip
CLOSED_ALPHAS = [0.8, complex(1.1, -0.6), 3j, 30.0]
CLOSED_GRIDS = {
    "nonuniform [0,20]": np.concatenate(
        ([0.0], np.sort(np.random.default_rng(3).uniform(0.0, 20.0, 2000)))
    ),
    "[5e4,1e5]": np.linspace(5e4, 1e5, 200_001),
}


# The closed form takes its r-sum, global phase included, and e^{i c_up t}
# from _phase_sum, every angle reduced mod 2 pi in double-double. As double
# products c_same t and c_up t they were up to 2.3e-10 off at omega2 = 0.1
# and 1.1e-10 at (3.7, 0.2), |alpha| = 3, on the long grid. |alpha|^2 times
# the rounding of e^{i c_up t} enters the exponent: one rounding on the
# one-point blocks of the nonuniform grid, and on the long grid's blocks the
# product of two tables, (2 pi + 8) u by _phase_sum's bound.
@pytest.mark.parametrize("grid_id", list(CLOSED_GRIDS))
@pytest.mark.parametrize("alpha", CLOSED_ALPHAS, ids=repr)
@pytest.mark.parametrize("params", CLOSED_MODELS, ids=_series_id)
def test_closed_trace_matches_mpmath(params, alpha, grid_id):
    grid = CLOSED_GRIDS[grid_id]
    a2 = abs(alpha) ** 2
    if a2 <= 9.0:
        tol = 1e-14
    elif grid_id.startswith("nonuniform"):
        tol = 1e-13
    else:
        tol = a2 * (2 * math.pi + 8) * 2.0**-53
    for n, m in NM:
        got = evolve_anharmonic_closed(params, alpha, LambdaIndex(n, m), grid).values
        # the whole grid, its end and the largest values, near the revivals
        rows = set(np.linspace(0, len(grid) - 1, 16).astype(int).tolist())
        rows |= set(range(len(grid) - 4, len(grid))) | set(np.argsort(np.abs(got))[-8:].tolist())
        rows = sorted(rows)
        want = mp_anharmonic_closed(params, alpha, n, m, grid[rows])
        err = np.abs(got[rows] - want).max() / (abs(alpha) ** n * _closed_scale(alpha, m))
        assert err <= tol, (n, m, err)


# The np.exp form rounds its angles c_same t and c_up t once each, and its
# powers rot**r carry r times the rounding of rot; |alpha|^2 times that of rot
# enters the exponent. So the two forms drift apart as eps t_max times
# |c_same| + (|alpha|^2 + m) c_up, plus eps per product and per term.
@pytest.mark.parametrize("alpha", CLOSED_ALPHAS, ids=repr)
@pytest.mark.parametrize("params", CLOSED_MODELS, ids=_series_id)
def test_closed_trace_follows_the_exp_form_within_phase_drift(params, alpha):
    grid = CLOSED_GRIDS["nonuniform [0,20]"]
    a2 = abs(alpha) ** 2
    for n, m in NM:
        got = evolve_anharmonic_closed(params, alpha, LambdaIndex(n, m), grid).values
        old = ref_anharmonic_closed(params, alpha, n, m, grid)
        err = np.abs(got - old).max() / (abs(alpha) ** n * _closed_scale(alpha, m))
        c_same, c_up = _closure_rates(params, n)
        drift = (abs(c_same) + (a2 + m) * abs(c_up)) * grid.max() + 2 * a2 + 2 * m + 8
        bound = np.finfo(float).eps * drift
        assert err <= bound, (n, m, err, bound)


def ref_suite_closure(D, nm_max=4):
    """Worst closure residual per model from the dense right-hand side."""
    worst_per_model = []
    for params in verify._closure_models():
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
        worst_per_model.append(float(worst))
    return worst_per_model


def ref_iterated_vs_closed(params, closed_form, D, j_max=6, nm_max=3):
    """Worst residual of a dense closed form against the iterated commutator."""
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
    return float(worst)


def ref_normal_order(q, D, M_max=5, n_max=3):
    params = QOsc(q=q)
    worst = 0.0
    for n in range(n_max + 1):
        for M in range(M_max + 1):
            lam = build_lambda(params, LambdaIndex(n, M), D)
            ordered = normal_order_matrix(params, LambdaIndex(n, M), D)
            worst = np.maximum(
                worst, interior_rel_error(lam.matrix, ordered.matrix, D - 1 - n - M)
            )
    return float(worst)


def _residuals(results):
    return [r.max_residual for r in results]


@pytest.mark.parametrize("D", [24, 64])
def test_band_suites_keep_the_dense_residuals(D):
    assert _residuals(verify.suite_closure(D)) == ref_suite_closure(D)
    multicommutator_models = [QOsc(q=1.2), QOsc(q=2.0), Anharmonic(10.0, 1.0)]
    assert _residuals(verify.suite_multicommutator(D)) == [
        ref_iterated_vs_closed(p, expansion_matrix, D) for p in multicommutator_models
    ]
    assert _residuals(verify.suite_power_law(D)) == [
        ref_iterated_vs_closed(QOsc(q=q), power_law_multicommutator, D)
        for q in (0.5, 1.2, 2.0)
    ]
    assert _residuals(verify.suite_normal_order(D // 2)) == [
        ref_normal_order(q, D // 2) for q in verify.Q_GRID
    ]
