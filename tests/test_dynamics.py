import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qdosc import (
    Anharmonic,
    ConvergenceError,
    DomainError,
    LambdaIndex,
    PhaseUnwrapError,
    QOsc,
    band_phase_trace,
    collapse_transform,
    evolve_anharmonic_closed,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
    q_stirling2,
    relation_identity_residual,
    scaling_phase_check,
)
from qdosc.dynamics import PhaseCurve, TimeSeries, _phase_sum
from qdosc.fock import build_hamiltonian, build_lambda, heisenberg_evolve
from qdosc.verify import oracle_expectation_series

ANH = Anharmonic(omega1=10.0, omega2=1.0)
TAUS = np.linspace(0.0, 10.0, 101)


class TestQExpectation:
    def test_normalization_index(self):
        ts = evolve_q_expectation(QOsc(q=1.3), 0.8, LambdaIndex(0, 0), TAUS)
        np.testing.assert_allclose(ts.values, 1.0)

    def test_static_moment_via_stirling(self):
        # tau = 0 value equals (alpha*)^n sum_r S_q^{r,m} |alpha|^{2r}
        params = QOsc(q=1.2)
        alpha = 0.8
        for n, m in [(1, 1), (2, 3), (0, 2)]:
            ts = evolve_q_expectation(params, alpha, LambdaIndex(n, m), np.array([0.0]))
            want = np.conj(alpha) ** n * math.fsum(
                q_stirling2(r, m, params.q) * abs(alpha) ** (2 * r)
                for r in range(m + 1)
            )
            assert ts.values[0] == pytest.approx(want, rel=1e-10)

    def test_matches_matrix_oracle(self):
        params = QOsc(q=1.2)
        alpha = 0.8
        idx = LambdaIndex(1, 1)
        ts = evolve_q_expectation(params, alpha, idx, TAUS)
        oracle = oracle_expectation_series(params, alpha, idx, TAUS, D=64)
        np.testing.assert_allclose(ts.values, oracle, atol=1e-10)

    def test_m_zero_modulus_bounded(self):
        params = QOsc(q=1.4)
        alpha = 0.8
        for n in (1, 2, 3):
            ts = evolve_q_expectation(params, alpha, LambdaIndex(n, 0), TAUS)
            mags = np.abs(ts.values)
            assert np.all(mags <= abs(alpha) ** n + 1e-12)
            assert mags[0] == pytest.approx(abs(alpha) ** n, rel=1e-12)

    def test_radius_rejected(self):
        with pytest.raises(ConvergenceError):
            evolve_q_expectation(QOsc(q=0.5), 1.5, LambdaIndex(1, 0), TAUS)


class TestAmplitudeDomain:
    """A non-finite alpha, or one whose |alpha|^2 leaves double precision, is
    refused by every public evolve function before any weight is formed."""

    EVOLVE = [
        (evolve_q_expectation, QOsc(q=1.2)),
        (evolve_anharmonic_expectation, ANH),
        (evolve_anharmonic_closed, ANH),
    ]

    @pytest.mark.parametrize("evolve, params", EVOLVE, ids=["q", "series", "closed"])
    @pytest.mark.parametrize(
        "alpha", [math.inf, math.nan, complex(0.0, math.inf), 1e200, complex(1e300, 1e300)],
        ids=repr,
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused(self, evolve, params, alpha):
        with pytest.raises(DomainError, match="alpha"):
            evolve(params, alpha, LambdaIndex(1, 0), TAUS)

    @pytest.mark.parametrize("evolve, params", EVOLVE, ids=["q", "series", "closed"])
    def test_n_zero_m_zero_refused_too(self, evolve, params):
        with pytest.raises(DomainError):
            evolve(params, math.nan, LambdaIndex(0, 0), TAUS)


def test_time_series_refuses_non_finite_values():
    # so no evolve function returns an inf or NaN value
    times = np.arange(3.0)
    for bad in (math.inf, math.nan, complex(0.0, -math.inf)):
        with pytest.raises(DomainError, match="1 of 3"):
            TimeSeries(times, np.array([1.0, bad, 0.5j]), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_time_series_names_non_finite_times(bad):
    # a NaN time makes its value NaN too; the error names the time
    with pytest.raises(DomainError, match="times must be finite"):
        TimeSeries(np.array([bad]), np.array([complex(bad)]), 0.0)
    with pytest.raises(DomainError, match="times must be finite"):
        evolve_anharmonic_closed(ANH, 0.8, LambdaIndex(1, 0), [0.0, bad])


def test_time_series_fields():
    assert [f.name for f in dataclasses.fields(TimeSeries)] == [
        "times", "values", "truncation_tail"
    ]  # fmt: skip
    ts = evolve_anharmonic_closed(ANH, 0.8, LambdaIndex(1, 0), TAUS)
    assert ts.truncation_tail == 0.0 and ts.times.shape == ts.values.shape


class TestAnharmonicExpectation:
    def test_constants_of_motion(self):
        ts = evolve_anharmonic_expectation(ANH, 0.8, LambdaIndex(0, 2), TAUS)
        np.testing.assert_allclose(ts.values, ts.values[0], atol=1e-13)

    def test_harmonic_limit_is_single_phase(self):
        params = Anharmonic(omega1=3.0, omega2=0.0)
        alpha = 0.8
        n, m = 2, 1
        ts = evolve_anharmonic_expectation(params, alpha, LambdaIndex(n, m), TAUS)
        static = ts.values[0]
        want = static * np.exp(1j * n * params.omega1 * TAUS)
        np.testing.assert_allclose(ts.values, want, atol=1e-12)

    def test_revival_periodicity(self):
        # values at t and t + pi/omega2 differ by a fixed global phase
        alpha = 0.8
        n, m = 1, 2
        period = math.pi / ANH.omega2
        t0 = np.linspace(0.0, 2.0, 40)
        a = evolve_anharmonic_expectation(ANH, alpha, LambdaIndex(n, m), t0)
        b = evolve_anharmonic_expectation(ANH, alpha, LambdaIndex(n, m), t0 + period)
        phase = np.exp(1j * (n * ANH.omega1 + n * n * ANH.omega2) * period)
        np.testing.assert_allclose(b.values, phase * a.values, atol=1e-10)

    def test_matches_matrix_oracle(self):
        alpha = 0.8
        idx = LambdaIndex(1, 1)
        ts = evolve_anharmonic_expectation(ANH, alpha, idx, TAUS)
        oracle = oracle_expectation_series(ANH, alpha, idx, TAUS, D=64)
        np.testing.assert_allclose(ts.values, oracle, atol=1e-10)


class TestAnharmonicClosed:
    def test_m_zero_form(self):
        alpha = 0.8
        n = 2
        ts = evolve_anharmonic_closed(ANH, alpha, LambdaIndex(n, 0), TAUS)
        a2 = abs(alpha) ** 2
        c1 = n * ANH.omega1 + n * n * ANH.omega2
        rot = np.exp(2j * n * ANH.omega2 * TAUS)
        want = np.conj(alpha) ** n * np.exp(1j * c1 * TAUS) * np.exp(a2 * (rot - 1.0))
        np.testing.assert_allclose(ts.values, want, atol=1e-13)

    def test_static_value(self):
        alpha = 0.8
        m = 3
        ts = evolve_anharmonic_closed(ANH, alpha, LambdaIndex(1, m), np.array([0.0]))
        want = np.conj(alpha) * math.fsum(
            q_stirling2(r, m, 1.0) * abs(alpha) ** (2 * r) for r in range(m + 1)
        )
        assert ts.values[0] == pytest.approx(want, rel=1e-12)

    def test_agrees_with_series(self):
        alpha = 0.8
        for n, m in [(0, 1), (1, 0), (2, 3), (3, 2)]:
            closed = evolve_anharmonic_closed(ANH, alpha, LambdaIndex(n, m), TAUS)
            series = evolve_anharmonic_expectation(ANH, alpha, LambdaIndex(n, m), TAUS)
            np.testing.assert_allclose(closed.values, series.values, atol=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_time_refused_as_the_series_is(self):
        # the phase angles c t at t = 1e300 overflow their double-double
        # reduction, so no value has a correct digit: both forms refuse
        grid = np.array([0.0, 5e299, 1e300])
        for evolve in (evolve_anharmonic_expectation, evolve_anharmonic_closed):
            for n, m in [(1, 0), (2, 3)]:
                with pytest.raises(DomainError, match="overflow double precision"):
                    evolve(ANH, 0.8, LambdaIndex(n, m), grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_long_grid_refused_where_no_digit_is_left(self):
        # the double-double remainder 36 u^2 W t_max reaches 1 rad at
        # t_max = 2^106 / 36 for W = |rate0| + |rate| max|r_k| = 1
        r, c, edge = np.array([0.0, 1.0]), np.ones(2), 2.0**106 / 36.0
        for size in (None, 1):
            kept = _phase_sum(1.0, np.array([0.0, 0.99 * edge]), r, c, 0.0, size)
            assert np.isfinite(kept).all()
            with pytest.raises(DomainError, match="keep no correct digit"):
                _phase_sum(1.0, np.array([0.0, 1.01 * edge]), r, c, 0.0, size)
            with pytest.raises(DomainError, match="overflow double precision"):
                _phase_sum(1e-300, np.array([0.0, 1e300]), r, c, 0.0, size)

    def test_huge_m_refused_before_the_stirling_row(self):
        # S(2, m) = 2^(m-1) - 1 leaves double precision from m = 1025 on; the
        # exact row S(0..m, m) would take O(m^2) big-integer additions
        start = time.perf_counter()
        with pytest.raises(DomainError, match="m=100000"):
            evolve_anharmonic_closed(ANH, 0.8, LambdaIndex(1, 100_000), TAUS)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "evolve, params, amp",
    [
        (evolve_anharmonic_expectation, ANH, 3.0),
        (evolve_q_expectation, QOsc(q=1.1), 3.0),
        (evolve_anharmonic_expectation, ANH, 300.0),
        (evolve_q_expectation, QOsc(q=1.0 + 1e-9), 300.0),
    ],
    ids=["anharmonic", "q", "anharmonic-300", "q=1+1e-9-300"],
)
def test_series_memory_is_linear_in_grid(evolve, params, amp):
    # a T x K phase matrix would hold about K = 43 complex vectors here at
    # |alpha| = 3, and K = 6818 at |alpha| = 300
    T = 200_000
    grid = np.linspace(0.0, 4.0 * math.pi, T)
    evolve(params, amp, LambdaIndex(2, 2), grid[:10])
    tracemalloc.start()
    try:
        evolve(params, amp, LambdaIndex(2, 2), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * T


def _peak_in_complex_vectors(run, T=200_000):
    """The tracemalloc peak of run(grid) on a T-point grid, in complex
    T-vectors, after a warm-up on its first points."""
    grid = np.linspace(0.0, 4.0 * math.pi, T)
    run(grid[:10])
    tracemalloc.start()
    try:
        run(grid)
        return tracemalloc.get_traced_memory()[1] / (16 * T)
    finally:
        tracemalloc.stop()


def test_phase_sum_holds_its_result_d_and_one_tile():
    # the result (1), d (0.5), one slope tile (0.16) and small tables, at
    # T = 2e5; the whole-grid value and slope sums peaked at 2.55
    run = lambda g: _phase_sum(1.0, g, np.ones(1), np.ones(1), 0.0)  # noqa: E731
    assert _peak_in_complex_vectors(run) <= 2.0


@pytest.mark.parametrize("amp, idx", [(0.8, (1, 0)), (3.0, (2, 2)), (30.0, (1, 3))])
def test_closed_form_memory_is_three_complex_vectors(amp, idx):
    # the r-sum held while e^{i c_up t} is summed, about 2.7 at T = 2e5;
    # the whole-grid sums peaked at 3.56
    run = lambda g: evolve_anharmonic_closed(ANH, amp, LambdaIndex(*idx), g)  # noqa: E731
    assert _peak_in_complex_vectors(run) <= 3.0


class TestLargeAmplitude:
    """|alpha| = 30, 300 and 1000: the Poisson weights peak near
    |alpha|^(2k)/k! at k = |alpha|^2, far beyond double precision, so they
    are taken relative to the mode over a window about 18 |alpha| wide.
    Kerr collapse and revival at large amplitude: Yurke & Stoler, PRL 57,
    13 (1986)."""

    T_GRID = np.linspace(0.0, 10.0, 20001)

    @pytest.mark.parametrize("m", [0, 2])
    def test_series_matches_closed_form(self, m):
        idx = LambdaIndex(1, m)
        for amp in (30.0, 300.0, 1000.0):
            series = evolve_anharmonic_expectation(ANH, amp, idx, self.T_GRID).values
            closed = evolve_anharmonic_closed(ANH, amp, idx, self.T_GRID).values
            assert np.isfinite(series).all()
            err = np.abs(series - closed).max() / np.abs(closed).max()
            assert err <= 1e-10, (amp, err)

    def test_relation_residual_refuses_overflowing_sum(self):
        # exp(800) is beyond double precision; the weights are not
        with pytest.raises(DomainError):
            relation_identity_residual(800.0, 1.0, 1)

    def test_relation_residual_past_rescale(self):
        # the largest term of exp(650) is near 1e280, the sum stays finite
        assert relation_identity_residual(650.0, 1.0, 2) < 1e-10


class TestRelationIdentity:
    def test_m_zero_exact(self):
        assert relation_identity_residual(1.5, 1.3, 0) < 1e-14

    def test_classical_first_moment(self):
        # sum k x^k/k! = x e^x at q = 1, m = 1
        assert relation_identity_residual(1.0, 1.0, 1) < 1e-13

    @pytest.mark.parametrize("m", range(6))
    def test_deformed(self, m):
        assert relation_identity_residual(2.0, 1.2, m) < 1e-10

    def test_radius_rejected(self):
        with pytest.raises(ConvergenceError):
            relation_identity_residual(2.0, 0.5, 1)

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.2, 2.0])
    def test_origin_is_exact(self, q, m):
        # at x = 0 both sides are exactly 0 for m >= 1, as both are 1 at m = 0
        assert relation_identity_residual(0.0, q, m) == 0.0


class TestCollapse:
    def test_single_unit_curve(self):
        params = QOsc(q=1.5)
        taus = np.linspace(0.0, 5.0, 200)
        tr = band_phase_trace(params, LambdaIndex(1, 0), 0, taus)
        (norm,) = collapse_transform([tr])
        np.testing.assert_allclose(norm, taus, atol=1e-12)

    def test_collapse_across_n(self):
        params = QOsc(q=1.5)
        taus = np.linspace(0.0, 10.0, 2001)
        curves = [
            band_phase_trace(params, LambdaIndex(n, 0), 0, taus) for n in (1, 2, 3)
        ]
        normed = collapse_transform(curves)
        for c in normed:
            np.testing.assert_allclose(c, taus, atol=1e-9)

    def test_pairwise_deviation(self):
        params = QOsc(q=1.2)
        taus = np.linspace(0.0, 10.0, 2001)
        curves = [
            band_phase_trace(params, LambdaIndex(n, m), 1, taus)
            for n in (1, 2, 3)
            for m in (0, 1, 2)
        ]
        normed = collapse_transform(curves)
        stacked = np.vstack(normed)
        assert np.max(np.abs(stacked - stacked[0])) < 1e-9

    @pytest.mark.parametrize("q", [1.2, 2.0])
    @pytest.mark.parametrize("j_col", [0, 1, 3])
    def test_collapsed_curves_lie_within_a_few_ulp_of_the_line(self, q, j_col):
        # the scaling suite's grid: 2000 wrapped steps, unwrapped by whole
        # turns, keep each curve within 4 ulp of its largest value
        taus = np.linspace(0.0, 10.0, 2001)
        pairs = [(n, m) for n in (1, 2, 3) for m in (0, 1, 2) if not (m and j_col == 0)]
        curves = [band_phase_trace(QOsc(q=q), LambdaIndex(n, m), j_col, taus) for n, m in pairs]
        ulp = np.spacing(taus[-1] * q**j_col)
        for (n, m), c in zip(pairs, collapse_transform(curves)):
            assert np.abs(c - taus * q**j_col).max() <= 4 * ulp, (n, m)

    def test_coarse_grid_refused(self):
        params = QOsc(q=2.0)
        taus = np.linspace(0.0, 10.0, 12)
        tr = band_phase_trace(params, LambdaIndex(3, 0), 3, taus)
        with pytest.raises(PhaseUnwrapError):
            collapse_transform([tr])

    def test_coarse_decreasing_grid_refused(self):
        # steps of -500 alias as much as steps of +500
        taus = np.linspace(0.0, -1000.0, 3)
        tr = band_phase_trace(QOsc(q=1.5), LambdaIndex(1, 0), 0, taus)
        with pytest.raises(PhaseUnwrapError, match="phase step 5.000e\\+02"):
            collapse_transform([tr])

    def test_fine_decreasing_grid_collapses(self):
        taus = np.linspace(0.0, -5.0, 200)
        tr = band_phase_trace(QOsc(q=1.5), LambdaIndex(1, 0), 0, taus)
        (norm,) = collapse_transform([tr])
        np.testing.assert_allclose(norm, taus, atol=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.2, 2.0])
    def test_matches_dense_band_entry(self, q):
        # the operator-free trace against the evolved entry of the dense
        # Lambda; a zero dense entry must be refused
        params = QOsc(q=q)
        D = 16
        H = build_hamiltonian(params, D)
        taus = np.array([0.0, 0.3, 1.7])
        for n in (1, 2, 3):
            for m in (0, 1, 2):
                lam = build_lambda(params, LambdaIndex(n, m), D)
                for j in range(5):
                    entry = lam.matrix[j + n, j]
                    if entry == 0:
                        with pytest.raises(DomainError):
                            band_phase_trace(params, LambdaIndex(n, m), j, taus)
                        continue
                    tr = band_phase_trace(params, LambdaIndex(n, m), j, taus)
                    dense = [
                        heisenberg_evolve(lam, H, t).matrix[j + n, j] / entry
                        for t in taus
                    ]
                    np.testing.assert_allclose(tr.values, dense, rtol=1e-12)

    @pytest.mark.parametrize("n, j_col", [(0, 1), (1, -1)])
    def test_outside_domain_rejected(self, n, j_col):
        with pytest.raises(DomainError):
            band_phase_trace(QOsc(q=1.2), LambdaIndex(n, 0), j_col, TAUS)

    def test_empty_grid_rejected(self):
        tr = band_phase_trace(QOsc(q=1.2), LambdaIndex(1, 0), 0, np.array([]))
        with pytest.raises(DomainError):
            collapse_transform([tr])

    def test_phases_with_no_correct_digit_refused(self):
        # at tau = 1e31 the double-double remainder 36 u^2 |rate| tau of the
        # angle, u = 2^-53, is 4.4 rad
        params, taus = QOsc(q=1.2), np.array([1e31, 1e31 * (1.0 + 2.0**-52)])
        with pytest.raises(DomainError, match="keep no correct digit"):
            band_phase_trace(params, LambdaIndex(1, 0), 0, taus)
        with pytest.raises(DomainError, match="keep no correct digit"):
            scaling_phase_check(params, 1, 0, 1e31, 0)
        # tau = 2^53 is kept, and so is a remainder just below 1 rad:
        # rate = [1]_q - [0]_q = 1
        taus = [2.0**53 * (1.0 - 2.0**-53), 0.99 * 2.0**106 / 36.0]
        tr = band_phase_trace(params, LambdaIndex(1, 0), 0, taus)
        assert np.isfinite(tr.values).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_tau_or_phase_refused(self, bad):
        # no silent NaN and no warning: 1e308 is finite, but Dekker's split
        # of its angle [3]_1.2 tau is not
        params, taus = QOsc(q=1.2), np.array([0.0, bad])
        with np.errstate(all="ignore"):
            values = np.exp(1j * 3.64 * taus)
        refusal = "overflow double precision" if math.isfinite(bad) else "must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=refusal):
                band_phase_trace(params, LambdaIndex(3, 0), 0, taus)
            with pytest.raises(DomainError, match=refusal):
                scaling_phase_check(params, 3, 0, taus, 0)
            with pytest.raises(DomainError, match="must be finite"):
                collapse_transform([PhaseCurve(taus, values, 3, 0, params.q, 0)])


class TestPhaseSplitRefusal:
    def test_refusal_names_the_rate_whose_split_overflows(self):
        # the rate [1021]_2 - [1020]_2 is near 1.1e307: its split overflows,
        # while the time span 1e-300 is tiny
        params, taus = QOsc(q=2.0), [0.0, 1e-300]
        with pytest.raises(DomainError) as refused:
            band_phase_trace(params, LambdaIndex(1, 0), 1020, taus)
        message = str(refused.value)
        assert message.startswith("phase angles overflow double precision: the rate = 1.1")
        assert message.endswith("e+307 has no finite Dekker split")
        assert "t=" not in message and "1.000e-300" not in message

    def test_refusal_names_the_time_span_whose_split_overflows(self):
        with pytest.raises(DomainError, match=r"the time span max\|t\| = 1\.000e\+308 "):
            band_phase_trace(QOsc(q=1.2), LambdaIndex(1, 0), 0, [0.0, 1e308])

    def test_refusal_names_the_terms_whose_split_overflows(self):
        r = np.array([1.0, 1e305])
        with pytest.raises(DomainError, match=r"max\|r_k\| = 1\.000e\+305 "):
            _phase_sum(1e-300, np.array([0.0, 1.0]), r, np.ones(2), 0.0)
