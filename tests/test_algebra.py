import warnings

import numpy as np
import pytest

from qdosc import (
    Anharmonic,
    DomainError,
    LambdaIndex,
    QOsc,
    band_phase_trace,
    closure_coeffs,
    expansion_scale,
    multicommutator_expansion,
    normal_order_expansion,
    q_number,
    scaling_phase_check,
)
from qdosc.algebra import expansion_matrix, normal_order_matrix, power_law_multicommutator
from qdosc.fock import (
    _ordered_products,
    _ordered_sum,
    build_hamiltonian,
    build_ladder,
    build_lambda,
    commutator,
)
from qdosc.verify import interior_rel_error, suite_normal_order

from one_series import one_series_sum

ANH = Anharmonic(omega1=10.0, omega2=1.0)


def iterated_commutator(H, O, j):
    """[H, ... [H, O] ... ], j-fold, as a dense matrix."""
    for _ in range(j):
        O = commutator(H, O)
    return O.matrix


class TestClosureCoeffs:
    def test_q_model(self):
        cc = closure_coeffs(QOsc(q=1.2, omega=1.0), 1)
        assert cc.c_same == pytest.approx(1.0, rel=1e-14)
        assert cc.c_up == pytest.approx(0.2, rel=1e-12)

    def test_anharmonic(self):
        cc = closure_coeffs(ANH, 1)
        assert cc.c_same == pytest.approx(11.0)
        assert cc.c_up == pytest.approx(2.0)

    def test_constants_of_motion(self):
        for params in (QOsc(q=1.7), ANH):
            cc = closure_coeffs(params, 0)
            assert cc.c_same == 0.0 and cc.c_up == 0.0

    def test_negative_n_rejected(self):
        for params in (QOsc(q=1.7), ANH):
            for fn in (closure_coeffs, expansion_scale):
                with pytest.raises(DomainError):
                    fn(params, -1)


class TestExpansion:
    def test_depth_zero(self):
        terms = multicommutator_expansion(QOsc(q=1.5), 2, 1, 0)
        assert terms == [(0, 1.0 + 0.0j)]

    def test_depth_one_reproduces_closure(self):
        params = QOsc(q=1.5)
        cc = closure_coeffs(params, 2)
        terms = multicommutator_expansion(params, 2, 0, 1)
        coeffs = {k: c for k, c in terms}
        assert coeffs[0] == pytest.approx(cc.c_same, rel=1e-13)
        assert coeffs[1] == pytest.approx(cc.c_up, rel=1e-13)

    def test_q_at_or_below_one_rejected(self):
        for q in (1.0, 0.7):
            with pytest.raises(DomainError):
                multicommutator_expansion(QOsc(q=q), 1, 0, 2)

    def test_harmonic_degenerates_to_single_term(self):
        terms = multicommutator_expansion(Anharmonic(omega1=3.0, omega2=0.0), 2, 0, 4)
        assert len(terms) == 1
        assert terms[0].coeff == pytest.approx((2 * 3.0) ** 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coefficients_beyond_double_precision_raise_domain_error(self):
        # c_same^(j-k) beyond double precision, and C(j, k) beyond it while
        # the rate powers are small
        tiny = Anharmonic(omega1=1e-3, omega2=1e-3)
        for fn, args in [
            (multicommutator_expansion, (QOsc(q=2.0), 60, 0, 20)),
            (expansion_matrix, (QOsc(q=2.0), 60, 0, 20, 64)),
            (multicommutator_expansion, (tiny, 1, 0, 2000)),
        ]:
            with pytest.raises(DomainError, match="overflow double precision"):
                fn(*args)

    @pytest.mark.parametrize("params", [QOsc(q=1.3), ANH])
    def test_matches_iterated_commutator(self, params):
        D = 32
        H = build_hamiltonian(params, D)
        for n, m in [(1, 0), (2, 1), (3, 2)]:
            lam = build_lambda(params, LambdaIndex(n, m), D)
            for j in range(7):
                ref = iterated_commutator(H, lam, j)
                got = expansion_matrix(params, n, m, j, D).matrix
                assert interior_rel_error(ref, got, D - 1 - n) < 1e-9


    def test_dense_form_is_real(self):
        # the binomial coefficients are real, so their band is float64 like
        # every other band
        assert expansion_matrix(QOsc(q=1.5), 1, 1, 2, 12).matrix.dtype == np.float64


class TestPowerLaw:
    def test_depth_zero_is_lambda(self):
        params = QOsc(q=0.5)
        lam = build_lambda(params, LambdaIndex(1, 2), 8)
        got = power_law_multicommutator(params, 1, 2, 0, 8)
        np.testing.assert_allclose(got.matrix, lam.matrix)

    def test_vanishes_for_constant_of_motion(self):
        got = power_law_multicommutator(QOsc(q=1.4), 0, 2, 3, 8)
        np.testing.assert_allclose(got.matrix, np.zeros((8, 8)), atol=1e-14)

    def test_small_q_matches_iterated(self):
        params = QOsc(q=0.5)
        D, n, m, j = 32, 1, 1, 3
        H = build_hamiltonian(params, D)
        lam = build_lambda(params, LambdaIndex(n, m), D)
        ref = iterated_commutator(H, lam, j)
        got = power_law_multicommutator(params, n, m, j, D).matrix
        assert interior_rel_error(ref, got, D - 2 - n) < 1e-10


class TestScaling:
    def test_zero_time(self):
        assert scaling_phase_check(QOsc(q=1.3), 1, 0, 0.0, 2) == 0.0

    def test_spot_value(self):
        res = scaling_phase_check(QOsc(q=1.2), 1, 0, 0.7, 2)
        assert res < 1e-12

    def test_collapse_across_indices(self):
        params = QOsc(q=1.5)
        vals = [
            scaling_phase_check(params, n, m, 0.9, 2)
            for n in (1, 2, 3)
            for m in (0, 1, 2)
        ]
        assert max(vals) < 1e-9
        assert max(vals) - min(vals) < 1e-12

    def test_tau_array_gives_worst_point(self):
        params = QOsc(q=2.0)
        taus = np.linspace(0.0, 10.0, 21)
        worst = max(scaling_phase_check(params, 2, 1, float(t), 3) for t in taus)
        assert scaling_phase_check(params, 2, 1, taus, 3) == worst
        assert scaling_phase_check(params, 2, 1, np.array([]), 3) == 0.0

    def test_returns_the_float_of_the_one_curve_residual(self):
        # the residual as it was formed from one curve: its predicted phases
        # e^{i [n] q^j tau}, the worst circular distance to the measured
        # ones over tau, divided by [n]
        params, n, m, j_col = QOsc(q=1.2), 2, 1, 3
        nq, one = q_number(n, params.q), np.ones(1)
        for tau in (np.linspace(0.0, 10.0, 21), 0.7, np.array([])):
            taus = np.atleast_1d(np.asarray(tau, dtype=float))
            ratio = band_phase_trace(params, LambdaIndex(n, m), j_col, taus).values
            predicted = one_series_sum(nq * params.q**j_col, taus, one, one, 0.0, 1)
            delta = np.angle(ratio * np.conj(predicted))
            want = float(np.abs(delta).max(initial=0.0) / nq)
            got = scaling_phase_check(params, n, m, tau, j_col)
            assert type(got) is float
            assert got.hex() == want.hex()

    def test_vanishing_band_entry_rejected(self):
        with pytest.raises(DomainError):
            scaling_phase_check(QOsc(q=1.3), 1, 1, 0.5, 0)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            scaling_phase_check(QOsc(q=1.3), 0, 1, 0.5, 1)


class TestNormalOrder:
    def test_trivial_orders(self):
        assert normal_order_expansion(2, 0, 1.4) == [(0, 1.0)]
        got = normal_order_expansion(2, 1, 1.4)
        assert got[0] == (0, 0.0)
        assert got[1][1] == pytest.approx(1.0, rel=1e-13)

    def test_classical_row(self):
        coeffs = [c for _, c in normal_order_expansion(0, 3, 1.0)]
        np.testing.assert_allclose(coeffs, [0.0, 1.0, 3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.2, 2.0])
    def test_matrix_identity(self, q):
        params = QOsc(q=q)
        D = 24
        for n in (0, 1, 3):
            for M in (0, 2, 5):
                lam = build_lambda(params, LambdaIndex(n, M), D)
                ordered = normal_order_matrix(params, LambdaIndex(n, M), D)
                assert (
                    interior_rel_error(lam.matrix, ordered.matrix, D - 1 - n - M)
                    < 1e-9
                )

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.2, 2.0])
    def test_real_matrix_keeps_the_complex_bits(self, q):
        params, D = QOsc(q=q), 32
        a, adag = build_ladder(params, D)
        a, adag = a.matrix.astype(complex), adag.matrix.astype(complex)
        power = np.linalg.matrix_power
        for n in range(4):
            for M in range(6):
                want = np.zeros((D, D), dtype=complex)
                for s, coeff in normal_order_expansion(n, M, q):
                    want += coeff * (power(adag, n + s) @ power(a, s))
                got = normal_order_matrix(params, LambdaIndex(n, M), D).matrix
                assert got.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), want.real.view(np.uint64))
                assert not want.imag.any()

    def test_overflowing_ladder_powers_raise_domain_error_without_warning(self):
        # at q = 2, D = 512 the entries of (a†)^8 pass 1e308; matrix_power
        # used to warn of the overflow before the suite refused it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="ladder powers overflow"):
                normal_order_matrix(QOsc(q=2.0), LambdaIndex(3, 5), 512)
            with pytest.raises(DomainError, match="ladder powers overflow"):
                suite_normal_order(512)

    def test_overflowing_sum_raises_domain_error_without_warning(self):
        big = [np.full((2, 2), 1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="normal-ordered entries overflow"):
                _ordered_sum(normal_order_expansion(0, 0, 1.0), _ordered_products(0, big, big))

    def test_first_order_is_shifted_creation(self):
        # L^{n,1} = (a†)^{n+1} a as matrices
        params = QOsc(q=1.3)
        D = 10
        lam = build_lambda(params, LambdaIndex(2, 1), D)
        ordered = normal_order_matrix(params, LambdaIndex(2, 1), D)
        np.testing.assert_allclose(lam.matrix, ordered.matrix, atol=1e-10)
