import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdosc import (
    ConvergenceError,
    DomainError,
    QdoscError,
    binomial_weights,
    log_q_factorial,
    q_exponential,
    q_factorial,
    q_number,
    q_stirling2,
    stirling2,
)
from qdosc.qcore import _check_radius, _ratio_weights


def q_number_oracle(n, q):
    # geometric-sum definition, summed term by term
    return math.fsum(q**k for k in range(n))


class TestQNumber:
    def test_zero_and_one_are_exact(self):
        for q in (2.0, 0.3, 1.0, -1.7, 5.0):
            assert q_number(0, q) == 0.0
            assert q_number(1, q) == 1.0

    def test_classical_limit(self):
        assert q_number(5, 1.0) == 5.0

    @pytest.mark.parametrize(
        "n,q", [(3, 2.0), (4, 0.5), (7, 1.3), (20, 0.9), (10, 3.0)]
    )
    def test_against_geometric_sum(self, n, q):
        assert q_number(n, q) == pytest.approx(q_number_oracle(n, q), rel=1e-13)

    def test_negative_q_accepted(self):
        assert q_number(3, -2.0) == pytest.approx(q_number_oracle(3, -2.0), rel=1e-13)

    @given(st.integers(1, 50), st.floats(0.05, 3.0))
    @settings(max_examples=200)
    def test_recurrence(self, n, q):
        assert q_number(n, q) == pytest.approx(
            q_number(n - 1, q) * q + 1.0, rel=1e-11
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 50])
    @pytest.mark.parametrize("eps", [1e-9, -1e-9])
    def test_continuity_at_one(self, n, eps):
        assert abs(q_number(n, 1.0 + eps) - n) < 1e-6 * n

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            q_number(-1, 2.0)
        with pytest.raises(DomainError):
            q_number(np.array([0, 1, -1]), 2.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.0 + 1e-9, 1.2, 2.0, -1.7])
    def test_array_form_matches_scalar(self, q):
        k = np.arange(200)
        got = q_number(k, q)
        want = np.array([q_number(int(kk), q) for kk in k])
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
        assert got[0] == 0.0 and got[1] == 1.0

    def test_overflow_is_a_domain_error(self):
        assert math.isfinite(q_number(646, 3.0))
        with pytest.raises(DomainError):
            q_number(647, 3.0)
        with pytest.raises(DomainError):
            q_number(np.arange(700), 3.0)

    @pytest.mark.parametrize(
        "eps", [1e-6, 2e-8, 1.0000001e-8, 0.99999e-8, 1e-10, 1e-12]
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_array_form_near_one_against_mpmath(self, eps, sign):
        mpmath = pytest.importorskip("mpmath")
        q = 1.0 + sign * eps
        k = np.arange(129)
        got = q_number(k, q)
        with mpmath.workdps(50):
            mq = mpmath.mpf(q)  # the double actually passed, not 1 +- eps
            want = [float((mq**n - 1) / (mq - 1)) for n in range(129)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestLogQFactorial:
    def test_empty_product(self):
        assert log_q_factorial(0, 3.0) == 0.0

    def test_small_products(self):
        # [3]_2! = 7 * 3 * 1
        assert log_q_factorial(3, 2.0) == pytest.approx(math.log(21), rel=1e-13)
        assert log_q_factorial(4, 1.0) == pytest.approx(math.log(24), rel=1e-13)

    def test_no_overflow_at_large_n(self):
        val = log_q_factorial(200, 2.0)  # raw product would be ~2^20000
        assert math.isfinite(val) and val > 1e4

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            log_q_factorial(3, 0.0)
        with pytest.raises(DomainError):
            log_q_factorial(3, -1.0)

    def test_q_factorial_overflow_is_domain_error(self):
        assert q_factorial(170, 1.0) == pytest.approx(math.factorial(170), rel=1e-12)
        with pytest.raises(DomainError):
            q_factorial(171, 1.0)


class TestQExponential:
    def test_at_zero(self):
        assert q_exponential(0.0, 0.7) == 1.0

    def test_classical(self):
        assert q_exponential(1.0, 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_partial_sum_oracle(self):
        # independent brute-force summation
        for q, x in [(0.5, 1.0), (1.2, 2.0), (2.0, 3.0)]:
            term, acc = 1.0, 1.0
            for k in range(1, 200):
                term *= x / q_number(k, q)
                acc += term
            assert q_exponential(x, q) == pytest.approx(acc, rel=1e-12)

    def test_radius_violation(self):
        with pytest.raises(ConvergenceError):
            q_exponential(2.0, 0.5)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            q_exponential(1.0, -0.5)


def stirling_recurrence_table(rmax, mmax):
    # S(r, m) = r S(r, m-1) + S(r-1, m-1), S(0,0) = 1
    tab = np.zeros((rmax + 1, mmax + 1))
    tab[0, 0] = 1.0
    for m in range(1, mmax + 1):
        for r in range(1, rmax + 1):
            tab[r, m] = r * tab[r, m - 1] + tab[r - 1, m - 1]
    return tab


class TestStirling:
    def test_trivial(self):
        assert stirling2(0, 0) == 1.0
        assert stirling2(1, 2) == 1.0
        assert stirling2(2, 2) == 1.0

    def test_against_recurrence(self):
        tab = stirling_recurrence_table(8, 8)
        for r in range(9):
            for m in range(9):
                assert stirling2(r, m) == pytest.approx(tab[r, m], abs=1e-12)

    def test_q_examples(self):
        assert q_stirling2(0, 0, 2.0) == pytest.approx(1.0, abs=1e-14)
        # only the k=1 term survives and [1]_q = 1
        assert q_stirling2(1, 4, 1.7) == pytest.approx(1.0, rel=1e-13)
        assert q_stirling2(2, 3, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_classical_limit(self):
        for s in range(9):
            for m in range(9):
                assert q_stirling2(s, m, 1.0) == pytest.approx(
                    stirling2(s, m), abs=1e-12, rel=1e-12
                )

    def test_vanishes_above_diagonal(self):
        for q in (0.5, 1.3, 2.0):
            for m in range(4):
                for s in range(m + 1, 7):
                    assert abs(q_stirling2(s, m, q)) < 1e-12

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            q_stirling2(2, 3, 0.0)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0])
    def test_finite_or_typed_error(self, q):
        # factors such as q^tri or [k]_q! can leave double precision while
        # the term itself does not
        for s in range(0, 61, 3):
            for m in range(0, 61, 3):
                try:
                    val = q_stirling2(s, m, q)
                except QdoscError:
                    continue
                assert math.isfinite(val), (s, m, q)


class TestBinomialWeights:
    def test_empty(self):
        w = binomial_weights(0, 0.3)
        np.testing.assert_allclose(w.weights, [1.0])

    def test_enumeration(self):
        w = binomial_weights(2, 0.5)
        np.testing.assert_allclose(w.weights, [0.25, 0.5, 0.25])

    def test_convention_puts_p_on_first_power(self):
        # weight of k = 0 must be p^j, not (1-p)^j
        w = binomial_weights(3, 0.9)
        assert w.weights[0] == pytest.approx(0.9**3, rel=1e-14)

    @given(st.integers(0, 60), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_normalized_and_mean(self, j, p):
        w = binomial_weights(j, p)
        assert abs(w.weights.sum() - 1.0) < 1e-14
        assert np.all(w.weights >= 0.0)
        assert w.mean() == pytest.approx(j * (1.0 - p), abs=1e-10)

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            binomial_weights(3, 1.5)


def poisson_weights(a2, tol=1e-12):
    return _ratio_weights(float, a2, 0, tol)


def q_poisson_weights(a2, q, tol=1e-12):
    return _ratio_weights(lambda k: q_number(k, q), a2, 0, tol)


class TestPoissonFamilies:
    """The (q-)Poisson weights |alpha|^(2k)/[k]_q! of the shared term-ratio
    recursion, normalized by their partial sum."""

    def test_vacuum(self):
        np.testing.assert_allclose(q_poisson_weights(0.0, 1.3)[0], [1.0])
        np.testing.assert_allclose(poisson_weights(0.0)[0], [1.0])

    def test_classical_pmf(self):
        w = poisson_weights(1.0)[0]
        assert w[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        for k in range(len(w)):
            assert w[k] == pytest.approx(
                math.exp(-1.0) / math.factorial(k), rel=1e-10, abs=1e-15
            )

    def test_q_one_limit_matches_classical(self):
        wq = q_poisson_weights(0.64, 1.0)[0]
        wc = poisson_weights(0.64)[0]
        k = min(len(wq), len(wc))
        np.testing.assert_allclose(wq[:k], wc[:k], atol=1e-13)

    def test_term_by_term_log_domain_oracle(self):
        a2, q = 0.64, 1.2
        w = q_poisson_weights(a2, q, tol=1e-16)[0]
        norm = q_exponential(a2, q)
        for k in range(len(w)):
            expected = math.exp(k * math.log(a2) - log_q_factorial(k, q)) / norm
            assert w[k] == pytest.approx(expected, rel=1e-12, abs=1e-16)

    def test_normalization_and_tail(self):
        for a2, q in [(0.64, 1.2), (1.9, 0.5), (4.0, 2.0)]:
            w, levels, tail, _ = q_poisson_weights(a2, q)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-14
            assert tail < 1e-11
            assert list(levels) == [q_number(k, q) for k in range(len(w))]

    @pytest.mark.parametrize("a2", [650.0, 900.0])
    def test_large_amplitude_renormalizes(self, a2):
        # the largest term a2^k/k! passes 1e280 (and at 900 double precision)
        w, levels, tail, total = poisson_weights(a2)
        assert np.isfinite(w).all() and np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-14
        assert tail < 1e-12
        ks = np.arange(len(w))
        log_pmf = ks * math.log(a2) - a2 - np.array([math.lgamma(k + 1) for k in ks])
        big = log_pmf > -600.0
        # the log-domain oracle cancels terms near 6e3, so it carries ~1e-12
        np.testing.assert_allclose(w[big], np.exp(log_pmf[big]), rtol=1e-10)
        if a2 < 700.0:
            assert total == pytest.approx(math.exp(a2), rel=1e-12)
        else:
            assert total == math.inf

    def test_radius_violation(self):
        _check_radius(1.9, 0.5)
        with pytest.raises(ConvergenceError):
            _check_radius(2.0, 0.5)
        with pytest.raises(ConvergenceError):
            _check_radius(-2.0, 0.5)

    def test_rejects_nonpositive_q(self):
        for q in (0.0, -1.0):
            with pytest.raises(DomainError):
                _check_radius(0.5, q)
