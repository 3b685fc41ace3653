import math

import mpmath as mp
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
from qdosc.qcore import _check_radius, _weight_window


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

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [-1e-300, -1.0, -20.0, -40.0])
    def test_negative_argument_is_domain_error(self, q, x):
        # the alternating sum cancels: a term-by-term sum gives 6.1e-9 for
        # exp(-20) = 2.1e-9 and 0.31 for exp(-40) = 4.2e-18
        with pytest.raises(DomainError):
            q_exponential(x, q)

    def test_overflow_is_domain_error(self):
        assert q_exponential(700.0, 1.0) == pytest.approx(math.exp(700.0), rel=1e-13)
        with pytest.raises(DomainError):
            q_exponential(720.0, 1.0)

    @pytest.mark.parametrize(
        "q,x",
        [(0.5, 1.0), (0.5, 1.9), (1.0, 1.0), (1.0, 30.0), (1.0, 650.0),
         (1.2, 2.0), (1.2, 900.0), (2.0, 3.0), (2.0, 1e4)],
    )  # fmt: skip
    def test_mpmath_oracle(self, q, x):
        assert q_exponential(x, q) == pytest.approx(mp_q_exponential(x, q), rel=1e-13)


def mp_level(k, q):
    return mp.mpf(k) if q == 1.0 else (mp.mpf(q) ** k - 1) / (mp.mpf(q) - 1)


def mp_q_exponential(x, q):
    """sum_k x^k/[k]_q! at 40 digits, until the terms pass below 1e-45 of
    the sum after the mode."""
    with mp.workdps(40):
        term, total, k = mp.mpf(1), mp.mpf(1), 0
        while True:
            k += 1
            term *= mp.mpf(x) / mp_level(k, q)
            total += term
            if mp_level(k, q) > x and term < total * mp.mpf("1e-45"):
                return float(total)


def mp_window_weights(x, q, k0, size):
    """x^k/[k]_q! for k in [k0, k0 + size) at 40 digits, normalized by their
    sum over that window."""
    with mp.workdps(40):
        x = mp.mpf(x)
        log_w = mp.fsum(mp.log(x / mp_level(k, q)) for k in range(1, k0 + 1))
        logs = [log_w]
        for k in range(k0 + 1, k0 + size):
            logs.append(logs[-1] + mp.log(x / mp_level(k, q)))
        top = max(logs)
        w = [mp.exp(v - top) for v in logs]
        total = mp.fsum(w)
        return np.array([float(v / total) for v in w])


WINDOW_MODELS = {"anharmonic": 1.0, "q=0.5": 0.5, "q=1.2": 1.2, "q=2": 2.0}


@pytest.mark.parametrize("amp", [1.0, 3.0, 30.0, 100.0])
@pytest.mark.parametrize("q", list(WINDOW_MODELS.values()), ids=list(WINDOW_MODELS))
class TestWindowOracle:
    """The kept window against 40-digit weights: the outward products sit
    within 3.5e-15 of them, where the walk from k = 0 drifted to 8e-14 at
    |alpha| = 30."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-16])
    def test_weights(self, q, amp, tol):
        a2 = amp * amp
        if q < 1.0 and a2 >= 1.0 / (1.0 - q):
            with pytest.raises(ConvergenceError, match="outside radius"):
                _weight_window(a2, q, 0, tol)
            return
        k0, levels, w, tail, _ = _weight_window(a2, q, 0, tol)
        want = mp_window_weights(a2, q, k0, len(w))
        np.testing.assert_allclose(w, want, rtol=1e-14, atol=0)

    def test_length_follows_the_spread(self, q, amp):
        # the walk from k = 0 kept 1120 terms at |alpha| = 30 and 10713 at 100
        a2 = amp * amp
        if q < 1.0 and a2 >= 1.0 / (1.0 - q):
            return
        for m in (0, 2):
            _, levels, w, _, _ = _weight_window(a2, q, m, 1e-12)
            assert levels[0] <= a2 <= levels[-1]
            assert len(w) <= 25.0 * amp + 50.0


def test_window_at_amplitude_300_keeps_under_6000_terms():
    # evolve's default m = 0 and tol = 1e-12; the walk from k = 0 kept 92120
    assert len(_weight_window(300.0**2, 1.0, 0, 1e-12)[2]) < 6000


@given(
    q=st.one_of(st.just(1.0), st.floats(0.3, 3.0)),
    a2=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e5)),
    m=st.integers(0, 6),
    tol=st.floats(1e-16, 1e-6),
)
@settings(max_examples=150, deadline=None)
def test_window_is_finite_normalized_and_certified(q, a2, m, tol):
    # q = 1 is the anharmonic model's integer spectrum, any other q a q-model
    try:
        k0, levels, w, tail, log_total = _weight_window(a2, q, m, tol)
    except QdoscError:
        return
    assert np.isfinite(w).all() and np.all(w >= 0.0)
    assert abs(math.fsum(w) - 1.0) <= 1e-14
    assert 0.0 <= tail < tol
    assert math.isfinite(log_total)
    np.testing.assert_array_equal(levels, q_number(np.arange(k0, k0 + len(w)), q))


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
    return _weight_window(a2, 1.0, 0, tol)


def q_poisson_weights(a2, q, tol=1e-12):
    return _weight_window(a2, q, 0, tol)


class TestPoissonFamilies:
    """The (q-)Poisson weights |alpha|^(2k)/[k]_q! of the shared weight
    window, normalized by their sum over the window."""

    def test_vacuum(self):
        np.testing.assert_allclose(q_poisson_weights(0.0, 1.3)[2], [1.0])
        np.testing.assert_allclose(poisson_weights(0.0)[2], [1.0])

    def test_classical_pmf(self):
        w = poisson_weights(1.0)[2]
        assert w[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        for k in range(len(w)):
            assert w[k] == pytest.approx(
                math.exp(-1.0) / math.factorial(k), rel=1e-10, abs=1e-15
            )

    def test_q_one_limit_matches_classical(self):
        wq = q_poisson_weights(0.64, 1.0)[2]
        wc = poisson_weights(0.64)[2]
        k = min(len(wq), len(wc))
        np.testing.assert_allclose(wq[:k], wc[:k], atol=1e-13)

    def test_term_by_term_log_domain_oracle(self):
        a2, q = 0.64, 1.2
        w = q_poisson_weights(a2, q, tol=1e-16)[2]
        norm = q_exponential(a2, q)
        for k in range(len(w)):
            expected = math.exp(k * math.log(a2) - log_q_factorial(k, q)) / norm
            assert w[k] == pytest.approx(expected, rel=1e-12, abs=1e-16)

    def test_normalization_and_tail(self):
        for a2, q in [(0.64, 1.2), (1.9, 0.5), (4.0, 2.0)]:
            k0, levels, w, tail, _ = q_poisson_weights(a2, q)
            assert k0 == 0
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-14
            assert tail < 1e-11
            np.testing.assert_array_equal(levels, q_number(np.arange(len(w)), q))

    @pytest.mark.parametrize("a2", [650.0, 900.0])
    def test_large_amplitude_renormalizes(self, a2):
        # the largest term a2^k/k! is near 1e280 at 650 and beyond double
        # precision at 900; the weights relative to the mode never are
        k0, levels, w, tail, log_total = poisson_weights(a2)
        assert k0 > 0
        assert np.isfinite(w).all() and np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-14
        assert tail < 1e-12
        ks = np.arange(k0, k0 + len(w))
        np.testing.assert_array_equal(levels, ks.astype(float))
        log_pmf = ks * math.log(a2) - a2 - np.array([math.lgamma(k + 1) for k in ks])
        big = log_pmf > -600.0
        # the log-domain oracle cancels terms near 6e3, so it carries ~1e-12
        np.testing.assert_allclose(w[big], np.exp(log_pmf[big]), rtol=1e-10)
        # the window drops a mass below tol = 1e-12 relative to its sum
        assert a2 - 1e-12 <= log_total <= a2 + 1e-13

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
