import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdosc import (
    Anharmonic,
    ConvergenceError,
    DomainError,
    LambdaIndex,
    QdoscError,
    QOsc,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
    q_exponential,
    q_number,
    q_stirling2,
    stirling2,
)
from qdosc.qcore import _check_radius, _weight_window


# q from 1e-300 to 10, and down to 1e-12 either side of q = 1
ULP_GRID = [1e-300, 0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-9, 1 + 1e-12, 1 + 1e-9,
            1.001, 1.01, 1.1, 1.2, 2.0, 3.0, 10.0]  # fmt: skip


def q_number_oracle(n, q):
    # geometric-sum definition, summed term by term
    return math.fsum(q**k for k in range(n))


class TestQNumber:
    def test_zero_and_one_are_exact(self):
        # [1]_q = 1 also where the expm1 branch gives it, |log q| < 0.5
        for q in (2.0, 0.3, 1.0, 5.0, *np.linspace(0.6, 1.65, 1001).tolist()):
            assert q_number(0, q) == 0.0
            assert q_number(1, q) == 1.0
            np.testing.assert_array_equal(q_number(np.arange(2), q), [0.0, 1.0])

    def test_classical_limit(self):
        assert q_number(5, 1.0) == 5.0

    @pytest.mark.parametrize(
        "n,q", [(3, 2.0), (4, 0.5), (7, 1.3), (20, 0.9), (10, 3.0)]
    )
    def test_against_geometric_sum(self, n, q):
        assert q_number(n, q) == pytest.approx(q_number_oracle(n, q), rel=1e-13)

    @pytest.mark.parametrize("q", [0.0, -0.0, -1.7, -2.0, math.nan, math.inf])
    def test_q_not_positive_and_finite_refused(self, q):
        with pytest.raises(DomainError, match="q must be positive"):
            q_number(3, q)
        with pytest.raises(DomainError, match="q must be positive"):
            q_number(np.arange(4), q)

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

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.0 + 1e-9, 1.2, 2.0])
    def test_array_form_matches_scalar(self, q):
        k = np.arange(200)
        got = q_number(k, q)
        want = np.array([q_number(int(kk), q) for kk in k])
        np.testing.assert_array_equal(got, want)
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

    @pytest.mark.parametrize("q", ULP_GRID)
    def test_within_4_ulp_of_mpmath_up_to_overflow(self, q):
        # expm1(k log q)/expm1(log q) for every k was 955 ulp off at q = 3
        scalars = []
        for k in range(1100):
            try:
                scalars.append(q_number(k, q))
            except DomainError:
                break
        got = q_number(np.arange(len(scalars)), q)
        np.testing.assert_array_equal(got, scalars)
        with mp.workdps(50):
            mq = mp.mpf(q)
            exact = [(mq**k - 1) / (mq - 1) for k in range(1100)]
            # [k]_q rises with k, and every finite level is returned
            finite = sum(v <= sys.float_info.max for v in exact)
            assert len(got) == finite
            ulps = [abs(mp.mpf(g) - v) / np.spacing(float(v)) for g, v in zip(got, exact)]
        assert got[0] == 0.0 and max(ulps[1:]) <= 4.0
        if len(got) < 1100:
            with pytest.raises(DomainError, match="overflows"):
                q_number(np.arange(len(got) + 1), q)


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
                    assert q_stirling2(s, m, q) == 0.0

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_diagonal_is_power_of_q(self, q):
        # S_q^{s,s} = q^(s(s-1)/2); an alternating sum loses it to cancellation
        for s in range(31):
            assert q_stirling2(s, s, q) == pytest.approx(q ** (s * (s - 1) // 2), rel=1e-14)

    def test_rejects_nonpositive_q(self):
        for q in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                q_stirling2(2, 3, q)
        for s, m in ((-1, 3), (2, -1)):
            with pytest.raises(DomainError):
                q_stirling2(s, m, 1.5)
            with pytest.raises(DomainError):
                stirling2(s, m)

    def test_row_past_a_level_overflow_keeps_its_finite_entries(self):
        # [1100]_2 leaves double precision, but S^{1,m} = 1 needs no level
        # beyond [1]; S^{2,1100} ~ [2]^1099 overflows
        assert q_stirling2(1, 1100, 2.0) == 1.0
        with pytest.raises(DomainError):
            q_stirling2(2, 1100, 2.0)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0])
    def test_finite_or_typed_error(self, q):
        # an entry beyond double precision raises; it never comes back as inf
        for s in range(0, 61, 3):
            for m in range(0, 61, 3):
                try:
                    val = q_stirling2(s, m, q)
                except QdoscError:
                    continue
                assert math.isfinite(val), (s, m, q)


def log_q_factorial(n, q):
    return math.fsum(math.log(q_number(k, q)) for k in range(2, n + 1))


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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_nonpositive_tol_is_refused_before_any_level(tol):
    # such a tol never closes the window: without the check the level vector
    # doubles up to _MAX_LEVELS before a ConvergenceError
    with pytest.raises(DomainError, match="tol"):
        _weight_window(1.0, 1.0, 0, tol)
    with pytest.raises(DomainError, match="tol"):
        q_exponential(1.0, 1.0, tol=tol)
    for n, m in [(0, 0), (1, 2)]:
        with pytest.raises(DomainError, match="tol"):
            evolve_q_expectation(QOsc(q=1.2), 0.8, LambdaIndex(n, m), [0.5], tol)
        with pytest.raises(DomainError, match="tol"):
            evolve_anharmonic_expectation(
                Anharmonic(10.0, 1.0), 0.8, LambdaIndex(n, m), [0.5], tol
            )
