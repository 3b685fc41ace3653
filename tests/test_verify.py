import math
import tracemalloc

import numpy as np
import pytest

import qdosc.verify as verify
from qdosc import DomainError, FockOperator, LambdaIndex, QOsc
from qdosc.verify import CheckResult, oracle_expectation_series, run_suite


class TestCheckResult:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_fails(self, bad):
        assert not CheckResult("c", {}, bad, 1e-10).passed

    def test_small_residual_passes(self):
        assert CheckResult("c", {}, 1e-12, 1e-10).passed


class TestNanPropagation:
    def test_nan_after_finite_residual_fails_the_suite(self, monkeypatch):
        calls = []

        def fake(ref, test, max_col):
            calls.append(None)
            return 1e-15 if len(calls) == 1 else math.nan

        monkeypatch.setattr(verify, "interior_rel_error", fake)
        results = verify.suite_closure(D=6, nm_max=1)
        assert len(calls) > 1
        assert all(math.isnan(r.max_residual) for r in results)
        assert not any(r.passed for r in results)


class TestRunSuite:
    def test_dimension_reaches_suites_that_take_it(self):
        results = run_suite("normal-order", D=12)
        assert results and all(r.params["dim"] == 12 for r in results)

    def test_dimension_ignored_by_suites_without_one(self):
        results = run_suite("relation", D=12)
        assert results and all(r.passed for r in results)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("bogus")


class TestDynamicsOracle:
    def test_memory_is_a_few_state_grids(self):
        # Psi and L @ Psi are D x T each; building Psi from out-of-place
        # temporaries would add up to three more
        D, T = 512, 2001
        times = np.linspace(0.0, 10.0, T)
        args = (QOsc(q=1.2), 0.8, LambdaIndex(2, 1))
        oracle_expectation_series(*args, times[:3], D)
        tracemalloc.start()
        try:
            oracle_expectation_series(*args, times, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * D * T

    def test_non_diagonal_hamiltonian_rejected(self, monkeypatch):
        def skewed(params, D):
            mat = np.diag(np.arange(D, dtype=complex))
            mat[0, 1] = 1.0
            return FockOperator(D, mat)

        monkeypatch.setattr(verify, "build_hamiltonian", skewed)
        with pytest.raises(DomainError):
            oracle_expectation_series(QOsc(q=1.2), 0.8, LambdaIndex(1, 0), [0.5], 32)

    def test_nearly_diagonal_hamiltonian_rejected(self, monkeypatch):
        # below any relative tolerance on the diagonal, but Psi = e^{-iEt} psi
        # would silently drop it
        def skewed(params, D):
            mat = np.diag(np.arange(D, dtype=complex))
            mat[0, 3] = 1e-13
            return FockOperator(D, mat)

        monkeypatch.setattr(verify, "build_hamiltonian", skewed)
        with pytest.raises(DomainError):
            oracle_expectation_series(QOsc(q=1.2), 0.8, LambdaIndex(1, 0), [0.5], 32)
