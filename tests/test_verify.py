import inspect
import math
import tracemalloc

import numpy as np
import pytest

import qdosc.verify as verify
import qdosc.fock as fock
from qdosc import DimensionError, DomainError, LambdaIndex, QOsc, normal_order_expansion
from qdosc.params import energy, level_value
from qdosc.algebra import (
    closure_coeffs,
    expansion_band,
    expansion_matrix,
    normal_order_matrix,
    power_law_band,
    power_law_multicommutator,
)
from qdosc.fock import (
    FockOperator,
    _band_operator,
    _ladder_powers,
    _lambda_band,
    _ordered_products,
    _ordered_sum,
    build_hamiltonian,
    build_lambda,
    coherent_state,
    commutator,
    heisenberg_evolve,
)
from qdosc.verify import (
    CheckResult,
    band_rel_error,
    interior_rel_error,
    oracle_expectation_series,
    run_suite,
)


class TestCheckResult:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_fails(self, bad):
        assert not CheckResult("c", {}, bad, 1e-10).passed

    def test_small_residual_passes(self):
        assert CheckResult("c", {}, 1e-12, 1e-10).passed


class TestNanPropagation:
    def test_nan_after_finite_residual_fails_the_suite(self, monkeypatch):
        calls = []

        def fake(ref, test, max_col, k):
            calls.append(None)
            return 1e-15 if len(calls) == 1 else math.nan

        monkeypatch.setattr(verify, "band_rel_error", fake)
        results = verify.suite_closure(D=6)
        assert len(calls) > 1
        assert all(math.isnan(r.max_residual) for r in results)
        assert not any(r.passed for r in results)


class TestCheck:
    @pytest.mark.parametrize(
        "stream",
        [[math.nan, 1e-15, 2e-15], [1e-15, math.nan, 2e-15], [1e-15, 2e-15, math.nan], []],
        ids=["first", "middle", "last", "empty"],
    )
    def test_nan_anywhere_or_an_empty_stream_fails(self, stream):
        result = verify._check("c", {}, 1.0, iter(stream))
        assert math.isnan(result.max_residual)
        assert not result.passed

    def test_worst_of_a_finite_stream(self):
        result = verify._check("c", {"q": 2.0}, 1e-9, iter([1e-12, 3e-12, 2e-12]))
        assert result.to_dict() == {
            "check_id": "c",
            "params": {"q": 2.0},
            "max_residual": 3e-12,
            "tolerance": 1e-9,
            "pass": True,
        }


def _dense(band, k):
    return np.diag(np.asarray(band, dtype=complex), k)


def _same(a, b):
    """Equal bits, or both NaN (whose sign and payload carry nothing)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


class TestBandRelError:
    """band_rel_error equals interior_rel_error on the band's dense form, bit
    for bit, with the band as reference or as test."""

    D = 12

    def _case(self, k, seed):
        rng = np.random.default_rng(seed)
        L = self.D - abs(k)
        # magnitudes across the floor of 1, and a band-shaped oracle near it
        band = rng.normal(size=L) * 10.0 ** rng.uniform(-3, 6, L)
        dense = _dense(band * (1 + 1e-13 * rng.normal(size=L)), k)
        return band, dense

    def _check(self, band, dense, k, max_col):
        ref = interior_rel_error(_dense(band, k), dense, max_col)
        assert _same(band_rel_error(band, dense, max_col, k), ref)
        ref = interior_rel_error(dense, _dense(band, k), max_col)
        assert _same(band_rel_error(dense, band, max_col, k), ref)

    @pytest.mark.parametrize("k", [-3, -1, 0, 2])
    @pytest.mark.parametrize("max_col", [-1, 0, 4, 11])
    def test_band_shaped_oracle(self, k, max_col):
        band, dense = self._case(k, seed=abs(k) + max_col + 2)
        self._check(band, dense, k, max_col)

    @pytest.mark.parametrize("k", [-3, 0, 2])
    @pytest.mark.parametrize("value", [1e-9, 0.5, 3.0, 2e7, -0.0, 1e300j])
    def test_off_band_entries_count(self, k, value):
        band, dense = self._case(k, seed=7)
        for row, col in [(0, 0), (self.D - 1, 4), (5, 1), (1, 9), (6, 6)]:
            if col - row == k:
                continue
            hit = dense.copy()
            hit[row, col] = value
            self._check(band, hit, k, 8)
        # an entry beyond the checked columns does not count
        beyond = dense.copy()
        beyond[0, self.D - 1] = 1e9
        self._check(band, beyond, k, self.D - 3)

    def test_off_band_entry_dominates(self):
        band, dense = self._case(-2, seed=3)
        dense[1, 7] = 2e7
        assert band_rel_error(band, dense, 9, -2) == 2e7
        assert band_rel_error(dense, band, 9, -2) == 1.0

    @pytest.mark.parametrize("where", ["band", "on", "off"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries(self, where, bad):
        band, dense = self._case(-1, seed=11)
        if where == "band":
            band[3] = bad
        elif where == "on":
            dense[4, 3] = bad
        else:
            dense[0, 5] = complex(0.0, bad)
        with np.errstate(invalid="ignore"):
            self._check(band, dense, -1, 9)
            got = band_rel_error(dense, band, 9, -1)
        # with the dense side as reference an inf there is inf / inf
        if math.isnan(bad) or where != "band":
            assert math.isnan(got)


class TestStackedBandRelError:
    """On a stack band_rel_error is the largest of its slices' values."""

    D = 12

    def _stack(self, k, seed, S=4):
        rng = np.random.default_rng(seed)
        L = self.D - abs(k)
        bands = rng.normal(size=(S, L)) * 10.0 ** rng.uniform(-3, 6, (S, L))
        dense = fock._band_array(bands * (1 + 1e-13 * rng.normal(size=(S, L))), k)
        dense[1, 0, self.D - 1] = 0.7
        dense[2, self.D - 1, 0] = -0.0
        return bands, dense

    def _check(self, bands, dense, k, max_col):
        for ref, test in ((bands, dense), (dense, bands)):
            per_slice = [band_rel_error(r, t, max_col, k) for r, t in zip(ref, test)]
            want = np.maximum.reduce(per_slice)
            assert _same(band_rel_error(ref, test, max_col, k), want)

    @pytest.mark.parametrize("k", [-3, 0, 2])
    @pytest.mark.parametrize("max_col", [-1, 0, 4, 11])
    def test_max_of_the_slices(self, k, max_col):
        bands, dense = self._stack(k, seed=abs(k) + max_col + 3)
        self._check(bands, dense, k, max_col)

    @pytest.mark.parametrize("where", ["band", "on", "off"])
    @pytest.mark.parametrize("slice_", [0, 3])
    def test_nan_anywhere_gives_nan(self, where, slice_):
        bands, dense = self._stack(-1, seed=11)
        if where == "band":
            bands[slice_, 3] = math.nan
        elif where == "on":
            dense[slice_, 4, 3] = math.nan
        else:
            dense[slice_, 0, 5] = math.nan
        with np.errstate(invalid="ignore"):
            self._check(bands, dense, -1, 9)
            assert math.isnan(band_rel_error(bands, dense, 9, -1))
            assert math.isnan(band_rel_error(dense, bands, 9, -1))


def _reference_closure(params, D):
    """The per-(n, m) closure loop: one commutator and one band_rel_error
    per operator."""
    H = build_hamiltonian(params, D)
    lv = level_value(params, np.arange(D))
    for n in range(verify.CLOSURE_NM_MAX + 1):
        cc = closure_coeffs(params, n)
        bands = [_lambda_band(lv, (n, m), D) for m in range(verify.CLOSURE_NM_MAX + 2)]
        for band, band_up in zip(bands, bands[1:]):
            rhs = cc.c_same * band + cc.c_up * band_up
            lam = _band_operator(band, -n)
            yield band_rel_error(rhs, commutator(H, lam).matrix, D - 1 - n, -n)
            lhs_d = commutator(H, lam.dagger()).matrix
            yield band_rel_error(-rhs, lhs_d.T, D - 1 - n, -n)


def _reference_iterated(params, closed_band, D, levels):
    """The per-(n, m, j) iterated-commutator loop."""
    lv = level_value(params, np.arange(levels))
    H = build_hamiltonian(params, D)
    for n in range(verify.ITERATED_NM_MAX + 1):
        for m in range(verify.ITERATED_NM_MAX + 1):
            lam = _lambda_band(lv, (n, m), D)
            iterated = _band_operator(lam, -n)
            for j in range(verify.ITERATED_J_MAX + 1):
                closed = closed_band(params, lam, lv, n, j)
                if j > 0:
                    iterated = commutator(H, iterated)
                yield band_rel_error(iterated.matrix, closed, D - 1 - n, -n)


def _reference_normal_order(q, D):
    """The per-(n, M) normal-order loop, each product formed per term."""
    n_max, M_max = verify.NORMAL_ORDER_N_MAX, verify.NORMAL_ORDER_M_MAX
    params = QOsc(q=q)
    lv = level_value(params, np.arange(D))
    up, down = _ladder_powers(params, D, n_max + M_max, M_max)
    for n in range(n_max + 1):
        for M in range(M_max + 1):
            lam = _lambda_band(lv, LambdaIndex(n, M), D)
            ordered = np.zeros((D, D))
            for s, coeff in normal_order_expansion(n, M, q):
                ordered += coeff * (up[n + s] @ down[s])
            yield band_rel_error(lam, ordered, D - 1 - n - M, -n)


class TestStackedSuitesMatchThePerOperatorLoop:
    """The suites stack each (model, n) over m; their reports keep the
    bits of the per-operator loop they replaced."""

    def _worst(self, residuals):
        return verify._check("c", {}, 1.0, residuals).max_residual

    def _compare(self, results, references):
        assert len(results) == len(references)
        for result, reference in zip(results, references):
            assert _same(result.max_residual, self._worst(reference))

    @pytest.mark.parametrize("D", [6, 64])
    def test_closure(self, D):
        refs = [_reference_closure(p, D) for p in verify._closure_models()]
        self._compare(verify.suite_closure(D), refs)

    @pytest.mark.parametrize("D", [6, 64])
    def test_multicommutator(self, D):
        models = [QOsc(q=1.2), QOsc(q=2.0), verify.ANHARMONIC_DEFAULT]
        refs = [_reference_iterated(p, expansion_band, D, D) for p in models]
        self._compare(verify.suite_multicommutator(D), refs)

    @pytest.mark.parametrize("D", [6, 64])
    def test_power_law(self, D):
        refs = [_reference_iterated(QOsc(q=q), power_law_band, D, D + 1) for q in (0.5, 1.2, 2.0)]
        self._compare(verify.suite_power_law(D), refs)

    @pytest.mark.parametrize("D", [6, 64])
    def test_normal_order(self, D):
        refs = [_reference_normal_order(q, D) for q in verify.Q_GRID]
        self._compare(verify.suite_normal_order(D), refs)


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

    @pytest.mark.parametrize("name", list(verify.SUITES))
    def test_dimension_is_the_only_parameter(self, name):
        params = inspect.signature(verify.SUITES[name]).parameters
        assert set(params) <= {"D"}

    def test_every_dimension_in_the_report_is_the_one_passed(self):
        dims = [r.params["dim"] for r in run_suite("all", D=96) if "dim" in r.params]
        assert dims and all(d == 96 for d in dims)

    def test_default_dimension(self):
        results = run_suite("normal-order")
        assert results and all(r.params["dim"] == verify.DEFAULT_DIM for r in results)

    @pytest.mark.parametrize("D", [1, 10**5])
    def test_dimension_refused_before_any_suite_runs(self, monkeypatch, D):
        ran = []
        monkeypatch.setattr(verify, "SUITES", {"relation": lambda: ran.append(1) or []})
        with pytest.raises(DimensionError, match="--dim"):
            run_suite("all", D=D)
        assert not ran


class TestDynamicsOracle:
    def test_memory_is_a_few_state_grids(self):
        # Psi, conj(Psi) and L @ Psi are D x T each; building Psi from
        # out-of-place temporaries would add up to three more
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

    def _skewed_hamiltonian_never_reaches_the_oracle(self, monkeypatch, r, c, value):
        # Psi = e^{-iEt} psi would silently drop an off-diagonal entry of H.
        # The oracle reads E from energy(), so a skewed H handed to verify is
        # never asked for and leaves its series bit-identical. The Heisenberg
        # picture, which does take H as a matrix, refuses it, and under the
        # true diagonal H it gives the oracle's series.
        params, D, idx, t = QOsc(q=1.2), 32, LambdaIndex(1, 0), 0.5
        honest = oracle_expectation_series(params, 0.8, idx, [t], D)
        mat = build_hamiltonian(params, D).matrix.copy()
        mat[r, c] = value
        skewed = FockOperator(mat)
        handed_out = []
        monkeypatch.setattr(
            fock, "build_hamiltonian", lambda params, D: handed_out.append(D) or skewed
        )
        assert np.array_equal(oracle_expectation_series(params, 0.8, idx, [t], D), honest)
        assert not handed_out
        lam = build_lambda(params, idx, D)
        with pytest.raises(DomainError):
            heisenberg_evolve(lam, skewed, t / params.omega)
        c_k = coherent_state(params, 0.8, D)
        evolved = heisenberg_evolve(lam, build_hamiltonian(params, D), t / params.omega)
        np.testing.assert_allclose(honest, [np.conj(c_k) @ evolved.matrix @ c_k], rtol=1e-13)

    def test_non_diagonal_hamiltonian_rejected(self, monkeypatch):
        self._skewed_hamiltonian_never_reaches_the_oracle(monkeypatch, 0, 1, 1.0)

    def test_nearly_diagonal_hamiltonian_rejected(self, monkeypatch):
        # below any relative tolerance on the diagonal
        self._skewed_hamiltonian_never_reaches_the_oracle(monkeypatch, 0, 3, 1e-13)

    def test_oracle_builds_no_dense_hamiltonian(self, monkeypatch):
        # Psi takes the spectrum from energy(); no D x D matrix is formed
        def refuse(params, D):
            raise AssertionError("the dynamics oracle built a dense Hamiltonian")

        monkeypatch.setattr(fock, "build_hamiltonian", refuse)
        params, D = QOsc(q=1.2), 512
        times = np.linspace(0.0, 10.0, 3)
        fock._oracle_state(params, 0.8, times[:1], D)
        tracemalloc.start()
        try:
            psi, _ = fock._oracle_state(params, 0.8, times, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * D * D // 4
        state = coherent_state(params, 0.8, D)
        phases = np.exp(-1j * energy(params, np.arange(D))[:, None] * times)
        np.testing.assert_allclose(psi, phases * state[:, None], atol=1e-15)


class TestSharedOracleState:
    """The state a suite builds once per model gives the bits of the public
    per-call oracles."""

    TIMES = np.linspace(0.0, 10.0, 101)

    @pytest.mark.parametrize("params", [QOsc(q=1.2), verify.ANHARMONIC_DEFAULT], ids=repr)
    def test_dynamics_oracle(self, params):
        D = 64
        state = fock._oracle_state(params, 0.8, self.TIMES, D)
        for n in range(4):
            for m in range(4):
                idx = LambdaIndex(n, m)
                shared = fock._oracle_series(build_lambda(params, idx, D).matrix, *state)
                public = oracle_expectation_series(params, 0.8, idx, self.TIMES, D)
                assert public.dtype == np.complex128
                assert np.array_equal(shared, public)

    def test_series_leaves_the_state_alone(self):
        params, D = QOsc(q=1.2), 32
        psi, psi_conj = fock._oracle_state(params, 0.8, self.TIMES, D)
        assert not (psi.flags.writeable or psi_conj.flags.writeable)
        before = psi.copy(), psi_conj.copy()
        lam = build_lambda(params, LambdaIndex(2, 1), D).matrix
        first = fock._oracle_series(lam, psi, psi_conj)
        second = fock._oracle_series(lam, psi, psi_conj)
        assert np.array_equal(first, second)
        assert np.array_equal(psi, before[0]) and np.array_equal(psi_conj, before[1])

    @pytest.mark.parametrize("q", verify.Q_GRID)
    def test_normal_order(self, q):
        params, D = QOsc(q=q), 32
        n_max, M_max = verify.NORMAL_ORDER_N_MAX, verify.NORMAL_ORDER_M_MAX
        up, down = _ladder_powers(params, D, n_max + M_max, M_max)
        for n in range(n_max + 1):
            for M in range(M_max + 1):
                terms = normal_order_expansion(n, M, q)
                shared = _ordered_sum(terms, _ordered_products(n, up, down))
                public = normal_order_matrix(params, LambdaIndex(n, M), D).matrix
                assert shared.dtype == public.dtype == np.float64
                assert np.array_equal(shared, public)


# every public entry that takes a truncation dimension D, as a call of D
_DIM_ENTRIES = {
    "build_ladder": lambda D: fock.build_ladder(QOsc(q=1.2), D),
    "build_hamiltonian": lambda D: build_hamiltonian(QOsc(q=1.2), D),
    "build_lambda": lambda D: build_lambda(QOsc(q=1.2), LambdaIndex(1, 1), D),
    "coherent_state": lambda D: coherent_state(QOsc(q=1.2), 0.8, D),
    "expansion_matrix": lambda D: expansion_matrix(QOsc(q=1.2), 1, 1, 2, D),
    "power_law_multicommutator": lambda D: power_law_multicommutator(QOsc(q=1.2), 0, 1, 2, D),
    "normal_order_matrix": lambda D: normal_order_matrix(QOsc(q=1.2), LambdaIndex(1, 2), D),
    "oracle_expectation_series": lambda D: oracle_expectation_series(
        QOsc(q=1.2), 0.8, LambdaIndex(1, 1), np.linspace(0.0, 1.0, 3), D
    ),
    **{
        suite.__name__: suite
        for suite in verify.SUITES.values()
        if "D" in inspect.signature(suite).parameters
    },
    "run_suite": lambda D: run_suite("all", D),
}


@pytest.mark.parametrize("D", [1, 4097, 10**13])
@pytest.mark.parametrize("entry", sorted(_DIM_ENTRIES))
def test_dimension_is_refused_before_any_level_vector(entry, D):
    # no level vector of 10^13 entries can be allocated, so a vector built
    # before the check would raise MemoryError here instead
    with pytest.raises(DimensionError, match="--dim"):
        _DIM_ENTRIES[entry](D)
