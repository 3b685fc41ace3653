import math
import tracemalloc

import numpy as np
import pytest

import qdosc.fock as fock
from qdosc import (
    Anharmonic,
    ConvergenceError,
    DimensionError,
    DomainError,
    LambdaIndex,
    QOsc,
    TruncationError,
    q_number,
)
from qdosc.fock import (
    FockOperator,
    _band_operator,
    _check_dim,
    build_hamiltonian,
    build_ladder,
    build_lambda,
    coherent_state,
    commutator,
    expectation,
    heisenberg_evolve,
)
from qdosc.qcore import _weight_window

Q2 = QOsc(q=2.0)
ANH = Anharmonic(omega1=10.0, omega2=1.0)


def log_q_factorial(n, q):
    return math.fsum(math.log(q_number(k, q)) for k in range(2, n + 1))


class TestLadder:
    def test_q_entries(self):
        a, adag = build_ladder(Q2, 4)
        np.testing.assert_allclose(
            np.diag(a.matrix, 1), [1.0, math.sqrt(3), math.sqrt(7)], rtol=1e-13
        )
        np.testing.assert_allclose(adag.matrix, a.matrix.conj().T)

    def test_anharmonic_entries(self):
        a, _ = build_ladder(ANH, 4)
        np.testing.assert_allclose(
            np.diag(a.matrix, 1), [1.0, math.sqrt(2), math.sqrt(3)], rtol=1e-14
        )

    def test_deformed_commutation(self):
        # a a† - q a† a = 1 on all untruncated levels
        D = 12
        a, adag = build_ladder(Q2, D)
        rel = a.matrix @ adag.matrix - Q2.q * adag.matrix @ a.matrix
        np.testing.assert_allclose(np.diag(rel)[: D - 1].real, 1.0, atol=1e-12)

    def test_commutator_diag_is_q_powers(self):
        D = 10
        a, adag = build_ladder(Q2, D)
        c = commutator(a, adag)
        np.testing.assert_allclose(
            np.diag(c.matrix)[: D - 1].real, 2.0 ** np.arange(D - 1), rtol=1e-12
        )

    def test_small_dim_rejected(self):
        with pytest.raises(DimensionError):
            build_ladder(Q2, 1)

    def test_oversized_dim_rejected_before_allocating(self):
        # one real D x D matrix at D = 10^5 would be 80 GB
        with pytest.raises(DimensionError, match="--dim"):
            _check_dim(10**5)
        _check_dim(4096)
        with pytest.raises(DimensionError):
            build_ladder(Q2, 4097)


class TestHamiltonian:
    def test_q_spectrum(self):
        H = build_hamiltonian(QOsc(q=1.5, omega=2.0), 3)
        np.testing.assert_allclose(np.diag(H.matrix).real, [0.0, 2.0, 5.0], rtol=1e-13)

    def test_anharmonic_spectrum(self):
        H = build_hamiltonian(ANH, 3)
        np.testing.assert_allclose(np.diag(H.matrix).real, [0.0, 11.0, 24.0])

    def test_harmonic_limits_coincide(self):
        Hq = build_hamiltonian(QOsc(q=1.0, omega=3.0), 8)
        Ha = build_hamiltonian(Anharmonic(omega1=3.0, omega2=0.0), 8)
        np.testing.assert_allclose(Hq.matrix, Ha.matrix, atol=1e-13)

    def test_margin_zero(self):
        assert build_hamiltonian(Q2, 4).margin == 0


class TestContainers:
    """dim is read from the array; an operator's dim and margin follow from
    its band."""

    def test_dim_is_the_array_length(self):
        assert FockOperator(np.zeros((5, 5))).dim == 5

    def test_dim_is_read_only(self):
        op = FockOperator(np.zeros((3, 3)))
        with pytest.raises(AttributeError):
            op.dim = 4

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(DimensionError):
            FockOperator(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(), (2, 2)])
    def test_non_vector_amplitudes_rejected(self, shape):
        with pytest.raises(DimensionError):
            expectation(np.zeros(shape, dtype=complex), FockOperator(np.eye(2)))

    @pytest.mark.parametrize("k", [-3, -1, 0, 2])
    def test_band_operator_derives_dim_and_margin(self, k):
        band = np.arange(1.0, 6.0)
        op = _band_operator(band, k)
        assert (op.dim, op.margin) == (5 + abs(k), abs(k))
        assert np.array_equal(op.matrix, np.diag(band, k))

    def test_builders_keep_their_margins(self):
        a, adag = build_ladder(Q2, 6)
        assert (a.margin, adag.margin, build_hamiltonian(Q2, 6).margin) == (1, 1, 0)
        assert all(op.dim == 6 for op in (a, adag, build_lambda(Q2, (2, 1), 6)))


class TestLambda:
    def test_identity_at_origin(self):
        lam = build_lambda(Q2, LambdaIndex(0, 0), 5)
        np.testing.assert_allclose(lam.matrix, np.eye(5))

    def test_creation_operator(self):
        lam = build_lambda(Q2, LambdaIndex(1, 0), 3)
        _, adag = build_ladder(Q2, 3)
        np.testing.assert_allclose(lam.matrix, adag.matrix, rtol=1e-13)

    def test_band_formula_against_matrix_product(self):
        D = 6
        a, adag = build_ladder(Q2, D)
        delta = adag.matrix @ a.matrix
        lam = build_lambda(Q2, LambdaIndex(1, 1), D)
        np.testing.assert_allclose(lam.matrix, adag.matrix @ delta, rtol=1e-12)
        assert lam.matrix[2, 1] == pytest.approx(math.sqrt(3) * 1.0, rel=1e-13)
        assert lam.matrix[3, 2] == pytest.approx(math.sqrt(7) * 3.0, rel=1e-13)

    def test_raising_degree_bounded(self):
        with pytest.raises(DimensionError):
            build_lambda(Q2, LambdaIndex(6, 0), 4)

    def test_margin_is_raising_degree(self):
        assert build_lambda(Q2, LambdaIndex(3, 2), 8).margin == 3

    def test_overflow_is_a_domain_error(self):
        # [511]_2^4 is far beyond double precision
        with pytest.raises(DomainError):
            build_lambda(Q2, LambdaIndex(0, 4), 512)
        # at q = 3 the level [k] itself overflows for k >= 647
        for build in (build_ladder, build_hamiltonian):
            with pytest.raises(DomainError):
                build(QOsc(q=3.0), 700)


class TestCommutators:
    def test_h_commutes_with_itself(self):
        H = build_hamiltonian(Q2, 6)
        np.testing.assert_allclose(commutator(H, H).matrix, np.zeros((6, 6)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(build_hamiltonian(Q2, 4), build_hamiltonian(Q2, 5))

    def test_closure_single_step(self):
        # [H, L^{1,0}] = E(1) L^{1,0} + E(1)(q-1) L^{1,1} on interior columns
        D = 10
        H = build_hamiltonian(Q2, D)
        lam = build_lambda(Q2, LambdaIndex(1, 0), D)
        lam_up = build_lambda(Q2, LambdaIndex(1, 1), D)
        e1 = Q2.omega * q_number(1, Q2.q)
        got = commutator(H, lam).matrix
        want = e1 * lam.matrix + e1 * (Q2.q - 1.0) * lam_up.matrix
        np.testing.assert_allclose(got[:, : D - 1], want[:, : D - 1], rtol=1e-12)

    def test_multicommutator_diagonal_closed_form(self):
        # entry (c+n, c) of the depth-3 result is (E(c+n) - E(c))^3 O_{c+n,c}
        D, n, m, j = 12, 2, 1, 3
        H = build_hamiltonian(ANH, D)
        lam = got = build_lambda(ANH, LambdaIndex(n, m), D)
        for _ in range(j):
            got = commutator(H, got)
        energies = np.diag(H.matrix).real
        for c in range(D - n):
            gap = energies[c + n] - energies[c]
            assert got.matrix[c + n, c] == pytest.approx(
                gap**j * lam.matrix[c + n, c], rel=1e-12, abs=1e-12
            )


def same_bits(real, cplx):
    """real holds the bits of the real part of cplx, whose imaginary part is 0."""
    assert real.dtype == np.float64
    assert np.array_equal(real.view(np.uint64), cplx.real.view(np.uint64))
    assert not cplx.imag.any()


def as_complex(op):
    return FockOperator(op.matrix.astype(complex), op.margin)


class TestRealOperators:
    """Every operator is one real band, stored as float64, and its dense
    products keep the bits of the complex128 ones."""

    MODELS = [QOsc(q=0.5), QOsc(q=1.0), QOsc(q=1.2), Q2, ANH]

    @pytest.mark.parametrize("params", MODELS, ids=repr)
    def test_builders_are_real(self, params):
        D = 16
        H = build_hamiltonian(params, D)
        lam = build_lambda(params, LambdaIndex(2, 1), D)
        a, adag = build_ladder(params, D)
        for op in (H, lam, a, adag, commutator(H, lam), commutator(H, lam.dagger())):
            assert op.matrix.dtype == np.float64

    @pytest.mark.parametrize("params", MODELS, ids=repr)
    def test_iterated_commutators_keep_the_complex_bits(self, params):
        D = 64
        H = build_hamiltonian(params, D)
        Hc = as_complex(H)
        for n in range(4):
            for m in range(4):
                real = build_lambda(params, LambdaIndex(n, m), D)
                cplx = as_complex(real)
                for _ in range(6):
                    real, cplx = commutator(H, real), commutator(Hc, cplx)
                    same_bits(real.matrix, cplx.matrix)

    @pytest.mark.parametrize("params", MODELS, ids=repr)
    def test_ladder_commutator_keeps_the_complex_bits(self, params):
        # neither operand is diagonal, so both sides take the two matmuls
        a, adag = build_ladder(params, 64)
        cplx = commutator(as_complex(a), as_complex(adag))
        same_bits(commutator(a, adag).matrix, cplx.matrix)


class TestHeisenberg:
    def test_zero_time(self):
        D = 8
        H = build_hamiltonian(Q2, D)
        lam = build_lambda(Q2, LambdaIndex(1, 1), D)
        np.testing.assert_allclose(heisenberg_evolve(lam, H, 0.0).matrix, lam.matrix)

    def test_diagonal_entries_invariant(self):
        D = 8
        H = build_hamiltonian(ANH, D)
        delta = build_lambda(ANH, LambdaIndex(0, 1), D)
        ev = heisenberg_evolve(delta, H, 0.37)
        np.testing.assert_allclose(ev.matrix, delta.matrix, atol=1e-14)

    def test_moduli_preserved(self):
        D = 10
        H = build_hamiltonian(Q2, D)
        lam = build_lambda(Q2, LambdaIndex(2, 1), D)
        ev = heisenberg_evolve(lam, H, 1.234)
        np.testing.assert_allclose(np.abs(ev.matrix), np.abs(lam.matrix), rtol=1e-13)

    def test_band_phase_is_q_power(self):
        # in tau, entry (j+1, j) of L^{1,0} rotates at rate [j+1]_q - [j]_q = q^j
        params = QOsc(q=1.2, omega=2.0)
        D, tau = 8, 0.9
        H = build_hamiltonian(params, D)
        lam = build_lambda(params, LambdaIndex(1, 0), D)
        ev = heisenberg_evolve(lam, H, tau / params.omega)
        for j in range(D - 1):
            phase = np.angle(ev.matrix[j + 1, j] / lam.matrix[j + 1, j])
            expected = (tau * params.q**j + math.pi) % (2 * math.pi) - math.pi
            assert phase == pytest.approx(expected, abs=1e-12)

    def test_nondiagonal_rejected(self):
        D = 6
        lam = build_lambda(Q2, LambdaIndex(1, 0), D)
        with pytest.raises(DomainError):
            heisenberg_evolve(lam, lam, 1.0)

    def test_nearly_diagonal_rejected(self):
        # a 1e-13 entry is below any relative tolerance on the diagonal,
        # but the phases e^{i(E_r - E_c) t} would silently drop it
        D = 6
        mat = build_hamiltonian(Q2, D).matrix.copy()
        mat[0, 3] = 1e-13
        lam = build_lambda(Q2, LambdaIndex(1, 0), D)
        with pytest.raises(DomainError):
            heisenberg_evolve(lam, FockOperator(mat), 1.0)


def _bits(a):
    return a.view(np.uint64)


# the real operators the package builds, at a D whose outer product of
# phases fits one row tile (64) and one that takes several (300)
@pytest.mark.parametrize("D", [64, 300])
@pytest.mark.parametrize("params", [QOsc(q=0.5), QOsc(q=1.2), ANH], ids=["q0.5", "q1.2", "anh"])
def test_evolved_real_operators_keep_their_bits(params, D):
    H = build_hamiltonian(params, D)
    a, adag = build_ladder(params, D)
    ops = [H, a, adag, build_lambda(params, LambdaIndex(2, 1), D)]
    phases = np.exp(1j * np.diag(H.matrix).real * 0.37)
    outer = np.outer(phases, phases.conj())
    for op in ops:
        got = heisenberg_evolve(op, H, 0.37).matrix
        # a real operand rounds alike in either operand order
        assert np.array_equal(_bits(got), _bits(op.matrix * outer))
        assert np.array_equal(_bits(got), _bits(np.multiply(outer, op.matrix)))


@pytest.mark.parametrize("D", [64, 300])
def test_evolved_complex_operator_takes_the_outer_product_first(D):
    # a complex product rounds by its operand order; NumPy's O * outer
    # takes one order below an outer of 256 KB and the other above
    rng = np.random.default_rng(D)
    O = FockOperator(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
    H = build_hamiltonian(ANH, D)
    phases = np.exp(1j * np.diag(H.matrix).real * 0.37)
    want = np.multiply(np.outer(phases, phases.conj()), O.matrix)
    assert np.array_equal(_bits(heisenberg_evolve(O, H, 0.37).matrix), _bits(want))


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(Q2, 0.0, D=5)
        np.testing.assert_allclose(st, np.eye(5)[0])

    def test_read_only_vector(self):
        st = coherent_state(Q2, 0.8, D=40)
        assert st.shape == (40,) and st.dtype == complex
        with pytest.raises(ValueError):
            st[0] = 0.0

    def test_classical_amplitudes(self):
        alpha = 0.8
        st = coherent_state(QOsc(q=1.0), alpha, D=40)
        for k in range(len(st)):
            expected = math.exp(-0.32) * alpha**k / math.sqrt(math.factorial(k))
            assert st[k].real == pytest.approx(expected, abs=1e-12)

    def test_q_moment_identity(self):
        # <(a†)^{n+r+k} a^{r+k}> = (alpha*)^n |alpha|^{2(r+k)}
        params = QOsc(q=1.2)
        alpha = 0.8
        st = coherent_state(params, alpha, D=40)
        _, adag = build_ladder(params, 40)
        a, _ = build_ladder(params, 40)
        for n in (0, 1, 2):
            for rk in (0, 1, 2, 3):
                op = FockOperator(
                    np.linalg.matrix_power(adag.matrix, n + rk)
                    @ np.linalg.matrix_power(a.matrix, rk),
                    margin=n,
                )
                got = expectation(st, op)
                want = np.conj(alpha) ** n * abs(alpha) ** (2 * rk)
                assert got == pytest.approx(want, abs=1e-9)

    def test_radius_rejected(self):
        # outside the radius no cutoff bounds the mass above it, at any D
        for D in (2, 40, 400):
            with pytest.raises(TruncationError):
                coherent_state(QOsc(q=0.5), 1.5, D)

    def test_radius_rejected_at_fixed_dim(self):
        # outside the radius every term ratio exceeds 1, so no cutoff bounds
        # the mass above it
        with pytest.raises(TruncationError, match="tail bound inf"):
            coherent_state(QOsc(q=0.5), 1.5, D=40)

    def test_dim_refuses_radius_at_once(self):
        # |alpha|^2 = 2.25 is outside the radius 2; a walk over the terms
        # would run to its term cap before giving up
        with pytest.raises(ConvergenceError, match=r"\|x\|=2\.25 outside radius 2\.0"):
            _weight_window(1.5**2, 0.5, 0, 1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [27.0, 30.0])
    def test_large_amplitude(self, alpha):
        # the weights at k = 0 and at the mode k ~ |alpha|^2 differ by about
        # e^{|alpha|^2}, beyond double precision
        tol = 1e-14
        k0, _, w, _, _ = _weight_window(alpha**2, 1.0, 0, tol)
        st = coherent_state(ANH, alpha, k0 + len(w) + 1, tol=tol)
        probs = np.abs(st) ** 2
        np.testing.assert_allclose(probs[k0 : k0 + len(w)], w, rtol=1e-12, atol=0)
        # the state keeps the products below the series window as they are
        assert k0 > 0 and probs[k0 - 1] > 0.0
        assert np.vdot(st, st).real == pytest.approx(1.0)


class TestExpectation:
    def test_vacuum_energy_is_zero(self):
        for params in (Q2, ANH):
            st = coherent_state(params, 0.0, D=6)
            H = build_hamiltonian(params, 6)
            assert expectation(st, H) == pytest.approx(0.0, abs=1e-14)

    def test_classical_number_mean(self):
        alpha = 0.8
        st = coherent_state(QOsc(q=1.0), alpha, D=40)
        delta = build_lambda(QOsc(q=1.0), LambdaIndex(0, 1), 40)
        assert expectation(st, delta) == pytest.approx(abs(alpha) ** 2, abs=1e-12)

    def test_q_number_mean_against_weights(self):
        params = QOsc(q=1.2)
        alpha = 0.8
        st = coherent_state(params, alpha, D=40)
        delta = build_lambda(params, LambdaIndex(0, 1), 40)
        # q-Poisson weights exp(k ln|alpha|^2 - ln [k]_q!), normalized
        a2 = abs(alpha) ** 2
        w = [
            math.exp(k * math.log(a2) - log_q_factorial(k, params.q))
            for k in range(60)
        ]
        want = math.fsum(q_number(k, params.q) * wk for k, wk in enumerate(w))
        want /= math.fsum(w)
        assert expectation(st, delta) == pytest.approx(want, rel=1e-10)

    def test_dimension_mismatch(self):
        st = coherent_state(Q2, 0.0, D=5)
        with pytest.raises(DimensionError):
            expectation(st, build_hamiltonian(Q2, 6))


def bits(a):
    """The array's bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestStackedHelpers:
    """The stacked array helpers give each slice the bits of the
    per-operator path."""

    @pytest.mark.parametrize("k", [-3, 0, 2])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_band_array_is_diag_per_row(self, k, dtype):
        rng = np.random.default_rng(abs(k) + 1)
        rows = (rng.normal(size=(4, 7)) * 10.0 ** rng.uniform(-3, 6, (4, 7))).astype(dtype)
        rows[1, 2] = -0.0
        rows[3, 0] = 0.0
        stack = fock._band_array(rows, k)
        assert stack.shape == (4, 7 + abs(k), 7 + abs(k)) and stack.dtype == rows.dtype
        for row, got in zip(rows, stack):
            want = np.diag(row, k)
            assert np.array_equal(got, want) and np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(_band_operator(row, k).matrix), bits(want))

    def test_band_array_refuses_an_overflowing_stack(self):
        rows = np.ones((3, 5))
        rows[2, 4] = math.inf
        with pytest.raises(DomainError, match="operator entries overflow double precision at D=7"):
            fock._band_array(rows, -2)

    @pytest.mark.parametrize("params", [QOsc(q=0.5), Q2, ANH], ids=repr)
    def test_diag_commutator_is_commutator_per_slice(self, params):
        D = 9
        H = build_hamiltonian(params, D)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3, D, D)) * 10.0 ** rng.uniform(-3, 6, (3, D, D))
        X[0, 4, 4] = -0.0
        X[2, :, 3] = 0.0
        stack = fock._diag_commutator(np.diag(H.matrix), X)
        for x, got in zip(X, stack):
            want = commutator(H, FockOperator(x)).matrix
            assert np.array_equal(got, want) and np.array_equal(bits(got), bits(want))

    def test_diag_commutator_refuses_an_overflowing_stack(self):
        H = FockOperator(np.diag([0.0, 1e300, -1e300, 2.0]))
        X = np.ones((3, 4, 4))
        X[1, 1, 2] = 1e10
        with pytest.raises(DomainError) as per_operator:
            commutator(H, FockOperator(X[1]))
        with pytest.raises(DomainError) as stacked:
            fock._diag_commutator(np.diag(H.matrix), X)
        assert str(stacked.value) == str(per_operator.value)
        assert str(stacked.value) == "commutator entries overflow double precision at D=4"


# dimensions around the row-tile budget: one tile, a tile edge at 64, and
# several row tiles of a matrix at 300, 512 and 513
TILE_DIMS = [2, 63, 64, 300, 512, 513]


def _spread(rng, shape):
    """Normal entries with magnitudes spread over nine decades."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 6, shape)


class TestRowTiles:
    """Every tiled helper keeps the bits of its one-shot formula, written
    out here, on single matrices and on stacks."""

    @pytest.mark.parametrize(
        "shape", [(7,), (2, 2), (513, 513), (3, 64, 64), (9, 64, 64), (3, 300, 300), (2, 0, 5)]
    )
    def test_tiles_cover_the_array_once_in_order(self, shape):
        cells = np.arange(math.prod(shape)).reshape(shape)
        tiles = fock._row_tiles(shape)
        seen = np.concatenate([cells[idx].ravel() for idx in tiles])
        assert np.array_equal(seen, cells.ravel())
        for idx in tiles:
            tile = cells[idx]
            assert tile.size <= fock._ROW_TILE
            if tile.ndim == 2 and len(tiles) > 1:
                assert tile.shape[0] >= 4
        # a stack that fits one tile, every stack of the suites at D = 64, is one
        if math.prod(shape) <= fock._ROW_TILE:
            assert len(tiles) == 1

    @pytest.mark.parametrize("D", TILE_DIMS)
    @pytest.mark.parametrize("S", [None, 3])
    def test_diag_commutator(self, D, S):
        rng = np.random.default_rng(D)
        d = _spread(rng, D)
        X = _spread(rng, (D, D) if S is None else (S, D, D))
        X[..., 0, -1] = -0.0
        for x in (X, np.swapaxes(X, -1, -2)):
            got = fock._diag_commutator(d, x)
            want = d[:, None] * x - x * d[None, :]
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("D", [63, 513])
    def test_diag_commutator_with_a_complex_diagonal(self, D):
        rng = np.random.default_rng(D)
        d = _spread(rng, D) + 1j * _spread(rng, D)
        X = _spread(rng, (D, D))
        got = fock._diag_commutator(d, X)
        assert np.array_equal(bits(got), bits(d[:, None] * X - X * d[None, :]))

    @pytest.mark.parametrize("D", TILE_DIMS)
    @pytest.mark.parametrize("S", [None, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_sees_the_last_tile(self, D, S, bad):
        a = np.ones((D, D) if S is None else (S, D, D))
        assert fock._finite(a, D) is a
        a[..., -1, -1] = bad
        msg = f"operator entries overflow double precision at D={D}"
        with pytest.raises(DomainError, match=msg):
            fock._finite(a, D)

    @pytest.mark.parametrize("D", TILE_DIMS)
    def test_commutator_overflow_in_the_last_tile(self, D):
        d = np.ones(D)
        d[-1] = 1e300
        X = np.ones((D, D))
        X[-1, 0] = 1e10
        msg = f"commutator entries overflow double precision at D={D}"
        with pytest.raises(DomainError, match=msg):
            fock._diag_commutator(d, X)

    @pytest.mark.parametrize("D", TILE_DIMS)
    def test_ordered_sum(self, D):
        rng = np.random.default_rng(D)
        products = [_spread(rng, (D, D)) for _ in range(3)]
        terms = [(0, 1.5), (2, -0.25), (1, 3.0)]
        want = np.zeros((D, D))
        for s, coeff in terms:
            want += coeff * products[s]
        assert np.array_equal(bits(fock._ordered_sum(terms, products)), bits(want))

    @pytest.mark.parametrize("D", TILE_DIMS)
    @pytest.mark.parametrize("T", [1, 7, 101])
    def test_oracle_series(self, D, T):
        # a dense real L, not a band: every entry of L @ Psi sums D terms
        rng = np.random.default_rng(D + T)
        lam = _spread(rng, (D, D))
        psi = rng.normal(size=(D, T)) + 1j * rng.normal(size=(D, T))
        psi_conj = np.conj(psi)
        want = np.einsum("dt,dt->t", psi_conj, lam @ psi)
        assert np.array_equal(bits(fock._oracle_series(lam, psi, psi_conj)), bits(want))

    @pytest.mark.parametrize("S", [None, 2])
    def test_diag_commutator_holds_its_result_and_a_tile(self, S):
        # the parent formula held two more D x D products besides the result
        D = 512
        rng = np.random.default_rng(S)
        d = _spread(rng, D)
        X = _spread(rng, (D, D) if S is None else (S, D, D))
        fock._diag_commutator(d, X)
        tracemalloc.start()
        try:
            out = fock._diag_commutator(d, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * 8 * fock._ROW_TILE
