import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdosc import (
    DomainError,
    closure_coeffs,
    expansion_scale,
    isomorphism_residuals,
    map_to_q,
    q_number,
)


class TestMapToQ:
    def test_first_index(self):
        iso = map_to_q(10.0, 1.0, 1)
        assert iso.q == pytest.approx(13.0 / 11.0, rel=1e-14)
        assert iso.omega_q == pytest.approx(11.0, rel=1e-13)
        assert iso.p_n == pytest.approx(11.0 / 13.0, rel=1e-14)

    def test_second_index(self):
        iso = map_to_q(10.0, 1.0, 2)
        assert iso.q == pytest.approx(7.0 / 6.0, rel=1e-14)
        assert q_number(2, iso.q) == pytest.approx(13.0 / 6.0, rel=1e-13)
        assert iso.omega_q == pytest.approx(24.0 / (13.0 / 6.0), rel=1e-13)

    @given(st.floats(0.2, 500.0), st.floats(0.01, 10.0), st.integers(1, 12))
    @settings(max_examples=200)
    def test_q_always_above_one(self, omega1, omega2, n):
        iso = map_to_q(omega1, omega2, n)
        assert iso.q > 1.0

    def test_q_depends_on_n_and_decays(self):
        qs = [map_to_q(10.0, 1.0, n).q for n in range(1, 30)]
        assert len(set(qs)) == len(qs)
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1.1  # large-n limit approaches 1 from above

    def test_weak_anharmonicity_approaches_one(self):
        q_weak = map_to_q(1000.0, 1.0, 1).q
        q_strong = map_to_q(1.0, 1.0, 1).q
        assert 1.0 < q_weak < q_strong

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            map_to_q(10.0, 0.0, 1)
        with pytest.raises(DomainError):
            map_to_q(10.0, 1.0, 0)
        with pytest.raises(DomainError):
            map_to_q(-1.0, 1.0, 1)

    @pytest.mark.parametrize(
        "omega1, omega2, name",
        [
            (math.inf, 1.0, "omega1"),
            (math.nan, 1.0, "omega1"),
            (10.0, math.inf, "omega2"),
            (10.0, math.nan, "omega2"),
        ],
    )
    def test_non_finite_parameter_is_named(self, omega1, omega2, name):
        with pytest.raises(DomainError, match=name):
            map_to_q(omega1, omega2, 1)


class TestResiduals:
    def test_machine_precision_grid(self):
        for ratio in (1.0, 5.0, 10.0, 100.0):
            for n in (1, 2, 3, 4):
                rep = isomorphism_residuals(ratio, 1.0, n, j_max=6)
                assert rep.max_residual() < 1e-12

    def test_z_scales_agree(self):
        # both commutation scales equal n(omega1 + (n+2) omega2): 28 at n = 2
        rep = isomorphism_residuals(10.0, 1.0, 2)
        assert expansion_scale(rep.iso.source, 2) == pytest.approx(28.0)
        assert expansion_scale(rep.iso.q_params(), 2) == pytest.approx(28.0, rel=1e-13)

    def test_mapped_closure_coeffs_match(self):
        for n in (1, 2, 3):
            iso = map_to_q(10.0, 1.0, n)
            cq = closure_coeffs(iso.q_params(), n)
            ca = closure_coeffs(iso.source, n)
            assert cq.c_same == pytest.approx(ca.c_same, abs=1e-12, rel=1e-12)
            assert cq.c_up == pytest.approx(ca.c_up, abs=1e-12, rel=1e-12)

    def test_p_matches_inverse_q_exactly(self):
        rep = isomorphism_residuals(7.0, 2.0, 3)
        assert rep.p_residual < 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "omega1, omega2, n, j_max",
    [
        (100.0, 1.0, 4, 200),  # the expansion coefficients overflow
        (0.001, 0.001, 1, 200),  # Z^j underflows to 0
        (0.001, 1.0, 2, 400),  # Z^j overflows
        (0.001, 0.001, 4, 200),  # j! is beyond double precision
    ],
)
def test_depth_beyond_double_precision_raises_domain_error(omega1, omega2, n, j_max):
    with pytest.raises(DomainError):
        isomorphism_residuals(omega1, omega2, n, j_max)


def test_negative_depth_raises_domain_error():
    with pytest.raises(DomainError):
        isomorphism_residuals(10.0, 1.0, 1, -1)
