import math
import warnings

import numpy as np
import pytest

from qdosc import Anharmonic, DomainError, QOsc, closure_coeffs, expansion_scale
from qdosc.params import energy

VALID = {QOsc: {"q": 1.2, "omega": 1.0}, Anharmonic: {"omega1": 10.0, "omega2": 1.0}}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "model, field",
    [(QOsc, "q"), (QOsc, "omega"), (Anharmonic, "omega1"), (Anharmonic, "omega2")],
)
def test_non_finite_parameter_is_refused(model, field, bad):
    with pytest.raises(DomainError, match=field):
        model(**{**VALID[model], field: bad})


@pytest.mark.parametrize(
    "model, field, value",
    [
        (QOsc, "q", 0.0),
        (QOsc, "omega", -1.0),
        (Anharmonic, "omega1", 0.0),
        (Anharmonic, "omega2", -1e-300),
    ],
)
def test_out_of_range_parameter_is_refused(model, field, value):
    with pytest.raises(DomainError, match=field):
        model(**{**VALID[model], field: value})


def test_harmonic_limit_is_allowed():
    assert Anharmonic(omega1=10.0, omega2=0.0).omega2 == 0.0


VALID_MODELS = {model: model(**kwargs) for model, kwargs in VALID.items()}
# finite parameters whose rates or energies leave double precision
HUGE = [Anharmonic(1e308, 1.0), QOsc(q=2.0, omega=1e308)]


@pytest.mark.parametrize("params", HUGE, ids=repr)
@pytest.mark.parametrize("rate", [closure_coeffs, expansion_scale])
def test_overflowing_rates_are_refused(rate, params):
    with pytest.raises(DomainError, match="closure rates overflow"):
        rate(params, 2)
    # n^2 of an anharmonic rate as a float, or [n] itself, is beyond double
    with pytest.raises(DomainError):
        rate(VALID_MODELS[type(params)], 10**200)


@pytest.mark.parametrize(
    "params, k",
    [(p, k) for p in HUGE for k in (2, np.arange(4))] + [(Anharmonic(1.0, 1e308), np.arange(4))],
    ids=repr,
)
def test_overflowing_energy_is_refused_without_warning(params, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="energy overflows"):
            energy(params, k)
