import math

import pytest

from qdosc import Anharmonic, DomainError, QOsc

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
