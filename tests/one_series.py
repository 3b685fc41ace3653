"""The phase sum of one series, as the row of its stack of one."""

import numpy as np

from qdosc.dynamics import _phase_sum


def one_series_sum(rate, t, r, c, rate0, size=None):
    """_phase_sum's row for the float rates rate and rate0."""
    return _phase_sum(np.array([rate]), t, r, c, np.array([rate0]), size)[0]
