"""Dynamics of the q-deformed oscillator and the second-order
anharmonic oscillator: exact q-arithmetic, closed-form algebraic
expansions, coherent-state dynamics and the anharmonicity <-> q parameter
isomorphism, each verified against a dense truncated Fock-space matrix
oracle (qdosc.fock) by qdosc.verify.
"""

from .algebra import (
    ClosureCoeffs,
    ExpansionTerm,
    closure_coeffs,
    expansion_scale,
    multicommutator_expansion,
    normal_order_expansion,
    scaling_phase_check,
)
from .dynamics import (
    PhaseCurve,
    TimeSeries,
    band_phase_trace,
    collapse_transform,
    evolve_anharmonic_closed,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
    relation_identity_residual,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    PhaseUnwrapError,
    QdoscError,
    TruncationError,
)
from .isomap import IsoMap, ResidualReport, isomorphism_residuals, map_to_q
from .params import Anharmonic, LambdaIndex, ModelParams, QOsc, energy, level_value
from .qcore import (
    q_exponential,
    q_number,
    q_stirling2,
    stirling2,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
