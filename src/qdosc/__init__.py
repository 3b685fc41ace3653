"""Dynamics of the q-deformed oscillator and the second-order
anharmonic oscillator on truncated Fock spaces: exact q-arithmetic, a dense
matrix oracle, closed-form algebraic expansions, coherent-state dynamics and
the anharmonicity <-> q parameter isomorphism.
"""

from .algebra import (
    ClosureCoeffs,
    ExpansionTerm,
    closure_coeffs,
    expansion_matrix,
    expansion_scale,
    multicommutator_expansion,
    normal_order_expansion,
    normal_order_matrix,
    power_law_multicommutator,
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
from .fock import (
    FockOperator,
    build_hamiltonian,
    build_ladder,
    build_lambda,
    coherent_state,
    commutator,
    expectation,
    heisenberg_evolve,
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
