"""The package's public surface and the benchmark tracer's pins on it."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import qdosc

EXPORTS = {
    "Anharmonic",
    "CheckResult",
    "ClosureCoeffs",
    "ConvergenceError",
    "DimensionError",
    "DomainError",
    "ExpansionTerm",
    "IsoMap",
    "LambdaIndex",
    "ModelParams",
    "PhaseCurve",
    "PhaseUnwrapError",
    "QOsc",
    "QdoscError",
    "ResidualReport",
    "TimeSeries",
    "TruncationError",
    "band_phase_trace",
    "closure_coeffs",
    "collapse_transform",
    "energy",
    "evolve_anharmonic_closed",
    "evolve_anharmonic_expectation",
    "evolve_q_expectation",
    "expansion_scale",
    "isomorphism_residuals",
    "level_value",
    "map_to_q",
    "multicommutator_expansion",
    "normal_order_expansion",
    "q_exponential",
    "q_number",
    "q_stirling2",
    "relation_identity_residual",
    "run_suite",
    "scaling_phase_check",
    "stirling2",
}

# the dense oracle and the dense packagers: importable from their modules only
DROPPED = {
    "qdosc.fock": (
        "FockOperator",
        "build_hamiltonian",
        "build_ladder",
        "build_lambda",
        "coherent_state",
        "commutator",
        "expectation",
        "heisenberg_evolve",
    ),
    "qdosc.algebra": ("expansion_matrix", "normal_order_matrix", "power_law_multicommutator"),
}

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_package_exports_exactly_the_public_surface():
    exported = {
        name
        for name, value in vars(qdosc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(EXPORTS) == 37
    assert exported == EXPORTS


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in DROPPED.items() for n in names]
)
def test_dropped_name_imports_from_its_module(module, name):
    assert not hasattr(qdosc, name)
    assert callable(getattr(importlib.import_module(module), name))


def test_benchmark_tracer_finds_every_pinned_function():
    # the tracer is executed from its source, so no bytecode is written
    # beside it; Tracer() raises RuntimeError for a pinned function that
    # is missing from its module
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    for layer in tracer.LAYERS:
        importlib.import_module(f"qdosc.{layer}")
    traced = tracer.Tracer()
    assert not traced._patched
    for layer, names in tracer.REPORTED.items():
        assert {f"{layer}.{name}" for name in names} <= set(traced.names)
