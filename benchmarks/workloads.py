"""The four benchmark workloads.

Each workload turns a seed into a warm-up operation and the list of
operations that make up one timed pass. An operation is a
name, a ``run`` callable that calls into qdosc and is timed, and a
``check`` callable that judges ``run``'s result outside the timed region
and returns True when it is correct. Checks are written so that a NaN
fails them: ``not (r <= tol)`` rather than ``r > tol``.

Workload code reaches qdosc through module attributes (``dynamics.f``),
never through names bound at import, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Any, Callable, NamedTuple

import numpy as np

import qdosc.algebra as algebra
import qdosc.cli as cli
import qdosc.dynamics as dynamics
import qdosc.fock as fock
import qdosc.verify as verify
from qdosc.params import Anharmonic, LambdaIndex, QOsc


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _within(err: float, tol: float) -> bool:
    return bool(err <= tol)  # False for NaN


def _rel_max_diff(test: np.ndarray, ref: np.ndarray) -> float:
    scale = max(1e-300, float(np.abs(ref).max()))
    return float(np.abs(test - ref).max()) / scale


# -- verify_all ---------------------------------------------------------


def verify_all(seed: int, tmp: str) -> tuple[Op, list[Op]]:
    """The release gate: ``qdosc verify --suite all`` at the default D=64.

    The suite grids are fixed by qdosc, so the seed does not reach them.
    The warm-up runs the smallest suite through the same command.
    """
    out = os.path.join(tmp, "verify.json")

    def check(rc):
        with open(out) as fh:
            records = json.load(fh)
        os.remove(out)
        return (
            rc == 0
            and len(records) > 0
            and all(
                r["pass"] is True and _within(r["max_residual"], r["tolerance"])
                for r in records
            )
        )

    def command(suite):
        return lambda: cli.main(["verify", "--suite", suite, "--out", out])

    return Op("verify_isomorphism", command("isomorphism"), check), [
        Op("verify_all", command("all"), check)
    ]


# -- trace_long ---------------------------------------------------------

TRACE_POINTS = 200_000
TRACE_AMPLITUDES = (1.0, 3.0)
TRACE_ANHARMONIC = Anharmonic(omega1=10.0, omega2=1.0)
TRACE_Q = QOsc(q=1.1)


def _q_moment(x: float, q: float, m: int) -> float:
    """sum_k [k]_q^m x^k/[k]_q! divided by exp_q(x), for m <= 2.

    From [k] x^k/[k]! = x * x^(k-1)/[k-1]! and [k] = 1 + q [k-1]:
    1, x and x + q x^2. Independent of qdosc's Stirling tables.
    """
    return (1.0, x, x + q * x * x)[m]


def trace_long(seed: int, tmp: str) -> tuple[Op, list[Op]]:
    """Long coherent-state traces: the weighted series builds a T x K phase
    matrix, the closed form does not, and no Fock matrix is built.

    Per amplitude |alpha| in {1, 3} the m values {0, 1, 2} are all used, so
    the series length K, and with it the work, does not depend on the seed;
    the seed picks n per (|alpha|, m), the alpha phases and the time spans.
    """
    rng = random.Random(seed)
    t_grid = np.linspace(0.0, rng.uniform(2.0, 4.0) * math.pi, TRACE_POINTS)
    tau_grid = np.linspace(0.0, rng.uniform(10.0, 20.0), TRACE_POINTS)
    ops = []
    for amp in TRACE_AMPLITUDES:
        for m in (0, 1, 2):
            phase = rng.uniform(0, 2 * math.pi)
            alpha = amp * complex(math.cos(phase), math.sin(phase))
            idx = LambdaIndex(rng.randint(1, 3), m)
            ops.append(_anharmonic_trace_op(alpha, idx, t_grid))
            ops.append(_q_trace_op(alpha, idx, tau_grid))
    return ops[0], ops


def _anharmonic_trace_op(alpha: complex, idx: LambdaIndex, t_grid) -> Op:
    def run():
        series = dynamics.evolve_anharmonic_expectation(TRACE_ANHARMONIC, alpha, idx, t_grid)
        closed = dynamics.evolve_anharmonic_closed(TRACE_ANHARMONIC, alpha, idx, t_grid)
        return series.values, closed.values

    def check(result):
        series, closed = result
        return _within(_rel_max_diff(series, closed), 1e-10)

    return Op(f"anharmonic|alpha|={abs(alpha):g},{tuple(idx)}", run, check)


def _q_trace_op(alpha: complex, idx: LambdaIndex, tau_grid) -> Op:
    """The q series has no closed form; its tau = 0 value is the closed-form
    moment, and every |value| is bounded by it (positive weights)."""
    a2 = abs(alpha) ** 2
    expected0 = np.conj(alpha) ** idx.n * _q_moment(a2, TRACE_Q.q, idx.m)

    def run():
        return dynamics.evolve_q_expectation(TRACE_Q, alpha, idx, tau_grid).values

    def check(values):
        bound = abs(expected0) * (1.0 + 1e-10)
        return (
            bool(np.isfinite(values).all())
            and _within(abs(values[0] - expected0) / abs(expected0), 1e-10)
            and _within(float(np.abs(values).max()), bound)
        )

    return Op(f"q|alpha|={abs(alpha):g},{tuple(idx)}", run, check)


# -- oracle_dim512 ------------------------------------------------------

ORACLE_DIM = 512
ORACLE_MODELS = (QOsc(q=0.5), QOsc(q=1.2), Anharmonic(omega1=10.0, omega2=1.0))
ORACLE_TIMES = 101
CLOSURE_PAIRS = 2


def oracle_dim512(seed: int, tmp: str) -> tuple[Op, list[Op]]:
    """Few, large dense operations: the closure identity and the matrix
    oracle trace at D=512, one operation per model, n, m <= 2.

    The seed picks the (n, m) pairs, the alpha phase and the time span.
    q = 1.2 at D = 512 keeps every entry finite (largest about 2e164); the
    overflow range beyond it is out of scope here.
    """
    rng = random.Random(seed)
    ops = []
    for model in ORACLE_MODELS:
        pairs = [LambdaIndex(rng.randint(1, 2), rng.randint(0, 2)) for _ in range(CLOSURE_PAIRS)]
        idx = LambdaIndex(rng.randint(1, 2), rng.randint(0, 2))
        phase = rng.uniform(0, 2 * math.pi)
        alpha = 0.8 * complex(math.cos(phase), math.sin(phase))
        times = np.linspace(0.0, rng.uniform(5.0, 10.0), ORACLE_TIMES)
        ops.append(_oracle_op(model, pairs, idx, alpha, times))
    return ops[0], ops


def _closure_residuals(model, H, idx: LambdaIndex, D: int) -> list[float]:
    """Same identity as verify.suite_closure, for one (n, m): the residual
    of [H, L] and of [H, L^dagger]."""
    n, m = idx
    cc = algebra.closure_coeffs(model, n)
    lam = fock.build_lambda(model, idx, D)
    lam_up = fock.build_lambda(model, LambdaIndex(n, m + 1), D).matrix
    lhs = fock.commutator(H, lam).matrix
    rhs = cc.c_same * lam.matrix + cc.c_up * lam_up
    lhs_d = fock.commutator(H, lam.dagger()).matrix
    rhs_d = -cc.c_same * lam.matrix.conj().T - cc.c_up * lam_up.conj().T
    return [
        verify.interior_rel_error(rhs, lhs, D - 1 - n),
        verify.interior_rel_error(rhs_d.T, lhs_d.T, D - 1 - n),
    ]


def _oracle_op(model, pairs, idx, alpha, times) -> Op:
    D = ORACLE_DIM

    def run():
        H = fock.build_hamiltonian(model, D)
        closure = [r for p in pairs for r in _closure_residuals(model, H, p, D)]
        oracle = verify.oracle_expectation_series(model, alpha, idx, times, D)
        if isinstance(model, QOsc):
            analytic = dynamics.evolve_q_expectation(model, alpha, idx, times)
        else:
            analytic = dynamics.evolve_anharmonic_expectation(model, alpha, idx, times)
        return closure, oracle, analytic.values

    def check(result):
        closure, oracle, analytic = result
        return all(_within(r, 1e-10) for r in closure) and _within(
            _rel_max_diff(analytic, oracle), 1e-8
        )

    return Op(f"{model}", run, check)


# -- cli_export ---------------------------------------------------------

EXPORT_STEPS = 100_000


def cli_export(seed: int, tmp: str) -> tuple[Op, list[Op]]:
    """The CLI's file output: a long ``evolve`` CSV, ``collapse``, ``sweep``
    and ``map``, then an ``evolve --config <sidecar>`` re-run that must
    reproduce the data file byte for byte.

    The seed picks the evolve (n, m), alpha and time span, the collapse q,
    column and index lists, the sweep ratios and the map parameters. The
    step counts are fixed, so the work does not depend on the seed. The
    warm-up is the ``map`` command.
    """
    rng = random.Random(seed)
    phase = rng.uniform(0, 2 * math.pi)
    amp = rng.uniform(0.5, 3.0)
    evolve_out = os.path.join(tmp, "trace.csv")
    rerun_out = os.path.join(tmp, "trace_rerun.csv")
    evolve_args = [
        "evolve", "--model", "anharmonic", "--method", "closed",
        "--omega1", repr(rng.uniform(5.0, 20.0)), "--omega2", "1.0",
        "--alpha-re", repr(amp * math.cos(phase)), "--alpha-im", repr(amp * math.sin(phase)),
        "--n", str(rng.randint(1, 3)), "--m", str(rng.randint(0, 2)),
        "--tau-max", repr(rng.uniform(2.0, 4.0) * math.pi), "--steps", str(EXPORT_STEPS),
        "--out", evolve_out,
    ]  # fmt: skip
    j_col = rng.randint(1, 3)
    collapse_args = [
        "collapse", "--q", repr(rng.uniform(1.1, 1.5)), "--j-col", str(j_col),
        "--n-list", "1,2,3", "--m-list", ",".join(map(str, range(rng.randint(1, 3)))),
        "--tau-max", repr(rng.uniform(5.0, 10.0)), "--out", os.path.join(tmp, "collapse.csv"),
    ]  # fmt: skip
    ratios = sorted(round(rng.uniform(1.0, 100.0), 3) for _ in range(4))
    sweep_args = [
        "sweep", "--omega-ratios", ",".join(map(repr, ratios)), "--n-values", "1,2,3,4",
        "--out", os.path.join(tmp, "sweep.csv"),
    ]  # fmt: skip
    map_args = [
        "map", "--omega1", repr(rng.uniform(1.0, 50.0)), "--omega2", "1.0",
        "--n", str(rng.randint(1, 4)), "--out", os.path.join(tmp, "map.json"),
    ]  # fmt: skip
    rerun_args = ["evolve", "--config", evolve_out + ".meta.json", "--out", rerun_out]

    def command(name, args, check=lambda rc: rc == 0):
        return Op(name, lambda: cli.main(args), check)

    def same_bytes(rc):
        with open(evolve_out, "rb") as a, open(rerun_out, "rb") as b:
            identical = a.read() == b.read()
        os.remove(rerun_out)
        return rc == 0 and identical

    ops = [
        command("evolve", evolve_args),
        command("collapse", collapse_args),
        command("sweep", sweep_args),
        command("map", map_args),
        command("evolve_rerun", rerun_args, same_bytes),
    ]
    return ops[3], ops


# How strongly each workload's time follows the reference kernel of
# speed.py: the slope of log(operation time) on log(kernel time) over
# 10-s windows of a 4-min recording on a 2-vCPU shared VM, where the
# windows' slow-downs spanned 1.35x. oracle_dim512, whose time goes to
# D=512 complex matrix products, slowed about half as much as the kernel
# (slope 0.58, correlation 0.94; 0.46 across the medians of ten runs).
# Scaling it fully over-corrected: its run-to-run spread was 0.09 against
# 0.11 unscaled. Across ten runs the medians of the other workloads
# followed the kernel with slopes 0.8 to 1.0, and they use 1.
SPEED_EXPONENT = {"oracle_dim512": 0.5}

WORKLOADS = {
    "verify_all": verify_all,
    "trace_long": trace_long,
    "oracle_dim512": oracle_dim512,
    "cli_export": cli_export,
}
