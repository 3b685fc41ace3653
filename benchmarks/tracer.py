"""Outside-in tracer for the qdosc modules.

The tracer never edits the package. It replaces every public function of
the traced modules with a timing wrapper, in every ``qdosc.*`` namespace
that binds the function: the modules import names from one another
(``from .fock import build_lambda`` in ``algebra`` and ``verify``), so
patching the defining module alone would miss most calls. Module-level
dicts that hold functions (``verify.SUITES``, ``cli.COMMANDS``) are
patched the same way. ``uninstall`` restores every binding.

Each call is one span (function, start, end, parent span, operation id).
Spans are kept in memory as compact columns while ``keep_spans`` is set
and written out when the run ends; calls, self time and counts are
accumulated for every traced call either way. Self time is a span's duration minus the duration of its direct
children; calls are single-threaded, so children nest strictly.

Some wrapped functions also feed computed counts, which are exact integers
derived from arguments and results, not from timing:

- ``fock.matrix_bytes``: sum of ``nbytes`` of every operator a traced
  ``fock`` function returns;
- ``fock.commutator.flops``: two complex DxD matmuls per ``commutator``
  call, counted as 2 * 8 * D**3 real floating-point operations;
- ``dynamics.points``: sum of the time-grid lengths a traced ``dynamics``
  function returns (``TimeSeries.times`` or ``PhaseCurve.taus``);
- ``cli.bytes_written``: size of the data file and its ``.meta.json``
  sidecar after each traced ``cli.cmd_*`` call.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("qcore", "params", "fock", "algebra", "dynamics", "isomap", "verify", "cli")

# Functions whose calls and self time are reported as per-layer metrics.
# Every other public function is wrapped too, so that its self time is not
# charged to the reported function that called it.
REPORTED = {
    "params": ("level_value", "energy"),
    "qcore": ("q_number", "q_stirling2", "stirling2", "q_exponential"),
    "fock": (
        "build_lambda",
        "build_hamiltonian",
        "build_ladder",
        "commutator",
        "heisenberg_evolve",
        "coherent_state",
        "expectation",
    ),
    "algebra": (
        "expansion_matrix",
        "power_law_multicommutator",
        "normal_order_matrix",
        "scaling_phase_check",
        "closure_coeffs",
    ),
    "verify": (
        "suite_closure",
        "suite_multicommutator",
        "suite_power_law",
        "suite_scaling",
        "suite_normal_order",
        "suite_relation",
        "suite_isomorphism",
        "suite_dynamics_oracle",
        "oracle_expectation_series",
        "interior_rel_error",
    ),
    "dynamics": (
        "evolve_q_expectation",
        "evolve_anharmonic_expectation",
        "evolve_anharmonic_closed",
        "relation_identity_residual",
        "band_phase_trace",
        "collapse_transform",
    ),
    "isomap": ("isomorphism_residuals", "map_to_q"),
    "cli": ("cmd_evolve", "cmd_verify", "cmd_collapse", "cmd_sweep", "cmd_map"),
}

COUNTS = (
    "fock.matrix_bytes",
    "fock.commutator.flops",
    "dynamics.points",
    "cli.bytes_written",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, names in REPORTED.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count"))
            out.append((f"{layer}.{name}.self_s", "s"))
    out += [
        ("fock.matrix_bytes", "bytes"),
        ("fock.commutator.flops", "flop"),
        ("dynamics.points", "count"),
        ("cli.bytes_written", "bytes"),
        ("tracing_overhead_s", "s"),
    ]
    return out


def _operators(result):
    items = result if isinstance(result, tuple) else (result,)
    return [x for x in items if hasattr(x, "matrix") and hasattr(x, "margin")]


def _count_fock(name, args, result, add):
    add("fock.matrix_bytes", sum(op.matrix.nbytes for op in _operators(result)))
    if name == "commutator":
        d = args[0].dim
        add("fock.commutator.flops", 2 * 8 * d**3)


def _count_dynamics(name, args, result, add):
    grid = getattr(result, "times", None)
    if grid is None:
        grid = getattr(result, "taus", None)
    if grid is not None:
        add("dynamics.points", len(grid))


def _count_cli(name, args, result, add):
    if not name.startswith("cmd_"):
        return
    out = args[0].get("out") if args else None
    if out:
        for path in (out, out + ".meta.json"):
            if os.path.exists(path):
                add("cli.bytes_written", os.path.getsize(path))


_COUNTERS = {"fock": _count_fock, "dynamics": _count_dynamics, "cli": _count_cli}


class Tracer:
    """Timing wrappers for the public functions of the qdosc layers.

    The wrappers are built once, from the imported modules; ``install``
    binds them in every qdosc namespace and ``uninstall`` puts the
    originals back, so untraced passes run the unmodified package.
    """

    def __init__(self):
        self.names: list[str] = []
        self.op_id = -1
        self.keep_spans = True
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # span columns
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[list] = []
        self._patched: list[tuple[object, object, object]] = []
        self._wrappers = {}
        modules = {layer: sys.modules[f"qdosc.{layer}"] for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self._wrappers[obj] = self._wrap(layer, name, obj)
        missing = [
            f"{layer}.{name}"
            for layer, names in REPORTED.items()
            for name in names
            if getattr(modules[layer], name) not in self._wrappers
        ]
        if missing:
            raise RuntimeError(f"reported functions not found: {missing}")

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.calls.append(0)
        self.self_s.append(0.0)
        counter = _COUNTERS.get(layer)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = -1
            if tracer.keep_spans:
                idx = len(tracer.fn)
                tracer.fn.append(fid)
                tracer.parent.append(stack[-1][0] if stack else -1)
                tracer.op.append(tracer.op_id)
                tracer.start.append(0.0)
                tracer.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                tracer.calls[fid] += 1
                tracer.self_s[fid] += dur - frame[1]
            if counter is not None:
                counter(name, args, result, tracer._add)
            return result

        return wrapper

    def _add(self, key: str, value: int) -> None:
        self.counts[key] += int(value)

    def install(self) -> None:
        wrappers = self._wrappers
        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] != "qdosc":
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if callable(dvalue) and dvalue in wrappers:
                            self._patched.append((value, dkey, dvalue))
                            value[dkey] = wrappers[dvalue]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    # -- reading --------------------------------------------------------
    def snapshot(self) -> dict:
        """Cumulative calls, self time and counts so far."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
        }

    @property
    def span_count(self) -> int:
        return len(self.fn)

    def write_spans(self, path: str, t_origin: float) -> None:
        """Spans as a compressed NumPy archive: ``function`` indexes
        ``names``, ``parent`` is a span index (-1 for a root span), ``op`` the
        operation id, ``start_s``/``end_s`` seconds from ``t_origin``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            function=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start_s=np.frombuffer(self.start) - t_origin,
            end_s=np.frombuffer(self.end) - t_origin,
        )
