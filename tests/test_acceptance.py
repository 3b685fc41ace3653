"""End-to-end acceptance checks.

Each test exercises one external guarantee of the package at its pinned
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  These are the release gate; the per-module suites provide the
finer-grained diagnostics.
"""

import json
import subprocess
import sys
import time

from qdosc.verify import (
    suite_closure,
    suite_dynamics_oracle,
    suite_isomorphism,
    suite_multicommutator,
    suite_normal_order,
    suite_power_law,
    suite_relation,
    suite_scaling,
)

CLI = [sys.executable, "-m", "qdosc.cli"]


def _report(name, results, elapsed=None, limit=None):
    ok = all(r.passed for r in results)
    worst = max(r.max_residual for r in results)
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}: max residual {worst:.2e}{timing}")
    assert ok, f"{name}: worst residual {worst:.3e}"
    if limit is not None:
        assert elapsed < limit, f"{name}: took {elapsed:.1f}s, limit {limit}s"


def test_closure_identity():
    start = time.perf_counter()
    results = suite_closure(D=64, nm_max=4)
    _report("closure identity", results, time.perf_counter() - start, 5.0)


def test_commutator_expansion():
    start = time.perf_counter()
    results = suite_multicommutator(D=64, j_max=6, nm_max=3)
    _report(
        "nested-commutator expansion", results, time.perf_counter() - start, 10.0
    )


def test_power_law_form():
    results = suite_power_law(D=64, j_max=6, nm_max=3)
    _report("power-law nested commutator", results)


def test_phase_scaling_collapse():
    results = suite_scaling()
    _report("phase scaling collapse", results)


def test_normal_ordering():
    results = suite_normal_order(M_max=5, n_max=3)
    _report("normal-ordering identity", results)


def test_moment_series_identity():
    results = suite_relation(m_max=5)
    _report("weighted moment-series identity", results)


def test_dynamics_against_matrix_oracle():
    start = time.perf_counter()
    results = suite_dynamics_oracle(D=64, nm_max=3)
    oracle = [r for r in results if r.check_id.startswith("dynamics_oracle")]
    closed = [r for r in results if r.check_id == "closed_vs_series"]
    elapsed = time.perf_counter() - start
    _report("expectation dynamics vs matrix oracle", oracle, elapsed, 30.0)
    _report("closed form vs series", closed)


def test_parameter_map():
    results = suite_isomorphism(j_max=6)
    _report("anharmonic-to-q parameter map", results)
    assert all(r.passed and r.max_residual < 1e-12 for r in results)


def test_harmonic_bridge():
    results = [
        r for r in suite_dynamics_oracle(nm_max=1) if r.check_id == "q1_bridge"
    ]
    _report("harmonic-limit bridge", results)


def test_cli_contract(tmp_path):
    start = time.perf_counter()
    res = subprocess.run(
        CLI + ["verify", "--suite", "all", "--out", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stderr
    assert elapsed < 60.0, f"verify --suite all took {elapsed:.1f}s"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report and all(entry["pass"] for entry in report)

    first = tmp_path / "first.csv"
    res = subprocess.run(
        CLI + ["evolve", "--q", "1.3", "--n", "2", "--steps", "50",
               "--out", str(first)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    second = tmp_path / "second.csv"
    res = subprocess.run(
        CLI + ["evolve", "--config", str(first) + ".meta.json",
               "--out", str(second)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    identical = first.read_bytes() == second.read_bytes()
    print(
        f"{'PASS' if identical else 'FAIL'} command-line contract: "
        f"verify-all exit 0 in {elapsed:.1f}s, sidecar round-trip "
        f"{'byte-identical' if identical else 'differs'}"
    )
    assert identical
