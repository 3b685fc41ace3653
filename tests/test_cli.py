import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdosc import LambdaIndex, QdoscError, QOsc, band_phase_trace, collapse_transform
from qdosc import cli
from qdosc.cli import CHOICES, DEFAULTS, build_parser, main

PKG = [sys.executable, "-m", "qdosc.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        PKG + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEvolve:
    def test_identity_index_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        res = run_cli(
            "evolve", "--n", 0, "--m", 0, "--steps", 5, "--out", out
        )
        assert res.returncode == 0
        rows = read_csv(out)
        assert rows[0] == ["tau", "re", "im", "abs", "arg"]
        assert len(rows) == 6
        for row in rows[1:]:
            assert float(row[1]) == 1.0
            assert float(row[2]) == 0.0

    def test_anharmonic_initial_modulus(self, tmp_path):
        out = tmp_path / "trace.csv"
        res = run_cli(
            "evolve", "--model", "anharmonic", "--n", 1, "--m", 0,
            "--alpha-re", 0.8, "--steps", 3, "--out", out,
        )
        assert res.returncode == 0
        rows = read_csv(out)
        assert rows[0][0] == "t"
        assert float(rows[1][3]) == pytest.approx(0.8, rel=1e-12)

    def test_methods_agree(self, tmp_path):
        traces = {}
        for method in ("series", "closed"):
            out = tmp_path / f"{method}.csv"
            res = run_cli(
                "evolve", "--model", "anharmonic", "--n", 2, "--m", 1,
                "--steps", 50, "--method", method, "--out", out,
            )
            assert res.returncode == 0
            traces[method] = read_csv(out)[1:]
        for a, b in zip(traces["series"], traces["closed"]):
            assert float(a[1]) == pytest.approx(float(b[1]), abs=1e-10)
            assert float(a[2]) == pytest.approx(float(b[2]), abs=1e-10)

    def test_closed_method_invalid_for_q_model(self, tmp_path):
        res = run_cli(
            "evolve", "--model", "qosc", "--method", "closed",
            "--out", tmp_path / "x.csv",
        )
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert "message" in record and "error" in record

    def test_sidecar_roundtrip_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        res = run_cli(
            "evolve", "--q", 1.4, "--n", 2, "--m", 1, "--steps", 20,
            "--tau-max", 3.5, "--out", out1,
        )
        assert res.returncode == 0
        out2 = tmp_path / "b.csv"
        res = run_cli(
            "evolve", "--config", str(out1) + ".meta.json", "--out", out2
        )
        assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = json.loads((tmp_path / "a.csv.meta.json").read_text())
        meta2 = json.loads((tmp_path / "b.csv.meta.json").read_text())
        cfg1 = dict(meta1["config"], out=None)
        cfg2 = dict(meta2["config"], out=None)
        assert cfg1 == cfg2

    def test_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        res = run_cli(
            "evolve", "--n", 1, "--steps", 4, "--format", "json", "--out", out
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 4
        assert set(payload[0]) == {"tau", "re", "im", "abs", "arg"}

    def test_sidecar_with_removed_key_reruns(self, tmp_path):
        # sidecars written before --dim was dropped carry "dim"; it is ignored
        out1 = tmp_path / "a.csv"
        res = run_cli("evolve", "--n", 2, "--m", 1, "--steps", 20, "--out", out1)
        assert res.returncode == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        meta["config"]["dim"] = 64
        old = tmp_path / "old.meta.json"
        old.write_text(json.dumps(meta))
        out2 = tmp_path / "b.csv"
        res = run_cli("evolve", "--config", old, "--out", out2)
        assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_old_sidecar_with_omega_reruns(self, tmp_path):
        # sidecars written before evolve dropped --omega carry "omega"; the
        # q-model trace runs in tau = omega t and never read it
        argv = ["evolve", "--q", "1.3", "--n", "2", "--m", "3", "--alpha-re", "3"]
        out1 = tmp_path / "a.csv"
        assert main([*argv, "--steps", "50", "--out", str(out1)]) == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert "omega" not in meta["config"]
        meta["config"]["omega"] = 2.5
        old = tmp_path / "old.meta.json"
        old.write_text(json.dumps(meta))
        out2 = tmp_path / "b.csv"
        assert main(["evolve", "--config", str(old), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_large_amplitude_series(self, tmp_path):
        out = tmp_path / "trace.csv"
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdosc.cli",
             "evolve", "--model", "anharmonic", "--alpha-re", "30",
             "--method", "series", "--out", str(out)],
            capture_output=True, text=True,
        )  # fmt: skip
        assert res.returncode == 0, res.stderr
        rows = read_csv(out)[1:]
        assert len(rows) == DEFAULTS["evolve"]["steps"]
        assert float(rows[0][3]) == pytest.approx(30.0, rel=1e-12)


class TestVerify:
    def test_isomorphism_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--suite", "isomorphism", "--out", out)
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report
        for entry in report:
            assert set(entry) == {
                "check_id", "params", "max_residual", "tolerance", "pass"
            }
            assert entry["pass"] is True
            assert entry["max_residual"] < entry["tolerance"]
        assert "PASS" in res.stderr

    def test_report_to_stdout(self):
        res = run_cli("verify", "--suite", "closure")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert all(e["pass"] for e in report)

    def test_unknown_suite_rejected(self):
        res = run_cli("verify", "--suite", "bogus")
        assert res.returncode == 2

    def test_overflowing_dimension_exits_2(self):
        # at q = 2 and D = 128 the band entries leave double precision
        res = run_cli("verify", "--suite", "multicommutator", "--dim", 128)
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"

    @pytest.mark.parametrize("suite", ["multicommutator", "power-law"])
    def test_overflow_is_refused_before_the_oracle_overflows(self, suite):
        # the closed form is built before the dense commutator of the same
        # depth, so its DomainError comes before any overflowing product
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdosc.cli",
             "verify", "--suite", suite, "--dim", "128"],
            capture_output=True, text=True,
        )  # fmt: skip
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr.strip())["error"] == "DomainError"

    def test_dim_96_without_runtime_warning(self):
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdosc.cli",
             "verify", "--suite", "all", "--dim", "96"],
            capture_output=True, text=True,
        )  # fmt: skip
        assert res.returncode == 0, res.stderr
        assert "RuntimeWarning" not in res.stderr


class TestMap:
    def test_record_values(self, tmp_path):
        out = tmp_path / "map.json"
        res = run_cli(
            "map", "--omega1", 10, "--omega2", 1, "--n", 1, "--out", out
        )
        assert res.returncode == 0
        rec = json.loads(out.read_text())
        assert rec["q"] == pytest.approx(13.0 / 11.0, rel=1e-14)
        assert rec["omega_q"] == pytest.approx(11.0, rel=1e-13)
        assert max(rec["residuals"].values()) < 1e-12

    def test_depth_beyond_double_precision_exits_2(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli("map", "--j-max", 200, "--n", 4, "--omega1", 100, "--out", out)
        assert res.returncode == 2, res.stderr
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"
        assert "overflow double precision" in record["message"]
        assert not out.exists()

    def test_invalid_parameters_exit_2(self, tmp_path):
        res = run_cli("map", "--omega2", 0, "--out", tmp_path / "m.json")
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"

    @pytest.mark.parametrize("name, value", [("omega1", "inf"), ("omega2", "nan")])
    def test_non_finite_parameter_exits_2_naming_it(self, tmp_path, name, value):
        out = tmp_path / "m.json"
        res = run_cli("map", f"--{name}", value, "--out", out)
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"
        assert name in record["message"]
        assert not out.exists()

    def test_negative_depth_exits_2(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli("map", "--j-max", -1, "--out", out)
        assert res.returncode == 2
        assert json.loads(res.stderr.strip())["error"] == "DomainError"
        assert not out.exists()

    def test_huge_supra_index_exits_2(self, tmp_path):
        # n^2 omega2 of the anharmonic closure rate is beyond double precision
        out = tmp_path / "m.json"
        res = run_cli("map", "--n", 10**200, "--out", out)
        assert res.returncode == 2
        assert json.loads(res.stderr.strip())["error"] == "DomainError"
        assert not out.exists()


class TestCollapse:
    def test_normalized_column_is_scaled_time(self, tmp_path):
        out = tmp_path / "collapse.csv"
        q, j_col = 1.2, 2
        res = run_cli(
            "collapse", "--q", q, "--j-col", j_col, "--n-list", "1,2,3",
            "--steps", 501, "--tau-max", 5, "--out", out,
        )
        assert res.returncode == 0
        rows = read_csv(out)
        assert rows[0] == ["tau", "n1_m0", "n2_m0", "n3_m0"]
        assert rows[-1][0] == "max_pairwise_deviation"
        assert float(rows[-1][1]) < 1e-9
        for row in rows[1:-1]:
            tau = float(row[0])
            for col in row[1:]:
                assert float(col) == pytest.approx(tau * q**j_col, abs=1e-9)

    def test_max_pairwise_deviation_is_the_pairwise_maximum(self, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["collapse", "--q", "1.5", "--j-col", "1", "--n-list", "1,2,3",
                "--m-list", "0,1,2", "--out", str(out)]  # fmt: skip
        assert main(argv) == 0
        taus = np.linspace(0.0, 10.0, DEFAULTS["collapse"]["steps"])
        params = QOsc(q=1.5)
        curves = [
            band_phase_trace(params, LambdaIndex(n, m), 1, taus)
            for n in (1, 2, 3)
            for m in (0, 1, 2)
        ]
        stacked = np.vstack(collapse_transform(curves))
        want = float(np.max(np.abs(stacked[:, None, :] - stacked[None, :, :])))
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["diagnostics"]["max_pairwise_deviation"] == want > 0.0

    def test_old_sidecar_with_omega_reruns(self, tmp_path):
        # sidecars written before collapse dropped --omega carry "omega"; it
        # never reached the collapse and is ignored
        out1 = tmp_path / "a.csv"
        assert main(["collapse", "--q", "1.5", "--j-col", "1", "--out", str(out1)]) == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert "omega" not in meta["config"]
        meta["config"]["omega"] = 2.5
        old = tmp_path / "old.meta.json"
        old.write_text(json.dumps(meta))
        out2 = tmp_path / "b.csv"
        assert main(["collapse", "--config", str(old), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coarse_grid_exits_2(self, tmp_path):
        res = run_cli(
            "collapse", "--q", 2.0, "--j-col", 3, "--n-list", "3",
            "--steps", 12, "--out", tmp_path / "c.csv",
        )
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "PhaseUnwrapError"

    def test_coarse_decreasing_grid_exits_2(self, tmp_path, capsys):
        # tau = 0, -500, -1000: each step aliases, whatever its sign
        out = tmp_path / "c.csv"
        argv = ["collapse", "--tau-max", "-1000", "--steps", "3", "--out", str(out)]
        assert main(argv) == 2
        assert _refusal(capsys)["error"] == "PhaseUnwrapError"
        assert not out.exists()

    def test_column_beyond_any_dimension(self, tmp_path):
        out = tmp_path / "collapse.csv"
        q, j_col = 1.01, 100
        res = run_cli("collapse", "--q", q, "--j-col", j_col, "--out", out)
        assert res.returncode == 0, res.stderr
        rows = read_csv(out)
        for row in rows[1:-1]:
            tau = float(row[0])
            for col in row[1:]:
                assert float(col) == pytest.approx(tau * q**j_col, abs=1e-9)

    def test_n_zero_exits_2(self, tmp_path):
        res = run_cli("collapse", "--n-list", 0, "--out", tmp_path / "c.csv")
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"

    def test_empty_grid_exits_2(self, tmp_path):
        out = tmp_path / "c.csv"
        res = run_cli("collapse", "--steps", 0, "--out", out)
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert set(record) == {"error", "message"}
        assert record["error"] == "DomainError"
        assert not out.exists()

    def test_huge_phase_step_is_printed_in_exponent_form(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["collapse", "--q", "2", "--j-col", "1000", "--steps", "2", "--out", str(out)]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "PhaseUnwrapError"
        assert record["message"].startswith("phase step 1.072e+302 >= pi")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-list", "--m-list"])
    def test_empty_index_list_exits_2(self, tmp_path, flag):
        res = run_cli("collapse", flag, "", "--out", tmp_path / "c.csv")
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "ConfigError"
        assert flag in record["message"]


class TestSweep:
    def test_deterministic_and_small_residuals(self, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            res = run_cli("sweep", "--out", out)
            assert res.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = read_csv(tmp_path / "s1.csv")
        assert rows[0] == ["omega1", "omega2", "n", "metric", "value"]
        residuals = [
            float(r[4]) for r in rows[1:] if r[3].endswith("residual")
        ]
        assert residuals and max(residuals) < 1e-12
        meta = json.loads((tmp_path / "s1.csv.meta.json").read_text())
        assert meta["diagnostics"]["max_residual"] < 1e-12

    def test_depth_beyond_double_precision_is_an_error_row(self, tmp_path):
        out = tmp_path / "s.csv"
        res = run_cli(
            "sweep", "--omega-ratios", "10,100", "--n-values", 4,
            "--j-max", 200, "--out", out,
        )  # fmt: skip
        assert res.returncode == 0, res.stderr
        rows = read_csv(out)
        assert [r[3] for r in rows[1:]] == ["error", "error"]
        assert all("double precision" in r[4] for r in rows[1:])

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--omega-ratios", "nan", "omega1=nan"),
            ("--omega-ratios", "-1", "omega1=-1.0"),
            ("--omega-ratios", "0", "omega1=0.0"),
            ("--omega-ratios", "1e308", "omega1=1e+308"),
            ("--n-values", "0", "n=0"),
            ("--j-max", "-1", "--j-max"),
        ],
    )
    def test_refused_input_exits_2(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "s.csv"
        assert main(["sweep", f"{flag}={value}", "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError"
        assert named in record["message"]
        assert not out.exists()

    def test_refused_point_among_valid_ones_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--omega-ratios", "1,nan", "--n-values", "1,2", "--out", str(out)]
        assert main(argv) == 2
        assert "omega1=nan, n=1" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--omega-ratios", "--n-values"])
    def test_empty_list_exits_2(self, tmp_path, flag):
        out = tmp_path / "s.csv"
        res = run_cli("sweep", f"{flag}=", "--out", out)
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert set(record) == {"error", "message"}
        assert record["error"] == "ConfigError"
        assert flag in record["message"]
        assert not out.exists()


class TestAmplitudeDomain:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha-re", "1e200"],
            ["--model", "anharmonic", "--alpha-re", "1e200"],
            ["--model", "anharmonic", "--method", "closed", "--alpha-re", "1e200"],
            ["--model", "anharmonic", "--method", "closed", "--alpha-re", "inf"],
        ],
        ids=" ".join,
    )
    def test_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evolve", *argv, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError"
        assert "alpha" in record["message"]
        assert not out.exists()


def _refusal(capsys) -> dict:
    """The one JSON error record a refused command wrote to stderr."""
    record = json.loads(capsys.readouterr().err.strip())
    assert set(record) == {"error", "message"}
    return record


class TestOverflowingTrace:
    """A finite alpha whose powers, or levels whose powers, leave double
    precision are refused, never written as inf or NaN rows or leaked as an
    OverflowError."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha-re", "1e100", "--n", "4"],
            ["--model", "anharmonic", "--method", "closed", "--alpha-re", "1e100", "--n", "4"],
            ["--model", "anharmonic", "--method", "closed", "--alpha-re", "1e25",
             "--n", "4", "--m", "6"],
            ["--model", "anharmonic", "--method", "closed", "--alpha-re", "1e100", "--m", "2"],
            ["--model", "anharmonic", "--method", "closed", "--alpha-re", "30", "--m", "200"],
            # [k]^m overflows before the series window closes
            ["--model", "anharmonic", "--n", "1", "--m", "200"],
            ["--n", "0", "--m", "200"],
        ],
        ids=" ".join,
    )  # fmt: skip
    def test_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evolve", *argv, "--steps", "5", "--out", str(out)]) == 2
        assert _refusal(capsys)["error"] == "DomainError"
        assert not out.exists()

    @pytest.mark.parametrize("tau_max", ["1e31", "1e299", "1e300"])
    @pytest.mark.parametrize(
        "model, method",
        [("anharmonic", "series"), ("anharmonic", "closed"), ("qosc", "series")],
        ids=["series", "closed", "qosc"],
    )
    def test_huge_time_exits_2(self, tmp_path, capsys, model, method, tau_max):
        # no phase c t has a correct digit from t = 1e31 on; at 1e300 the
        # double-double split of t overflows
        out = tmp_path / "t.csv"
        argv = ["evolve", "--model", model, "--method", method,
                "--tau-max", tau_max, "--steps", "3", "--out", str(out)]  # fmt: skip
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        assert _refusal(capsys)["error"] == "DomainError"
        assert not out.exists()

    def test_large_finite_closed_form_is_kept(self, tmp_path):
        # S(r, 200) |alpha|^(2r) at the default alpha is large but finite
        out = tmp_path / "t.csv"
        argv = ["evolve", "--model", "anharmonic", "--method", "closed", "--m", "200"]
        assert main([*argv, "--steps", "3", "--out", str(out)]) == 0
        assert read_csv(out)[1][1] == "2.5069342778199782e+266"


class TestResourceBounds:
    """Oversized runs are refused before anything is allocated."""

    HUGE = "4611686018427387904"

    def test_verify_dim(self, capsys):
        assert main(["verify", "--dim", self.HUGE]) == 2
        record = _refusal(capsys)
        assert record["error"] == "DimensionError" and "--dim" in record["message"]

    @pytest.mark.parametrize("command", ["evolve", "collapse"])
    def test_steps(self, tmp_path, capsys, command):
        out = tmp_path / "t.csv"
        assert main([command, "--steps", self.HUGE, "--out", str(out)]) == 2
        record = _refusal(capsys)
        assert record == {
            "error": "DimensionError",
            "message": f"--steps must be at most 10000000, got {self.HUGE}",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "collapse"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_tau_max(self, tmp_path, capsys, command, value):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, f"--tau-max={value}", "--out", str(out)]) == 2
        record = _refusal(capsys)
        assert record["error"] == "DomainError" and "--tau-max" in record["message"]
        assert not out.exists()


# up to three float flags take one of these values, the others their defaults
FLAG_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")
FLOAT_FLAGS = ("q", "omega1", "omega2", "alpha_re", "alpha_im", "tau_max", "tol")
INDEX_VALUES = ("-1", "0", "1", "3", "200")


def _finite_json(path):
    """The JSON in path; the NaN and Infinity that json.dumps writes for a
    non-finite float fail the test."""

    def refuse(token):
        raise AssertionError(f"{path} holds {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@given(
    floats=st.dictionaries(
        st.sampled_from(FLOAT_FLAGS), st.sampled_from(FLAG_VALUES), max_size=3
    ),
    n=st.sampled_from(INDEX_VALUES),
    m=st.sampled_from(INDEX_VALUES),
    steps=st.sampled_from(("-1", "0", "1", "4")),
    model=st.sampled_from(("qosc", "anharmonic")),
    method=st.sampled_from(("series", "closed")),
    fmt=st.sampled_from(("csv", "json")),
)
@settings(max_examples=500, deadline=None)
def test_evolve_flags_exit_0_with_finite_files_or_2_with_one_record(
    floats, n, m, steps, model, method, fmt
):
    flags = {**floats, "n": n, "m": m, "steps": steps}
    argv = ["evolve", "--model", model, "--method", method, "--format", fmt]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "trace")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main([*argv, "--out", out])
        assert status in (0, 2), err.getvalue()
        if status == 2:
            (line,) = err.getvalue().splitlines()
            record = json.loads(line)
            assert set(record) == {"error", "message"}
            assert record["error"] in {c.__name__ for c in QdoscError.__subclasses__()}
            assert not os.listdir(tmp)
            return
        if fmt == "json":
            rows = [list(row.values()) for row in _finite_json(out)]
        else:
            rows = read_csv(out)[1:]
        assert len(rows) == int(steps)
        assert np.isfinite(np.array(rows, dtype=float)).all()
        _finite_json(out + ".meta.json")


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "model, flag",
        [
            ("qosc", "--q"),
            ("anharmonic", "--omega1"),
            ("anharmonic", "--omega2"),
        ],
    )
    def test_evolve_exits_2(self, tmp_path, capsys, model, flag, value):
        out = tmp_path / "t.csv"
        argv = ["evolve", "--model", model, f"{flag}={value}", "--out", str(out)]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError"
        assert flag.lstrip("-") in record["message"]
        assert not out.exists()


class TestChoices:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work began before the choices were checked")

        for name in (
            "evolve_q_expectation",
            "evolve_anharmonic_expectation",
            "evolve_anharmonic_closed",
            "run_suite",
        ):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("evolve", "model", "foo"),
            ("evolve", "method", "bogus"),  # on the default q model
            ("evolve", "format", "xml"),
            ("verify", "suite", "bogus"),
        ],
    )
    def test_bad_choice_exits_2_before_any_work(
        self, tmp_path, capsys, source, command, key, value
    ):
        out = tmp_path / "out" / "data"
        out.parent.mkdir()
        argv = [command, "--out", str(out)]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            # a long run, so that work done before the check would show
            config = {key: value, "steps": 2_000_000} if command == "evolve" else {key: value}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"--{key} must be one of")
        assert not os.listdir(out.parent)

    @pytest.mark.parametrize(
        "command, key", [(c, k) for c, keys in DEFAULTS.items() for k in keys if k in CHOICES]
    )
    def test_help_lists_the_choices(self, capsys, command, key):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        entry = text.split(f"--{key} ")[-1].split(" --")[0]
        assert all(choice in entry for choice in CHOICES[key])


class TestUsage:
    def test_unknown_flag(self):
        res = run_cli("evolve", "--no-such-flag")
        assert res.returncode == 2

    def test_flags_are_config_plus_defaults(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        for command, defaults in DEFAULTS.items():
            flags = {
                opt
                for action in sub.choices[command]._actions
                for opt in action.option_strings
                if opt not in ("-h", "--help")
            }
            expected = {"--" + key.replace("_", "-") for key in defaults}
            assert flags == expected | {"--config"}
        assert set(sub.choices) == set(DEFAULTS)

    def test_missing_command(self):
        res = subprocess.run(PKG, capture_output=True, text=True)
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
            (["evolve", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
            # the retired --omega is a prefix of --omega1 and --omega2
            (["evolve", "--omega", "2"], "unrecognized arguments: --omega 2"),
            # a unique prefix is refused too, not expanded
            (["evolve", "--tau", "5"], "unrecognized arguments: --tau 5"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-int", "unknown-flag", "ambiguous-prefix", "unique-prefix", "no-command"],
    )
    def test_parser_errors_return_2_with_one_record(self, tmp_path, capsys, argv, message):
        out = tmp_path / "t.csv"
        assert main(argv + (["--out", str(out)] if argv else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": "ConfigError", "message": message}
        assert not out.exists()

    def test_negative_steps_exit_2(self, tmp_path):
        res = run_cli("evolve", "--steps", -5, "--out", tmp_path / "t.csv")
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"
        assert "--steps" in record["message"]

    @pytest.mark.parametrize("command, steps", [("evolve", 0), ("collapse", -3)])
    def test_steps_below_one_exit_2(self, tmp_path, capsys, command, steps):
        out = tmp_path / "t.csv"
        assert main([command, "--steps", str(steps), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {
            "error": "DomainError",
            "message": f"--steps must be at least 1, got {steps}",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "collapse"])
    def test_one_step_is_a_one_row_file(self, tmp_path, command):
        out = tmp_path / "t.csv"
        assert main([command, "--steps", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[1][0] == "0.0" and len(rows) == (2 if command == "evolve" else 3)

    def test_non_numeric_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "abc"}))
        res = run_cli("evolve", "--config", cfg, "--out", tmp_path / "t.csv")
        assert res.returncode == 2
        assert "error" in json.loads(res.stderr.strip())

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("evolve", "q", None),
            ("evolve", "q", True),
            ("evolve", "q", "1.2"),
            ("evolve", "steps", [3]),
            ("evolve", "steps", 3.0),
            ("evolve", "n", False),
            ("evolve", "model", 1),
            ("evolve", "out", None),
            ("verify", "dim", None),
            ("verify", "out", 3),
            ("collapse", "n_list", [1, None]),
            ("collapse", "m_list", {"0": 1}),
            ("sweep", "omega_ratios", 10.0),
        ],
    )  # fmt: skip
    def test_config_value_of_the_wrong_type_exits_2(
        self, tmp_path, capsys, command, key, value
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "t.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert repr(key) in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("evolve", {"q": 2, "omega": 1.5, "steps": 3, "out": "t.csv"}),
            ("verify", {"suite": "relation", "out": None}),
            ("collapse", {"n_list": [1, 2], "m_list": "0,1", "j_col": 1, "steps": 401}),
            ("sweep", {"omega_ratios": [1, 5.5], "n_values": ["1", 2]}),
        ],
    )
    def test_config_values_of_the_default_types_run(
        self, tmp_path, monkeypatch, command, config
    ):
        monkeypatch.chdir(tmp_path)  # the data files go to their default paths
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(cfg)]) == 0

    def test_config_int_beyond_double_precision_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q": 1' + "0" * 400 + "}")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError" and "--q must be finite" in record["message"]

    def test_broken_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("evolve", "--config", bad, "--out", tmp_path / "t.csv")
        assert res.returncode == 2


def csv_args(command, out):
    """A command whose CSV has more rows than four blocks of the writer and
    not a whole number of them."""
    return [command, "--steps", str(4 * cli._CSV_BLOCK + 7), "--out", str(out)]


def test_csv_write_error_part_way(tmp_path, capsys, monkeypatch):
    class Full(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 3:  # the header and two blocks
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

    monkeypatch.setattr(cli, "open", lambda *args: Full(), raising=False)
    assert main(csv_args("evolve", tmp_path / "t.csv")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "OSError",
        "message": "[Errno 28] No space left on device",
    }
    assert not (tmp_path / "t.csv.meta.json").exists()


@pytest.mark.parametrize("command", ["evolve", "collapse"])
def test_csv_output_loads_no_process_pool(tmp_path, command):
    code = (
        "import sys; from qdosc.cli import main; "
        f"status = main({csv_args(command, tmp_path / 't.csv')!r}); "
        "print(status, [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0 []\n"


def test_import_loads_no_process_pool():
    code = (
        "import sys, qdosc.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'orjson') if m in sys.modules])"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
