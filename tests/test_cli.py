import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qdosc import LambdaIndex, QOsc, band_phase_trace, collapse_transform
from qdosc.cli import DEFAULTS, build_parser, main

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

    def test_coarse_grid_exits_2(self, tmp_path):
        res = run_cli(
            "collapse", "--q", 2.0, "--j-col", 3, "--n-list", "3",
            "--steps", 12, "--out", tmp_path / "c.csv",
        )
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "PhaseUnwrapError"

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


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "model, flag",
        [
            ("qosc", "--q"),
            ("qosc", "--omega"),
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

    def test_broken_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("evolve", "--config", bad, "--out", tmp_path / "t.csv")
        assert res.returncode == 2
