"""Command-line front end.

Commands: evolve, verify, map, collapse, sweep.  Data files are CSV with a
JSON metadata sidecar (`<out>.meta.json`) echoing the fully resolved
configuration, so any run can be reproduced byte-identically via
`--config <sidecar>`.  Numbers are written as shortest round-trip decimals.

Exit status: 0 success, 1 verification failure, 2 usage/domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    band_phase_trace,
    collapse_transform,
    evolve_anharmonic_closed,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
)
from .errors import QdoscError
from .isomap import isomorphism_residuals, map_to_q
from .params import Anharmonic, LambdaIndex, QOsc
from .verify import run_suite


class ConfigError(QdoscError, ValueError):
    """Invalid or inconsistent command configuration."""


DEFAULTS = {
    "evolve": {
        "model": "qosc",
        "q": 1.2,
        "omega": 1.0,
        "omega1": 10.0,
        "omega2": 1.0,
        "alpha_re": 0.8,
        "alpha_im": 0.0,
        "n": 1,
        "m": 0,
        "tau_max": 10.0,
        "steps": 401,
        "dim": 64,
        "tol": 1e-12,
        "method": "series",
        "out": "trace.csv",
        "format": "csv",
    },
    "verify": {"suite": "all", "dim": 64, "out": None},
    "map": {"omega1": 10.0, "omega2": 1.0, "n": 1, "j_max": 6, "out": None},
    "collapse": {
        "q": 1.2,
        "omega": 1.0,
        "j_col": 0,
        "n_list": "1,2,3",
        "m_list": "0",
        "tau_max": 10.0,
        "steps": 2001,
        "dim": 64,
        "out": "collapse.csv",
    },
    "sweep": {
        "suite": "isomorphism",
        "omega_ratios": "1,5,10,100",
        "n_values": "1,2,3,4",
        "j_max": 6,
        "out": "sweep.csv",
    },
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _int_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(v) for v in str(value).split(",") if v != ""]


def _float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(v) for v in str(value).split(",") if v != ""]


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    if "config" in data and "command" in data:
        data = data["config"]
    return data


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for key, val in file_cfg.items():
            if key in cfg:
                cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_sidecar(out: str, command: str, cfg: dict, diagnostics: dict) -> None:
    payload = {"command": command, "config": cfg, "diagnostics": diagnostics}
    Path(out + ".meta.json").write_text(json.dumps(payload, indent=2) + "\n")


def _build_model(cfg: dict):
    if cfg["model"] == "qosc":
        return QOsc(q=float(cfg["q"]), omega=float(cfg["omega"]))
    if cfg["model"] == "anharmonic":
        return Anharmonic(omega1=float(cfg["omega1"]), omega2=float(cfg["omega2"]))
    raise ConfigError(f"unknown model {cfg['model']!r}")


def cmd_evolve(cfg: dict) -> int:
    model = _build_model(cfg)
    alpha = complex(float(cfg["alpha_re"]), float(cfg["alpha_im"]))
    idx = LambdaIndex(int(cfg["n"]), int(cfg["m"]))
    grid = np.linspace(0.0, float(cfg["tau_max"]), int(cfg["steps"]))
    method = cfg["method"]
    if isinstance(model, QOsc):
        if method != "series":
            raise ConfigError("the q model has no closed form; use --method series")
        ts = evolve_q_expectation(model, alpha, idx, grid, float(cfg["tol"]))
        time_col = "tau"
    else:
        if method == "closed":
            ts = evolve_anharmonic_closed(model, alpha, idx, grid)
        elif method == "series":
            ts = evolve_anharmonic_expectation(model, alpha, idx, grid, float(cfg["tol"]))
        else:
            raise ConfigError(f"unknown method {method!r}")
        time_col = "t"
    rows = [f"{time_col},re,im,abs,arg"]
    for t, v in zip(ts.times, ts.values):
        rows.append(
            ",".join(
                [_fmt(t), _fmt(v.real), _fmt(v.imag), _fmt(abs(v)), _fmt(np.angle(v))]
            )
        )
    out = cfg["out"]
    if cfg["format"] == "json":
        payload = [
            {time_col: float(t), "re": v.real, "im": v.imag, "abs": abs(v), "arg": float(np.angle(v))}
            for t, v in zip(ts.times, ts.values)
        ]
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    elif cfg["format"] == "csv":
        Path(out).write_text("\n".join(rows) + "\n")
    else:
        raise ConfigError(f"unknown format {cfg['format']!r}")
    _write_sidecar(out, "evolve", cfg, {"truncation_tail": ts.truncation_tail})
    return 0


def cmd_verify(cfg: dict) -> int:
    try:
        results = run_suite(cfg["suite"], D=int(cfg["dim"]))
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    report = [r.to_dict() for r in results]
    text = json.dumps(report, indent=2) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        _write_sidecar(cfg["out"], "verify", cfg, {"checks": len(report)})
    else:
        sys.stdout.write(text)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.check_id} max_residual={r.max_residual:.3e} "
            f"tolerance={r.tolerance:.0e} {r.params}",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in results) else 1


def cmd_map(cfg: dict) -> int:
    iso = map_to_q(float(cfg["omega1"]), float(cfg["omega2"]), int(cfg["n"]))
    rep = isomorphism_residuals(
        float(cfg["omega1"]), float(cfg["omega2"]), int(cfg["n"]), int(cfg["j_max"])
    )
    record = {
        "n": iso.n,
        "q": iso.q,
        "omega_q": iso.omega_q,
        "p_n": iso.p_n,
        "residuals": {
            "p": rep.p_residual,
            "z": rep.z_residual,
            "coefficient_table": rep.table_residual,
            "coefficient_function": rep.coeff_fn_residual,
        },
    }
    text = json.dumps(record, indent=2) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        _write_sidecar(cfg["out"], "map", cfg, {})
    else:
        sys.stdout.write(text)
    return 0


def cmd_collapse(cfg: dict) -> int:
    params = QOsc(q=float(cfg["q"]), omega=float(cfg["omega"]))
    j_col = int(cfg["j_col"])
    taus = np.linspace(0.0, float(cfg["tau_max"]), int(cfg["steps"]))
    pairs = [
        (n, m) for n in _int_list(cfg["n_list"]) for m in _int_list(cfg["m_list"])
    ]
    curves = [
        band_phase_trace(params, LambdaIndex(n, m), j_col, taus, int(cfg["dim"]))
        for n, m in pairs
    ]
    normalized = collapse_transform(curves)
    header = ["tau"] + [f"n{n}_m{m}" for n, m in pairs]
    rows = [",".join(header)]
    for i, tau in enumerate(taus):
        rows.append(",".join([_fmt(tau)] + [_fmt(c[i]) for c in normalized]))
    stacked = np.vstack(normalized)
    max_dev = float(np.max(np.abs(stacked[:, None, :] - stacked[None, :, :])))
    rows.append(
        ",".join(["max_pairwise_deviation", _fmt(max_dev)] + [""] * (len(pairs) - 1))
    )
    out = cfg["out"]
    Path(out).write_text("\n".join(rows) + "\n")
    _write_sidecar(out, "collapse", cfg, {"max_pairwise_deviation": max_dev})
    return 0


def cmd_sweep(cfg: dict) -> int:
    if cfg["suite"] != "isomorphism":
        raise ConfigError(f"unknown sweep suite {cfg['suite']!r}")
    ratios = _float_list(cfg["omega_ratios"])
    ns = _int_list(cfg["n_values"])
    j_max = int(cfg["j_max"])
    rows = ["omega1,omega2,n,metric,value"]
    worst = 0.0
    for ratio in ratios:
        for n in ns:
            prefix = f"{_fmt(ratio)},{_fmt(1.0)},{n}"
            try:
                rep = isomorphism_residuals(ratio, 1.0, n, j_max)
            except QdoscError as exc:
                rows.append(f"{prefix},error,{json.dumps(str(exc))}")
                continue
            rows.append(f"{prefix},q,{_fmt(rep.iso.q)}")
            rows.append(f"{prefix},omega_q,{_fmt(rep.iso.omega_q)}")
            rows.append(f"{prefix},p_residual,{_fmt(rep.p_residual)}")
            rows.append(f"{prefix},z_residual,{_fmt(rep.z_residual)}")
            rows.append(f"{prefix},table_residual,{_fmt(rep.table_residual)}")
            rows.append(f"{prefix},coeff_fn_residual,{_fmt(rep.coeff_fn_residual)}")
            worst = max(worst, rep.max_residual())
    out = cfg["out"]
    Path(out).write_text("\n".join(rows) + "\n")
    _write_sidecar(out, "sweep", cfg, {"max_residual": worst})
    return 0


COMMANDS = {
    "evolve": cmd_evolve,
    "verify": cmd_verify,
    "map": cmd_map,
    "collapse": cmd_collapse,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdosc",
        description="Dynamics and verification for q-deformed and anharmonic oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", help="output file path")

    p = sub.add_parser("evolve", help="generate an expectation-value trace")
    add_common(p)
    p.add_argument("--model", choices=["qosc", "anharmonic"])
    p.add_argument("--q", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--omega1", type=float)
    p.add_argument("--omega2", type=float)
    p.add_argument("--alpha-re", type=float, dest="alpha_re")
    p.add_argument("--alpha-im", type=float, dest="alpha_im")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--tau-max", type=float, dest="tau_max")
    p.add_argument("--steps", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--method", choices=["closed", "series"])
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p)
    p.add_argument(
        "--suite",
        choices=[
            "closure",
            "multicommutator",
            "power-law",
            "scaling",
            "normal-order",
            "relation",
            "isomorphism",
            "dynamics-oracle",
            "all",
        ],
    )
    p.add_argument("--dim", type=int)

    p = sub.add_parser("map", help="evaluate the anharmonicity -> q mapping")
    add_common(p)
    p.add_argument("--omega1", type=float)
    p.add_argument("--omega2", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--j-max", type=int, dest="j_max")

    p = sub.add_parser("collapse", help="emit normalized phase-collapse curves")
    add_common(p)
    p.add_argument("--q", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--j-col", type=int, dest="j_col")
    p.add_argument("--n-list", dest="n_list")
    p.add_argument("--m-list", dest="m_list")
    p.add_argument("--tau-max", type=float, dest="tau_max")
    p.add_argument("--steps", type=int)
    p.add_argument("--dim", type=int)

    p = sub.add_parser("sweep", help="sweep residuals over a parameter grid")
    add_common(p)
    p.add_argument("--suite", choices=["isomorphism"])
    p.add_argument("--omega-ratios", dest="omega_ratios")
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--j-max", type=int, dest="j_max")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return COMMANDS[args.command](cfg)
    except (QdoscError, OSError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
