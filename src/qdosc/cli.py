"""Command-line front end.

Commands: evolve, verify, map, collapse, sweep.  Data files are CSV with a
JSON metadata sidecar (`<out>.meta.json`) echoing the fully resolved
configuration, so any run can be reproduced byte-identically via
`--config <sidecar>`.  Numbers are written as shortest round-trip decimals,
spelled as Python's repr spells them; CSV cells take their digits from
orjson, in the process, one call per block of rows, and are respelled as
bytes of the block's text, not as strings per cell.

Exit status: 0 success, 1 verification failure, 2 usage/domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    _band_curves,
    _check_phase_step,
    collapse_transform,
    evolve_anharmonic_closed,
    evolve_anharmonic_expectation,
    evolve_q_expectation,
)
from .errors import DimensionError, DomainError, QdoscError
from .isomap import isomorphism_residuals, map_to_q
from .params import Anharmonic, LambdaIndex, QOsc
from .qcore import q_number
from .verify import DEFAULT_DIM, SUITES, run_suite


class ConfigError(QdoscError, ValueError):
    """Invalid or inconsistent command configuration."""


DEFAULTS = {
    "evolve": {
        "model": "qosc",
        "q": 1.2,
        "omega1": 10.0,
        "omega2": 1.0,
        "alpha_re": 0.8,
        "alpha_im": 0.0,
        "n": 1,
        "m": 0,
        "tau_max": 10.0,
        "steps": 401,
        "tol": 1e-12,
        "method": "series",
        "out": "trace.csv",
        "format": "csv",
    },
    "verify": {"suite": "all", "dim": DEFAULT_DIM, "out": None},
    "map": {"omega1": 10.0, "omega2": 1.0, "n": 1, "j_max": 6, "out": None},
    "collapse": {
        "q": 1.2,
        "j_col": 0,
        "n_list": "1,2,3",
        "m_list": "0",
        "tau_max": 10.0,
        "steps": 2001,
        "out": "collapse.csv",
    },
    "sweep": {
        "omega_ratios": "1,5,10,100",
        "n_values": "1,2,3,4",
        "j_max": 6,
        "out": "sweep.csv",
    },
}

CHOICES = {
    "model": ["qosc", "anharmonic"],
    "method": ["closed", "series"],
    "format": ["csv", "json"],
    "suite": [*SUITES, "all"],
}


# keys whose comma-separated value a config file may also give as a JSON list
_LIST_KEYS = ("n_list", "m_list", "omega_ratios", "n_values")

# rows per block of the CSV writer
_CSV_BLOCK = 8192

# longest time grid: 80 MB per real column
_MAX_STEPS = 10**7


def _fmt(x: float) -> str:
    return repr(float(x))


def _list(cfg: dict, key: str, cast) -> list:
    """cfg[key], a list or tuple from a config file or a comma-separated
    flag value, cast element-wise; an empty list is a ConfigError naming
    the flag."""
    value = cfg[key]
    if isinstance(value, (list, tuple)):
        out = [cast(v) for v in value]
    else:
        out = [cast(v) for v in str(value).split(",") if v != ""]
    if not out:
        raise ConfigError(f"--{key.replace('_', '-')} must name at least one value")
    return out


def _time_grid(cfg: dict) -> np.ndarray:
    """cfg["steps"] evenly spaced times on [0, tau_max]. Fewer than one step
    is a DomainError naming the flag, more than _MAX_STEPS a DimensionError
    naming it, before the grid is allocated."""
    steps = int(cfg["steps"])
    if steps < 1:
        raise DomainError(f"--steps must be at least 1, got {steps}")
    if steps > _MAX_STEPS:
        raise DimensionError(f"--steps must be at most {_MAX_STEPS}, got {steps}")
    return np.linspace(0.0, float(cfg["tau_max"]), steps)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    if "config" in data and "command" in data:
        data = data["config"]
    return data


def _fits(key: str, val, default) -> bool:
    """True when a config-file value has the JSON type of its DEFAULTS entry:
    a float key takes an int or a float, an int key an int, never a bool; a
    list key also takes a list of numbers and strings, and a key whose
    default is None also takes null."""
    if isinstance(default, float):
        return type(val) in (int, float)
    if isinstance(default, int):
        return type(val) is int
    if key in _LIST_KEYS and type(val) is list:
        return all(type(v) in (int, float, str) for v in val)
    return type(val) is str or (default is None and val is None)


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags. A config-file value of the
    wrong type is a ConfigError naming the key, and a value outside its
    CHOICES, from a flag or a file, a ConfigError naming the flag. A NaN or
    infinite value, for a flag the command uses or not, is a DomainError
    naming the flag, so every sidecar holds finite numbers only."""
    cfg = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for key, val in file_cfg.items():
            if key in cfg:
                if not _fits(key, val, cfg[key]):
                    raise ConfigError(f"config key {key!r} has the wrong type: {val!r}")
                cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
        float_key = isinstance(DEFAULTS[command][key], float)
        # false for NaN, an inf and an int beyond the largest double
        if float_key and not abs(cfg[key]) <= sys.float_info.max:
            raise DomainError(f"--{key.replace('_', '-')} must be finite, got {cfg[key]}")
        if key in CHOICES and cfg[key] not in CHOICES[key]:
            choices = ", ".join(CHOICES[key])
            raise ConfigError(f"--{key} must be one of {choices}, got {cfg[key]!r}")
    return cfg


def _write_sidecar(out: str, command: str, cfg: dict, diagnostics: dict) -> None:
    payload = {"command": command, "config": cfg, "diagnostics": diagnostics}
    Path(out + ".meta.json").write_text(json.dumps(payload, indent=2) + "\n")


def _write_json(cfg: dict, command: str, data, diagnostics: dict) -> None:
    """data as indented JSON: to --out with its sidecar, or else to stdout."""
    text = json.dumps(data, indent=2) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        _write_sidecar(cfg["out"], command, cfg, diagnostics)
    else:
        sys.stdout.write(text)


def _csv_block(block: np.ndarray) -> str:
    """The rows of a (rows, ncol) float64 block as CSV text, each cell the
    shortest round-trip decimal spelled as repr spells it, from one orjson
    text of the whole block.

    orjson's digits are repr's, and so is its spelling for 1e-4 <= |x| <
    1e16, for zeros and for |x| < 1e-9. The cells it spells otherwise are
    respelled from its digits: a one-digit exponent is padded (1.5e-7 to
    1.5e-07) and [-]0.0000ddd becomes [-]d.dde-05. Cells from 1e16 up, and
    non-finite ones, which it writes as null, are spelled by repr.

    No string is made per cell. The text's bytes are edited in place as one
    uint8 array, where a byte that must go or grow is overwritten with a
    letter that orjson and repr never write: x goes, m becomes -0, and P
    and Q, on a separator, become e-05 and that separator. One
    bytes.replace per letter then spells the whole block out."""
    # imported here: it costs about 8 ms, which a bare import of qdosc.cli
    # and the commands without a CSV need not pay
    import orjson

    flat = block.ravel()
    text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
    b = np.frombuffer(text, np.uint8)
    # ends[i] is the separator after cell i: a comma, or the closing bracket,
    # which ends the last row; the opening bracket goes
    ends = np.append(np.flatnonzero(b == ord(",")), len(b) - 1)
    starts = np.append(0, ends[:-1]) + 1
    b[0] = ord("x")
    b[ends[block.shape[1] - 1 :: block.shape[1]]] = ord("\n")
    a = np.abs(flat)
    # d.dde-6 to d.dde-9: repr pads the exponent to two digits
    b[ends[(a >= 1e-9) & (a < 1e-5)] - 2] = ord("m")
    # [-]0.0000ddd: repr writes [-]d.dde-05, with no point after one digit;
    # the first digit moves before the point, and the separator after the
    # cell is marked for e-05 to go before it
    e5 = (a >= 1e-5) & (a < 1e-4)
    zero, end = starts[e5] + (flat[e5] < 0), ends[e5]
    b[zero + 5] = b[zero + 6]
    b[zero + 6] = np.where(end - zero > 7, ord("."), ord("x"))
    b[zero[:, None] + np.arange(5)] = ord("x")
    b[end] = np.where(b[end] == ord(","), ord("P"), ord("Q"))
    big = np.flatnonzero(~(a < 1e16))
    if len(big):
        parts, prev = [], 0
        for i, j, x in zip(starts[big].tolist(), ends[big].tolist(), flat[big].tolist()):
            parts += [text[prev:i], repr(x).encode()]
            prev = j
        text = b"".join([*parts, text[prev:]])
    # freed before the replaces copy the text: it lowers the peak memory of
    # a run that writes CSV
    del a, b, ends, starts
    for mark, spelled in ((b"x", b""), (b"m", b"-0"), (b"P", b"e-05,"), (b"Q", b"e-05\n")):
        text = text.replace(mark, spelled)
    return text.decode("ascii")


def _write_csv(fh, header: list[str], columns: list[np.ndarray]) -> None:
    """Write a header row and float columns as CSV rows of shortest
    round-trip decimals, spelled as repr spells them, _CSV_BLOCK rows at a
    time: each block's columns are stacked row-major and encoded as one
    text by _csv_block, which is written once."""
    fh.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.stack([c[start : start + _CSV_BLOCK] for c in columns], axis=1, dtype=float)
        fh.write(_csv_block(block))


def _build_model(cfg: dict):
    if cfg["model"] == "qosc":
        return QOsc(q=float(cfg["q"]))
    return Anharmonic(omega1=float(cfg["omega1"]), omega2=float(cfg["omega2"]))


def _write_trace(
    out: str, fmt: str, time_col: str, times: np.ndarray, values: np.ndarray
) -> None:
    """Write a complex trace as rows (time, re, im, abs, arg), in CSV or JSON.

    Each column is computed once over the whole grid. abs is np.hypot(re, im),
    which gives the bits of the scalar abs(v); np.abs(values) does not."""
    re, im = values.real, values.imag
    abs_, arg = np.hypot(re, im), np.angle(values)
    columns = {time_col: times, "re": re, "im": im, "abs": abs_, "arg": arg}
    if fmt == "json":
        rows = zip(*(c.tolist() for c in columns.values()))
        payload = [dict(zip(columns, row)) for row in rows]
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        with open(out, "w") as fh:
            _write_csv(fh, list(columns), list(columns.values()))


def cmd_evolve(cfg: dict) -> int:
    """Generate an expectation-value trace."""
    model = _build_model(cfg)
    alpha = complex(float(cfg["alpha_re"]), float(cfg["alpha_im"]))
    idx = LambdaIndex(int(cfg["n"]), int(cfg["m"]))
    grid = _time_grid(cfg)
    method = cfg["method"]
    if isinstance(model, QOsc):
        if method != "series":
            raise ConfigError("the q model has no closed form; use --method series")
        ts = evolve_q_expectation(model, alpha, idx, grid, float(cfg["tol"]))
        time_col = "tau"
    else:
        if method == "closed":
            ts = evolve_anharmonic_closed(model, alpha, idx, grid)
        else:
            ts = evolve_anharmonic_expectation(model, alpha, idx, grid, float(cfg["tol"]))
        time_col = "t"
    _write_trace(cfg["out"], cfg["format"], time_col, ts.times, ts.values)
    _write_sidecar(cfg["out"], "evolve", cfg, {"truncation_tail": ts.truncation_tail})
    return 0


def cmd_verify(cfg: dict) -> int:
    """Run a verification suite."""
    results = run_suite(cfg["suite"], D=int(cfg["dim"]))
    report = [r.to_dict() for r in results]
    _write_json(cfg, "verify", report, {"checks": len(report)})
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.check_id} max_residual={r.max_residual:.3e} "
            f"tolerance={r.tolerance:.0e} {r.params}",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in results) else 1


def cmd_map(cfg: dict) -> int:
    """Evaluate the anharmonicity -> q mapping."""
    rep = isomorphism_residuals(
        float(cfg["omega1"]), float(cfg["omega2"]), int(cfg["n"]), int(cfg["j_max"])
    )
    iso = rep.iso
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
    _write_json(cfg, "map", record, {})
    return 0


def cmd_collapse(cfg: dict) -> int:
    """Emit normalized phase-collapse curves."""
    params = QOsc(q=float(cfg["q"]))
    j_col = int(cfg["j_col"])
    taus = _time_grid(cfg)
    ns, ms = _list(cfg, "n_list", int), _list(cfg, "m_list", int)
    pairs = [(n, m) for n in ns for m in ms]
    # a grid too coarse to unwrap is refused as such before _band_curves
    # refuses phases that keep no correct digit
    for n, m in pairs:
        _check_phase_step(taus, q_number(n, params.q), n, m, params.q, j_col)
    # the pairs of one n share their curve's phase (_band_curves), so each
    # n's curve is collapsed once
    curves = dict(zip((n for n, _ in pairs), _band_curves(params.q, j_col, pairs, taus)))
    collapsed = dict(zip(curves, collapse_transform(list(curves.values()))))
    normalized = [collapsed[n] for n, _ in pairs]
    header = ["tau"] + [f"n{n}_m{m}" for n, m in pairs]
    # per time the largest |a_i - a_j| is max - min: rounding is monotone
    stacked = np.vstack(normalized)
    max_dev = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
    footer = ["max_pairwise_deviation", _fmt(max_dev)] + [""] * (len(pairs) - 1)
    out = cfg["out"]
    with open(out, "w") as fh:
        _write_csv(fh, header, [taus, *normalized])
        fh.write(",".join(footer) + "\n")
    _write_sidecar(out, "collapse", cfg, {"max_pairwise_deviation": max_dev})
    return 0


def cmd_sweep(cfg: dict) -> int:
    """Sweep isomorphism residuals over a parameter grid.

    A negative --j-max, or a ratio or n that map_to_q refuses, is a
    DomainError naming the value; residuals beyond double precision are
    error rows. The rows are written once the whole grid has run, so a
    refusal writes no file."""
    ratios = _list(cfg, "omega_ratios", float)
    ns = _list(cfg, "n_values", int)
    j_max = int(cfg["j_max"])
    if j_max < 0:
        raise DomainError(f"--j-max must be nonnegative, got {j_max}")
    rows = ["omega1,omega2,n,metric,value"]
    worst = 0.0
    for ratio in ratios:
        for n in ns:
            try:
                map_to_q(ratio, 1.0, n)
            except DomainError as exc:
                msg = f"sweep point omega1={ratio!r}, n={n}: {exc}"
                raise DomainError(msg) from None
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ConfigError, so that main
    reports them as one JSON record instead of usage text."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per COMMANDS entry; its flags are --config and one
    --key-with-dashes per DEFAULTS key, typed like the default. A flag must
    be spelled out: a prefix such as --omega is refused, not expanded.

    Every flag defaults to None, so resolve_config can tell a flag that was
    given from one that was not."""
    parser = _Parser(
        prog="qdosc",
        description="Dynamics and verification for q-deformed and anharmonic oscillators",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, default in DEFAULTS[command].items():
            choices = f"one of {', '.join(CHOICES[key])}; " if key in CHOICES else ""
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=str if default is None else type(default),
                help=f"{choices}default: {default}",
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args.command, args)
        return COMMANDS[args.command](cfg)
    except (QdoscError, OSError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
