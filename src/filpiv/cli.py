"""Command-line driver: deterministic runs from JSON configs to diff-able
CSV/JSON outputs.

Subcommands: integrate | fit | connect | zero-a | symmetric | filament |
selfcheck.  Exit codes: 0 success, 2 config error, 3 numeric failure,
4 invariant violation beyond thresholds.  Every output embeds the fully
resolved and typed config and the artifact version; reruns are
byte-identical (there is no randomness anywhere).  Every CSV cell is the
value's `%.17g` rendering, and every undefined value (NaN) is an empty cell;
the cells are rendered with numpy, a block of rows at a time (_cells).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, asympt, symmetric, zero_a
from . import flow as _flow
from .errors import ConfigError, FilpivError, InvariantViolation, NumericError
from .flow import FlowParams, integrate_flow, make_initial_state
from .odeint import IntegratorConfig
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

_DEF_THRESHOLDS = {"unit": 1e-8, "eps": 1e-8, "constraint": 1e-8}

# the blocks a config gives whole (no default merges into them), with the
# keys each may hold
_WHOLE_BLOCKS = {"initial": {"branch", "gp0", "gpp0", "s0"},
                 "connect": {"side", "omega", "delta"}}

# the most rows a sample or x grid may have: a config asking for more is a
# config error before anything runs, not a failed allocation after the run
_MAX_ROWS = 10**7

# rows formatted per format_cells call: streaming by block keeps the peak
# memory at one block's cells, temporaries and text instead of the whole
# table's and file's
_CSV_BLOCK = 512


def _number(value, what: str) -> float:
    """value as a finite float; a ConfigError naming the key otherwise (json
    reads NaN and Infinity, and an integer too large for a float; true and
    false are not numbers, although Python's bool is an int)."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return x


def _integer(value, what: str) -> int:
    x = _number(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(x)


def _numbers(value, what: str, n: int | None = None) -> list[float]:
    """value as a list of finite floats, of length n when n is given."""
    if not isinstance(value, (list, tuple)) or n not in (None, len(value)):
        raise ConfigError(f"{what} must be a list of {n or 'finite'} numbers")
    return [_number(v, what) for v in value]


def _finite_or_null(obj):
    """obj with every non-finite float (undefined, like an empty CSV cell)
    replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(_finite_or_null(obj), sort_keys=True, separators=(", ", ": "),
                      allow_nan=False)


def resolve_config(raw: dict) -> dict:
    """Fill defaults, then validate and type every key in one pass: the
    result, which the subcommands read and the artefacts echo, holds finite
    floats, the integers max_steps and x_grid.n, a branch name and a connect
    side of +-1.  Checks that depend on the physics stay with the code they
    protect."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = {
        "params": {"a": 0.0, "eps": 1.0},
        "initial": {"branch": "odd"},
        "s_span": [-40.0, 40.0],
        "tolerances": {"rel": IntegratorConfig.rel_tol, "max_steps": IntegratorConfig.max_steps},
        "thresholds": dict(_DEF_THRESHOLDS),
        "sample_step": 0.05,
        "fit_window": None,
        "t_values": [1.0],
        "x_grid": {"min": -10.0, "max": 10.0, "n": 201},
        "connect": None,
    }
    for key, val in raw.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "connect" and val is None:
            continue
        if key in _WHOLE_BLOCKS or isinstance(cfg[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{key} must be an object")
            for sub in val:
                if sub not in _WHOLE_BLOCKS.get(key, cfg[key]):
                    raise ConfigError(f"unknown config key {key}.{sub}")
            cfg[key] = dict(val) if key in _WHOLE_BLOCKS else {**cfg[key], **val}
        else:
            cfg[key] = val

    def floats(key, *subs):
        return {sub: _number(cfg[key][sub], f"{key}.{sub}") for sub in subs}

    cfg["params"] = floats("params", "a", "eps")
    init = cfg["initial"]
    if "branch" in init:
        if len(init) > 1:
            raise ConfigError("initial gives either a branch or gp0/gpp0/s0, not both")
        if init["branch"] not in symmetric.BRANCHES:
            raise ConfigError(f"initial.branch must be one of {symmetric.BRANCHES}, "
                              f"got {init['branch']!r}")
    elif {"gp0", "gpp0"} <= init.keys():
        cfg["initial"] = {"gp0": _numbers(init["gp0"], "initial.gp0", 3),
                          "gpp0": _numbers(init["gpp0"], "initial.gpp0", 3),
                          "s0": _number(init.get("s0", 0.0), "initial.s0")}
    else:
        raise ConfigError("initial must give either a branch or gp0/gpp0")
    cfg["tolerances"] = tol = {
        **floats("tolerances", "rel"),
        "max_steps": _integer(cfg["tolerances"]["max_steps"], "tolerances.max_steps")}
    if not (tol["rel"] > 0.0 and tol["max_steps"] >= 1):
        raise ConfigError(f"tolerances must be > 0 and max_steps >= 1, got {tol}")

    lo, hi = cfg["s_span"] = _numbers(cfg["s_span"], "s_span", 2)
    if not lo < hi:
        raise ConfigError("s_span must be [lo, hi] with lo < hi")
    if cfg["fit_window"] is None:
        s_max = max(abs(lo), abs(hi))
        cfg["fit_window"] = [0.6 * s_max, s_max]
    cfg["fit_window"] = _numbers(cfg["fit_window"], "fit_window", 2)
    cfg["sample_step"] = _number(cfg["sample_step"], "sample_step")
    if not cfg["sample_step"] > 0.0:
        raise ConfigError("sample_step must be > 0")
    cfg["thresholds"] = floats("thresholds", *cfg["thresholds"])
    cfg["t_values"] = _numbers(cfg["t_values"], "t_values")
    if not all(t > 0.0 for t in cfg["t_values"]):
        raise ConfigError("t values must be positive")
    n = _integer(cfg["x_grid"]["n"], "x_grid.n")
    cfg["x_grid"] = {**floats("x_grid", "min", "max"), "n": n}
    if n < 1:
        raise ConfigError("x_grid.n must be >= 1")
    # the integrate command samples round(steps) + 1 rows, at most 1/2 more
    # than steps + 1, so an integer count passes only if it is within the bound
    for rows, what in (((hi - lo) / cfg["sample_step"] + 1.0, "sample_step"), (n, "x_grid.n")):
        if not rows <= _MAX_ROWS:  # also false for an infinite or NaN count
            raise ConfigError(f"{what} asks for {rows:.6g} rows, more than {_MAX_ROWS}")
    if cfg["connect"] is not None:
        if not {"omega", "delta"} <= cfg["connect"].keys():
            raise ConfigError("connect must give omega and delta")
        side = _integer(cfg["connect"].get("side", 1), "connect.side")
        if side not in (1, -1):
            raise ConfigError(f"connect.side must be 1 or -1, got {side}")
        cfg["connect"] = {**floats("connect", "omega", "delta"), "side": side}
    return cfg


def _flow_params(cfg: dict) -> FlowParams:
    p = cfg["params"]
    return FlowParams(p["a"], p["eps"])


def _initial_state(cfg: dict, params: FlowParams):
    init = cfg["initial"]
    if "branch" in init:
        if params.a == 0.0:
            if init["branch"] != "odd":
                raise ConfigError("a = 0 supports only the normalized data "
                                  "(branch 'odd' maps to it)")
            return zero_a.normalized_state(params)
        return symmetric.make_symmetric_ic(params, init["branch"])
    return make_initial_state(params, init["gp0"], init["gpp0"], init["s0"])


def _run_flow(cfg: dict, check: bool = True):
    """The configured flow run; with check, an InvariantViolation when its
    drifts exceed the thresholds (see _check_drifts)."""
    params = _flow_params(cfg)
    state0 = _initial_state(cfg, params)
    t = cfg["tolerances"]
    run = integrate_flow(params, state0, cfg["s_span"][0], cfg["s_span"][1],
                         IntegratorConfig(t["rel"], t["max_steps"]))
    if check:
        _check_drifts(cfg, run.drift_diagnostics())
    return params, run


def _check_drifts(cfg: dict, drifts: dict) -> None:
    """An InvariantViolation unless every drift of FlowRun.drift_diagnostics
    is within its threshold (a NaN drift breaches too)."""
    th = cfg["thresholds"]
    if not all(drifts[f"{name}_drift_max"] <= limit for name, limit in th.items()):
        raise InvariantViolation(
            f"drift beyond thresholds: {drifts} vs {th}"
        )


def _meta(cfg: dict) -> dict:
    return {"version": __version__, "config": cfg}


def _create_parent(path: Path) -> None:
    """Create the output directory with its first artefact, so that a run
    that fails before writing anything leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)


def _write_json(path: Path, payload: dict) -> None:
    _create_parent(path)
    path.write_text(_canonical_json(payload) + "\n")


def _csv_header_lines(cfg: dict) -> list[str]:
    return [f"# filpiv {__version__}", f"# config: {_canonical_json(cfg)}"]


def _write_csv(path: Path, header_lines: list[str], columns) -> None:
    """Write the header lines, then one row per entry of the columns (each
    1-d, or 2-d for several columns side by side).

    Every cell is the `%.17g` text of its value (the same as
    `format(x, ".17g")`) and every NaN an empty cell.  Each block of
    _CSV_BLOCK rows is stacked from the columns' slices and rendered by
    _cells.format_cells, so neither the whole table nor the whole text is
    held.
    """
    # imported here, not with cli: a process that writes no CSV (every
    # subcommand but integrate and filament, and a library caller of the other
    # modules) neither compiles nor keeps the formatter
    from ._cells import format_cells

    _create_parent(path)
    with path.open("wb") as fh:
        fh.write(("\n".join(header_lines) + "\n").encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            fh.write(format_cells(np.column_stack(
                [col[start:start + _CSV_BLOCK] for col in columns])))


def cmd_integrate(cfg: dict, out: Path) -> int:
    # the artefacts of a breaching run are written first, to diagnose it
    params, run = _run_flow(cfg, check=False)
    lo, hi = cfg["s_span"]
    smp = run.sample(np.linspace(lo, hi, round((hi - lo) / cfg["sample_step"]) + 1))
    cols = "s,G1,G2,G3,Gp1,Gp2,Gp3,sigma,sigma_p,sigma_pp,C,T,eps_drift,unit_drift"
    _write_csv(out / "trajectory.csv", _csv_header_lines(cfg) + [cols], [
        smp["s"], smp["G"], smp["Gp"], smp["sigma"], smp["sigma_p"],
        smp["sigma_pp"], smp["C"], smp["T"], smp["eps_drift"], smp["unit_drift"],
    ])

    drifts = run.drift_diagnostics()
    steps = np.diff(run.traj.s_nodes)
    diag = {
        **_meta(cfg),
        "drifts": drifts,
        "method": "taylor",
        "order": run.traj.order,
        "n_steps": run.traj.n_steps,
        "n_steps_minus": run.traj.n_steps_minus,
        "n_steps_plus": run.traj.n_steps - run.traj.n_steps_minus,
        # the signs of D in y(-s) = D y(s) when the minus leg is the plus
        # leg mirrored, null when both legs were integrated
        "reflection": None if run.traj.mirror is None else run.traj.mirror.astype(int).tolist(),
        "step_min": float(steps.min()),
        "step_median": float(np.median(steps)),
        "step_max": float(steps.max()),
    }
    _write_json(out / "diagnostics.json", diag)
    _check_drifts(cfg, drifts)
    return EXIT_OK


def _tail_fields(tail: asympt.TailParams) -> dict:
    return {"omega": tail.omega, "delta": tail.delta,
            "rho_re": tail.rho.real, "rho_im": tail.rho.imag}


def _tail_payload(fr: asympt.FitResult) -> dict:
    return {
        **_tail_fields(fr.tail),
        "amplitude": fr.amplitude,
        "residual_norm": fr.residual_norm,
        "n_periods": fr.n_periods,
        "profile_solves": fr.profile_solves,
    }


def cmd_fit(cfg: dict, out: Path) -> int:
    params, run = _run_flow(cfg)
    window = tuple(cfg["fit_window"])
    fp = asympt.fit_tail(run, 1, window)
    fm = asympt.fit_tail(run, -1, window)
    res = asympt.connfI_residuals(fp.tail, fm.tail, params)
    amp_ratio = []
    for fr in (fp, fm):
        r = asympt.r_of_omega(fr.tail.omega, params)
        amp_ratio.append(fr.amplitude / (2.0 * r / 9.0) if r > 0 else math.nan)
    payload = {
        **_meta(cfg),
        "plus": _tail_payload(fp),
        "minus": _tail_payload(fm),
        "connfI_residuals": res,
        "amp_consistency": amp_ratio,
    }
    _write_json(out / "fit.json", payload)
    return EXIT_OK


def cmd_connect(cfg: dict, out: Path) -> int:
    params = _flow_params(cfg)
    spec = cfg["connect"]
    if spec is None:
        raise ConfigError("connect requires a connect block with omega and delta")
    side = spec["side"]
    tail = asympt.make_tail(side, spec["omega"], spec["delta"], params)
    predicted = asympt.connect(tail, params)
    res = asympt.connfI_residuals(
        tail if side == 1 else predicted,
        predicted if side == 1 else tail,
        params,
    )
    payload = {
        **_meta(cfg),
        "input": {"side": side, **_tail_fields(tail)},
        "predicted": {"side": predicted.side, **_tail_fields(predicted)},
        "connfI_residuals": res,
    }
    _write_json(out / "connect.json", payload)
    return EXIT_OK


def cmd_zero_a(cfg: dict, out: Path) -> int:
    params = _flow_params(cfg)
    if params.a != 0.0:
        raise ConfigError("zero-a requires a = 0 in the config")
    zp = zero_a.ZeroAParams(params.eps)
    _, run = _run_flow(cfg)
    lo, hi = cfg["s_span"]
    grid = np.linspace(max(lo, -20.0), min(hi, 20.0), 161)
    dev, repr_dev = zero_a.closed_form_gaps(grid, run.gp(grid), zp)
    tangents = zero_a.asym_tangents(zp)
    payload = {
        **_meta(cfg),
        "max_closed_vs_numeric": list(dev),
        "max_representation_gap": list(repr_dev),
        "T_plus": list(tangents.T_plus),
        "T_minus": list(tangents.T_minus),
        "T_dot": float(tangents.T_plus @ tangents.T_minus),
        "T_dot_expected": 2.0 * math.exp(-math.pi * params.eps) - 1.0,
    }
    _write_json(out / "zero_a_report.json", payload)
    return EXIT_OK


def cmd_symmetric(cfg: dict, out: Path) -> int:
    params = _flow_params(cfg)
    branch = cfg["initial"].get("branch")
    if branch is None:
        raise ConfigError("symmetric requires initial.branch")
    om_c, rr_c = symmetric.conjecture_omega(params, branch)
    roots = symmetric.x_roots(params)
    _, run = _run_flow(cfg)
    window = tuple(cfg["fit_window"])
    fits = {side: asympt.fit_tail(run, side, window) for side in (1, -1)}
    payload = {
        **_meta(cfg),
        "branch": branch,
        "prediction": {
            "status": "conjectural",
            "omega": om_c,
            "re_rho": rr_c,
            "limit_C2": 2.0 * (params.eps - 3.0 * om_c) / 3.0,
        },
        "x_roots": [
            {"value": r.value, "admissible": r.admissible, "omega": r.omega}
            for r in roots
        ],
        "fit_plus": _tail_payload(fits[1]),
        "fit_minus": _tail_payload(fits[-1]),
        "omega_deviation": max(abs(fits[s].tail.omega - om_c) for s in (1, -1)),
    }
    _write_json(out / "symmetric.json", payload)
    return EXIT_OK


def cmd_filament(cfg: dict, out: Path) -> int:
    g = cfg["x_grid"]
    x_grid = np.linspace(g["min"], g["max"], g["n"])
    params, run = _run_flow(cfg)
    curves = _flow.reconstruct_filament(run, cfg["t_values"], x_grid)
    index = []
    for k, (t, curve) in enumerate(curves):
        name = f"filament_t{k}.csv"
        rt = math.sqrt(t)
        smp = run.sample(x_grid / rt)
        _write_csv(out / name, _csv_header_lines(cfg) + [
            f"# t: {t:.17g}", "x,gamma1,gamma2,gamma3,curvature,torsion",
        ], [x_grid, curve, smp["C"] / rt, smp["T"] / rt])
        index.append({"t": t, "file": name})
    _write_json(out / "filament.json", {**_meta(cfg), "curves": index})
    return EXIT_OK


def cmd_selfcheck(out: Path | None) -> int:
    results = run_selfcheck()
    for res in results:
        print(res.line())
    if out is not None:
        _write_json(out / "selfcheck.json", {
            "version": __version__, "results": [r.record() for r in results]})
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a ConfigError, so that it ends as
    every other config error does: exit 2 with one JSON line on stderr."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="filpiv",
        description="Self-similar binormal-flow filaments via the sigma-form "
                    "of Painleve IV",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("integrate", "fit", "connect", "zero-a", "symmetric",
                 "filament", "selfcheck"):
        p = sub.add_parser(name)
        p.add_argument("--out", type=str, default=None,
                       help="output directory (created with the first artefact)")
        if name == "selfcheck":
            continue
        p.add_argument("--config", type=str, default=None,
                       help="path to the JSON run config")
    return parser


_COMMANDS = {
    "integrate": cmd_integrate,
    "fit": cmd_fit,
    "connect": cmd_connect,
    "zero-a": cmd_zero_a,
    "symmetric": cmd_symmetric,
    "filament": cmd_filament,
}


def _error_payload(kind: str, exc: Exception) -> str:
    return _canonical_json({
        "error": kind,
        "type": type(exc).__name__,
        "message": str(exc),
    })


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = None if args.out is None else Path(args.out)
        if args.command == "selfcheck":
            return cmd_selfcheck(out)
        if args.config is None:
            raise ConfigError(f"{args.command} requires --config")
        if out is None:
            raise ConfigError(f"{args.command} requires --out")
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return _COMMANDS[args.command](resolve_config(raw), out)
    except ConfigError as exc:
        print(_error_payload("config", exc), file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(_error_payload("invariant", exc), file=sys.stderr)
        return EXIT_INVARIANT
    except NumericError as exc:
        print(_error_payload("numeric", exc), file=sys.stderr)
        return EXIT_NUMERIC
    except FilpivError as exc:
        print(_error_payload("error", exc), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
