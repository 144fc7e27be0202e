"""Command-line driver: deterministic runs from JSON configs to diff-able
CSV/JSON outputs.

Subcommands: integrate | fit | connect | zero-a | symmetric | filament |
selfcheck.  Exit codes: 0 success, 2 config error, 3 numeric failure,
4 invariant violation beyond thresholds.  Every output embeds the fully
resolved config and the artifact version; reruns are byte-identical (there
is no randomness anywhere).  Every CSV cell is the value's `%.17g` rendering,
and every undefined value (NaN) is an empty cell.
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

# rows formatted per %-operation: streaming by block keeps the peak memory at
# one block's text instead of the whole file's
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


def _pair(value, what: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be [lo, hi]")
    return [_number(v, what) for v in value]


def _vector3(value, what: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{what} must be a list of 3 numbers")
    return np.array([_number(v, what) for v in value])


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


def resolve_config(raw: dict, overrides: dict) -> dict:
    """Fill defaults, apply CLI overrides, validate types and ranges."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = {
        "params": {"a": 0.0, "eps": 1.0, "axis": [0.0, 0.0, 1.0]},
        "initial": {"branch": "odd"},
        "s_span": [-40.0, 40.0],
        "tolerances": {"rel": IntegratorConfig.rel_tol, "abs": IntegratorConfig.abs_tol,
                       "max_steps": IntegratorConfig.max_steps},
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
    if "branch" in cfg["initial"] and len(cfg["initial"]) > 1:
        raise ConfigError("initial gives either a branch or gp0/gpp0/s0, not both")

    if overrides.get("tol_rel") is not None:
        cfg["tolerances"]["rel"] = overrides["tol_rel"]
    if overrides.get("tol_abs") is not None:
        cfg["tolerances"]["abs"] = overrides["tol_abs"]
    if overrides.get("s_max") is not None:
        s = abs(float(overrides["s_max"]))
        cfg["s_span"] = [-s, s]

    cfg["s_span"] = _pair(cfg["s_span"], "s_span")
    if not cfg["s_span"][0] < cfg["s_span"][1]:
        raise ConfigError("s_span must be [lo, hi] with lo < hi")
    if cfg["fit_window"] is None:
        s_max = max(abs(cfg["s_span"][0]), abs(cfg["s_span"][1]))
        cfg["fit_window"] = [0.6 * s_max, s_max]
    cfg["fit_window"] = _pair(cfg["fit_window"], "fit_window")
    cfg["sample_step"] = _number(cfg["sample_step"], "sample_step")
    if not cfg["sample_step"] > 0.0:
        raise ConfigError("sample_step must be > 0")
    cfg["thresholds"] = {k: _number(v, f"thresholds.{k}")
                         for k, v in cfg["thresholds"].items()}
    _sample_rows(cfg)
    _x_grid_spec(cfg)
    return cfg


def _flow_params(cfg: dict) -> FlowParams:
    p = cfg["params"]
    try:
        return FlowParams(_number(p["a"], "params.a"), _number(p["eps"], "params.eps"),
                          tuple(_vector3(p.get("axis", (0.0, 0.0, 1.0)), "params.axis")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params block: {exc}") from exc


def _initial_state(cfg: dict, params: FlowParams):
    init = cfg["initial"]
    if "branch" in init:
        if params.a == 0.0:
            if init["branch"] != "odd":
                raise ConfigError("a = 0 supports only the normalized data "
                                  "(branch 'odd' maps to it)")
            return zero_a.normalized_state(params)
        return symmetric.make_symmetric_ic(params, init["branch"])
    if "gp0" in init and "gpp0" in init:
        return make_initial_state(
            params,
            _vector3(init["gp0"], "initial.gp0"),
            _vector3(init["gpp0"], "initial.gpp0"),
            _number(init.get("s0", 0.0), "initial.s0"),
        )
    raise ConfigError("initial must give either a branch or gp0/gpp0")


def _integrator_cfg(cfg: dict) -> IntegratorConfig:
    t = cfg["tolerances"]
    try:
        return IntegratorConfig(
            rel_tol=_number(t["rel"], "tolerances.rel"),
            abs_tol=_number(t["abs"], "tolerances.abs"),
            max_steps=_integer(t["max_steps"], "tolerances.max_steps"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid tolerances {t}: {exc}") from exc


def _run_flow(cfg: dict, check: bool = True):
    """The configured flow run; with check, an InvariantViolation when its
    drifts exceed the thresholds (see _check_drifts)."""
    params = _flow_params(cfg)
    state0 = _initial_state(cfg, params)
    run = integrate_flow(params, state0, cfg["s_span"][0], cfg["s_span"][1],
                         _integrator_cfg(cfg))
    if check:
        _check_drifts(cfg, run)
    return params, run


def _check_drifts(cfg: dict, run) -> None:
    """An InvariantViolation unless every drift is within its threshold (a
    NaN drift breaches too)."""
    drifts = run.drift_diagnostics()
    th = cfg["thresholds"]
    if not all(drifts[f"{name}_drift_max"] <= limit for name, limit in th.items()):
        raise InvariantViolation(
            f"drift beyond thresholds: {drifts} vs {th}"
        )


def _check_rows(rows: float, what: str) -> None:
    if not rows <= _MAX_ROWS:  # also false for an infinite or NaN count
        raise ConfigError(f"{what} asks for {rows:.6g} rows, more than {_MAX_ROWS}")


def _sample_rows(cfg: dict) -> int:
    lo, hi = cfg["s_span"]
    steps = (hi - lo) / cfg["sample_step"]
    # the count round(steps) + 1 exceeds steps + 1 by at most 1/2, so an
    # integer count passes only if it is within the bound
    _check_rows(steps + 1.0, "sample_step")
    return int(round(steps)) + 1


def _sample_grid(cfg: dict) -> np.ndarray:
    lo, hi = cfg["s_span"]
    return np.linspace(lo, hi, _sample_rows(cfg))


def _x_grid_spec(cfg: dict) -> tuple[float, float, int]:
    g = cfg["x_grid"]
    n = _integer(g["n"], "x_grid.n")
    if n < 1:
        raise ConfigError("x_grid.n must be >= 1")
    _check_rows(n, "x_grid.n")
    return _number(g["min"], "x_grid.min"), _number(g["max"], "x_grid.max"), n


def _x_grid(cfg: dict) -> np.ndarray:
    return np.linspace(*_x_grid_spec(cfg))


def _t_values(cfg: dict) -> list[float]:
    if not isinstance(cfg["t_values"], list):
        raise ConfigError("t_values must be a list")
    t_values = [_number(t, "t_values") for t in cfg["t_values"]]
    if not all(t > 0.0 for t in t_values):
        raise ConfigError("t values must be positive")
    return t_values


def _meta(cfg: dict) -> dict:
    return {"version": __version__, "config": cfg}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_canonical_json(payload) + "\n")


def _csv_header_lines(cfg: dict) -> list[str]:
    return [f"# filpiv {__version__}", f"# config: {_canonical_json(cfg)}"]


def _write_csv(path: Path, header_lines: list[str], columns) -> None:
    """Write the header lines, then one row per entry of the stacked columns.

    Cells are `%.17g` (the same text as `format(x, ".17g")`), formatted one
    block of rows per %-operation.  "nan" is the only `%.17g` output with
    those letters, so blanking it in the formatted rows, never in the
    header, makes every NaN an empty cell.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write("\n".join(header_lines) + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            text = (row * len(block)) % tuple(block.ravel().tolist())
            fh.write(text.replace("nan", ""))


def cmd_integrate(cfg: dict, out: Path) -> int:
    # the artefacts of a breaching run are written first, to diagnose it
    params, run = _run_flow(cfg, check=False)
    smp = run.sample(_sample_grid(cfg))
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
        "step_min": float(steps.min()),
        "step_median": float(np.median(steps)),
        "step_max": float(steps.max()),
    }
    _write_json(out / "diagnostics.json", diag)
    _check_drifts(cfg, run)
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
    if spec is None or not {"omega", "delta"} <= spec.keys():
        raise ConfigError("connect requires a connect block with omega and delta")
    side = _number(spec.get("side", 1), "connect.side")
    if side not in (1.0, -1.0):
        raise ConfigError(f"connect.side must be 1 or -1, got {spec['side']!r}")
    side = int(side)
    omega = _number(spec["omega"], "connect.omega")
    delta = _number(spec["delta"], "connect.delta")
    tail = asympt.make_tail(side, omega, delta, params)
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
    x_grid = _x_grid(cfg)
    t_values = _t_values(cfg)
    params, run = _run_flow(cfg)
    curves = _flow.reconstruct_filament(run, t_values, x_grid)
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


def cmd_selfcheck(out: Path | None, include_planar: bool) -> int:
    results = run_selfcheck(include_planar=include_planar)
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
                       help="output directory (created if missing)")
        if name == "selfcheck":
            p.add_argument("--planar", action="store_true",
                           help="include the slower planar-spiral criterion")
            continue
        p.add_argument("--config", type=str, default=None,
                       help="path to the JSON run config")
        p.add_argument("--tol-rel", type=float, default=None)
        p.add_argument("--tol-abs", type=float, default=None)
        p.add_argument("--s-max", type=float, default=None)
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
        out = None
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
        if args.command == "selfcheck":
            return cmd_selfcheck(out, args.planar)
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
        overrides = {"tol_rel": args.tol_rel, "tol_abs": args.tol_abs,
                     "s_max": args.s_max}
        cfg = resolve_config(raw, overrides)
        return _COMMANDS[args.command](cfg, out)
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
