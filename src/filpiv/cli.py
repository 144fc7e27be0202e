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
from .selfcheck import RunCache, run_selfcheck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

_DEF_THRESHOLDS = {"unit": 1e-8, "eps": 1e-8, "constraint": 1e-8}

# rows formatted per %-operation: streaming by block keeps the peak memory at
# one block's text instead of the whole file's
_CSV_BLOCK = 512


def _fmt(x) -> str:
    """Fixed 17-significant-digit decimal rendering of one value, as in a CSV
    cell; an absent value (None or NaN) is an empty string."""
    if x is None or math.isnan(x):
        return ""
    return format(float(x), ".17g")


def _number(value, what: str, kind=float):
    """value converted by kind; a ConfigError naming the key otherwise."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _pair(value, what: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be [lo, hi]")
    return [_number(v, what) for v in value]


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def resolve_config(raw: dict, overrides: dict) -> dict:
    """Fill defaults, apply CLI overrides, validate types and ranges."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = {
        "params": {"a": 0.0, "eps": 1.0, "axis": [0.0, 0.0, 1.0]},
        "initial": {"branch": "odd"},
        "s_span": [-40.0, 40.0],
        "tolerances": {"rel": 1e-12, "abs": 1e-14, "max_steps": 2_000_000},
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
        if isinstance(cfg[key], dict) and key != "initial":
            if not isinstance(val, dict):
                raise ConfigError(f"{key} must be an object")
            for sub, sval in val.items():
                if sub not in cfg[key]:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                cfg[key][sub] = sval
        else:
            cfg[key] = val

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
    return cfg


def _flow_params(cfg: dict) -> FlowParams:
    p = cfg["params"]
    try:
        return FlowParams(float(p["a"]), float(p["eps"]),
                          tuple(float(v) for v in p.get("axis", (0.0, 0.0, 1.0))))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params block: {exc}") from exc


def _initial_state(cfg: dict, params: FlowParams):
    init = cfg["initial"]
    if not isinstance(init, dict):
        raise ConfigError("initial must be an object")
    if "branch" in init:
        if params.a == 0.0:
            if init["branch"] != "odd":
                raise ConfigError("a = 0 supports only the normalized data "
                                  "(branch 'odd' maps to it)")
            # normalized zero-axis data: tangent e1, curvature sqrt(eps) e2
            return make_initial_state(
                params, [1.0, 0.0, 0.0], [0.0, math.sqrt(params.eps), 0.0]
            )
        return symmetric.make_symmetric_ic(params, init["branch"])
    if "gp0" in init and "gpp0" in init:
        return make_initial_state(
            params,
            np.asarray(init["gp0"], dtype=float),
            np.asarray(init["gpp0"], dtype=float),
            float(init.get("s0", 0.0)),
        )
    raise ConfigError("initial must give either a branch or gp0/gpp0")


def _integrator_cfg(cfg: dict) -> IntegratorConfig:
    t = cfg["tolerances"]
    try:
        return IntegratorConfig(
            rel_tol=float(t["rel"]), abs_tol=float(t["abs"]),
            max_steps=int(t["max_steps"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid tolerances {t}: {exc}") from exc


def _run_flow(cfg: dict):
    params = _flow_params(cfg)
    state0 = _initial_state(cfg, params)
    run = integrate_flow(params, state0, cfg["s_span"][0], cfg["s_span"][1],
                         _integrator_cfg(cfg))
    return params, run


def _sample_grid(cfg: dict) -> np.ndarray:
    lo, hi = cfg["s_span"]
    n = int(round((hi - lo) / cfg["sample_step"])) + 1
    return np.linspace(lo, hi, n)


def _x_grid(cfg: dict) -> np.ndarray:
    g = cfg["x_grid"]
    n = _number(g["n"], "x_grid.n", int)
    if n < 1:
        raise ConfigError("x_grid.n must be >= 1")
    return np.linspace(_number(g["min"], "x_grid.min"),
                       _number(g["max"], "x_grid.max"), n)


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
    params, run = _run_flow(cfg)
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
        "rhs_evals": run.traj.rhs_evals,
        "step_min": float(steps.min()),
        "step_median": float(np.median(steps)),
        "step_max": float(steps.max()),
    }
    _write_json(out / "diagnostics.json", diag)
    th = cfg["thresholds"]
    if (drifts["unit_drift_max"] > th["unit"]
            or drifts["eps_drift_max"] > th["eps"]
            or drifts["constraint_drift_max"] > th["constraint"]):
        raise InvariantViolation(
            f"drift beyond thresholds: {drifts} vs {th}"
        )
    return EXIT_OK


def _tail_payload(fr: asympt.FitResult) -> dict:
    return {
        "omega": fr.tail.omega,
        "delta": fr.tail.delta,
        "rho_re": fr.tail.rho.real,
        "rho_im": fr.tail.rho.imag,
        "amplitude": fr.amplitude,
        "residual_norm": fr.residual_norm,
        "n_periods": fr.n_periods,
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
    spec = cfg.get("connect")
    if not spec:
        raise ConfigError("connect requires a connect block with omega and delta")
    side = int(spec.get("side", 1))
    tail = asympt.make_tail(side, float(spec["omega"]), float(spec["delta"]), params)
    predicted = asympt.connect(tail, params,
                               consistency_tol=float(spec.get("tol", 0.05)))
    res = asympt.connfI_residuals(
        tail if side == 1 else predicted,
        predicted if side == 1 else tail,
        params,
    )
    payload = {
        **_meta(cfg),
        "input": {"side": side, "omega": tail.omega, "delta": tail.delta,
                  "rho_re": tail.rho.real, "rho_im": tail.rho.imag},
        "predicted": {"side": predicted.side, "omega": predicted.omega,
                      "delta": predicted.delta, "rho_re": predicted.rho.real,
                      "rho_im": predicted.rho.imag},
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
    dev = np.zeros(3)
    repr_dev = np.zeros(3)
    parity = 0.0
    for s, gp in zip(grid, run.gp(grid)):
        hyp = zero_a.g_prime_hyp(float(s), zp, exact=True)
        dev = np.maximum(dev, np.abs(hyp - gp))
        repr_dev = np.maximum(
            repr_dev, np.abs(hyp - zero_a.g_prime_pcf(float(s), zp, exact=True))
        )
        mirror = zero_a.g_prime_hyp(float(-s), zp, exact=True)
        parity = max(parity, abs(hyp[0] - mirror[0]), abs(hyp[1] + mirror[1]),
                     abs(hyp[2] + mirror[2]))
    tangents = zero_a.asym_tangents(zp)
    payload = {
        **_meta(cfg),
        "max_closed_vs_numeric": list(dev),
        "max_representation_gap": list(repr_dev),
        "parity_residual": parity,
        "T_plus": list(tangents.T_plus),
        "T_minus": list(tangents.T_minus),
        "T_dot": float(tangents.T_plus @ tangents.T_minus),
        "T_dot_expected": 2.0 * math.exp(-math.pi * params.eps) - 1.0,
    }
    _write_json(out / "zero_a_report.json", payload)
    return EXIT_OK


def cmd_symmetric(cfg: dict, out: Path) -> int:
    params = _flow_params(cfg)
    init = cfg["initial"]
    branch = init.get("branch") if isinstance(init, dict) else None
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
            f"# t: {_fmt(t)}", "x,gamma1,gamma2,gamma3,curvature,torsion",
        ], [x_grid, curve, smp["C"] / rt, smp["T"] / rt])
        index.append({"t": t, "file": name})
    _write_json(out / "filament.json", {**_meta(cfg), "curves": index})
    return EXIT_OK


def cmd_selfcheck(cfg: dict, out: Path | None, include_planar: bool) -> int:
    results = run_selfcheck(include_planar=include_planar,
                            include_connection=True, cache=RunCache())
    for res in results:
        print(res.line())
    if out is not None:
        payload = {
            "version": __version__,
            "results": [
                {"name": r.name, "passed": r.passed, "details": r.details,
                 "measures": r.measures}
                for r in results
            ],
        }
        _write_json(out / "selfcheck.json", payload)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filpiv",
        description="Self-similar binormal-flow filaments via the sigma-form "
                    "of Painleve IV",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("integrate", "fit", "connect", "zero-a", "symmetric",
                 "filament", "selfcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="path to the JSON run config")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (created if missing)")
        p.add_argument("--tol-rel", type=float, default=None)
        p.add_argument("--tol-abs", type=float, default=None)
        p.add_argument("--s-max", type=float, default=None)
        p.add_argument("--seedless", action="store_true",
                       help="accepted for symmetry; every run is "
                            "deterministic and uses no RNG")
        if name == "selfcheck":
            p.add_argument("--planar", action="store_true",
                           help="include the slower planar-spiral criterion")
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
    args = build_parser().parse_args(argv)
    out = None
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "selfcheck":
            return cmd_selfcheck({}, out, getattr(args, "planar", False))
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
