"""Acceptance-grade verification suite, shared by the test suite and the CLI
selfcheck subcommand.  Every criterion pins its tolerances here and reports
one pass/fail line with the worst measured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import asympt, painleve, symmetric, zero_a
from .flow import FlowParams, integrate_flow, make_initial_state
from .odeint import IntegratorConfig

__all__ = [
    "CriterionResult",
    "RunCache",
    "crit_conservation",
    "crit_closed_form_equivalence",
    "crit_zero_a_tangents",
    "crit_planar_spiral",
    "crit_symmetric_tails",
    "crit_connection_formulas",
    "crit_cubic_truncation",
    "run_selfcheck",
    "SELFCHECK_CRITERIA",
]

# pinned tolerances
TOL_UNIT_DRIFT = 1e-10
TOL_EPS_DRIFT = 1e-9
TOL_CONSTRAINT_DRIFT = 1e-9
TOL_SP4_SCALE = 1e-8          # |residual| <= TOL * (1 + |s|^3)
TOL_CLOSED_FORM = 1e-8        # hyp vs ODE tangent, componentwise
TOL_REPR_AGREE = 1e-9         # hyp vs parabolic-cylinder representation
TOL_TANGENT_ANGLE = 1e-3      # rad
TOL_TANGENT_DOT = 1e-6
TOL_PLANAR_DELTA = 1e-4
TOL_PLANAR_OMEGA = 1e-2       # |eps + 6 omega|
TOL_SYM_OMEGA = 1e-3
TOL_SYM_RERHO = 3e-2
TOL_SYM_SIDES = 2e-3
TOL_CONN_OMEGA = 1e-2
TOL_CONN_DELTA = 5e-2
TOL_CONN_RESID = 1e-3
TOL_CUBIC_REL = 0.05

CONSERVATION_GRID_A = (0.5, 1.0, 2.0, 10.0)
SYMMETRIC_CASES = (
    (1.0, 0.0, "odd"),
    (1.0, 0.5, "odd"),
    (2.0, 1.0, "odd"),
    (1.0, 1.5, "mixed_minus"),
    (1.0, 1.5, "mixed_plus"),
)
# two non-symmetric Cauchy data sets at (a, eps) = (1, 0.3):
# (cos theta0, mixing angle of G''(0) in the tangent-orthogonal plane)
ASYMMETRIC_CASES = ((0.1, 0.93), (0.22, 0.64))


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    measures: dict = field(default_factory=dict)

    def __post_init__(self):
        # plain Python types, so the result serializes to JSON
        self.passed = bool(self.passed)
        self.measures = {k: float(v) for k, v in self.measures.items()}

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.details}"


def _acc_cfg(rel: float = 1e-12) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=rel, abs_tol=1e-14)


def symmetric_run_state(a: float, eps: float, branch: str):
    params = FlowParams(a, eps)
    return params, symmetric.make_symmetric_ic(params, branch)


def asymmetric_state(params: FlowParams, cos_t: float, ang: float):
    """Generic (non-symmetric) Cauchy data: tangent at polar angle
    arccos(cos_t), curvature vector at angle ang in the orthogonal plane."""
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    gp0 = np.array([sin_t, 0.0, cos_t])
    c2 = params.eps - params.a * cos_t
    if c2 <= 0.0:
        raise ValueError("infeasible Cauchy data: eps - a cos(theta0) <= 0")
    n1 = np.array([-cos_t, 0.0, sin_t])
    n2 = np.array([0.0, 1.0, 0.0])
    gpp0 = math.sqrt(c2) * (math.cos(ang) * n1 + math.sin(ang) * n2)
    return make_initial_state(params, gp0, gpp0)


class RunCache:
    """Memoizes flow runs so criteria and tests can share them."""

    def __init__(self):
        self._runs = {}

    def get(self, key, builder):
        if key not in self._runs:
            self._runs[key] = builder()
        return self._runs[key]

    def grid_run(self, a: float, eps: float, branch: str, s_max: float = 40.0,
                 rel: float = 1e-12):
        def build():
            params, st = symmetric_run_state(a, eps, branch)
            return integrate_flow(params, st, -s_max, s_max, _acc_cfg(rel))
        return self.get(("grid", a, eps, branch, s_max, rel), build)

    def zero_a_run(self, eps: float, s_max: float = 48.0):
        def build():
            params = FlowParams(0.0, eps)
            st = make_initial_state(params, [1, 0, 0], [0, math.sqrt(eps), 0])
            return integrate_flow(params, st, -s_max, s_max, _acc_cfg())
        return self.get(("zero_a", eps, s_max), build)

    def asymmetric_run(self, cos_t: float, ang: float, s_max: float = 42.0):
        def build():
            params = FlowParams(1.0, 0.3)
            st = asymmetric_state(params, cos_t, ang)
            return integrate_flow(params, st, -s_max, s_max, _acc_cfg())
        return self.get(("asym", cos_t, ang, s_max), build)


def crit_conservation(cache: RunCache) -> CriterionResult:
    """Criterion: conservation suite over the (a, eps) grid at rel_tol 1e-12,
    |s| <= 40: unit-tangent drift <= 1e-10, eps drift <= 1e-9, scalar
    constraint drift <= 1e-9, sigma-PIV residual <= 1e-8 (1 + |s|^3)."""
    points = []
    for a in CONSERVATION_GRID_A:
        for eps in (-a / 2.0, 0.0, a / 2.0, 2.0 * a):
            branch = "odd" if abs(eps) <= a else "mixed_minus"
            points.append((a, eps, branch))

    ss = np.linspace(-39.9, 39.9, 267)
    bound = TOL_SP4_SCALE * (1.0 + np.abs(ss) ** 3)
    worst = {"unit": 0.0, "eps": 0.0, "constraint": 0.0, "sp4_ratio": 0.0}
    for a, eps, branch in points:
        run = cache.grid_run(a, eps, branch)
        d = run.drift_diagnostics()
        res = painleve.sp4_residual(run.sigma_jet(ss), run.params)
        worst["unit"] = max(worst["unit"], d["unit_drift_max"])
        worst["eps"] = max(worst["eps"], d["eps_drift_max"])
        worst["constraint"] = max(worst["constraint"], d["constraint_drift_max"])
        worst["sp4_ratio"] = max(worst["sp4_ratio"], float(np.max(np.abs(res) / bound)))
    ok = (
        worst["unit"] <= TOL_UNIT_DRIFT
        and worst["eps"] <= TOL_EPS_DRIFT
        and worst["constraint"] <= TOL_CONSTRAINT_DRIFT
        and worst["sp4_ratio"] <= 1.0
    )
    details = (
        f"worst drifts over {len(points)} runs: unit {worst['unit']:.2e} "
        f"(<= {TOL_UNIT_DRIFT}), eps {worst['eps']:.2e} (<= {TOL_EPS_DRIFT}), "
        f"constraint {worst['constraint']:.2e} (<= {TOL_CONSTRAINT_DRIFT}), "
        f"sigma-PIV residual/bound {worst['sp4_ratio']:.2e} (<= 1)"
    )
    return CriterionResult("conservation suite", ok, details, worst)


def crit_closed_form_equivalence(cache: RunCache) -> CriterionResult:
    """Criterion: closed-form tangent vs ODE tangent <= 1e-8 componentwise on
    a 400-point grid over [-20, 20]; the two closed-form representations
    agree to 1e-9."""
    worst_ode = 0.0
    worst_repr = 0.0
    grid = np.linspace(-20.0, 20.0, 400)
    for eps in (0.5, 1.0, 2.0):
        run = cache.zero_a_run(eps)
        zp = zero_a.ZeroAParams(eps)
        for s, gp in zip(grid, run.gp(grid)):
            hyp = zero_a.g_prime_hyp(float(s), zp, exact=True)
            worst_ode = max(worst_ode, float(np.max(np.abs(hyp - gp))))
            pcf = zero_a.g_prime_pcf(float(s), zp, exact=True)
            worst_repr = max(worst_repr, float(np.max(np.abs(hyp - pcf))))
    ok = worst_ode <= TOL_CLOSED_FORM and worst_repr <= TOL_REPR_AGREE
    details = (
        f"closed form vs ODE {worst_ode:.2e} (<= {TOL_CLOSED_FORM}), "
        f"representation agreement {worst_repr:.2e} (<= {TOL_REPR_AGREE})"
    )
    return CriterionResult("closed-form tangent equivalence", ok, details,
                           {"ode": worst_ode, "repr": worst_repr})


def fit_limit_tangent(run, side: int, eps: float) -> np.ndarray:
    """Limiting tangent estimate: per-component LSQ over 33 <= |s| <= 47 of
    c + [p cos(Omega) + q sin(Omega)]/s + d/s^2 with Omega = s^2/4 + eps ln(s/2)."""
    ss = side * np.linspace(33.0, 47.0, 500)
    vals = run.gp(ss)
    om = 0.25 * ss**2 + eps * np.log(np.abs(ss) / 2.0)
    m = np.stack([np.ones_like(ss), np.cos(om) / ss, np.sin(om) / ss, 1.0 / ss**2],
                 axis=1)
    c = np.linalg.lstsq(m, vals, rcond=None)[0][0]
    return c / np.linalg.norm(c)


def crit_zero_a_tangents(cache: RunCache) -> CriterionResult:
    """Criterion: fitted limiting tangents near |s| = 40 match the closed-form
    directions within 1e-3 rad; the closed-form pair satisfies
    T+ . T- = 2 e^{-pi eps} - 1 to 1e-6."""
    worst_angle = 0.0
    worst_dot = 0.0
    for eps in (0.5, 1.0, 2.0):
        run = cache.zero_a_run(eps)
        tangents = zero_a.asym_tangents(zero_a.ZeroAParams(eps))
        for side, t_ref in ((1, tangents.T_plus), (-1, tangents.T_minus)):
            t_hat = fit_limit_tangent(run, side, eps)
            ang = math.acos(min(1.0, max(-1.0, float(t_hat @ t_ref))))
            worst_angle = max(worst_angle, ang)
        dot_err = abs(float(tangents.T_plus @ tangents.T_minus)
                      - (2.0 * math.exp(-math.pi * eps) - 1.0))
        worst_dot = max(worst_dot, dot_err)
    ok = worst_angle <= TOL_TANGENT_ANGLE and worst_dot <= TOL_TANGENT_DOT
    details = (
        f"tangent angle error {worst_angle:.2e} rad (<= {TOL_TANGENT_ANGLE}), "
        f"dot identity error {worst_dot:.2e} (<= {TOL_TANGENT_DOT})"
    )
    return CriterionResult("zero-axis limiting tangents", ok, details,
                           {"angle": worst_angle, "dot": worst_dot})


def crit_planar_spiral(cache: RunCache) -> CriterionResult:
    """Criterion: a = 10 planar spiral: delta = 0.95587 +- 1e-4 and the fitted
    eps + 6 omega within 1e-2 of zero on both tails (fit window pushed to
    [40, 70] where the larger tail corrections have decayed)."""
    a = 10.0
    eps, delta = symmetric.planar_spiral(a)
    delta_err = abs(delta - 0.95587)

    def build():
        params, st = symmetric_run_state(a, eps, "odd")
        return integrate_flow(params, st, -70.0, 70.0, _acc_cfg())

    run = cache.get(("planar", a), build)
    worst = 0.0
    for side in (1, -1):
        fr = asympt.fit_tail(run, side, (40.0, 70.0))
        worst = max(worst, abs(eps + 6.0 * fr.tail.omega))
    ok = delta_err <= TOL_PLANAR_DELTA and worst <= TOL_PLANAR_OMEGA
    details = (
        f"delta = {delta:.6f} (err {delta_err:.1e} <= {TOL_PLANAR_DELTA}), "
        f"|eps + 6 omega| {worst:.2e} (<= {TOL_PLANAR_OMEGA})"
    )
    return CriterionResult("planar spiral", ok, details,
                           {"delta_err": delta_err, "eps6om": worst})


def crit_symmetric_tails(cache: RunCache) -> CriterionResult:
    """Criterion: independently fitted tail parameters of symmetric runs match
    the closed-form predictions: omega within 1e-3, Re rho within 3e-2 rad,
    and the two sides agree within 2e-3."""
    worst = {"omega": 0.0, "re_rho": 0.0, "sides": 0.0}
    for a, eps, branch in SYMMETRIC_CASES:
        run = cache.grid_run(a, eps, branch)
        params = run.params
        om_c, rr_c = symmetric.conjecture_omega(params, branch)
        fits = {s: asympt.fit_tail(run, s, (24.0, 40.0)) for s in (1, -1)}
        for s, fr in fits.items():
            worst["omega"] = max(worst["omega"], abs(fr.tail.omega - om_c))
            worst["re_rho"] = max(
                worst["re_rho"],
                abs(math.remainder(fr.tail.rho.real - rr_c, 2.0 * math.pi)),
            )
        worst["sides"] = max(
            worst["sides"], abs(fits[1].tail.omega - fits[-1].tail.omega)
        )
    ok = (
        worst["omega"] <= TOL_SYM_OMEGA
        and worst["re_rho"] <= TOL_SYM_RERHO
        and worst["sides"] <= TOL_SYM_SIDES
    )
    details = (
        f"|omega - predicted| {worst['omega']:.2e} (<= {TOL_SYM_OMEGA}), "
        f"|Re rho - predicted| {worst['re_rho']:.2e} (<= {TOL_SYM_RERHO}), "
        f"side asymmetry {worst['sides']:.2e} (<= {TOL_SYM_SIDES})"
    )
    return CriterionResult("symmetric tail predictions", ok, details, worst)


def crit_connection_formulas(cache: RunCache) -> CriterionResult:
    """Criterion: for two non-symmetric runs, the connection map applied to the
    fitted plus tail reproduces the independently fitted minus tail within
    |d omega| <= 1e-2 and |d delta| <= 5e-2 rad, and the connection relations
    evaluate to relative residuals <= 1e-3 on the fitted pair (with Im rho
    from the reality constraint)."""
    worst = {"domega": 0.0, "ddelta": 0.0, "resid": 0.0}
    for cos_t, ang in ASYMMETRIC_CASES:
        run = cache.asymmetric_run(cos_t, ang)
        params = run.params
        fp = asympt.fit_tail(run, 1, (25.0, 42.0))
        fm = asympt.fit_tail(run, -1, (25.0, 42.0))
        predicted = asympt.connect(fp.tail, params)
        worst["domega"] = max(worst["domega"], abs(predicted.omega - fm.tail.omega))
        worst["ddelta"] = max(
            worst["ddelta"],
            abs(math.remainder(predicted.delta - fm.tail.delta, 2.0 * math.pi)),
        )
        res = asympt.connfI_residuals(fp.tail, fm.tail, params)
        worst["resid"] = max(worst["resid"], max(res.values()))
    ok = (
        worst["domega"] <= TOL_CONN_OMEGA
        and worst["ddelta"] <= TOL_CONN_DELTA
        and worst["resid"] <= TOL_CONN_RESID
    )
    details = (
        f"|d omega| {worst['domega']:.2e} (<= {TOL_CONN_OMEGA}), "
        f"|d delta| {worst['ddelta']:.2e} rad (<= {TOL_CONN_DELTA}), "
        f"connection residuals {worst['resid']:.2e} (<= {TOL_CONN_RESID})"
    )
    return CriterionResult("connection formulas", ok, details, worst)


def cubic_coefficient_fit(run, branch: str, ms: np.ndarray) -> tuple[float, float]:
    """(fitted, predicted) cubic tail coefficient of a symmetric run's plus
    side: the phase-averaged s^3-scaled residual of sigma at s = ms against
    the truncated tail model with the conjectured exact omega and delta,
    and the model's 8 D1."""
    params = run.params
    om, rr = symmetric.conjecture_omega(params, branch)
    delta = asympt.delta_from_re_rho(rr, om, params)
    tail = asympt.make_tail(1, om, delta, params)
    coeffs = asympt.expansion_coeffs(tail, params)
    amp = abs(coeffs.A)
    c2 = asympt.c2_coefficient(om, params)
    u = (params.eps + 6.0 * om) / 3.0
    sig = run.g(ms) @ params.a_vec
    phis = 0.25 * ms * ms - 6.0 * om * np.log(ms / math.sqrt(2.0)) + delta
    lead = u * ms + c2 / ms + 4.0 * amp * np.sin(phis) / (ms * ms)
    resid = (sig - lead) * ms**3
    cols = np.stack([np.ones_like(ms), np.cos(phis), np.sin(phis)], axis=1)
    return float(np.linalg.lstsq(cols, resid, rcond=None)[0][0]), 8.0 * coeffs.D1


def crit_cubic_truncation(cache: RunCache) -> CriterionResult:
    """Criterion: for the (a, eps) = (1, 0) odd solution, the phase-averaged
    s^3-scaled residual of sigma against the truncated tail model equals the
    cubic coefficient 8 D1 within 5% on s in [30, 45].

    The sign of the cubic term is +8 D1, opposite to the printed closed form;
    README's numerical notes give the evidence (an erratum), and
    tests/test_asympt.py::TestCubicSign checks it at four parameter points.
    """
    run = cache.grid_run(1.0, 0.0, "odd", s_max=46.0, rel=2e-13)
    fitted, predicted = cubic_coefficient_fit(run, "odd", np.linspace(30.0, 45.0, 900))
    rel_err = abs(fitted - predicted) / abs(predicted)
    ok = rel_err <= TOL_CUBIC_REL
    details = (
        f"phase-averaged cubic coefficient {fitted:+.5f} vs predicted "
        f"{predicted:+.5f} (rel err {rel_err:.2%} <= {TOL_CUBIC_REL:.0%})"
    )
    return CriterionResult("cubic tail truncation", ok, details,
                           {"fitted": fitted, "predicted": predicted,
                            "rel_err": rel_err})


SELFCHECK_CRITERIA = (
    crit_conservation,
    crit_closed_form_equivalence,
    crit_zero_a_tangents,
    crit_symmetric_tails,
    crit_cubic_truncation,
    crit_connection_formulas,
)


def run_selfcheck(include_planar: bool = False) -> list[CriterionResult]:
    """Run the selfcheck criteria (conservation, closed form, tangents,
    symmetric tails, cubic truncation, connection formulas; optionally the
    slower planar spiral) on one fresh run cache."""
    cache = RunCache()
    crits = SELFCHECK_CRITERIA + ((crit_planar_spiral,) if include_planar else ())
    return [fn(cache) for fn in crits]
