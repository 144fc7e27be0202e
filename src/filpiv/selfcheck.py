"""Acceptance-grade verification suite, shared by the test suite and the CLI
selfcheck subcommand.  Every criterion pins its tolerances here and reports
rows (label, worst measured value, tolerance); its verdict, its printed
line and its JSON record all derive from those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asympt, painleve, symmetric, zero_a
from .flow import FlowParams, FlowRun, integrate_flow, make_initial_state, make_taylor
from .odeint import IntegratorConfig, integrate

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
    """One criterion's rows (label, measured, tolerance or None).  A row with
    a tolerance holds when measured <= tolerance; a row without one only
    reports its value."""

    name: str
    rows: list

    def __post_init__(self):
        # plain Python types, so the result serializes to JSON
        self.rows = [(label, float(value), None if tol is None else float(tol))
                     for label, value, tol in self.rows]

    @property
    def passed(self) -> bool:
        return all(tol is None or value <= tol for _, value, tol in self.rows)

    def line(self) -> str:
        cells = (f"{label} {value:.6g}" + ("" if tol is None else f" (<= {tol:.6g})")
                 for label, value, tol in self.rows)
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {', '.join(cells)}"

    def record(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "rows": [{"label": label, "measured": value, "tolerance": tol}
                         for label, value, tol in self.rows]}


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
                 rel: float = IntegratorConfig.rel_tol):
        def build():
            params, st = symmetric_run_state(a, eps, branch)
            return integrate_flow(params, st, -s_max, s_max, IntegratorConfig(rel_tol=rel))
        return self.get(("grid", a, eps, branch, s_max, rel), build)

    def zero_a_run(self, eps: float, s_max: float = 48.0):
        def build():
            params = FlowParams(0.0, eps)
            return integrate_flow(params, zero_a.normalized_state(params), -s_max, s_max)
        return self.get(("zero_a", eps, s_max), build)

    def asymmetric_run(self, cos_t: float, ang: float):
        def build():
            params = FlowParams(1.0, 0.3)
            st = asymmetric_state(params, cos_t, ang)
            return integrate_flow(params, st, -42.0, 42.0)
        return self.get(("asym", cos_t, ang), build)


def _worst(name: str, checks, cases) -> CriterionResult:
    """The criterion whose k-th row is (label_k, the maximum of value k over
    cases, tolerance_k), for checks [(label, tolerance)] and cases [values]."""
    worst = np.max(np.array(cases, dtype=float), axis=0)
    return CriterionResult(name, [(label, value, tol)
                                  for (label, tol), value in zip(checks, worst)])


def crit_conservation(cache: RunCache) -> CriterionResult:
    """Criterion: conservation suite over the (a, eps) grid at rel_tol 1e-12,
    |s| <= 40: unit-tangent drift <= 1e-10, eps drift <= 1e-9, scalar
    constraint drift <= 1e-9, sigma-PIV residual <= 1e-8 (1 + |s|^3)."""
    ss = np.linspace(-39.9, 39.9, 267)
    bound = TOL_SP4_SCALE * (1.0 + np.abs(ss) ** 3)

    def case(a, eps):
        run = cache.grid_run(a, eps, "odd" if abs(eps) <= a else "mixed_minus")
        d = run.drift_diagnostics()
        res = painleve.sp4_residual(run.sigma_jet(ss), run.params)
        return (d["unit_drift_max"], d["eps_drift_max"], d["constraint_drift_max"],
                np.max(np.abs(res) / bound))

    return _worst("conservation suite", [
        ("unit drift", TOL_UNIT_DRIFT), ("eps drift", TOL_EPS_DRIFT),
        ("constraint drift", TOL_CONSTRAINT_DRIFT),
        ("sigma-PIV residual/bound", 1.0),
    ], [case(a, eps) for a in CONSERVATION_GRID_A
        for eps in (-a / 2.0, 0.0, a / 2.0, 2.0 * a)])


def crit_closed_form_equivalence(cache: RunCache) -> CriterionResult:
    """Criterion: closed-form tangent vs ODE tangent <= 1e-8 componentwise on
    a 400-point grid over [-20, 20]; the two closed-form representations
    agree to 1e-9."""
    grid = np.linspace(-20.0, 20.0, 400)
    cases = [zero_a.closed_form_gaps(grid, cache.zero_a_run(eps).gp(grid),
                                     zero_a.ZeroAParams(eps))
             for eps in (0.5, 1.0, 2.0)]
    return _worst("closed-form tangent equivalence", [
        ("closed form vs ODE", TOL_CLOSED_FORM),
        ("representation agreement", TOL_REPR_AGREE),
    ], [(np.max(ode), np.max(rep)) for ode, rep in cases])


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
    def case(eps):
        run = cache.zero_a_run(eps)
        tangents = zero_a.asym_tangents(zero_a.ZeroAParams(eps))
        cosines = [float(fit_limit_tangent(run, side, eps) @ t_ref)
                   for side, t_ref in ((1, tangents.T_plus), (-1, tangents.T_minus))]
        return (max(math.acos(min(1.0, max(-1.0, c))) for c in cosines),
                abs(float(tangents.T_plus @ tangents.T_minus)
                    - (2.0 * math.exp(-math.pi * eps) - 1.0)))

    return _worst("zero-axis limiting tangents", [
        ("tangent angle error (rad)", TOL_TANGENT_ANGLE),
        ("dot identity error", TOL_TANGENT_DOT),
    ], [case(eps) for eps in (0.5, 1.0, 2.0)])


def crit_planar_spiral(cache: RunCache) -> CriterionResult:
    """Criterion: a = 10 planar spiral: delta = 0.95587 +- 1e-4 and the fitted
    eps + 6 omega within 1e-2 of zero on both tails (fit window pushed to
    [40, 70] where the larger tail corrections have decayed)."""
    a = 10.0
    eps, delta = symmetric.planar_spiral(a)

    def build():
        params, st = symmetric_run_state(a, eps, "odd")
        return integrate_flow(params, st, -70.0, 70.0)

    run = cache.get(("planar", a), build)
    eps6om = [abs(eps + 6.0 * asympt.fit_tail(run, side, (40.0, 70.0)).tail.omega)
              for side in (1, -1)]
    return CriterionResult("planar spiral", [
        ("delta", delta, None),
        ("|delta - 0.95587|", abs(delta - 0.95587), TOL_PLANAR_DELTA),
        ("|eps + 6 omega|", max(eps6om), TOL_PLANAR_OMEGA),
    ])


def crit_symmetric_tails(cache: RunCache) -> CriterionResult:
    """Criterion: independently fitted tail parameters of symmetric runs match
    the closed-form predictions: omega within 1e-3, Re rho within 3e-2 rad,
    and the two sides agree within 2e-3.

    The plus tail is fitted on the cached run, whose minus leg
    integrate_flow builds as the mirror image of its plus leg.  The minus
    tail is fitted on a two-leg run of the same data, whose minus leg is
    integrated in its own right (as the second lane of each expansion), so
    the side-asymmetry row measures how far the integrated minus tail is
    from the mirror image of the plus tail."""
    def case(a, eps, branch):
        params, st = symmetric_run_state(a, eps, branch)
        both = FlowRun(params, integrate(make_taylor(params), st.y, 0.0, -40.0, 40.0))
        om_c, rr_c = symmetric.conjecture_omega(params, branch)
        plus = asympt.fit_tail(cache.grid_run(a, eps, branch), 1, (24.0, 40.0)).tail
        minus = asympt.fit_tail(both, -1, (24.0, 40.0)).tail
        return (max(abs(t.omega - om_c) for t in (plus, minus)),
                max(abs(math.remainder(t.rho.real - rr_c, 2.0 * math.pi))
                    for t in (plus, minus)),
                abs(plus.omega - minus.omega))

    return _worst("symmetric tail predictions", [
        ("|omega - predicted|", TOL_SYM_OMEGA),
        ("|Re rho - predicted| (rad)", TOL_SYM_RERHO),
        ("side asymmetry", TOL_SYM_SIDES),
    ], [case(*c) for c in SYMMETRIC_CASES])


def crit_connection_formulas(cache: RunCache) -> CriterionResult:
    """Criterion: for two non-symmetric runs, the connection map applied to the
    fitted plus tail reproduces the independently fitted minus tail within
    |d omega| <= 1e-2 and |d delta| <= 5e-2 rad, and the connection relations
    evaluate to relative residuals <= 1e-3 on the fitted pair (with Im rho
    from the reality constraint)."""
    def case(cos_t, ang):
        run = cache.asymmetric_run(cos_t, ang)
        plus, minus = (asympt.fit_tail(run, side, (25.0, 42.0)).tail for side in (1, -1))
        predicted = asympt.connect(plus, run.params)
        return (abs(predicted.omega - minus.omega),
                abs(math.remainder(predicted.delta - minus.delta, 2.0 * math.pi)),
                max(asympt.connfI_residuals(plus, minus, run.params).values()))

    return _worst("connection formulas", [
        ("|d omega|", TOL_CONN_OMEGA), ("|d delta| (rad)", TOL_CONN_DELTA),
        ("connection residuals", TOL_CONN_RESID),
    ], [case(*c) for c in ASYMMETRIC_CASES])


def cubic_coefficient_fit(run, branch: str, ms: np.ndarray) -> tuple[float, float]:
    """(fitted, predicted) cubic tail coefficient of a symmetric run's plus
    side.  With the conjectured exact omega and delta, the m^3-scaled
    residual of sigma at s = ms against asympt.sigma_model is averaged over
    the phase, and the model's own cubic term 8 D1 (predicted) is added
    back."""
    params = run.params
    om, rr = symmetric.conjecture_omega(params, branch)
    tail = asympt.make_tail(1, om, asympt.delta_from_re_rho(rr, om, params), params)
    predicted = 8.0 * asympt.d1_coefficient(om, params)
    resid = (run.g(ms) @ params.a_vec - asympt.sigma_model(ms, tail, params)[0]) * ms**3
    phis = asympt.tail_phase(ms, tail.omega, tail.delta)
    cols = np.stack([np.ones_like(ms), np.cos(phis), np.sin(phis)], axis=1)
    return float(np.linalg.lstsq(cols, resid, rcond=None)[0][0]) + predicted, predicted


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
    return CriterionResult("cubic tail truncation", [
        ("fitted cubic coefficient", fitted, None),
        ("predicted 8 D1", predicted, None),
        ("relative error", abs(fitted - predicted) / abs(predicted), TOL_CUBIC_REL),
    ])


SELFCHECK_CRITERIA = (
    crit_conservation,
    crit_closed_form_equivalence,
    crit_zero_a_tangents,
    crit_symmetric_tails,
    crit_cubic_truncation,
    crit_connection_formulas,
    crit_planar_spiral,
)


def run_selfcheck() -> list[CriterionResult]:
    """Run the seven selfcheck criteria (conservation, closed form, tangents,
    symmetric tails, cubic truncation, connection formulas, planar spiral)
    on one fresh run cache."""
    cache = RunCache()
    return [fn(cache) for fn in SELFCHECK_CRITERIA]
