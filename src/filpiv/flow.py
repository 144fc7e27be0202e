"""Self-similar filament flow: the 6-dim system for (G, G'), its conserved
quantities, sigma jets, curvature/torsion extraction, the spherical-angle
cross-check form, filament reconstruction and the curvature-torsion complex
envelope.

The state convention is y = (G1, G2, G3, G1', G2', G3') with arc-like
parameter s, evolving by G'' = (axis_vec x G + G) x G' / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartSingularityError,
    ConfigError,
    InconsistentCauchyDataError,
    InconsistentJetError,
    IntegrandPoleError,
    VanishingCurvatureError,
    ZeroAxisError,
)
from .odeint import ORDER, IntegratorConfig, Trajectory, integrate_span

__all__ = [
    "FlowParams",
    "FlowState",
    "SigmaJet",
    "CurvTorsSample",
    "FlowRun",
    "make_initial_state",
    "make_rhs",
    "make_taylor",
    "axis_frame",
    "conserved_epsilon",
    "sigma_jet",
    "state_from_sigma_jet",
    "integrate_flow",
    "curvature_torsion",
    "spherical_rhs",
    "spherical_epsilon",
    "phi_accumulate",
    "reconstruct_filament",
    "hasimoto_psi",
]

DEFAULT_FLOW_CFG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

# curvature floor below which the torsion is reported absent (the torsion
# formula divides by C^2)
C2_FLOOR = 1e-10

# Gauss-Legendre nodes per trajectory segment for the azimuth quadrature:
# exact for the degree-(ORDER + 1) numerator s sigma' - sigma of a segment
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(ORDER // 2 + 1)


@dataclass(frozen=True)
class FlowParams:
    """Axis strength a >= 0, conserved eps and the (unit) axis direction."""

    a: float
    eps: float
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not (self.a >= 0.0):
            raise ConfigError("a must be >= 0")
        ax = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(ax)
        if abs(n - 1.0) > 1e-10:
            raise ConfigError("axis must be a unit vector")
        object.__setattr__(self, "axis", tuple(ax / n))
        if self.eps < -self.a - 1e-12:
            raise ConfigError("eps >= -a is required (|sigma'| <= a)")

    @property
    def a_vec(self) -> np.ndarray:
        return self.a * np.asarray(self.axis)


@dataclass(frozen=True)
class FlowState:
    g: np.ndarray
    gp: np.ndarray
    s: float

    @property
    def y(self) -> np.ndarray:
        return np.concatenate([self.g, self.gp])


@dataclass(frozen=True)
class SigmaJet:
    s: float
    sigma: float
    sigma_p: float
    sigma_pp: float


@dataclass(frozen=True)
class CurvTorsSample:
    s: float
    C: float
    T: float | None  # None where C^2 is below the floor


def make_rhs(params: FlowParams):
    """Scalarized right-hand side closure for the 6-dim system; y may also
    hold one state per column, (6, n)."""
    a1, a2, a3 = params.a_vec

    def rhs(s, y):
        g1, g2, g3, t1, t2, t3 = y
        w1 = a2 * g3 - a3 * g2 + g1
        w2 = a3 * g1 - a1 * g3 + g2
        w3 = a1 * g2 - a2 * g1 + g3
        return np.array([
            t1, t2, t3,
            0.5 * (w2 * t3 - w3 * t2),
            0.5 * (w3 * t1 - w1 * t3),
            0.5 * (w1 * t2 - w2 * t1),
        ])

    return rhs


def make_taylor(params: FlowParams):
    """Taylor coefficients (ORDER + 1, 6) of the flow about (s, y), from
    W_k = a x G_k + G_k, T_{k+1} = sum_{j<=k} W_j x T_{k-j} / (2(k+1)) and
    G_{k+1} = T_k / (k+1), with T = G'."""
    a1, a2, a3 = params.a_vec
    w_of_g = np.array([[1.0, -a3, a2], [a3, 1.0, -a1], [-a2, a1, 1.0]])

    def taylor(s, y):
        c = np.empty((ORDER + 1, 6))
        c[0] = y
        g, t = c[:, :3], c[:, 3:]
        w = np.empty((ORDER + 1, 3))
        for k in range(ORDER):
            w[k] = w_of_g @ g[k]
            # p[i, l] = sum_j W_j[i] T_{k-j}[l]; the cross sum is its
            # antisymmetric part
            p = w[:k + 1].T @ t[k::-1]
            t[k + 1] = (p[1, 2] - p[2, 1], p[2, 0] - p[0, 2], p[0, 1] - p[1, 0])
            t[k + 1] /= 2.0 * (k + 1)
            g[k + 1] = t[k] / (k + 1)
        return c

    return taylor


def make_initial_state(params: FlowParams, gp0, gpp0, s0: float = 0.0) -> FlowState:
    """Build the full state from Cauchy data (G', G'') at s0.

    G is recovered from W = s0 G' + 2 G' x G'' through the closed inverse
    (I + ad_a)^{-1} W = (W - a x W + a (a.W)) / (1 + a^2).
    """
    gp0 = np.asarray(gp0, dtype=float)
    gpp0 = np.asarray(gpp0, dtype=float)
    if abs(np.linalg.norm(gp0) - 1.0) > 1e-12:
        raise InconsistentCauchyDataError("G'(s0) must be a unit vector")
    if abs(float(gp0 @ gpp0)) > 1e-12 * max(1.0, np.linalg.norm(gpp0)):
        raise InconsistentCauchyDataError("G''(s0) must be orthogonal to G'(s0)")
    sigma_p0 = float(params.a_vec @ gp0)
    eps_implied = float(gpp0 @ gpp0) + sigma_p0
    if abs(eps_implied - params.eps) > 1e-12 * max(1.0, abs(params.eps)):
        raise InconsistentCauchyDataError(
            f"|G''|^2 + a.G' = {eps_implied} does not match eps = {params.eps}"
        )
    w = s0 * gp0 + 2.0 * np.cross(gp0, gpp0)
    a_vec = params.a_vec
    g = (w - np.cross(a_vec, w) + a_vec * float(a_vec @ w)) / (1.0 + params.a**2)
    return FlowState(g, gp0.copy(), float(s0))


def _invariants(params: FlowParams, s, y):
    """(eps, |G'|, W.G' - s) with W = a x G + G, for states y (..., 6) at s.

    eps = [ (a^2+1) |G|^2 - (a.G)^2 + 4 a.G' - s^2 ] / 4 is conserved; |G'| = 1
    and the scalar constraint W.G' = s are propagated.
    """
    a_vec = params.a_vec
    g, gp = y[..., :3], y[..., 3:]
    eps = 0.25 * (
        (params.a**2 + 1.0) * np.sum(g * g, axis=-1)
        - (g @ a_vec) ** 2
        + 4.0 * (gp @ a_vec)
        - s**2
    )
    unit = np.sqrt(np.sum(gp * gp, axis=-1))
    w = np.cross(a_vec, g) + g
    return eps, unit, np.sum(w * gp, axis=-1) - s


def conserved_epsilon(state: FlowState, params: FlowParams) -> float:
    """The conserved quantity
    eps = [ (a^2+1) |G|^2 - (a.G)^2 + 4 a.G' - s^2 ] / 4."""
    return float(_invariants(params, state.s, state.y)[0])


def sigma_jet(state: FlowState, params: FlowParams) -> SigmaJet:
    """(s, sigma, sigma', sigma'') with sigma = a.G; requires a > 0."""
    if params.a <= 0.0:
        raise ZeroAxisError("sigma jet undefined for a = 0")
    a_vec = params.a_vec
    gpp = make_rhs(params)(state.s, state.y)[3:]
    return SigmaJet(
        state.s,
        float(a_vec @ state.g),
        float(a_vec @ state.gp),
        float(a_vec @ gpp),
    )


def axis_frame(params: FlowParams):
    """Deterministic right-handed orthonormal frame (e1, e2, e3 = axis)."""
    e3 = np.asarray(params.axis)
    trial = np.array([1.0, 0.0, 0.0])
    if abs(float(trial @ e3)) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    e1 = trial - float(trial @ e3) * e3
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(e3, e1), e3


def state_from_sigma_jet(jet: SigmaJet, params: FlowParams) -> FlowState:
    """Flow state reproducing a given sigma jet (up to rotation about the axis).

    Solves the linear system fixed by the scalar constraint and sigma''; the
    tangent-aligned case |sigma'| = a falls back to the mixed-type
    construction.  Raises InconsistentJetError when no state matches.
    """
    if params.a <= 0.0:
        raise ZeroAxisError("sigma jet undefined for a = 0")
    a = params.a
    e1, e2, e3 = axis_frame(params)

    s0 = jet.s
    cos_t = jet.sigma_p / a
    if abs(cos_t) > 1.0 + 1e-12:
        raise InconsistentJetError(f"|sigma'| = {abs(jet.sigma_p)} exceeds a = {a}")
    if abs(abs(cos_t) - 1.0) <= 1e-12:
        sign = 1.0 if cos_t > 0 else -1.0
        if abs(jet.sigma - s0 * jet.sigma_p) > 1e-10 * max(1.0, abs(s0) * a):
            raise InconsistentJetError("tangent-aligned jet requires sigma = s sigma'")
        if abs(jet.sigma_pp) > 1e-10:
            raise InconsistentJetError("tangent-aligned jet requires sigma'' = 0")
        c2 = params.eps - jet.sigma_p
        if c2 < -1e-12:
            raise InconsistentJetError("eps - sigma' < 0")
        gp = sign * e3
        gpp = math.sqrt(max(c2, 0.0)) * e1
        return make_initial_state(params, gp, gpp, s0)
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    gp = sin_t * e1 + cos_t * e3
    u = (s0 - jet.sigma * jet.sigma_p / a**2) / sin_t
    v = -2.0 * jet.sigma_pp / (a * sin_t)
    g1 = (u + a * v) / (1.0 + a**2)
    g2 = v - a * g1
    g3 = jet.sigma / a
    g = g1 * e1 + g2 * e2 + g3 * e3
    state = FlowState(g, gp, s0)
    eps_state = conserved_epsilon(state, params)
    if abs(eps_state - params.eps) > 1e-8 * max(1.0, abs(params.eps)):
        raise InconsistentJetError(
            f"jet implies eps = {eps_state}, params say {params.eps}"
        )
    return state


class FlowRun:
    """One flow solution: its two-sided dense trajectory with diagnostics.

    The readers take a scalar s or an array of s values.
    """

    def __init__(self, params: FlowParams, traj: Trajectory):
        self.params = params
        self.traj = traj
        self._rhs = make_rhs(params)
        self._drifts = None

    @property
    def s_min(self) -> float:
        return float(self.traj.s_nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.traj.s_nodes[-1])

    def state_y(self, s) -> np.ndarray:
        return self.traj.states_at(s)

    def g(self, s) -> np.ndarray:
        return self.state_y(s)[..., :3]

    def gp(self, s) -> np.ndarray:
        return self.state_y(s)[..., 3:]

    def gpp(self, s) -> np.ndarray:
        return self.sample(s)["Gpp"]

    def sigma_jet(self, s) -> SigmaJet:
        if self.params.a <= 0.0:
            raise ZeroAxisError("sigma jet undefined for a = 0")
        smp = self.sample(s)
        return SigmaJet(smp["s"], smp["sigma"], smp["sigma_p"], smp["sigma_pp"])

    def zeta_jet(self, s: float, e_vec) -> tuple[float, complex, complex, complex]:
        """(s, e.G, e.G', e.G'') for a fixed (possibly complex) vector e."""
        e_vec = np.asarray(e_vec)
        smp = self.sample(s)
        return (s, complex(e_vec @ smp["G"]), complex(e_vec @ smp["Gp"]),
                complex(e_vec @ smp["Gpp"]))

    def drift_diagnostics(self) -> dict:
        """Max deviations of the propagated invariants over integrator nodes."""
        if self._drifts is not None:
            return self._drifts
        s_all, y_all = self.traj.s_nodes, self.traj.states
        eps_vals, unit, constraint = _invariants(self.params, s_all, y_all)
        out = {
            "unit_drift_max": float(np.max(np.abs(unit - 1.0))),
            "constraint_drift_max": float(np.max(np.abs(constraint))),
            "eps_drift_max": float(np.max(np.abs(eps_vals - self.params.eps))),
        }
        if self.params.a > 0.0:
            # monitored inequality (not enforced): sigma^2/a^2 - s^2
            #   + 4 sigma' - 4 eps stays <= 0 by Cauchy-Schwarz on a.G
            a_vec = self.params.a_vec
            q = (y_all[:, :3] @ a_vec) ** 2 / self.params.a**2 - s_all**2 \
                + 4.0 * (y_all[:, 3:] @ a_vec) - 4.0 * self.params.eps
            out["monitored_inequality_max"] = float(np.max(q))
        self._drifts = out
        return out

    def sample(self, s) -> dict:
        """G, G', G'', the sigma jet, C, T and the three invariant drifts at s.

        For an array s every value is a column (G, G', G'' of shape (n, 3))
        and T is NaN where C^2 <= C2_FLOOR; for a scalar s the values are
        floats (G, G', G'' arrays of 3) and T is None there.
        """
        y = self.state_y(s)
        s_arr = np.asarray(s, dtype=float)
        gpp = self._rhs(s_arr, y.T)[3:].T
        a_vec = self.params.a_vec
        sig = y[..., :3] @ a_vec
        sig_p = y[..., 3:] @ a_vec
        c2 = self.params.eps - sig_p
        has_t = c2 > C2_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            T = np.where(has_t, s_arr / 2.0 + (s_arr * sig_p - sig) / (4.0 * c2), np.nan)
        eps, unit, constraint = _invariants(self.params, s_arr, y)
        out = {
            "s": s_arr,
            "G": y[..., :3],
            "Gp": y[..., 3:],
            "Gpp": gpp,
            "sigma": sig,
            "sigma_p": sig_p,
            "sigma_pp": gpp @ a_vec,
            "C": np.sqrt(np.maximum(c2, 0.0)),
            "T": T,
            "unit_drift": np.abs(unit - 1.0),
            "eps_drift": eps - self.params.eps,
            "constraint_drift": constraint,
        }
        if s_arr.ndim == 0:
            out = {k: v if np.ndim(v) else float(v) for k, v in out.items()}
            if not has_t:
                out["T"] = None
        return out


def integrate_flow(params: FlowParams, state0: FlowState, s_min: float,
                   s_max: float, cfg: IntegratorConfig | None = None) -> FlowRun:
    """Integrate the flow from state0 over [s_min, s_max] (both directions)."""
    if cfg is None:
        cfg = DEFAULT_FLOW_CFG
    if not (s_min <= state0.s <= s_max and s_min < s_max):
        raise ConfigError("need s_min <= state0.s <= s_max and s_min < s_max")
    traj = integrate_span(make_taylor(params), state0.y, state0.s, s_min, s_max, cfg)
    return FlowRun(params, traj)


def curvature_torsion(run: FlowRun, s_values) -> list[CurvTorsSample]:
    """Curvature/torsion scaling samples C = sqrt(eps - sigma'),
    T = s/2 + (s sigma' - sigma) / (4 C^2), with T absent where C^2 is tiny."""
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    smp = run.sample(s)
    return [CurvTorsSample(float(si), float(c), None if math.isnan(t) else float(t))
            for si, c, t in zip(s, smp["C"], smp["T"])]


def spherical_rhs(theta: float, theta_p: float, phi_p: float, s: float,
                  params: FlowParams) -> tuple[float, float]:
    """(theta'', phi'') of the spherical-angle form of the tangent dynamics."""
    sin_t = math.sin(theta)
    if abs(sin_t) < 1e-10:
        raise ChartSingularityError(f"spherical chart degenerate at theta={theta}")
    cos_t = math.cos(theta)
    theta_pp = 0.5 * sin_t * (2.0 * cos_t * phi_p**2 - s * phi_p + params.a)
    phi_pp = (s - 4.0 * cos_t * phi_p) * theta_p / (2.0 * sin_t)
    return theta_pp, phi_pp


def spherical_epsilon(theta: float, theta_p: float, phi_p: float,
                      params: FlowParams) -> float:
    """eps expressed in the spherical chart."""
    return theta_p**2 + math.sin(theta) ** 2 * phi_p**2 + params.a * math.cos(theta)


def _scan_for_integrand_pole(run: FlowRun, lo: float, hi: float) -> None:
    n = max(3, int(math.ceil((hi - lo) / 0.02)) + 1)
    ss = np.linspace(lo, hi, n)
    sig_p = run.gp(ss) @ run.params.a_vec
    hit = np.flatnonzero(sig_p**2 >= run.params.a**2 * (1.0 - 1e-8))
    if hit.size:
        raise IntegrandPoleError(
            f"phi integrand pole: |sigma'| -> a near s={ss[hit[0]]}"
        )


def phi_accumulate(run: FlowRun, s0: float, s1: float) -> float:
    """Azimuth increment phi(s1) - phi(s0) by Gauss-Legendre quadrature of
    (a/2) (s sigma' - sigma) / (sigma'^2 - a^2) against dense output, on
    each trajectory segment that overlaps the interval."""
    if run.params.a <= 0.0:
        raise ZeroAxisError("phi integral undefined for a = 0")
    if s0 == s1:
        return 0.0
    sign = 1.0
    lo, hi = s0, s1
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0
    _scan_for_integrand_pole(run, lo, hi)
    nodes = run.traj.s_nodes
    k0 = max(int(np.searchsorted(nodes, lo, side="right")) - 1, 0)
    k1 = min(int(np.searchsorted(nodes, hi, side="left")), len(nodes) - 1)
    a_ = np.maximum(nodes[k0:k1], lo)
    b_ = np.minimum(nodes[k0 + 1:k1 + 1], hi)
    keep = b_ > a_
    mid = 0.5 * (a_ + b_)[keep]
    half = 0.5 * (b_ - a_)[keep]
    ss = mid[:, None] + half[:, None] * _GL_NODES
    y = run.state_y(ss)
    a = run.params.a
    sig = y[..., :3] @ run.params.a_vec
    sig_p = y[..., 3:] @ run.params.a_vec
    den = sig_p**2 - a**2
    bad = np.flatnonzero(den >= -1e-8 * a**2)
    if bad.size:
        raise IntegrandPoleError(
            f"phi integrand pole: |sigma'| -> a at s={ss.flat[bad[0]]}"
        )
    f = 0.5 * a * (ss * sig_p - sig) / den
    return sign * float(np.sum(half * (f @ _GL_WEIGHTS)))


def _rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    k = np.asarray(axis, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


def reconstruct_filament(run: FlowRun, t_values, x_grid) -> list[tuple[float, np.ndarray]]:
    """Curves gamma(x, t) = sqrt(t) R((a/2) ln t) G(x / sqrt(t)) per t > 0."""
    x_grid = np.asarray(x_grid, dtype=float)
    out = []
    for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
        if not t > 0.0:
            raise ConfigError("t values must be positive")
        rt = math.sqrt(t)
        rot = _rotation_about(np.asarray(run.params.axis),
                              0.5 * run.params.a * math.log(t))
        out.append((float(t), rt * (run.g(x_grid / rt) @ rot.T)))
    return out


def hasimoto_psi(samples: list[CurvTorsSample]) -> np.ndarray:
    """Complex envelope psi = C exp(i integral_0^s T ds') on the sample grid.

    The phase is accumulated by the trapezoid rule and anchored to zero at
    s = 0 when the grid brackets it (otherwise at the first sample).
    """
    if not samples:
        return np.array([], dtype=complex)
    s = np.array([smp.s for smp in samples])
    C = np.array([smp.C for smp in samples])
    if np.all(C * C <= C2_FLOOR):
        return np.zeros(len(samples), dtype=complex)
    if any(smp.T is None for smp in samples):
        raise VanishingCurvatureError(
            "torsion absent inside the sample range; phase undefined"
        )
    T = np.array([smp.T for smp in samples])
    phase = np.concatenate([[0.0], np.cumsum(0.5 * (T[1:] + T[:-1]) * np.diff(s))])
    if s[0] <= 0.0 <= s[-1]:
        phase -= np.interp(0.0, s, phase)
    return C * np.exp(1j * phase)
