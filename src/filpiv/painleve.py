"""Sigma-form Painleve IV: residual, direct integration of the differentiated
third-order equation, and the maps to the conventional PIV functions q, p.

The quadratic form is
    (sigma'')^2 + (s sigma' - sigma)^2 / 4 = (sigma'-a)(sigma'+a)(sigma'-eps),
and differentiating it gives the sigma''-free third derivative
    sigma''' = (3 sigma'^2 - 2 eps sigma' - a^2)/2 - s (s sigma' - sigma)/4,
which drives the direct integrator and all chain-rule jets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import flow as _flow
from .errors import DenominatorVanishesError, InconsistentJetError
from .flow import FlowParams, SigmaJet
from .odeint import ORDER, IntegratorConfig, Trajectory, integrate_span

__all__ = [
    "PivParams",
    "sp4_residual",
    "sigma_ppp",
    "sigma_pppp",
    "sp4_integrate",
    "SigmaPath",
    "to_q",
    "to_p",
    "q_jet",
    "p_jet",
    "cp4_residual",
]

_EIPI4 = cmath.exp(0.25j * cmath.pi)


@dataclass(frozen=True)
class PivParams:
    """Conventional-PIV parameter pairs for the q and p reductions."""

    alpha_q: complex
    beta_q: complex
    alpha_p: complex
    beta_p: complex

    @staticmethod
    def from_flow(params: FlowParams) -> "PivParams":
        a, eps = params.a, params.eps
        return PivParams(
            alpha_q=1.0 - 0.5j * (eps - 3.0 * a),
            beta_q=0.5 * (a + eps) ** 2,
            alpha_p=-1.0 - 0.5j * (eps + 3.0 * a),
            beta_p=0.5 * (a - eps) ** 2,
        )


def sp4_residual(jet: SigmaJet, params: FlowParams) -> float:
    """Residual of the quadratic sigma equation at a jet (elementwise when
    the jet's fields are arrays)."""
    s, sg, sp, spp = jet.s, jet.sigma, jet.sigma_p, jet.sigma_pp
    return (
        spp**2
        + 0.25 * (s * sp - sg) ** 2
        - (sp - params.a) * (sp + params.a) * (sp - params.eps)
    )


def sigma_ppp(jet: SigmaJet, params: FlowParams) -> float:
    """sigma''' from the differentiated quadratic equation (sigma'' cancels)."""
    s, sg, sp = jet.s, jet.sigma, jet.sigma_p
    return 0.5 * (3.0 * sp**2 - 2.0 * params.eps * sp - params.a**2) - 0.25 * s * (
        s * sp - sg
    )


def sigma_pppp(jet: SigmaJet, params: FlowParams) -> float:
    """Fourth derivative by differentiating sigma''' once more."""
    s, sg, sp, spp = jet.s, jet.sigma, jet.sigma_p, jet.sigma_pp
    return (3.0 * sp - params.eps) * spp - 0.25 * (s * sp - sg) - 0.25 * s**2 * spp


class SigmaPath:
    """Dense sigma trajectory: the state (sigma, sigma', sigma'') of the
    direct third-order integration, or the sigma jet of a flow run."""

    def __init__(self, params: FlowParams, traj: Trajectory,
                 run: _flow.FlowRun | None = None):
        self.params = params
        self.traj = traj
        self._run = run

    @property
    def s_min(self) -> float:
        return float(self.traj.s_nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.traj.s_nodes[-1])

    def jet(self, s) -> SigmaJet:
        """The jet at s; for an array s its fields are arrays."""
        if self._run is not None:
            return self._run.sigma_jet(s)
        y = self.traj.states_at(s)
        return SigmaJet(s, y[..., 0], y[..., 1], y[..., 2])

    def residual_max(self, n: int = 200) -> float:
        jet = self.jet(np.linspace(self.s_min, self.s_max, n))
        return float(np.max(np.abs(sp4_residual(jet, self.params))))


def sp4_integrate(jet0: SigmaJet, params: FlowParams, s_span, cfg: IntegratorConfig | None = None) -> SigmaPath:
    """Integrate the sigma equation from a full jet over s_span.

    The direct route integrates sigma''' = f(s, sigma, sigma'); its solution
    set does not contain the singular straight-line branch, so a degenerate
    start with sigma''(s0) = 0 is delegated to a flow-backed run built from
    the jet (which always selects the filament-realizable continuation).
    """
    res0 = sp4_residual(jet0, params)
    scale = max(1.0, abs(jet0.s) ** 3, params.a**3, abs(params.eps) ** 3)
    if abs(res0) > 1e-8 * scale:
        raise InconsistentJetError(
            f"initial jet violates the quadratic equation (residual {res0:.3e})"
        )
    s_lo, s_hi = float(min(s_span)), float(max(s_span))
    if cfg is None:
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    if abs(jet0.sigma_pp) < 1e-12:
        state0 = _flow.state_from_sigma_jet(jet0, params)
        run = _flow.integrate_flow(params, state0, s_lo, s_hi, cfg)
        return SigmaPath(params, run.traj, run)

    y0 = np.array([jet0.sigma, jet0.sigma_p, jet0.sigma_pp])
    if not (s_lo <= jet0.s <= s_hi):
        raise InconsistentJetError("jet0.s must lie inside s_span")
    traj = integrate_span(_sp4_taylor(params), y0, jet0.s, s_lo, s_hi, cfg)
    return SigmaPath(params, traj)


def _sp4_taylor(params: FlowParams):
    """Taylor coefficients (ORDER + 1, 3) of y = (u, p, r) = (sigma, sigma',
    sigma'') about (s0, y) for r' = (3 p^2 - 2 eps p - a^2)/2 - s Q / 4 with
    Q = s p - u and s = s0 + t: Q_k = s0 p_k + p_{k-1} - u_k and
    (s Q)_k = s0 Q_k + Q_{k-1}."""
    eps, half_a2 = params.eps, 0.5 * params.a**2

    def taylor(s0, y):
        c = np.empty((ORDER + 1, 3))
        c[0] = y
        u, p, r = c.T
        q_prev = p_prev = 0.0  # Q_{k-1}, p_{k-1}
        for k in range(ORDER):
            q_k = s0 * p[k] + p_prev - u[k]
            f = 1.5 * float(p[:k + 1] @ p[k::-1]) - eps * p[k] - 0.25 * (s0 * q_k + q_prev)
            if k == 0:
                f -= half_a2
            u[k + 1] = p[k] / (k + 1)
            p[k + 1] = r[k] / (k + 1)
            r[k + 1] = f / (k + 1)
            q_prev, p_prev = q_k, p[k]
        return c

    return taylor


def _qp_pieces(jet: SigmaJet, params: FlowParams):
    s = jet.s
    n_half = 0.5j * (s * jet.sigma_p - jet.sigma)
    return jet.sigma_pp + n_half, jet.sigma_pp - n_half


def to_q(jet: SigmaJet, params: FlowParams) -> complex:
    """q evaluated at its native argument z = e^{-i pi/4} s / 2."""
    num, _ = _qp_pieces(jet, params)
    den = params.a - jet.sigma_p
    if abs(den) < 1e-12 * max(1.0, params.a):
        raise DenominatorVanishesError("a - sigma' vanished in the q map")
    return -_EIPI4 * num / den


def to_p(jet: SigmaJet, params: FlowParams) -> complex:
    """p evaluated at z = e^{-i pi/4} s / 2."""
    _, num = _qp_pieces(jet, params)
    den = params.a + jet.sigma_p
    if abs(den) < 1e-12 * max(1.0, params.a):
        raise DenominatorVanishesError("a + sigma' vanished in the p map")
    return -_EIPI4 * num / den


def _map_jet(jet: SigmaJet, params: FlowParams, upper: bool):
    """(z, f, df/dz, d2f/dz2) for f = q (upper) or p along the ray."""
    s = jet.s
    sg, sp, spp = jet.sigma, jet.sigma_p, jet.sigma_pp
    sppp = sigma_ppp(jet, params)
    spppp = sigma_pppp(jet, params)
    sign = 1.0 if upper else -1.0
    n = spp + sign * 0.5j * (s * sp - sg)
    n1 = sppp + sign * 0.5j * s * spp
    n2 = spppp + sign * 0.5j * (spp + s * sppp)
    d = params.a - sign * sp
    if abs(d) < 1e-12 * max(1.0, params.a):
        raise DenominatorVanishesError("map denominator vanished")
    d1 = -sign * spp
    d2 = -sign * sppp
    f = -_EIPI4 * n / d
    fs = -_EIPI4 * (n1 / d - n * d1 / d**2)
    fss = -_EIPI4 * (
        n2 / d - 2.0 * n1 * d1 / d**2 - n * d2 / d**2 + 2.0 * n * d1**2 / d**3
    )
    ds_dz = 2.0 * _EIPI4  # z = e^{-i pi/4} s / 2
    z = 0.5 * s / _EIPI4
    return z, f, fs * ds_dz, fss * ds_dz**2


def q_jet(jet: SigmaJet, params: FlowParams):
    """(z, q, q', q'') with derivatives in the conventional variable."""
    return _map_jet(jet, params, upper=True)


def p_jet(jet: SigmaJet, params: FlowParams):
    """(z, p, p', p'') with derivatives in the conventional variable."""
    return _map_jet(jet, params, upper=False)


def cp4_residual(q: complex, qp: complex, qpp: complex, s: complex,
                 alpha: complex, beta: complex) -> complex:
    """Residual of the conventional PIV equation
    q'' = q'^2/(2q) + (3/2) q^3 + 4 s q^2 + 2 (s^2 - alpha) q + beta / q."""
    q = complex(q)
    if abs(q) < 1e-300:
        raise DenominatorVanishesError("q vanished in the PIV residual")
    return qpp - (
        qp**2 / (2.0 * q)
        + 1.5 * q**3
        + 4.0 * s * q**2
        + 2.0 * (s**2 - alpha) * q
        + beta / q
    )
