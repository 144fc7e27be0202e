"""Sigma-form Painleve IV: the residual of the quadratic equation and the
direct integration of its differentiated third-order form.

The quadratic form is
    (sigma'')^2 + (s sigma' - sigma)^2 / 4 = (sigma'-a)(sigma'+a)(sigma'-eps),
and differentiating it gives 2 sigma'' (sigma''' - f) = 0 with the
sigma''-free third derivative
    f = (3 sigma'^2 - 2 eps sigma' - a^2)/2 - s (s sigma' - sigma)/4.
Every flow solution sigma = a.G solves sigma''' = f, also where sigma''
vanishes, so the direct integrator takes every consistent jet.  The one
extra solution the quadratic admits there, the singular line
sigma = eps s, solves neither sigma''' = f nor the flow unless |eps| = a.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from .errors import InconsistentJetError
from .flow import FlowParams, SigmaJet
from .odeint import ORDER, IntegratorConfig, Trajectory, integrate

__all__ = ["sp4_residual", "sp4_integrate", "SigmaPath"]


def sp4_residual(jet: SigmaJet, params: FlowParams) -> float:
    """Residual of the quadratic sigma equation at a jet (elementwise when
    the jet's fields are arrays)."""
    s, sg, sp, spp = jet.s, jet.sigma, jet.sigma_p, jet.sigma_pp
    return (
        spp**2
        + 0.25 * (s * sp - sg) ** 2
        - (sp - params.a) * (sp + params.a) * (sp - params.eps)
    )


class SigmaPath:
    """Dense sigma trajectory: the state (sigma, sigma', sigma'') of the
    direct third-order integration."""

    def __init__(self, traj: Trajectory):
        self.traj = traj

    def jet(self, s) -> SigmaJet:
        """The jet at s; for an array s its fields are arrays."""
        y = self.traj.states_at(s)
        return SigmaJet(s, y[..., 0], y[..., 1], y[..., 2])


def sp4_integrate(jet0: SigmaJet, params: FlowParams, s_span, cfg: IntegratorConfig | None = None) -> SigmaPath:
    """Integrate sigma''' = f(s, sigma, sigma') from a full jet over s_span;
    the jet must satisfy the quadratic equation and lie in a non-empty
    span (a RangeError otherwise)."""
    res0 = sp4_residual(jet0, params)
    scale = max(1.0, abs(jet0.s) ** 3, params.a**3, abs(params.eps) ** 3)
    if abs(res0) > 1e-8 * scale:
        raise InconsistentJetError(
            f"initial jet violates the quadratic equation (residual {res0:.3e})"
        )
    y0 = np.array([jet0.sigma, jet0.sigma_p, jet0.sigma_pp])
    return SigmaPath(integrate(_sp4_taylor(params), y0, jet0.s,
                               float(min(s_span)), float(max(s_span)), cfg))


def _sp4_taylor(params: FlowParams):
    """Taylor coefficients of y = (u, p, r) = (sigma, sigma', sigma'') about
    (s0, y) for r' = (3 p^2 - 2 eps p - a^2)/2 - s Q / 4 with Q = s p - u and
    s = s0 + t: Q_k = s0 p_k + p_{k-1} - u_k and (s Q)_k = s0 Q_k + Q_{k-1}.
    Rows have 3 entries, so the recurrence runs on Python floats, one lane
    at a time: for lanes y (L, 3) with one s0 each, the result is a
    C-ordered (ORDER + 1, L, 3) array."""
    eps, half_a2 = params.eps, 0.5 * params.a**2

    def lane(s0, y):
        u, p, r = ([v] for v in y.tolist())
        q_prev = p_prev = 0.0  # Q_{k-1}, p_{k-1}
        for k in range(ORDER):
            q_k = s0 * p[k] + p_prev - u[k]
            f = 1.5 * sum(map(mul, p, reversed(p))) - eps * p[k] - 0.25 * (s0 * q_k + q_prev)
            if k == 0:
                f -= half_a2
            u.append(p[k] / (k + 1))
            p.append(r[k] / (k + 1))
            r.append(f / (k + 1))
            q_prev, p_prev = q_k, p[k]
        return u, p, r

    def taylor(s0, y):
        return np.ascontiguousarray(np.array([lane(s, row) for s, row in zip(s0, y)])
                                    .transpose(2, 0, 1))

    return taylor
