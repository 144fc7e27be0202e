"""Symmetric solutions (odd and mixed): initial data, the four tail roots
with admissibility, the conjectured closed-form tail parameters and the
planar-spiral selection.

The odd case has sigma'(0) = eps and zero initial curvature scaling; the
mixed cases start tangent-aligned with the axis, sigma'(0) = -+ a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchInfeasibleError, ConfigError
from .flow import FlowParams, FlowState, axis_frame, make_initial_state

__all__ = [
    "BRANCHES",
    "XRoot",
    "make_symmetric_ic",
    "x_roots",
    "conjecture_omega",
    "planar_spiral",
]

BRANCHES = ("odd", "mixed_minus", "mixed_plus")


@dataclass(frozen=True)
class XRoot:
    """One root of X = e^{2 pi (eps - 3 omega)/3}; admissible iff X >= 1."""

    value: float
    admissible: bool
    omega: float | None


def _check_branch(params: FlowParams, branch: str) -> None:
    if branch not in BRANCHES:
        raise ConfigError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    a, eps = params.a, params.eps
    if branch == "odd" and abs(eps) > a:
        raise BranchInfeasibleError(f"odd branch needs |eps| <= a, got eps={eps}, a={a}")
    if branch == "mixed_plus" and eps < a:
        raise BranchInfeasibleError(f"mixed_plus needs eps >= a, got eps={eps}, a={a}")
    if branch == "mixed_minus" and eps < -a:
        raise BranchInfeasibleError(f"mixed_minus needs eps >= -a, got eps={eps}, a={a}")


def make_symmetric_ic(params: FlowParams, branch: str) -> FlowState:
    """Cauchy data at s = 0 for a symmetric solution.

    odd: G(0) = 0, G''(0) = 0 and the tangent at polar angle
    cos(theta) = eps/a; mixed: tangent along -+ axis with |G''(0)|^2 =
    eps +- a placed along the first axis-orthogonal direction (the remaining
    freedom is a rotation about the axis).
    """
    _check_branch(params, branch)
    if params.a <= 0.0:
        raise ConfigError("symmetric branches require a > 0")
    e1, _, e3 = axis_frame(params)
    if branch == "odd":
        cos_t = params.eps / params.a
        sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        gp0 = sin_t * e1 + cos_t * e3
        gpp0 = np.zeros(3)
    else:
        sign = -1.0 if branch == "mixed_minus" else 1.0
        gp0 = sign * e3
        c2 = params.eps - sign * params.a
        gpp0 = math.sqrt(max(c2, 0.0)) * e1
    return make_initial_state(params, gp0, gpp0, 0.0)


def x_roots(params: FlowParams) -> list[XRoot]:
    """The four roots for X = e^{2 pi (eps - 3 omega)/3}, classified:

        X1 = -e^{pi eps} - 2 e^{pi eps/2} cosh(pi a/2)   (always discarded)
        X2 = -e^{pi eps} + 2 e^{pi eps/2} cosh(pi a/2)   (>= 1 iff |eps| <= a)
        X3 =  e^{pi eps} - 2 e^{pi eps/2} sinh(pi a/2)   (>= 1 iff eps >= a)
        X4 =  e^{pi eps} + 2 e^{pi eps/2} sinh(pi a/2)   (always admissible)
    """
    a, eps = params.a, params.eps
    e1 = math.exp(math.pi * eps)
    eh = math.exp(0.5 * math.pi * eps)
    ch = math.cosh(0.5 * math.pi * a)
    sh = math.sinh(0.5 * math.pi * a)
    values = [-e1 - 2 * eh * ch, -e1 + 2 * eh * ch, e1 - 2 * eh * sh, e1 + 2 * eh * sh]
    out = []
    for x in values:
        ok = x >= 1.0
        omega = eps / 3.0 - math.log(x) / (2.0 * math.pi) if ok else None
        out.append(XRoot(x, ok, omega))
    return out


def conjecture_omega(params: FlowParams, branch: str) -> tuple[float, float]:
    """(omega, Re rho) conjectured for the symmetric branch:

        odd:         omega = eps/12 - ln(2 cosh(pi a/2) - e^{pi eps/2})/(2 pi),  Re rho = pi
        mixed_plus:  omega = eps/12 - ln(e^{pi eps/2} - 2 sinh(pi a/2))/(2 pi),  Re rho = pi
        mixed_minus: omega = eps/12 - ln(e^{pi eps/2} + 2 sinh(pi a/2))/(2 pi),  Re rho = 0

    These match the admissible tail roots X2, X3, X4 respectively.  The
    values are conjectural: downstream outputs mark them as such and tests
    treat them as numerics-grade expectations.
    """
    _check_branch(params, branch)
    a, eps = params.a, params.eps
    eh = math.exp(0.5 * math.pi * eps)
    if branch == "odd":
        arg = 2.0 * math.cosh(0.5 * math.pi * a) - eh
        rr = math.pi
    elif branch == "mixed_plus":
        arg = eh - 2.0 * math.sinh(0.5 * math.pi * a)
        rr = math.pi
    else:
        arg = eh + 2.0 * math.sinh(0.5 * math.pi * a)
        rr = 0.0
    if arg <= 0.0:
        raise BranchInfeasibleError(
            f"branch {branch} infeasible at a={a}, eps={eps}: log argument {arg} <= 0"
        )
    return eps / 12.0 - math.log(arg) / (2.0 * math.pi), rr


def planar_spiral(a: float) -> tuple[float, float]:
    """(eps, delta) of the asymptotically planar odd solution:
    eps = (2/pi) ln cosh(pi a/2) selects sigma'(+-inf) = 0; delta is the
    third tangent component at s = 0, delta = eps / a."""
    if not a > 0.0:
        raise ConfigError("planar spiral requires a > 0")
    eps = 2.0 / math.pi * math.log(math.cosh(0.5 * math.pi * a))
    return eps, eps / a
