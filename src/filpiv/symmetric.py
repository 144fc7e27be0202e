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
from .specfun import check_exponents

__all__ = [
    "BRANCHES",
    "XRoot",
    "make_symmetric_ic",
    "x_roots",
    "conjecture_omega",
    "planar_spiral",
]

BRANCHES = ("odd", "mixed_minus", "mixed_plus")

# each branch's tail root (index into the x_roots table) and its Re rho
_BRANCH_ROOTS = {"odd": (1, math.pi), "mixed_plus": (2, math.pi), "mixed_minus": (3, 0.0)}


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


def _root_table(params: FlowParams) -> list[tuple[float, float]]:
    """(X_j, f_j) for the four x_roots, X_j = e^{pi eps/2} f_j; a DomainError
    where e^{pi eps/2} or cosh(pi a/2) overflows a float."""
    a, eps = params.a, params.eps
    check_exponents(0.5 * math.pi * eps, 0.5 * math.pi * a)
    eh = math.exp(0.5 * math.pi * eps)
    ch = math.cosh(0.5 * math.pi * a)
    sh = math.sinh(0.5 * math.pi * a)
    factors = (-eh - 2.0 * ch, 2.0 * ch - eh, eh - 2.0 * sh, eh + 2.0 * sh)
    return [(eh * f, f) for f in factors]


def _omega_of_factor(eps: float, f: float) -> float:
    """omega = eps/3 - ln(X)/(2 pi) for X = e^{pi eps/2} f."""
    return eps / 12.0 - math.log(f) / (2.0 * math.pi)


def x_roots(params: FlowParams) -> list[XRoot]:
    """The four roots for X = e^{2 pi (eps - 3 omega)/3}, classified:

        X1 = -e^{pi eps} - 2 e^{pi eps/2} cosh(pi a/2)   (always discarded)
        X2 = -e^{pi eps} + 2 e^{pi eps/2} cosh(pi a/2)   (>= 1 iff |eps| <= a)
        X3 =  e^{pi eps} - 2 e^{pi eps/2} sinh(pi a/2)   (>= 1 iff eps >= a)
        X4 =  e^{pi eps} + 2 e^{pi eps/2} sinh(pi a/2)   (always admissible)

    Each is e^{pi eps/2} f_j (see _root_table), and omega comes from f_j,
    so an admissible root's omega is finite also where its value is inf
    (beyond the float range).
    """
    return [XRoot(x, x >= 1.0, _omega_of_factor(params.eps, f) if x >= 1.0 else None)
            for x, f in _root_table(params)]


def conjecture_omega(params: FlowParams, branch: str) -> tuple[float, float]:
    """(omega, Re rho) conjectured for the symmetric branch:

        odd:         omega = eps/12 - ln(2 cosh(pi a/2) - e^{pi eps/2})/(2 pi),  Re rho = pi
        mixed_plus:  omega = eps/12 - ln(e^{pi eps/2} - 2 sinh(pi a/2))/(2 pi),  Re rho = pi
        mixed_minus: omega = eps/12 - ln(e^{pi eps/2} + 2 sinh(pi a/2))/(2 pi),  Re rho = 0

    These match the admissible tail roots X2, X3, X4 respectively, and are
    evaluated from the same factors f_j as x_roots.  The values are
    conjectural: downstream outputs mark them as such and tests treat them
    as numerics-grade expectations.
    """
    _check_branch(params, branch)
    j, rr = _BRANCH_ROOTS[branch]
    arg = _root_table(params)[j][1]
    if arg <= 0.0:
        raise BranchInfeasibleError(
            f"branch {branch} infeasible at a={params.a}, eps={params.eps}: "
            f"log argument {arg} <= 0"
        )
    return _omega_of_factor(params.eps, arg), rr


def planar_spiral(a: float) -> tuple[float, float]:
    """(eps, delta) of the asymptotically planar odd solution:
    eps = (2/pi) ln cosh(pi a/2) selects sigma'(+-inf) = 0; delta is the
    third tangent component at s = 0, delta = eps / a."""
    if not a > 0.0:
        raise ConfigError("planar spiral requires a > 0")
    eps = 2.0 / math.pi * math.log(math.cosh(0.5 * math.pi * a))
    return eps, eps / a
