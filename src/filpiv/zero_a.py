"""Closed-form zero-axis (a = 0) solution: the hypergeometric and
parabolic-cylinder representations of the tangent, evaluated exactly at
every s, and the limiting tangent directions.

Initial data are normalized to G'(0) = (1,0,0), G''(0) = (0, sqrt(eps), 0);
G_1' is then even in s and G_2', G_3' odd.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import ConfigError, DomainError
from .flow import FlowParams, FlowState, make_initial_state

__all__ = [
    "ZeroAParams",
    "AsymTangents",
    "normalized_state",
    "closed_form_gaps",
    "g_prime_hyp",
    "g_prime_pcf",
    "asym_tangents",
]


# e^{i pi/4}: the parabolic-cylinder argument's ray
_RAY = cmath.exp(0.25j * cmath.pi)


@dataclass(frozen=True)
class ZeroAParams:
    """Curvature parameter eps >= 0 (eps = 0 degenerates to a straight line)."""

    eps: float

    def __post_init__(self):
        if not (self.eps >= 0.0):
            raise ConfigError("eps must be >= 0")


@dataclass(frozen=True)
class AsymTangents:
    T_plus: np.ndarray
    T_minus: np.ndarray


def normalized_state(params: FlowParams) -> FlowState:
    """The normalized a = 0 Cauchy data G'(0) = e1, G''(0) = sqrt(eps) e2;
    a ConfigError for eps < 0, which FlowParams admits up to rounding."""
    eps = ZeroAParams(params.eps).eps
    return make_initial_state(params, [1.0, 0.0, 0.0], [0.0, math.sqrt(eps), 0.0])


def g_prime_hyp(s: float, params: ZeroAParams, exact: bool = False) -> np.ndarray:
    """Tangent G'(s) from the hypergeometric representation
        G1' = 1 - (eps s^2/2) |1F1(1/2 + i eps/4, 3/2, i s^2/4)|^2,
        G2' + i G3' = sqrt(eps) s 1F1(1/2 + i eps/4, 3/2, i s^2/4)
                                 1F1(-i eps/4, 1/2, -i s^2/4).

    exact has no effect: every s is evaluated exactly.  The keyword stays
    only because perfbench/workloads.py passes exact=True.
    """
    s = float(s)
    if params.eps == 0.0:
        return np.array([1.0, 0.0, 0.0])
    eps = params.eps
    z = 0.25j * s * s
    f1 = sf.hyp1f1(0.5 + 0.25j * eps, 1.5, z)
    g1 = 1.0 - 0.5 * eps * s * s * (f1 * f1.conjugate()).real
    w = math.sqrt(eps) * s * f1 * sf.hyp1f1(-0.25j * eps, 0.5, -z)
    return np.array([g1, w.real, w.imag])


@functools.lru_cache(maxsize=64)
def _pcf_constants(eps: float) -> tuple[tuple[complex, float], ...]:
    """The pairs (u_j, kappa_j) of g_prime_pcf, computed once per eps > 0."""
    # e^{pi eps/4}; checked first, as it also keeps the Gamma ratio finite
    sf.check_exponents(0.25 * math.pi * eps)
    t = (-2.0 * _RAY / math.sqrt(eps)
         * sf.cgamma(1.0 + 0.25j * eps) / sf.cgamma(0.5 + 0.25j * eps))
    us = (-1.0 + 0.0j, (1.0 - t) / (1.0 + t), (1.0 + 1j * t) / (1.0 - 1j * t))
    # kappa_j = (e^x |1 + u_j|^2 - 4 sinh(x) Re u_j) / 2, x = pi eps/4, is
    # about pi eps / 2 for small eps, where u_j -> -1 and both terms are >= 0:
    # the sum does not cancel.  e^x (1 + |u_j|)^2 bounds both terms, and
    # with them 2 kappa_j and |D_+ + u_j D_-|^2
    x = 0.25 * math.pi * eps
    sf.check_exponents(*(x + 2.0 * math.log1p(abs(u)) for u in us))
    ex, shx = math.exp(x), math.sinh(x)
    pairs = tuple((u, 0.5 * (ex * ((1.0 + u) * (1.0 + u).conjugate()).real
                             - 4.0 * shx * u.real))
                  for u in us)
    # D_+ + u_j D_- cancels to about 4e-16 / sqrt(eps) relative as u_j -> -1;
    # where u_2 or u_3 rounds to -1 (eps below about 2e-32) no digit is left
    if any(u == -1.0 for u in us[1:]):
        raise DomainError(f"u_j rounds to -1 at eps = {eps:.6g}: "
                          "the parabolic-cylinder form has no digit left")
    return pairs


def g_prime_pcf(s: float, params: ZeroAParams, exact: bool = False) -> np.ndarray:
    """Tangent G'(s) from the parabolic-cylinder product representation

        Gj' = 1 - |D_+ + u_j D_-|^2 / kappa_j,
        D_+- = D_{-i eps/2}(+- e^{i pi/4} s / sqrt(2)),
        kappa_j = (e^{pi eps/4} (1 + |u_j|^2) + 2 e^{-pi eps/4} Re u_j) / 2,

    with kappa_j formed as (e^{pi eps/4} |1 + u_j|^2 - 4 sinh(pi eps/4) Re u_j) / 2,
    which does not cancel at small eps.

    For real s, D is real-analytic in its order and argument, so the factor
    of order +i eps/2 on the conjugate ray is the conjugate of the one above
    and each product is a squared modulus.  D_+ and D_- come as one pcf_d
    pair, from the same two 1F1 values: per point one pcf_d and two hyp1f1.
    The constants u_j = e^{-2 lambda_j} and kappa_j depend on eps only and
    are computed once per eps, from one Gamma ratio
    t = -2 e^{i pi/4} Gamma(1 + i eps/4) / (sqrt(eps) Gamma(1/2 + i eps/4)):
    u_1 = -1, u_2 = (1 - t)/(1 + t), u_3 = (1 + i t)/(1 - i t), with the
    j = 3 sign fixed by unit-norm consistency of the full tangent.  A
    DomainError where kappa_j leaves the float range (eps > 882.9).

    exact has no effect: every s is evaluated exactly.  The keyword stays
    only because perfbench/workloads.py passes exact=True.
    """
    s = float(s)
    if params.eps == 0.0:
        return np.array([1.0, 0.0, 0.0])
    constants = _pcf_constants(params.eps)  # first: its exponent check guards pcf_d
    d_plus, d_minus = sf.pcf_d(-0.5j * params.eps, _RAY * s / math.sqrt(2.0))
    out = []
    for u, kappa in constants:
        f = d_plus + u * d_minus
        out.append((1.0 - f * f.conjugate() / kappa).real)
    return np.array(out)


def closed_form_gaps(grid, gps, params: ZeroAParams) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise maxima over s in grid of |closed form - G'| for the
    tangents gps of a numerical run at grid, and of |hyp - pcf| between the
    two exact closed-form representations."""
    ode = np.zeros(3)
    rep = np.zeros(3)
    for s, gp in zip(grid, gps):
        hyp = g_prime_hyp(float(s), params)
        ode = np.maximum(ode, np.abs(hyp - gp))
        rep = np.maximum(rep, np.abs(hyp - g_prime_pcf(float(s), params)))
    return ode, rep


def asym_tangents(params: ZeroAParams) -> AsymTangents:
    """Limiting tangents T_pm = G'(+-inf) with phases
    beta1 = arg Gamma(1 + i eps/4), beta2 = arg Gamma(1/2 + i eps/4) - pi/4."""
    eps = params.eps
    beta1 = sf.arg_gamma_one_plus_ix(0.25 * eps)
    beta2 = sf.clog_gamma(complex(0.5, 0.25 * eps)).imag - 0.25 * math.pi
    amp = math.sqrt(max(0.0, 1.0 - math.exp(-math.pi * eps)))
    c, s_ = math.cos(beta1 - beta2), math.sin(beta1 - beta2)
    first = math.exp(-0.5 * math.pi * eps)
    t_plus = np.array([first, amp * c, amp * s_])
    t_minus = np.array([first, -amp * c, -amp * s_])
    return AsymTangents(t_plus, t_minus)
