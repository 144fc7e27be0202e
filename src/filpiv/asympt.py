"""Tail asymptotics and the connection problem: truncated large-|s| models
for sigma and the curvature/torsion scalings, least-squares extraction of the
tail parameters (omega, delta) from a trajectory, the amplitude/phase laws
fixing rho, and the map from the s -> +inf tail to the s -> -inf tail.

Conventions: on either side, with m = |s| and phase
    phi(m) = m^2/4 - 6 omega ln(m / sqrt(2)) + delta,
the tail obeys
    sigma'   = (eps + 6 omega)/3 + 2|A| cos(phi)/m - c2/m^2 + O(m^-3),
    C^2      = 2 (eps - 3 omega)/3 - 2 R cos(phi)/(9 m) + O(m^-2),
    |A| = R(omega)/9,   c2 = a^2 - 12 omega^2 + eps^2/3,
and R(omega)^2 = 6 (eps - 3 omega)(9 a^2 - (eps + 6 omega)^2) = 81 |A|^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NonRealMonodromyError,
    OmegaOutOfBoundsError,
    WindowTooShortError,
)
from .flow import FlowParams, FlowRun
from .specfun import arg_gamma_one_plus_ix, check_exponents

__all__ = [
    "TailParams",
    "FitResult",
    "omega_bounds",
    "r_of_omega",
    "d1_coefficient",
    "c2_coefficient",
    "im_rho",
    "re_rho",
    "delta_from_re_rho",
    "make_tail",
    "tail_phase",
    "sigma_model",
    "model_curv_tors",
    "fit_tail",
    "connect",
    "connfI_residuals",
]

@dataclass(frozen=True)
class TailParams:
    """One side's asymptotic data: side in {+1, -1}, omega, phase delta and
    the complex parameter rho (Im rho pinned by the reality constraint)."""

    side: int
    omega: float
    delta: float
    rho: complex

    def __post_init__(self):
        if self.side not in (1, -1):
            raise ConfigError("side must be +1 or -1")


@dataclass(frozen=True)
class FitResult:
    tail: TailParams
    amplitude: float       # fitted oscillation amplitude of sigma' (= 2|A|)
    residual_norm: float   # rms residual of the sigma' model over the window
    n_periods: float
    profile_solves: int    # _profile_fit calls made for this side


def omega_bounds(params: FlowParams) -> tuple[float, float]:
    a, eps = params.a, params.eps
    return (-0.5 * a - eps / 6.0, min(eps / 3.0, 0.5 * a - eps / 6.0))


def r_of_omega(omega: float, params: FlowParams) -> float:
    """R(omega) = sqrt(6 (eps - 3 omega)(9 a^2 - (eps + 6 omega)^2)) >= 0."""
    a, eps = params.a, params.eps
    arg = 6.0 * (eps - 3.0 * omega) * (9.0 * a * a - (eps + 6.0 * omega) ** 2)
    if arg < -1e-12 * max(1.0, a**4, eps**4):
        raise DomainError(f"R(omega) undefined: omega={omega} outside bounds")
    return math.sqrt(max(arg, 0.0))


def c2_coefficient(omega: float, params: FlowParams) -> float:
    """Secular 1/m^2 coefficient of sigma': a^2 - 12 omega^2 + eps^2/3."""
    return params.a**2 - 12.0 * omega**2 + params.eps**2 / 3.0


def d1_coefficient(omega: float, params: FlowParams) -> float:
    """Cubic-tail polynomial -12 w^3 + (eps^2 + 3 a^2) w / 2
    + eps (eps^2 - 9 a^2) / 36."""
    a, eps = params.a, params.eps
    return (
        -12.0 * omega**3
        + 0.5 * (eps * eps + 3.0 * a * a) * omega
        + eps * (eps * eps - 9.0 * a * a) / 36.0
    )


def im_rho(omega: float, params: FlowParams) -> float:
    """Im rho from the reality constraint:
    e^{-2 Im rho} = 4 e^{-3 pi w} sinh(pi (eps - 3w)/3)
                    (cosh(pi a) - cosh(pi (eps + 6w)/3)).

    A DomainError where the right-hand side is not positive, or where it or
    one of its factors overflows a float."""
    a, eps = params.a, params.eps
    check_exponents(-3.0 * math.pi * omega, abs(math.pi * (eps - 3.0 * omega) / 3.0),
                    abs(math.pi * a), abs(math.pi * (eps + 6.0 * omega) / 3.0))
    arg = (
        4.0
        * math.exp(-3.0 * math.pi * omega)
        * math.sinh(math.pi * (eps - 3.0 * omega) / 3.0)
        * (math.cosh(math.pi * a) - math.cosh(math.pi * (eps + 6.0 * omega) / 3.0))
    )
    if arg <= 0.0:
        raise DomainError(
            f"reality constraint has non-positive argument at omega={omega}"
        )
    if not arg < math.inf:
        raise DomainError(f"reality constraint overflows a float at omega={omega}")
    return -0.5 * math.log(arg)


def _arg_gamma_terms(omega: float, params: FlowParams) -> float:
    a, eps = params.a, params.eps
    return (
        arg_gamma_one_plus_ix((eps + 6.0 * omega - 3.0 * a) / 6.0)
        + arg_gamma_one_plus_ix((eps + 6.0 * omega + 3.0 * a) / 6.0)
        + arg_gamma_one_plus_ix((3.0 * omega - eps) / 3.0)
    )


def re_rho(delta: float, omega: float, params: FlowParams) -> float:
    """Re rho = delta - sum of the three arg Gamma phase terms + 3 pi/4."""
    return delta - _arg_gamma_terms(omega, params) + 0.75 * math.pi


def delta_from_re_rho(re_rho_val: float, omega: float, params: FlowParams) -> float:
    """Affine inverse of re_rho."""
    return re_rho_val + _arg_gamma_terms(omega, params) - 0.75 * math.pi


def make_tail(side: int, omega: float, delta: float, params: FlowParams) -> TailParams:
    """TailParams with rho assembled from the phase and reality laws."""
    return TailParams(
        side, omega, delta, complex(re_rho(delta, omega, params), im_rho(omega, params))
    )


def tail_phase(m, omega: float, delta: float):
    """phi(m) = m^2/4 - 6 omega ln(m / sqrt(2)) + delta, for a float or an
    array of m = |s|."""
    return 0.25 * m * m - 6.0 * omega * np.log(m / math.sqrt(2.0)) + delta


def sigma_model(s, tail: TailParams, params: FlowParams):
    """Truncated tail expansion (sigma, sigma', sigma'') at signed s, a float
    or an array, with amplitude |A| = R(omega)/9 and the cubic coefficient
    D1 of the tail's omega.

    The cubic secular coefficient is +8 D1, opposite to the printed closed
    form: see the erratum in README's numerical notes for the evidence, and
    tests/test_asympt.py::TestCubicSign.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s * tail.side <= 0.0):
        raise ConfigError("sign of s must match the tail side")
    m = np.abs(s)
    u = (params.eps + 6.0 * tail.omega) / 3.0
    c2 = c2_coefficient(tail.omega, params)
    amp = r_of_omega(tail.omega, params) / 9.0
    phi = tail_phase(m, tail.omega, tail.delta)
    sig = tail.side * (u * m + c2 / m + 4.0 * amp * np.sin(phi) / (m * m)
                       + 8.0 * d1_coefficient(tail.omega, params) / m**3)
    sig_p = u + 2.0 * amp * np.cos(phi) / m - c2 / (m * m)
    sig_pp = -tail.side * amp * np.sin(phi)
    return sig, sig_p, sig_pp


def model_curv_tors(s: float, tail: TailParams, params: FlowParams) -> tuple[float, float]:
    """(C^2, (eps - 3 omega)(T - s/2)) from the leading-plus-oscillatory model."""
    s = float(s)
    if s * tail.side <= 0.0:
        raise ConfigError("sign of s must match the tail side")
    m = abs(s)
    r = r_of_omega(tail.omega, params)
    phi = tail_phase(m, tail.omega, tail.delta)
    c2val = 2.0 * (params.eps - 3.0 * tail.omega) / 3.0 \
        - tail.side * 2.0 * r * math.cos(phi) / (9.0 * s)
    tline = tail.side * r * math.cos(phi) / 12.0
    return c2val, tline


def _window_grid(window) -> np.ndarray:
    m_lo, m_hi = float(window[0]), float(window[1])
    if not (0.0 < m_lo < m_hi):
        raise ConfigError("fit window must satisfy 0 < lo < hi")
    if m_lo < 15.0:
        raise ConfigError("fit window must start at |s| >= 15")
    n_periods = (m_hi**2 - m_lo**2) / (8.0 * math.pi)
    if n_periods < 5.0:
        raise WindowTooShortError(
            f"window [{m_lo}, {m_hi}] spans {n_periods:.1f} oscillation periods (< 5)"
        )
    dm = min(0.04, math.pi / (2.0 * m_hi))
    n = int(math.ceil((m_hi - m_lo) / dm)) + 1
    return np.linspace(m_lo, m_hi, n)


def _profile_fit(grid, sig_p, omega, params):
    """For fixed omega: linear LSQ of the detrended oscillation.

    The leading model is [p cos(psi) + q sin(psi)] / m applied to
    sigma' - (eps+6w)/3 + c2/m^2; free first- and second-harmonic columns at
    1/m^3 absorb the next order so they do not bias (p, q).  grid holds the
    window's omega-free (m, m^2, m^3, ln(m/sqrt 2), m^2/4).  Returns (sum of
    squared residuals f, p, q, f'(omega) by variable projection)."""
    ms, m2, m3, ln_m, quarter_m2 = grid
    y = sig_p - (params.eps + 6.0 * omega) / 3.0 + c2_coefficient(omega, params) / m2
    psi = quarter_m2 - 6.0 * omega * ln_m
    c1, s1 = np.cos(psi), np.sin(psi)
    ch, sh = c1 * c1 - s1 * s1, 2.0 * c1 * s1
    cols = np.stack([c1 / ms, s1 / ms, c1 / m3, s1 / m3, ch / m3, sh / m3], axis=1)
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    resid = y - cols @ coef
    # f' = 2 r.(dy/domega - (dA/domega) c) for r = y - A c, exactly since
    # r.A = 0 (variable projection, Golub & Pereyra 1973).
    # dy/domega = -2 - 24 omega/m^2; dpsi/domega = -6 ln(m/sqrt 2) turns each
    # column pair (cos, sin) into 6 ln(m/sqrt 2) (sin, -cos), twice that for
    # the second harmonic.
    da_c = 6.0 * ln_m * ((coef[0] * s1 - coef[1] * c1) / ms + (
        coef[2] * s1 - coef[3] * c1 + 2.0 * (coef[4] * sh - coef[5] * ch)) / m3)
    slope = 2.0 * float(resid @ (-2.0 - 24.0 * omega / m2 - da_c))
    return float(resid @ resid), float(coef[0]), float(coef[1]), slope


def _profile_minimum(grid, sig_p, params, x0, f0, lo, hi):
    """Safeguarded secant for f'(omega) = 0 on [lo, hi], started from x0 and
    its fit f0; returns (omega, fit, solves) at the last solved point."""
    # The end downhill of x0 is solved first.  If f' keeps its sign there,
    # f falls all the way to that end, which is taken as the end with the
    # lower f.
    # Otherwise the two points bracket the minimum (f' from - to +); secant
    # steps on the last two points shrink the bracket, a step that leaves it
    # (or is undefined, the two slopes being equal) is replaced by bisection,
    # and a step below 1e-14 max(1, |omega|) ends the search without another
    # solve.
    x1 = hi if f0[3] < 0.0 else lo
    f1, solves = _profile_fit(grid, sig_p, x1, params), 2
    if (f1[3] < 0.0) != (f0[3] < 0.0):
        lo, hi = min(x0, x1), max(x0, x1)
        while solves < 50:  # the secant needs about 5; bisection alone ~40
            den = f1[3] - f0[3]
            x = x1 - f1[3] * (x1 - x0) / den if den else math.nan
            if abs(x - x1) < 1e-14 * max(1.0, abs(x1)):
                break
            x0, f0, x1 = x1, f1, (x if lo < x < hi else 0.5 * (lo + hi))
            f1, solves = _profile_fit(grid, sig_p, x1, params), solves + 1
            lo, hi = (x1, hi) if f1[3] < 0.0 else (lo, x1)
    return x1, f1, solves


def fit_tail(run: FlowRun, side: int, window) -> FitResult:
    """Extract (omega, delta) from one tail of a trajectory.

    omega first, from the window mean of sigma' corrected by the known
    1/m^2 term, then refined by a secant on the variable-projection
    derivative of the phase-model residual (the ln|s| frequency correction
    couples omega into the phase), in about 5 solves; delta then follows
    from the linear cos/sin fit.  The window is given in |s|.
    """
    params = run.params
    if side not in (1, -1):
        raise ConfigError("side must be +1 or -1")
    ms = _window_grid(window)
    span_ok = (side * ms[-1] <= run.s_max + 1e-9) if side > 0 else (
        -ms[-1] >= run.s_min - 1e-9
    )
    if not span_ok:
        raise ConfigError("fit window outside the trajectory span")
    sig_p = run.gp(side * ms) @ params.a_vec
    grid = (ms, ms**2, ms**3, np.log(ms / math.sqrt(2.0)), 0.25 * ms**2)

    # stage 1: corrected mean
    mean_sp = float(np.trapezoid(sig_p, ms) / (ms[-1] - ms[0]))
    mean_inv2 = float(np.trapezoid(1.0 / ms**2, ms) / (ms[-1] - ms[0]))
    omega = (3.0 * mean_sp - params.eps) / 6.0
    for _ in range(3):
        u = mean_sp + c2_coefficient(omega, params) * mean_inv2
        omega = (3.0 * u - params.eps) / 6.0

    # stage 2: minimize the profiled residual over omega within 0.01
    # (skipped when there is no oscillation signal to lock onto)
    fit, solves = _profile_fit(grid, sig_p, omega, params), 1
    lo_b, hi_b = omega_bounds(params)
    lo = max(omega - 0.01, lo_b - 1e-6)
    hi = min(omega + 0.01, hi_b + 1e-6)
    if math.hypot(fit[1], fit[2]) > 1e-8 * max(1.0, abs(mean_sp)) and hi > lo:
        omega, fit, solves = _profile_minimum(grid, sig_p, params, omega, fit, lo, hi)

    slack = 1e-6 * max(1.0, abs(lo_b), abs(hi_b))
    if omega < lo_b - slack or omega > hi_b + slack:
        raise OmegaOutOfBoundsError(
            f"fitted omega={omega} outside [{lo_b}, {hi_b}]"
        )
    if not lo_b <= omega <= hi_b:
        omega = min(max(omega, lo_b), hi_b)
        fit, solves = _profile_fit(grid, sig_p, omega, params), solves + 1
    ss_res, p, q, _ = fit
    amp = math.hypot(p, q)
    delta = math.atan2(-q, p) if amp > 0.0 else 0.0
    at_boundary = min(omega - lo_b, hi_b - omega) <= slack
    if at_boundary:
        rho = complex(re_rho(delta, omega, params), math.inf)
        tail = TailParams(side, omega, delta, rho)
    else:
        tail = make_tail(side, omega, delta, params)
    return FitResult(
        tail=tail,
        amplitude=amp,
        residual_norm=math.sqrt(ss_res / len(ms)),
        n_periods=(ms[-1] ** 2 - ms[0] ** 2) / (8.0 * math.pi),
        profile_solves=solves,
    )


# the most the raw Im rho_out may miss the reality constraint; admissible
# tails miss it by rounding only, about 1e-11 at most
_IM_RHO_TOL = 1e-6


def _s_const(params: FlowParams) -> float:
    a, eps = params.a, params.eps
    check_exponents(-math.pi * eps / 3.0, abs(math.pi * a), 2.0 * math.pi * eps / 3.0)
    return 2.0 * math.exp(-math.pi * eps / 3.0) * math.cosh(math.pi * a) \
        + math.exp(2.0 * math.pi * eps / 3.0)


def _relation_a(tail: TailParams, s_const: float) -> tuple[float, float]:
    """The terms (2 e^{4 pi w}(e^{-Im rho} cos Re rho - 1), e^{2 pi w} S) of the
    first connection relation, which sum to the other side's e^{-2 pi w};
    a DomainError where e^{4 pi w} or e^{-Im rho} overflows a float."""
    check_exponents(4.0 * math.pi * tail.omega, -tail.rho.imag)
    e2w = math.exp(2.0 * math.pi * tail.omega)
    osc = math.exp(-tail.rho.imag) * math.cos(tail.rho.real) - 1.0
    return 2.0 * e2w**2 * osc, e2w * s_const


def _relation_b(tail: TailParams) -> complex:
    """One side's term e^{2 pi w}(1 - e^{i rho}) of the second connection
    relation, whose two sides' terms sum to S - e^{-2 pi (w_+ + w_-)}.
    Eliminating that sum with the first relation leaves the conjugate form:
    the two sides' terms are complex conjugates, with no S left to cancel."""
    return math.exp(2.0 * math.pi * tail.omega) * (1.0 - cmath.exp(1j * tail.rho))


def connect(tail: TailParams, params: FlowParams) -> TailParams:
    """Map one side's tail parameters to the other side.

    e^{-2 pi omega_out} comes from the first connection relation, e^{i rho_out}
    from the conjugate form of the second (see _relation_b); delta_out then
    inverts the phase law, and Im rho_out comes from the reality constraint.
    A NonRealMonodromyError where e^{-2 pi omega_out} <= 0, where omega_out
    lies outside the open omega_bounds (no real tail has that omega) or where
    the raw Im rho_out misses the constraint by more than _IM_RHO_TOL (an
    input whose rho breaks the reality constraint); a DomainError where a
    term of either relation overflows a float.
    """
    s_const = _s_const(params)
    term1, term2 = _relation_a(tail, s_const)
    ea = term1 + term2
    if ea <= 0.0:
        raise NonRealMonodromyError(
            f"non-positive e^(-2 pi omega) = {ea}: inconsistent input tail"
        )
    if not ea < math.inf:
        raise DomainError("e^(-2 pi omega_out) overflows a float")
    w_out = -math.log(ea) / (2.0 * math.pi)
    lo, hi = omega_bounds(params)
    if not lo < w_out < hi:
        raise NonRealMonodromyError(
            f"omega_out={w_out} outside ({lo}, {hi}) (non-real monodromy)"
        )
    ei_rho_out = 1.0 - _relation_b(tail).conjugate() / math.exp(2.0 * math.pi * w_out)
    # math.hypot and math.atan2, not abs() and cmath.phase, which raise
    # OverflowError where the modulus overflows or the angle underflows
    modulus = math.hypot(ei_rho_out.real, ei_rho_out.imag)
    if not modulus < math.inf:
        raise DomainError("e^(i rho_out) overflows a float")
    re_out = math.atan2(ei_rho_out.imag, ei_rho_out.real)
    # a zero modulus, an exact cancellation at a tiny a, is Im rho = +inf
    im_out_raw = -math.log(modulus) if modulus else math.inf
    im_out = im_rho(w_out, params)
    if abs(im_out_raw - im_out) > _IM_RHO_TOL:
        raise NonRealMonodromyError(
            f"Im rho mismatch {abs(im_out_raw - im_out):.3e} "
            f"exceeds {_IM_RHO_TOL} (non-real monodromy)"
        )
    delta_out = delta_from_re_rho(re_out, w_out, params)
    delta_out = math.remainder(delta_out, 2.0 * math.pi)
    if delta_out <= -math.pi:
        delta_out += 2.0 * math.pi
    return TailParams(-tail.side, w_out, delta_out, complex(re_out, im_out))


def connfI_residuals(plus: TailParams, minus: TailParams, params: FlowParams) -> dict:
    """Relative residuals of both connection relations on a tail pair.

    The first relation is evaluated in both orientations (predicting each
    side from the other), the second in its conjugate form (see
    _relation_b); residuals are normalized by the largest additive term of
    the corresponding equation.  A DomainError where a term of the first
    relation overflows a float.
    """
    s_const = _s_const(params)
    out = {}
    for name, t_in, t_out in (("a_upper", plus, minus), ("a_lower", minus, plus)):
        term1, term2 = _relation_a(t_in, s_const)
        lhs = math.exp(-2.0 * math.pi * t_out.omega)
        scale = max(abs(term1), abs(term2), abs(lhs), 1.0)
        out[name] = abs(lhs - (term1 + term2)) / scale
    b_plus, b_minus = _relation_b(plus), _relation_b(minus)
    out["b"] = abs(b_minus - b_plus.conjugate()) / max(abs(b_plus), abs(b_minus), 1.0)
    return out
