"""Self-contained complex special functions: Gamma, 1F1 and parabolic cylinder D.

Everything here is scalar and pure; the rest of the package calls these
functions with arguments on or near the imaginary axis (1F1 at z = +-i s^2/4,
parabolic cylinder orders +-i eps/2 on the e^{+-i pi/4} rays), and accuracy is
tuned for that regime.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

from .errors import DomainError, GammaPoleError, NonConvergenceError

__all__ = [
    "cgamma",
    "clog_gamma",
    "rgamma",
    "arg_gamma_one_plus_ix",
    "check_exponents",
    "hyp1f1",
    "pcf_d",
]


# Term budget of every 1F1 sum, and the term size (relative to the sum, or
# absolute in the asymptotic sums) at which a sum counts as converged.
_MAX_TERMS = 700
_TOL = 1e-13

# A term counts as small when its size is at most _TOL max(|sum|, 1e-290).
# A Taylor step tests it as size <= _TOL |sum|, or size <= _TOL_FLOOR with
# |sum| < 1e-290: the same decision, NaN sums included, without a call to
# max on every term.
_TOL_FLOOR = _TOL * 1e-290

# Radius below which the plain Maclaurin series is accurate in double
# precision; between this and _SWITCH_RADIUS the series is carried outward by
# Taylor re-expansion steps along the ray (the direct sum loses ~|z|/ln(10)
# digits to cancellation on the imaginary axis); beyond it the compound
# asymptotic expansion takes over.  Both the sum and a step's local expansion
# cancel more as m = max(|alpha|, |gamma - alpha|) grows, so the series
# radius is min(10, 12.5/m) and a step moves at most min(0.35, 4.375/m) |z|
# (and 6); with m <= 1.25 (the zero-axis closed forms at eps <= 3) that is
# 10 and 0.35 |z|.
_DIRECT_RADIUS = 10.0
_SERIES_REACH = 12.5
_STEP_REACH = 4.375
_SWITCH_RADIUS = 30.0

# Largest m at which 1F1 was measured against mpmath: within 1.3e-12 relative
# on the zero-axis closed forms' parameters up to eps = 1600 (m = 400), and
# within 1e-10 on random parameters with m up to 300 wherever it returns.
# Beyond it 1F1 raises a DomainError.
_MAX_PARAM = 400.0

# A Maclaurin sum whose largest term exceeds the result by more than this
# factor carries a rounding error (2^-52 of that term) above 1e-9 relative,
# ten times the 1e-10 the package needs: the sum raises instead of returning
# it.  With the series radius above, the zero-axis closed forms' sums stay
# below 0.003 of this factor at every eps (with radius 10 at every m they
# passed it from eps = 21).
_CANCEL_LIMIT = 10.0 * 1e-10 * 2.0**52

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.9189385332046727417803297364
_LOG_PI = math.log(math.pi)
_LOG_HALF_I = cmath.log(0.5j)

# Entries of each per-parameter cache below.  The callers use a few parameter
# sets at a time (one eps of the zero-axis closed forms needs three 1F1
# parameter pairs and one pcf order), and the bound keeps a long process from
# growing without limit.
_CACHE_SIZE = 64

# e^x, cosh x and sinh x overflow a float beyond this x
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_exponents(*exponents: float) -> None:
    """DomainError unless every exponent x is at most ln(float max), so that
    e^x is a finite float.  Callers pass |x| for cosh and sinh, and call it
    before the arithmetic it guards, so that values in range keep their bits."""
    for x in exponents:
        if not x <= _LOG_FLOAT_MAX:
            raise DomainError(
                f"exponent {x:.6g} exceeds ln(float max) = {_LOG_FLOAT_MAX:.6g}: "
                "the value overflows a float"
            )


def _check_finite(*vals):
    for v in vals:
        v = complex(v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError("non-finite argument")


def _is_nonpositive_integer(z: complex, tol: float = 1e-13) -> bool:
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))


def _lanczos_sum(zz: complex) -> complex:
    # zz = z - 1 with Re z >= 0.5
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (zz + i)
    return acc


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) modulo 2 pi i, from sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2iw})
    with w = pi (z - n), n the integer nearest Re z: for Im z >= 0 (the
    conjugate serves below) no factor leaves float range, and 1 - e^{2iw}
    keeps its digits near w = 0 in the form 2 sin^2 - expm1 cos."""
    if z.imag < 0.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    w = cmath.pi * (z - round(z.real))
    x, y = w.real, w.imag
    one_minus = complex(2.0 * math.sin(x) ** 2 - math.expm1(-2.0 * y) * math.cos(2.0 * x),
                        -math.exp(-2.0 * y) * math.sin(2.0 * x))
    return _LOG_HALF_I - 1j * cmath.pi * z + cmath.log(one_minus)


def clog_gamma(z: complex) -> complex:
    """log Gamma(z), continuous in Im z for Re z >= 0.5 (principal on reals);
    for Re z < 0.5 by the reflection Gamma(z) Gamma(1 - z) = pi / sin(pi z),
    with an imaginary part correct modulo 2 pi."""
    z = complex(z)
    _check_finite(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        return _LOG_PI - _log_sin_pi(z) - clog_gamma(1.0 - z)
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(zz))


def _exp_checked(w: complex) -> complex:
    check_exponents(w.real)
    return cmath.exp(w)


def cgamma(z: complex) -> complex:
    """Gamma(z) = e^{clog_gamma(z)}, >= 12 significant digits on the working
    strip; a DomainError where it overflows a float."""
    return _exp_checked(clog_gamma(z))


def rgamma(z: complex) -> complex:
    """1/Gamma(z) = e^{-clog_gamma(z)}; entire, returns 0 at non-positive
    integers.  A DomainError where 1/Gamma(z) overflows a float."""
    try:
        return _exp_checked(-clog_gamma(z))
    except GammaPoleError:
        return 0.0 + 0.0j


def arg_gamma_one_plus_ix(x: float) -> float:
    """Continuous principal-branch arg Gamma(1 + i x); odd in x."""
    return clog_gamma(complex(1.0, float(x))).imag


# --- confluent hypergeometric 1F1 ------------------------------------------


def _check_cancellation(largest, total, z):
    """A NonConvergenceError when a Maclaurin sum's largest term exceeds the
    sum by more than _CANCEL_LIMIT."""
    if largest > _CANCEL_LIMIT * abs(total):
        raise NonConvergenceError(
            f"1F1 series at z={z} cancels {largest / abs(total):.2e}-fold, "
            f"beyond the {_CANCEL_LIMIT:.2e} its accuracy allows"
        )


def _series_1f1(alpha, gamma, z, slope=False):
    """Maclaurin sum of 1F1(alpha, gamma, z) with compensated accumulation.

    With slope, it also sums the derivative sum_k k t_k / z over the same
    terms t_k, compensated alike, and returns the pair (w, w'): the
    continuation's first expansion, from one recurrence.  The sums stop once
    three terms in a row are small against each; a NonConvergenceError when
    cancellation leaves either less than its target accuracy."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan compensation
    largest = 1.0
    # the slope sum sum_k k t_k, its compensation and its largest term
    d_total = d_comp = 0.0 + 0.0j
    d_largest = 0.0
    small = 0
    for k in range(_MAX_TERMS):
        term = term * (alpha + k) / ((gamma + k) * (k + 1)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        size = abs(term)
        if size > largest:
            largest = size
        if slope:
            d_term = (k + 1) * term
            y = d_term - d_comp
            t = d_total + y
            d_comp = (t - d_total) - y
            d_total = t
            if (k + 1) * size > d_largest:
                d_largest = (k + 1) * size
        if size <= _TOL * max(abs(total), 1e-290) and (
                not slope or abs(d_term) <= _TOL * max(abs(d_total), 1e-290)):
            small += 1
            if small >= 3:
                _check_cancellation(largest, total, z)
                if not slope:
                    return total
                _check_cancellation(d_largest, d_total, z)
                return total, d_total / z
        else:
            small = 0
    raise NonConvergenceError(
        f"1F1 series did not converge in {_MAX_TERMS} terms at z={z}"
    )


def _taylor_step(alpha, gamma, z0, w, wp, h):
    """Advance (w, w') of the 1F1 ODE z w'' + (gamma - z) w' - alpha w = 0
    from z0 to z0 + h by a local Taylor expansion about z0 != 0.

    Each coefficient c_{k+2} = ((k + alpha) c_k - (k+1)(k + gamma - z0)
    c_{k+1}) / (z0 (k+2)(k+1)) is formed with the same operations in the same
    order on every input; gamma - z0 is not hoisted, since k + (gamma - z0)
    rounds differently from (k + gamma) - z0 off the imaginary axis."""
    c_prev = w
    c_cur = wp
    val = c_prev + c_cur * h
    der = c_cur
    hk = h  # h^k for the derivative series, h^{k+1} for the value series
    small = 0
    for k in range(_MAX_TERMS):
        k1 = k + 1.0
        k2 = k + 2.0
        c_next = ((k + alpha) * c_prev - k1 * (k + gamma - z0) * c_cur) / (z0 * k2 * k1)
        der += c_next * (hk * k2)
        hk *= h
        dval = c_next * hk
        val += dval
        c_prev, c_cur = c_cur, c_next
        size = abs(dval)
        if size <= _TOL * abs(val) or size <= _TOL_FLOOR and abs(val) < 1e-290:
            small += 1
            if small >= 3:
                return val, der
        else:
            small = 0
    raise NonConvergenceError(f"1F1 Taylor step did not converge at z0={z0}")


def _continued_1f1(alpha, gamma, z, radius, m):
    """1F1 at radius < |z| <= 500 by Taylor re-expansion outward along the
    ray of z.  The first expansion is the Maclaurin series itself at
    |z| = radius: one _series_1f1 recurrence gives its value and its slope,
    and each _taylor_step carries the pair at most min(0.35, 4.375/m) |z|
    (and 6) further."""
    r = abs(z)
    ray = z / r
    z_cur = radius * ray
    frac = min(0.35, _STEP_REACH / m)
    w, wp = _series_1f1(alpha, gamma, z_cur, slope=True)
    try:
        while abs(z_cur) < r:
            step = min(frac * abs(z_cur), 6.0, r - abs(z_cur))
            z_next = z_cur + step * ray
            w, wp = _taylor_step(alpha, gamma, z_cur, w, wp, z_next - z_cur)
            z_cur = z_next
        if cmath.isfinite(w):
            return w
    except OverflowError:  # abs() of a complex beyond the float range
        pass
    raise DomainError(f"1F1 continued to z={z} overflows a float")


def _asymptotic_sum(branch, w):
    """sum_k (a)_k (b)_k / (k! w^k) of a branch (ratios, a, b) of
    _asymptotic_params: each term is the last times r_k / w, with the cached
    r_k = (a + k)(b + k)/(k + 1).  Cut before the smallest term or once a term
    drops to _TOL; returns (sum, size of the last term kept)."""
    ratios, a, b = branch
    term = total = 1.0 + 0.0j
    t_min = 1.0
    for k in range(_MAX_TERMS):
        if k == len(ratios):
            ratios.append((a + k) * (b + k) / (k + 1.0))
        term = term * ratios[k] / w
        size = abs(term)
        if size >= t_min:
            break
        total += term
        t_min = size
        if size <= _TOL:
            break
    return total, t_min


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _asymptotic_params(alpha, gamma):
    """(i pi alpha, Gamma(gamma)/Gamma(gamma - alpha), Gamma(gamma)/Gamma(alpha),
    z^{-alpha} branch, e^z branch) of the 1F1 asymptotics: everything that
    depends on the parameters only, computed once per pair.  A branch's term
    ratios grow as its sums need them, up to _MAX_TERMS."""
    g = cgamma(gamma)
    return (1j * cmath.pi * alpha, g * rgamma(gamma - alpha), g * rgamma(alpha),
            ([], alpha, alpha - gamma + 1.0), ([], gamma - alpha, 1.0 - alpha))


def _asymptotic_1f1(alpha, gamma, z):
    """Large-|z| compound expansion (DLMF 13.7) with both exponential
    branches, from the cached term ratios, i pi alpha and Gamma prefactors.

    Returns (value, relative error estimate from the first omitted terms).
    """
    i_pi_alpha, c1, c2, branch1, branch2 = _asymptotic_params(alpha, gamma)
    s1, t1_min = _asymptotic_sum(branch1, -z)  # z^{-alpha}
    s2, t2_min = _asymptotic_sum(branch2, z)  # e^z z^{alpha-gamma}
    sign = 1.0 if z.imag >= 0.0 else -1.0
    logz = cmath.log(z)
    try:
        p1 = c1 * cmath.exp(sign * i_pi_alpha - alpha * logz)
        p2 = c2 * cmath.exp(z + (alpha - gamma) * logz)
    except OverflowError:  # a branch beyond the float range: no estimate
        return complex(math.nan), math.inf
    val = p1 * s1 + p2 * s2
    if not cmath.isfinite(val):  # p2 s2 can overflow too
        return val, math.inf
    err = abs(p1) * t1_min + abs(p2) * t2_min
    scale = max(abs(val), 1e-290)
    return val, err / scale


def hyp1f1(alpha: complex, gamma: complex, z: complex) -> complex:
    """Kummer's 1F1(alpha, gamma, z) for complex arguments.

    Power series up to |z| = min(10, 12.5/m) with m = max(|alpha|,
    |gamma - alpha|), Taylor continuation along the ray up to |z| = 30,
    compound asymptotic expansion beyond.  The continuation's first
    expansion is the series at that radius, which sums the value and its
    slope from one recurrence.  Tuned for the imaginary axis where
    the package needs 1e-10 relative accuracy; a DomainError for m > 400,
    beyond the measured range, and a FilpivError where the value overflows.
    """
    alpha = complex(alpha)
    gamma = complex(gamma)
    z = complex(z)
    _check_finite(alpha, gamma, z)
    if _is_nonpositive_integer(gamma):
        raise GammaPoleError(f"1F1 undefined at non-positive integer gamma = {gamma}")
    if z == 0.0:
        return 1.0 + 0.0j
    if alpha == gamma:
        return cmath.exp(z)
    if z.real < 0.0:
        # Kummer transform keeps the continuation direction dominant
        return cmath.exp(z) * hyp1f1(gamma - alpha, gamma, -z)
    m = max(abs(alpha), abs(gamma - alpha))
    if m > _MAX_PARAM:
        raise DomainError(f"1F1 parameter size {m:.6g} beyond the measured {_MAX_PARAM:g}")
    r = abs(z)
    radius = min(_DIRECT_RADIUS, _SERIES_REACH / m)
    if r <= radius:
        return _series_1f1(alpha, gamma, z)
    if r <= _SWITCH_RADIUS:
        return _continued_1f1(alpha, gamma, z, radius, m)
    val, relerr = _asymptotic_1f1(alpha, gamma, z)
    if relerr < 1e-11:
        return val
    if r <= 500.0:
        return _continued_1f1(alpha, gamma, z, radius, m)
    raise NonConvergenceError(
        f"no 1F1 regime met tolerance at z={z} (asymptotic rel err {relerr:.2e})"
    )


# --- parabolic cylinder ------------------------------------------------------


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _pcf_rgammas(a):
    """(1/Gamma((1 - a)/2), 1/Gamma(-a/2)) of pcf_d's even and odd parts,
    computed once per order a."""
    return rgamma(0.5 * (1.0 - a)), rgamma(-0.5 * a)


def pcf_d(order: complex, z: complex) -> tuple[complex, complex]:
    """Parabolic cylinder pair (D_order(z), D_order(-z)) via the even/odd 1F1
    decomposition

        D_a(+-z) = 2^{a/2} sqrt(pi) e^{-z^2/4} [ 1F1(-a/2, 1/2, z^2/2) / Gamma((1-a)/2)
                   -+ sqrt(2) z 1F1(1/2 - a/2, 3/2, z^2/2) / Gamma(-a/2) ].

    Both 1F1 values depend on z^2 only, so the mirrored value costs no
    further evaluation; negating z is exact, so each member has the bits of
    a separate evaluation at its own argument.  Accurate on the
    imaginary-order / e^{+-i pi/4}-ray strips the package uses; large real z
    suffers the usual even/odd cancellation and is out of scope.
    """
    a = complex(order)
    z = complex(z)
    _check_finite(a, z)
    half_z2 = 0.5 * z * z
    pref = cmath.exp(0.5 * a * math.log(2.0) - 0.25 * z * z) * math.sqrt(math.pi)
    rg_even, rg_odd = _pcf_rgammas(a)
    even = rg_even * hyp1f1(-0.5 * a, 0.5, half_z2)
    odd = rg_odd * z * math.sqrt(2.0) * hyp1f1(0.5 - 0.5 * a, 1.5, half_z2)
    return pref * (even - odd), pref * (even + odd)
