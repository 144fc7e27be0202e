"""Self-similar filament flow: the 6-dim system for (G, G'), its conserved
quantities, sigma jets, curvature/torsion extraction, the azimuth
quadrature, filament reconstruction and the curvature-torsion complex
envelope.

The state convention is y = (G1, G2, G3, G1', G2', G3') with arc-like
parameter s, evolving by G'' = (a x G + G) x G' / 2 for the axis vector
a = a e3: any other axis direction gives the same solution rotated.
Every value derived from the states (G'', the sigma jet, C, T and the
invariant drifts) comes from one routine, _derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InconsistentCauchyDataError,
    IntegrandPoleError,
    VanishingCurvatureError,
    ZeroAxisError,
)
from .odeint import ORDER, IntegratorConfig, Trajectory, integrate

__all__ = [
    "FlowParams",
    "FlowState",
    "SigmaJet",
    "CurvTorsSample",
    "FlowRun",
    "make_initial_state",
    "make_rhs",
    "make_taylor",
    "integrate_flow",
    "curvature_torsion",
    "phi_accumulate",
    "reconstruct_filament",
    "hasimoto_psi",
]

# curvature floor below which the torsion is reported absent (the torsion
# formula divides by C^2)
C2_FLOOR = 1e-10

# Gauss-Legendre nodes per trajectory segment for the azimuth quadrature:
# exact for the degree-(ORDER + 1) numerator s sigma' - sigma of a segment
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(ORDER // 2 + 1)

_E3 = np.array([0.0, 0.0, 1.0])

# K(W) = np.cross(W, I) is linear in W: K(W)[y, x] = sum_a _CROSS[y, x, a] W_a
_CROSS = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(1, 2, 0).copy()
_CROSS.flags.writeable = False

# sign diagonals P with det P = -1: if y(0) = D y(0) for D = diag(P, -P),
# the solution is the mirror image y(-s) = D y(s).  -I (the odd branch) and
# diag(1, 1, -1) (the mixed ones) have p1 = p2, so P commutes with the axis
# term a e3 x G; diag(-1, 1, 1) (the normalized a = 0 data) holds at a = 0.
_MIRRORS = tuple(np.array(p) for p in ((-1.0, -1.0, -1.0), (1.0, 1.0, -1.0),
                                       (-1.0, 1.0, 1.0)))


@dataclass(frozen=True)
class FlowParams:
    """Axis strength a >= 0 along e3, and the conserved eps."""

    a: float
    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.eps)):
            raise ConfigError("a and eps must be finite")
        if not (self.a >= 0.0):
            raise ConfigError("a must be >= 0")
        if self.eps < -self.a - 1e-12:
            raise ConfigError("eps >= -a is required (|sigma'| <= a)")

    @property
    def a_vec(self) -> np.ndarray:
        return self.a * _E3


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


class CurvTorsSample(NamedTuple):
    s: float
    C: float
    T: float | None  # None where C^2 is below the floor


# CurvTorsSample from one (s, C, T) tuple, built in C: tuple.__new__ as
# CurvTorsSample._make calls it, less _make's Python frame and length check
_curv_tors_sample = partial(tuple.__new__, CurvTorsSample)


def make_rhs(params: FlowParams):
    """Scalarized right-hand side closure for the 6-dim system; y may also
    hold one state per column, (6, n).  No module of the package calls it
    (_derived forms G'' the same way): only the tests and the benchmark's
    tracer read it."""
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
    """Taylor coefficients of the flow about (s, y): a C-ordered (ORDER + 1,
    L, 6) array for a stack of L lanes y (L, 6).  The flow is autonomous, so
    s is not read.

    The recurrence is W_k = a x G_k + G_k, T_{k+1} = s_k sum_{j<=k} W_j x
    T_{k-j} with s_k = 1 / (2(k+1)), and G_{k+1} = T_k / (k+1), with T = G'.
    As W x T = T K(W) for the 3 x 3 K(W) = np.cross(W, I), the sum is the
    flat row (T_k, ..., T_0) times the stacked block-diagonal K_j =
    blockdiag(K(W_j) of each lane), j = 0..k, and K_j = skew G_j, with
    skew: G -> K(W) flattened.  One buffer keeps the orders reversed, slot
    i holding T_i and G_{i+1} entry by entry with the L lanes side by side,
    so that (T_k, ..., T_0) and (G_{k+1}, G_k, G_{k-1}) are both slices of
    stride 2.  The blocks are kept doubled: block row j holds [K_{j+1} |
    K_j].

    The orders go in pairs, three products for each even k:
    - (G_{k+1}, G_k, G_{k-1}) times one fixed map writes block rows k - 1
      and k, that is K_{k-1}, K_k and K_{k+1} (for k = 0 another map writes
      block row 0, and K_0 laid out as A_k's K_0 block reads it);
    - the row (T_k, ..., T_0) times block rows 0..k gives (R, S): R, the
      sum for T_{k+2} less its j = 0 term, and S, the sum for T_{k+1};
    - (R, S) times A_k writes slots k + 2 and k + 1: (T_{k+2}, T_{k+1}) =
      (s_{k+1} (R + T_{k+1} K_0), s_k S), and G_{k+3} and G_{k+2}, the
      same over k + 3 and k + 2.
    An expansion makes 36 such calls whatever L is, plus one multiply that
    fills the K_0 block of every A_k.  Each call writes every slot and
    block it reads before reading it.  Off the diagonal the blocks hold
    zeros, so a lane's values do not depend on what the other lanes hold as
    long as those are finite; L = 1 is the serial recurrence.

    The returned closure builds the work buffers and maps of a lane count
    on its first call with that count, and binds each pair of orders'
    operands (bound dot methods, views into the buffers) there.  Each call
    returns a fresh array, but the closure is not reentrant: use one closure
    per integration, as integrate_flow does."""
    a1, a2, a3 = params.a_vec
    w_of_g = np.array([[1.0, -a3, a2], [a3, 1.0, -a1], [-a2, a1, 1.0]])
    skew3 = _CROSS @ w_of_g  # [row, column, entry of G]
    ks = np.arange(0.0, ORDER, 2.0)  # the even k
    s_k, s_k1 = 0.5 / (ks + 1.0), 0.5 / (ks + 2.0)
    # per pair, A_k's scales of (T, G): in slot k + 2 from R, in slot k + 1
    # from S, and in slot k + 2 from S K_0
    a_diag = np.stack([np.stack([s_k1, s_k1 / (ks + 3.0)], 1),
                       np.stack([s_k, s_k / (ks + 2.0)], 1)], 1)
    k_0_scales = np.stack([s_k * s_k1, s_k * s_k1 / (ks + 3.0)], 1)

    def expansion(lanes):
        m = 3 * lanes  # entries per order
        # slot i holds T_i and G_{i+1} entry by entry, i = N..-2: slot -1
        # holds G_0, and the rest of slots -1 and -2 stays zero
        r = np.zeros(2 * m * (ORDER + 3))
        slots = r.reshape(ORDER + 3, lanes, 3, 2)
        t_0, g_1, g_0 = slots[ORDER, :, :, 0], slots[ORDER, :, :, 1], slots[ORDER + 1, :, :, 1]
        t_rows = slots[ORDER::-1, :, :, 0]  # row k: T_k
        g_rows = slots[ORDER:0:-1, :, :, 1]  # row k: G_{k+1}
        # rows m(j + 1)..m(j + 2): block row j; the first m rows: K_0 with
        # each column twice, for the (T, G) columns of A_k's K_0 block
        kk = np.empty(((ORDER + 1) * m, 2 * m))
        k_flat = kk.reshape(-1)
        sums = np.empty(2 * m)  # (R, S)
        sums_dot = sums.dot

        # skew on each lane's diagonal block: [row, column, entry]
        one = np.eye(lanes)
        diag = np.einsum("ij,ik,xyz->ixjykz", one, one, skew3).reshape(m, m, m)
        # the map of (G_{k+1}, G_k, G_{k-1}) to block rows k - 1 and k,
        # [block row k - 1 + b, row, half, column, input G_{k+1-o}, entry]
        pair_map = np.zeros((2, m, 2, m, 3, m))
        pair_map[1, :, 0, :, 0] = diag  # K_{k+1}
        pair_map[1, :, 1, :, 1] = diag  # K_k, in both block rows
        pair_map[0, :, 0, :, 1] = diag
        pair_map[0, :, 1, :, 2] = diag  # K_{k-1}
        first_map = pair_map.copy()  # for k = 0: K_0 twice, then block row 0
        first_map[0] = 0.0
        first_map[0].reshape(m, m, 2, 3, m)[:, :, :, 1] = diag[:, :, None]
        pair_dot, first_dot = (p.reshape(4 * m * m, 3 * m).dot for p in (pair_map, first_map))

        # per pair A_k, [R or S, entry, slot k + 2 or k + 1, entry, T or
        # G]; its K_0 block is filled on each call
        a_maps = np.zeros((ORDER // 2, 2, m, 2, m, 2))
        for h in (0, 1):
            a_maps[:, h, :, h] = np.eye(m)[:, :, None] * a_diag[:, None, None, h]
        a_k_0 = a_maps[:, 1, :, 0].reshape(ORDER // 2, m, 2 * m)
        k_0 = kk[:m]
        k_0_tiled = np.tile(k_0_scales, m)[:, None]

        def pair(k):
            # with slot k at r[i:i + 2m]
            i = 2 * m * (ORDER - k)
            return (r[i + 1:i + 6 * m:2], k_flat[2 * m * m * k:2 * m * m * (k + 2)],
                    r[i:i + 2 * m * (k + 1):2].dot, kk[m:m * (k + 2)],
                    a_maps[k // 2].reshape(2 * m, 4 * m), r[i - 4 * m:i])

        (first_g, first_k, *first), *rest = (pair(k) for k in range(0, ORDER, 2))
        steps = ((None, None, *first), *rest)

        def expand(y):
            t_0[:] = g_1[:] = y[:, 3:]
            g_0[:] = y[:, :3]
            first_dot(first_g, first_k)
            np.multiply(k_0, k_0_tiled, out=a_k_0)
            for g_pair, k_pair, row_dot, blocks, a_k, t_out in steps:
                if g_pair is not None:  # the first pair's blocks are built above
                    pair_dot(g_pair, k_pair)
                row_dot(blocks, sums)
                sums_dot(a_k, t_out)
            c = np.empty((ORDER + 1, lanes, 6))
            c[:, :, 3:] = t_rows
            c[0, :, :3] = y[:, :3]
            c[1:, :, :3] = g_rows
            return c

        return expand

    expansions = {}

    def taylor(s, y):
        expand = expansions.get(len(y))
        if expand is None:
            expand = expansions[len(y)] = expansion(len(y))
        return expand(y)

    return taylor


def make_initial_state(params: FlowParams, gp0, gpp0, s0: float = 0.0) -> FlowState:
    """Build the full state from Cauchy data (G', G'') at s0.

    G is recovered from W = s0 G' + 2 G' x G'' through the closed inverse
    (I + ad_a)^{-1} W = (W - a x W + a (a.W)) / (1 + a^2).
    """
    gp0 = np.asarray(gp0, dtype=float)
    gpp0 = np.asarray(gpp0, dtype=float)
    # a norm or product that overflows to inf or NaN fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        if not abs(np.linalg.norm(gp0) - 1.0) <= 1e-12:
            raise InconsistentCauchyDataError("G'(s0) must be a unit vector")
        if not abs(float(gp0 @ gpp0)) <= 1e-12 * max(1.0, np.linalg.norm(gpp0)):
            raise InconsistentCauchyDataError("G''(s0) must be orthogonal to G'(s0)")
        sigma_p0 = float(params.a_vec @ gp0)
        eps_implied = float(gpp0 @ gpp0) + sigma_p0
    if not abs(eps_implied - params.eps) <= 1e-12 * max(1.0, abs(params.eps)):
        raise InconsistentCauchyDataError(
            f"|G''|^2 + a.G' = {eps_implied} does not match eps = {params.eps}"
        )
    w = s0 * gp0 + 2.0 * np.cross(gp0, gpp0)
    a_vec = params.a_vec
    try:
        with np.errstate(over="raise", invalid="raise"):
            g = (w - np.cross(a_vec, w) + a_vec * float(a_vec @ w)) / (1.0 + params.a**2)
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(f"G(s0) overflows a float at a = {params.a:.6g}") from exc
    return FlowState(g, gp0.copy(), float(s0))


def _derived(params: FlowParams, s, y) -> dict:
    """FlowRun.sample's columns from Gpp on, for states y (..., 6) at s (a
    float array of y's leading shape).

    W = a x G + G is formed once, component by component as in make_rhs, and
    G'' = W x G' / 2.  eps = [(a^2 + 1)(G1^2 + G2^2) + G3^2 + 4 sigma' - s^2]
    / 4 (the axis is a e3) is conserved; |G'| = 1 and W.G' = s are
    propagated.  Sums of products run in np.sum's order, its +0.0 start
    included, so each value keeps the bits of the vector forms."""
    a_vec = params.a_vec
    a1, a2, a3 = a_vec
    g1, g2, g3, t1, t2, t3 = np.moveaxis(y, -1, 0)
    w1 = a2 * g3 - a3 * g2 + g1
    w2 = a3 * g1 - a1 * g3 + g2
    w3 = a1 * g2 - a2 * g1 + g3
    gpp = np.moveaxis(np.array([0.5 * (w2 * t3 - w3 * t2), 0.5 * (w3 * t1 - w1 * t3),
                                0.5 * (w1 * t2 - w2 * t1)]), 0, -1)
    sig, sig_p = y[..., :3] @ a_vec, y[..., 3:] @ a_vec
    c2 = params.eps - sig_p
    with np.errstate(divide="ignore", invalid="ignore"):
        T = np.where(c2 > C2_FLOOR, s / 2.0 + (s * sig_p - sig) / (4.0 * c2), np.nan)
    eps = 0.25 * ((params.a**2 + 1.0) * (g1 * g1 + g2 * g2) + g3 * g3 + 4.0 * sig_p - s**2)
    return {"Gpp": gpp, "sigma": sig, "sigma_p": sig_p, "sigma_pp": gpp @ a_vec,
            "C": np.sqrt(np.maximum(c2, 0.0)), "T": T,
            "unit_drift": np.abs(np.sqrt(t1 * t1 + t2 * t2 + t3 * t3) - 1.0),
            "eps_drift": eps - params.eps,
            "constraint_drift": 0.0 + w1 * t1 + w2 * t2 + w3 * t3 - s}


class FlowRun:
    """One flow solution: its two-sided dense trajectory with diagnostics.

    The readers take a scalar s or an array of s values.  plus_fits holds
    asympt.fit_tail's plus-tail fits by window, for a run whose two tails
    carry the same sigma' samples (sigma_p_even).
    """

    def __init__(self, params: FlowParams, traj: Trajectory):
        self.params = params
        self.traj = traj
        self.plus_fits = {}

    @property
    def s_min(self) -> float:
        return float(self.traj.s_nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.traj.s_nodes[-1])

    @property
    def sigma_p_even(self) -> bool:
        """Whether sigma'(-s) = sigma'(s) = a G3'(s) bit for bit: a mirror D
        that keeps G3' (the odd and mixed branches)."""
        return self.traj.mirror is not None and self.traj.mirror[5] > 0.0

    def state_y(self, s) -> np.ndarray:
        return self.traj.states_at(s)

    def g(self, s) -> np.ndarray:
        return self.state_y(s)[..., :3]

    def gp(self, s) -> np.ndarray:
        return self.state_y(s)[..., 3:]

    def sigma_jet(self, s) -> SigmaJet:
        """sample's sigma columns at s (floats for a scalar s)."""
        if self.params.a <= 0.0:
            raise ZeroAxisError("sigma jet undefined for a = 0")
        s = np.asarray(s, dtype=float)
        d = _derived(self.params, s, self.state_y(s))
        jet = (s, d["sigma"], d["sigma_p"], d["sigma_pp"])
        return SigmaJet(*(map(float, jet) if s.ndim == 0 else jet))

    def drift_diagnostics(self) -> dict:
        """Max deviations of the propagated invariants over integrator nodes
        (`<name>_drift_max`, sample's drift columns there) and the first node
        s of each (`<name>_drift_at`)."""
        s_all = self.traj.s_nodes
        d = _derived(self.params, s_all, self.traj.states)
        out = {}
        for name in ("unit", "constraint", "eps"):
            dev = np.abs(d[f"{name}_drift"])
            k = int(np.argmax(dev))
            out[f"{name}_drift_max"] = float(dev[k])
            out[f"{name}_drift_at"] = float(s_all[k])
        if self.params.a**2 > 0.0:  # a^2 underflows to 0 below a ~ 1e-162
            # monitored inequality (not enforced): sigma^2/a^2 - s^2
            #   + 4 sigma' - 4 eps stays <= 0 by Cauchy-Schwarz on a.G
            q = d["sigma"] ** 2 / self.params.a**2 - s_all**2 \
                + 4.0 * d["sigma_p"] - 4.0 * self.params.eps
            out["monitored_inequality_max"] = float(np.max(q))
        return out

    def sample(self, s) -> dict:
        """G, G', G'', the sigma jet, C, T and the three invariant drifts at s.

        For an array s every value is a column (G, G', G'' of shape (n, 3))
        and T is NaN where C^2 <= C2_FLOOR; for a scalar s the values are
        floats (G, G', G'' arrays of 3) and T is None there.
        """
        s = np.asarray(s, dtype=float)
        y = self.state_y(s)
        out = {"s": s, "G": y[..., :3], "Gp": y[..., 3:], **_derived(self.params, s, y)}
        if s.ndim == 0:
            out = {k: v if np.ndim(v) else float(v) for k, v in out.items()}
            if math.isnan(out["T"]):
                out["T"] = None
        return out


def _reflection(params: FlowParams, state0: FlowState, s_min: float, s_max: float):
    """The D = diag(P, -P) of _MIRRORS with state0.y == D state0.y exactly,
    for data at s = 0 on a span symmetric about it; None otherwise."""
    if not (state0.s == 0.0 and s_max > 0.0 and s_min == -s_max):
        return None
    y0 = state0.y
    for p in _MIRRORS:
        d = np.concatenate([p, -p])
        if (params.a == 0.0 or p[0] == p[1]) and np.array_equal(d * y0, y0):
            return d
    return None


def integrate_flow(params: FlowParams, state0: FlowState, s_min: float,
                   s_max: float, cfg: IntegratorConfig | None = None) -> FlowRun:
    """Integrate the flow from state0 over [s_min, s_max] (both directions;
    a RangeError unless state0.s lies in a non-empty span).

    Both paths make one odeint.integrate call.  A solution that is its own
    mirror image about s = 0 (see _reflection) is integrated over [0, s_max]
    only, and its minus leg is the plus leg mirrored; a StepUnderflowError
    then reports the plus-side s.  Otherwise the legs from state0.s advance
    in lockstep, as two lanes of each expansion."""
    d = _reflection(params, state0, s_min, s_max)
    taylor = make_taylor(params)
    if d is None:
        return FlowRun(params, integrate(taylor, state0.y, state0.s, s_min, s_max, cfg))
    plus = integrate(taylor, state0.y, 0.0, 0.0, s_max, cfg)
    return FlowRun(params, plus.with_mirror(d))


def curvature_torsion(run: FlowRun, s_values) -> list[CurvTorsSample]:
    """Curvature/torsion scaling samples C = sqrt(eps - sigma'),
    T = s/2 + (s sigma' - sigma) / (4 C^2), with T absent where C^2 is tiny."""
    smp = run.sample(np.atleast_1d(np.asarray(s_values, dtype=float)))
    T = smp["T"].tolist()
    if np.isnan(smp["T"]).any():
        T = [None if math.isnan(t) else t for t in T]
    return list(map(_curv_tors_sample, zip(smp["s"].tolist(), smp["C"].tolist(), T)))


def phi_accumulate(run: FlowRun, s0: float, s1: float) -> float:
    """Azimuth increment phi(s1) - phi(s0) by Gauss-Legendre quadrature of
    (a/2) (s sigma' - sigma) / (sigma'^2 - a^2) against dense output, on
    each trajectory segment that overlaps the interval; an IntegrandPoleError
    where sigma'^2 >= a^2 (1 - 1e-8) on a 0.02 grid or a node."""
    if run.params.a <= 0.0:
        raise ZeroAxisError("phi integral undefined for a = 0")
    if s0 == s1:
        return 0.0
    sign = 1.0
    lo, hi = s0, s1
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0
    nodes = run.traj.s_nodes
    k0 = max(int(np.searchsorted(nodes, lo, side="right")) - 1, 0)
    k1 = min(int(np.searchsorted(nodes, hi, side="left")), len(nodes) - 1)
    a_ = np.maximum(nodes[k0:k1], lo)
    b_ = np.minimum(nodes[k0 + 1:k1 + 1], hi)
    keep = b_ > a_
    mid = 0.5 * (a_ + b_)[keep]
    half = 0.5 * (b_ - a_)[keep]
    ss = mid[:, None] + half[:, None] * _GL_NODES
    grid = np.linspace(lo, hi, max(3, int(math.ceil((hi - lo) / 0.02)) + 1))
    s_all = np.concatenate([grid, ss.ravel()])
    y = run.state_y(s_all)
    a = run.params.a
    sig_p = y[:, 3:] @ run.params.a_vec
    hit = np.flatnonzero(sig_p**2 >= a**2 * (1.0 - 1e-8))
    if hit.size:
        raise IntegrandPoleError(f"phi integrand pole: |sigma'| -> a near s={s_all[hit[0]]}")
    sig = (y[grid.size:, :3] @ run.params.a_vec).reshape(ss.shape)
    sig_p = sig_p[grid.size:].reshape(ss.shape)
    f = 0.5 * a * (ss * sig_p - sig) / (sig_p**2 - a**2)
    return sign * float(np.sum(half * (f @ _GL_WEIGHTS)))


# Rodrigues' formula for the axis k = e3: its (3, 3) entry c + (1 - c) is
# not always 1.0, so an explicit 2 x 2 rotation would change filament files
def _rotation_about_e3(angle: float) -> np.ndarray:
    k = _E3
    c, s = math.cos(angle), math.sin(angle)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


def _filament_map(params: FlowParams, t: float):
    """sqrt(t) and the map from G(x / sqrt(t)) (n, 3) to the curve gamma(x, t)
    = sqrt(t) R((a/2) ln t) G(x / sqrt(t)) at t > 0, its rotation built once."""
    rt = math.sqrt(t)
    rot = _rotation_about_e3(0.5 * params.a * math.log(t))
    return rt, lambda g: rt * (g @ rot.T)


def reconstruct_filament(run: FlowRun, t_values, x_grid) -> list[tuple[float, np.ndarray]]:
    """Curves gamma(x, t) = sqrt(t) R((a/2) ln t) G(x / sqrt(t)) per t > 0.

    The CLI's filament command applies the same map (_filament_map) to the G
    column of the one FlowRun.sample read that also gives C and T, so its
    curves have the bits of this function's."""
    x_grid = np.asarray(x_grid, dtype=float)
    out = []
    for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
        if not t > 0.0:
            raise ConfigError("t values must be positive")
        rt, curve = _filament_map(run.params, t)
        out.append((float(t), curve(run.g(x_grid / rt))))
    return out


def hasimoto_psi(samples: list[CurvTorsSample]) -> np.ndarray:
    """Complex envelope psi = C exp(i integral_0^s T ds') on the sample grid.

    The phase is accumulated by the trapezoid rule along the samples and
    anchored to zero at s = 0 when the grid, ascending or descending,
    brackets it (otherwise at the first sample).
    """
    if not samples:
        return np.array([], dtype=complex)
    # a column at a time, faster than one table of samples; an absent T
    # (None) reads NaN
    s, C, T = (np.array(col, dtype=float) for col in zip(*samples))
    if np.all(C * C <= C2_FLOOR):
        return np.zeros(len(samples), dtype=complex)
    if np.isnan(T).any():
        raise VanishingCurvatureError(
            "torsion absent inside the sample range; phase undefined"
        )
    phase = np.concatenate([[0.0], np.cumsum(0.5 * (T[1:] + T[:-1]) * np.diff(s))])
    up = slice(None, None, 1 if s[0] <= s[-1] else -1)  # np.interp reads ascending s
    if s[up][0] <= 0.0 <= s[up][-1]:
        phase -= np.interp(0.0, s[up], phase[up])
    return C * np.exp(1j * phase)
