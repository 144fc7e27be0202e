"""Adaptive high-order Taylor-series integration with dense output.

Both ODEs of the package have polynomial right-hand sides, so their Taylor
coefficients follow from short Cauchy-product recurrences (Jorba & Zou, Exp.
Math. 14, 2005).  The caller supplies them as taylor(s, y) -> (N+1, dim)
array c with c[0] = y and y(s + t) = sum_k c[k] t^k; the integrator picks each
step from the last two coefficients and keeps the step's own polynomial as
dense output.  Every step is accepted.  The integrator is direction-agnostic
(s may decrease) and holds no global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceededError, RangeError, StepUnderflowError

__all__ = ["ORDER", "IntegratorConfig", "Trajectory", "integrate", "integrate_span"]

# degree of the Taylor polynomials the package's coefficient functions return
ORDER = 24

_SAFETY = 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


class Trajectory:
    """Dense solution record over [s_nodes[0], s_nodes[-1]], possibly two-sided.

    Nodes are stored in ascending s.  Segment k spans [s_nodes[k],
    s_nodes[k + 1]] and was taken as one Taylor step from its origin node
    origin[k] with signed width h[k]; coeffs[k] holds the (N+1, dim)
    coefficients of that step's polynomial in theta = (s - s_origin) / h,
    theta in [0, 1].  Node states are exact integrator output.
    """

    def __init__(self, s_nodes, states, origin, h, coeffs):
        self.s_nodes = s_nodes
        self.states = states
        self.origin = origin
        self.h = h
        self.coeffs = coeffs

    @property
    def n_steps(self) -> int:
        return len(self.h)

    @property
    def rhs_evals(self) -> int:
        """Taylor expansions taken: one per step."""
        return len(self.h)

    @property
    def n_rejected(self) -> int:
        """Always 0, since every Taylor step is accepted; kept because the
        benchmark's tracer (perfbench/tracing.py) reads it."""
        return 0

    @property
    def order(self) -> int:
        return self.coeffs.shape[1] - 1

    @staticmethod
    def join(minus: "Trajectory", plus: "Trajectory") -> "Trajectory":
        """The two-sided trajectory of a minus and a plus leg that share the
        node s_nodes[-1] == plus.s_nodes[0]."""
        shift = len(minus.s_nodes) - 1
        return Trajectory(
            np.concatenate([minus.s_nodes, plus.s_nodes[1:]]),
            np.concatenate([minus.states, plus.states[1:]]),
            np.concatenate([minus.origin, plus.origin + shift]),
            np.concatenate([minus.h, plus.h]),
            np.concatenate([minus.coeffs, plus.coeffs]),
        )

    def states_at(self, s_values) -> np.ndarray:
        """States at s (any shape; result shape s.shape + (dim,)).

        At a node the stored node state is returned exactly; elsewhere the
        polynomial of the containing segment is evaluated, one product per
        segment touched.  einsum, unlike BLAS, sums every point in the same
        order whatever else is in the batch, so a value does not depend on
        the other points read with it.
        """
        s = np.asarray(s_values, dtype=float)
        lo, hi = self.s_nodes[0], self.s_nodes[-1]
        if s.size and not (s.min() >= lo - 1e-12 and s.max() <= hi + 1e-12):
            raise RangeError(f"s outside trajectory span [{lo}, {hi}]")
        flat = np.clip(s.ravel(), lo, hi)
        k = np.minimum(np.searchsorted(self.s_nodes, flat, side="right") - 1,
                       self.n_steps - 1)
        perm = np.argsort(k, kind="stable")
        ks = k[perm]
        theta = (flat[perm] - self.s_nodes[self.origin[ks]]) / self.h[ks]
        # powers[j] = theta^j, one row per power so each product runs along
        # contiguous points
        powers = np.empty((self.order + 1, flat.size))
        powers[0] = 1.0
        for j in range(1, self.order + 1):
            np.multiply(powers[j - 1], theta, out=powers[j])
        dim = self.states.shape[1]
        y_t = np.empty((dim, flat.size))
        starts = np.flatnonzero(np.diff(ks, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [flat.size]):
            np.einsum("jm,jd->dm", powers[:, a:b], self.coeffs[ks[a]], out=y_t[:, a:b])
        y = np.empty((flat.size, dim))
        y[perm] = y_t.T
        left = flat == self.s_nodes[k]
        right = flat == self.s_nodes[k + 1]
        y[left] = self.states[k[left]]
        y[right] = self.states[k[right] + 1]
        return y.reshape(s.shape + (dim,))

    def state_at(self, s: float) -> np.ndarray:
        return self.states_at(float(s))


def integrate(taylor, state0, s_from, s_to, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the ODE whose Taylor expansion about (s, y) is taylor(s, y)
    from s_from to s_to with dense output.

    Each step of an order-N expansion c has width
    h = 0.9 min_{j in {N-1, N}} (tol / |c_j|)^(1/j), tol = abs_tol +
    rel_tol |y|_inf, clipped to the end of the span.  Raises
    StepUnderflowError when the step collapses (suspected pole) and
    MaxStepsExceededError when the step budget runs out.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    s_from = float(s_from)
    s_to = float(s_to)
    if s_from == s_to:
        raise ValueError("s_from and s_to must differ")
    y = np.asarray(state0, dtype=float).copy()
    direction = 1.0 if s_to > s_from else -1.0

    s = s_from
    s_nodes = [s]
    states = [y]
    coeffs = []
    for _ in range(cfg.max_steps):
        if (s - s_to) * direction >= 0.0:
            break
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            c = taylor(s, y)
            n = len(c) - 1
            tol = cfg.abs_tol + cfg.rel_tol * np.max(np.abs(y))
            h = _SAFETY * min((tol / np.max(np.abs(c[j]))) ** (1.0 / j)
                              for j in (n - 1, n))
        if h >= abs(s_to - s):
            s_new = s_to
        elif h >= 16.0 * np.finfo(float).eps * max(abs(s), 1.0):
            s_new = s + direction * h
        else:
            raise StepUnderflowError(
                f"step underflow at s={s}: suspected solution pole", s=s
            )
        # coefficients in theta over the stored (signed) width
        d = c * (s_new - s) ** np.arange(n + 1)[:, None]
        y = d.sum(axis=0)
        coeffs.append(d)
        s_nodes.append(s_new)
        states.append(y)
        s = s_new
    else:
        raise MaxStepsExceededError(
            f"max_steps={cfg.max_steps} exceeded at s={s} (target {s_to})"
        )

    s_nodes = np.array(s_nodes)
    states = np.array(states)
    coeffs = np.array(coeffs)
    h = np.diff(s_nodes)
    origin = np.arange(len(h))
    if direction < 0.0:
        # ascending storage; each step starts at its right end
        s_nodes, states, coeffs, h = s_nodes[::-1], states[::-1], coeffs[::-1], h[::-1]
        origin = origin + 1
    return Trajectory(s_nodes, states, origin, h, coeffs)


def integrate_span(taylor, state0, s0, s_min, s_max,
                   cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from (s0, state0) to both ends of [s_min, s_max] and join
    the legs into one trajectory."""
    if not (s_min <= s0 <= s_max and s_min < s_max):
        raise ValueError("need s_min <= s0 <= s_max and s_min < s_max")
    legs = [integrate(taylor, state0, s0, end, cfg)
            for end in (s_min, s_max) if end != s0]
    return legs[0] if len(legs) == 1 else Trajectory.join(*legs)
