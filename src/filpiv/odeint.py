"""Adaptive embedded Runge-Kutta 5(4) integration with dense output.

Dormand-Prince pair with PI step-size control and the standard quartic
continuous extension.  The integrator is direction-agnostic (s may decrease)
and holds no global state, so concurrent integrations are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceededError, RangeError, StepUnderflowError

__all__ = ["IntegratorConfig", "Trajectory", "integrate", "integrate_span"]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - b_embedded, for the local error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# quartic dense-output interpolant (rows: stages, columns: theta powers 1..4)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_ORDER = 5
_ERR_EXP = -0.7 / _ORDER  # PI controller exponents
_ERR_EXP_PREV = 0.4 / _ORDER
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

_BLOCK = 4096  # dense-output points evaluated per batch


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be > 0")


class Trajectory:
    """Dense solution record over [s_nodes[0], s_nodes[-1]], possibly two-sided.

    Nodes are stored in ascending s.  Segment k spans [s_nodes[k],
    s_nodes[k + 1]] and was taken as one integrator step from its origin node
    origin[k] with signed width h[k]; q[k] holds the (dim, 4) coefficients of
    the quartic continuous extension of the 5(4) pair (locally O(h^5)
    accurate).  Node states are exact integrator output.
    """

    def __init__(self, s_nodes, states, origin, h, q, rhs_evals, n_rejected):
        self.s_nodes = s_nodes
        self.states = states
        self.origin = origin
        self.h = h
        self.q = q
        self.rhs_evals = rhs_evals
        self.n_rejected = n_rejected

    @property
    def n_steps(self) -> int:
        return len(self.h)

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
            np.concatenate([minus.q, plus.q]),
            minus.rhs_evals + plus.rhs_evals,
            minus.n_rejected + plus.n_rejected,
        )

    def states_at(self, s_values) -> np.ndarray:
        """States at s (any shape; result shape s.shape + (dim,)).

        At a node the stored node state is returned exactly; elsewhere the
        continuous extension of the containing segment is evaluated.
        """
        s = np.asarray(s_values, dtype=float)
        lo, hi = self.s_nodes[0], self.s_nodes[-1]
        if s.size and not (s.min() >= lo - 1e-12 and s.max() <= hi + 1e-12):
            raise RangeError(f"s outside trajectory span [{lo}, {hi}]")
        flat = np.clip(s.ravel(), lo, hi)
        out = np.empty((flat.size, self.states.shape[1]))
        # blocks bound the (n, dim, 4) coefficient gather
        for i in range(0, flat.size, _BLOCK):
            out[i:i + _BLOCK] = self._eval(flat[i:i + _BLOCK])
        return out.reshape(s.shape + (-1,))

    def state_at(self, s: float) -> np.ndarray:
        return self.states_at(float(s))

    def _eval(self, s: np.ndarray) -> np.ndarray:
        # s lies in [s_nodes[0], s_nodes[-1]], so only the top end needs a clamp
        k = np.minimum(np.searchsorted(self.s_nodes, s, side="right") - 1, self.n_steps - 1)
        org = self.origin[k]
        h = self.h[k]
        theta = (s - self.s_nodes[org]) / h
        powers = np.stack([theta, theta**2, theta**3, theta**4], axis=1)
        y = self.states[org] + h[:, None] * np.einsum("kij,kj->ki", self.q[k], powers)
        left = s == self.s_nodes[k]
        right = s == self.s_nodes[k + 1]
        y[left] = self.states[k[left]]
        y[right] = self.states[k[right] + 1]
        return y


def _error_norm(err, y0, y1, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs, s0, y0, f0, direction, cfg, max_step):
    d0 = np.linalg.norm(y0 / (cfg.abs_tol + cfg.rel_tol * np.abs(y0)))
    d1 = np.linalg.norm(f0 / (cfg.abs_tol + cfg.rel_tol * np.abs(y0)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(s0 + h0 * direction, y1)
    d2 = np.linalg.norm((f1 - f0) / (cfg.abs_tol + cfg.rel_tol * np.abs(y0))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100 * h0, h1, max_step)


def integrate(rhs, state0, s_from, s_to, cfg: IntegratorConfig | None = None,
              max_step_fn=None) -> Trajectory:
    """Integrate y' = rhs(s, y) from s_from to s_to with dense output.

    max_step_fn, if given, caps the step size as a function of the current s
    (used by the flow module to resolve the s^2/4 oscillation in the tails).
    Raises StepUnderflowError when the step collapses (suspected pole) and
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
    span = abs(s_to - s_from)

    def step_cap(s):
        cap = min(cfg.max_step, span)
        if max_step_fn is not None:
            cap = min(cap, float(max_step_fn(s)))
        return cap

    s = s_from
    f = np.asarray(rhs(s, y), dtype=float)
    rhs_evals = 1
    h = min(_initial_step(rhs, s, y, f, direction, cfg, step_cap(s)), step_cap(s))
    rhs_evals += 1

    s_nodes = [s]
    states = [y.copy()]
    dense_q = []
    n_rejected = 0
    err_prev = 1e-4
    k_stages = np.empty((7, y.size))

    for _ in range(cfg.max_steps):
        if (s - s_to) * direction >= 0.0:
            break
        h = min(h, step_cap(s))
        if h < 16.0 * np.finfo(float).eps * max(abs(s), 1.0):
            raise StepUnderflowError(
                f"step underflow at s={s}: suspected solution pole", s=s
            )
        # do not overshoot the end point
        if (s + direction * h - s_to) * direction > 0.0:
            h = abs(s_to - s)

        k_stages[0] = f
        for i in range(1, 7):
            yi = y + direction * h * (k_stages[:i].T @ _A[i])
            k_stages[i] = rhs(s + direction * h * _C[i], yi)
        rhs_evals += 6
        y_new = y + direction * h * (k_stages.T @ _B)
        err_vec = direction * h * (k_stages.T @ _E)
        err = _error_norm(err_vec, y, y_new, cfg)

        if err <= 1.0:
            factor = _SAFETY * (max(err, 1e-10) ** _ERR_EXP) * (err_prev ** _ERR_EXP_PREV)
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            dense_q.append(k_stages.T @ _P)
            s_new = s_to if (s + direction * h - s_to) * direction >= 0.0 else s + direction * h
            s_nodes.append(s_new)
            states.append(y_new.copy())
            s, y = s_new, y_new
            f = k_stages[6].copy()  # FSAL
            err_prev = max(err, 1e-10)
            h *= factor
        else:
            n_rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            h *= min(1.0, factor)
    else:
        raise MaxStepsExceededError(
            f"max_steps={cfg.max_steps} exceeded at s={s} (target {s_to})"
        )

    s_nodes = np.array(s_nodes)
    states = np.array(states)
    q = np.array(dense_q)
    h = np.diff(s_nodes)
    origin = np.arange(len(h))
    if direction < 0.0:
        # ascending storage; each step starts at its right end
        s_nodes, states, q, h = s_nodes[::-1], states[::-1], q[::-1], h[::-1]
        origin = origin + 1
    return Trajectory(s_nodes, states, origin, h, q, rhs_evals, n_rejected)


def integrate_span(rhs, state0, s0, s_min, s_max, cfg: IntegratorConfig | None = None,
                   max_step_fn=None) -> Trajectory:
    """Integrate from (s0, state0) to both ends of [s_min, s_max] and join
    the legs into one trajectory."""
    if not (s_min <= s0 <= s_max and s_min < s_max):
        raise ValueError("need s_min <= s0 <= s_max and s_min < s_max")
    legs = [integrate(rhs, state0, s0, end, cfg, max_step_fn)
            for end in (s_min, s_max) if end != s0]
    return legs[0] if len(legs) == 1 else Trajectory.join(*legs)
