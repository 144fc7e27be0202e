"""Adaptive high-order Taylor-series integration with dense output.

Both ODEs of the package have polynomial right-hand sides, so their Taylor
coefficients follow from short Cauchy-product recurrences (Jorba & Zou, Exp.
Math. 14, 2005).  The caller supplies them for a batch of L lanes as
taylor(s, y) -> C-ordered (N+1, L, dim) array c, for one float of s and one
row of y (L, dim) per lane, with c[0] = y and y_l(s_l + t) = sum_k c[k, l]
t^k; the integrator picks each lane's step from its last two coefficients
and keeps the step's own polynomial as dense output.  Every step is
accepted.  The integrator is direction-agnostic (s may decrease) and holds
no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceededError, RangeError, StepUnderflowError

__all__ = ["ORDER", "IntegratorConfig", "Trajectory", "integrate"]

# degree N of the Taylor polynomials every coefficient function returns
ORDER = 24

_SAFETY = 0.9

# the rows of an expansion the step rule reads: y and the last two
_STEP_ROWS = np.array([0, ORDER - 1, ORDER])

# the floor of the step tolerance abs + rel |y|_inf: the flow's |y|_inf is at
# least |G'|_inf >= 1/sqrt 3, so at rel = 1e-12 the floor is under 2% of it
_ABS_TOL = 1e-14

# points evaluated per block of a states_at read, whose temporaries take
# about 0.3 KB per point: about 1.3 MB a block
_READ_BLOCK = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    """The relative step tolerance and the step budget, which holds per leg:
    a leg that takes exactly max_steps steps is integrated, one that needs
    more raises MaxStepsExceededError, and an integration from inside its
    span may take max_steps steps on each side.  The budget bounds memory
    too: a flow run keeps 1.2 KB of coefficients per step integrated and
    peaks at about 1.4 KB per such step, so the default admits about 2.8 GB
    mirrored (one leg integrated) and 5.5 GB with two legs."""

    rel_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


class Trajectory:
    """Dense solution record over [s_nodes[0], s_nodes[-1]], possibly two-sided.

    Nodes are stored in ascending s.  Segment k spans [s_nodes[k],
    s_nodes[k + 1]] and was taken as one Taylor step with signed width h[k]
    from its origin node: s_nodes[k] for h[k] > 0, s_nodes[k + 1] for h[k] <
    0.  coeffs holds per leg, minus leg first and in segment order, the
    (n, N+1, dim) array of its steps' polynomials in theta = (s - s_origin)
    / h, theta in [0, 1], kept once as integrate read it; mirror is None or
    the signs of with_mirror.  Node states are exact integrator output.
    """

    def __init__(self, s_nodes, states, h, coeffs, mirror=None):
        self.s_nodes = s_nodes
        self.states = states
        self.h = h
        self.coeffs = coeffs
        self.mirror = mirror

    @property
    def n_steps(self) -> int:
        return len(self.h)

    @property
    def n_steps_minus(self) -> int:
        """Steps taken towards decreasing s."""
        return int(np.count_nonzero(self.h < 0.0))

    # Taylor expansions taken: one per step
    rhs_evals = n_steps

    @property
    def n_rejected(self) -> int:
        """Always 0, since every Taylor step is accepted; kept because the
        benchmark's tracer (perfbench/tracing.py) reads it."""
        return 0

    @property
    def order(self) -> int:
        return self.coeffs[0].shape[1] - 1

    def with_mirror(self, d) -> "Trajectory":
        """This leg, which starts at s = 0, joined to its exact mirror image
        y(-s) = d * y(s) for a vector of signs d: nodes -s[::-1], states
        (d * y)[::-1], widths -h[::-1] and the leg's own coefficients read
        in reverse, as theta runs over the signed width from the mirrored
        origin, with d applied by states_at.  The leg's own node s = 0 is
        kept; the mirror's holds -0.0 where d flips a sign."""
        (c,) = self.coeffs
        states = np.concatenate([self.states[:0:-1], self.states])
        states[:self.n_steps] *= d
        return Trajectory(np.concatenate([-self.s_nodes[:0:-1], self.s_nodes]), states,
                          np.concatenate([-self.h[::-1], self.h]), (c[::-1], c), d)

    def states_at(self, s_values) -> np.ndarray:
        """States at s (any shape; result shape s.shape + (dim,)).

        At a node the stored node state is returned exactly; elsewhere the
        polynomial of the containing segment is evaluated, one product per
        segment touched, and times d on a mirrored run's minus side.  einsum,
        unlike BLAS, sums every point in the same order whatever else is in
        the batch, so a value does not depend on the other points read with
        it.  That lets the points, sorted by segment, go _READ_BLOCK at a
        time: a read holds its result, 16 bytes of sort keys per point and
        one block's temporaries.
        """
        s = np.asarray(s_values, dtype=float)
        lo, hi = self.s_nodes[0], self.s_nodes[-1]
        if s.size and not (s.min() >= lo - 1e-12 and s.max() <= hi + 1e-12):
            raise RangeError(f"s outside trajectory span [{lo}, {hi}]")
        flat = s.ravel()
        # the segment of each point, the end ones taking the points beyond
        k = np.searchsorted(self.s_nodes[1:-1], flat, side="right")
        perm = np.argsort(k, kind="stable")
        y = np.empty((flat.size, self.states.shape[1]))
        for start in range(0, flat.size, _READ_BLOCK):
            self._evaluate(flat, k, perm[start:start + _READ_BLOCK], y)
        return y.reshape(s.shape + y.shape[1:])

    def _evaluate(self, flat, k, idx, y) -> None:
        """Write y[idx], the states at the points flat[idx] of the segments
        k[idx], for indices idx sorted by segment."""
        ks = k[idx]
        x = np.clip(flat[idx], self.s_nodes[0], self.s_nodes[-1])
        h = self.h[ks]
        theta = (x - self.s_nodes[ks + (h < 0.0)]) / h
        # powers[j] = theta^j, one row per power so each product runs along
        # contiguous points
        powers = np.empty((self.order + 1, idx.size))
        powers[0] = 1.0
        for j in range(1, self.order + 1):
            np.multiply(powers[j - 1], theta, out=powers[j])
        y_t = np.empty((y.shape[1], idx.size))
        n_first = len(self.coeffs[0])  # the first leg's segments, which lead ks
        starts = np.flatnonzero(np.diff(ks, prepend=-1))
        runs = zip(starts.tolist(), starts[1:].tolist() + [idx.size], ks[starts].tolist())
        for a, b, seg in runs:
            leg, seg = (0, seg) if seg < n_first else (1, seg - n_first)
            np.einsum("jm,jd->dm", powers[:, a:b], self.coeffs[leg][seg], out=y_t[:, a:b])
        if self.mirror is not None:
            y_t[:, :ks.searchsorted(n_first)] *= self.mirror[:, None]
        y_s = y_t.T
        left = x == self.s_nodes[ks]
        right = x == self.s_nodes[ks + 1]
        y_s[left] = self.states[ks[left]]
        y_s[right] = self.states[ks[right] + 1]
        y[idx] = y_s


def integrate(taylor, state0, s0, s_min, s_max, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the ODE whose Taylor expansion about (s, y) is taylor(s, y)
    from (s0, state0) to both ends of [s_min, s_max] with dense output; a
    RangeError unless s_min <= s0 <= s_max and s_min < s_max.  From an end
    of the span there is one leg; from inside it the minus and plus legs
    are two lanes of one integration, joined into one trajectory.

    One loop advances the lanes in lockstep.  Each iteration expands every
    lane that has not reached its end in one call, taylor(s, y) with one
    float of s and one row of y per lane, which returns a C-ordered (N+1, L,
    dim) array c.  Each lane's step is h = 0.9 min_{j in {N-1, N}} (tol /
    |c_j|)^(1/j), tol = _ABS_TOL + rel_tol |y|_inf, clipped to the end of
    its leg (a vanishing c_j bounds no step); one product and one sum over
    the orders then step every lane, and a lane leaves the batch at its end.
    Raises StepUnderflowError when a lane's step collapses (suspected pole,
    or a NaN state) and MaxStepsExceededError when a leg needs more than
    cfg.max_steps steps, each with that lane's s.
    """
    if not (s_min <= s0 <= s_max and s_min < s_max):
        raise RangeError("need s_min <= s0 <= s_max and s_min < s_max")
    if cfg is None:
        cfg = IntegratorConfig()
    s0 = float(s0)
    ends = [float(end) for end in (s_min, s_max) if end != s0]
    y = np.array([state0] * len(ends), dtype=float)
    dim = y.shape[1]
    # per lane: its nodes, the bytes of its coefficient blocks (a bytearray
    # grows geometrically, and refuses to while a view of it exists) and its
    # last state
    nodes = [[s0] for _ in ends]
    coeffs = [bytearray() for _ in ends]
    last = [None] * len(ends)
    lanes, s = list(range(len(ends))), [s0] * len(ends)  # the batch
    powers = np.arange(ORDER + 1.0)[:, None]
    root_prev, root_last = 1.0 / (ORDER - 1), 1.0 / ORDER
    min_step = 16.0 * float(np.finfo(float).eps)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while lanes:
            c = taylor(s, y)
            # per lane |c_0|_inf, |c_{N-1}|_inf, |c_N|_inf as floats (NaN
            # propagates); a zero row bounds no step, and tol * inf keeps a
            # NaN tol
            m_y, m_prev, m_last = np.maximum.reduce(np.abs(c.take(_STEP_ROWS, axis=0)), 2).tolist()
            s_next, widths = [], []  # per lane, as Python floats
            for j, lane in enumerate(lanes):
                tol = _ABS_TOL + cfg.rel_tol * m_y[j]
                h = _SAFETY * min((tol / m_prev[j]) ** root_prev if m_prev[j] else tol * math.inf,
                                  (tol / m_last[j]) ** root_last if m_last[j] else tol * math.inf)
                s_j, end = s[j], ends[lane]
                if h >= abs(end - s_j):
                    s_new = end
                elif h >= min_step * max(abs(s_j), 1.0):
                    s_new = s_j + math.copysign(h, end - s_j)
                else:
                    raise StepUnderflowError(
                        f"step underflow at s={s_j}: suspected solution pole", s=s_j
                    )
                s_next.append(s_new)
                widths.append(s_new - s_j)
            # the coefficients in theta over each lane's signed width; with c
            # C-ordered, the sum adds the orders one after the other
            d = c * (np.array(widths) ** powers)[:, :, None]
            y = np.add.reduce(d, 0)
            going = []  # the lanes that stay in the batch, in its order
            for j, lane in enumerate(lanes):
                coeffs[lane] += d[:, j].tobytes()
                nodes[lane].append(s_next[j])
                if s_next[j] == ends[lane]:
                    last[lane] = y[j]
                elif len(nodes[lane]) > cfg.max_steps:
                    raise MaxStepsExceededError(
                        f"max_steps={cfg.max_steps} exceeded at s={s_next[j]} (target {ends[lane]})"
                    )
                else:
                    going.append(j)
            s = s_next
            if len(going) < len(lanes):
                lanes, s, y = [lanes[j] for j in going], [s[j] for j in going], y[going]

    legs = []
    for lane, end in enumerate(ends):
        c = np.frombuffer(coeffs[lane]).reshape(-1, ORDER + 1, dim)
        s_nodes = np.array(nodes[lane])
        # a step's first coefficient row is the state at its origin
        states = np.concatenate([c[:, 0], last[lane][None]])
        h = np.diff(s_nodes)
        if end < s0:
            # ascending storage; each step starts at its right end
            s_nodes, states, c, h = s_nodes[::-1], states[::-1], c[::-1], h[::-1]
            if len(ends) > 1:  # the plus leg's copy of the node s0 is kept
                s_nodes, states = s_nodes[:-1], states[:-1]
        legs.append((s_nodes, states, h, c))
    if len(legs) == 1:
        s_nodes, states, h, c = legs[0]
        return Trajectory(s_nodes, states, h, (c,))
    s_nodes, states, h, c = zip(*legs)
    return Trajectory(np.concatenate(s_nodes), np.concatenate(states), np.concatenate(h), c)
