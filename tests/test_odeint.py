"""Integrator tests: exact solutions, conservation, the step-size rule, dense
output."""

import math
import tracemalloc

import numpy as np
import pytest

from filpiv import flow, odeint, symmetric
from filpiv.odeint import ORDER, IntegratorConfig, integrate
from filpiv.errors import MaxStepsExceededError, RangeError, StepUnderflowError


def expansion(next_coeff):
    """Coefficient function of the recurrence c[k + 1] = next_coeff(c, k, s),
    run on one lane at a time: s holds one float per row of y."""
    def lane(s, y):
        c = np.zeros((ORDER + 1, len(y)))
        c[0] = y
        for k in range(ORDER):
            c[k + 1] = next_coeff(c, k, s)
        return c

    def taylor(s, y):
        return np.stack([lane(s_l, y_l) for s_l, y_l in zip(s, y)], axis=1)
    return taylor


decay = expansion(lambda c, k, s: -c[k] / (k + 1))                   # y' = -y
harmonic = expansion(lambda c, k, s: np.array([c[k, 1], -c[k, 0]]) / (k + 1))
square = expansion(lambda c, k, s: c[:k + 1, 0] @ c[k::-1, 0] / (k + 1))  # y' = y^2

# harmonic's system y' = J y with every lane in one product: c_k = J^k y / k!
_J_POWERS = np.array([np.linalg.matrix_power([[0.0, 1.0], [-1.0, 0.0]], k) / math.factorial(k)
                      for k in range(ORDER + 1)])


def linear(s, y):
    return np.einsum("kij,lj->kli", _J_POWERS, y)


def _forcing(s, k):
    # Taylor coefficient k about s of the forcing f(s) = s - s^3 / 20
    return (s - s**3 / 20.0, 1.0 - 3.0 * s * s / 20.0, -3.0 * s / 20.0, -1.0 / 20.0,
            0.0)[min(k, 4)]


# x'' = -x - 0.3 x' + f(s)
forced = expansion(lambda c, k, s: np.array(
    [c[k, 1], -c[k, 0] - 0.3 * c[k, 1] + _forcing(s, k)]) / (k + 1))


def serial_join(legs):
    """The arrays integrate's trajectory holds, from its one-leg runs of each
    side of s0 (minus first): the legs share the node s0, whose plus-leg
    copy is kept, and each keeps its own coefficient array."""
    cut = [slice(None, -1)] * (len(legs) - 1) + [slice(None)]
    return {"s_nodes": np.concatenate([leg.s_nodes[k] for leg, k in zip(legs, cut)]),
            "states": np.concatenate([leg.states[k] for leg, k in zip(legs, cut)]),
            "h": np.concatenate([leg.h for leg in legs]),
            "coeffs": [leg.coeffs[0] for leg in legs]}


def owned_bytes(traj):
    """Bytes of the buffers traj's arrays keep, a view's base counted once."""
    owners = {}
    for array in (traj.s_nodes, traj.states, traj.h, *traj.coeffs):
        owner = array if array.base is None else array.base
        owners[id(owner)] = memoryview(owner).nbytes
    return sum(owners.values())


class TestBasics:
    def test_exponential_decay(self):
        cfg = IntegratorConfig(rel_tol=1e-10)
        traj = integrate(decay, np.array([1.0]), 0.0, 0.0, 1.0, cfg)
        assert abs(traj.states_at(1.0)[0] - math.exp(-1.0)) < 10 * cfg.rel_tol

    def test_backward_direction(self):
        cfg = IntegratorConfig(rel_tol=1e-10)
        traj = integrate(decay, np.array([1.0]), 0.0, -1.0, 0.0, cfg)
        assert abs(traj.states_at(-1.0)[0] - math.exp(1.0)) < 10 * cfg.rel_tol * math.e

    def test_harmonic_energy_100_periods(self):
        cfg = IntegratorConfig(rel_tol=1e-12)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 0.0, 200 * math.pi, cfg)
        energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) <= 1e-9

    @pytest.mark.parametrize("spare, span", [(0, (0.0, 30.0)), (-1, (0.0, 30.0)),
                                             (0, (-20.0, 30.0)), (-1, (-20.0, 30.0))],
                             ids=["budget_n", "budget_n_minus_1", "two_legs_budget_n",
                                  "two_legs_budget_n_minus_1"])
    def test_max_steps_exceeded(self, spare, span):
        # a leg that takes n steps runs on a budget of exactly n steps and
        # raises on n - 1; the budget of a two-leg span holds per leg
        y0 = np.array([1.0, 0.0])

        def run(cfg):
            return integrate(harmonic, y0, 0.0, *span, cfg)

        traj = run(IntegratorConfig(rel_tol=1e-10))
        n = max(traj.n_steps_minus, traj.n_steps - traj.n_steps_minus)
        cfg = IntegratorConfig(rel_tol=1e-10, max_steps=n + spare)
        if spare < 0:
            with pytest.raises(MaxStepsExceededError):
                run(cfg)
        else:
            assert run(cfg).n_steps == traj.n_steps

    def test_pole_triggers_step_underflow(self):
        # y' = y^2 blows up at s = 1; a NaN state gives a NaN step at once
        cfg = IntegratorConfig(rel_tol=1e-10, max_steps=100000)
        for taylor, y0, s_end in ((square, [1.0], 1.0), (harmonic, [math.nan, 0.0], 0.0)):
            with pytest.raises(StepUnderflowError) as exc:
                integrate(taylor, np.array(y0), 0.0, 0.0, 2.0, cfg)
            assert exc.value.s == pytest.approx(s_end, abs=1e-9)

    @pytest.mark.parametrize("y0, s_pole", [(1.0, 1.0), (-1.0, -1.0)], ids=["plus", "minus"])
    def test_step_underflow_in_either_leg(self, y0, s_pole):
        # y' = y^2 from y(0) = 1 / (-s_pole) blows up at s_pole on one leg
        # and decays on the other; the error carries the failing leg's s
        cfg = IntegratorConfig(rel_tol=1e-10, max_steps=100000)
        with pytest.raises(StepUnderflowError) as exc:
            integrate(square, np.array([y0]), 0.0, -2.0, 2.0, cfg)
        assert exc.value.s == pytest.approx(s_pole, abs=1e-9)

    def test_two_legs_match_serial_legs(self):
        # toy expansions compute each lane on its own, so the lockstep legs
        # are the serial legs bit for bit, with the same steps
        cfg = IntegratorConfig(rel_tol=1e-10)
        for taylor, y0 in ((harmonic, [1.0, 0.0]), (forced, [0.2, -0.1])):
            y0 = np.array(y0)
            both = integrate(taylor, y0, 0.5, -7.0, 12.0, cfg)
            minus = integrate(taylor, y0, 0.5, -7.0, 0.5, cfg)
            plus = integrate(taylor, y0, 0.5, 0.5, 12.0, cfg)
            n = both.n_steps_minus
            assert (n, both.n_steps - n) == (minus.n_steps, plus.n_steps)
            serial = serial_join([minus, plus])
            for name in ("s_nodes", "states", "h"):
                assert np.array_equal(getattr(both, name), serial[name])
            assert len(both.coeffs) == 2
            for mine, theirs in zip(both.coeffs, serial["coeffs"]):
                assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("s0", [-7.0, 0.5, 12.0], ids=["at_s_min", "inside", "at_s_max"])
    @pytest.mark.parametrize("system", ["linear", "flow"])
    def test_one_entry_point(self, system, s0):
        # from an end of the span integrate runs one leg, from inside it two
        # lanes; either way the trajectory covers exactly [s_min, s_max],
        # holds s0 as a node, and each side takes the steps of the one-leg
        # integration of that side: bit for bit for the toy, whose lanes
        # share no sum, and to rounding for the flow, whose lanes share each
        # product
        if system == "linear":
            taylor, y0 = linear, np.array([1.0, 0.0])
        else:
            p = flow.FlowParams(1.0, 1.05)
            taylor = flow.make_taylor(p)
            y0 = flow.make_initial_state(p, [0.6, 0.0, 0.8], [0.0, 0.5, 0.0], s0).y
        cfg = IntegratorConfig(rel_tol=1e-10)
        traj = integrate(taylor, y0, s0, -7.0, 12.0, cfg)
        assert (traj.s_nodes[0], traj.s_nodes[-1]) == (-7.0, 12.0)
        assert s0 in traj.s_nodes.tolist()
        legs = [integrate(taylor, y0, s0, lo, hi, cfg)
                for lo, hi in ((-7.0, s0), (s0, 12.0)) if lo < hi]
        serial = serial_join(legs)
        assert (traj.n_steps, traj.n_steps_minus) == (
            len(serial["h"]), np.count_nonzero(serial["h"] < 0.0))
        tol = 0.0 if system == "linear" else 1e-12
        for name in ("s_nodes", "states", "h"):
            assert np.max(np.abs(getattr(traj, name) - serial[name])) <= tol
        assert len(traj.coeffs) == len(legs)
        for mine, theirs in zip(traj.coeffs, serial["coeffs"]):
            assert np.max(np.abs(mine - theirs)) <= tol

    def test_coefficient_memory(self):
        # each lane appends its blocks to a bytearray, which grows by about
        # 1/8 when full and is read once at the end; a two-leg run keeps
        # both legs' arrays as they are, and a mirrored run keeps its plus
        # leg's blocks once.  Peaks of traced memory over the bytes the
        # trajectory owns, measured: 1.11, 1.13 and 1.10 on one leg of
        # 4,126, 8,230 and 10,744 steps, 1.11 mirrored and 1.14 on two legs.
        # The bounds fail a buffer that doubles when full (2.07 over the
        # coefficients just past a doubling), a mirror written out next to
        # the plus leg (1.54) and legs copied into joined arrays (2.09)
        def peak_ratio(run):
            tracemalloc.start()
            try:
                traj = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return traj, peak / owned_bytes(traj)

        for span, n_steps in [(19_200.0, 4_126), (38_300.0, 8_230), (50_000.0, 10_744)]:
            traj, ratio = peak_ratio(lambda: integrate(linear, np.array([1.0, 0.0]), 0.0, 0.0,
                                                       span, IntegratorConfig(rel_tol=1e-6)))
            assert traj.n_steps == n_steps
            assert ratio <= 1.2
        p = flow.FlowParams(3e3, 0.3)
        st = symmetric.make_symmetric_ic(p, "odd")
        for s_max, n_steps, bound in [(40.0, 2 * 2_849, 1.2), (40.5, 5_733, 1.25)]:
            traj, ratio = peak_ratio(lambda: flow.integrate_flow(p, st, -40.0, s_max).traj)
            assert traj.n_steps == n_steps
            assert ratio <= bound

    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan])
    def test_bad_tolerances_rejected(self, rel_tol):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=rel_tol)

    @pytest.mark.parametrize("s0, s_min, s_max", [(2.0, -1.0, 1.0), (0.5, 0.5, 0.5),
                                                  (0.0, 1.0, -1.0), (-2.0, -1.0, 1.0)])
    def test_span_must_hold_the_start(self, s0, s_min, s_max):
        # a RangeError, which is both a ConfigError and a ValueError
        with pytest.raises(RangeError):
            integrate(decay, np.array([1.0]), s0, s_min, s_max)

    def test_every_step_accepted(self):
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 0.0, 30.0)
        assert traj.n_rejected == 0
        assert traj.rhs_evals == traj.n_steps
        assert traj.order == ORDER


def _reference_nodes(taylor, y, s_to, rel_tol):
    """The nodes of integrate from s = 0 to s_to > 0, with the step rule in
    numpy arithmetic: every |c_k|_inf in one reduction and numpy scalars,
    where a zero row divides to inf."""
    powers = np.arange(ORDER + 1.0)[:, None]
    s, nodes = 0.0, [0.0]
    with np.errstate(divide="ignore"):
        while s < s_to:
            c = taylor([s], y[None])[:, 0]
            m = np.abs(c).max(axis=1)
            tol = odeint._ABS_TOL + rel_tol * m[0]
            h = float(0.9 * min((tol / m[-2]) ** (1.0 / (ORDER - 1)),
                                (tol / m[-1]) ** (1.0 / ORDER)))
            s_new = s_to if h >= s_to - s else s + h
            y = (c * (s_new - s) ** powers).sum(axis=0)
            s = s_new
            nodes.append(s)
    return nodes


# y' = (N - 1) s^(N - 2), whose expansion about s = 0 is c_{N-1} = 1 alone
monomial = expansion(lambda c, k, s: (ORDER - 1) * math.comb(ORDER - 2, k)
                     * s ** (ORDER - 2 - k) / (k + 1) if k <= ORDER - 2 else 0.0)


class TestStepSize:
    def test_rule_from_last_two_coefficients(self):
        # decay from y = 1: |c_k| = 1/k!, tol = _ABS_TOL + rel_tol
        cfg = IntegratorConfig(rel_tol=1e-10)
        traj = integrate(decay, np.array([1.0]), 0.0, 0.0, 50.0, cfg)
        tol = odeint._ABS_TOL + cfg.rel_tol
        h = 0.9 * min((tol * math.factorial(j)) ** (1.0 / j) for j in (ORDER - 1, ORDER))
        assert traj.s_nodes[1] == pytest.approx(h, rel=1e-12)
        # the monomial from y = 0: c_N vanishes and tol = _ABS_TOL
        traj = integrate(monomial, np.array([0.0]), 0.0, 0.0, 1.0, cfg)
        assert traj.s_nodes[1] == 0.9 * odeint._ABS_TOL ** (1.0 / (ORDER - 1))
        # every node, bit for bit, as the rule gives it in numpy arithmetic
        for taylor, y0, s_to in ((decay, [1.0], 50.0), (harmonic, [1.0, 0.0], 30.0),
                                 (forced, [0.2, -0.1], 12.0), (monomial, [0.0], 1.0)):
            traj = integrate(taylor, np.array(y0), 0.0, 0.0, s_to, cfg)
            assert traj.s_nodes.tolist() == _reference_nodes(taylor, np.array(y0), s_to,
                                                             cfg.rel_tol)

    def test_polynomial_solution_in_one_step(self):
        # y' = 3 s^2 has the cubic solution: the expansion terminates, so the
        # step reaches the end of the span at once; so does the zero state of
        # y' = -y, every row of whose expansion vanishes
        cubic = expansion(lambda c, k, s: (3.0 * s * s, 6.0 * s, 3.0, 0.0)[min(k, 3)]
                          / (k + 1))
        traj = integrate(cubic, np.array([0.0]), 0.0, 0.0, 7.0)
        assert traj.n_steps == 1
        assert traj.states_at(7.0)[0] == pytest.approx(343.0, rel=1e-15)
        assert traj.states_at(2.0)[0] == pytest.approx(8.0, rel=1e-15)
        traj = integrate(decay, np.array([0.0]), 0.0, 0.0, 7.0)
        assert traj.n_steps == 1 and traj.states.tolist() == [[0.0], [0.0]]


class TestAccuracy:
    def test_order_via_tolerance_halving(self):
        # error should scale roughly like tol when the step rule tracks it
        ref_cfg = IntegratorConfig(rel_tol=1e-14)
        ref = integrate(forced, np.array([0.2, -0.1]), 0.0, 0.0, 12.0, ref_cfg)
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=tol)
            traj = integrate(forced, np.array([0.2, -0.1]), 0.0, 0.0, 12.0, cfg)
            errs.append(np.max(np.abs(traj.states_at(12.0) - ref.states_at(12.0))))
        assert errs[1] < errs[0] * 0.1
        assert errs[2] < errs[1] * 0.1

    def test_reversibility(self):
        cfg = IntegratorConfig(rel_tol=1e-11)
        y0 = np.array([0.3, 0.7])
        fwd = integrate(harmonic, y0, 0.0, 0.0, 25.0, cfg)
        back = integrate(harmonic, fwd.states_at(25.0), 25.0, 0.0, 25.0, cfg)
        assert np.max(np.abs(back.states_at(0.0) - y0)) <= 100 * cfg.rel_tol


class TestDenseOutput:
    def test_nodes_exact(self):
        cfg = IntegratorConfig(rel_tol=1e-10)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 0.0, 10.0, cfg)
        for k in range(0, traj.n_steps + 1, max(1, traj.n_steps // 17)):
            s = traj.s_nodes[k]
            assert np.array_equal(traj.states_at(s), traj.states[k])

    def test_interpolation_accuracy(self):
        cfg = IntegratorConfig(rel_tol=1e-11)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 0.0, 10.0, cfg)
        ss = np.linspace(0.0, 10.0, 777)
        vals = traj.states_at(ss)
        ref = np.stack([np.cos(ss), -np.sin(ss)], axis=1)
        assert np.max(np.abs(vals - ref)) < 5e-10

    def test_outside_span_raises(self):
        traj = integrate(decay, np.array([1.0]), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            traj.states_at(1.5)

    def test_interpolant_endpoint_consistency(self):
        # the step's polynomial at theta -> 1 approaches the next node state
        cfg = IntegratorConfig(rel_tol=1e-9)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 0.0, 5.0, cfg)
        k = traj.n_steps // 2
        s0, s1 = traj.s_nodes[k], traj.s_nodes[k + 1]
        just_before = s1 - 1e-9 * (s1 - s0)
        assert np.max(np.abs(traj.states_at(just_before) - traj.states[k + 1])) < 1e-8

    def test_unsorted_read_matches_sorted(self):
        traj = integrate(forced, np.array([0.2, -0.1]), 0.0, 0.0, 12.0)
        ss = np.random.default_rng(7).uniform(0.0, 12.0, 500)
        order = np.argsort(ss)
        assert np.array_equal(traj.states_at(ss)[order], traj.states_at(ss[order]))
        assert traj.states_at(np.array([])).shape == (0, 2)

    def test_large_read_in_blocks(self):
        # a read evaluates its points in blocks sorted by segment: a point's
        # value does not depend on the others read with it, and the
        # temporaries stay small beside the result (a peak of 7.5 times it
        # at 10^6 points when every point was evaluated at once)
        p = flow.FlowParams(1.0, 0.5)
        traj = flow.integrate_flow(p, symmetric.make_symmetric_ic(p, "odd"), -40.0, 40.0).traj
        ss = np.concatenate([np.random.default_rng(16).uniform(-40.0, 40.0, 10**6 - 1000),
                             traj.s_nodes, np.linspace(-40.0, 40.0, 1000 - traj.n_steps - 1)])
        tracemalloc.start()
        try:
            whole = traj.states_at(ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert whole.shape == (10**6, 6)
        assert peak <= 2 * whole.nbytes
        cuts = [0, 1, 4097, 333_333, 700_001, 10**6]
        pieces = [traj.states_at(ss[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()

    def test_joined_legs_match_per_point_reference(self):
        # the two-sided trajectory, evaluated in one batch, reproduces each
        # leg's polynomial summed point by point in ascending powers, bit for bit
        def leg_state(leg, s):
            k = min(max(int(np.searchsorted(leg.s_nodes, s, side="right")) - 1, 0),
                    leg.n_steps - 1)
            if s == leg.s_nodes[k]:
                return leg.states[k]
            if s == leg.s_nodes[k + 1]:
                return leg.states[k + 1]
            h = leg.h[k]
            theta = (s - leg.s_nodes[k + (h < 0)]) / h
            y = np.zeros(leg.states.shape[1])
            power = 1.0
            for j, coeff in enumerate(leg.coeffs[0][k]):
                if j:
                    power = power * theta
                y = y + power * coeff
            return y

        cfg = IntegratorConfig(rel_tol=1e-10)
        y0 = np.array([1.0, 0.0])
        s0 = 0.5
        minus = integrate(harmonic, y0, s0, -4.0, s0, cfg)
        plus = integrate(harmonic, y0, s0, s0, 6.0, cfg)
        both = integrate(harmonic, y0, s0, -4.0, 6.0, cfg)
        assert both.n_steps == minus.n_steps + plus.n_steps
        assert both.rhs_evals == minus.rhs_evals + plus.rhs_evals
        assert (both.n_steps_minus, minus.n_steps_minus, plus.n_steps_minus) == (
            minus.n_steps, minus.n_steps, 0)
        ss = np.concatenate([both.s_nodes, np.linspace(-4.0, 6.0, 2001)])
        assert {-4.0, s0, 6.0} <= set(both.s_nodes)
        ref = np.array([leg_state(plus if s >= s0 else minus, s) for s in ss])
        assert np.array_equal(both.states_at(ss), ref)
        assert np.array_equal(both.states_at(ss[None, :]), ref[None])
