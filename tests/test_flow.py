"""Flow-system tests: initial data, conserved quantities, curvature/torsion,
the spherical cross-check, azimuth quadrature, filament reconstruction and
the complex envelope."""

import math
from types import SimpleNamespace

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from filpiv import flow, odeint, selfcheck, symmetric, zero_a
from filpiv.errors import (
    ConfigError,
    InconsistentCauchyDataError,
    IntegrandPoleError,
    RangeError,
    ZeroAxisError,
)
from filpiv.odeint import ORDER, IntegratorConfig
from filpiv.selfcheck import TOL_CONSTRAINT_DRIFT, TOL_EPS_DRIFT, TOL_UNIT_DRIFT


def trivial_line_state(a=1.0, sign=-1.0, s=0.0):
    """G = sign * s * axis (the straight filament along the axis)."""
    p = flow.FlowParams(a, sign * a)
    e3 = np.array([0.0, 0.0, 1.0])
    return p, flow.FlowState(sign * s * e3, sign * e3, s)


# make_taylor and make_rhs read only params.a_vec, so a stand-in whose a_vec
# lies along any axis keeps their general vector form covered, although
# FlowParams' axis is always e3
def params_along(a, axis=(0.6, 0.0, 0.8)):
    return SimpleNamespace(a_vec=a * np.asarray(axis))


class TestFlowParams:
    @pytest.mark.parametrize("a, eps", [(math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rejected(self, a, eps):
        with pytest.raises(ConfigError):
            flow.FlowParams(a, eps)


class TestMakeInitialState:
    def test_zero_axis_example(self):
        p = flow.FlowParams(0.0, 1.0)
        st = flow.make_initial_state(p, [1, 0, 0], [0, 1, 0])
        assert np.allclose(st.g, [0.0, 0.0, 2.0], atol=1e-15)
        assert st.g @ st.g == pytest.approx(4 * p.eps, abs=1e-14)

    def test_unit_axis_example(self):
        c = 0.7
        p = flow.FlowParams(1.0, c * c)
        st = flow.make_initial_state(p, [1, 0, 0], [0, c, 0])
        assert np.allclose(st.g, [0.0, 0.0, 2 * c], atol=1e-15)

    def test_trivial_line(self):
        p = flow.FlowParams(1.0, -1.0)
        st = flow.make_initial_state(p, [0, 0, -1.0], [0, 0, 0])
        assert np.allclose(st.g, 0.0)

    def test_constraint_holds_at_nonzero_s(self):
        p = flow.FlowParams(1.0, 0.5)
        gp0 = np.array([1.0, 0.0, 0.0])
        gpp0 = np.array([0.0, math.sqrt(0.5), 0.0])
        st = flow.make_initial_state(p, gp0, gpp0, s0=2.0)
        w = np.cross(p.a_vec, st.g) + st.g
        assert float(w @ st.gp) == pytest.approx(2.0, abs=1e-13)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert np.allclose(gpp, gpp0, atol=1e-13)

    def test_inconsistent_eps_raises(self):
        p = flow.FlowParams(1.0, 0.5)
        with pytest.raises(InconsistentCauchyDataError):
            flow.make_initial_state(p, [1, 0, 0], [0, 1.0, 0])

    def test_bad_tangent_raises(self):
        p = flow.FlowParams(1.0, 0.5)
        with pytest.raises(InconsistentCauchyDataError):
            flow.make_initial_state(p, [1.1, 0, 0], [0, math.sqrt(0.5), 0])
        with pytest.raises(InconsistentCauchyDataError):
            flow.make_initial_state(p, [1, 0, 0], [0.3, math.sqrt(0.5), 0])


class TestRhs:
    def test_trivial_line_second_derivative_vanishes(self):
        p, st = trivial_line_state(a=2.0, sign=1.0, s=3.0)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert np.allclose(gpp, 0.0, atol=1e-15)

    def test_gpp_orthogonal_to_gp(self):
        rng = np.random.RandomState(4)
        p = flow.FlowParams(1.3, 0.2)
        for _ in range(20):
            g = rng.randn(3)
            gp = rng.randn(3)
            gp /= np.linalg.norm(gp)
            st = flow.FlowState(g, gp, rng.uniform(-3, 3))
            gpp = flow.make_rhs(p)(st.s, st.y)[3:]
            assert abs(float(gpp @ gp)) < 1e-13 * max(1.0, np.linalg.norm(gpp))

    def test_curvature_norm_matches_conserved_relation(self):
        # |G''|^2 = eps - sigma' on consistently constructed states
        rng = np.random.RandomState(5)
        for _ in range(10):
            a = rng.uniform(0.3, 2.0)
            gp0 = rng.randn(3)
            gp0 /= np.linalg.norm(gp0)
            perp = np.cross(gp0, rng.randn(3))
            perp /= np.linalg.norm(perp)
            gpp0 = rng.uniform(0.1, 1.5) * perp
            p = flow.FlowParams(a, float(gpp0 @ gpp0) + a * gp0[2])
            st = flow.make_initial_state(p, gp0, gpp0)
            gpp = flow.make_rhs(p)(st.s, st.y)[3:]
            sig_p = float(p.a_vec @ st.gp)
            assert float(gpp @ gpp) == pytest.approx(p.eps - sig_p, abs=1e-12)

    def test_taylor_coefficients_match_derivatives(self):
        # c_1 = (G', G'') and 2 c_2 = (G'', G'''), with the third derivative
        # (a x G' + G') x G' / 2 + W x G'' / 2
        rng = np.random.RandomState(6)
        axis = rng.randn(3)
        p = params_along(1.7, axis / np.linalg.norm(axis))
        st = flow.FlowState(rng.randn(3), rng.randn(3), 0.8)
        c = flow.make_taylor(p)([st.s], st.y[None])[:, 0]
        f = flow.make_rhs(p)(st.s, st.y)
        assert np.array_equal(c[0], st.y)
        assert np.allclose(c[1], f, rtol=0.0, atol=1e-14)
        g, gp, gpp = st.g, st.gp, f[3:]
        w = np.cross(p.a_vec, g) + g
        gppp = 0.5 * np.cross(np.cross(p.a_vec, gp) + gp, gp) + 0.5 * np.cross(w, gpp)
        assert np.allclose(2.0 * c[2], np.concatenate([gpp, gppp]), rtol=0.0, atol=1e-13)


# rounding bound of the double kernel against the recurrence evaluated in long
# double, for states whose entries are of one size: one unit in the last place
# per order, relative to the size of the sums each coefficient is made of.
# Over 3,000 random draws (a in [0, 1e3], any axis, one to three lanes, one
# scale per lane in [1e-2, 1e2]) the gap reached 0.96 of the bound at most.  It
# does not bound the gap between two double evaluations, which reached 1.03 of
# it at large a, nor states whose entries span four decades (up to 1.14 of it
# against long double).
_ROUNDING = np.finfo(float).eps * np.arange(1, ORDER + 2)[:, None]

# the reference's dtype: long double where it is wider than a double, so that
# the reference's own rounding stays below the kernel's; a double elsewhere
_REF_DTYPE = (np.longdouble if np.finfo(np.longdouble).eps < np.finfo(float).eps
              else np.float64)


def _cauchy_reference(w_of_g, y, sign=-1.0):
    """The flow recurrence one order at a time: p[i, l] = sum_j W_j[i]
    T_{k-j}[l], whose antisymmetric part (sign -1) is the cross sum.  With
    sign +1 and the absolute values of w_of_g and y it gives the size of the
    sums each coefficient is made of, the scale of its rounding error.  It
    computes in the dtype of y."""
    c = np.empty((ORDER + 1, 6), dtype=y.dtype)
    c[0] = y
    g, t = c[:, :3], c[:, 3:]
    w = np.empty((ORDER + 1, 3), dtype=y.dtype)
    for k in range(ORDER):
        w[k] = w_of_g @ g[k]
        p = w[:k + 1].T @ t[k::-1]
        t[k + 1] = (p[1, 2] + sign * p[2, 1], p[2, 0] + sign * p[0, 2],
                    p[0, 1] + sign * p[1, 0])
        t[k + 1] /= 2.0 * (k + 1)
        g[k + 1] = t[k] / (k + 1)
    return c


class TestTaylor:
    @pytest.mark.parametrize("a, axis", [
        (0.0, (0.0, 0.0, 1.0)), (1.0, (0.0, 0.0, 1.0)), (10.0, (0.0, 0.0, 1.0)),
        (1.7, (0.6, 0.0, 0.8)),
    ])
    def test_matches_cauchy_reference(self, a, axis):
        p = params_along(a, axis)
        a1, a2, a3 = p.a_vec
        w_of_g = np.array([[1.0, -a3, a2], [a3, 1.0, -a1], [-a2, a1, 1.0]])
        taylor = flow.make_taylor(p)
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.standard_normal(6) * 10.0 ** rng.uniform(-1.0, 1.0)
            c = taylor([rng.uniform(-40.0, 40.0)], y[None])[:, 0]
            ref = _cauchy_reference(w_of_g.astype(_REF_DTYPE), y.astype(_REF_DTYPE))
            size = _cauchy_reference(np.abs(w_of_g), np.abs(y), 1.0)
            assert np.array_equal(c[0], y)
            assert np.all(np.abs(c - ref) <= _ROUNDING * size)

    @pytest.mark.parametrize("a, axis", [
        (0.0, (0.0, 0.0, 1.0)), (1.0, (0.0, 0.0, 1.0)), (10.0, (0.0, 0.0, 1.0)),
        (1.7, (0.6, 0.0, 0.8)),
    ])
    def test_lanes_match_cauchy_reference(self, a, axis):
        # two or three lanes share each product through block-diagonal
        # blocks; each lane keeps to the rounding bound of the serial
        # recurrence
        p = params_along(a, axis)
        a1, a2, a3 = p.a_vec
        w_of_g = np.array([[1.0, -a3, a2], [a3, 1.0, -a1], [-a2, a1, 1.0]])
        taylor = flow.make_taylor(p)
        rng = np.random.default_rng(13)
        for lanes in [2] * 20 + [3] * 20:
            ys = rng.standard_normal((lanes, 6)) * 10.0 ** rng.uniform(-1.0, 1.0, (lanes, 1))
            c = taylor([0.0] * lanes, ys)
            assert c.shape == (ORDER + 1, lanes, 6)
            for lane, y in enumerate(ys):
                ref = _cauchy_reference(w_of_g.astype(_REF_DTYPE), y.astype(_REF_DTYPE))
                size = _cauchy_reference(np.abs(w_of_g), np.abs(y), 1.0)
                assert np.array_equal(c[0, lane], y)
                assert np.all(np.abs(c[:, lane] - ref) <= _ROUNDING * size)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs a long double wider than a double")
    @given(hst.floats(0.0, 1e3), hst.floats(-1.0, 1.0), hst.floats(0.0, 2.0 * math.pi),
           hst.integers(1, 3), hst.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_lanes_match_cauchy_reference_property(self, a, cos_tilt, turn, lanes, seed):
        # any axis strength and direction; each lane's entries are of one
        # size, 1e-2 to 1e2.  The reference runs in long double: in doubles
        # its own rounding reaches the bound at large a
        sin_tilt = math.sqrt(1.0 - cos_tilt**2)
        p = params_along(a, (sin_tilt * math.cos(turn), sin_tilt * math.sin(turn), cos_tilt))
        a1, a2, a3 = p.a_vec
        w_of_g = np.array([[1.0, -a3, a2], [a3, 1.0, -a1], [-a2, a1, 1.0]])
        rng = np.random.default_rng(seed)
        ys = rng.standard_normal((lanes, 6)) * 10.0 ** rng.uniform(-2.0, 2.0, (lanes, 1))
        c = flow.make_taylor(p)([0.0] * lanes, ys)
        for lane, y in enumerate(ys):
            ref = _cauchy_reference(w_of_g.astype(np.longdouble), y.astype(np.longdouble))
            size = _cauchy_reference(np.abs(w_of_g), np.abs(y), 1.0)
            assert np.array_equal(c[0, lane], y)
            assert np.all(np.abs(c[:, lane] - ref) <= _ROUNDING * size)

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_non_finite_state_leaves_no_trace(self, lanes):
        # the pairing reads slots that each call must hold at zero: after a
        # NaN state and one that overflows, a finite state's coefficients
        # are those of a fresh closure
        p = params_along(1.7)
        rng = np.random.default_rng(15)
        y = rng.standard_normal((lanes, 6))
        taylor = flow.make_taylor(p)
        bad = y.copy()
        bad[-1, 2] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(taylor([0.0] * lanes, bad)).any()
            assert not np.isfinite(taylor([0.0] * lanes, np.full((lanes, 6), 1e300))).all()
        c = taylor([0.0] * lanes, y)
        assert np.isfinite(c).all()
        assert np.array_equal(c, flow.make_taylor(p)([0.0] * lanes, y))

    def test_lane_does_not_depend_on_other_lanes(self):
        # a lane's bits are the same whatever the other lane holds
        taylor = flow.make_taylor(params_along(1.7))
        rng = np.random.default_rng(14)
        for _ in range(50):
            y, other, third = rng.standard_normal((3, 6)) * 10.0 ** rng.uniform(-1.0, 1.0, (3, 1))
            first = taylor([0.0, 0.0], np.stack([y, other]))
            assert np.array_equal(taylor([0.0, 0.0], np.stack([y, third]))[:, 0], first[:, 0])
            second = taylor([0.0, 0.0], np.stack([other, y]))
            assert np.array_equal(taylor([0.0, 0.0], np.stack([third, y]))[:, 1], second[:, 1])

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_coefficient_layout(self, lanes):
        # integrate's batched step sums each lane's orders one after the
        # other, as a one-lane integration does, only on C-ordered arrays
        ys = np.random.default_rng(4).standard_normal((lanes, 6))
        c = flow.make_taylor(params_along(1.7))([0.0] * lanes, ys)
        assert c.shape == (ORDER + 1, lanes, 6) and c.flags.c_contiguous

    @pytest.mark.parametrize("eps, state, span", [
        (0.3, lambda p: selfcheck.asymmetric_state(p, *selfcheck.ASYMMETRIC_CASES[0]),
         (-42.0, 42.0)),
        (1.25, lambda p: flow.make_initial_state(p, [0.0, 0.0, 1.0], [0.0, 0.5, 0.0], 1.5),
         (-20.0, 25.0)),
    ])
    def test_two_legs_match_serial_legs(self, eps, state, span):
        # the lockstep legs take the steps of two serial integrations and
        # agree with them to rounding
        p = flow.FlowParams(1.0, eps)
        st = state(p)
        both = odeint.integrate(flow.make_taylor(p), st.y, st.s, *span)
        minus, plus = (odeint.integrate(flow.make_taylor(p), st.y, st.s, *leg)
                       for leg in ((span[0], st.s), (st.s, span[1])))
        assert (both.n_steps_minus, both.n_steps - both.n_steps_minus) == (
            minus.n_steps, plus.n_steps)
        grid = np.concatenate([np.linspace(*span, 2001), both.s_nodes])
        # each leg on its own side of s0, which both hold as a node
        n = both.n_steps_minus
        for leg, nodes, side in ((minus, both.s_nodes[:n + 1], grid <= st.s),
                                 (plus, both.s_nodes[n:], grid >= st.s)):
            assert np.max(np.abs(both.states_at(grid[side]) - leg.states_at(grid[side]))) <= 1e-12
            assert np.max(np.abs(nodes - leg.s_nodes)) <= 1e-12

    @pytest.mark.parametrize("a, eps, branch, n_steps", [
        (1.0, 0.5, "odd", 348), (10.0, 5.0, "odd", 574), (10.0, 20.0, "mixed_plus", 666),
    ])
    def test_pinned_step_counts(self, a, eps, branch, n_steps):
        # exact counts at IntegratorConfig() over |s| <= 40: the step rule and
        # the recurrence decide them, not the hardware
        p = flow.FlowParams(a, eps)
        run = flow.integrate_flow(p, symmetric.make_symmetric_ic(p, branch), -40.0, 40.0)
        assert run.traj.n_steps == n_steps

    # the closure reuses its work buffers from call to call
    def test_returned_coefficients_stay_unchanged(self):
        taylor = flow.make_taylor(params_along(1.7))
        rng = np.random.default_rng(5)
        c = taylor([0.0], rng.standard_normal((1, 6)))
        kept = c.copy()
        for _ in range(3):
            taylor([rng.uniform(-40.0, 40.0)], rng.standard_normal((1, 6)))
        assert np.array_equal(c, kept)

    def test_closures_do_not_share_buffers(self):
        params = (flow.FlowParams(1.0, 0.5), params_along(10.0))
        ys = np.random.default_rng(8).standard_normal((4, 6))
        alone = [[flow.make_taylor(p)([0.0], y[None]) for y in ys] for p in params]
        first, second = (flow.make_taylor(p) for p in params)
        for k, y in enumerate(ys):
            assert np.array_equal(first([0.0], y[None]), alone[0][k])
            assert np.array_equal(second([0.0], y[None]), alone[1][k])

    def test_rerun_bit_identical(self):
        p = flow.FlowParams(1.0, 0.5)
        state0 = symmetric.make_symmetric_ic(p, "odd")
        runs = [flow.integrate_flow(p, state0, -20.0, 20.0).traj for _ in range(2)]
        for name in ("s_nodes", "states", "coeffs"):
            assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def _symmetric_case(a, eps, branch):
    """(params, state0, the expected reflection D) of a branch, or of the
    normalized data for branch None (a = 0)."""
    p = flow.FlowParams(a, eps)
    if branch is None:
        return p, zero_a.normalized_state(p), [-1, 1, 1, 1, -1, -1]
    signs = [-1, -1, -1, 1, 1, 1] if branch == "odd" else [1, 1, -1, -1, -1, 1]
    return p, symmetric.make_symmetric_ic(p, branch), signs


class TestReflection:
    # the three branches at a = 1-3, the a = 0 data, and the planar spiral
    # over |s| <= 70 (criterion 4's run)
    CASES = [
        (1.0, 0.5, "odd", 40.0),
        (2.0, 1.0, "mixed_minus", 40.0),
        (3.0, 4.0, "mixed_plus", 40.0),
        (0.0, 1.0, None, 40.0),
        (10.0, symmetric.planar_spiral(10.0)[0], "odd", 70.0),
    ]

    @pytest.mark.parametrize("a, eps, branch, s_max", CASES)
    def test_matches_two_leg_integration(self, a, eps, branch, s_max):
        p, st, signs = _symmetric_case(a, eps, branch)
        run = flow.integrate_flow(p, st, -s_max, s_max)
        assert run.traj.mirror.tolist() == signs
        both = odeint.integrate(flow.make_taylor(p), st.y, 0.0, -s_max, s_max)
        grid = np.linspace(-s_max, s_max, 4001)
        assert np.max(np.abs(run.state_y(grid) - both.states_at(grid))) <= 1e-12

    @pytest.mark.parametrize("a, eps, branch, s_max", CASES)
    def test_minus_leg_is_the_plus_leg_mirrored(self, a, eps, branch, s_max):
        p, st, signs = _symmetric_case(a, eps, branch)
        traj = flow.integrate_flow(p, st, -s_max, s_max).traj
        plus = odeint.integrate(flow.make_taylor(p), st.y, 0.0, 0.0, s_max)
        n = traj.n_steps_minus
        assert n == plus.n_steps and traj.n_steps == 2 * n
        # the plus leg bit for bit, the shared node s = 0 included
        for name in ("s_nodes", "states", "h"):
            assert np.array_equal(getattr(traj, name)[n:], getattr(plus, name))
        d = np.array(signs, dtype=float)
        assert np.array_equal(traj.s_nodes[:n], -plus.s_nodes[:0:-1])
        assert np.array_equal(traj.states[:n], (plus.states * d)[:0:-1])
        assert np.array_equal(traj.h[:n], -plus.h[::-1])
        # the plus leg's blocks are kept once: the minus side reads them in
        # reverse from the same buffer, and the mirror is applied on read
        minus_c, plus_c = traj.coeffs
        assert np.shares_memory(minus_c, plus_c)
        assert np.array_equal(plus_c, plus.coeffs[0])
        assert np.array_equal(minus_c, plus_c[::-1])
        assert np.array_equal(traj.mirror, d)
        s = np.concatenate([np.random.default_rng(12).uniform(0.0, s_max, 2001), plus.s_nodes])
        assert np.array_equal(traj.states_at(-s), d * plus.states_at(s))

    @pytest.mark.parametrize("eps, state, span", [
        # mixed-branch Cauchy data at s0 != 0, then an odd state on an
        # asymmetric span, then generic data (criterion 6's first case)
        (1.25, lambda p: flow.make_initial_state(p, [0.0, 0.0, 1.0], [0.0, 0.5, 0.0], 1.5),
         (-20.0, 20.0)),
        (0.3, lambda p: symmetric.make_symmetric_ic(p, "odd"), (-20.0, 25.0)),
        (0.3, lambda p: selfcheck.asymmetric_state(p, *selfcheck.ASYMMETRIC_CASES[0]),
         (-20.0, 20.0)),
    ])
    def test_two_legs_otherwise(self, eps, state, span):
        p = flow.FlowParams(1.0, eps)
        st = state(p)
        run = flow.integrate_flow(p, st, *span)
        both = odeint.integrate(flow.make_taylor(p), st.y, st.s, *span)
        assert run.traj.mirror is None
        for name in ("s_nodes", "states", "h"):
            assert np.array_equal(getattr(run.traj, name), getattr(both, name))
        assert len(run.traj.coeffs) == len(both.coeffs) == 2
        for mine, theirs in zip(run.traj.coeffs, both.coeffs):
            assert np.array_equal(mine, theirs)


class TestConservedEpsilon:
    def test_zero_axis_form(self):
        p = flow.FlowParams(0.0, 1.0)
        st = flow.make_initial_state(p, [1, 0, 0], [0, 1, 0])
        direct = 0.25 * (float(st.g @ st.g) - st.s**2)
        run = flow.integrate_flow(p, st, -1.0, 1.0)
        assert run.sample(st.s)["eps_drift"] == pytest.approx(direct - p.eps, abs=1e-14)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert direct == pytest.approx(float(gpp @ gpp), abs=1e-13)

    def test_trivial_line_value(self):
        # eps of the line's state is -a = -1.5, its params' eps
        p, st = trivial_line_state(a=1.5, sign=-1.0, s=4.0)
        run = flow.integrate_flow(p, st, 3.0, 5.0)
        assert run.sample(st.s)["eps_drift"] == pytest.approx(0.0, abs=1e-13)

    def test_constant_along_trajectory(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        assert run.drift_diagnostics()["eps_drift_max"] <= 1e-9

    def test_no_floor_growing_with_the_axis(self):
        # (a^2+1)|G|^2 - (a.G)^2 summed as written cancels a^2 G3^2 and reads
        # 3.6e-8 here; with the axis on e3 it is summed without cancelling
        p = flow.FlowParams(1000.0, 0.3)
        run = flow.integrate_flow(p, symmetric.make_symmetric_ic(p, "odd"), -40.0, 40.0,
                                  IntegratorConfig(rel_tol=1e-14))
        assert run.drift_diagnostics()["eps_drift_max"] < 1e-9

    def test_worst_drift_locations(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        d = run.drift_diagnostics()
        smp = run.sample(run.traj.s_nodes)
        for name in ("unit", "eps", "constraint"):
            dev = np.abs(smp[f"{name}_drift"])
            assert d[f"{name}_drift_max"] == dev.max()
            assert d[f"{name}_drift_at"] == run.traj.s_nodes[np.argmax(dev)]


class TestSigmaJet:
    def test_trivial_line_jet(self):
        p, st = trivial_line_state(a=1.0, sign=1.0, s=2.5)
        jet = flow.integrate_flow(p, st, 2.0, 3.0).sigma_jet(2.5)
        assert (jet.sigma, jet.sigma_p, jet.sigma_pp) == pytest.approx(
            (2.5, 1.0, 0.0), abs=1e-13
        )

    def test_odd_initial_jet(self):
        p = flow.FlowParams(1.0, 0.4)
        cos_t = 0.4
        sin_t = math.sqrt(1 - cos_t**2)
        st = flow.make_initial_state(p, [sin_t, 0, cos_t], [0, 0, 0])
        jet = flow.integrate_flow(p, st, -1.0, 1.0).sigma_jet(0.0)
        assert jet.sigma == pytest.approx(0.0, abs=1e-14)
        assert jet.sigma_p == pytest.approx(p.eps, abs=1e-14)
        assert jet.sigma_pp == pytest.approx(0.0, abs=1e-14)

    def test_zero_axis_raises(self):
        p = flow.FlowParams(0.0, 1.0)
        st = flow.make_initial_state(p, [1, 0, 0], [0, 1, 0])
        run = flow.integrate_flow(p, st, -1.0, 1.0)
        with pytest.raises(ZeroAxisError):
            run.sigma_jet(0.0)


class TestCurvatureTorsion:
    def test_zero_axis_values(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        for smp in flow.curvature_torsion(run, [0.5, 3.0, 12.0, -7.0]):
            assert smp.C == pytest.approx(1.0, abs=1e-8)
            assert smp.T == pytest.approx(smp.s / 2.0, abs=1e-8)

    def test_trivial_line_torsion_absent(self):
        p, st = trivial_line_state(a=1.0, sign=1.0)
        run = flow.integrate_flow(p, st, -5.0, 5.0)
        for smp in flow.curvature_torsion(run, [-4.0, 0.5, 3.3]):
            assert smp.C == pytest.approx(0.0, abs=1e-10)
            assert smp.T is None


class TestSample:
    @pytest.mark.parametrize("case", ["odd", "line"])
    def test_array_matches_scalar(self, runs, case):
        if case == "odd":
            run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        else:
            p, st = trivial_line_state(a=1.0, sign=1.0)
            run = flow.integrate_flow(p, st, -25.0, 25.0)
        ss = np.linspace(-25.0, 25.0, 101)
        cols = run.sample(ss)
        for k, s in enumerate(ss):
            one = run.sample(float(s))
            for key in ("G", "Gp", "Gpp", "sigma", "sigma_p", "C"):
                assert np.array_equal(cols[key][k], one[key]), key
            for key in ("sigma", "sigma_p", "sigma_pp", "C", "eps_drift"):
                assert type(one[key]) is float
            if one["T"] is None:
                assert math.isnan(cols["T"][k])
            else:
                assert cols["T"][k] == one["T"]
            for key in ("eps_drift", "unit_drift", "constraint_drift"):
                assert abs(cols[key][k] - one[key]) <= 1e-12, key
        assert (case == "line") == all(math.isnan(t) for t in cols["T"])


class ChartSingularityError(ValueError):
    """The spherical chart degenerates (sin(theta) ~ 0)."""


def spherical_rhs(theta, theta_p, phi_p, s, p):
    """(theta'', phi'') of the spherical-angle form of the tangent dynamics,
    G' = (cos(phi) sin(theta), sin(phi) sin(theta), cos(theta)) for the axis e3."""
    sin_t = math.sin(theta)
    if abs(sin_t) < 1e-10:
        raise ChartSingularityError(f"spherical chart degenerate at theta={theta}")
    cos_t = math.cos(theta)
    theta_pp = 0.5 * sin_t * (2.0 * cos_t * phi_p**2 - s * phi_p + p.a)
    phi_pp = (s - 4.0 * cos_t * phi_p) * theta_p / (2.0 * sin_t)
    return theta_pp, phi_pp


def spherical_epsilon(theta, theta_p, phi_p, p):
    """eps expressed in the spherical chart."""
    return theta_p**2 + math.sin(theta) ** 2 * phi_p**2 + p.a * math.cos(theta)


class TestSpherical:
    def test_stationary_latitude(self):
        p = flow.FlowParams(1.0, 0.0)
        theta, s = 1.1, 2.0
        disc = s * s - 8.0 * math.cos(theta) * p.a
        phi_p = (s + math.sqrt(disc)) / (4.0 * math.cos(theta))
        theta_pp, phi_pp = spherical_rhs(theta, 0.0, phi_p, s, p)
        assert theta_pp == pytest.approx(0.0, abs=1e-13)
        assert phi_pp == pytest.approx(0.0, abs=1e-13)

    def test_chart_singularity_raises(self):
        p = flow.FlowParams(1.0, 0.0)
        with pytest.raises(ChartSingularityError):
            spherical_rhs(1e-12, 0.1, 0.1, 1.0, p)

    @staticmethod
    def _spherical_states(p, st, s_points):
        """States (theta, theta', phi, phi') of the spherical chart at
        s_points, s_points[0] = st.s, by classical RK4 with equal substeps of
        at most 5e-4 between consecutive points."""
        gp, gpp = st.gp, flow.make_rhs(p)(st.s, st.y)[3:]
        theta = math.acos(gp[2])
        sin_t = math.sin(theta)
        theta_p = -gpp[2] / sin_t
        phi = math.atan2(gp[1], gp[0])
        phi_p = (gp[0] * gpp[1] - gp[1] * gpp[0]) / sin_t**2

        def rhs(s, y):
            th, th_p, ph, ph_p = y
            th_pp, ph_pp = spherical_rhs(th, th_p, ph_p, s, p)
            return np.array([th_p, th_pp, ph_p, ph_pp])

        y = np.array([theta, theta_p, phi, phi_p])
        out = [y]
        for s_a, s_b in zip(s_points[:-1], s_points[1:]):
            n = max(1, math.ceil(abs(s_b - s_a) / 5e-4))
            h = (s_b - s_a) / n
            for i in range(n):
                s = s_a + i * h
                k1 = rhs(s, y)
                k2 = rhs(s + h / 2, y + h / 2 * k1)
                k3 = rhs(s + h / 2, y + h / 2 * k2)
                k4 = rhs(s + h, y + h * k3)
                y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            out.append(y)
        return np.array(out)

    def test_cross_check_against_cartesian(self):
        p = flow.FlowParams(1.0, 0.3)
        cos_t = 0.25
        sin_t = math.sqrt(1 - cos_t**2)
        gpp_norm = math.sqrt(p.eps - p.a * cos_t)
        st = flow.make_initial_state(
            p, [sin_t, 0, cos_t],
            gpp_norm * np.array([-cos_t * 0.6, 0.8, sin_t * 0.6]),
        )
        cfg = IntegratorConfig(rel_tol=1e-12)
        cart = flow.integrate_flow(p, st, 0.0, 10.0, cfg)
        ss = np.linspace(0.5, 10.0, 25)
        sph = self._spherical_states(p, st, np.concatenate([[st.s], ss]))[1:]
        worst = 0.0
        for s, (th, _, ph, _) in zip(ss, sph):
            gp_sph = np.array([
                math.cos(ph) * math.sin(th), math.sin(ph) * math.sin(th),
                math.cos(th),
            ])
            worst = max(worst, float(np.max(np.abs(gp_sph - cart.gp(float(s))))))
        assert worst <= 1e-8

    def test_spherical_epsilon_conserved(self):
        p = flow.FlowParams(1.0, 0.3)
        cos_t = 0.25
        sin_t = math.sqrt(1 - cos_t**2)
        gpp_norm = math.sqrt(p.eps - p.a * cos_t)
        st = flow.make_initial_state(
            p, [sin_t, 0, cos_t],
            gpp_norm * np.array([-cos_t * 0.6, 0.8, sin_t * 0.6]),
        )
        sph = self._spherical_states(p, st, np.linspace(0.0, 8.0, 30))
        vals = [spherical_epsilon(*y[[0, 1, 3]], p) for y in sph]
        assert max(abs(v - p.eps) for v in vals) <= 1e-9


class TestPhiAccumulate:
    def test_zero_interval(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        assert flow.phi_accumulate(run, 3.0, 3.0) == 0.0

    def test_additivity(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        full = flow.phi_accumulate(run, -4.0, 9.0)
        split = flow.phi_accumulate(run, -4.0, 2.5) + flow.phi_accumulate(run, 2.5, 9.0)
        assert full == pytest.approx(split, abs=1e-12)
        assert flow.phi_accumulate(run, 9.0, -4.0) == pytest.approx(-full, abs=1e-12)

    def test_matches_unwrapped_azimuth(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        ss = np.linspace(0.5, 15.0, 140)
        raw = np.array([math.atan2(run.gp(float(s))[1], run.gp(float(s))[0])
                        for s in ss])
        unwrapped = np.unwrap(raw)
        worst = 0.0
        for k in range(1, len(ss)):
            quad = flow.phi_accumulate(run, float(ss[0]), float(ss[k]))
            worst = max(worst, abs(quad - (unwrapped[k] - unwrapped[0])))
        assert worst <= 1e-6

    def test_pole_detected_on_mixed_run(self, runs):
        # mixed data start tangent-aligned: sigma' = -a at s = 0
        run = runs.grid_run(1.0, 2.0, "mixed_minus", s_max=25.0)
        with pytest.raises(IntegrandPoleError):
            flow.phi_accumulate(run, -1.0, 1.0)

    def test_zero_axis_raises(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        with pytest.raises(ZeroAxisError):
            flow.phi_accumulate(run, 0.0, 1.0)


class TestReconstructFilament:
    def test_t_equals_one_identity(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        xs = np.linspace(-3.0, 3.0, 7)
        (t, curve), = flow.reconstruct_filament(run, [1.0], xs)
        for x, pt in zip(xs, curve):
            assert np.allclose(pt, run.g(float(x)), atol=1e-14)

    def test_zero_axis_pure_scaling(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        xs = np.linspace(-4.0, 4.0, 9)
        (t, curve), = flow.reconstruct_filament(run, [4.0], xs)
        for x, pt in zip(xs, curve):
            assert np.allclose(pt, 2.0 * run.g(float(x) / 2.0), atol=1e-13)

    def test_arc_length_parameterization(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        t = 4.0
        h = 0.01
        worst = 0.0
        for x in np.linspace(-2.0, 2.0, 9):
            xs = np.array([x - 2 * h, x - h, x + h, x + 2 * h])
            (_, pts), = flow.reconstruct_filament(run, [t], xs)
            deriv = (pts[0] - 8 * pts[1] + 8 * pts[2] - pts[3]) / (12 * h)
            worst = max(worst, abs(float(np.linalg.norm(deriv)) - 1.0))
        assert worst <= 1e-8

    def test_out_of_range_raises(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        with pytest.raises(RangeError):
            flow.reconstruct_filament(run, [0.01], np.array([10.0]))


class TestHasimoto:
    def test_zero_axis_modulus_and_phase(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        ss = np.linspace(-10.0, 10.0, 801)
        samples = flow.curvature_torsion(run, ss)
        psi = flow.hasimoto_psi(samples)
        assert np.max(np.abs(np.abs(psi) - 1.0)) <= 1e-8
        phases = np.unwrap(np.angle(psi))
        ref = ss**2 / 4.0
        ref -= np.interp(0.0, ss, ref)
        phases -= np.interp(0.0, ss, phases)
        assert np.max(np.abs(phases - ref)) <= 1e-8

    def test_zero_curvature_gives_zero(self):
        p, st = trivial_line_state(a=1.0, sign=1.0)
        run = flow.integrate_flow(p, st, -3.0, 3.0)
        samples = flow.curvature_torsion(run, np.linspace(-2, 2, 11))
        assert np.all(flow.hasimoto_psi(samples) == 0.0)

    def test_modulus_equals_curvature_exactly(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        ss = np.linspace(1.0, 8.0, 57)
        samples = flow.curvature_torsion(run, ss)
        psi = flow.hasimoto_psi(samples)
        for smp, val in zip(samples, psi):
            assert abs(val) == pytest.approx(smp.C, abs=1e-14)


class TestPropagatedIdentities:
    def test_mixed_product_and_gram_identities(self, runs):
        run = runs.grid_run(2.0, 1.0, "odd", s_max=25.0)
        p = run.params
        a_vec = p.a_vec
        for s in np.linspace(-24.0, 24.0, 49):
            y = run.state_y(float(s))
            g, gp = y[:3], y[3:]
            gpp = run.sample(float(s))["Gpp"]
            sig = float(a_vec @ g)
            sig_p = float(a_vec @ gp)
            mixed = float(a_vec @ np.cross(gp, gpp))
            assert abs(mixed - 0.5 * (sig - s * sig_p)) <= 1e-9
            gram = np.array([
                [p.a**2, sig_p, float(a_vec @ gpp)],
                [sig_p, float(gp @ gp), float(gp @ gpp)],
                [float(a_vec @ gpp), float(gp @ gpp), float(gpp @ gpp)],
            ])
            det = float(np.linalg.det(gram))
            assert abs(mixed**2 - det) <= 1e-9 * max(1.0, abs(det))

    def test_monitored_inequality(self, runs):
        # sigma^2/a^2 - s^2 + 4 sigma' - 4 eps <= 0 (Cauchy-Schwarz on a.G)
        for key in ((1.0, 0.5, "odd"), (2.0, 4.0, "mixed_minus")):
            run = runs.grid_run(*key, s_max=25.0)
            assert run.drift_diagnostics()["monitored_inequality_max"] <= 1e-9


class TestAdmissibleRegion:
    @given(hst.sampled_from(symmetric.BRANCHES), hst.floats(0.05, 10.0),
           hst.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_drifts_within_pinned_bounds(self, branch, a, u):
        # eps spans the branch's admissible range: |eps| <= a (odd),
        # eps >= -a (mixed_minus), eps >= a (mixed_plus), up to 2a + 1
        lo = {"odd": -a, "mixed_minus": -a, "mixed_plus": a}[branch]
        hi = a if branch == "odd" else 2.0 * a + 1.0
        p = flow.FlowParams(a, lo + u * (hi - lo))
        run = flow.integrate_flow(p, symmetric.make_symmetric_ic(p, branch), -40.0, 40.0)
        smp = run.sample(np.arange(-800, 801) * 0.05)
        assert np.max(np.abs(smp["eps_drift"])) <= TOL_EPS_DRIFT
        assert np.max(smp["unit_drift"]) <= TOL_UNIT_DRIFT
        assert np.max(np.abs(smp["constraint_drift"])) <= TOL_CONSTRAINT_DRIFT
