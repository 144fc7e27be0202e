"""Integrator tests: exact solutions, conservation, order, dense output."""

import math

import numpy as np
import pytest

from filpiv.odeint import IntegratorConfig, integrate, integrate_span
from filpiv.errors import MaxStepsExceededError, StepUnderflowError


def decay(s, y):
    return -y


def harmonic(s, y):
    return np.array([y[1], -y[0]])


class TestBasics:
    def test_exponential_decay(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(decay, np.array([1.0]), 0.0, 1.0, cfg)
        assert abs(traj.state_at(1.0)[0] - math.exp(-1.0)) < 10 * cfg.rel_tol

    def test_backward_direction(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(decay, np.array([1.0]), 0.0, -1.0, cfg)
        assert abs(traj.state_at(-1.0)[0] - math.exp(1.0)) < 10 * cfg.rel_tol * math.e

    def test_harmonic_energy_100_periods(self):
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 200 * math.pi, cfg)
        energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) <= 1e-9

    def test_max_steps_exceeded(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_steps=5)
        with pytest.raises(MaxStepsExceededError):
            integrate(harmonic, np.array([1.0, 0.0]), 0.0, 1000.0, cfg)

    def test_pole_triggers_step_underflow(self):
        # y' = y^2 blows up at s = 1
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_steps=100000)
        with pytest.raises(StepUnderflowError):
            integrate(lambda s, y: y * y, np.array([1.0]), 0.0, 2.0, cfg)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            integrate(decay, np.array([1.0]), 0.5, 0.5)


class TestAccuracy:
    def test_order_via_tolerance_halving(self):
        # error should scale roughly like tol when the controller tracks it
        def rhs(s, y):
            return np.array([y[1], -math.sin(s) - 0.3 * y[0]])

        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2)
            traj = integrate(rhs, np.array([0.2, -0.1]), 0.0, 12.0, cfg)
            ref_cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
            ref = integrate(rhs, np.array([0.2, -0.1]), 0.0, 12.0, ref_cfg)
            errs.append(np.max(np.abs(traj.state_at(12.0) - ref.state_at(12.0))))
        assert errs[1] < errs[0] * 0.1
        assert errs[2] < errs[1] * 0.1

    def test_richardson_step_halving_consistency(self):
        # integrating with max_step h and h/2 at loose tolerance: the error
        # against a tight reference should drop consistent with order 5
        def rhs(s, y):
            return np.array([math.cos(2 * s) * y[0]])

        ref = integrate(
            rhs, np.array([1.0]), 0.0, 3.0,
            IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15),
        ).state_at(3.0)[0]

        def err_with_h(h):
            cfg = IntegratorConfig(rel_tol=1e-2, abs_tol=1e-2, max_step=h)
            traj = integrate(rhs, np.array([1.0]), 0.0, 3.0, cfg)
            return abs(traj.state_at(3.0)[0] - ref)

        e1, e2 = err_with_h(0.075), err_with_h(0.0375)
        order = math.log2(e1 / e2)
        assert 4.0 <= order <= 6.5

    def test_reversibility(self):
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        y0 = np.array([0.3, 0.7])
        fwd = integrate(harmonic, y0, 0.0, 25.0, cfg)
        back = integrate(harmonic, fwd.state_at(25.0), 25.0, 0.0, cfg)
        assert np.max(np.abs(back.state_at(0.0) - y0)) <= 100 * cfg.rel_tol


class TestDenseOutput:
    def test_nodes_exact(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 10.0, cfg)
        for k in range(0, traj.n_steps + 1, max(1, traj.n_steps // 17)):
            s = traj.s_nodes[k]
            assert np.array_equal(traj.state_at(s), traj.states[k])

    def test_interpolation_accuracy(self):
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 10.0, cfg)
        ss = np.linspace(0.0, 10.0, 777)
        vals = traj.states_at(ss)
        ref = np.stack([np.cos(ss), -np.sin(ss)], axis=1)
        assert np.max(np.abs(vals - ref)) < 5e-10

    def test_outside_span_raises(self):
        traj = integrate(decay, np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            traj.state_at(1.5)

    def test_interpolant_endpoint_consistency(self):
        # row sums of the dense matrix reproduce the propagating weights,
        # so theta -> 1 approaches the next node state
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 5.0, cfg)
        k = traj.n_steps // 2
        s0, s1 = traj.s_nodes[k], traj.s_nodes[k + 1]
        just_before = s1 - 1e-9 * (s1 - s0)
        assert np.max(np.abs(traj.state_at(just_before) - traj.states[k + 1])) < 1e-8

    def test_joined_legs_match_per_point_reference(self):
        # the two-sided trajectory, evaluated in one batch, reproduces each
        # leg's per-point quartic evaluation bit for bit
        def leg_state(leg, s):
            k = min(max(int(np.searchsorted(leg.s_nodes, s, side="right")) - 1, 0),
                    leg.n_steps - 1)
            if s == leg.s_nodes[k]:
                return leg.states[k]
            if s == leg.s_nodes[k + 1]:
                return leg.states[k + 1]
            o, h = leg.origin[k], leg.h[k]
            theta = (s - leg.s_nodes[o]) / h
            powers = np.array([theta, theta**2, theta**3, theta**4])
            return leg.states[o] + h * (leg.q[k] @ powers)

        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        y0 = np.array([1.0, 0.0])
        s0 = 0.5
        minus = integrate(harmonic, y0, s0, -4.0, cfg)
        plus = integrate(harmonic, y0, s0, 6.0, cfg)
        both = integrate_span(harmonic, y0, s0, -4.0, 6.0, cfg)
        assert both.n_steps == minus.n_steps + plus.n_steps
        assert both.rhs_evals == minus.rhs_evals + plus.rhs_evals
        ss = np.concatenate([both.s_nodes, np.linspace(-4.0, 6.0, 2001)])
        assert {-4.0, s0, 6.0} <= set(both.s_nodes)
        ref = np.array([leg_state(plus if s >= s0 else minus, s) for s in ss])
        assert np.array_equal(both.states_at(ss), ref)
        assert np.array_equal(both.states_at(ss[None, :]), ref[None])

    def test_max_step_fn_respected(self):
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
        traj = integrate(
            harmonic, np.array([1.0, 0.0]), 0.0, 10.0, cfg,
            max_step_fn=lambda s: 0.05 if s > 5 else 1.0,
        )
        widths = np.diff(traj.s_nodes)
        tail = widths[traj.s_nodes[:-1] > 5.0]
        assert np.max(tail) <= 0.05 + 1e-12
