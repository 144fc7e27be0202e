"""Integrator tests: exact solutions, conservation, the step-size rule, dense
output."""

import math

import numpy as np
import pytest

from filpiv.odeint import ORDER, IntegratorConfig, integrate, integrate_span
from filpiv.errors import MaxStepsExceededError, StepUnderflowError


def expansion(next_coeff):
    """Coefficient function of the recurrence c[k + 1] = next_coeff(c, k, s)."""
    def taylor(s, y):
        c = np.zeros((ORDER + 1, len(y)))
        c[0] = y
        for k in range(ORDER):
            c[k + 1] = next_coeff(c, k, s)
        return c
    return taylor


decay = expansion(lambda c, k, s: -c[k] / (k + 1))                   # y' = -y
harmonic = expansion(lambda c, k, s: np.array([c[k, 1], -c[k, 0]]) / (k + 1))
square = expansion(lambda c, k, s: c[:k + 1, 0] @ c[k::-1, 0] / (k + 1))  # y' = y^2


def _forcing(s, k):
    # Taylor coefficient k about s of the forcing f(s) = s - s^3 / 20
    return (s - s**3 / 20.0, 1.0 - 3.0 * s * s / 20.0, -3.0 * s / 20.0, -1.0 / 20.0,
            0.0)[min(k, 4)]


# x'' = -x - 0.3 x' + f(s)
forced = expansion(lambda c, k, s: np.array(
    [c[k, 1], -c[k, 0] - 0.3 * c[k, 1] + _forcing(s, k)]) / (k + 1))


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
        with pytest.raises(StepUnderflowError) as exc:
            integrate(square, np.array([1.0]), 0.0, 2.0, cfg)
        assert exc.value.s == pytest.approx(1.0, abs=1e-9)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            integrate(decay, np.array([1.0]), 0.5, 0.5)

    def test_every_step_accepted(self):
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 30.0)
        assert traj.n_rejected == 0
        assert traj.rhs_evals == traj.n_steps
        assert traj.order == ORDER


class TestStepSize:
    def test_rule_from_last_two_coefficients(self):
        # decay from y = 1: |c_k| = 1/k!, tol = abs_tol + rel_tol
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(decay, np.array([1.0]), 0.0, 50.0, cfg)
        tol = cfg.abs_tol + cfg.rel_tol
        h = 0.9 * min((tol * math.factorial(j)) ** (1.0 / j) for j in (ORDER - 1, ORDER))
        assert traj.s_nodes[1] == pytest.approx(h, rel=1e-12)

    def test_polynomial_solution_in_one_step(self):
        # y' = 3 s^2 has the cubic solution: the expansion terminates, so the
        # step reaches the end of the span at once
        cubic = expansion(lambda c, k, s: (3.0 * s * s, 6.0 * s, 3.0, 0.0)[min(k, 3)]
                          / (k + 1))
        traj = integrate(cubic, np.array([0.0]), 0.0, 7.0)
        assert traj.n_steps == 1
        assert traj.state_at(7.0)[0] == pytest.approx(343.0, rel=1e-15)
        assert traj.state_at(2.0)[0] == pytest.approx(8.0, rel=1e-15)


class TestAccuracy:
    def test_order_via_tolerance_halving(self):
        # error should scale roughly like tol when the step rule tracks it
        ref_cfg = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)
        ref = integrate(forced, np.array([0.2, -0.1]), 0.0, 12.0, ref_cfg)
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2)
            traj = integrate(forced, np.array([0.2, -0.1]), 0.0, 12.0, cfg)
            errs.append(np.max(np.abs(traj.state_at(12.0) - ref.state_at(12.0))))
        assert errs[1] < errs[0] * 0.1
        assert errs[2] < errs[1] * 0.1

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
        # the step's polynomial at theta -> 1 approaches the next node state
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
        traj = integrate(harmonic, np.array([1.0, 0.0]), 0.0, 5.0, cfg)
        k = traj.n_steps // 2
        s0, s1 = traj.s_nodes[k], traj.s_nodes[k + 1]
        just_before = s1 - 1e-9 * (s1 - s0)
        assert np.max(np.abs(traj.state_at(just_before) - traj.states[k + 1])) < 1e-8

    def test_unsorted_read_matches_sorted(self):
        traj = integrate(forced, np.array([0.2, -0.1]), 0.0, 12.0)
        ss = np.random.default_rng(7).uniform(0.0, 12.0, 500)
        order = np.argsort(ss)
        assert np.array_equal(traj.states_at(ss)[order], traj.states_at(ss[order]))
        assert traj.states_at(np.array([])).shape == (0, 2)

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
            o, h = leg.origin[k], leg.h[k]
            theta = (s - leg.s_nodes[o]) / h
            y = np.zeros(leg.states.shape[1])
            power = 1.0
            for j, coeff in enumerate(leg.coeffs[k]):
                if j:
                    power = power * theta
                y = y + power * coeff
            return y

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
