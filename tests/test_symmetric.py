"""Symmetric-branch tests: initial data, parity of runs, tail roots with
admissibility, the closed-form tail predictions and the planar spiral."""

import math

import numpy as np
import pytest

from filpiv import asympt, flow, symmetric
from filpiv.errors import BranchInfeasibleError, ConfigError, DomainError
from filpiv.flow import FlowParams


class TestInitialData:
    def test_odd_equator(self):
        p = FlowParams(1.0, 0.0)
        st = symmetric.make_symmetric_ic(p, "odd")
        assert np.allclose(st.gp, [1.0, 0.0, 0.0], atol=1e-15)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert np.allclose(gpp, 0.0, atol=1e-15)
        assert np.allclose(st.g, 0.0, atol=1e-15)

    def test_mixed_minus_example(self):
        p = FlowParams(1.0, 1.0)
        st = symmetric.make_symmetric_ic(p, "mixed_minus")
        assert np.allclose(st.gp, [0.0, 0.0, -1.0], atol=1e-15)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert float(np.linalg.norm(gpp)) == pytest.approx(math.sqrt(2.0), abs=1e-13)
        assert float(p.a_vec @ st.g) == pytest.approx(0.0, abs=1e-14)

    def test_branch_sigma_p0(self):
        # sigma'(0) = a.G'(0): eps (odd), -a (mixed_minus), +a (mixed_plus)
        def sigma_p0(p, branch):
            return float(p.a_vec @ symmetric.make_symmetric_ic(p, branch).gp)

        p = FlowParams(1.5, 0.5)
        assert sigma_p0(p, "odd") == pytest.approx(0.5, abs=1e-15)
        assert sigma_p0(p, "mixed_minus") == -1.5
        p2 = FlowParams(1.5, 2.0)
        assert sigma_p0(p2, "mixed_plus") == 1.5

    def test_infeasible_branches(self):
        with pytest.raises(BranchInfeasibleError):
            symmetric.make_symmetric_ic(FlowParams(1.0, 1.5), "odd")
        with pytest.raises(BranchInfeasibleError):
            symmetric.make_symmetric_ic(FlowParams(1.0, 0.5), "mixed_plus")
        with pytest.raises(ConfigError):
            symmetric.make_symmetric_ic(FlowParams(1.0, 0.5), "wiggly")

    def test_odd_run_parity(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        a_vec = run.params.a_vec
        for s in np.linspace(0.5, 24.0, 40):
            sig_p = float(a_vec @ run.g(float(s)))
            sig_m = float(a_vec @ run.g(float(-s)))
            assert abs(sig_p + sig_m) <= 1e-8
            assert abs(float(a_vec @ run.gp(float(s)))
                       - float(a_vec @ run.gp(float(-s)))) <= 1e-8

    def test_mixed_run_parity(self, runs):
        run = runs.grid_run(1.0, 2.0, "mixed_minus", s_max=25.0)
        mirror = np.diag([1.0, 1.0, -1.0])
        for s in (0.7, 6.0, 19.0):
            assert np.max(np.abs(run.g(-s) - mirror @ run.g(s))) <= 1e-8


class TestXRoots:
    def test_first_root_always_discarded(self):
        for a in (0.5, 1.0, 3.0):
            for eps in (-0.2, 0.0, 1.0, 5.0):
                roots = symmetric.x_roots(FlowParams(a, eps))
                assert roots[0].value < 0
                assert not roots[0].admissible
                assert roots[0].omega is None

    def test_equal_parameters_boundary(self):
        # eps = a: X2 = X3 = 1, omega = eps/3
        p = FlowParams(1.2, 1.2)
        roots = symmetric.x_roots(p)
        assert roots[1].value == pytest.approx(1.0, abs=1e-12)
        assert roots[2].value == pytest.approx(1.0, abs=1e-12)
        assert roots[1].omega == pytest.approx(p.eps / 3.0, abs=1e-12)

    @pytest.mark.parametrize("a", [5.0, 10.0, 12.0, 20.0])
    def test_strong_axis_boundary_is_exact(self, a):
        # at eps = a the root factors f2 = 2 cosh(pi a/2) - e^{pi eps/2} and
        # f3 = e^{pi eps/2} - 2 sinh(pi a/2) both equal e^{-pi a/2}; as direct
        # differences they lost 4e-4 of omega at a = 10 and rounded to 0 (no
        # admissible root) from a = 12
        roots = symmetric.x_roots(FlowParams(a, a))
        for j in (1, 2):
            assert roots[j].value == 1.0 and roots[j].admissible
            assert abs(roots[j].omega - a / 3.0) <= 1e-12

    def test_example_value(self):
        # (a, eps) = (1, 0): X4 = 1 + 2 sinh(pi/2)
        roots = symmetric.x_roots(FlowParams(1.0, 0.0))
        x4 = 1.0 + 2.0 * math.sinh(math.pi / 2.0)
        assert roots[3].value == pytest.approx(x4, rel=1e-14)
        assert roots[3].omega == pytest.approx(-math.log(x4) / (2 * math.pi), rel=1e-13)

    def test_admissibility_matches_branch_windows(self):
        for a in (0.7, 1.5):
            for eps in (-0.9 * a, -0.3 * a, 0.5 * a, 0.99 * a, 1.01 * a, 2.5 * a):
                roots = symmetric.x_roots(FlowParams(a, eps))
                assert roots[1].admissible == (abs(eps) <= a)
                assert roots[2].admissible == (eps >= a)
                assert roots[3].admissible

    def test_conjecture_matches_admissible_roots(self):
        # X2 <-> odd, X3 <-> mixed_plus, X4 <-> mixed_minus: the same factor
        # gives the same omega, to the last bit, inside each branch's region
        # (on the boundary eps = -a, where X2 = 1, rounding decides the flag)
        root_of = {"odd": 1, "mixed_plus": 2, "mixed_minus": 3}
        checked = {branch: 0 for branch in root_of}
        for a in (0.2, 0.5, 1.0, 1.7, 3.0, 6.0, 12.0):
            for ratio in (-0.95, -0.6, -0.2, 0.0, 0.3, 0.7, 0.97, 1.03, 1.5, 2.4, 4.0):
                p = FlowParams(a, ratio * a)
                roots = symmetric.x_roots(p)
                for branch, j in root_of.items():
                    try:
                        omega, _ = symmetric.conjecture_omega(p, branch)
                    except BranchInfeasibleError:
                        assert not roots[j].admissible
                        continue
                    assert roots[j].admissible
                    assert roots[j].omega == omega
                    checked[branch] += 1
        assert min(checked.values()) >= 25

    def test_large_eps_roots_keep_finite_omegas(self):
        # e^{pi eps} is past the float range at eps = 300; X3 and X4 are inf,
        # their omegas come from the factors and stay finite
        p = FlowParams(1.0, 300.0)
        roots = symmetric.x_roots(p)
        for j, branch in ((2, "mixed_plus"), (3, "mixed_minus")):
            assert roots[j].value == math.inf and roots[j].admissible
            assert math.isfinite(roots[j].omega)
            assert roots[j].omega == symmetric.conjecture_omega(p, branch)[0]
            # omega = eps/12 - ln(e^{pi eps/2} -+ 2 sinh(pi/2))/(2 pi) = -eps/6
            # up to e^{-pi eps/2}
            assert roots[j].omega == pytest.approx(-50.0, abs=1e-12)
        assert roots[0].value == -math.inf and not roots[0].admissible
        assert not roots[1].admissible and roots[1].omega is None

    def test_out_of_range_roots_raise_domain_error(self):
        for a, eps in ((1.0, 460.0), (500.0, 0.0)):
            with pytest.raises(DomainError):
                symmetric.x_roots(FlowParams(a, eps))
        with pytest.raises(DomainError):
            symmetric.conjecture_omega(FlowParams(500.0, 0.0), "odd")


class TestConjectureOmega:
    def test_odd_value(self):
        om, rr = symmetric.conjecture_omega(FlowParams(1.0, 0.0), "odd")
        expected = -math.log(2.0 * math.cosh(math.pi / 2.0) - 1.0) / (2.0 * math.pi)
        assert om == pytest.approx(expected, rel=1e-14)
        assert rr == math.pi

    def test_mixed_minus_re_rho_zero(self):
        _, rr = symmetric.conjecture_omega(FlowParams(1.0, 1.5), "mixed_minus")
        assert rr == 0.0

    def test_mixed_minus_continuous_across_eps_equals_a(self):
        a = 1.0
        h = 1e-6
        om_lo, _ = symmetric.conjecture_omega(FlowParams(a, a - h), "mixed_minus")
        om_hi, _ = symmetric.conjecture_omega(FlowParams(a, a + h), "mixed_minus")
        assert abs(om_hi - om_lo) <= 1e-5

    @pytest.mark.parametrize("branch", ["odd", "mixed_plus"])
    @pytest.mark.parametrize("a", [5.0, 10.0, 12.0, 20.0])
    def test_equal_parameters_give_eps_over_3(self, a, branch):
        # both branches admit eps = a, where omega = eps/3 exactly; the
        # cancelling root factors returned 3.333151 at a = 10 and raised
        # BranchInfeasibleError from a = 12
        omega, _ = symmetric.conjecture_omega(FlowParams(a, a), branch)
        assert abs(omega - a / 3.0) <= 1e-12

    def test_infeasible_branch_raises(self):
        with pytest.raises(BranchInfeasibleError):
            symmetric.conjecture_omega(FlowParams(1.0, 1.5), "odd")
        with pytest.raises(BranchInfeasibleError):
            symmetric.conjecture_omega(FlowParams(0.5, 0.2), "mixed_plus")

    def test_limit_curvature_matches_numeric_mean(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=40.0)
        p = run.params
        om, _ = symmetric.conjecture_omega(p, "odd")
        predicted = 2.0 * (p.eps - 3.0 * om) / 3.0
        ms = np.linspace(30.0, 40.0, 600)
        c2 = [run.sample(float(m))["C"] ** 2 for m in ms]
        mean = float(np.trapezoid(c2, ms) / (ms[-1] - ms[0]))
        assert mean == pytest.approx(predicted, abs=5e-3)

    def test_connect_fixed_point_all_branches(self):
        cases = ((1.0, 0.2, "odd"), (1.0, 1.4, "mixed_plus"),
                 (1.0, 0.7, "mixed_minus"))
        for a, eps, branch in cases:
            p = FlowParams(a, eps)
            om, rr = symmetric.conjecture_omega(p, branch)
            delta = asympt.delta_from_re_rho(rr, om, p)
            tail = asympt.make_tail(1, om, delta, p)
            out = asympt.connect(tail, p, consistency_tol=1e-6)
            assert out.omega == pytest.approx(om, abs=1e-9)
            res = asympt.connfI_residuals(tail, out, p)
            assert max(res.values()) <= 1e-8


class TestPlanarSpiral:
    def test_reference_value(self):
        eps, delta = symmetric.planar_spiral(10.0)
        assert abs(delta - 0.95587) <= 1e-4
        assert eps == pytest.approx(10.0 * delta, rel=1e-14)

    def test_small_axis_expansion(self):
        # eps ~ pi a^2 / 4 and delta ~ pi a / 4 as a -> 0
        for a in (1e-3, 1e-2):
            eps, delta = symmetric.planar_spiral(a)
            assert eps == pytest.approx(math.pi * a * a / 4.0, rel=1e-4)
            assert delta == pytest.approx(math.pi * a / 4.0, rel=1e-4)

    def test_selects_vanishing_tail_mean(self):
        # the odd-branch prediction at the planar eps gives eps + 6 omega = 0
        for a in (0.5, 2.0, 10.0):
            eps, _ = symmetric.planar_spiral(a)
            om, _ = symmetric.conjecture_omega(FlowParams(a, eps), "odd")
            assert eps + 6.0 * om == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_axis(self):
        with pytest.raises(ConfigError):
            symmetric.planar_spiral(0.0)
