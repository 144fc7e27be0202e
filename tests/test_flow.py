"""Flow-system tests: initial data, conserved quantities, curvature/torsion,
the spherical cross-check, azimuth quadrature, filament reconstruction and
the complex envelope."""

import math

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from filpiv import flow, symmetric
from filpiv.errors import (
    ChartSingularityError,
    InconsistentCauchyDataError,
    IntegrandPoleError,
    RangeError,
    ZeroAxisError,
)
from filpiv.odeint import IntegratorConfig
from filpiv.selfcheck import TOL_CONSTRAINT_DRIFT, TOL_EPS_DRIFT, TOL_UNIT_DRIFT


def trivial_line_state(a=1.0, sign=-1.0, s=0.0):
    """G = sign * s * axis (the straight filament along the axis)."""
    p = flow.FlowParams(a, sign * a)
    e3 = np.array([0.0, 0.0, 1.0])
    return p, flow.FlowState(sign * s * e3, sign * e3, s)


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
        p = flow.FlowParams(1.7, 0.4, tuple(axis / np.linalg.norm(axis)))
        st = flow.FlowState(rng.randn(3), rng.randn(3), 0.8)
        c = flow.make_taylor(p)(st.s, st.y)
        f = flow.make_rhs(p)(st.s, st.y)
        assert np.array_equal(c[0], st.y)
        assert np.allclose(c[1], f, rtol=0.0, atol=1e-14)
        g, gp, gpp = st.g, st.gp, f[3:]
        w = np.cross(p.a_vec, g) + g
        gppp = 0.5 * np.cross(np.cross(p.a_vec, gp) + gp, gp) + 0.5 * np.cross(w, gpp)
        assert np.allclose(2.0 * c[2], np.concatenate([gpp, gppp]), rtol=0.0, atol=1e-13)


class TestConservedEpsilon:
    def test_zero_axis_form(self):
        p = flow.FlowParams(0.0, 1.0)
        st = flow.make_initial_state(p, [1, 0, 0], [0, 1, 0])
        direct = 0.25 * (float(st.g @ st.g) - st.s**2)
        assert flow.conserved_epsilon(st, p) == pytest.approx(direct, abs=1e-14)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert direct == pytest.approx(float(gpp @ gpp), abs=1e-13)

    def test_trivial_line_value(self):
        p, st = trivial_line_state(a=1.5, sign=-1.0, s=4.0)
        assert flow.conserved_epsilon(st, p) == pytest.approx(-1.5, abs=1e-13)

    def test_constant_along_trajectory(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        assert run.drift_diagnostics()["eps_drift_max"] <= 1e-9


class TestSigmaJet:
    def test_trivial_line_jet(self):
        p, st = trivial_line_state(a=1.0, sign=1.0, s=2.5)
        jet = flow.sigma_jet(st, p)
        assert (jet.sigma, jet.sigma_p, jet.sigma_pp) == pytest.approx(
            (2.5, 1.0, 0.0), abs=1e-13
        )

    def test_odd_initial_jet(self):
        p = flow.FlowParams(1.0, 0.4)
        cos_t = 0.4
        sin_t = math.sqrt(1 - cos_t**2)
        st = flow.make_initial_state(p, [sin_t, 0, cos_t], [0, 0, 0])
        jet = flow.sigma_jet(st, p)
        assert jet.sigma == pytest.approx(0.0, abs=1e-14)
        assert jet.sigma_p == pytest.approx(p.eps, abs=1e-14)
        assert jet.sigma_pp == pytest.approx(0.0, abs=1e-14)

    def test_zero_axis_raises(self):
        p = flow.FlowParams(0.0, 1.0)
        st = flow.make_initial_state(p, [1, 0, 0], [0, 1, 0])
        with pytest.raises(ZeroAxisError):
            flow.sigma_jet(st, p)


class TestStateFromSigmaJet:
    def test_round_trip_generic(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        for s in (0.7, 5.0, -11.0):
            jet = run.sigma_jet(s)
            st = flow.state_from_sigma_jet(jet, p)
            jet2 = flow.sigma_jet(st, p)
            assert jet2.sigma == pytest.approx(jet.sigma, abs=1e-9)
            assert jet2.sigma_p == pytest.approx(jet.sigma_p, abs=1e-9)
            assert jet2.sigma_pp == pytest.approx(jet.sigma_pp, abs=1e-9)
            assert flow.conserved_epsilon(st, p) == pytest.approx(p.eps, abs=1e-8)

    def test_tangent_aligned_jet(self):
        p = flow.FlowParams(1.0, 1.5)
        jet = flow.SigmaJet(0.0, 0.0, 1.0, 0.0)  # mixed_plus-type data
        st = flow.state_from_sigma_jet(jet, p)
        assert np.allclose(st.gp, [0, 0, 1.0], atol=1e-14)
        gpp = flow.make_rhs(p)(st.s, st.y)[3:]
        assert float(gpp @ gpp) == pytest.approx(0.5, abs=1e-12)


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


class TestSpherical:
    def test_stationary_latitude(self):
        p = flow.FlowParams(1.0, 0.0)
        theta, s = 1.1, 2.0
        disc = s * s - 8.0 * math.cos(theta) * p.a
        phi_p = (s + math.sqrt(disc)) / (4.0 * math.cos(theta))
        theta_pp, phi_pp = flow.spherical_rhs(theta, 0.0, phi_p, s, p)
        assert theta_pp == pytest.approx(0.0, abs=1e-13)
        assert phi_pp == pytest.approx(0.0, abs=1e-13)

    def test_chart_singularity_raises(self):
        p = flow.FlowParams(1.0, 0.0)
        with pytest.raises(ChartSingularityError):
            flow.spherical_rhs(1e-12, 0.1, 0.1, 1.0, p)

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
            th_pp, ph_pp = flow.spherical_rhs(th, th_p, ph_p, s, p)
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
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
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
        vals = [flow.spherical_epsilon(*y[[0, 1, 3]], p) for y in sph]
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
            gpp = run.gpp(float(s))
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
