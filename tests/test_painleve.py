"""Sigma-equation tests: residuals along trajectories, the direct integrator
with its degenerate-start fallback, the q/p maps and the conventional-PIV
residual, including the tangent-aligned special-function family."""

import cmath
import math

import numpy as np
import pytest

from filpiv import flow, painleve
from filpiv import specfun as sf
from filpiv.errors import DenominatorVanishesError, InconsistentJetError
from filpiv.flow import FlowParams, SigmaJet
from filpiv.odeint import IntegratorConfig

EIPI4 = cmath.exp(0.25j * cmath.pi)


class TestResidual:
    @pytest.mark.parametrize("eps", [0.2, 1.0, 3.7])
    def test_line_jets_for_any_eps(self, eps):
        p = FlowParams(1.3, eps)
        for s in (-4.0, 0.3, 9.0):
            jet_plus = SigmaJet(s, 1.3 * s, 1.3, 0.0)
            jet_minus = SigmaJet(s, -1.3 * s, -1.3, 0.0)
            assert painleve.sp4_residual(jet_plus, p) == pytest.approx(0.0, abs=1e-12)
            assert painleve.sp4_residual(jet_minus, p) == pytest.approx(0.0, abs=1e-12)

    def test_flow_jets_small_residual(self, runs):
        for key in ((1.0, 0.5, "odd"), (2.0, 1.0, "odd")):
            run = runs.grid_run(*key, s_max=25.0)
            for s in np.linspace(-24.5, 24.5, 99):
                jet = run.sigma_jet(float(s))
                bound = 1e-8 * (1.0 + abs(s) ** 3)
                assert abs(painleve.sp4_residual(jet, run.params)) <= bound


class TestSigmaDerivatives:
    def test_third_derivative_matches_state_formula(self, runs):
        # sigma''' from the differentiated quadratic equation equals the
        # direct a.G''' computed from the flow state
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        a_vec = p.a_vec
        for s in np.linspace(-20.0, 20.0, 41):
            y = run.state_y(float(s))
            g, gp = y[:3], y[3:]
            gpp = run.gpp(float(s))
            w = np.cross(a_vec, g) + g
            gppp = 0.5 * np.cross(np.cross(a_vec, gp) + gp, gp) \
                + 0.5 * np.cross(w, gpp)
            jet = run.sigma_jet(float(s))
            assert painleve.sigma_ppp(jet, p) == pytest.approx(
                float(a_vec @ gppp), abs=1e-8
            )

    def test_fourth_derivative_by_finite_difference(self, runs):
        # differentiate the state-validated sigma''' along the trajectory
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        h = 1e-3
        for s in (2.0, 7.5, -13.0):
            f3 = [painleve.sigma_ppp(run.sigma_jet(s + k * h), p)
                  for k in (-2, -1, 1, 2)]
            fd = (f3[0] - 8 * f3[1] + 8 * f3[2] - f3[3]) / (12 * h)
            val = painleve.sigma_pppp(run.sigma_jet(s), p)
            assert val == pytest.approx(fd, abs=1e-6 * max(1.0, abs(val)))

    def test_direct_taylor_coefficients_match_jets(self):
        # the recurrence of the direct integrator: 6 c_3 and 24 c_4 of sigma
        # are the third and fourth derivatives of the quadratic equation
        p = FlowParams(1.3, 0.4)
        for s, y in ((0.0, (0.2, 0.5, -0.7)), (-6.5, (3.1, -0.4, 1.2)),
                     (11.0, (-2.0, 0.9, 0.3))):
            jet = SigmaJet(s, *y)
            c = painleve._sp4_taylor(p)(s, np.array(y))
            sppp = painleve.sigma_ppp(jet, p)
            assert np.array_equal(c[0], y)
            assert np.allclose(c[1], [y[1], y[2], sppp], rtol=1e-14, atol=0.0)
            assert 6.0 * c[3, 0] == pytest.approx(sppp, rel=1e-13)
            assert 24.0 * c[4, 0] == pytest.approx(painleve.sigma_pppp(jet, p), rel=1e-13)


class TestSp4Integrate:
    def test_odd_start_uses_flow_fallback(self, runs):
        p = FlowParams(1.0, 0.5)
        jet0 = SigmaJet(0.0, 0.0, 0.5, 0.0)
        path = painleve.sp4_integrate(jet0, p, (-15.0, 15.0))
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        for s in np.linspace(-14.0, 14.0, 29):
            ref = run.sigma_jet(float(s))
            assert path.jet(float(s)).sigma == pytest.approx(ref.sigma, abs=1e-8)
        assert path.residual_max(150) <= 1e-8 * (1 + 15.0**3)

    def test_line_stays_line(self):
        # eps = a: the tangent-aligned jet continues as the straight line
        p = FlowParams(1.0, 1.0)
        jet0 = SigmaJet(1.0, 1.0, 1.0, 0.0)
        path = painleve.sp4_integrate(jet0, p, (-6.0, 6.0))
        for s in np.linspace(-5.0, 5.0, 21):
            assert path.jet(float(s)).sigma_p == pytest.approx(1.0, abs=1e-10)

    def test_direct_integration_matches_flow(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        jet0 = run.sigma_jet(5.0)  # generic point, sigma'' != 0
        assert abs(jet0.sigma_pp) > 1e-3
        path = painleve.sp4_integrate(jet0, p, (5.0, 20.0))
        for s in np.linspace(5.5, 20.0, 30):
            assert path.jet(float(s)).sigma == pytest.approx(
                run.sigma_jet(float(s)).sigma, abs=1e-7
            )

    def test_forward_backward_reversibility(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        jet0 = run.sigma_jet(3.0)
        fwd = painleve.sp4_integrate(jet0, p, (3.0, 18.0))
        jet_end = fwd.jet(18.0)
        back = painleve.sp4_integrate(jet_end, p, (3.0, 18.0))
        jet_back = back.jet(3.0)
        assert jet_back.sigma == pytest.approx(jet0.sigma, abs=1e-7)
        assert jet_back.sigma_p == pytest.approx(jet0.sigma_p, abs=1e-7)
        assert jet_back.sigma_pp == pytest.approx(jet0.sigma_pp, abs=1e-7)

    def test_inconsistent_jet_rejected(self):
        p = FlowParams(1.0, 0.5)
        with pytest.raises(InconsistentJetError):
            painleve.sp4_integrate(SigmaJet(0.0, 0.0, 0.5, 1.0), p, (-5.0, 5.0))


class TestQPMaps:
    def test_line_gives_zero_p(self):
        p = FlowParams(1.0, 1.0)
        jet = SigmaJet(2.0, 2.0, 1.0, 0.0)
        assert abs(painleve.to_p(jet, p)) == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(DenominatorVanishesError):
            painleve.to_q(jet, p)

    def test_reality_pairing(self, runs):
        # (a - sigma') conj(q) = -i (a + sigma') p for real sigma jets
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        for s in (0.5, 4.0, -9.0, 17.0):
            jet = run.sigma_jet(s)
            qv = painleve.to_q(jet, p)
            pv = painleve.to_p(jet, p)
            lhs = (p.a - jet.sigma_p) * qv.conjugate()
            rhs = -1j * (p.a + jet.sigma_p) * pv
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_qp_product_eliminates_second_derivative(self, runs):
        # q p = i (eps - sigma') once the quadratic equation removes sigma''
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        for s in (1.0, 6.0, -12.0):
            jet = run.sigma_jet(s)
            qv = painleve.to_q(jet, p)
            pv = painleve.to_p(jet, p)
            assert abs(qv * pv - 1j * (p.eps - jet.sigma_p)) <= 1e-8

    def test_conventional_residual_via_chain_rule(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        piv = painleve.PivParams.from_flow(p)
        worst_q = worst_p = 0.0
        for s in np.linspace(1.0, 20.0, 39):
            jet = run.sigma_jet(float(s))
            z, qv, qd, qdd = painleve.q_jet(jet, p)
            res = painleve.cp4_residual(qv, qd, qdd, z, piv.alpha_q, piv.beta_q)
            worst_q = max(worst_q, abs(res) / max(1.0, abs(qv) ** 3))
            z, pv, pd, pdd = painleve.p_jet(jet, p)
            res = painleve.cp4_residual(pv, pd, pdd, z, piv.alpha_p, piv.beta_p)
            worst_p = max(worst_p, abs(res) / max(1.0, abs(pv) ** 3))
        assert worst_q <= 1e-6
        assert worst_p <= 1e-6


class TestCp4Residual:
    def test_tautology(self):
        rng = np.random.RandomState(8)
        for _ in range(10):
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            qp = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha, beta = 1.0 - 0.5j, 2.0 + 0.0j
            qpp = (qp**2 / (2 * q) + 1.5 * q**3 + 4 * s * q**2
                   + 2 * (s**2 - alpha) * q + beta / q)
            assert abs(painleve.cp4_residual(q, qp, qpp, s, alpha, beta)) < 1e-12

    def test_conjugation_symmetry(self):
        q, qp, qpp = 0.7 - 0.2j, 0.1 + 0.4j, -0.3 + 0.9j
        s, alpha, beta = 1.2 + 0.5j, 1.0 - 0.5j, 2.0 + 0.1j
        r = painleve.cp4_residual(q, qp, qpp, s, alpha, beta)
        rc = painleve.cp4_residual(
            q.conjugate(), qp.conjugate(), qpp.conjugate(),
            s.conjugate(), alpha.conjugate(), beta.conjugate(),
        )
        assert abs(rc - r.conjugate()) < 1e-13

    def test_q_vanishes_raises(self):
        with pytest.raises(DenominatorVanishesError):
            painleve.cp4_residual(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("a,c_plus,c_minus", [
        (0.7, 1.0, 0.35), (1.4, 0.2, 1.0), (1.0, 1.0, 1.0),
    ])
    def test_tangent_aligned_family(self, a, c_plus, c_minus):
        # at eps = a: q = -s + d/ds ln(C+ D_{ia}(i s sqrt2) + C- D_{ia}(-i s sqrt2))
        # solves the conventional equation with alpha = 1 + i a, beta = 2 a^2
        alpha, beta = 1.0 + 1j * a, 2.0 * a * a
        order = 1j * a
        rt2 = math.sqrt(2.0)

        def d_and_deriv(w):
            val = sf.pcf_d(order, w)
            der = order * sf.pcf_d(order - 1, w) - 0.5 * w * val
            return val, der

        for s in (0.4, 1.1, 2.3):
            f = df = 0.0
            for c, sign in ((c_plus, 1.0), (c_minus, -1.0)):
                val, der = d_and_deriv(sign * 1j * s * rt2)
                f += c * val
                df += c * der * sign * 1j * rt2
            lf = df / f
            ddf = (s * s + 2j * a + 1.0) * f         # Weber equation
            dddf = 2.0 * s * f + (s * s + 2j * a + 1.0) * df
            q = -s + lf
            qp = -1.0 + ddf / f - lf * lf
            qpp = dddf / f - 3.0 * (ddf / f) * lf + 2.0 * lf**3
            res = painleve.cp4_residual(q, qp, qpp, s, alpha, beta)
            assert abs(res) <= 1e-8 * max(1.0, abs(q) ** 3)
