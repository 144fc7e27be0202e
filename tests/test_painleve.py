"""Sigma-equation tests: residuals along trajectories, the direct integrator
(also from the degenerate starts where sigma'' = 0), and the conventional-PIV
maps q, p with their residual, including the tangent-aligned
special-function family.  The maps and the derivative formulas they use are
defined here, as the reference the tests check."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from filpiv import painleve
from filpiv import specfun as sf
from filpiv.errors import ConfigError, InconsistentJetError, NumericError, RangeError
from filpiv.flow import FlowParams, SigmaJet
from filpiv.odeint import ORDER

EIPI4 = cmath.exp(0.25j * cmath.pi)


class DenominatorVanishesError(NumericError):
    """Map denominator a -+ sigma', or q, vanished (solution tangent to the
    bound)."""


@dataclass(frozen=True)
class PivParams:
    """Conventional-PIV parameter pairs for the q and p reductions."""

    alpha_q: complex
    beta_q: complex
    alpha_p: complex
    beta_p: complex

    @staticmethod
    def from_flow(params: FlowParams) -> "PivParams":
        a, eps = params.a, params.eps
        return PivParams(
            alpha_q=1.0 - 0.5j * (eps - 3.0 * a),
            beta_q=0.5 * (a + eps) ** 2,
            alpha_p=-1.0 - 0.5j * (eps + 3.0 * a),
            beta_p=0.5 * (a - eps) ** 2,
        )


def sigma_ppp(jet: SigmaJet, params: FlowParams) -> float:
    """sigma''' from the differentiated quadratic equation (sigma'' cancels)."""
    s, sg, sp = jet.s, jet.sigma, jet.sigma_p
    return 0.5 * (3.0 * sp**2 - 2.0 * params.eps * sp - params.a**2) - 0.25 * s * (
        s * sp - sg
    )


def sigma_pppp(jet: SigmaJet, params: FlowParams) -> float:
    """Fourth derivative by differentiating sigma''' once more."""
    s, sg, sp, spp = jet.s, jet.sigma, jet.sigma_p, jet.sigma_pp
    return (3.0 * sp - params.eps) * spp - 0.25 * (s * sp - sg) - 0.25 * s**2 * spp


def _map_jet(jet: SigmaJet, params: FlowParams, upper: bool):
    """(z, f, df/dz, d2f/dz2) for f = q (upper) or p along the ray, with q
    and p at their native argument z = e^{-i pi/4} s / 2."""
    s = jet.s
    sg, sp, spp = jet.sigma, jet.sigma_p, jet.sigma_pp
    sppp = sigma_ppp(jet, params)
    spppp = sigma_pppp(jet, params)
    sign = 1.0 if upper else -1.0
    n = spp + sign * 0.5j * (s * sp - sg)
    n1 = sppp + sign * 0.5j * s * spp
    n2 = spppp + sign * 0.5j * (spp + s * sppp)
    d = params.a - sign * sp
    if abs(d) < 1e-12 * max(1.0, params.a):
        raise DenominatorVanishesError("map denominator vanished")
    d1 = -sign * spp
    d2 = -sign * sppp
    f = -EIPI4 * n / d
    fs = -EIPI4 * (n1 / d - n * d1 / d**2)
    fss = -EIPI4 * (
        n2 / d - 2.0 * n1 * d1 / d**2 - n * d2 / d**2 + 2.0 * n * d1**2 / d**3
    )
    ds_dz = 2.0 * EIPI4  # z = e^{-i pi/4} s / 2
    z = 0.5 * s / EIPI4
    return z, f, fs * ds_dz, fss * ds_dz**2


def q_jet(jet: SigmaJet, params: FlowParams):
    """(z, q, q', q'') with derivatives in the conventional variable."""
    return _map_jet(jet, params, upper=True)


def p_jet(jet: SigmaJet, params: FlowParams):
    """(z, p, p', p'') with derivatives in the conventional variable."""
    return _map_jet(jet, params, upper=False)


def cp4_residual(q: complex, qp: complex, qpp: complex, s: complex,
                 alpha: complex, beta: complex) -> complex:
    """Residual of the conventional PIV equation
    q'' = q'^2/(2q) + (3/2) q^3 + 4 s q^2 + 2 (s^2 - alpha) q + beta / q."""
    q = complex(q)
    if abs(q) < 1e-300:
        raise DenominatorVanishesError("q vanished in the PIV residual")
    return qpp - (
        qp**2 / (2.0 * q)
        + 1.5 * q**3
        + 4.0 * s * q**2
        + 2.0 * (s**2 - alpha) * q
        + beta / q
    )


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
            gpp = run.sample(float(s))["Gpp"]
            w = np.cross(a_vec, g) + g
            gppp = 0.5 * np.cross(np.cross(a_vec, gp) + gp, gp) \
                + 0.5 * np.cross(w, gpp)
            jet = run.sigma_jet(float(s))
            assert sigma_ppp(jet, p) == pytest.approx(
                float(a_vec @ gppp), abs=1e-8
            )

    def test_fourth_derivative_by_finite_difference(self, runs):
        # differentiate the state-validated sigma''' along the trajectory
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        h = 1e-3
        for s in (2.0, 7.5, -13.0):
            f3 = [sigma_ppp(run.sigma_jet(s + k * h), p)
                  for k in (-2, -1, 1, 2)]
            fd = (f3[0] - 8 * f3[1] + 8 * f3[2] - f3[3]) / (12 * h)
            val = sigma_pppp(run.sigma_jet(s), p)
            assert val == pytest.approx(fd, abs=1e-6 * max(1.0, abs(val)))

    def test_direct_taylor_coefficients_match_jets(self):
        # the recurrence of the direct integrator: 6 c_3 and 24 c_4 of sigma
        # are the third and fourth derivatives of the quadratic equation
        p = FlowParams(1.3, 0.4)
        for s, y in ((0.0, (0.2, 0.5, -0.7)), (-6.5, (3.1, -0.4, 1.2)),
                     (11.0, (-2.0, 0.9, 0.3))):
            jet = SigmaJet(s, *y)
            c = painleve._sp4_taylor(p)([s], np.array([y]))[:, 0]
            sppp = sigma_ppp(jet, p)
            assert np.array_equal(c[0], y)
            assert np.allclose(c[1], [y[1], y[2], sppp], rtol=1e-14, atol=0.0)
            assert 6.0 * c[3, 0] == pytest.approx(sppp, rel=1e-13)
            assert 24.0 * c[4, 0] == pytest.approx(sigma_pppp(jet, p), rel=1e-13)


# rounding bound for two evaluations of one recurrence that sum in different
# orders: one unit in the last place per order, relative to the size of the
# sums each coefficient is made of
_ROUNDING = np.finfo(float).eps * np.arange(1, ORDER + 2)[:, None]


def _sp4_reference(params, s0, y, sign=-1.0):
    """The recurrence of the direct integrator on numpy rows, one order at a
    time.  With sign +1 and the absolute values of s0, eps and y it gives
    the size of the sums each coefficient is made of, the scale of its
    rounding error."""
    eps, half_a2 = params.eps, 0.5 * params.a**2
    if sign > 0.0:
        s0, eps, y = abs(s0), abs(eps), np.abs(y)
    c = np.empty((ORDER + 1, 3))
    c[0] = y
    u, p, r = c.T
    q_prev = p_prev = 0.0
    for k in range(ORDER):
        q_k = s0 * p[k] + p_prev + sign * u[k]
        f = 1.5 * float(p[:k + 1] @ p[k::-1]) + sign * (eps * p[k] + 0.25 * (s0 * q_k + q_prev))
        if k == 0:
            f += sign * half_a2
        u[k + 1] = p[k] / (k + 1)
        p[k + 1] = r[k] / (k + 1)
        r[k + 1] = f / (k + 1)
        q_prev, p_prev = q_k, p[k]
    return c


class TestSp4Taylor:
    @pytest.mark.parametrize("a, eps", [(0.0, 1.0), (1.0, 0.5), (10.0, -5.0), (2.0, 6.0)])
    def test_matches_reference(self, a, eps):
        p = FlowParams(a, eps)
        taylor = painleve._sp4_taylor(p)
        rng = np.random.default_rng(12)
        for _ in range(20):
            s0 = rng.uniform(-40.0, 40.0)
            y = rng.standard_normal(3) * 10.0 ** rng.uniform(-1.0, 1.0)
            c = taylor([s0], y[None])[:, 0]
            ref = _sp4_reference(p, s0, y)
            size = _sp4_reference(p, s0, y, 1.0)
            assert np.array_equal(c[0], y)
            assert np.all(np.abs(c - ref) <= _ROUNDING * size)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_coefficient_layout(self, lanes):
        # integrate's batched step sums each lane's orders one after the
        # other, as a one-lane integration does, only on C-ordered arrays
        ys = np.random.default_rng(4).standard_normal((lanes, 3))
        c = painleve._sp4_taylor(FlowParams(1.3, 0.4))([0.5] * lanes, ys)
        assert c.shape == (ORDER + 1, lanes, 3) and c.flags.c_contiguous


class TestSp4Integrate:
    # sigma''(0) = 0 at every symmetric start: odd data have G''(0) = 0,
    # mixed data G''(0) orthogonal to the axis
    @pytest.mark.parametrize("a, eps, branch", [
        (1.0, 0.0, "odd"), (1.0, 0.5, "odd"), (1.0, -0.9, "odd"), (2.0, 1.0, "odd"),
        (1.0, 1.5, "mixed_minus"), (1.0, -1.0, "mixed_minus"),
        (1.0, 1.5, "mixed_plus"), (0.7, 0.7, "mixed_plus"),
    ])
    def test_degenerate_start_matches_flow(self, runs, a, eps, branch):
        run = runs.grid_run(a, eps, branch, s_max=25.0)
        p = run.params
        jet0 = run.sigma_jet(0.0)
        assert jet0.sigma_pp == pytest.approx(0.0, abs=1e-15)
        path = painleve.sp4_integrate(jet0, p, (-20.0, 20.0))
        grid = np.linspace(-20.0, 20.0, 401)
        jet, ref = path.jet(grid), run.sigma_jet(grid)
        assert np.max(np.abs(jet.sigma - ref.sigma)) <= 1e-10
        assert np.max(np.abs(jet.sigma_p - ref.sigma_p)) <= 1e-10
        res = painleve.sp4_residual(jet, p)
        assert np.all(np.abs(res) <= 1e-8 * (1.0 + np.abs(grid) ** 3))

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

    @pytest.mark.parametrize("span", [(1.0, 1.0), (5.0, 20.0)])
    def test_span_must_hold_the_jet(self, span):
        # sigma = 0 solves the a = 0 equation: the jet is consistent, and only
        # the span is at fault (an empty one, then one that misses s = 1)
        with pytest.raises(ConfigError) as exc:
            painleve.sp4_integrate(SigmaJet(1.0, 0.0, 0.0, 0.0), FlowParams(0.0, 1.0), span)
        assert exc.type is RangeError


class TestQPMaps:
    def test_line_gives_zero_p(self):
        p = FlowParams(1.0, 1.0)
        jet = SigmaJet(2.0, 2.0, 1.0, 0.0)
        assert abs(p_jet(jet, p)[1]) == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(DenominatorVanishesError):
            q_jet(jet, p)

    def test_reality_pairing(self, runs):
        # (a - sigma') conj(q) = -i (a + sigma') p for real sigma jets
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        for s in (0.5, 4.0, -9.0, 17.0):
            jet = run.sigma_jet(s)
            qv = q_jet(jet, p)[1]
            pv = p_jet(jet, p)[1]
            lhs = (p.a - jet.sigma_p) * qv.conjugate()
            rhs = -1j * (p.a + jet.sigma_p) * pv
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_qp_product_eliminates_second_derivative(self, runs):
        # q p = i (eps - sigma') once the quadratic equation removes sigma''
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        for s in (1.0, 6.0, -12.0):
            jet = run.sigma_jet(s)
            qv = q_jet(jet, p)[1]
            pv = p_jet(jet, p)[1]
            assert abs(qv * pv - 1j * (p.eps - jet.sigma_p)) <= 1e-8

    def test_conventional_residual_via_chain_rule(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=25.0)
        p = run.params
        piv = PivParams.from_flow(p)
        worst_q = worst_p = 0.0
        for s in np.linspace(1.0, 20.0, 39):
            jet = run.sigma_jet(float(s))
            z, qv, qd, qdd = q_jet(jet, p)
            res = cp4_residual(qv, qd, qdd, z, piv.alpha_q, piv.beta_q)
            worst_q = max(worst_q, abs(res) / max(1.0, abs(qv) ** 3))
            z, pv, pd, pdd = p_jet(jet, p)
            res = cp4_residual(pv, pd, pdd, z, piv.alpha_p, piv.beta_p)
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
            assert abs(cp4_residual(q, qp, qpp, s, alpha, beta)) < 1e-12

    def test_conjugation_symmetry(self):
        q, qp, qpp = 0.7 - 0.2j, 0.1 + 0.4j, -0.3 + 0.9j
        s, alpha, beta = 1.2 + 0.5j, 1.0 - 0.5j, 2.0 + 0.1j
        r = cp4_residual(q, qp, qpp, s, alpha, beta)
        rc = cp4_residual(
            q.conjugate(), qp.conjugate(), qpp.conjugate(),
            s.conjugate(), alpha.conjugate(), beta.conjugate(),
        )
        assert abs(rc - r.conjugate()) < 1e-13

    def test_q_vanishes_raises(self):
        with pytest.raises(DenominatorVanishesError):
            cp4_residual(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)

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
            val = sf.pcf_d(order, w)[0]
            der = order * sf.pcf_d(order - 1, w)[0] - 0.5 * w * val
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
            res = cp4_residual(q, qp, qpp, s, alpha, beta)
            assert abs(res) <= 1e-8 * max(1.0, abs(q) ** 3)
