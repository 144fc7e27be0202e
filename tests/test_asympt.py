"""Tail-asymptotics tests: amplitude law, truncated models against numeric
runs, the fitting pipeline, the rho laws and the connection map."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filpiv import asympt, flow, symmetric
from filpiv.errors import (
    ConfigError,
    DomainError,
    FilpivError,
    NonRealMonodromyError,
    OmegaOutOfBoundsError,
    WindowTooShortError,
)
from filpiv.flow import FlowParams
from filpiv.selfcheck import (
    ASYMMETRIC_CASES,
    SYMMETRIC_CASES,
    crit_symmetric_tails,
    cubic_coefficient_fit,
)
from filpiv.specfun import cgamma

P10 = FlowParams(1.0, 0.0)

# mpmath images of connect, evaluated from the original (cancelling) second
# relation at int(pi a / ln 10) + 60 digits; the generation is described in
# the file's "source" field
CONNECT_ORACLE = Path(__file__).parent / "data" / "connect_oracle.json"


def odd_tail(params, side=1):
    om, rr = symmetric.conjecture_omega(params, "odd")
    delta = asympt.delta_from_re_rho(rr, om, params)
    return asympt.make_tail(side, om, delta, params)


class TestAmplitudeLaw:
    def test_zeros_at_boundaries(self):
        p = FlowParams(1.0, 0.6)
        assert asympt.r_of_omega(p.eps / 3.0, p) == 0.0
        assert asympt.r_of_omega((3.0 * p.a - p.eps) / 6.0, p) == 0.0

    def test_square_ratio_to_product_is_81(self):
        # R(omega)^2 = 81 |A|^2 with |A|^2 = 2(eps-3w)(9a^2-(eps+6w)^2)/27
        rng = np.random.RandomState(3)
        for _ in range(20):
            a = rng.uniform(0.4, 3.0)
            eps = rng.uniform(-a / 2, a)
            p = FlowParams(a, eps)
            lo, hi = asympt.omega_bounds(p)
            w = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            ab = 2.0 * (eps - 3 * w) * (9 * a * a - (eps + 6 * w) ** 2) / 27.0
            assert asympt.r_of_omega(w, p) ** 2 == pytest.approx(81.0 * ab, rel=1e-12)

    def test_domain_error(self):
        p = FlowParams(1.0, 0.0)
        with pytest.raises(DomainError):
            asympt.r_of_omega(0.2, p)  # eps - 3w < 0, second factor positive

    def test_d1_at_zero_omega(self):
        p = FlowParams(2.0, 1.5)
        expected = p.eps * (p.eps**2 - 9 * p.a**2) / 36.0
        assert asympt.d1_coefficient(0.0, p) == pytest.approx(expected, rel=1e-14)


class TestRhoLaws:
    def test_im_rho_boundary_divergence(self):
        p = FlowParams(1.0, 0.3)
        with pytest.raises(DomainError):
            asympt.im_rho(p.eps / 3.0, p)  # sinh factor vanishes
        with pytest.raises(DomainError):
            asympt.im_rho((3.0 * p.a - p.eps) / 6.0, p)  # cosh difference vanishes
        # approaching the boundary from inside the value grows without bound
        vals = [asympt.im_rho(p.eps / 3.0 - h, p) for h in (1e-2, 1e-4, 1e-6)]
        assert vals[0] < vals[1] < vals[2]

    def test_overflowing_exponent_raises_before_arithmetic(self):
        # cosh(pi a) at a = 300; e^{-3 pi omega} at the omega connect
        # predicts for a = 155; cosh(pi a) of the connection constant at 230
        with pytest.raises(DomainError, match="ln\\(float max\\)"):
            asympt.im_rho(-0.05, FlowParams(300.0, 0.3))
        with pytest.raises(DomainError, match="ln\\(float max\\)"):
            asympt.im_rho(-77.5, FlowParams(155.0, 0.3))
        with pytest.raises(DomainError, match="ln\\(float max\\)"):
            asympt._s_const(FlowParams(230.0, 0.3))
        # every factor in range, their product beyond it (connect at a = 150)
        with pytest.raises(DomainError, match="overflows"):
            asympt.im_rho(-74.83, FlowParams(150.0, 0.3))
        # in range, the laws evaluate as before
        a, eps = 220.0, 0.3
        assert asympt._s_const(FlowParams(a, eps)) == (
            2.0 * math.exp(-math.pi * eps / 3.0) * math.cosh(math.pi * a)
            + math.exp(2.0 * math.pi * eps / 3.0))
        assert math.isfinite(asympt.im_rho(-0.05, FlowParams(200.0, 0.3)))

    def test_amplitude_consistency_with_gamma_products(self):
        # e^{-Im rho} |Gamma product| law reproduces R/9 exactly
        for (a, eps, w) in ((1.0, 0.0, -0.22), (1.5, 0.4, -0.1), (2.0, -0.5, -0.35)):
            p = FlowParams(a, eps)
            x1 = (eps + 6 * w - 3 * a) / 6.0
            x2 = (eps + 6 * w + 3 * a) / 6.0
            x3 = (3 * w - eps) / 3.0
            prod = abs(cgamma(1 + 1j * x1) * cgamma(1 + 1j * x2) * cgamma(1 + 1j * x3))
            lhs = (math.exp(-asympt.im_rho(w, p)) * 2**1.5 / (2 * math.pi) ** 1.5
                   * math.exp(1.5 * math.pi * w) * prod)
            assert lhs == pytest.approx(asympt.r_of_omega(w, p) / 9.0, rel=1e-11)

    def test_delta_re_rho_inverse(self):
        p = FlowParams(1.3, 0.2)
        for (delta, w) in ((0.4, -0.2), (-2.0, 0.05)):
            assert asympt.delta_from_re_rho(
                asympt.re_rho(delta, w, p), w, p
            ) == pytest.approx(delta, abs=1e-13)


class TestSigmaModel:
    def test_secular_signs(self):
        # at a boundary omega R = 0, so the oscillation amplitude vanishes:
        # sigma = (eps+6w)/3 s + c2/s + 8 D1/s^3, sigma' = (eps+6w)/3 - c2/s^2
        # with c2 = a^2 - 12 w^2 + eps^2/3
        p = FlowParams(1.0, 0.3)
        w_hi = min(p.eps / 3.0, p.a / 2.0 - p.eps / 6.0)
        tail = asympt.TailParams(1, w_hi, 0.0, complex(0.0, math.inf))
        c2 = asympt.c2_coefficient(w_hi, p)
        d1 = asympt.d1_coefficient(w_hi, p)
        u = (p.eps + 6 * w_hi) / 3.0
        ms = np.array([20.0, 35.0])
        sig, sig_p, sig_pp = asympt.sigma_model(ms, tail, p)
        np.testing.assert_allclose(sig, u * ms + c2 / ms + 8 * d1 / ms**3, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sig_p, u - c2 / ms**2, rtol=0, atol=1e-14)
        assert np.all(sig_pp == 0.0)

    def test_wrong_side_raises(self):
        tail = odd_tail(P10, side=1)
        with pytest.raises(ConfigError):
            asympt.sigma_model(-30.0, tail, P10)
        with pytest.raises(ConfigError):
            asympt.sigma_model(np.array([30.0, -30.0]), tail, P10)

    @pytest.mark.parametrize("side", [1, -1])
    def test_against_numeric_tail(self, runs, side):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=46.0, rel=2e-13)
        p = run.params
        tail = odd_tail(p, side)
        ss = side * np.linspace(30.0, 45.0, 240)
        jet = run.sigma_jet(ss)
        sig, sig_p, sig_pp = asympt.sigma_model(ss, tail, p)
        assert np.max(np.abs(jet.sigma - sig)) <= 1e-4
        assert np.max(np.abs(jet.sigma_p - sig_p)) <= 1e-3
        assert np.max(np.abs(jet.sigma_pp - sig_pp)) <= 1e-3

    def test_array_matches_scalar(self):
        tail = odd_tail(P10, side=-1)
        ss = -np.linspace(25.0, 40.0, 7)
        arrays = asympt.sigma_model(ss, tail, P10)
        for k, s in enumerate(ss):
            scalars = asympt.sigma_model(float(s), tail, P10)
            np.testing.assert_allclose([v[k] for v in arrays], scalars,
                                       rtol=1e-14, atol=1e-14)


class TestCubicSign:
    """The cubic tail term of sigma is +8 D1 / m^3 (README erratum): its
    phase-averaged coefficient, fitted on [70, 110] as criterion 7 fits it,
    converges to +8 D1, while the printed closed form's -8 D1 is ruled out."""

    @pytest.mark.parametrize("a, eps, branch", [
        (1.0, 0.0, "odd"), (1.0, 0.5, "odd"), (1.0, 1.5, "mixed_plus"), (2.0, 0.3, "odd"),
    ])
    def test_fitted_coefficient_is_plus_8_d1(self, runs, a, eps, branch):
        run = runs.grid_run(a, eps, branch, s_max=110.0, rel=1e-13)
        fitted, predicted = cubic_coefficient_fit(run, branch, np.linspace(70.0, 110.0, 2400))
        assert predicted < 0.0 and fitted < 0.0
        assert abs(fitted - predicted) <= 5e-3 * abs(predicted)


class TestModelCurvTors:
    def test_boundary_omega_constant(self):
        p = FlowParams(1.0, 0.6)
        w_hi = min(p.eps / 3.0, p.a / 2.0 - p.eps / 6.0)
        tail = asympt.TailParams(1, w_hi, 0.0, complex(0.0, math.inf))
        c2a, t_line = asympt.model_curv_tors(30.0, tail, p)
        c2b, _ = asympt.model_curv_tors(37.0, tail, p)
        assert c2a == pytest.approx(c2b, abs=1e-14)
        assert t_line == 0.0

    def test_mean_over_period(self):
        tail = odd_tail(P10)
        m0 = 30.0
        period = 4.0 * math.pi / m0
        ms = np.linspace(m0, m0 + period, 2000)
        vals = [asympt.model_curv_tors(float(m), tail, P10)[0] for m in ms]
        mean = float(np.trapezoid(vals, ms) / period)
        limit = 2.0 * (P10.eps - 3.0 * tail.omega) / 3.0
        assert mean == pytest.approx(limit, abs=5e-4)

    def test_against_numeric_curvature(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=46.0, rel=2e-13)
        p = run.params
        worst = 0.0
        for side in (1, -1):
            tail = odd_tail(p, side)
            for m in np.linspace(25.0, 40.0, 200):
                s = side * float(m)
                smp = run.sample(s)
                c2_model, t_model = asympt.model_curv_tors(s, tail, p)
                worst = max(worst, abs(smp["C"] ** 2 - c2_model))
                t_line = (p.eps - 3.0 * tail.omega) * (smp["T"] - s / 2.0)
                assert abs(t_line - t_model) <= 5e-2  # its remainder is O(1/s)
        assert worst <= 5e-3


class TestFitTail:
    def test_synthetic_round_trip(self):
        p = FlowParams(1.0, 0.3)
        tail_true = asympt.make_tail(1, -0.19, 0.7, p)

        class FakeRun:
            params = p
            s_min, s_max = -50.0, 50.0

            def gp(self, s):  # s is the whole window grid
                sig_p = asympt.sigma_model(s, tail_true, p)[1]
                return np.stack([np.zeros_like(sig_p), np.zeros_like(sig_p), sig_p], axis=1)

        fr = asympt.fit_tail(FakeRun(), 1, (24.0, 40.0))
        assert abs(fr.tail.omega - (-0.19)) <= 1e-4
        assert abs(fr.tail.delta - 0.7) <= 1e-3
        assert fr.amplitude == pytest.approx(2 * asympt.r_of_omega(-0.19, p) / 9, rel=1e-3)

    def test_trivial_line_boundary_omega(self):
        p = FlowParams(1.0, 1.0)
        st = flow.FlowState(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 0.0)
        run = flow.integrate_flow(p, st, -42.0, 42.0)
        fr = asympt.fit_tail(run, 1, (25.0, 42.0))
        assert fr.tail.omega == pytest.approx((3 * p.a - p.eps) / 6.0, abs=1e-9)
        assert fr.amplitude <= 1e-9
        assert fr.tail.rho.imag == math.inf

    def test_window_validation(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=25.0)
        with pytest.raises(WindowTooShortError):
            asympt.fit_tail(run, 1, (20.0, 21.0))
        with pytest.raises(ConfigError):
            asympt.fit_tail(run, 1, (10.0, 24.0))
        with pytest.raises(ConfigError):
            asympt.fit_tail(run, 1, (18.0, 40.0))  # beyond the span

    def test_omega_out_of_bounds(self):
        p = FlowParams(1.0, 0.0)

        class FakeRun:
            params = p
            s_min, s_max = -60.0, 60.0

            def gp(self, s):
                return np.tile([0.0, 0.0, 1.2], (len(s), 1))  # sigma' beyond a

        with pytest.raises(OmegaOutOfBoundsError):
            asympt.fit_tail(FakeRun(), 1, (24.0, 45.0))

    def test_odd_run_re_rho_matches_prediction(self, runs):
        run = runs.grid_run(1.0, 0.0, "odd", s_max=40.0)
        fr = asympt.fit_tail(run, 1, (24.0, 40.0))
        assert abs(math.remainder(fr.tail.rho.real - math.pi, 2 * math.pi)) <= 1e-2

    def test_amplitude_consistency_within_ten_percent(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=40.0)
        for side in (1, -1):
            fr = asympt.fit_tail(run, side, (24.0, 40.0))
            expected = 2.0 * asympt.r_of_omega(fr.tail.omega, run.params) / 9.0
            assert fr.amplitude == pytest.approx(expected, rel=0.1)


class TestProfileMinimum:
    """Stage 2 of fit_tail: the secant on the variable-projection derivative
    of the profiled residual."""

    @staticmethod
    def _profile(run, side, window=(24.0, 40.0)):
        """fit_tail's profiled fit of one tail as a function of omega."""
        ms = asympt._window_grid(window)
        grid = (ms, ms**2, ms**3, np.log(ms / math.sqrt(2.0)), 0.25 * ms**2)
        sig_p = run.gp(side * ms) @ run.params.a_vec
        return lambda w: asympt._profile_fit(grid, sig_p, w, run.params)

    def test_fit_is_the_brute_force_minimum(self, runs):
        run = runs.grid_run(1.0, 0.5, "odd", s_max=40.0)
        for side in (1, -1):
            fr = asympt.fit_tail(run, side, (24.0, 40.0))
            profile = self._profile(run, side)

            def argmin(center, half_width):
                scan = center + np.linspace(-half_width, half_width, 201)
                return scan[int(np.argmin([profile(w)[0] for w in scan]))]

            # omega +- 1e-6 in steps of 1e-8, then the best step in 1e-10
            best = argmin(argmin(fr.tail.omega, 1e-6), 1e-8)
            assert abs(fr.tail.omega - best) <= 1e-9

    def test_derivative_matches_finite_difference(self, runs):
        profile = self._profile(runs.grid_run(1.0, 0.5, "odd", s_max=40.0), 1)
        h = 1e-6
        for w in (-0.13, -0.118, -0.11):  # around the fitted -0.1236
            central = (profile(w + h)[0] - profile(w - h)[0]) / (2 * h)
            assert profile(w)[3] == pytest.approx(central, rel=1e-9)  # ~3e-11

    def test_sides_of_symmetric_runs_agree(self, runs):
        # both tails of a symmetric run carry the same sigma' samples
        rows = {label: value for label, value, _ in crit_symmetric_tails(runs).rows}
        assert rows["side asymmetry"] <= 1e-12

    def test_few_profile_solves(self, runs):
        # the fits of selfcheck's symmetric-tail and connection criteria
        fits = [asympt.fit_tail(runs.grid_run(a, eps, branch), side, (24.0, 40.0))
                for a, eps, branch in SYMMETRIC_CASES for side in (1, -1)]
        fits += [asympt.fit_tail(runs.asymmetric_run(cos_t, ang), side, (25.0, 42.0))
                 for cos_t, ang in ASYMMETRIC_CASES for side in (1, -1)]
        assert max(fr.profile_solves for fr in fits) <= 10

    @staticmethod
    def _stand_in(monkeypatch, f, df):
        # a known f and f' in place of the profiled residual
        monkeypatch.setattr(asympt, "_profile_fit",
                            lambda grid, sig_p, w, params: (f(w), 1.0, 0.0, df(w)))
        return asympt._profile_fit(None, None, 0.1, None)

    @pytest.mark.parametrize("f, df", [
        (lambda w: (w - 0.13) ** 4 + (w - 0.13) ** 2,
         lambda w: 4.0 * (w - 0.13) ** 3 + 2.0 * (w - 0.13)),
        # f' saturates, so secant steps leave the bracket and bisection acts
        (lambda w: math.log(math.cosh(50.0 * (w - 0.13))) / 50.0,
         lambda w: math.tanh(50.0 * (w - 0.13))),
    ])
    def test_secant_converges_inside_bracket(self, monkeypatch, f, df):
        f0 = self._stand_in(monkeypatch, f, df)
        omega, fit, solves = asympt._profile_minimum(None, None, None, 0.1, f0,
                                                     0.05, 0.2)
        assert omega == pytest.approx(0.13, abs=1e-14)
        assert fit[3] == pytest.approx(0.0, abs=1e-12)
        assert solves <= 10

    def test_equal_slopes_bisect(self, monkeypatch):
        # f = |omega - 0.13|: the last two slopes are equal, the secant undefined
        f0 = self._stand_in(monkeypatch, lambda w: abs(w - 0.13),
                            lambda w: -1.0 if w < 0.13 else 1.0)
        omega, _, solves = asympt._profile_minimum(None, None, None, 0.1, f0,
                                                   0.05, 0.2)
        assert omega == pytest.approx(0.13, abs=1e-13)
        assert solves < 50

    def test_downhill_end_without_sign_change(self, monkeypatch):
        f0 = self._stand_in(monkeypatch, lambda w: (w - 0.3) ** 2,
                            lambda w: 2.0 * (w - 0.3))
        omega, fit, solves = asympt._profile_minimum(None, None, None, 0.1, f0,
                                                     0.09, 0.11)
        assert (omega, solves) == (0.11, 2)
        assert fit[0] < f0[0]


class TestConnect:
    def test_symmetric_fixed_point_and_residuals(self):
        for (a, eps, branch) in ((1.0, 0.0, "odd"), (1.0, 1.5, "mixed_minus")):
            p = FlowParams(a, eps)
            om, rr = symmetric.conjecture_omega(p, branch)
            delta = asympt.delta_from_re_rho(rr, om, p)
            tail = asympt.make_tail(1, om, delta, p)
            out = asympt.connect(tail, p)
            assert out.side == -1
            assert out.omega == pytest.approx(om, abs=1e-10)
            assert abs(math.remainder(out.delta - delta, 2 * math.pi)) <= 1e-10
            res = asympt.connfI_residuals(tail, out, p)
            assert max(res.values()) <= 1e-8

    def test_round_trip(self):
        p = FlowParams(1.0, 0.3)
        # a generic point on the real-solution surface
        tail = asympt.make_tail(1, -0.12, 0.9, p)
        minus = asympt.connect(tail, p)
        back = asympt.connect(minus, p)
        assert back.side == 1
        assert back.omega == pytest.approx(tail.omega, abs=1e-8)
        assert abs(math.remainder(back.delta - tail.delta, 2 * math.pi)) <= 1e-8

    def test_two_tail_fit_agreement(self, runs):
        run = runs.asymmetric_run(0.1, 0.93)
        p = run.params
        fp = asympt.fit_tail(run, 1, (25.0, 42.0))
        fm = asympt.fit_tail(run, -1, (25.0, 42.0))
        predicted = asympt.connect(fp.tail, p)
        assert abs(predicted.omega - fm.tail.omega) <= 1e-2
        assert abs(math.remainder(predicted.delta - fm.tail.delta,
                                  2 * math.pi)) <= 5e-2

    def test_inconsistent_input_raises(self):
        p = FlowParams(1.0, 0.3)
        bad = asympt.TailParams(1, 0.0, 0.0, complex(math.pi, -5.0))
        with pytest.raises(NonRealMonodromyError):
            asympt.connect(bad, p)

    def test_omega_out_beyond_bounds_raises(self):
        # e^{-2 pi omega_out} = 1e-3 puts omega_out = 1.1 past eps/3 and
        # (3a - eps)/6, where the constraint's argument is positive again but
        # C^2 -> 2 (eps - 3 omega)/3 < 0: no real tail
        p = FlowParams(1.0, 0.3)
        im = -math.log((asympt._s_const(p) - 1e-3) / 2.0 - 1.0)
        bad = asympt.TailParams(1, 0.0, 0.0, complex(math.pi, im))
        with pytest.raises(NonRealMonodromyError, match="outside"):
            asympt.connect(bad, p)

    def test_vanishing_ei_rho_out_raises_domain_error(self):
        # at a = eps = 1e-20 the second relation cancels exactly, e^{i rho_out}
        # = 0; its log ended in ValueError("math domain error")
        p = FlowParams(1e-20, 1e-20)
        tail = asympt.TailParams(1, asympt.omega_bounds(p)[0], 0.0, complex(0.0, 38.0))
        with pytest.raises(DomainError, match="non-positive"):
            asympt.connect(tail, p)

    def test_underflowing_re_rho_out_raises_domain_error(self):
        # e^{i rho_out} = 1.7e293 - 1.4e-93 i: its angle underflows, and
        # cmath.phase raised OverflowError("math range error")
        a = 224.27269492858338
        tail = asympt.TailParams(-1, -37.37878248809723, 2.8771676054412403,
                                 complex(2.8771676054412403, 213.1878926561452))
        with pytest.raises(DomainError, match="overflows"):
            asympt.connect(tail, FlowParams(a, a))

    def test_overflowing_ei_rho_out_modulus_raises_domain_error(self):
        # an admissible tail whose e^{i rho_out} has finite parts and a
        # modulus beyond the float range: abs() raised OverflowError
        p = FlowParams(157.19238489723514, 141.67786057078112)
        tail = asympt.make_tail(1, 6.886252630568521, -0.12933380081799584, p)
        with pytest.raises(DomainError, match=r"e\^\(i rho_out\) overflows"):
            asympt.connect(tail, p)

    def test_matches_mpmath_table(self):
        table = json.loads(CONNECT_ORACLE.read_text())
        assert table["columns"] == ["a", "eps", "side", "omega", "delta",
                                    "omega_out", "delta_out"]
        assert len(table["rows"]) >= 50
        for a, eps, side, omega, delta, omega_out, delta_out in table["rows"]:
            p = FlowParams(a, eps)
            out = asympt.connect(asympt.make_tail(side, omega, delta, p), p)
            assert out.side == -side
            assert abs(out.omega - omega_out) <= 1e-10, (a, eps, side)
            assert abs(math.remainder(out.delta - delta_out, 2 * math.pi)) <= 1e-10, \
                (a, eps, side)

    def test_im_rho_mismatch_flagged(self):
        p = FlowParams(1.0, 0.3)
        tail = asympt.make_tail(1, -0.12, 0.9, p)
        skewed = asympt.TailParams(1, tail.omega, tail.delta,
                                   complex(tail.rho.real, tail.rho.imag + 0.3))
        with pytest.raises(NonRealMonodromyError):
            asympt.connect(skewed, p)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=complex))))


class TestConnectionLaws:
    """Properties of the laws themselves, over the admissible region rather
    than at a few runs."""

    @given(a=st.floats(0.2, 40.0), eps_frac=st.floats(0.001, 0.999),
           omega_frac=st.floats(0.02, 0.98), delta=st.floats(-math.pi, math.pi),
           side=st.sampled_from([1, -1]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_round_trip(self, a, eps_frac, omega_frac, delta, side):
        # eps in (-a, 2a), omega at least 2% of its bound interval inside
        p = FlowParams(a, -a + 3.0 * a * eps_frac)
        lo, hi = asympt.omega_bounds(p)
        tail = asympt.make_tail(side, lo + (hi - lo) * omega_frac, delta, p)
        back = asympt.connect(asympt.connect(tail, p), p)
        assert back.side == side
        assert abs(back.omega - tail.omega) <= 1e-10
        assert abs(math.remainder(back.delta - tail.delta, 2 * math.pi)) <= 1e-10

    @given(a=st.floats(0.0, 1e3), eps_ratio=st.floats(-1.0, 3.0),
           omega_frac=st.floats(-0.5, 1.5), delta=st.floats(-math.pi, math.pi),
           im=st.floats(-800.0, 800.0), side=st.sampled_from([1, -1]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_finite_or_filpiv_error(self, a, eps_ratio, omega_frac, delta, im, side):
        # every law returns finite values or raises a FilpivError, also for
        # omega outside its bounds and for an arbitrary Im rho
        p = FlowParams(a, max(eps_ratio * a, -a))
        lo, hi = asympt.omega_bounds(p)
        assert _finite([lo, hi])
        omega = lo + (hi - lo) * omega_frac
        tails = [asympt.TailParams(side, omega, delta, complex(delta, im))]
        for law in (asympt.r_of_omega, asympt.im_rho):
            try:
                assert _finite(law(omega, p))
            except FilpivError:
                pass
        try:
            tails.append(asympt.make_tail(side, omega, delta, p))
        except FilpivError:
            pass
        for tail in tails:
            try:
                out = asympt.connect(tail, p)
            except FilpivError:
                continue
            assert _finite([out.omega, out.delta, out.rho])
