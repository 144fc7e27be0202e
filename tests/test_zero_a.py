"""Zero-axis closed-form tests: both tangent representations against the ODE,
parity, the scalar-projection equation, the Riccati structure and the
limiting tangents.  The closed-form jet, the projection equation and the
Riccati maps are defined here, as the reference the tests check."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from filpiv import specfun as sf
from filpiv import zero_a
from filpiv.errors import DomainError, GammaPoleError, NonConvergenceError, NumericError

# G'(s) from mpmath, frozen once; the file's "source" field describes how
TANGENT_ORACLE = json.loads(
    (Path(__file__).parent / "data" / "specfun_oracle.json").read_text())["tangent"]


class DenominatorVanishesError(NumericError):
    """zeta' = 1, where the Riccati maps are undefined."""


def hyp1f1_dz(alpha: complex, gamma: complex, z: complex) -> complex:
    """d/dz 1F1(alpha, gamma, z) = (alpha/gamma) 1F1(alpha+1, gamma+1, z)."""
    return complex(alpha) / complex(gamma) * sf.hyp1f1(
        complex(alpha) + 1.0, complex(gamma) + 1.0, z
    )


def g_prime_jet(s: float, params: zero_a.ZeroAParams) -> tuple[np.ndarray, np.ndarray]:
    """(G', G'') from the closed form, with G'' by analytic differentiation."""
    s = float(s)
    eps = params.eps
    if eps == 0.0:
        return np.array([1.0, 0.0, 0.0]), np.zeros(3)
    z = 0.25j * s * s
    dz = 0.5j * s  # dz/ds
    f1 = sf.hyp1f1(0.5 + 0.25j * eps, 1.5, z)
    f1p = hyp1f1_dz(0.5 + 0.25j * eps, 1.5, z) * dz
    f2 = sf.hyp1f1(-0.25j * eps, 0.5, -z)
    f2p = hyp1f1_dz(-0.25j * eps, 0.5, -z) * (-dz)
    mod2 = (f1 * f1.conjugate()).real
    dmod2 = 2.0 * (f1p * f1.conjugate()).real
    g1 = 1.0 - 0.5 * eps * s * s * mod2
    dg1 = -eps * s * mod2 - 0.5 * eps * s * s * dmod2
    w = math.sqrt(eps) * s * f1 * f2
    dw = math.sqrt(eps) * (f1 * f2 + s * f1p * f2 + s * f1 * f2p)
    gp = np.array([g1, w.real, w.imag])
    gpp = np.array([dg1, dw.real, dw.imag])
    return gp, gpp


def reconstruct_g(s: float, params: zero_a.ZeroAParams) -> np.ndarray:
    """G(s) = s G' + 2 G' x G'' from the closed-form jet; |G|^2 = s^2 + 4 eps."""
    gp, gpp = g_prime_jet(s, params)
    return float(s) * gp + 2.0 * np.cross(gp, gpp)


def zeta_residual(jet, params: zero_a.ZeroAParams, complex_null: bool = False) -> complex:
    """Residual of the scalar-projection equation for zeta = e.G:

        (zeta'')^2 + (s zeta' - zeta)^2/4 - eps (1 - zeta'^2)        (real e)
        (zeta'')^2 + (s zeta' - zeta)^2/4 + eps zeta'^2              (null e)
    """
    s, z, zp, zpp = jet
    base = zpp * zpp + 0.25 * (s * zp - z) ** 2
    if complex_null:
        return base + params.eps * zp * zp
    return base - params.eps * (1.0 - zp * zp)


def zeta_ppp(jet, params: zero_a.ZeroAParams) -> complex:
    """zeta''' from the differentiated projection equation (zeta'' cancels)."""
    s, z, zp, _ = jet
    return -params.eps * zp - 0.25 * s * (s * zp - z)


def riccati_q(s: float, params: zero_a.ZeroAParams):
    """(q_plus, q_minus, zeta jet) built from the first-axis projection
    zeta = G_1 of the closed form: q_pm = (zeta'' +- (i/2)(s zeta' - zeta))
    / (1 - zeta')."""
    if params.eps == 0.0:
        # straight line: zeta' = 1 identically and both maps collapse to 0
        return 0.0 + 0.0j, 0.0 + 0.0j, (float(s), float(s), 1.0, 0.0)
    gp, gpp = g_prime_jet(s, params)
    g = float(s) * gp + 2.0 * np.cross(gp, gpp)
    jet = (float(s), g[0], float(gp[0]), float(gpp[0]))
    den = 1.0 - jet[2]
    if abs(den) < 1e-12:
        raise DenominatorVanishesError("zeta' = 1: Riccati map undefined")
    n = 0.5j * (jet[0] * jet[2] - jet[1])
    q_plus, q_minus = ((jet[3] + sign * n) / den for sign in (1, -1))
    return q_plus, q_minus, jet


def riccati_check(s: float, params: zero_a.ZeroAParams) -> tuple[complex, complex]:
    """Residuals of 2 q_pm' = q_pm^2 +- i s q_pm + eps along the closed form."""
    if params.eps == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    *qs, jet = riccati_q(s, params)
    s0, z, zp, zpp = jet
    zppp = zeta_ppp(jet, params)
    den = 1.0 - zp
    res = []
    for sign, q in zip((1, -1), qs):
        # q = (zeta'' + sign n) / den with n = (i/2)(s zeta' - zeta), whose
        # derivative is (i/2) s zeta''; den' = -zeta''
        dq = ((zppp + sign * 0.5j * s0 * zpp) / den
              - (zpp + sign * 0.5j * (s0 * zp - z)) * -zpp / den**2)
        res.append(2.0 * dq - (q * q + sign * 1j * s0 * q + params.eps))
    return tuple(res)


def four_d_pcf(s, eps):
    """Reference oracle: the parabolic-cylinder tangent with all four
    D_{-i nu eps/2}(mu e^{i pi nu/4} s/sqrt 2) and the constants u_{nu,j}
    built from four Gamma values, before the nu = -1 half was written as the
    conjugate of the nu = +1 half."""
    d = {}
    for nu in (1, -1):
        for mu in (1, -1):
            d[(nu, mu)] = sf.pcf_d(
                -0.5j * nu * eps,
                mu * cmath.exp(0.25j * cmath.pi * nu) * s / math.sqrt(2.0),
            )[0]
    t = {}
    for pm in (1, -1):
        t[pm] = (
            -2.0 * cmath.exp(pm * 0.25j * cmath.pi) / math.sqrt(eps)
            * sf.cgamma(1.0 + pm * 0.25j * eps)
            / sf.cgamma(0.5 + pm * 0.25j * eps)
        )
    t3 = {pm: -pm * 1j * t[pm] for pm in (1, -1)}
    u_all = {
        1: {1: -1.0 + 0.0j, -1: -1.0 + 0.0j},
        2: {pm: (1.0 - t[pm]) / (1.0 + t[pm]) for pm in (1, -1)},
        3: {pm: (1.0 - t3[pm]) / (1.0 + t3[pm]) for pm in (1, -1)},
    }
    # den = (e^x (1 + u_+ u_-) + e^{-x} (u_+ + u_-)) / 2 with x = pi eps/4,
    # written as zero_a writes it, without the cancellation at small eps
    ex = math.exp(0.25 * math.pi * eps)
    shx = math.sinh(0.25 * math.pi * eps)
    out = []
    for jj in (1, 2, 3):
        u = u_all[jj]
        num = (d[(1, 1)] + u[1] * d[(1, -1)]) * (d[(-1, 1)] + u[-1] * d[(-1, -1)])
        den = 0.5 * (ex * ((1.0 + u[1]) * (1.0 + u[-1])).real
                     - 2.0 * shx * (u[1] + u[-1]).real)
        out.append((1.0 - num / den).real)
    return np.array(out)


def pasted_riccati(s, p):
    """Reference oracle: (q_+, q_-, residual_+, residual_-) with the formula
    of each sign written out separately, before the loop over the sign."""
    gp, gpp = g_prime_jet(s, p)
    g = s * gp + 2.0 * np.cross(gp, gpp)
    jet = (s, g[0], float(gp[0]), float(gpp[0]))
    s0, z, zp, zpp = jet
    den = 1.0 - zp
    n = 0.5j * (s0 * zp - z)
    qp_, qm_ = (zpp + n) / den, (zpp - n) / den
    zppp = zeta_ppp(jet, p)
    dq_p = (zppp + 0.5j * s0 * zpp) / den - (zpp + 0.5j * (s0 * zp - z)) * -zpp / den**2
    dq_m = (zppp - 0.5j * s0 * zpp) / den - (zpp - 0.5j * (s0 * zp - z)) * -zpp / den**2
    return (qp_, qm_, 2.0 * dq_p - (qp_ * qp_ + 1j * s0 * qp_ + p.eps),
            2.0 * dq_m - (qm_ * qm_ - 1j * s0 * qm_ + p.eps))


class TestGPrimeHyp:
    def test_at_origin(self):
        p = zero_a.ZeroAParams(1.3)
        assert np.allclose(zero_a.g_prime_hyp(0.0, p), [1.0, 0.0, 0.0])

    def test_zero_eps_is_line(self):
        p = zero_a.ZeroAParams(0.0)
        for s in (-7.0, 0.0, 13.0):
            assert np.allclose(zero_a.g_prime_hyp(s, p), [1.0, 0.0, 0.0])

    def test_matches_ode(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        p = zero_a.ZeroAParams(1.0)
        assert np.max(np.abs(zero_a.g_prime_hyp(3.0, p) - run.gp(3.0))) <= 1e-8
        worst = 0.0
        for s in np.linspace(-19.0, 19.0, 77):
            d = np.abs(zero_a.g_prime_hyp(float(s), p) - run.gp(float(s)))
            worst = max(worst, float(d.max()))
        assert worst <= 1e-8

    def test_unit_norm(self):
        for eps in (0.5, 2.0):
            p = zero_a.ZeroAParams(eps)
            for s in np.linspace(-22.0, 22.0, 45):
                v = zero_a.g_prime_hyp(float(s), p)
                assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-9

    # the far end of the closed_form workload's |s| <= 28
    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_large_s_is_exact(self, runs, eps):
        run = runs.zero_a_run(eps, s_max=30.0)
        p = zero_a.ZeroAParams(eps)
        for s in (25.5, 26.0, 28.0, -25.5, -26.0, -28.0):
            for g_prime in (zero_a.g_prime_hyp, zero_a.g_prime_pcf):
                assert np.max(np.abs(g_prime(s, p) - run.gp(s))) <= 1e-8, (g_prime, s)

    def test_parity_exact(self):
        p = zero_a.ZeroAParams(1.7)
        for s in (0.3, 2.0, 9.5, 18.0):
            plus = zero_a.g_prime_hyp(s, p)
            minus = zero_a.g_prime_hyp(-s, p)
            assert abs(plus[0] - minus[0]) <= 1e-12
            assert abs(plus[1] + minus[1]) <= 1e-12
            assert abs(plus[2] + minus[2]) <= 1e-12

    # a direct series (s = 5) and a continuation seed (s = 10) where the
    # Maclaurin sum at the fixed radius 10 cancels past its accuracy (about
    # 1e16-fold at eps = 400); the sum still raises there, and g_prime_hyp,
    # whose series radius shrinks as eps grows, returns the tangent instead
    @pytest.mark.parametrize("eps, s", [(30.0, 10.0), (400.0, 5.0)])
    def test_cancelling_series_raises(self, eps, s):
        z = 0.25j * s * s
        seed = z if abs(z) <= 10.0 else 10.0 * z / abs(z)
        with pytest.raises(NonConvergenceError, match="cancels"):
            sf._series_1f1(0.5 + 0.25j * eps, 1.5, seed)
        with pytest.raises(NonConvergenceError, match="cancels"):
            sf._series_1f1(-0.25j * eps, 0.5, -seed)
        ref = next(row[2:] for row in TANGENT_ORACLE if row[:2] == [eps, s])
        got = zero_a.g_prime_hyp(s, zero_a.ZeroAParams(eps))
        assert np.max(np.abs(got - ref)) <= 1e-10

    # 1F1 parameters of size sqrt(1 + eps^2/16) > 400, beyond the range
    # hyp1f1 was measured in
    @pytest.mark.parametrize("eps, s", [(1700.0, 5.0), (3000.0, 10.0)])
    def test_beyond_measured_parameters_raises(self, eps, s):
        with pytest.raises(DomainError, match="measured"):
            zero_a.g_prime_hyp(s, zero_a.ZeroAParams(eps))


class TestClosedFormOracle:
    # eps from 1e-8 to 880 and |s| up to 30: the 1F1 series, continuation and
    # asymptotic regimes, with series radius and Taylor steps that shrink as
    # the parameters grow; below eps = 1e-4 the parabolic-cylinder form needs
    # kappa_j without cancellation
    @pytest.mark.parametrize("g_prime", [zero_a.g_prime_hyp, zero_a.g_prime_pcf])
    def test_tangents_match_table(self, g_prime):
        bad = []
        for eps, s, *ref in TANGENT_ORACLE:
            got = g_prime(s, zero_a.ZeroAParams(eps))
            if not np.max(np.abs(got - ref)) <= 1e-10:
                bad.append((eps, s, got, ref))
        assert bad == []


class TestGPrimePcf:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_agreement_with_hyp(self, eps):
        p = zero_a.ZeroAParams(eps)
        worst = 0.0
        for s in np.linspace(-20.0, 20.0, 41):
            d = np.abs(zero_a.g_prime_pcf(float(s), p)
                       - zero_a.g_prime_hyp(float(s), p))
            worst = max(worst, float(d.max()))
        assert worst <= 1e-9

    def test_component_access(self):
        # the tangent is one float vector of its three components
        p = zero_a.ZeroAParams(1.0)
        vec = zero_a.g_prime_pcf(4.0, p)
        assert vec.shape == (3,) and vec.dtype == float
        assert vec == pytest.approx(zero_a.g_prime_hyp(4.0, p), abs=1e-9)

    def test_odd_component_vanishes_at_origin(self):
        p = zero_a.ZeroAParams(1.0)
        assert zero_a.g_prime_pcf(0.0, p)[1] == pytest.approx(0.0, abs=1e-12)
        assert zero_a.g_prime_pcf(0.0, p)[2] == pytest.approx(0.0, abs=1e-12)

    def test_parity(self):
        p = zero_a.ZeroAParams(0.8)
        for s in (1.1, 6.0, 14.0):
            plus = zero_a.g_prime_pcf(s, p)
            minus = zero_a.g_prime_pcf(-s, p)
            assert plus[0] == pytest.approx(minus[0], abs=1e-10)
            assert plus[1] == pytest.approx(-minus[1], abs=1e-10)
            assert plus[2] == pytest.approx(-minus[2], abs=1e-10)

    def test_vanishing_eps_raises_domain_error(self):
        # u_2 and u_3 round to -1, where D_+ + u_j D_- has no digit left
        for eps in (1e-40, 1e-170):
            with pytest.raises(DomainError, match="rounds to -1"):
                zero_a.g_prime_pcf(1.0, zero_a.ZeroAParams(eps))

    def test_overflowing_eps_raises_domain_error(self):
        # kappa_3 ~ e^{pi eps/4} |u_3|^2 overflows from eps = 882.9 (it made
        # the tangent nan), e^{pi eps/4} itself beyond 4 ln(float max) / pi =
        # 903.7; also at s = 0, where no series runs
        for eps in (883.0, 950.0):
            for s in (0.0, 3.0):
                with pytest.raises(DomainError):
                    zero_a.g_prime_pcf(s, zero_a.ZeroAParams(eps))

    # |z| = s^2/4 of the 1F1 calls: series to |s| ~ 6.3, continuation to
    # |s| ~ 11, asymptotic sums beyond
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0, 3.0])
    def test_bit_identical_to_four_d_form(self, eps):
        p = zero_a.ZeroAParams(eps)
        for a in (0.0, 0.4, 2.5, 6.0, 6.5, 9.0, 11.5, 15.0, 21.0, 25.5, 28.0):
            for s in (a, -a):
                got = zero_a.g_prime_pcf(s, p)
                assert got.tobytes() == four_d_pcf(s, eps).tobytes(), (eps, s)

    def test_two_d_evaluations_per_point(self, monkeypatch):
        # D_+ and D_- come as one pcf_d pair from the same two 1F1 values
        pcf_calls, hyp_calls = [], []
        pcf_d, hyp1f1 = sf.pcf_d, sf.hyp1f1
        monkeypatch.setattr(sf, "pcf_d", lambda *a: pcf_calls.append(a) or pcf_d(*a))
        monkeypatch.setattr(sf, "hyp1f1", lambda *a: hyp_calls.append(a) or hyp1f1(*a))
        p = zero_a.ZeroAParams(1.3)
        points = (-9.0, 0.5, 17.0)
        for s in points:
            zero_a.g_prime_pcf(s, p)
        assert len(pcf_calls) == len(points)
        assert len(hyp_calls) == 2 * len(points)
        ray = cmath.exp(0.25j * cmath.pi)
        for s, (order, z) in zip(points, pcf_calls):
            assert order == -0.65j and z == ray * s / math.sqrt(2.0)


def clear_parameter_caches():
    for cached in (sf._connection_coeffs, sf._pcf_rgammas, zero_a._pcf_constants):
        cached.cache_clear()


class TestParameterCaches:
    """The Gamma work that depends on the parameters only is done once per
    parameter set, changes no bit of any output and caches no error."""

    def test_no_gamma_calls_after_first_point(self, monkeypatch):
        clear_parameter_caches()
        calls = []
        for name in ("cgamma", "clog_gamma"):
            fn = getattr(sf, name)
            monkeypatch.setattr(sf, name, lambda z, fn=fn: calls.append(z) or fn(z))
        p = zero_a.ZeroAParams(1.7)
        # the first point, s = -28, runs every 1F1 in its asymptotic regime
        per_point = []
        for s in np.linspace(-28.0, 28.0, 50):
            before = len(calls)
            zero_a.g_prime_hyp(float(s), p)
            zero_a.g_prime_pcf(float(s), p)
            per_point.append(len(calls) - before)
        assert per_point[0] > 0
        assert per_point[1:] == [0] * 49

    # the three 1F1 regimes (|z| = s^2/4 up to 10, 30 and beyond), both signs
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0, 3.0, 10.0, 20.0])
    def test_cold_and_warm_caches_give_same_bits(self, eps):
        p = zero_a.ZeroAParams(eps)
        points = [sign * a for a in (0.0, 0.4, 2.5, 6.0, 6.5, 9.0, 11.5, 15.0, 21.0, 28.0)
                  for sign in (1.0, -1.0)]

        def outputs(s):
            return zero_a.g_prime_hyp(s, p).tobytes() + zero_a.g_prime_pcf(s, p).tobytes()

        cold = []
        for s in points:
            clear_parameter_caches()
            cold.append(outputs(s))
        assert [outputs(s) for s in points] == cold

    def test_errors_are_not_cached(self):
        clear_parameter_caches()
        calls = (
            # e^{pi eps/4} overflows
            (DomainError, lambda: zero_a.g_prime_pcf(3.0, zero_a.ZeroAParams(950.0))),
            # 1/Gamma(1/2 - 750 i) overflows: pcf_d's and the asymptotic
            # 1F1's; hyp1f1 refuses the parameters before
            (DomainError, lambda: sf.pcf_d(1500j, 1.0)),
            (DomainError, lambda: sf.hyp1f1(1.0 - 750j, 1.5, 100j)),
            (DomainError, lambda: sf._connection_coeffs(1.0 - 750j, 1.5)),
            # the 1F1 Gamma pole, in hyp1f1 and in its coefficients
            (GammaPoleError, lambda: sf.hyp1f1(1.0, -2.0, 1.0)),
            (GammaPoleError, lambda: sf._connection_coeffs(1.0, -2.0)),
        )
        for error, call in calls:
            for _ in range(2):
                with pytest.raises(error):
                    call()


class TestReconstructG:
    def test_norm_identity_at_origin(self):
        p = zero_a.ZeroAParams(1.0)
        g = reconstruct_g(0.0, p)
        assert float(np.linalg.norm(g)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_eps(self):
        p = zero_a.ZeroAParams(0.0)
        assert np.allclose(reconstruct_g(5.0, p), [5.0, 0.0, 0.0])

    def test_matches_flow(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        p = zero_a.ZeroAParams(1.0)
        assert np.max(np.abs(reconstruct_g(5.0, p) - run.g(5.0))) <= 1e-8
        for s in np.linspace(-15.0, 15.0, 31):
            g = reconstruct_g(float(s), p)
            assert float(g @ g) == pytest.approx(s * s + 4.0, abs=1e-10)


def zeta_jet(run, s, e):
    """(s, e.G, e.G', e.G'') of a flow run for a fixed (possibly complex) e."""
    smp = run.sample(s)
    return (s, complex(e @ smp["G"]), complex(e @ smp["Gp"]), complex(e @ smp["Gpp"]))


class TestZetaEquation:
    def test_residual_along_run_any_direction(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        p = zero_a.ZeroAParams(1.0)
        rng = np.random.RandomState(12)
        e = rng.randn(3)
        e /= np.linalg.norm(e)
        for s in np.linspace(-12.0, 12.0, 25):
            jet = zeta_jet(run, float(s), e)
            assert abs(zeta_residual(jet, p)) <= 1e-8

    def test_line_zeta(self):
        p = zero_a.ZeroAParams(0.0)
        jet = (3.0, 3.0, 1.0, 0.0)  # zeta = s on the straight line
        assert zeta_residual(jet, p) == pytest.approx(0.0, abs=1e-14)

    def test_null_vector_variant(self, runs):
        run = runs.zero_a_run(1.0, s_max=20.0)
        p = zero_a.ZeroAParams(1.0)
        e = np.array([0.0, 1.0, 1j])
        for s in np.linspace(-12.0, 12.0, 25):
            jet = zeta_jet(run, float(s), e)
            assert abs(zeta_residual(jet, p, complex_null=True)) <= 1e-8


class TestRiccati:
    def test_residuals_small(self):
        p = zero_a.ZeroAParams(1.0)
        for s in np.linspace(1.0, 10.0, 19):
            rp, rm = riccati_check(float(s), p)
            assert abs(rp) <= 1e-7
            assert abs(rm) <= 1e-7

    def test_residuals_against_finite_difference(self):
        # cross-check the analytic q' by differencing q itself
        p = zero_a.ZeroAParams(1.0)
        h = 1e-4
        for s in (2.0, 5.0):
            qp_m, qm_m, _ = riccati_q(s - h, p)
            qp_p, qm_p, _ = riccati_q(s + h, p)
            qp0, qm0, _ = riccati_q(s, p)
            for qd, q0, sign in (((qp_p - qp_m) / (2 * h), qp0, 1.0),
                                 ((qm_p - qm_m) / (2 * h), qm0, -1.0)):
                res = 2.0 * qd - (q0 * q0 + sign * 1j * s * q0 + p.eps)
                assert abs(res) <= 1e-6

    def test_product_identity(self):
        # q+ q- = eps (1 + zeta') / (1 - zeta')
        p = zero_a.ZeroAParams(1.0)
        for s in (0.7, 3.3, 8.0):
            qp_, qm_, jet = riccati_q(s, p)
            ref = p.eps * (1.0 + jet[2]) / (1.0 - jet[2])
            assert abs(qp_ * qm_ - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("eps", [0.6, 2.7])
    def test_sign_loop_matches_pasted_pair(self, eps):
        p = zero_a.ZeroAParams(eps)
        for s in (0.7, 3.3, 8.0):
            qp_, qm_, _ = riccati_q(s, p)
            assert (qp_, qm_, *riccati_check(s, p)) == pasted_riccati(s, p)

    def test_zero_eps_trivial(self):
        p = zero_a.ZeroAParams(0.0)
        qp_, qm_, _ = riccati_q(2.0, p)
        assert qp_ == 0.0 and qm_ == 0.0
        rp, rm = riccati_check(2.0, p)
        assert rp == 0.0 and rm == 0.0


class TestAsymTangents:
    def test_zero_eps(self):
        t = zero_a.asym_tangents(zero_a.ZeroAParams(0.0))
        assert np.allclose(t.T_plus, [1, 0, 0])
        assert np.allclose(t.T_minus, [1, 0, 0])
        assert float(t.T_plus @ t.T_minus) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.4])
    def test_dot_identity_and_norms(self, eps):
        t = zero_a.asym_tangents(zero_a.ZeroAParams(eps))
        assert float(t.T_plus @ t.T_minus) == pytest.approx(
            2.0 * math.exp(-math.pi * eps) - 1.0, abs=1e-12
        )
        assert float(np.linalg.norm(t.T_plus)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.norm(t.T_minus)) == pytest.approx(1.0, abs=1e-12)

    def test_large_s_approach_and_envelope(self):
        eps = 1.0
        p = zero_a.ZeroAParams(eps)
        t = zero_a.asym_tangents(p)
        # oracle: the exact tangent at large s via the hypergeometric form
        devs = [abs(zero_a.g_prime_hyp(float(s), p)[0] - t.T_plus[0])
                for s in np.linspace(38.0, 42.0, 160)]
        assert max(devs) <= 2.5 / 38.0  # within O(1/s)
        env = 2.0 * math.sqrt(eps * (1.0 - math.exp(-math.pi * eps))) / 40.0
        assert max(devs) == pytest.approx(env, rel=0.1)
