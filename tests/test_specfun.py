"""Special-function kernel tests: frozen references, identities, recurrences."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filpiv import specfun as sf
from filpiv.errors import DomainError, FilpivError, GammaPoleError, NonConvergenceError

# mpmath values frozen once; the file's "source" field describes how
ORACLE = json.loads((Path(__file__).parent / "data" / "specfun_oracle.json").read_text())
GAMMA_ORACLE = ORACLE["gamma"]
HYP1F1_ORACLE = {
    (complex(r[0], r[1]), complex(r[2], r[3]), complex(r[4], r[5])): complex(r[6], r[7])
    for r in ORACLE["hyp1f1"]
}

# Reference values computed once with mpmath at 40 digits.
GAMMA_TABLE = [
    ((0.5 + 0j), complex(1.77245385090551603, 0.0)),
    ((1 + 1j), complex(0.498015668118356043, -0.154949828301810685)),
    ((-2.5 + 3j), complex(0.000479788410841897012, 0.000298855711144858868)),
    ((4.2 - 7.7j), complex(0.0279107917578756238, -0.0121242982763712893)),
    ((9.5 + 49j), complex(-7.60183548080725366e-19, -1.41293447496502125e-18)),
    ((-9.5 + 33j), complex(-3.05781930947423611e-38, 3.07548151067408241e-38)),
    ((0.5 - 50j), complex(9.03320435260061923e-35, -1.72636225226909381e-34)),
    ((2 + 0.25j), complex(0.974547323033855329, 0.104421354347045165)),
]

HYP1F1_TABLE = [
    (complex(0.5, 0.25), complex(1.5, 0.0), complex(0.0, 1.0),
     complex(0.762689706193255846, 0.250685527142512754)),
    (complex(0.5, 0.25), complex(1.5, 0.0), complex(0.0, 25.0),
     complex(0.137342963444135903, -0.0268105270340518633)),
    (complex(0.5, 0.25), complex(1.5, 0.0), complex(0.0, -100.0),
     complex(-0.0738939575897733659, -0.125655549133967613)),
    (complex(0.0, -0.25), complex(0.5, 0.0), complex(0.0, 100.0),
     complex(-0.0901641512885525104, 1.7654556990947783)),
    (complex(0.0, 0.25), complex(0.5, 0.0), complex(0.0, -25.0),
     complex(0.399105595927116053, -1.67089640281929296)),
    (complex(0.5, -0.5), complex(1.5, 0.0), complex(0.0, 200.0),
     complex(-0.13478045632053041, -0.0828841738092425391)),
    (complex(0.5, 0.5), complex(1.5, 0.0), complex(0.0, -200.0),
     complex(-0.13478045632053041, 0.0828841738092425391)),
    (complex(1.25, -0.5), complex(2.25, 0.5), complex(8.0, 8.0),
     complex(258.917723197314541, -706.330074697000523)),
    (complex(0.5, 2.389675), complex(1.5, 0.0), complex(0.0, 400.0),
     complex(0.0097324874768287233, -0.00671323506364716063)),
]

PCFD_TABLE = [
    (complex(0.0, -0.5), complex(1.5, 1.4999999999999998),
     complex(0.0521080370057600904, -1.42074376055180653)),
    (complex(0.0, 0.5), complex(-6.0, 5.999999999999999),
     complex(0.338413279608117855, -0.0454761518290489177)),
    (complex(0.0, 1.0), complex(0.0, 2.8284271247461903),
     complex(0.77948979667172618, 1.12722423941889253)),
    (complex(0.0, -0.25), complex(10.0, -9.999999999999998),
     complex(0.493130211198807571, -0.657952591353261025)),
    (complex(0.3, 0.2), complex(1.5, -0.5),
     complex(0.701394000987542009, 0.296346339284121897)),
]


def naive_1f1(alpha, gamma, z, n=300):
    """Plain-sum oracle, valid for small |z| only."""
    total = term = complex(1.0)
    for k in range(n):
        term = term * (alpha + k) / ((gamma + k) * (k + 1)) * z
        total += term
    return total


def naive_pcf_d(order, z):
    """Oracle for D_a(z) at small |z|: even/odd series summed directly."""
    a, z = complex(order), complex(z)
    pref = cmath.exp(0.5 * a * math.log(2.0) - 0.25 * z * z) * math.sqrt(math.pi)
    even = sf.rgamma(0.5 * (1 - a)) * naive_1f1(-a / 2, 0.5, z * z / 2)
    odd = sf.rgamma(-a / 2) * math.sqrt(2.0) * z * naive_1f1(0.5 - a / 2, 1.5, z * z / 2)
    return pref * (even - odd)


def scalar_pcf_d(order, z):
    """Reference oracle: D_order(z) alone, as pcf_d evaluated it before it
    returned the pair (D_order(z), D_order(-z))."""
    a = complex(order)
    z = complex(z)
    half_z2 = 0.5 * z * z
    pref = cmath.exp(0.5 * a * math.log(2.0) - 0.25 * z * z) * math.sqrt(math.pi)
    even = sf.rgamma(0.5 * (1.0 - a)) * sf.hyp1f1(-0.5 * a, 0.5, half_z2)
    odd = sf.rgamma(-0.5 * a) * z * math.sqrt(2.0) * sf.hyp1f1(0.5 - 0.5 * a, 1.5, half_z2)
    return pref * (even - odd)


class TestCgamma:
    def test_gamma_one(self):
        assert sf.cgamma(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_half(self):
        assert sf.cgamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_modulus_one_plus_i(self):
        # oracle: |Gamma(1+ix)|^2 = pi x / sinh(pi x) at x = 1
        expected = math.sqrt(math.pi / math.sinh(math.pi))
        assert abs(sf.cgamma(1 + 1j)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("z,ref", GAMMA_TABLE)
    def test_frozen_table(self, z, ref):
        got = sf.cgamma(z)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_pole_raises(self):
        for z in (0.0, -1.0, -7.0, -3 + 1e-15j):
            with pytest.raises(GammaPoleError):
                sf.cgamma(z)

    @given(st.floats(-8, 8), st.floats(-40, 40))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_recurrence_and_conjugation(self, x, y):
        z = complex(x, y)
        if abs(y) < 1e-3 and x < 1.0:
            return
        g = sf.cgamma(z)
        assert abs(sf.cgamma(z + 1) - z * g) <= 1e-11 * abs(z * g)
        assert abs(sf.cgamma(z.conjugate()) - g.conjugate()) <= 1e-11 * abs(g)


def gamma_id(row):
    return str(complex(*row["z"]))


class TestGammaOracle:
    """cgamma, rgamma and clog_gamma against the frozen mpmath table, which
    includes the points where an overflowing sin(pi z) or Lanczos product
    once made them raise: large Re z, and Re z < 0.5 with |Im z| of 230 to
    450."""

    @pytest.mark.parametrize("row", GAMMA_ORACLE, ids=gamma_id)
    def test_matches_table(self, row):
        z = complex(*row["z"])
        log_gamma = complex(*row["log_gamma"])
        diff = sf.clog_gamma(z) - log_gamma
        if z.real < 0.5:
            # the reflection's imaginary part is correct modulo 2 pi
            diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
        assert abs(diff) <= 1e-12 * max(abs(log_gamma), 1.0)
        for key, fn in (("gamma", sf.cgamma), ("rgamma", sf.rgamma)):
            ref = row.get(key)
            if ref == "overflow":
                with pytest.raises(DomainError):
                    fn(z)
            elif ref is not None:
                ref = complex(*ref)
                assert abs(fn(z) - ref) <= 1e-12 * abs(ref), key

    @given(st.floats(-200.0, 200.0),
           st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-6, 1e-6)))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_finite_or_filpiv_error(self, x, y):
        z = complex(x, y)
        for fn in (sf.cgamma, sf.clog_gamma, sf.rgamma):
            try:
                v = fn(z)
            except FilpivError:
                continue
            assert math.isfinite(v.real) and math.isfinite(v.imag), (fn.__name__, z, v)


class TestArgGamma:
    def test_zero(self):
        assert sf.arg_gamma_one_plus_ix(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.3, 1.7, 12.0, 44.0])
    def test_odd(self, x):
        assert sf.arg_gamma_one_plus_ix(-x) == -sf.arg_gamma_one_plus_ix(x)

    def test_against_cgamma_phase(self):
        # oracle: principal phase of Gamma(1+i) (no winding that close to 0)
        assert sf.arg_gamma_one_plus_ix(1.0) == pytest.approx(
            cmath.phase(sf.cgamma(1 + 1j)), abs=1e-13
        )

    @pytest.mark.parametrize("x,ref", [
        (1.0, -0.301640320467533198),
        (5.5, 4.64634429787036841),
        (31.25, 77.0958369113822367),
    ])
    def test_frozen(self, x, ref):
        assert sf.arg_gamma_one_plus_ix(x) == pytest.approx(ref, abs=1e-11)

    def test_continuous_in_x(self):
        xs = np.linspace(0.0, 55.0, 2000)
        vals = np.array([sf.arg_gamma_one_plus_ix(x) for x in xs])
        assert np.max(np.abs(np.diff(vals))) < 0.2


class TestHyp1f1:
    def test_at_zero(self):
        assert sf.hyp1f1(0.7 - 0.3j, 1.1, 0.0) == 1.0

    @pytest.mark.parametrize("z", [0.5, -2.0, 3j, -17j, 40j])
    def test_exponential(self, z):
        got = sf.hyp1f1(1.0, 1.0, z)
        assert abs(got - cmath.exp(z)) <= 1e-11 * abs(cmath.exp(z))

    def test_kummer_transform_small_z(self):
        # both sides by direct summation at eps=1, s=2 (z = i s^2/4 = i)
        alpha, gamma, z = 0.5 + 0.25j, 1.5, 1j
        lhs = naive_1f1(alpha, gamma, z)
        rhs = cmath.exp(z) * naive_1f1(gamma - alpha, gamma, -z)
        assert abs(lhs - rhs) < 1e-13
        got = sf.hyp1f1(alpha, gamma, z)
        assert abs(got - lhs) < 1e-12

    @pytest.mark.parametrize("alpha,gamma,z,ref", HYP1F1_TABLE)
    def test_frozen_table(self, alpha, gamma, z, ref):
        got = sf.hyp1f1(alpha, gamma, z)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_matches_mpmath_table(self):
        # the zero-axis closed forms' parameters for eps up to 880 on both
        # half-axes and in all three regimes, and generic parameters on the
        # e^{+-i pi/4} rays
        bad = []
        for (alpha, gamma, z), ref in HYP1F1_ORACLE.items():
            got = sf.hyp1f1(alpha, gamma, z)
            if not abs(got - ref) <= 1e-10 * abs(ref):
                bad.append((alpha, gamma, z, got, ref))
        assert bad == []

    @given(st.floats(0.0, 400.0), st.floats(-math.pi, math.pi), st.sampled_from([0.5, 1.5]),
           st.floats(0.0, 600.0), st.one_of(st.floats(-0.6, 0.6), st.floats(-math.pi, math.pi)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_finite_or_filpiv_error(self, m, alpha_arg, gamma, r, z_arg):
        # parameters of size m <= 400 (the measured range) and |z| <= 600,
        # often near the positive real axis, where e^z dominates: the
        # asymptotic expansion's exponential branches overflowed here
        alpha, z = cmath.rect(m, alpha_arg), cmath.rect(r, z_arg)
        try:
            v = sf.hyp1f1(alpha, gamma, z)
        except FilpivError:
            return
        assert math.isfinite(v.real) and math.isfinite(v.imag), (alpha, gamma, z, v)

    def test_overflowing_branch_falls_back_to_continuation(self):
        # e^z z^(alpha - gamma) of the asymptotic expansion overflows, the
        # value does not (mpmath at 40 digits)
        ref = complex(4.160532703022637e+267, -1.0895792260688797e+267)
        got = sf.hyp1f1(49.02 + 9.84j, 1.5, 457.0 - 125.7j)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("alpha, gamma, z", [
        # values beyond the float range (mpmath: |value| 2.5e357 and 1.9e308):
        # the Taylor continuation's sum overflows, and the asymptotic sum
        # overflows where its branch e^z z^(alpha - gamma) is still finite
        (69.93426778650306 + 210.19949873251383j, 1.5, 490.76693025842957 - 2.712565323516453j),
        (-4.5 + 0.01j, 1.5, 746.7745072680691),
    ])
    def test_overflowing_value_raises(self, alpha, gamma, z):
        with pytest.raises(FilpivError):
            sf.hyp1f1(alpha, gamma, z)

    def test_parameters_beyond_measured_range_raise(self):
        # max(|alpha|, |gamma - alpha|) up to 400 returns, beyond it raises
        assert abs(sf.hyp1f1(399.9j, 0.5, 20j)) > 0.0
        for alpha, gamma, z in ((401j, 0.5, 20j), (0.5 + 425j, 1.5, 1j),
                                (-425j, 0.5, -0.01j)):
            with pytest.raises(DomainError, match="measured"):
                sf.hyp1f1(alpha, gamma, z)

    def test_gamma_pole_raises(self):
        with pytest.raises(GammaPoleError):
            sf.hyp1f1(1.0, -2.0, 1.0)

    def test_conjugation(self):
        rng = np.random.RandomState(7)
        for _ in range(25):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            gamma = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            z = complex(rng.uniform(-5, 5), rng.uniform(-25, 25))
            f = sf.hyp1f1(alpha, gamma, z)
            fc = sf.hyp1f1(alpha.conjugate(), gamma.conjugate(), z.conjugate())
            assert abs(fc - f.conjugate()) <= 1e-9 * max(abs(f), 1e-12)

    def test_contiguous_relation(self):
        # (gamma - alpha) F(alpha-1) + (2 alpha - gamma + z) F(alpha)
        #   - alpha F(alpha+1) = 0
        rng = np.random.RandomState(11)
        for _ in range(30):
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            gamma = complex(rng.uniform(0.6, 2.5), 0.0)
            z = complex(0.0, rng.uniform(-60, 60))
            fm = sf.hyp1f1(alpha - 1, gamma, z)
            f0 = sf.hyp1f1(alpha, gamma, z)
            fp = sf.hyp1f1(alpha + 1, gamma, z)
            res = (gamma - alpha) * fm + (2 * alpha - gamma + z) * f0 - alpha * fp
            scale = max(abs(fm), abs(f0), abs(fp)) * max(1.0, abs(z))
            assert abs(res) <= 1e-9 * scale


class TestPcfD:
    @pytest.mark.parametrize("z", [0.4, 1.5j, -2.2 + 0.3j, 3.0 * cmath.exp(0.25j * cmath.pi)])
    def test_order_zero(self, z):
        got = sf.pcf_d(0.0, z)[0]
        ref = cmath.exp(-z * z / 4)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("order", [0.35, -0.6 + 0.4j, 1j, -0.5j])
    def test_at_origin(self, order):
        got = sf.pcf_d(order, 0.0)[0]
        ref = 2 ** (complex(order) / 2) * math.sqrt(math.pi) * sf.rgamma((1 - complex(order)) / 2)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-15)

    @pytest.mark.parametrize("order,z,ref", PCFD_TABLE)
    def test_frozen_table(self, order, z, ref):
        got = sf.pcf_d(order, z)[0]
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_recurrence_against_series_oracle(self):
        # D_{a+1}(z) - z D_a(z) + a D_{a-1}(z) = 0, all terms from the
        # direct-sum oracle, then the same residual from pcf_d
        rng = np.random.RandomState(3)
        for _ in range(20):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            ref = naive_pcf_d(a + 1, z) - z * naive_pcf_d(a, z) + a * naive_pcf_d(a - 1, z)
            assert abs(ref) < 1e-11
            res = sf.pcf_d(a + 1, z)[0] - z * sf.pcf_d(a, z)[0] + a * sf.pcf_d(a - 1, z)[0]
            scale = max(abs(sf.pcf_d(a, z)[0]), 1.0)
            assert abs(res) <= 1e-10 * scale

    def test_recurrence_on_working_rays(self):
        for eps in (0.5, 2.0):
            for s in (3.0, 11.0, 19.0):
                a = -0.5j * eps
                z = cmath.exp(0.25j * cmath.pi) * s / math.sqrt(2)
                res = sf.pcf_d(a + 1, z)[0] - z * sf.pcf_d(a, z)[0] + a * sf.pcf_d(a - 1, z)[0]
                scale = max(abs(sf.pcf_d(a, z)[0]), abs(sf.pcf_d(a + 1, z)[0]), 1e-6)
                assert abs(res) <= 1e-9 * scale * max(1.0, abs(z))

    def test_sum_difference_1f1_identities(self):
        # D_a(z) +- D_a(-z) against their even/odd 1F1 right-hand sides
        rng = np.random.RandomState(5)
        for _ in range(15):
            a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            z = cmath.exp(0.25j * cmath.pi) * rng.uniform(0.2, 12.0)
            dp = sf.pcf_d(a, z)[0]
            dm = sf.pcf_d(a, -z)[0]
            even_ref = (
                2 ** (1 + a / 2) * math.sqrt(math.pi) * sf.rgamma((1 - a) / 2)
                * cmath.exp(-z * z / 4) * sf.hyp1f1(-a / 2, 0.5, z * z / 2)
            )
            odd_ref = (
                -(2 ** ((3 + a) / 2)) * math.sqrt(math.pi) * sf.rgamma(-a / 2)
                * z * cmath.exp(-z * z / 4) * sf.hyp1f1(0.5 - a / 2, 1.5, z * z / 2)
            )
            scale = max(abs(dp), abs(dm), 1e-8)
            assert abs((dp + dm) - even_ref) <= 1e-9 * scale
            assert abs((dp - dm) - odd_ref) <= 1e-9 * scale

    # |z^2/2| = s^2/4 on the rays: series to s ~ 6.3, continuation to
    # s ~ 11, asymptotic sums beyond
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("eps", [0.5, 2.0, 3.0])
    def test_pair_bit_identical_to_scalar_form(self, sign, eps):
        # order -i eps/2 on e^{i pi/4}, its conjugate on e^{-i pi/4}
        order = -0.5j * sign * eps
        ray = cmath.exp(0.25j * cmath.pi * sign)
        for s in (0.0, -0.0, 0.5, -2.5, 6.0, 6.5, -9.0, 11.5, -15.0, 21.0, 28.0):
            z = ray * s / math.sqrt(2.0)
            d_plus, d_minus = sf.pcf_d(order, z)
            for got, ref in ((d_plus, scalar_pcf_d(order, z)),
                             (d_minus, scalar_pcf_d(order, -z))):
                assert np.complex128(got).tobytes() == np.complex128(ref).tobytes(), (s, got, ref)

    def test_conjugation(self):
        rng = np.random.RandomState(9)
        for _ in range(15):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = sf.pcf_d(a, z)[0]
            dc = sf.pcf_d(a.conjugate(), z.conjugate())[0]
            assert abs(dc - d.conjugate()) <= 1e-10 * max(abs(d), 1e-12)


class TestOverflowAndCancellation:
    """Where a value would overflow a float, or a series cancel beyond its
    accuracy, the functions raise a NumericError instead of returning it."""

    def test_check_exponents(self):
        sf.check_exponents(-1e6, 0.0, 709.78)
        for x in (709.79, math.inf, math.nan):
            with pytest.raises(DomainError):
                sf.check_exponents(1.0, x)

    # 1/Gamma ~ e^{pi |y|/2} overflows, on either side of Re z = 1/2
    @pytest.mark.parametrize("z", [1.0 - 750j, 0.25 + 460j])
    def test_rgamma_overflow(self, z):
        with pytest.raises(DomainError):
            sf.rgamma(z)

    # the derivative seed 1F1(1 - i eps/4, 3/2, -10 i) of the continuation of
    # 1F1(-i eps/4, 1/2, -i s^2/4), the zero-axis closed forms' first series
    # to cancel beyond the limit: quiet to eps = 20, raising from eps = 21;
    # hyp1f1 shrinks its series radius with the parameters and returns the
    # value at every eps
    @pytest.mark.parametrize("eps, trips", [
        (5.0, False), (10.0, False), (20.0, False),
        (21.0, True), (30.0, True), (400.0, True),
    ])
    def test_series_cancellation_guard(self, eps, trips):
        alpha, gamma, z = 1.0 - 0.25j * eps, 1.5, -10j
        term = total = 1.0 + 0.0j
        largest = 1.0
        for k in range(700):
            term = term * (alpha + k) / ((gamma + k) * (k + 1)) * z
            total += term
            largest = max(largest, abs(term))
            if abs(term) < 1e-20 * largest:
                break
        assert (largest > sf._CANCEL_LIMIT * abs(total)) == trips
        if trips:
            with pytest.raises(NonConvergenceError, match="cancels"):
                sf._series_1f1(alpha, gamma, z)
        ref = HYP1F1_ORACLE[(alpha, gamma, z)]
        assert abs(sf.hyp1f1(alpha, gamma, z) - ref) <= 1e-10 * abs(ref)


class TestNonFinite:
    """A non-finite argument is a DomainError, which the CLI reports as a
    numeric failure (exit 3)."""

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_domain_error(self, x):
        calls = (
            lambda: sf.cgamma(x),
            lambda: sf.cgamma(complex(1.0, x)),
            lambda: sf.hyp1f1(0.5 + 0.25j, 1.5, complex(0.0, x)),
            lambda: sf.hyp1f1(complex(0.5, x), 1.5, 1j),
            lambda: sf.arg_gamma_one_plus_ix(x),
        )
        for call in calls:
            with pytest.raises(DomainError):
                call()
