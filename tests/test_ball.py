import math

import numpy as np
import pytest

from hqz import (AffineBallMap, C_n, ComplexSeries,
                 DomainError, HypothesisViolation, PlanarHarmonicMap,
                 X_of, Y_of, axial_mean,
                 ball_green_calibration, ball_green_identity_n3,
                 laplacian_abs_affine, laplacian_abs_f, phi_of_m,
                 ratio_limit_scan)


def simpson_axial(n, profile, nodes=2 ** 18 + 1) -> float:
    """Dense Simpson oracle for C_n * int sin^(n-2) * profile."""
    t = np.linspace(0.0, math.pi, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    cn = math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))
    return cn * float((w * np.sin(t) ** (n - 2) * profile(t)).sum()
                      * (math.pi / (nodes - 1)) / 3.0)


class TestCn:
    def test_three_dimensional_value(self):
        assert C_n(3) == pytest.approx(0.5, rel=1e-13)

    def test_planar_value(self):
        assert C_n(2) == pytest.approx(1.0 / math.pi, rel=1e-13)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_normalizes_the_axial_weight(self, n, q):
        total = axial_mean(n, lambda t: np.ones_like(t), q)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            C_n(1)


class TestAxialMean:
    def test_total_mass(self, q):
        assert axial_mean(5, lambda t: np.ones_like(t), q) == pytest.approx(1.0, abs=1e-12)

    def test_odd_profile_vanishes(self, q):
        assert axial_mean(3, np.cos, q) == pytest.approx(0.0, abs=1e-13)

    def test_cos_squared_n3(self, q):
        got = axial_mean(3, lambda t: np.cos(t) ** 2, q)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got == pytest.approx(simpson_axial(3, lambda t: np.cos(t) ** 2),
                                    abs=1e-10)

    def test_integrand_dataclass(self, q):
        got = axial_mean(4, lambda t: np.cos(t) ** 2, q)
        assert got == pytest.approx(0.25, abs=1e-12)  # <x1^2> = 1/n


class TestXandY:
    def test_constant_map_is_zero(self, q):
        fam = AffineBallMap(n=3, c=1.0, a=0.0)
        assert X_of(fam, q) == pytest.approx(0.0, abs=1e-15)
        assert Y_of(fam, q) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", [2.0, 5.0, 10.0])
    def test_m_family_X_is_one_third(self, m, q):
        fam = AffineBallMap(n=3, c=m * m, a=m)
        assert X_of(fam, q) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_small_a_X_asymptotics(self, q):
        # leading term a^2 (n-1) / (2n); next correction is O(a^2) relative
        fam = AffineBallMap(n=4, c=1.0, a=0.01)
        lead = 0.01 ** 2 * 3.0 / 8.0
        assert X_of(fam, q) == pytest.approx(lead, rel=1e-2)
        oracle = simpson_axial(4, lambda t: np.sqrt(1 + 0.01 ** 2 + 0.02 * np.cos(t)) - 1)
        assert X_of(fam, q) == pytest.approx(oracle, abs=1e-10)

    def test_small_a_Y_asymptotics(self, q):
        fam = AffineBallMap(n=4, c=1.0, a=0.01)
        lead = 0.01 ** 2 / 8.0
        assert Y_of(fam, q) == pytest.approx(lead, rel=1e-2)
        oracle = simpson_axial(
            4, lambda t: (1 + 0.01 * np.cos(t)) * np.log(1 + 0.01 * np.cos(t)))
        assert Y_of(fam, q) == pytest.approx(oracle, abs=1e-10)

    def test_m_family_Y_is_half_phi(self, q):
        for m in (2.0, 3.0, 7.0):
            fam = AffineBallMap(n=3, c=m * m, a=m)
            assert 2.0 * Y_of(fam, q) == pytest.approx(phi_of_m(m), abs=1e-7)

    def test_Y_requires_positive_u(self, q):
        with pytest.raises(HypothesisViolation, match="changes sign"):
            Y_of(AffineBallMap(n=3, c=0.5, a=0.7), q)


class TestPhiOfM:
    def test_limit_value(self):
        assert abs(phi_of_m(100.0) - 1.0 / 3.0) < 1e-3

    def test_gap_strictly_decreasing(self):
        gaps = [abs(phi_of_m(m) - 1.0 / 3.0) for m in (10.0, 20.0, 50.0, 100.0)]
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))

    def test_approaches_from_above(self):
        # phi(m) = 1/3 + 1/(30 m^2) + O(m^-3)
        for m in (10.0, 100.0, 1000.0):
            assert phi_of_m(m) > 1.0 / 3.0
            assert phi_of_m(m) - 1.0 / 3.0 == pytest.approx(1.0 / (30.0 * m * m),
                                                            rel=0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_of_m(1.0)
        with pytest.raises(DomainError):
            phi_of_m(0.5)


class TestRatioLimit:
    @pytest.mark.parametrize("n,lo,hi", [(3, 1.9, 2.1), (2, 0.95, 1.05)])
    def test_final_ratio_near_target(self, n, lo, hi, q):
        rows = ratio_limit_scan(n, (0.01,), q)
        assert lo < rows[0].ratio < hi

    def test_deviation_decreasing(self, q):
        rows = ratio_limit_scan(4, (0.2, 0.1, 0.05, 0.01), q)
        devs = [r.deviation for r in rows]
        assert all(b < a for a, b in zip(devs[:-1], devs[1:]))

    def test_a_domain(self, q):
        with pytest.raises(DomainError):
            ratio_limit_scan(3, (1.5,), q)


class TestAffineLaplacian:
    def test_at_origin(self):
        fam = AffineBallMap(n=5, c=1.0, a=0.25)
        assert laplacian_abs_affine(fam, np.zeros(5)) == pytest.approx(
            0.25 ** 2 * 4.0, rel=1e-13)

    def test_closed_form_everywhere(self, rng):
        fam = AffineBallMap(n=3, c=2.0, a=0.5)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 3)
            fx = fam.value(x)
            want = fam.a ** 2 * (fam.n - 1) / np.linalg.norm(fx)
            assert laplacian_abs_affine(fam, x) == pytest.approx(want, rel=1e-12)

    def test_matches_planar_module_in_dimension_two(self, rng):
        # n = 2 affine map c + a z seen by both modules
        c, a = 1.5, 0.4
        fam = AffineBallMap(n=2, c=c, a=a)
        planar = PlanarHarmonicMap(g=ComplexSeries((c, a)),
                                   h=ComplexSeries.zero())
        for _ in range(20):
            x = rng.uniform(-0.6, 0.6, 2)
            z = complex(x[0], x[1])
            assert laplacian_abs_affine(fam, x) == pytest.approx(
                laplacian_abs_f(planar, z), rel=1e-10)

    def test_finite_difference_oracle(self, rng):
        fam = AffineBallMap(n=3, c=2.0, a=0.5)
        h = 1e-4

        def absf(y):
            return float(np.linalg.norm(fam.value(y)))

        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, 3)
            fd = 0.0
            for i in range(3):
                for step, w in ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)):
                    y = x.copy()
                    y[i] += step * h
                    fd += w * absf(y)
            fd /= 12.0 * h * h
            assert fd == pytest.approx(laplacian_abs_affine(fam, x), rel=1e-5)

    def test_vanishing_modulus(self):
        fam = AffineBallMap(n=3, c=0.0, a=1.0)
        with pytest.raises(HypothesisViolation, match="radial field"):
            laplacian_abs_affine(fam, np.zeros(3))


class TestBallGreen:
    def test_calibration(self, q):
        assert abs(ball_green_calibration(q)) < 1e-10

    def test_m2_family(self, q):
        res = ball_green_identity_n3(AffineBallMap(n=3, c=4.0, a=2.0), q)
        assert abs(res) < 1e-4

    def test_constant_map(self, q):
        res = ball_green_identity_n3(AffineBallMap(n=3, c=1.0, a=0.0), q)
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_dimension_guard(self, q):
        with pytest.raises(DomainError):
            ball_green_identity_n3(AffineBallMap(n=4, c=4.0, a=2.0), q)


class TestAffineRatioBound:
    def test_affine_pointwise_bound(self, rng):
        # lap|f| / lap(u log u) = (n-1) u/|f| <= n-1 for the affine family
        fam = AffineBallMap(n=4, c=2.0, a=0.5)
        for _ in range(30):
            x = rng.uniform(-0.6, 0.6, 4)
            fx = fam.value(x)
            u = fx[0]
            lap_abs = laplacian_abs_affine(fam, x)
            lap_ulogu = fam.a ** 2 / u  # |grad u|^2 / u with grad u = a e1
            ratio = lap_abs / lap_ulogu
            assert ratio <= (fam.n - 1) + 1e-12
            assert ratio == pytest.approx((fam.n - 1) * u / np.linalg.norm(fx),
                                          rel=1e-12)
