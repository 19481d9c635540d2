import math

import numpy as np
import pytest

from hqz import (ComplexSeries, NonpositiveRealPart, PlanarHarmonicMap,
                 VanishingModulus, audit_laplacians, disk_green_identity,
                 fd_laplacian, laplacian_abs_f, laplacian_samples,
                 laplacian_ulogu, laplacian_ratio_sup, make_qr_map, phi_analysis,
                 phi_scan_argmax, random_qr_map)
from hqz.laplacian import disk_area_log_mean


def analytic(*coeffs) -> PlanarHarmonicMap:
    return PlanarHarmonicMap(g=ComplexSeries(tuple(coeffs)),
                             h=ComplexSeries.zero())


class TestClosedForms:
    def test_abs_of_identity_map(self):
        # lap |z| = 1/|z| in the plane
        assert laplacian_abs_f(analytic(0.0, 1.0), 0.5) == pytest.approx(2.0, rel=1e-14)
        assert laplacian_abs_f(analytic(0.0, 1.0), 0.25j) == pytest.approx(4.0, rel=1e-13)

    def test_abs_of_constant_is_zero(self):
        assert laplacian_abs_f(analytic(3.0), 0.2) == 0.0

    def test_abs_vanishing_modulus_guard(self):
        with pytest.raises(VanishingModulus):
            laplacian_abs_f(analytic(0.0, 1.0), 0.0)

    def test_ulogu_two_plus_z(self):
        assert laplacian_ulogu(analytic(2.0, 1.0), 0.0) == pytest.approx(0.5, rel=1e-14)
        assert laplacian_ulogu(analytic(2.0, 1.0), 0.5) == pytest.approx(0.4, rel=1e-14)

    def test_ulogu_constant_is_zero(self):
        assert laplacian_ulogu(analytic(5.0), 0.1j) == 0.0

    def test_ulogu_positive_u_required(self):
        with pytest.raises(NonpositiveRealPart):
            laplacian_ulogu(analytic(-1.0), 0.0)

    def test_float_fd_cross_check_well_conditioned(self):
        # f = 2 + z: lap |f| = 1/|2+z|, O(1) everywhere, so the plain
        # float64 stencil is accurate enough here
        m = analytic(2.0, 1.0)
        for z in (0.1 + 0.2j, -0.4 + 0.3j, 0.5):
            closed = laplacian_abs_f(m, z)
            fd = fd_laplacian(lambda x, y: abs(complex(2.0, 0.0) + complex(x, y)),
                              z.real, z.imag)
            assert fd == pytest.approx(closed, rel=1e-5)

    def test_fd_audit_random_map(self):
        # stated oracle: 5-point stencil, step 1e-4, relative 1e-5
        pts = np.asarray([0.3 + 0.2j, -0.5 + 0.1j, 0.2 - 0.6j, 0.7j])
        for seed in (0, 1, 2):
            m = random_qr_map(seed, 0.3)
            res = audit_laplacians(m, pts)
            assert res.max_rel_abs_f < 1e-5
            assert res.max_rel_ulogu < 1e-5


class TestLaplacianRatioSup:
    def test_analytic_positive_map(self):
        # K = 1: ratio = u/|f| <= 1
        assert laplacian_ratio_sup(analytic(1.0, 0.5)) <= 1.0 + 1e-12

    def test_constant_map_convention(self):
        assert laplacian_ratio_sup(analytic(2.0)) == 0.0

    def test_k03_map_bounded_by_K_squared(self):
        m = make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries.constant(0.3))
        bound = ((1.0 + 0.3) / (1.0 - 0.3)) ** 2
        assert laplacian_ratio_sup(m) <= bound * (1.0 + 1e-9)

    def test_nonnegative_laplacians_on_samples(self):
        m = random_qr_map(4, 0.3)
        pts = 0.6 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 12, endpoint=False))
        for s in laplacian_samples(m, pts):
            assert s.lap_abs_f >= 0.0
            assert s.lap_ulogu >= 0.0
            assert s.ratio >= 0.0


class TestDiskGreenIdentity:
    def test_constant_map_exact(self, q):
        assert disk_green_identity(analytic(2.0), 0.9, q) == pytest.approx(0.0, abs=1e-14)

    def test_two_plus_z(self, q):
        assert abs(disk_green_identity(analytic(2.0, 1.0), 0.9, q)) < 1e-6

    def test_qr_map(self, q):
        m = make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries.constant(0.3))
        assert abs(disk_green_identity(m, 0.9, q)) < 1e-6

    def test_requires_nonvanishing(self, q):
        with pytest.raises(VanishingModulus):
            disk_green_identity(analytic(0.0, 1.0), 0.9, q)

    def test_residual_shrinks_under_refinement(self):
        # huge abs_tol freezes each run at its first refinement level, so
        # the two runs compare fixed coarse vs fixed fine rules
        from hqz import QuadratureSpec
        m = make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries.constant(0.3))
        coarse = QuadratureSpec(circle_nodes=16, radial_nodes=4,
                                refinement_limit=1, abs_tol=1e9)
        fine = QuadratureSpec(circle_nodes=128, radial_nodes=16,
                              refinement_limit=1, abs_tol=1e9)
        r_coarse = abs(disk_green_identity(m, 0.9, coarse))
        r_fine = abs(disk_green_identity(m, 0.9, fine))
        assert r_fine <= r_coarse + 1e-12


class TestDiskAreaLogMean:
    @pytest.mark.parametrize("power", [0, 2])
    def test_radial_powers(self, q, power):
        # (1/2pi) iint_{|z|<r} |z|^p log(r/|z|) dx dy = r^(p+2) / (p+2)^2
        def rows(rho, n):
            return np.repeat(rho[:, None] ** power, n, axis=1)

        value, err = disk_area_log_mean(rows, 0.9, q)
        assert value == pytest.approx(0.9 ** (power + 2) / (power + 2) ** 2, abs=1e-10)
        assert err <= 1e-10


class TestPhiAnalysis:
    def test_lambda_one(self):
        pa = phi_analysis(1.0)
        assert pa.xi_star == pytest.approx(1.0, abs=1e-14)
        assert pa.phi_max == pytest.approx(1.0, abs=1e-14)

    def test_K_two(self):
        # lambda = K^2 with K = 2: maximizer exp(-3/4)
        pa = phi_analysis(4.0)
        assert pa.xi_star == pytest.approx(math.exp(-0.75), rel=1e-14)
        assert pa.phi_max == pytest.approx(4.0 * math.exp(-0.75), rel=1e-14)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 9.0])
    def test_scan_matches_closed_form(self, lam):
        assert phi_scan_argmax(lam) == pytest.approx(
            math.exp(-1.0 + 1.0 / lam), abs=1e-6)

    def test_lambda_below_one_rejected(self):
        from hqz import DomainError
        with pytest.raises(DomainError):
            phi_analysis(0.5)
