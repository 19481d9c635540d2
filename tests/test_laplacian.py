import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqz
from hqz import (ComplexSeries, NonpositiveRealPart, PlanarHarmonicMap,
                 QuadratureSpec, VanishingModulus, audit_laplacians,
                 disk_green_identity, laplacian_abs_f,
                 laplacian_ulogu, laplacian_ratio_sup, make_qr_map,
                 phi_scan_argmax, random_qr_map)
from hqz import laplacian
from hqz.laplacian import disk_area_log_mean

#: the 15 audit points of acceptance criterion 6 and ``hqz laplacian-audit``
AUDIT_POINTS = np.concatenate([r * np.exp(2j * np.pi * np.arange(5) / 5)
                               for r in (0.25, 0.55, 0.8)])


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
        # f = 2 + z: lap |f| = 1/|2+z|, O(1) everywhere, so the audit's
        # stencil is accurate enough here
        m = analytic(2.0, 1.0)
        rows = audit_laplacians(m, np.array([0.1 + 0.2j, -0.4 + 0.3j, 0.5])).rows
        assert len(rows) == 3
        for row in rows:
            closed = laplacian_abs_f(m, row.z)
            assert row.fd_abs_f == pytest.approx(closed, rel=1e-5)

    def test_fd_audit_random_map(self):
        # stated oracle: 5-point stencil, step 1e-4, relative 1e-5
        pts = np.asarray([0.3 + 0.2j, -0.5 + 0.1j, 0.2 - 0.6j, 0.7j])
        for seed in (0, 1, 2):
            m = random_qr_map(seed, 0.3)
            res = audit_laplacians(m, pts)
            assert res.max_rel_abs_f < 1e-5
            assert res.max_rel_ulogu < 1e-5


class TestAuditDeviations:
    def test_constant_map_reads_zero_not_nan(self):
        # both lap|f| values are exactly 0 here; 0/0 is read as 0
        const = analytic(2.0)
        res = audit_laplacians(const, np.array([0.3 + 0.1j]))
        assert res.rows[0].closed_abs_f == 0.0
        assert res.rows[0].fd_abs_f == 0.0
        assert res.rows[0].rel_abs_f == 0.0
        assert res.max_rel_abs_f == 0.0

    def test_other_nan_is_kept(self):
        with np.errstate(invalid="ignore"):  # inf / inf
            rel = laplacian._relative_deviation(np.array([0.0, 1.0, math.nan, 2.0]),
                                                np.array([0.0, 1.5, 1.0, math.inf]))
        assert rel[0] == 0.0
        assert rel[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert math.isnan(rel[2]) and math.isnan(rel[3])
        assert math.isnan(rel.max())


def uncertified_points(m: PlanarHarmonicMap) -> np.ndarray:
    """Kept audit points where the 80-bit stencil misses 1e-6 relative."""
    f = m(AUDIT_POINTS)
    pts = AUDIT_POINTS[(np.abs(f) > 0.1) & (f.real > 0.1)]
    closed_a = np.array([laplacian_abs_f(m, z) for z in pts])
    closed_u = np.array([laplacian_ulogu(m, z) for z in pts])
    fd_a, fd_u = laplacian._stencil_laplacians(m, pts, 1e-4)
    rel = np.maximum(np.abs(fd_a - closed_a) / np.abs(closed_a),
                     np.abs(fd_u - closed_u) / np.abs(closed_u))
    return pts[rel > 1e-6]


class TestDecimalFallback:
    """The maps the benchmark uses for its high-precision audit cases."""

    @pytest.fixture(params=[29, 7], scope="class")
    def fallback_map(self, request):
        m = random_qr_map(request.param, 0.3, 16)
        pts = uncertified_points(m)
        assert pts.size > 0
        return m, pts

    def test_matches_closed_forms(self, fallback_map):
        m, pts = fallback_map
        res = audit_laplacians(m, pts)
        assert len(res.rows) == pts.size
        for row in res.rows:
            assert row.fd_abs_f == pytest.approx(laplacian_abs_f(m, row.z), rel=1e-9)
            assert row.fd_ulogu == pytest.approx(laplacian_ulogu(m, row.z), rel=1e-9)
        assert max(res.max_rel_abs_f, res.max_rel_ulogu) <= 1e-9

    def test_rounding_is_not_the_limit(self, fallback_map, monkeypatch):
        m, pts = fallback_map
        at_40 = audit_laplacians(m, pts)
        monkeypatch.setattr(laplacian, "STENCIL_DIGITS", 60)
        at_60 = audit_laplacians(m, pts)
        for a, b in zip(at_40.rows, at_60.rows):
            assert abs(a.fd_abs_f - b.fd_abs_f) <= 1e-12 * abs(b.fd_abs_f)
            assert abs(a.fd_ulogu - b.fd_ulogu) <= 1e-12 * abs(b.fd_ulogu)

    def test_does_not_import_mpmath(self):
        code = ("import sys, numpy as np, hqz\n"
                "pts = np.concatenate([r * np.exp(2j * np.pi * np.arange(5) / 5)\n"
                "                      for r in (0.25, 0.55, 0.8)])\n"
                "hqz.audit_laplacians(hqz.random_qr_map(29, 0.3, 16), pts)\n"
                "assert 'decimal' in sys.modules\n"
                "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n")
        src = str(Path(hqz.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


def disk_grid(n_radii: int, n_angles: int) -> np.ndarray:
    """z = 0, then the tensor grid of radii j/n_radii and uniform angles."""
    radii = np.arange(1, n_radii + 1) / n_radii
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.concatenate(([0j], np.outer(radii, np.exp(1j * angles)).ravel()))


def ratio_sup_reference(m: PlanarHarmonicMap) -> float:
    """The ratio sup by Horner at the points of disk_grid."""
    z = disk_grid(laplacian.RATIO_GRID_RADII, laplacian.RATIO_GRID_ANGLES)
    f = m.g(z) + np.conjugate(m.h(z))
    gp, hp = m.g_prime(z), m.h_prime(z)
    num = np.abs(gp - (f / np.conjugate(f)) * hp) ** 2 / np.abs(f)
    den = np.abs(gp + hp) ** 2 / f.real
    ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                     np.where(num > 0.0, np.inf, 0.0))
    return float(ratio.max())


class TestRatioGrid:
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.5])
    def test_matches_horner_on_disk_grid(self, k):
        for seed in range(20):
            m = random_qr_map(seed, k)
            assert k > 0.0 or m.h.is_zero()
            want = ratio_sup_reference(m)
            got = laplacian_ratio_sup(m)
            assert abs(got - want) <= 1e-13 * want, f"seed={seed}, k={k}"

    def test_nonpositive_real_part_raises(self):
        # u = 0.5 + 1.3 x is negative on the left of the disk; |v| >= 1.3
        m = PlanarHarmonicMap(g=ComplexSeries((0.5 + 2j, 1.0)), h=ComplexSeries((0.0, 0.3)))
        with pytest.raises(NonpositiveRealPart):
            laplacian_ratio_sup(m)

    def test_vanishing_modulus_at_the_centre_raises(self):
        with pytest.raises(VanishingModulus):
            laplacian_ratio_sup(analytic(0.0, 1.0))


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
        for z in pts:
            lap_abs_f, lap_ulogu = laplacian_abs_f(m, z), laplacian_ulogu(m, z)
            assert lap_abs_f >= 0.0
            assert lap_ulogu >= 0.0
            assert lap_abs_f / lap_ulogu >= 0.0


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
        # huge abs_tol freezes each run at its first doubling: the area rule
        # runs at 16 against 64 radial nodes (radial_nodes 32 and 128), on
        # the same 4096 boundary nodes; the zero of 1 + z / 0.92 just
        # outside the disk leaves the coarse radial rule visibly short
        from hqz import QuadratureSpec
        m = analytic(1.0, 1.0 / 0.92)
        coarse = QuadratureSpec(circle_nodes=2048, radial_nodes=32,
                                refinement_limit=1, abs_tol=1e9)
        fine = QuadratureSpec(circle_nodes=2048, radial_nodes=128,
                              refinement_limit=1, abs_tol=1e9)
        r_coarse = abs(disk_green_identity(m, 0.9, coarse))
        r_fine = abs(disk_green_identity(m, 0.9, fine))
        assert r_coarse > 1e-12
        assert r_fine <= r_coarse


class TestDiskAreaLogMean:
    @pytest.mark.parametrize("power", [0, 2])
    def test_radial_powers(self, q, power):
        # (1/2pi) iint_{|z|<r} |z|^p log(r/|z|) dx dy = r^(p+2) / (p+2)^2
        def rows(rho, n):
            return np.repeat(rho[:, None] ** power, n, axis=1)

        value, err = disk_area_log_mean(rows, 0.9, q)
        assert value == pytest.approx(0.9 ** (power + 2) / (power + 2) ** 2, abs=1e-10)
        assert err <= 1e-10

    def test_rows_calls_stay_within_the_point_budget(self):
        # 2048 starting angles: 8 radii take two calls, then 16 radii eight
        from hqz import QuadratureSpec
        sizes = []

        def rows(rho, n):
            sizes.append(rho.size * n)
            return np.repeat(rho[:, None] ** 2, n, axis=1)

        value, _ = disk_area_log_mean(rows, 0.9, QuadratureSpec(circle_nodes=4096))
        assert sizes == [laplacian.AREA_CALL_POINTS] * 10
        assert value == pytest.approx(0.9 ** 4 / 16, abs=1e-12)


class TestPhiAnalysis:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 9.0])
    def test_scan_matches_closed_form(self, lam):
        assert phi_scan_argmax(lam) == pytest.approx(
            math.exp(-1.0 + 1.0 / lam), abs=1e-6)
