import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqz
from hqz import (ComplexSeries, DomainError, HypothesisViolation, PlanarHarmonicMap,
                 QuadratureSpec, audit_laplacians,
                 disk_green_identity, laplacian_abs_f,
                 laplacian_ulogu, laplacian_ratio_sup, make_qr_map,
                 phi_scan_argmax, random_qr_map)
from hqz import laplacian
from hqz.laplacian import disk_area_log_mean
from hqz.quadrature import log_weight_gauss
from hqz.series import circle_values, horner, stacked

#: the 15 audit points of acceptance criterion 6 and ``hqz laplacian-audit``
AUDIT_POINTS = np.concatenate([r * np.exp(2j * np.pi * np.arange(5) / 5)
                               for r in (0.25, 0.55, 0.8)])


def analytic(*coeffs) -> PlanarHarmonicMap:
    return PlanarHarmonicMap(g=ComplexSeries(tuple(coeffs)),
                             h=ComplexSeries.zero())


#: corpus maps of several degrees and dilatations, and a constant map
GRID_MAPS = [random_qr_map(seed, k, degree) for degree in (1, 2, 16, 40)
             for k in (0.0, 0.3, 0.9) for seed in range(4)] + [analytic(2.0)]

#: the order grid: corpus maps at k = 0 ... 0.9 and degrees 1 ... 63, 15 seeds each
ORDER_GRID_MAPS = [random_qr_map(seed, k, degree) for k in (0.0, 0.1, 0.3, 0.5, 0.9)
                   for degree in (1, 2, 16, 40, 63) for seed in range(15)]


def outcome(fn, *args):
    """fn(*args), or the type and message of the HqzError it raises."""
    try:
        return fn(*args)
    except hqz.HqzError as e:
        return type(e), str(e)


class TestClosedForms:
    def test_abs_of_identity_map(self):
        # lap |z| = 1/|z| in the plane
        assert laplacian_abs_f(analytic(0.0, 1.0), 0.5) == pytest.approx(2.0, rel=1e-14)
        assert laplacian_abs_f(analytic(0.0, 1.0), 0.25j) == pytest.approx(4.0, rel=1e-13)

    def test_abs_of_constant_is_zero(self):
        assert laplacian_abs_f(analytic(3.0), 0.2) == 0.0

    def test_abs_vanishing_modulus_guard(self):
        with pytest.raises(HypothesisViolation, match=r"\|f\(z\)\|"):
            laplacian_abs_f(analytic(0.0, 1.0), 0.0)

    def test_abs_guard_reads_the_modulus_it_divides_by(self):
        # abs and np.abs of these f(0) round to opposite sides of TAU_F; the
        # guard and 1/|f| must read one of them, as the grid's check does
        inside = complex(-6.520162635843662e-09, -7.582049802141123e-09)
        outside = complex(9.17935253630303e-09, -3.967302233794036e-09)
        assert np.abs(inside) > laplacian.TAU_F >= np.abs(outside)
        assert laplacian_abs_f(analytic(inside, 1.0), 0.0) == 1.0 / np.abs(inside)
        with pytest.raises(HypothesisViolation, match=r"\|f\(z\)\| = 1\.000e-08"):
            laplacian_abs_f(analytic(outside, 1.0), 0.0)

    def test_ulogu_two_plus_z(self):
        assert laplacian_ulogu(analytic(2.0, 1.0), 0.0) == pytest.approx(0.5, rel=1e-14)
        assert laplacian_ulogu(analytic(2.0, 1.0), 0.5) == pytest.approx(0.4, rel=1e-14)

    def test_ulogu_constant_is_zero(self):
        assert laplacian_ulogu(analytic(5.0), 0.1j) == 0.0

    def test_ulogu_positive_u_required(self):
        with pytest.raises(HypothesisViolation, match=r"u\(z\)"):
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
        # the difference form gives df = 0 exactly, so lap(u log u) too
        assert res.rows[0].fd_ulogu == 0.0
        assert res.rows[0].rel_ulogu == 0.0
        assert res.max_rel_ulogu == 0.0

    def test_small_laplacians_need_the_difference_form(self):
        # lap|f| and lap(u log u) are 5e-7 on f ~ 2: differencing float64
        # values of |f| and u log u instead reads 16 % and 3 % off here
        m = analytic(2.0, 1e-3)
        res = audit_laplacians(m, np.array([0.3 + 0.1j]))
        assert res.rows[0].closed_abs_f == pytest.approx(1e-6 / abs(2.0003 + 1e-4j), rel=1e-14)
        assert res.max_rel_abs_f <= 1e-8
        assert res.max_rel_ulogu <= 1e-8

    def test_other_nan_is_kept(self):
        with np.errstate(invalid="ignore"):  # inf / inf
            rel = laplacian._relative_deviation(np.array([0.0, 1.0, math.nan, 2.0]),
                                                np.array([0.0, 1.5, 1.0, math.inf]))
        assert rel[0] == 0.0
        assert rel[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert math.isnan(rel[2]) and math.isnan(rel[3])
        assert math.isnan(rel.max())


class TestNonFiniteCoefficients:
    """A NaN or inf coefficient is refused when the map is built, so no
    Laplacian check can read it as a point to skip or a ratio of 0."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("part", ["g", "h", "omega"])
    def test_refused(self, part, bad):
        m = random_qr_map(3, 0.3, 16)
        coeffs = getattr(m, part).coeffs.copy()
        coeffs[5] = bad
        parts = {"g": m.g, "h": m.h, "omega": m.omega} | {part: ComplexSeries(coeffs)}
        with pytest.raises(DomainError, match="finite coefficients"):
            PlanarHarmonicMap(**parts)


def decimal_stencil(m: PlanarHarmonicMap, pts: np.ndarray, h: float = 1e-4,
                    digits: int = 40) -> list[list[float]]:
    """[lap|f|, lap(u log u)] at pts by the audit's 5-point stencil in ``decimal``.

    Coefficients and h convert exactly; points and Horner steps on (re, im)
    pairs round to ``digits`` digits; sqrt and ln are correctly rounded.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=digits)):
        coeffs = [[D(x) for c in pair for x in (c.real, c.imag)]
                  for pair in stacked([m.g, m.h]).T[::-1].tolist()]
        offsets = [k * D(h) for k in (-2, -1, 0, 1, 2)]
        weights = [-1, 16, -30, 16, -1] * 2

        def f_at(x, y):  # (Re, Im) of g + conj(h) at x + iy
            gr = gi = hr = hi = D(0)
            for ar, ai, br, bi in coeffs:
                gr, gi = gr * x - gi * y + ar, gr * y + gi * x + ai
                hr, hi = hr * x - hi * y + br, hr * y + hi * x + bi
            return gr + hr, gi - hi

        def lap(values) -> float:
            return float(sum(w * v for w, v in zip(weights, values)) / (12 * D(h) * D(h)))

        out = [[], []]
        for z in pts:
            x0, y0 = +D(z.real), +D(z.imag)
            row_x = [f_at(x0 + d, y0) for d in offsets]
            f = row_x + [f_at(x0, y0 + d) if d else row_x[2] for d in offsets]
            out[0].append(lap([(re * re + im * im).sqrt() for re, im in f]))
            out[1].append(lap([re * re.ln() for re, _ in f]))
    return out


class TestDecimalOracle:
    """The maps the benchmark uses for its high-precision audit cases."""

    @pytest.fixture(params=[29, 7], scope="class")
    def oracle_case(self, request):
        m = random_qr_map(request.param, 0.3, 16)
        res = audit_laplacians(m, AUDIT_POINTS)
        pts = np.array([row.z for row in res.rows])
        assert pts.size > 0
        return m, res, pts

    def test_audit_matches_the_oracle(self, oracle_case):
        m, res, pts = oracle_case
        want_a, want_u = decimal_stencil(m, pts)
        for row, a, u in zip(res.rows, want_a, want_u):
            assert row.fd_abs_f == pytest.approx(a, rel=1e-7)
            assert row.fd_ulogu == pytest.approx(u, rel=1e-7)

    def test_rounding_is_not_the_limit(self, oracle_case):
        m, _, pts = oracle_case
        at_40, at_60 = decimal_stencil(m, pts), decimal_stencil(m, pts, digits=60)
        for a, b in zip(np.ravel(at_40), np.ravel(at_60)):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_imports_neither_decimal_nor_mpmath(self):
        code = ("import sys, numpy as np, hqz\n"
                "pts = np.concatenate([r * np.exp(2j * np.pi * np.arange(5) / 5)\n"
                "                      for r in (0.25, 0.55, 0.8)])\n"
                "hqz.audit_laplacians(hqz.random_qr_map(29, 0.3, 16), pts)\n"
                "assert 'decimal' not in sys.modules, 'decimal was imported'\n"
                "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n")
        src = str(Path(hqz.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestTaylorShift:
    def test_rows_are_scaled_derivatives(self):
        m = random_qr_map(3, 0.3)
        binom, index = laplacian._shift_weights(m.g.coeffs.size)
        b = horner(binom * m.g.coeffs[index], AUDIT_POINTS)
        second = m.g.derivative().derivative()
        np.testing.assert_array_equal(b[0], m.g(AUDIT_POINTS))
        np.testing.assert_array_equal(b[1], m.g_prime(AUDIT_POINTS))
        np.testing.assert_allclose(b[2], second(AUDIT_POINTS) / 2, rtol=1e-13)

    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_dropped_terms_stay_below_rounding(self, seed):
        # the terms past the chosen order, from a full-length shift, against
        # the rounding eps 2h B_1 of the first-order term
        m = random_qr_map(seed, 0.3, 16)
        coeffs = np.pad(stacked([m.g, m.h]), ((0, 0), (0, 1)))
        step = 2e-4
        order = laplacian._shift_order(coeffs, 0.8, step)
        binom, index = laplacian._shift_weights(coeffs.shape[-1])
        b = np.abs(horner(binom * coeffs[:, index], AUDIT_POINTS)).sum(axis=0)
        dropped = (b[order + 1:] * step ** np.arange(order + 1, b.shape[0])[:, None]).sum(axis=0)
        b1 = horner(binom[1] * np.abs(coeffs).sum(axis=0)[index[1]], 0.8 + step).real
        assert 1 <= order < 16
        assert dropped.max() <= np.finfo(float).eps * step * b1

    @pytest.mark.parametrize("m", GRID_MAPS + ORDER_GRID_MAPS)
    def test_order_matches_the_horner_bound(self, m):
        # B_j(radius + step) by one horner pass of the binomial-weighted
        # |a_k|, against the matrix-vector product on its leading rows: the
        # same order J.  The audit's step 2e-4 stops inside the first 8 rows;
        # the wider steps need 16, 32 or 64
        def horner_order(coeffs, radius, step):
            binom, index = laplacian._shift_weights(coeffs.shape[-1])
            bound = horner(binom * np.abs(coeffs).sum(axis=0)[index], radius + step).real
            tail = step ** np.arange(2, bound.size + 1) * np.append(bound[2:], 0.0)
            return 1 + int(np.argmax(tail <= np.finfo(float).eps * step * bound[1]))

        # the audit's rows: g, and h unless it is zero, and a zero column
        coeffs = np.pad(stacked([m.g] if m.h.is_zero() else [m.g, m.h]), ((0, 0), (0, 1)))
        for step in (2e-4, 0.02, 0.3):
            for radius in (0.25, 0.55, 0.8, 0.99):
                assert (laplacian._shift_order(coeffs, radius, step)
                        == horner_order(coeffs, radius, step))

    def test_full_shift_changes_only_rounding(self, monkeypatch):
        m = random_qr_map(29, 0.3, 16)
        short = audit_laplacians(m, AUDIT_POINTS)
        monkeypatch.setattr(laplacian, "_shift_order", lambda coeffs, r, s: coeffs.shape[-1] - 1)
        full = audit_laplacians(m, AUDIT_POINTS)
        for a, b in zip(short.rows, full.rows):
            assert a.fd_abs_f == pytest.approx(b.fd_abs_f, rel=1e-9)
            assert a.fd_ulogu == pytest.approx(b.fd_ulogu, rel=1e-9)


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


def three_call_ratio_sup(m: PlanarHarmonicMap) -> float:
    """laplacian_ratio_sup with one ``circle_values`` call each for f, g'
    and h', and z = 0 put in front of each by ``np.append``."""
    radii = np.arange(1, laplacian.RATIO_GRID_RADII + 1) / laplacian.RATIO_GRID_RADII

    def on_grid(s, t=None):
        return np.append(s[0], circle_values(s, t, radii, laplacian.RATIO_GRID_ANGLES))

    f = on_grid(m.g.coeffs, m.h.coeffs)
    gp, hp = on_grid(m.g_prime.coeffs), on_grid(m.h_prime.coeffs)
    laplacian._check_domain(float(np.abs(f).min()), float(f.real.min()), "on the grid")
    num, den = laplacian._lap_abs_f(f, np.abs(f), gp, hp), laplacian._lap_ulogu(f, gp, hp)
    ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                     np.where(num > 0.0, np.inf, 0.0))
    return float(ratio.max())


def concatenated_ratio_sup(m: PlanarHarmonicMap) -> float:
    """The ratio sup with z = 0 put in front of the circle values by one
    ``np.concatenate``, the domain check and closed forms inlined: the
    reference for taking z = 0 apart from the circles."""
    radii = np.arange(1, laplacian.RATIO_GRID_RADII + 1) / laplacian.RATIO_GRID_RADII
    rows = stacked([m.g, m.g_prime, m.h_prime, m.h])
    G = rows[:3]
    on_circles = circle_values(G, rows[3:], radii, laplacian.RATIO_GRID_ANGLES)
    f, gp, hp = np.concatenate((G[:, :1], on_circles.reshape(3, -1)), axis=1)
    af_min, u_min = float(np.abs(f).min()), float(f.real.min())
    if af_min <= laplacian.TAU_F:
        raise HypothesisViolation(f"min |f| = {af_min:.3e} on the grid")
    if u_min <= 0.0:
        raise HypothesisViolation(f"min u = {u_min:.3e} on the grid")
    num = np.abs(gp - (f / np.conjugate(f)) * hp) ** 2 / np.abs(f)
    den = np.abs(gp + hp) ** 2 / np.real(f)
    ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                     np.where(num > 0.0, np.inf, 0.0))
    return float(ratio.max())


def three_call_area_integrand(m: PlanarHarmonicMap, rho: np.ndarray, n: int) -> np.ndarray:
    """lap|f| on the circles rho, one ``circle_values`` call each for f, g' and h'."""
    f = circle_values(m.g.coeffs, m.h.coeffs, rho, n)
    return laplacian._lap_abs_f(f, np.abs(f), circle_values(m.g_prime.coeffs, None, rho, n),
                                circle_values(m.h_prime.coeffs, None, rho, n))


class TestOneGridCall:
    """f, g' and h' from one stacked call give the bits of three calls."""

    @pytest.mark.parametrize("m", GRID_MAPS)
    def test_ratio_sup_matches_three_calls(self, m):
        got, want = outcome(laplacian_ratio_sup, m), outcome(three_call_ratio_sup, m)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("m", GRID_MAPS)
    def test_area_integrand_matches_three_calls(self, m, monkeypatch):
        integrands = []
        monkeypatch.setattr(laplacian, "disk_area_log_mean",
                            lambda rows, r, q: integrands.append(rows) or (0.0, 0.0))
        disk_green_identity(m, 0.9, QuadratureSpec(circle_nodes=64))
        rho = 0.9 * log_weight_gauss(8)[0]
        for n in (16, 256):  # 16 folds every coefficient of index 16 and up onto j mod 16
            got = integrands[0](rho, n)
            assert got.shape == (rho.size, n)
            assert got.tobytes() == three_call_area_integrand(m, rho, n).tobytes()


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
        with pytest.raises(HypothesisViolation, match="min u"):
            laplacian_ratio_sup(m)

    def test_vanishing_modulus_at_the_centre_raises(self):
        # f = z: |f| >= 1/32 on the circles, so only z = 0 fails the check
        m = analytic(0.0, 1.0)
        with pytest.raises(HypothesisViolation, match=r"min \|f\|"):
            laplacian_ratio_sup(m)
        assert outcome(laplacian_ratio_sup, m) == outcome(concatenated_ratio_sup, m)

    @pytest.mark.parametrize("degree", [2, 16])
    @pytest.mark.parametrize("k", [0.0, 0.3, 0.9])
    def test_is_the_concatenated_grid(self, k, degree):
        for seed in range(25):
            m = random_qr_map(seed, k, degree)
            got, want = outcome(laplacian_ratio_sup, m), outcome(concatenated_ratio_sup, m)
            assert repr(got) == repr(want), f"seed={seed}"

    @pytest.mark.parametrize("g, h", [((2.0, 1.0, 0.5), (0.0, -1.0)),  # g' + h' = z
                                      ((2.0, 1.0), (0.0, -1.0))])  # g' + h' = 0
    def test_zero_denominator_under_a_positive_numerator_is_inf(self, g, h):
        m = PlanarHarmonicMap(g=ComplexSeries(g), h=ComplexSeries(h))
        assert laplacian_ratio_sup(m) == math.inf == concatenated_ratio_sup(m)


class TestLaplacianRatioSup:
    def test_analytic_positive_map(self):
        # K = 1: ratio = u/|f| <= 1
        assert laplacian_ratio_sup(analytic(1.0, 0.5)) <= 1.0 + 1e-12

    def test_constant_map_convention(self):
        assert laplacian_ratio_sup(analytic(2.0)) == 0.0

    def test_k03_map_bounded_by_K_squared(self):
        [m] = make_qr_map([(1.0, 0.5)], [(0.3,)])
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
        [m] = make_qr_map([(1.0, 0.5)], [(0.3,)])
        assert abs(disk_green_identity(m, 0.9, q)) < 1e-6

    def test_requires_nonvanishing(self, q):
        with pytest.raises(HypothesisViolation, match=r"min \|f\|"):
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
