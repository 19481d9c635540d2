"""The doubling driver against from-scratch doubling rules: the circle
rule on Horner values, and the hand-written Gauss-Legendre loops that the
sphere and 3-ball volume rules ran before they shared the driver.  The
Gauss rule of the weight -s log s against its exact moments and an
independent construction, and the disk area rule against the dyadic panel
rule it replaced."""

import math

import numpy as np
import pytest

from hqz import (AffineBallMap, C_n, ComplexSeries, HypothesisViolation,
                 NoConvergence, PlanarHarmonicMap, QuadratureSpec,
                 axial_mean, ball_green_calibration, ball_green_identity_n3,
                 calderon_norms, circle_mean_p, random_qr_map,
                 random_series)
from hqz.ball import _ball3_volume_weighted
from hqz.functionals import zygmund_plus_report
from hqz.laplacian import _lap_abs_f, disk_area_log_mean
from hqz.quadrature import (circle_angles, dyadic_panels, gauss_legendre,
                            log_weight_gauss, refine, refined_circle_mean)
from hqz.series import circle_values


def scratch_rule(integrand, q):
    """Every level re-evaluated at all of its nodes; returns (value, nodes)."""
    n = q.circle_nodes
    prev = float(np.mean(integrand(circle_angles(n))))
    for _ in range(q.refinement_limit):
        n *= 2
        cur = float(np.mean(integrand(circle_angles(n))))
        if abs(cur - prev) <= q.abs_tol:
            return cur, n
        prev = cur
    raise AssertionError("reference rule did not converge")


def horner_f(m, r=1.0):
    def f(theta):
        z = r * np.exp(1j * theta)
        return m.g(z) + np.conjugate(m.h(z))
    return f


def log_plus(x):
    return np.where(x > 1.0, x * np.log(np.maximum(x, 1.0)), 0.0)


def zygmund_reference(m):
    """(1/2pi) int |u| log+ |u| dt on the unit circle, u = Re (g + h).

    With z = e^it, 2u = sum_j F_j z^j + conj(F_j) z^-j, so z^d (2u - 2c)
    is a polynomial of degree 2d whose roots on the unit circle (companion
    matrix, ``np.roots``) are the crossings of u = c.  Each arc where
    |u| > 1 is cut into panels of width at most 2 pi / 32, each summed by
    64-node Gauss-Legendre; without a crossing, |u| log+ |u| is smooth and
    4096 midpoints suffice.
    """
    F = (m.g + m.h).coeffs
    d = F.size - 1

    def u(t):
        return np.polynomial.polynomial.polyval(np.exp(1j * t), F).real

    crossings = []
    for c in (1.0, -1.0):
        p = np.zeros(2 * d + 1, dtype=complex)
        p[d:] += F
        p[d::-1] += np.conjugate(F)
        p[d] -= 2.0 * c
        z = np.roots(p[::-1])
        crossings.extend(np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-8]) % (2.0 * math.pi))
    if not crossings:
        return float(np.mean(log_plus(np.abs(u(circle_angles(4096, True))))))
    starts = np.sort(crossings)
    total = []
    for a, b in zip(starts, np.append(starts[1:], starts[0] + 2.0 * math.pi)):
        if abs(u(np.array([0.5 * (a + b)]))[0]) <= 1.0:
            continue
        cuts = np.linspace(a, b, math.ceil((b - a) * 32 / (2.0 * math.pi)) + 1)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            t, w = gauss_legendre(64, lo, hi)
            v = np.abs(u(t))
            total.extend((w * v * np.log(v)).tolist())
    return math.fsum(total) / (2.0 * math.pi)


def test_zygmund_plus_pinned_crossing_map(q):
    # |Re f| crosses 1 on the circle; a doubling trapezoid rule stops at
    # 2^17 nodes 5.3e-11 off, the crossing rule needs a few thousand
    m = random_qr_map(2, 0.3, 16)
    value, err, nodes = zygmund_plus_report(m, 1.0, q)
    assert abs(value - zygmund_reference(m)) <= 1e-14
    assert err <= q.abs_tol
    assert nodes <= 4096


def test_zygmund_plus_error_estimate_covers_the_reference(q):
    missed = []
    for seed in range(40):
        m = random_qr_map(seed, 0.3, 16)
        value, err, nodes = zygmund_plus_report(m, 1.0, q)
        if abs(value - zygmund_reference(m)) > err + 1e-15 or nodes > 4096:
            missed.append((seed, value, zygmund_reference(m), err, nodes))
    assert missed == []


def test_zygmund_plus_brackets_a_crossing_pair_between_two_nodes(q):
    # u = 0.501 + 0.5 cos(16 t - pi/32) peaks at 1.001 midway between the
    # nodes 2 pi k / 512, and is below 1 at every node: only the guard on
    # u'' can see the 32 crossings
    g = ComplexSeries((0.501,) + (0.0,) * 15 + (0.5 * np.exp(-1j * math.pi / 32),))
    m = PlanarHarmonicMap(g=g, h=ComplexSeries.zero())
    assert np.abs(horner_f(m)(circle_angles(512)).real).max() < 1.0
    value, err, nodes = zygmund_plus_report(m, 1.0, q)
    ref = zygmund_reference(m)
    assert ref > 1e-6
    assert abs(value - ref) <= err + 1e-15
    assert err <= q.abs_tol


@pytest.mark.parametrize("seed", [0, 5])
def test_entropy_matches_scratch_rule(q, seed):
    m = random_qr_map(seed, 0.3, 16)
    # M_1 and the entropy come from one sampling of f, which runs until
    # both means settle
    [(m1, value)], _, nodes = circle_mean_p([m], 0.9, q, entropy=True)
    u = lambda t: horner_f(m, 0.9)(t).real
    ref, ref_nodes = scratch_rule(lambda t: u(t) * np.log(u(t)), q)
    ref_m1, m1_nodes = scratch_rule(lambda t: np.abs(horner_f(m, 0.9)(t)), q)
    assert nodes == max(ref_nodes, m1_nodes)
    assert abs(value - ref) <= 1e-14
    assert abs(m1 - ref_m1) <= 1e-14


def test_circle_mean_p_matches_scratch_rule(q):
    # the rule runs to 4096 nodes
    m = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)), h=random_qr_map(1, 0.3, 16).h)
    [value], _, nodes = circle_mean_p([m], 1.0, q)
    ref, ref_nodes = scratch_rule(lambda t: np.abs(horner_f(m)(t)), q)
    assert nodes == ref_nodes
    assert abs(value - ref) <= 1e-14


@pytest.mark.parametrize("seed", [0, 3, 24])
def test_series_norm_matches_scratch_rule(q, seed):
    H = random_series(seed, 16)
    [(norm_H, _)] = calderon_norms([H], q)
    ref, _ = scratch_rule(lambda t: np.abs(H(np.exp(1j * t))), q)
    assert abs(norm_H - ref) <= 1e-14 * max(1.0, ref)


def test_driver_levels_and_half_step_angles():
    q = QuadratureSpec(circle_nodes=8, refinement_limit=5, abs_tol=1e-12)
    seen = []

    def sample(n, shift, rows):
        theta = circle_angles(n, shift)
        seen.append(theta)
        return np.cos(theta) ** 2

    value, err, nodes = refined_circle_mean(sample, q)
    assert nodes == 16
    assert value == pytest.approx(0.5, abs=1e-15)
    # the odd half of the 16-point grid, nothing evaluated twice
    np.testing.assert_allclose(np.sort(np.concatenate(seen)), circle_angles(16),
                               rtol=0, atol=1e-15)


def test_driver_no_convergence_message():
    q = QuadratureSpec(circle_nodes=16, refinement_limit=2, abs_tol=1e-30)
    with pytest.raises(NoConvergence, match=r"^corner: 64 nodes, last change .* > abs_tol"):
        refined_circle_mean(lambda n, s, rows: np.abs(np.sin(circle_angles(n, s))), q,
                            context="corner")


def test_entropy_rejects_nonpositive_u_at_odd_node_only():
    # u = 1 + 1.01 cos(8t): 2.01 on the 8-point grid, -0.01 on its odd half
    g = ComplexSeries((1.0,) + (0.0,) * 7 + (1.01,))
    m = PlanarHarmonicMap(g=g, h=ComplexSeries.zero())
    q = QuadratureSpec(circle_nodes=8, refinement_limit=4)
    with pytest.raises(HypothesisViolation, match="min u"):
        circle_mean_p([m], 1.0, q, entropy=True)


def test_refine_doubles_from_n0_and_reports_the_last_change():
    seen = []

    def level(n, _):
        seen.append(n)
        return 1.0 / n

    # changes 1/6, 1/12, 1/24, then 1/48 <= 0.03
    got = refine(level, 3, QuadratureSpec(refinement_limit=5, abs_tol=0.03), "probe")
    assert got == (1.0 / 48, 1.0 / 48, 48)
    assert seen == [3, 6, 12, 24, 48]


def test_refine_no_convergence_message():
    with pytest.raises(NoConvergence) as exc:
        refine(lambda n, _: 1.0 / n, 4, QuadratureSpec(refinement_limit=2, abs_tol=1e-30), "probe")
    assert str(exc.value) == "probe: 16 nodes, last change 6.250e-02 > abs_tol 1.000e-30"


# -- the Gauss-Legendre doubling loops as they were before ``refine`` --------

def loop_axial_mean(n, profile, q):
    def level(nodes):
        t, w = gauss_legendre(nodes, 0.0, math.pi)
        return C_n(n) * math.fsum((w * np.sin(t) ** (n - 2) * profile(t)).tolist())

    nodes = max(32, q.radial_nodes)
    prev = level(nodes)
    for _ in range(q.refinement_limit):
        nodes *= 2
        cur = level(nodes)
        if abs(cur - prev) <= q.abs_tol:
            return cur
        prev = cur
    raise AssertionError("reference loop did not converge")


def loop_ball3_volume(lap, q):
    def level(nodes):
        rho, wr = gauss_legendre(nodes, 0.0, 1.0)
        t, wt = gauss_legendre(nodes, 0.0, math.pi)
        rr, tt = np.meshgrid(rho, t, indexing="ij")
        ww = np.outer(wr, wt)
        vals = lap(rr, tt) * (rr - rr ** 2) * np.sin(tt)
        return 0.5 * float(math.fsum((ww * vals).ravel().tolist()))

    nodes = max(24, q.radial_nodes)
    prev = level(nodes)
    for _ in range(q.refinement_limit):
        nodes *= 2
        cur = level(nodes)
        if abs(cur - prev) <= q.abs_tol:
            return cur
        prev = cur
    raise AssertionError("reference loop did not converge")


def loop_disk_area(rows, r, q):
    """The area rule that the log-weight Gauss rule replaced: n_rad
    Gauss-Legendre nodes on each of 19 dyadic panels down to 2^-18, 8 radii
    per ``rows`` call, doubled with the angles; (value, last change)."""
    def level(n_rad, n_ang):
        total = 0.0
        for a, b in dyadic_panels(18):
            s, w = gauss_legendre(n_rad, a, b)
            weights = -w * s * np.log(s)
            for i in range(0, n_rad, 8):
                block = slice(i, i + 8)
                total += float(np.dot(weights[block], rows(r * s[block], n_ang).mean(axis=1)))
        return r * r * total

    n_rad, n_ang = max(8, q.radial_nodes // 4), max(64, q.circle_nodes // 2)
    prev = level(n_rad, n_ang)
    for _ in range(q.refinement_limit):
        n_rad *= 2
        n_ang *= 2
        cur = level(n_rad, n_ang)
        err = abs(cur - prev)
        if err <= max(q.abs_tol, 1e-12):
            return cur, err
        prev = cur
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_axial_mean_equals_the_loop(q, n):
    profile = lambda t: np.cos(t) ** 2
    assert axial_mean(n, profile, q) == loop_axial_mean(n, profile, q)


def test_ball_identities_equal_the_loops(q):
    ones = lambda t: np.ones_like(t)
    want = loop_axial_mean(3, ones, q) - loop_ball3_volume(lambda rr, tt: 6.0 * np.ones_like(rr), q)
    assert ball_green_calibration(q) == want

    c, a = 4.0, 2.0

    def x_profile(t):
        s = a * a + 2.0 * a * c * np.cos(t)
        return s / (np.sqrt(c * c + s) + c)

    def lap(rr, tt):
        return 2.0 * a * a / np.sqrt(c * c + a * a * rr ** 2 + 2.0 * a * c * rr * np.cos(tt))

    want = (loop_axial_mean(3, x_profile, q) + c) - (c + loop_ball3_volume(lap, q))
    assert ball_green_identity_n3(AffineBallMap(n=3, c=c, a=a), q) == want


def moment_errors(s, w):
    """|sum_i w_i s_i^k (k+2)^2 - 1| for k < 2n: the relative errors of an
    n-node rule on the moments 1/(k+2)^2 of -s log s on [0, 1]."""
    k = np.arange(2 * s.size)
    return np.abs((w * s ** k[:, None]).sum(axis=1) * (k + 2.0) ** 2 - 1.0)


def legendre_moments(weight, n):
    """int P_k(2s - 1) dlambda for k < 2n, from the closed forms of
    int P_k(2s - 1) (-log s) ds = 1, (-1)^k / (k (k+1)) and, by
    s P_k = ((k+1) P_(k+1) + k P_(k-1)) / (2 (2k+1)) + P_k / 2, of
    int P_k(2s - 1) (-s log s) ds = 1/4, -1/36, (-1)^(k+1) / ((k-1) k (k+1) (k+2))."""
    k = np.arange(2 * n, dtype=float)
    with np.errstate(divide="ignore"):
        if weight == "-log s":
            nu = (-1.0) ** k / (k * (k + 1))
            nu[0] = 1.0
        else:
            nu = -(-1.0) ** k / ((k - 1) * k * (k + 1) * (k + 2))
            nu[:2] = 0.25, -1.0 / 36.0
    return nu


def chebyshev_gauss(nu, n):
    """n-node Gauss rule from the moments ``nu`` of ``legendre_moments``:
    the modified Chebyshev algorithm against the monic shifted Legendre
    polynomials (s p_k = p_(k+1) + p_k / 2 + b_k p_(k-1)), then Golub-Welsch
    (Gautschi, Orthogonal Polynomials, 2004, 2.1.7).  It shares no step with
    ``log_weight_gauss`` but the final eigendecomposition."""
    k = np.arange(2 * n, dtype=float)
    b = k * k / (4.0 * (4.0 * k * k - 1.0))
    sigma = nu * np.cumprod(np.append(1.0, k[1:] / (4.0 * k[1:] - 2.0)))  # monic: k!^2 / (2k)!
    prev = np.zeros(2 * n)
    alpha, beta = np.empty(n), np.empty(n)
    alpha[0], beta[0] = 0.5 + sigma[1] / sigma[0], sigma[0]
    for j in range(1, n):
        l = np.arange(j, 2 * n - j)
        cur = np.zeros(2 * n)
        cur[l] = (sigma[l + 1] - (alpha[j - 1] - 0.5) * sigma[l] - beta[j - 1] * prev[l]
                  + b[l] * sigma[l - 1])
        alpha[j] = 0.5 + cur[j + 1] / cur[j] - sigma[j] / sigma[j - 1]
        beta[j] = cur[j] / sigma[j - 1]
        prev, sigma = sigma, cur
    x, v = np.linalg.eigh(np.diag(alpha) + np.diag(np.sqrt(beta[1:]), -1))
    return x, beta[0] * v[0] ** 2


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_log_weight_gauss_is_exact_through_degree_2n_minus_1(n):
    s, w = log_weight_gauss(n)
    assert s.shape == w.shape == (n,)
    assert ((0.0 < s) & (s < 1.0)).all() and (w > 0.0).all()
    assert moment_errors(s, w).max() <= 1e-13


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_log_weight_gauss_matches_the_modified_moment_rule(n):
    s, w = log_weight_gauss(n)
    s_ref, w_ref = chebyshev_gauss(legendre_moments("-s log s", n), n)
    assert moment_errors(s_ref, w_ref).max() <= 1e-13
    np.testing.assert_allclose(s, s_ref, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_the_moment_check_rejects_a_wrong_weight(n):
    s, w = log_weight_gauss(n)
    # the rule of -log s, and the right nodes with the factor s dropped
    # from the weights: both integrate 1 to about 1, not to 1/4
    s_log, w_log = chebyshev_gauss(legendre_moments("-log s", n), n)
    assert moment_errors(s_log, w_log).max() > 1.0
    assert moment_errors(s, w / s).max() > 1.0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [0.1, 0.3, 0.5])
def test_disk_area_agrees_with_the_panel_rule(q, seed, k):
    m = random_qr_map(seed, k)

    def rows(rho, n):  # the lap|f| rows of disk_green_identity
        f = circle_values(m.g.coeffs, m.h.coeffs, rho, n)
        return _lap_abs_f(f, np.abs(f), circle_values(m.g_prime.coeffs, None, rho, n),
                          circle_values(m.h_prime.coeffs, None, rho, n))

    value, err = disk_area_log_mean(rows, 0.9, q)
    want, _ = loop_disk_area(rows, 0.9, q)
    assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert err <= q.abs_tol


STARVED = QuadratureSpec(refinement_limit=1, abs_tol=1e-30)


@pytest.mark.parametrize("context, run", [
    ("axial mean", lambda: axial_mean(3, lambda t: np.abs(np.cos(t)), STARVED)),
    ("3-ball volume integral",
     lambda: _ball3_volume_weighted(lambda rr, tt: np.abs(np.cos(tt)), STARVED)),
    # |cos| of the angle has corners, so even the 1e-12 floor is not met
    ("disk area integral", lambda: disk_area_log_mean(
        lambda rho, n: np.tile(np.abs(np.cos(circle_angles(n))), (rho.size, 1)), 0.9, STARVED)),
])
def test_gauss_legendre_rules_report_no_convergence(context, run):
    with pytest.raises(NoConvergence, match=rf"^{context}: \d+ nodes, last change .* > abs_tol"):
        run()
