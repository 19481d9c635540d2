"""Acceptance gate: one test per criterion, run at the stated tolerance.

Each test prints a single `ACCEPTANCE <id>: PASS` line (visible with -s;
the test name itself carries the verdict in -v output) and enforces the
criterion's runtime budget on top of its numerical thresholds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from hqz import (AffineBallMap, ComplexSeries, PlanarHarmonicMap,
                 QuadratureSpec, X_of, Y_of, audit_laplacians, axial_mean,
                 ball_green_calibration, ball_green_identity_n3,
                 calderon_ratio_estimate, dilatation_sup, disk_green_identity,
                 hardy_norm_estimate, laplacian_ratio_sup, phi_of_m,
                 phi_scan_argmax, poisson_extend_circle, random_qr_map,
                 random_series, ratio_limit_scan, strip_example, verify_T1,
                 verify_T2)

Q = QuadratureSpec()
# corpus tolerance 1e-9: three decades below the -1e-9 margin threshold's
# noise allowance while keeping 800 verifications inside the time budget
Q_CORPUS = QuadratureSpec(circle_nodes=256, radial_nodes=24,
                          refinement_limit=10, abs_tol=1e-9)

FUZZ_SEEDS = 200
FUZZ_KS = (0.0, 0.1, 0.3, 0.5)


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {seconds:.0f}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s runtime budget"


def corpus_maps():
    for k in FUZZ_KS:
        for seed in range(FUZZ_SEEDS):
            yield seed, k, random_qr_map(seed, k, 16)


def test_criterion_01_sharpness_X_equals_one_third():
    with budget("1 (X = 1/3 for the 3d family)", 1.0):
        for m in (2.0, 5.0, 10.0):
            fam = AffineBallMap(n=3, c=m * m, a=m)
            assert abs(X_of(fam, Q) - 1.0 / 3.0) < 1e-8


def test_criterion_02_phi_limit_and_cross_check():
    with budget("2 (phi limit and phi = 2Y)", 1.0):
        assert abs(phi_of_m(100.0) - 1.0 / 3.0) < 1e-3
        gaps = [abs(phi_of_m(m) - 1.0 / 3.0) for m in (10.0, 20.0, 50.0, 100.0)]
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
        for m in (2.0, 10.0, 50.0, 100.0):
            fam = AffineBallMap(n=3, c=m * m, a=m)
            assert abs(phi_of_m(m) - 2.0 * Y_of(fam, Q)) < 1e-7


def test_criterion_03_ratio_limit():
    with budget("3 (X/Y -> n-1)", 5.0):
        for n in range(2, 9):
            rows = ratio_limit_scan(n, (0.2, 0.1, 0.05, 0.01), Q)
            devs = [r.deviation for r in rows]
            assert devs[-1] < 0.05
            assert all(b < a for a, b in zip(devs[:-1], devs[1:]))


def test_criterion_04_strip_corollary():
    with budget("4 (strip bound)", 2.0):
        values = [hardy_norm_estimate(strip_example(n), Q)[0]
                  for n in range(1, 65)]
        assert all(v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values[:-1], values[1:]))
        assert 1.0 - values[31] < 2.0 / 33.0
        # brute-force midpoint Riemann oracle for n = 1
        t = (np.arange(2 ** 20) + 0.5) * 2.0 * np.pi / 2 ** 20
        oracle = float(np.mean(np.abs(0.5 + 0.5 * np.exp(1j * t))))
        assert abs(values[0] - oracle) < 1e-9
        assert abs(values[0] - 2.0 / math.pi) < 1e-9


def test_criterion_05_T2_never_violated():
    with budget("5 (sharp planar bound on the fuzz corpus)", 60.0):
        worst = math.inf
        for seed, k, m in corpus_maps():
            # at K(k_lower), the smallest K the certificate allows
            rep = verify_T2(m, 1.0, Q_CORPUS, K=dilatation_sup(m, Q_CORPUS).K_hat)
            worst = min(worst, rep.margin)
            assert rep.margin >= -1e-9, f"margin {rep.margin} at seed={seed}, k={k}"
        # degenerate instance: K = 1, u == 1 sits exactly at the maximizer
        const = PlanarHarmonicMap(g=ComplexSeries.constant(1.0),
                                  h=ComplexSeries.zero())
        rep = verify_T2(const, 1.0, Q, K=1.0)
        assert rep.margin == 0.0
        print(f"    worst corpus margin: {worst:.3e}")


def test_criterion_06_laplacian_ratio_audit():
    with budget("6 (Laplacian closed forms vs finite differences)", 60.0):
        radii = (0.25, 0.55, 0.8)
        angles = 2.0 * np.pi * np.arange(5) / 5
        pts = np.concatenate([r * np.exp(1j * angles) for r in radii])
        worst_fd = 0.0
        worst_ratio_slack = math.inf
        for seed, k, m in corpus_maps():
            audit = audit_laplacians(m, pts, h=1e-4, floor=0.1)
            assert audit.max_rel_abs_f <= 1e-5, f"seed={seed}, k={k}"
            assert audit.max_rel_ulogu <= 1e-5, f"seed={seed}, k={k}"
            worst_fd = max(worst_fd, audit.max_rel_abs_f, audit.max_rel_ulogu)
            K_hat = dilatation_sup(m, Q_CORPUS).K_hat
            ratio = laplacian_ratio_sup(m)
            bound = K_hat ** 2 * (1.0 + 1e-9)
            assert ratio <= bound, f"seed={seed}, k={k}: {ratio} > {bound}"
            worst_ratio_slack = min(worst_ratio_slack, bound - ratio)
        print(f"    worst FD deviation {worst_fd:.2e}, "
              f"smallest ratio slack {worst_ratio_slack:.2e}")


def test_criterion_07_green_identities():
    with budget("7 (Green identities)", 30.0):
        two_plus_z = PlanarHarmonicMap(g=ComplexSeries((2.0, 1.0)),
                                       h=ComplexSeries.zero())
        assert abs(disk_green_identity(two_plus_z, 0.9, Q)) < 1e-6
        fuzz = random_qr_map(7, 0.3, 16)
        assert abs(disk_green_identity(fuzz, 0.9, Q)) < 1e-6
        assert abs(ball_green_calibration(Q)) < 1e-10
        fam = AffineBallMap(n=3, c=4.0, a=2.0)
        assert abs(ball_green_identity_n3(fam, Q)) < 1e-4


def test_criterion_08_kernel_sanity():
    with budget("8 (kernel sanity)", 5.0):
        for x in (0.0, 0.3, -0.5j, 0.6 - 0.3j, 0.9, 0.9j):
            mass = poisson_extend_circle(lambda t: np.ones_like(t), complex(x), Q)
            assert abs(mass - 1.0) < 1e-10
        rng = np.random.default_rng(5)
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 25)) * \
            np.exp(1j * rng.uniform(0, 2 * np.pi, 25))
        for j in range(1, 9):
            for part in (np.real, np.imag):
                def boundary(t, j=j, part=part):
                    return part(np.exp(1j * j * t))
                for x in pts:
                    want = float(part(x ** j))
                    got = poisson_extend_circle(boundary, complex(x), Q)
                    assert abs(got - want) < 1e-8
        for n in range(2, 9):
            total = axial_mean(n, lambda t: np.ones_like(t), Q)
            assert abs(total - 1.0) < 1e-10


def test_criterion_09_phi_scan():
    with budget("9 (entropy maximizer scan)", 1.0):
        for lam in (1.0, 2.0, 4.0, 9.0):
            assert abs(phi_scan_argmax(lam) - math.exp(-1.0 + 1.0 / lam)) < 1e-6


def test_criterion_10_T1_property_based():
    with budget("10 (square-function estimate feeds the non-sharp bound)", 60.0):
        corpus = [ComplexSeries((0j, 1.0 + 0j))]
        corpus += [random_series(seed, 16, zero_constant=True)
                   for seed in range(100)]
        q10 = QuadratureSpec(circle_nodes=512, radial_nodes=32,
                             refinement_limit=12, abs_tol=1e-9)
        c1_lb, c2_lb = calderon_ratio_estimate(corpus, q10)
        assert math.isfinite(c1_lb) and math.isfinite(c2_lb)
        assert c1_lb >= math.sqrt(2.0) - 1e-9
        assert c2_lb >= 1.0 / math.sqrt(2.0) - 1e-9
        c1c2 = c1_lb * c2_lb
        for seed in range(20):
            m = random_qr_map(seed, 0.3, 16)
            rep = verify_T1(m, 1.0, c1c2, q10)
            assert rep.margin >= -rep.quad_error
        print(f"    c1 >= {c1_lb:.4f}, c2 >= {c2_lb:.4f}, product {c1c2:.4f}")
