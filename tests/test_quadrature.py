"""The doubling driver against a from-scratch doubling rule on Horner values."""

import numpy as np
import pytest

from hqz import (ComplexSeries, NoConvergence, NonpositiveRealPart,
                 PlanarHarmonicMap, QuadratureSpec, calderon_norms,
                 circle_mean_p, entropy_u, random_qr_map, random_series)
from hqz.functionals import entropy_u_report, zygmund_plus_report
from hqz.quadrature import circle_angles, refined_circle_mean


def scratch_rule(integrand, q, transform=float):
    """Every level re-evaluated at all of its nodes; returns (value, nodes)."""
    n = q.circle_nodes
    prev = transform(float(np.mean(integrand(circle_angles(n)))))
    for _ in range(q.refinement_limit):
        n *= 2
        cur = transform(float(np.mean(integrand(circle_angles(n)))))
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


def test_zygmund_plus_pinned_crossing_map(q):
    # |Re f| crosses 1 on the circle, so the rule refines to 2^17 nodes
    m = random_qr_map(2, 0.3, 16)
    value, err, nodes = zygmund_plus_report(m, 1.0, q)
    ref, ref_nodes = scratch_rule(lambda t: log_plus(np.abs(horner_f(m)(t).real)), q)
    assert nodes == ref_nodes == 131072
    assert abs(value - ref) <= 1e-14
    assert abs(value - 0.15194974718208615) <= 1e-14
    assert err <= q.abs_tol


@pytest.mark.parametrize("seed", [0, 5])
def test_entropy_matches_scratch_rule(q, seed):
    m = random_qr_map(seed, 0.3, 16)
    value, _, nodes = entropy_u_report(m, 0.9, q)
    u = lambda t: horner_f(m, 0.9)(t).real
    ref, ref_nodes = scratch_rule(lambda t: u(t) * np.log(u(t)), q)
    assert nodes == ref_nodes
    assert abs(value - ref) <= 1e-14


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_circle_mean_p_transform_matches_scratch_rule(q, p):
    # the rule runs to 4096 nodes for p = 1 and to 1024 for p = 3
    m = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)), h=random_qr_map(1, 0.3, 16).h)
    rep = circle_mean_p(m, 1.0, p, q)
    ref, ref_nodes = scratch_rule(lambda t: np.abs(horner_f(m)(t)) ** p, q,
                                  transform=lambda mean: mean ** (1.0 / p))
    assert rep.nodes == ref_nodes
    assert abs(rep.value - ref) <= 1e-14


@pytest.mark.parametrize("seed", [0, 3, 24])
def test_series_norm_matches_scratch_rule(q, seed):
    H = random_series(seed, 16)
    norm_H, _ = calderon_norms(H, q)
    ref, _ = scratch_rule(lambda t: np.abs(H(np.exp(1j * t))), q)
    assert abs(norm_H - ref) <= 1e-14 * max(1.0, ref)


def test_driver_levels_and_half_step_angles():
    q = QuadratureSpec(circle_nodes=8, refinement_limit=5, abs_tol=1e-12)
    seen = []

    def sample(n, shift):
        theta = circle_angles(n, shift)
        seen.append(theta)
        return np.cos(theta) ** 2

    value, err, nodes, levels = refined_circle_mean(sample, q)
    assert (nodes, levels) == (16, 1)
    assert value == pytest.approx(0.5, abs=1e-15)
    # the odd half of the 16-point grid, nothing evaluated twice
    np.testing.assert_allclose(np.sort(np.concatenate(seen)), circle_angles(16),
                               rtol=0, atol=1e-15)


def test_driver_no_convergence_message():
    q = QuadratureSpec(circle_nodes=16, refinement_limit=2, abs_tol=1e-30)
    with pytest.raises(NoConvergence, match=r"^corner: 64 nodes, last change .* > abs_tol"):
        refined_circle_mean(lambda n, s: np.abs(np.sin(circle_angles(n, s))), q,
                            context="corner")


def test_entropy_rejects_nonpositive_u_at_odd_node_only():
    # u = 1 + 1.01 cos(8t): 2.01 on the 8-point grid, -0.01 on its odd half
    g = ComplexSeries((1.0,) + (0.0,) * 7 + (1.01,))
    m = PlanarHarmonicMap(g=g, h=ComplexSeries.zero())
    q = QuadratureSpec(circle_nodes=8, refinement_limit=4)
    with pytest.raises(NonpositiveRealPart):
        entropy_u(m, 1.0, q)
