import math

import numpy as np
import pytest

from hqz import (ComplexSeries, DomainError, HqzError, HypothesisViolation,
                 PlanarHarmonicMap,
                 QuadratureSpec, calderon_norms, calderon_ratio_estimate,
                 calderon_square, circle_mean_p, hardy_norm_estimate,
                 poisson_extend_circle, random_qr_map, random_series, strip_example)
from hqz import functionals
from hqz.functionals import zygmund_plus_report
from hqz.quadrature import STACK_CHUNK, gauss_legendre, refined_circle_mean
from hqz.series import circle_values

# frozen oracle values (dense midpoint Riemann sums, 2^22 nodes, plus the
# matching closed forms where one exists)
ZYGMUND_PLUS_2_PLUS_Z = 2.0 * math.log((2.0 + math.sqrt(3.0)) / 2.0) + 2.0 - math.sqrt(3.0)
ENTROPY_1_PLUS_HALF_Z = math.log((1.0 + math.sqrt(0.75)) / 2.0) + 0.5 * (2.0 - math.sqrt(3.0))
M1_1_PLUS_HALF_Z = 1.063544409973365


def analytic(*coeffs) -> PlanarHarmonicMap:
    return PlanarHarmonicMap(g=ComplexSeries(tuple(coeffs)),
                             h=ComplexSeries.zero())


def entropy_u(m: PlanarHarmonicMap, r: float, q: QuadratureSpec) -> float:
    """(1/2pi) int u log u dt of one map, read from circle_mean_p's samples."""
    [(_, value)], _, _ = circle_mean_p([m], r, q, entropy=True)
    return value


def riemann_circle_mean(f, n=2 ** 20) -> float:
    t = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    return float(np.mean(f(t)))


class TestCircleMeanP:
    def test_constant(self, q):
        assert circle_mean_p([analytic(1.0)], 0.5, q)[0][0] == pytest.approx(1.0, abs=1e-14)
        assert circle_mean_p([analytic(1.0)], 0.9, q)[0][0] == pytest.approx(1.0, abs=1e-14)

    def test_one_plus_z_against_riemann_oracle(self, q):
        oracle = riemann_circle_mean(lambda t: np.abs(1.0 + np.exp(1j * t)))
        value = circle_mean_p([analytic(1.0, 1.0)], 1.0, q)[0][0]
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(4.0 / math.pi, abs=1e-9)

    def test_report_fields(self, q):
        [value], [est_error], nodes = circle_mean_p([analytic(1.0, 1.0)], 0.5, q)
        assert value >= 0.0
        assert est_error <= q.abs_tol
        assert nodes >= 2 * q.circle_nodes

    def test_domain_checks(self, q):
        with pytest.raises(DomainError):
            circle_mean_p([analytic(1.0)], 0.0, q)

    def test_a_stack_of_no_maps_is_empty(self, q):
        for entropy in (False, True):
            assert circle_mean_p([], 1.0, q, entropy=entropy) == ([], [], 0)


class TestHardyNorm:
    def test_constant(self, q):
        assert hardy_norm_estimate(analytic(2.5), q)[0] == pytest.approx(
            2.5, abs=1e-13)

    def test_monomial(self, q):
        assert hardy_norm_estimate(analytic(0.0, 1.0), q)[0] == pytest.approx(
            1.0, abs=1e-12)

    def test_one_plus_z(self, q):
        assert hardy_norm_estimate(analytic(1.0, 1.0), q)[0] == pytest.approx(
            4.0 / math.pi, abs=1e-9)

    def test_means_nondecreasing_in_radius(self, q):
        # subharmonicity cross-check runs inside the estimator; also assert
        # directly on a dyadic radius sweep
        m = random_qr_map(2, 0.3)
        values = [circle_mean_p([m], r, q)[0][0]
                  for r in (0.25, 0.5, 0.75, 0.9, 1.0)]
        assert all(b >= a - 1e-11 for a, b in zip(values[:-1], values[1:]))

    def test_norm_dominates_f0(self, q):
        for seed in range(5):
            m = random_qr_map(seed, 0.3)
            norm = hardy_norm_estimate(m, q)[0]
            assert norm >= abs(m(0j)) - 1e-10


class TestStripNorm:
    """The strip bound: n/(n+1) + z/(n+1) has h^1 norm below 1, with gap
    below 2/(n+1)."""

    def test_n1_value(self, q):
        norm = hardy_norm_estimate(strip_example(1), q)[0]
        assert norm == pytest.approx(2.0 / math.pi, abs=1e-9)
        assert 1.0 - norm > 0.0

    def test_n32_gap(self, q):
        norm = hardy_norm_estimate(strip_example(32), q)[0]
        assert 0.0 < 1.0 - norm < 2.0 / 33.0

    def test_strictly_increasing_in_n(self, q):
        values = [hardy_norm_estimate(strip_example(n), q)[0] for n in range(1, 17)]
        assert all(b > a for a, b in zip(values[:-1], values[1:]))
        assert all(v < 1.0 for v in values)

    def test_unit_circle_mean_taken_once(self, q, monkeypatch):
        radii, real = [], functionals.circle_mean_p

        def spy(m, r, spec):
            radii.append(r)
            return real(m, r, spec)

        monkeypatch.setattr(functionals, "circle_mean_p", spy)
        norm, err, _ = hardy_norm_estimate(strip_example(5), q)
        assert radii.count(1.0) == 1
        [value], [est_error], _ = real([strip_example(5)], 1.0, q)
        assert (norm, err) == (value, est_error)


class TestZygmundPlus:
    def test_small_constant_vanishes(self, q):
        assert zygmund_plus_report(analytic(0.5), 1.0, q)[0] == 0.0

    def test_constant_e(self, q):
        assert zygmund_plus_report(analytic(math.e), 0.7, q)[0] == pytest.approx(math.e, abs=1e-12)

    def test_two_plus_z_closed_form(self, q):
        val = zygmund_plus_report(analytic(2.0, 1.0), 1.0, q)[0]
        assert val == pytest.approx(ZYGMUND_PLUS_2_PLUS_Z, abs=1e-9)

    def test_two_plus_z_riemann_oracle(self, q):
        def w(t):
            u = np.abs(2.0 + np.cos(t))
            out = np.zeros_like(u)
            mask = u > 1.0
            out[mask] = u[mask] * np.log(u[mask])
            return out
        assert zygmund_plus_report(analytic(2.0, 1.0), 1.0, q)[0] == pytest.approx(
            riemann_circle_mean(w), abs=1e-9)

    def test_infinite_coefficient_rejected(self, q):
        """The map constructor refuses it, before zygmund_plus runs."""
        with pytest.raises(DomainError):
            zygmund_plus_report(analytic(0.5, math.inf), 1.0, q)

    def test_overflowing_bound_on_u_second_derivative_rejected(self, q, monkeypatch):
        # every coefficient is finite, but B2 = sum j^2 |F_j| overflows, so the
        # guard would accept no interval and double their count until memory
        # ran out: it must not be reached
        monkeypatch.setattr(functionals, "_guarded_intervals", None)
        m = analytic(2.0, *[0.0] * 63, 1e306)
        with pytest.raises(DomainError, match="finite bound on u''"), np.errstate(over="ignore"):
            zygmund_plus_report(m, 1.0, q)

    def test_nonnegative_on_corpus(self, q_fast):
        for seed in range(10):
            assert zygmund_plus_report(random_qr_map(seed, 0.5), 1.0, q_fast)[0] >= 0.0


class TestEntropy:
    def test_constant_one(self, q):
        assert entropy_u(analytic(1.0), 1.0, q) == 0.0

    def test_constant_e(self, q):
        assert entropy_u(analytic(math.e), 1.0, q) == pytest.approx(math.e, abs=1e-12)

    def test_one_plus_half_z_closed_form(self, q):
        val = entropy_u(analytic(1.0, 0.5), 1.0, q)
        assert val == pytest.approx(ENTROPY_1_PLUS_HALF_Z, abs=1e-10)
        # leading order b^2/4 with b = 1/2
        assert val == pytest.approx(0.0625, abs=0.003)

    def test_requires_positive_u(self, q):
        with pytest.raises(HypothesisViolation, match="min u"):
            entropy_u(analytic(0.5, 1.0), 1.0, q)

    def test_jensen_lower_bound(self, q_fast):
        # x log x convex and mean of u over the circle equals u(0)
        for seed in range(8):
            m = random_qr_map(seed, 0.3)
            u0 = float(m(0j).real)
            assert entropy_u(m, 1.0, q_fast) >= u0 * math.log(u0) - 1e-9


class TestPoisson:
    def test_kernel_mass(self, q):
        for x in (0.0, 0.3, 0.5j, -0.6 + 0.4j, 0.9):
            val = poisson_extend_circle(lambda t: np.ones_like(t), complex(x), q)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_cos_extension(self, q):
        val = poisson_extend_circle(np.cos, 0.3, q)
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_cos2t_gives_r_squared(self, q):
        for r in (0.2, 0.5, 0.8):
            val = poisson_extend_circle(lambda t: np.cos(2 * t), r, q)
            assert val == pytest.approx(r * r, abs=1e-8)

    def test_harmonic_polynomial_reproduction(self, q, rng):
        # invariant: degree <= 8 harmonic polynomials at 100 interior points
        pts = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 100)) * \
            np.exp(1j * rng.uniform(0.0, 2 * np.pi, 100))
        for j in (1, 3, 5, 8):
            for part in (np.real, np.imag):
                def boundary(t, j=j, part=part):
                    return part(np.exp(1j * j * t))
                for x in pts:
                    want = float(part(x ** j))
                    got = poisson_extend_circle(boundary, complex(x), q)
                    assert got == pytest.approx(want, abs=1e-8)

    def test_blowup_guard(self, q):
        with pytest.raises(DomainError, match="below floor"):
            poisson_extend_circle(np.cos, 0.999, q)


class TestCalderonSquare:
    def test_linear(self):
        assert calderon_square(ComplexSeries((0.0, 2.0)), 0.5j) == pytest.approx(
            2.0 / math.sqrt(2.0), rel=1e-14)

    def test_constant_is_zero(self):
        assert calderon_square(ComplexSeries((3.0,)), 0.3) == 0.0

    def test_z_squared_at_one(self):
        # exact value sqrt(1/3); rule is exact for the polynomial integrand
        got = calderon_square(ComplexSeries((0.0, 0.0, 1.0)), 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)

    def test_z_squared_riemann_oracle(self):
        rho = (np.arange(10 ** 6) + 0.5) / 10 ** 6
        oracle = math.sqrt(float(np.mean(4.0 * rho ** 2 * (1.0 - rho))))
        got = calderon_square(ComplexSeries((0.0, 0.0, 1.0)), 1.0)
        assert got == pytest.approx(oracle, abs=1e-11)


def per_radius_square_norm(H: ComplexSeries, q: QuadratureSpec) -> float:
    """||G[H]||_1 with G[H]^2 summed over max(16, d + 1) Gauss-Legendre radii,
    one circle of H' values each (the rule is exact for the integrand)."""
    Hp = H.derivative()
    rho, w = gauss_legendre(max(16, Hp.trimmed().degree + 1), 0.0, 1.0)

    def square_function(n, shift, rows):
        acc = np.zeros(n)
        for rho_i, w_i in zip(rho, w * (1.0 - rho)):
            vals = circle_values(Hp.coeffs, None, rho_i, n, shift)
            acc += w_i * (vals.real ** 2 + vals.imag ** 2)
        return np.sqrt(acc)

    return refined_circle_mean(square_function, q, context="reference")[0]


class TestCalderonNorms:
    @pytest.mark.parametrize("coeffs, exact", [((0.0, 1.0), math.sqrt(0.5)),
                                               ((0.0, 0.0, 1.0), math.sqrt(1.0 / 3.0)),
                                               ((0.0, 0.0, 0.0, 2j), math.sqrt(1.2))])
    def test_monomials(self, q, coeffs, exact):
        # G[a z^d]^2 = d^2 |a|^2 / ((2d - 1) 2d) on the whole circle
        H = ComplexSeries(coeffs)
        [(_, norm_GH)] = calderon_norms([H], q)
        assert norm_GH == pytest.approx(exact, rel=1e-14)
        assert norm_GH == pytest.approx(per_radius_square_norm(H, q), rel=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 3, 8, 16, 40])
    def test_closed_form_matches_per_radius_sum(self, q, degree):
        corpus = [random_series(seed, degree) for seed in range(30)]
        for H, (_, norm_GH) in zip(corpus, calderon_norms(corpus, q)):
            assert norm_GH == pytest.approx(per_radius_square_norm(H, q), rel=1e-14)

    def test_trailing_zero_coefficients(self, q):
        H = random_series(7, 5)
        padded = ComplexSeries(np.concatenate((H.coeffs, np.zeros(6))))
        norms_padded, norms = calderon_norms([padded, H], q)
        assert norms_padded == pytest.approx(norms, rel=1e-15)

    def test_zero_series_rejected(self, q):
        for coeffs in ((0.0,), (0.0, 0.0, 0.0)):
            with pytest.raises(DomainError):
                calderon_norms([ComplexSeries(coeffs)], q)

    def test_empty_corpus_has_no_norms(self, q):
        assert calderon_norms([], q) == []

    def test_non_finite_series_rejected_before_refining(self, q, monkeypatch):
        calls = []
        real = functionals.refined_circle_mean
        monkeypatch.setattr(functionals, "refined_circle_mean",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        corpus = [ComplexSeries((0.0, 1.0)), ComplexSeries((0.0, math.nan, 1.0)),
                  random_series(0, 16)]
        with pytest.raises(DomainError, match="finite coefficients"):
            calderon_norms(corpus, q)
        assert len(calls) == 2  # z's two norms, on the rerun one series at a time


def per_series_square_function_series(H: ComplexSeries) -> ComplexSeries:
    """G[H]^2's coefficients c_m, m >= 0, of one series, by d traces of one
    d x d array: the code the stacked estimator replaced."""
    j = np.arange(1, len(H.coeffs))
    b = j * H.coeffs[1:]
    s = j[:, None] + j[None, :]
    terms = np.outer(b, np.conjugate(b)) / ((s - 1) * s)  # row j, column k
    return ComplexSeries([np.trace(terms, -m) for m in range(len(j))] or [0j])


def per_series_calderon_norms(H: ComplexSeries, q: QuadratureSpec) -> tuple[float, float, int]:
    """(||H||_1, ||G[H]||_1) of one series as the estimator computed them one
    series at a time, and the nodes at which ||H||_1 settled."""
    if H.coeffs[0] != 0:
        raise DomainError("the series must satisfy H(0) = 0")
    C = per_series_square_function_series(H).coeffs
    C_neg = np.concatenate(([0j], C[1:]))  # c_0 is in C already

    def square_function(n, shift, rows):
        return np.sqrt(np.maximum(circle_values(C, C_neg, 1.0, n, shift).real, 0.0))

    norm_H, _, nodes = refined_circle_mean(
        lambda n, shift, rows: np.abs(circle_values(H.coeffs, None, 1.0, n, shift)), q,
        context="||H||_1")
    norm_GH, _, _ = refined_circle_mean(square_function, q, context="||G[H]||_1")
    if norm_H == 0.0 or norm_GH == 0.0:
        raise DomainError("the zero series has no norm ratio")
    return norm_H, norm_GH, nodes


def per_series_error(corpus, q) -> HqzError:
    """The error that the per-series loop over ``corpus`` raises."""
    with pytest.raises(HqzError) as exc:
        for H in corpus:
            per_series_calderon_norms(H, q)
    return exc.value


def stack_corpus() -> list[ComplexSeries]:
    """z, random series of degrees 1, 2, 16 and 40, one padded with trailing
    zeros, and degree-16 seeds 0..65, whose ||H||_1 settles at every level
    from 2^10 to 2^16 nodes from 512: 86 series, two stacks."""
    corpus = [ComplexSeries((0j, 1.0 + 0j))]
    corpus += [random_series(seed, degree) for degree in (1, 2, 40) for seed in range(6)]
    corpus.append(ComplexSeries(np.concatenate((random_series(3, 9).coeffs, np.zeros(7)))))
    corpus += [random_series(seed, 16) for seed in range(66)]
    return corpus


class TestCalderonStack:
    @pytest.mark.parametrize("circle_nodes", [512, 64])
    def test_each_norm_is_the_per_series_bits(self, circle_nodes):
        q = QuadratureSpec(circle_nodes=circle_nodes)
        corpus = stack_corpus()
        assert len(corpus) > STACK_CHUNK
        want = [per_series_calderon_norms(H, q) for H in corpus]
        if circle_nodes == 512:
            assert {nodes for _, _, nodes in want} >= {2 ** p for p in range(10, 17)}
        assert calderon_norms(corpus, q) == [(nh, ng) for nh, ng, _ in want]

    @pytest.mark.parametrize("corpus, q", [
        # H(0) != 0 at the third member, in the first stack and in the second
        ([random_series(0, 16), random_series(1, 16), ComplexSeries((1.0, 1.0)),
          random_series(2, 16)], QuadratureSpec()),
        ([random_series(seed, 4) for seed in range(STACK_CHUNK + 2)]
         + [ComplexSeries((0.5, 1.0))], QuadratureSpec()),
        ([random_series(0, 16), ComplexSeries((0j, 0j, 0j)), random_series(1, 16)],
         QuadratureSpec()),
        # seed 1 stops short of its level, before a later member with H(0) != 0
        ([random_series(35, 16), random_series(1, 16), ComplexSeries((1.0, 1.0))],
         QuadratureSpec(circle_nodes=64, refinement_limit=4))],
        ids=["H(0) third", "H(0) second stack", "zero series", "no convergence first"])
    def test_an_error_is_the_per_series_error(self, corpus, q):
        want = per_series_error(corpus, q)
        with pytest.raises(type(want)) as exc:
            calderon_norms(corpus, q)
        assert str(exc.value) == str(want)


class TestCalderonRatio:
    def test_singleton_z(self, q):
        c1, c2 = calderon_ratio_estimate([ComplexSeries((0.0, 1.0))], q)
        assert c1 == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert c2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)

    def test_pair_takes_componentwise_max(self, q):
        z = ComplexSeries((0.0, 1.0))
        z2 = ComplexSeries((0.0, 0.0, 1.0))
        c1_z, c2_z = calderon_ratio_estimate([z], q)
        c1_z2, c2_z2 = calderon_ratio_estimate([z2], q)
        c1, c2 = calderon_ratio_estimate([z, z2], q)
        assert c1 == pytest.approx(max(c1_z, c1_z2), abs=1e-12)
        assert c2 == pytest.approx(max(c2_z, c2_z2), abs=1e-12)

    def test_empty_corpus(self, q):
        with pytest.raises(DomainError, match="nonempty corpus"):
            calderon_ratio_estimate([], q)

    def test_nonzero_constant_rejected(self, q):
        with pytest.raises(DomainError):
            calderon_ratio_estimate([ComplexSeries((1.0, 1.0))], q)

    def test_a_nan_ratio_propagates(self, q, monkeypatch):
        import hqz.functionals as functionals
        real = functionals.calderon_norms
        monkeypatch.setattr(functionals, "calderon_norms", lambda corpus, q: [
            (math.nan, 1.0) if H.degree == 2 else norms
            for H, norms in zip(corpus, real(corpus, q))])
        c1, c2 = calderon_ratio_estimate(
            [ComplexSeries((0.0, 1.0)), ComplexSeries((0.0, 0.0, 1.0))], q)
        assert math.isnan(c1) and math.isnan(c2)


def test_frozen_m1_value(q):
    assert circle_mean_p([analytic(1.0, 0.5)], 1.0, q)[0][0] == pytest.approx(
        M1_1_PLUS_HALF_Z, abs=1e-10)
