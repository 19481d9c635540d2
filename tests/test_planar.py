import cmath
import dataclasses
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqz import (DEGREE_CAP, ComplexSeries, DomainError, HqzError, HypothesisViolation,
                 PlanarHarmonicMap, dilatation_sup,
                 dilatation_upper, jacobian, make_qr_map, map_from_json, map_to_json,
                 random_qr_map, random_qr_maps, strip_example)
from hqz.planar import _omega_upper
from hqz.series import circle_values, horner
from hqz.theorems import CORPUS_DILATATION_GRID, fuzz_search, verify_T2

seeds = st.integers(min_value=0, max_value=10_000)

EPS = np.finfo(float).eps


def analytic(coeffs) -> PlanarHarmonicMap:
    return PlanarHarmonicMap(g=ComplexSeries(tuple(coeffs)),
                             h=ComplexSeries.zero())


def disk_grid(n_radii: int, n_angles: int) -> np.ndarray:
    """z = 0, then the tensor grid of radii j/n_radii and uniform angles."""
    radii = np.arange(1, n_radii + 1) / n_radii
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.concatenate(([0j], np.outer(radii, np.exp(1j * angles)).ravel()))


class TestEvalMap:
    def test_identity(self):
        assert analytic((0.0, 1.0))(1j) == 1j

    def test_constant_term(self):
        assert analytic((1.0, 1.0))(0j) == 1.0

    def test_conjugate_part(self):
        # g = z, h = k z^2 / 2 evaluated at z = 1
        k = 0.4
        m = PlanarHarmonicMap(g=ComplexSeries((0.0, 1.0)),
                              h=ComplexSeries((0.0, 0.0, k / 2)))
        assert m(1.0) == pytest.approx(1.0 + k / 2)

    def test_one_point_is_horner_of_a_0d_array(self):
        # f at a Python number is g + conj(h) by the same complex128 Horner
        # as on arrays, bit for bit
        m = random_qr_map(3, 0.3)
        rng = np.random.default_rng(11)
        points = (rng.uniform(0, 1, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))).tolist()
        for w in points + [0j, 0.5, 1j]:
            z = np.asarray(w)
            got = m(w)
            assert isinstance(got, np.complex128)
            assert got == horner(m.g.coeffs, z) + np.conjugate(horner(m.h.coeffs, z))


#: dilatation_sup's own default (no floor on the nodes) and the corpus grid
SPECS = pytest.mark.parametrize("spec", [None, CORPUS_DILATATION_GRID],
                                ids=["sup-grid", "corpus-grid"])


class TestDilatation:
    def test_analytic_map_has_zero_dilatation(self):
        rep = dilatation_sup(analytic((1.0, 0.5)))
        assert rep.k_hat == 0.0
        assert rep.K_hat == 1.0
        assert (rep.k_upper, rep.nodes) == (0.0, 0)

    def test_constant_ratio(self):
        # h' = 0.5 g' coefficientwise
        g = ComplexSeries((1.0, 1.0, 0.25))
        h = ComplexSeries((0.0, 0.5, 0.125))
        m = PlanarHarmonicMap(g=g, h=h, k_declared=0.5, omega=ComplexSeries.constant(0.5))
        rep = dilatation_sup(m)
        assert rep.k_hat == pytest.approx(0.5, abs=1e-12)
        assert rep.K_hat == pytest.approx(3.0, abs=1e-10)
        assert rep.k_hat <= rep.k_upper <= 0.5 * (1.0 + 1e-14)
        # the same map without its omega cannot be certified
        with pytest.raises(HypothesisViolation, match="no omega"):
            dilatation_sup(PlanarHarmonicMap(g=g, h=h, k_declared=0.5))

    def test_linear_omega_sup_on_boundary(self):
        [m] = make_qr_map([(1.0, 0.5)], [(0.0, 0.3)])
        rep = dilatation_sup(m)
        assert rep.k_hat <= 0.3 + 1e-12
        assert rep.k_hat == pytest.approx(0.3, abs=1e-10)

    def test_degenerate_derivative(self):
        # g' = 0: with h = 0 the dilatation is 0 exactly, without a grid
        rep = dilatation_sup(analytic((1.0,)))
        assert (rep.k_hat, rep.K_hat, rep.k_upper, rep.nodes) == (0.0, 1.0, 0.0, 0)
        with pytest.raises(HypothesisViolation, match="no omega"):
            dilatation_sup(PlanarHarmonicMap(g=ComplexSeries((1.0,)),
                                             h=ComplexSeries((0.0, 0.1))))

    @SPECS
    def test_analytic_map_skips_the_search(self, spec):
        # h' = 0: k = 0 exactly, with no samples at all
        rep = dilatation_sup(analytic((1.0, 0.5)), spec)
        assert (rep.k_hat, rep.K_hat, rep.k_upper, rep.nodes) == (0.0, 1.0, 0.0, 0)
        corpus = random_qr_map(4, 0.0, 16)  # omega = 0
        assert dilatation_sup(corpus, spec) == rep

    @pytest.mark.parametrize("h", [(0.0,), (0.0, 0.0, 0.1)], ids=["h=0", "h'=0.2z"])
    def test_critical_point_at_grid_node(self, h):
        # g' = z vanishes at z = 0, where the old grid search stopped; as a
        # zero of h'/g' = omega it is removable, and omega is certified
        g = ComplexSeries((1.0, 0.0, 0.5))
        omega = ComplexSeries.constant(0.2 if len(h) > 1 else 0.0)
        m = PlanarHarmonicMap(g=g, h=ComplexSeries(h), k_declared=0.2, omega=omega)
        for spec in (None, CORPUS_DILATATION_GRID):
            rep = dilatation_sup(m, spec)
            assert rep.k_hat == pytest.approx(abs(omega.coeffs[0]), abs=1e-15)
            assert rep.k_hat <= rep.k_upper <= rep.k_hat * (1.0 + 1e-14)
        if len(h) > 1:
            with pytest.raises(HypothesisViolation, match="no omega"):
                dilatation_sup(PlanarHarmonicMap(g=g, h=ComplexSeries(h)))

    def test_bound_at_one_is_refused(self):
        # g' = 1, h' = 2z: |h'/g'| reaches 2 on the circle
        m = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)), h=ComplexSeries((0.0, 0.0, 1.0)),
                              omega=ComplexSeries((0.0, 2.0)))
        with pytest.raises(HypothesisViolation, match="bound 2.0000.* >= 1"):
            dilatation_sup(m)

    def test_omega_must_match_h_prime(self):
        g, h = ComplexSeries((1.0, 1.0, 0.25)), ComplexSeries((0.0, 0.5, 0.125))
        PlanarHarmonicMap(g=g, h=h, omega=ComplexSeries.constant(0.5))
        for wrong in (ComplexSeries.constant(0.5 + 1e-12), ComplexSeries((0.5, 1e-9)),
                      ComplexSeries.zero()):
            with pytest.raises(DomainError, match="omega is not h'/g'"):
                PlanarHarmonicMap(g=g, h=h, omega=wrong)
        m = random_qr_map(3, 0.3, 16)
        with pytest.raises(DomainError, match="omega is not h'/g'"):
            PlanarHarmonicMap(g=m.g, h=m.h, omega=m.omega + ComplexSeries((0.0, 0.0, 1e-10)))

    def test_batch_raises_the_first_failing_map(self, q_fast):
        # verifying a batch map by map stops at the first map whose
        # dilatation cannot be certified, with dilatation_sup's own error
        good = random_qr_map(3, 0.3, 16)
        unknown = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)), h=ComplexSeries((0.0, 0.1)))
        # g' = 1, h' = 2z: |h'/g'| reaches 2 on the circle
        expanding = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)),
                                      h=ComplexSeries((0.0, 0.0, 1.0)),
                                      omega=ComplexSeries((0.0, 2.0)))
        for batch in ([good, expanding, unknown], [good, unknown, expanding, good]):
            with pytest.raises(HypothesisViolation) as alone:
                dilatation_sup(batch[1])
            with pytest.raises(HypothesisViolation) as batched:
                for m in batch:
                    verify_T2(m, 1.0, q_fast)
            assert str(batched.value) == str(alone.value)
        assert "no omega" in str(alone.value)


def dense_max(omega: ComplexSeries, n: int = 1 << 16) -> float:
    """max of |omega| at n uniform angles of the unit circle, by Horner."""
    return float(np.abs(omega(np.exp(2j * np.pi * np.arange(n) / n))).max())


@SPECS
@pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.5])
def test_dilatation_sup_matches_horner_search(spec, k):
    # k_lower is the maximum of |omega| to rounding, k_upper is above every
    # sample, and the l1 norm and the declared k bound both
    for seed in range(40):
        m = random_qr_map(seed, k, 16)
        rep = dilatation_sup(m, spec)
        ref = dense_max(m.omega)
        assert ref - 1e-12 <= rep.k_hat <= rep.k_upper, (seed, k)
        assert ref <= rep.k_upper <= m.omega.coeff_abs_sum() <= m.k_declared, (seed, k)
        assert rep.K_hat == (1.0 + rep.k_hat) / (1.0 - rep.k_hat)
        assert rep.nodes == (0 if k == 0.0 else 1024)


@lru_cache(maxsize=None)
def horner_reference(seed: int, k: float) -> float:
    """dense_max of the omega of random_qr_map(seed, k, 16), computed once."""
    return dense_max(random_qr_map(seed, k, 16).omega)


@pytest.mark.parametrize("chunk", [1, 7, 16])
@SPECS
def test_dilatation_sups_match_horner_search(spec, chunk, q_fast):
    # a fuzz batch of chunk seeds checks each map at K(k_upper), whichever
    # spec certifies it, and every k_upper is above the Horner maximum
    for k in (0.0, 0.1, 0.3, 0.5):
        worst, best = math.inf, 0.0
        for seed in range(chunk):
            m = random_qr_map(seed, k, 16)
            sup = dilatation_sup(m, spec)
            ref = horner_reference(seed, k)
            assert ref - 1e-12 <= sup.k_hat <= sup.k_upper, (seed, k)
            assert ref <= sup.k_upper <= m.k_declared, (seed, k)
            rep = verify_T2(m, 1.0, q_fast, dilatation_grid=spec)
            assert rep.params["K"] == (1.0 + sup.k_upper) / (1.0 - sup.k_upper), (seed, k)
            worst, best = min(worst, rep.margin), max(best, rep.lhs / rep.rhs)
        got = fuzz_search(chunk, k, 16, q_fast)
        assert (got.seeds, got.worst_margin, got.best_ratio) == (chunk, worst, best), k


def python_horner(coeffs: list, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def scalar_dilatation_sup(m: PlanarHarmonicMap, spec) -> tuple[float, float, int]:
    """(k_hat, k_upper, nodes) by the per-candidate Newton loop in Python
    complexes that dilatation_sup ran before its polish was stacked, kept
    as a reference."""
    a = m.omega.trimmed().coeffs
    d, j = a.size - 1, np.arange(a.size)
    n = max(64 << max(d - 1, 0).bit_length(), 0 if spec is None else spec.circle_nodes)
    vals = np.abs(circle_values(a[None], None, 1.0, n))[0]
    w0, w1, w2 = a.tolist(), (1j * j * a).tolist(), (-(j * j) * a).tolist()
    cos = math.cos(math.pi * d / (2 * n))
    lower = top = float(vals.max())
    for i in np.flatnonzero(vals >= top * cos).tolist():
        if vals[i - 1] > vals[i] or vals[(i + 1) % n] > vals[i]:
            continue  # not a local maximum of the samples
        t = 2.0 * math.pi * i / n
        for _ in range(2):
            z = cmath.exp(1j * t)
            w, dw = python_horner(w0, z).conjugate(), python_horner(w1, z)
            slope, curve = (w * dw).real, abs(dw) ** 2 + (w * python_horner(w2, z)).real
            if curve < 0.0:
                t -= max(-math.pi / n, min(math.pi / n, slope / curve))
        lower = max(lower, abs(python_horner(w0, cmath.exp(1j * t))))
    return lower, dilatation_upper([m], spec)[0], n


@SPECS
def test_stacked_polish_matches_the_scalar_loop(spec):
    # corpus maps of degree 1 to 40 up to k = 0.9, three equal maxima of
    # |0.3 + 0.2 z^3| between the nodes, and a constant omega, where every
    # sample ties for the maximum
    maps = [random_qr_map(seed, k, degree) for degree in (1, 2, 16, 40)
            for k in (0.3, 0.9) for seed in range(15)]
    maps += make_qr_map([(1.0, 0.5)] * 2, [(0.3, 0.0, 0.0, 0.2), (0.3, 0.0, 0.0, 0.0)])
    for m in maps:
        rep = dilatation_sup(m, spec)
        k_hat, k_upper, nodes = scalar_dilatation_sup(m, spec)
        assert abs(rep.k_hat - k_hat) <= 1e-14 * k_hat
        assert (rep.k_upper, rep.nodes) == (k_upper, nodes)
    assert dilatation_sup(maps[-2], spec).k_hat == pytest.approx(0.5, rel=1e-15)
    assert dilatation_sup(maps[-1], spec).k_hat == pytest.approx(0.3, rel=1e-15)


def test_node_maximum_alone_is_not_an_upper_bound():
    # the sec(pi d / 2N) factor of k_upper is needed: the 1024 nodes miss
    # the maximum of |omega| by more than rounding on some corpus maps
    misses = [dense_max(m.omega)
              - float(np.abs(circle_values(m.omega.coeffs, None, 1.0, 1024)).max())
              for m in (random_qr_map(s, 0.5, 16) for s in range(10))]
    assert max(misses) > 1e-7


def test_zeros_of_g_prime_are_zeros_of_h_prime():
    # seed 100 at k = 0.5: the truncated construction had |h'| = 4.3e-4 at
    # a zero of g' in the disk; now h' = omega g' up to rounding there
    m = random_qr_map(100, 0.5, 16)
    roots = np.roots(m.g_prime.coeffs[::-1])
    roots = roots[np.abs(roots) <= 1.0]
    assert roots.size >= 5
    rounding = 4 * 64 * EPS * m.omega.coeff_abs_sum() * m.g_prime.coeff_abs_sum()
    hp = np.abs(m.h_prime(roots))
    assert np.all(hp <= np.abs(m.omega(roots)) * np.abs(m.g_prime(roots)) + rounding)
    assert float(np.min(jacobian(m, disk_grid(128, 1024)))) >= -rounding


class TestMakeQrMap:
    def test_analytic_case(self):
        [m] = make_qr_map([(1.0, 0.5)], [(0.0,)])
        assert m.g.trimmed().coeffs.tolist() == [1.0 + 0j, 0.5 + 0j]
        assert m.h.is_zero()

    def test_constant_F(self):
        [m] = make_qr_map([(1.0,)], [(0.3,)])
        assert m.g.trimmed().coeffs.tolist() == [1.0 + 0j]
        assert m.h.is_zero()

    def test_constant_omega_ratio_everywhere(self):
        [m] = make_qr_map([(1.0, 0.5)], [(0.3,)])
        z = disk_grid(16, 64)[1:]
        ratio = np.abs(m.h_prime(z)) / np.abs(m.g_prime(z))
        assert np.max(np.abs(ratio - 0.3)) < 1e-12
        # Re f = Re F on the closed disk
        u = np.real(m.g(z) + np.conjugate(m.h(z)))
        assert np.max(np.abs(u - (1.0 + 0.5 * z.real))) < 1e-12

    def test_l1_norm_above_one_needs_the_certificate(self):
        # |0.4 (1 + z - z^2)| peaks at 0.4 sqrt 5 (z = i) below its l1 norm 1.2
        F, omega = (1.0, 0.3), (0.4, 0.4, -0.4)
        [m] = make_qr_map([F], [omega])
        assert m.omega.coeff_abs_sum() > 1.0
        assert 0.4 * np.sqrt(5.0) <= m.k_declared == dilatation_sup(m).k_upper < 0.8948
        with pytest.raises(DomainError, match="may reach 1"):
            make_qr_map([F], [(0.6, 0.6)])

    def test_omega_degree_leaves_room_for_g_prime(self):
        omega = np.full((1, 64), 0.01)  # degree 63, the cap 64 minus one
        assert make_qr_map([(1.0, 0.3)], omega)[0].g_prime.degree == 0
        with pytest.raises(DomainError, match="no degree for g'"):  # degree 64
            make_qr_map([(1.0, 0.3)], np.full((1, 65), 0.01))

    def test_imaginary_F0_rejected(self):
        with pytest.raises(DomainError):
            make_qr_map([(1j, 0.5)], [(0.0,)])

    @given(seeds, st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    @settings(max_examples=25, deadline=None)
    def test_g_plus_h_recovers_F(self, seed, k):
        m = random_qr_map(seed, k)
        # Im f(0) = 0 and h(0) = 0 by construction
        assert m.h.coeffs[0] == 0j
        assert abs(m(0j).imag) == 0.0
        # g + h = F(0) + int (1 + omega) P with P = g', up to rounding
        P = m.g_prime
        F_prime = np.convolve((ComplexSeries.constant(1.0) + m.omega).coeffs, P.coeffs)
        want = np.concatenate(([m.g.coeffs[0]], F_prime / np.arange(1, F_prime.size + 1)))
        total = m.g + m.h
        scale = (1.0 + m.omega.coeff_abs_sum()) * P.coeff_abs_sum()
        assert total.degree == want.size - 1 == 64
        assert np.max(np.abs(total.coeffs - want)) <= 1e-15 * scale
        # |h'| <= k |g'| pointwise, up to rounding
        z = disk_grid(16, 64)
        hp = np.abs(m.h_prime(z))
        gp = np.abs(m.g_prime(z))
        assert np.all(hp <= k * gp + 1e-13)

    def test_g_plus_h_equals_F_exactly(self):
        F = (1.0, 0.5, -0.25)
        [m] = make_qr_map([F], [(0.1, 0.2j)])
        total = (m.g + m.h).coeffs
        for got, want in zip(total[:3], F):
            assert got == pytest.approx(want, abs=1e-14)
        assert all(abs(c) < 1e-14 for c in total[3:])


# make_qr_map as it read when ComplexSeries carried the construction
# arithmetic as methods (sum, product, truncation, reciprocal and
# antiderivative), each method inlined on coefficient arrays: the reference
# the array construction reproduces bit for bit
def method_sum(a, b):
    out = np.zeros(max(a.size, b.size), dtype=complex)
    out[: a.size] = a
    out[: b.size] += b
    return out


def method_antiderivative(c):
    j = np.arange(1, c.size + 1)
    out = np.zeros(j.size + 1, dtype=complex)
    out.real[1:], out.imag[1:] = c.real / j, c.imag / j
    return out


def method_truncated(c, degree):
    out = np.zeros(degree + 1, dtype=complex)
    out[: c.size] = c[: degree + 1]
    return out


def method_reciprocal(c, degree):
    if c[0] == 0:
        raise DomainError("reciprocal needs a nonzero constant term")
    a = np.zeros(degree + 1, dtype=complex)
    a[: c.size] = c[: degree + 1]
    x = np.array([1.0 / complex(a[0])])
    while x.size <= degree:
        m = min(2 * x.size, degree + 1)
        e = -np.convolve(a[:m], x)[:m]
        e[0] += 2.0
        x = np.convolve(x, e)[:m]
    return x


def method_make_qr_map(F: ComplexSeries, omega: ComplexSeries) -> PlanarHarmonicMap:
    if abs(F.coeffs[0].imag) > 0:
        raise DomainError("F(0) must be real so that Im f(0) = 0")
    omega = omega.trimmed()
    d_p = DEGREE_CAP - 1 - omega.degree
    if d_p < 0:
        raise DomainError(f"deg omega = {omega.degree} leaves no degree for g' "
                          f"below {DEGREE_CAP}")
    k_decl = omega.coeff_abs_sum()
    if k_decl >= 1.0:
        k_decl = float(_omega_upper(omega.coeffs[None])[0][0])
        if k_decl >= 1.0:
            raise DomainError(f"sup |omega| may reach 1 on the circle (bound {k_decl:.4f})")
    one_plus = method_sum(np.array([1.0 + 0j]), omega.coeffs)
    P = method_truncated(np.convolve(F.derivative().coeffs, method_reciprocal(one_plus, d_p)),
                         d_p)
    g = method_sum(np.array([F.coeffs[0]]), method_antiderivative(P))
    h = method_antiderivative(np.convolve(omega.coeffs, P))
    return PlanarHarmonicMap(g=ComplexSeries(g), h=ComplexSeries(h), k_declared=k_decl,
                             omega=omega)


def method_rows(F, omega) -> list[PlanarHarmonicMap]:
    """``method_make_qr_map`` row by row on ``make_qr_map``'s coefficient
    arrays: the first row it refuses raises."""
    return [method_make_qr_map(ComplexSeries(f), ComplexSeries(w)) for f, w in zip(F, omega)]


def built(build):
    """The bits of g, h, omega and k_declared of the map ``build()`` makes,
    or the type and message of the HqzError it raises."""
    try:
        m = build()
    except HqzError as exc:
        return type(exc), str(exc)
    return (m.g.coeffs.tobytes(), m.h.coeffs.tobytes(), m.omega.coeffs.tobytes(),
            repr(m.k_declared))


def built_all(build):
    """``built`` of every map of the list ``build()`` makes, or the type and
    message of the HqzError it raises."""
    try:
        maps = build()
    except HqzError as exc:
        return type(exc), str(exc)
    return [built(lambda m=m: m) for m in maps]


def as_one_call(alone: list):
    """What one call over the items of ``alone`` (``built`` results one at
    a time) gives: every map, or the error of the first item refused."""
    return next((row for row in alone if not isinstance(row[0], bytes)), alone)


def stack_of_rows() -> tuple[np.ndarray, np.ndarray]:
    """64 rows (F, omega): F of one length, omegas of every trimmed length
    from 1 to 64 (zero, constants, trailing zeros, degree 63), some whose
    l1 norm needs the certificate, in shuffled order."""
    rng = np.random.default_rng(8)
    F = rng.standard_normal((64, 6)) + 1j * rng.standard_normal((64, 6))
    F[:, 0] = rng.uniform(1.0, 2.0, 64)
    omega = np.zeros((64, 64), dtype=complex)
    for i, size in enumerate(rng.permutation(64) + 1):
        row = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        omega[i, :size] = row * (rng.uniform(0.1, 0.9) / np.abs(row).sum())
    omega[3] = 0.0
    omega[[5, 9, 40], :3] = (0.4, 0.4, -0.4)  # l1 1.2 > 1 > sup |omega| = 0.4 sqrt 5
    omega[5, 3:] *= 0.1
    omega[[9, 40], 3:] = 0.0
    omega[17, 1:] = 0.0
    omega[17, 0] = 0.3
    return F, omega


class TestConstructionBits:
    @pytest.mark.parametrize("degree", [1, 2, 16, 40, 63])
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.9])
    def test_corpus_maps_are_the_method_bits(self, degree, k, monkeypatch):
        # a chunk reaches its arithmetic through the make_qr_map attribute,
        # once; with the method reference there, every map keeps its bits
        import hqz.planar as planar
        got = built_all(lambda: random_qr_maps(range(10), k, degree, 0.05))
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(planar, "make_qr_map",
                          lambda F, omega: calls.append(len(F)) or method_rows(F, omega))
            want = built_all(lambda: random_qr_maps(range(10), k, degree, 0.05))
        assert calls == [10]
        assert got == want
        assert all(isinstance(row[0], bytes) for row in got)  # every map of the grid builds

    @pytest.mark.parametrize("degree", [1, 2, 16, 40, 63])
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.9])
    def test_a_chunk_is_its_seeds_alone(self, degree, k):
        alone = [built(lambda: random_qr_map(seed, k, degree)) for seed in range(64)]
        for size in (1, 10, 64):
            for start in range(0, 64, size):
                seeds = range(start, min(start + size, 64))
                assert (built_all(lambda: random_qr_maps(seeds, k, degree, 0.05))
                        == as_one_call(alone[seeds.start:seeds.stop]))

    def test_stacks_of_rows_are_the_method_bits(self):
        F, omega = stack_of_rows()
        want = [built(lambda i=i: method_rows(F[i:i + 1], omega[i:i + 1])[0]) for i in range(64)]
        assert all(isinstance(row[0], bytes) for row in want)
        assert len({m.omega.coeffs.size for m in make_qr_map(F, omega)}) >= 60  # stacks
        for size in (1, 10, 64):
            got = []
            for start in range(0, 64, size):
                got += built_all(lambda: make_qr_map(F[start:start + size],
                                                     omega[start:start + size]))
            assert got == want

    @pytest.mark.parametrize("first, second", [
        ("imaginary F(0)", "degree 64"), ("degree 64", "imaginary F(0)"),
        ("degree 64", "may reach 1"), ("may reach 1", "imaginary F(0)"),
        ("may reach 1", "omega(0) = -1")])
    def test_a_refusal_in_a_stack_is_its_first_rows(self, first, second):
        # two refused rows of a stack of ten, each in its own stack of
        # omegas of one length: the error is the one of the first alone
        refusals = {"imaginary F(0)": (1j, None), "degree 64": (None, np.full(65, 0.01)),
                    "may reach 1": (None, (0.6, 0.6)), "omega(0) = -1": (None, (-1.0,))}
        F, omega = stack_of_rows()
        F, omega = F[:10], np.concatenate((omega[:10], np.zeros((10, 1))), axis=1)
        for row, name in ((4, first), (7, second)):
            f0, w = refusals[name]
            if f0 is not None:
                F[row, 0] += f0
            if w is not None:
                omega[row] = 0.0
                omega[row, : len(w)] = w
        want = as_one_call([built(lambda i=i: method_rows(F[i:i + 1], omega[i:i + 1])[0])
                            for i in range(10)])
        assert want == built(lambda: method_rows(F[4:5], omega[4:5])[0])
        assert built_all(lambda: make_qr_map(F, omega)) == want

    @pytest.mark.parametrize("F, omega", [
        ((1.0, 0.3), (0.4, 0.4, -0.4)),  # ||omega||_1 = 1.2 > 1 > 0.4 sqrt 5 = sup |omega|
        ((1.0, 0.5, -0.25), (0.1, 0.2j)),
        ((-0.0 - 0.0j, -1.0, 0.0, 2.0), (-0.0j, -0.1, -0.2)),
        ((1.0,), (0.3,)),
        ((1.0, 0.5), (0.0,)),
        ((2.0, -1.0, 1.0), (0.3, 0.0, 0.0)),  # trailing zeros of omega trimmed
        ((1.0, 0.3), tuple(np.full(64, 0.01))),  # degree 63: d_P = 0
        ((1.0, *np.full(63, 0.01)), tuple(np.full(48, -0.015))),  # omega longer than P
        # the refusals
        ((1.0, 0.3), tuple(np.full(65, 0.01))),
        ((1.0, 0.3), (0.6, 0.6)),
        ((1.0, 0.3), (-1.0,)),
        ((1j, 0.5), (0.0,))],
        ids=["certificate", "complex", "signed zeros", "constant F", "zero omega",
             "trailing zeros", "degree 63", "degree 47", "degree 64",
             "may reach 1", "omega(0) = -1", "imaginary F(0)"])
    def test_maps_and_refusals_are_the_method_bits(self, F, omega):
        want = built(lambda: method_make_qr_map(ComplexSeries(F), ComplexSeries(omega)))
        assert built(lambda: make_qr_map([F], [omega])[0]) == want


class TestRandomQrMap:
    def test_deterministic(self):
        a = random_qr_map(0, 0.3)
        b = random_qr_map(0, 0.3)
        assert a.g.coeffs.tolist() == b.g.coeffs.tolist()
        assert a.h.coeffs.tolist() == b.h.coeffs.tolist()

    def test_k_zero_is_analytic(self):
        m = random_qr_map(0, 0.0)
        assert m.h.is_zero()
        assert m(0j).real > 0

    def test_omega_is_checked_once(self, monkeypatch):
        import hqz.planar as planar
        checks = []
        real = planar.PlanarHarmonicMap.__post_init__
        monkeypatch.setattr(planar.PlanarHarmonicMap, "__post_init__",
                            lambda self: (checks.append(self), real(self))[1])
        m = random_qr_map(3, 0.3)
        assert checks == [m] and m.k_declared == 0.3
        checks.clear()
        maps = random_qr_maps(range(10), 0.3, 16, 0.05)
        assert len(checks) == 10 and all(c is m for c, m in zip(checks, maps))
        assert all(m.k_declared == 0.3 for m in maps)

    def test_positivity_is_certified(self, monkeypatch):
        # a construction whose g + h leaves the coefficient budget is refused,
        # alone and in a chunk, which raises the error of its first such seed
        import hqz.planar as planar
        real, calls = planar.make_qr_map, []

        def tripled(F, omega):
            calls.append(len(F))
            return real(np.concatenate((F[:, :1], 3.0 * F[:, 1:]), axis=1), omega)

        monkeypatch.setattr(planar, "make_qr_map", tripled)
        refused = []
        for seed in range(10):
            try:
                m = random_qr_map(seed, 0.3)
            except DomainError as exc:
                assert "by the coefficient l1 norm, below the margin 0.05" in str(exc)
                refused.append(str(exc))
            else:
                assert float(m(disk_grid(32, 128)).real.min()) >= 0.05
        assert 0 < len(refused) < 10 and calls == [1] * 10
        with pytest.raises(DomainError) as chunk:
            random_qr_maps(range(10), 0.3, 16, 0.05)
        assert str(chunk.value) == refused[0] and calls[-1] == 10

    def test_a_chunk_raises_its_first_seeds_error(self, monkeypatch):
        # margin 1: under the tripled tail, seed 4 fails the positivity
        # certificate and seed 11 has no coefficient budget, which the chunk
        # finds first, while it draws
        import hqz.planar as planar
        real = planar.make_qr_map
        monkeypatch.setattr(planar, "make_qr_map", lambda F, omega: real(
            np.concatenate((F[:, :1], 3.0 * F[:, 1:]), axis=1), omega))
        alone = [built(lambda: random_qr_map(seed, 0.3, 16, 1.0)) for seed in range(4, 12)]
        assert "below the margin" in alone[0][1] and "no coefficient budget" in alone[-1][1]
        assert built_all(lambda: random_qr_maps(range(4, 12), 0.3, 16, 1.0)) == alone[0]

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_positivity_margin(self, seed):
        margin = 0.05
        m = random_qr_map(seed, 0.5, positivity_margin=margin)
        z = disk_grid(32, 128)
        u = np.real(m.g(z) + np.conjugate(m.h(z)))
        assert float(u.min()) >= margin - 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_sense_preserving(self, seed):
        m = random_qr_map(seed, 0.5)
        z = disk_grid(24, 96)
        assert float(np.min(jacobian(m, z))) > 0.0

    def test_dilatation_bounded_by_k(self, q_fast):
        for seed in range(10):
            m = random_qr_map(seed, 0.3)
            rep = dilatation_sup(m)
            assert rep.k_hat <= 0.3 + 1e-12


class TestStripExample:
    def test_n1_coefficients(self):
        m = strip_example(1)
        assert m.g.coeffs.tolist() == [0.5 + 0j, 0.5 + 0j]
        assert m.h.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_values_inside_strip(self, n):
        m = strip_example(n)
        theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        # open disk: strictly inside the strip for every n
        u_in = m(0.999 * np.exp(1j * theta)).real
        assert np.all(u_in > 0.0)
        assert np.all(u_in < 1.0)
        # boundary circle: pinned to [0, 1], strictly inside for n >= 2
        # (at n = 1 the value 0 is attained at z = -1)
        u_bd = m(np.exp(1j * theta)).real
        assert np.all(u_bd >= 0.0)
        assert np.all(u_bd <= 1.0 + 1e-15)
        if n >= 2:
            assert np.all(u_bd > 0.0)
        assert m(0j).imag == 0.0

    def test_boundary_value_attained_only_at_one(self):
        m = strip_example(3)
        assert m(1.0) == pytest.approx(1.0)
        interior = m(0.99)
        assert abs(interior) < 1.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            strip_example(0)


class TestSerialization:
    def test_round_trip(self):
        m = random_qr_map(5, 0.3)
        text = map_to_json(m)
        back = map_from_json(text)
        assert back.g.coeffs.tolist() == m.g.coeffs.tolist()
        assert back.h.coeffs.tolist() == m.h.coeffs.tolist()
        assert back.omega.coeffs.tolist() == m.omega.coeffs.tolist()
        assert back.k_declared == m.k_declared
        assert dilatation_sup(back) == dilatation_sup(m)
        # a map without omega serializes without the key
        plain = map_from_json(map_to_json(strip_example(2)))
        assert plain.omega is None and '"omega"' not in map_to_json(plain)

    def test_serialization_is_deterministic(self):
        m = random_qr_map(5, 0.3)
        assert map_to_json(m) == map_to_json(m)

    def test_non_finite_payload_refused(self):
        payload = json.loads(map_to_json(random_qr_map(5, 0.3)))
        payload["g"][2][1] = math.nan
        with pytest.raises(DomainError, match="finite coefficients"):
            map_from_json(json.dumps(payload))


def test_h_with_nonzero_constant_rejected():
    with pytest.raises(DomainError):
        PlanarHarmonicMap(g=ComplexSeries((1.0,)),
                          h=ComplexSeries((0.5,)))


def test_nan_h0_is_named_non_finite():
    # NaN != 0, so the h(0) check would name the wrong cause
    with pytest.raises(DomainError, match="finite coefficients"):
        PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)), h=ComplexSeries((math.nan, 0.5)))


def test_nan_omega_is_refused_before_it_is_certified():
    # the omega check passes a NaN (every comparison with it is False), so
    # this map used to build and dilatation_upper certified k_upper = nan
    m = random_qr_map(3, 0.3, 16)
    w = m.omega.coeffs.copy()
    w[3] = math.nan
    with pytest.raises(DomainError, match="finite coefficients"):
        dataclasses.replace(m, omega=ComplexSeries(w))
