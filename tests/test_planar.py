from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqz import (ComplexSeries, DegenerateDerivative, DomainError,
                 HypothesisViolation, PlanarHarmonicMap, TruncationOverflow,
                 dilatation_sup, disk_grid, jacobian, make_qr_map,
                 map_from_json, map_to_json, random_qr_map, strip_example)
from hqz.planar import (SUP_GRID_SPEC, TAU_G, _derivative_coeffs, _patch_values,
                        _power_table, dilatation_sups)
from hqz.series import circle_values
from hqz.theorems import CORPUS_DILATATION_GRID

seeds = st.integers(min_value=0, max_value=10_000)


def analytic(coeffs) -> PlanarHarmonicMap:
    return PlanarHarmonicMap(g=ComplexSeries(tuple(coeffs)),
                             h=ComplexSeries.zero())


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


class TestDilatation:
    def test_analytic_map_has_zero_dilatation(self):
        rep = dilatation_sup(analytic((1.0, 0.5)))
        assert rep.k_hat == 0.0
        assert rep.K_hat == 1.0

    def test_constant_ratio(self):
        # h' = 0.5 g' coefficientwise
        g = ComplexSeries((1.0, 1.0, 0.25))
        h = ComplexSeries((0.0, 0.5, 0.125))
        m = PlanarHarmonicMap(g=g, h=h, k_declared=0.5)
        rep = dilatation_sup(m)
        assert rep.k_hat == pytest.approx(0.5, abs=1e-12)
        assert rep.K_hat == pytest.approx(3.0, abs=1e-10)

    def test_linear_omega_sup_on_boundary(self):
        m = make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries((0.0, 0.3)))
        rep = dilatation_sup(m)
        assert rep.k_hat <= 0.3 + 1e-12
        assert rep.k_hat == pytest.approx(0.3, abs=1e-10)

    def test_degenerate_derivative(self):
        with pytest.raises(DegenerateDerivative):
            dilatation_sup(analytic((1.0,)))

    @pytest.mark.parametrize("spec", [SUP_GRID_SPEC, CORPUS_DILATATION_GRID],
                             ids=["sup-grid", "corpus-grid"])
    def test_analytic_map_skips_the_search(self, spec):
        # h' = 0: k_hat = 0 at level 1 without a polish, as the search found
        m = analytic((1.0, 0.5))
        rep = dilatation_sup(m, spec)
        assert (rep.k_hat, rep.K_hat) == (0.0, 1.0)
        assert rep.grid == horner_dilatation_sup(m, spec)[1]
        assert rep.grid == (f"radii={2 * spec.radial_nodes},"
                            f"angles={2 * spec.circle_nodes},levels=1")

    @pytest.mark.parametrize("h", [(0.0,), (0.0, 0.0, 0.1)], ids=["h=0", "h'=0.2z"])
    def test_critical_point_at_grid_node(self, h):
        # g' = z vanishes at the grid node z = 0, with or without a search
        m = PlanarHarmonicMap(g=ComplexSeries((1.0, 0.0, 0.5)), h=ComplexSeries(h))
        for spec in (SUP_GRID_SPEC, CORPUS_DILATATION_GRID):
            with pytest.raises(DegenerateDerivative, match="min .g'. = 0.000e"):
                dilatation_sup(m, spec)

    def test_batch_raises_the_first_failing_map(self):
        good = random_qr_map(3, 0.3, 16)
        critical = PlanarHarmonicMap(g=ComplexSeries((1.0, 0.0, 0.5)), h=ComplexSeries.zero())
        # g' = 1, h' = 2z: |h'/g'| reaches 2 on the circle
        expanding = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)),
                                      h=ComplexSeries((0.0, 0.0, 1.0)))
        for batch in ([good, expanding, critical], [good, critical, expanding, good]):
            with pytest.raises(Exception) as alone:
                dilatation_sup(batch[1])
            with pytest.raises(type(alone.value)) as batched:
                dilatation_sups(batch)
            assert str(batched.value) == str(alone.value)
        assert isinstance(alone.value, DegenerateDerivative)
        with pytest.raises(HypothesisViolation, match="grid dilatation 2.000000 >= 1"):
            dilatation_sup(expanding)

    def test_empty_batch(self):
        assert dilatation_sups([]) == []


def random_disk_points(seed: int, n: int = 200) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    r[:4] = (0.0, 1.0, 1.0, 0.5)
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def horner_dilatation_sup(m: PlanarHarmonicMap, spec) -> tuple[float, str]:
    """The tensor grid and 12-round polish of dilatation_sup, with the
    polish evaluated by Horner at linspace patches; returns (k_hat, grid)."""
    def ratio(z):
        gp, hp = np.abs(m.g_prime(z)), np.abs(m.h_prime(z))
        assert gp.min() > TAU_G
        return hp / gp

    def level(nr, nt):
        radii = np.concatenate(([0.0], np.arange(1, nr + 1) / nr))
        gp = np.abs(circle_values(m.g_prime, None, radii, nt))
        hp = np.abs(circle_values(m.h_prime, None, radii, nt))
        i, j = np.unravel_index(int(np.argmax(hp / gp)), gp.shape)
        r0, t0, dr, dt = float(radii[i]), 2.0 * np.pi * j / nt, 1.0 / nr, 2.0 * np.pi / nt
        best = float(ratio(np.asarray([r0 * np.exp(1j * t0)]))[0])
        for _ in range(12):
            rs = np.clip(np.linspace(r0 - dr, r0 + dr, 9), 0.0, 1.0)
            ts = np.linspace(t0 - dt, t0 + dt, 9)
            vals = ratio(np.outer(rs, np.exp(1j * ts)))
            a, b = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[a, b] > best:
                best, r0, t0 = float(vals[a, b]), float(rs[a]), float(ts[b])
            dr /= 4.0
            dt /= 4.0
        return best

    n_r, n_t = spec.radial_nodes, spec.circle_nodes
    k_hat = level(n_r, n_t)
    levels = 0
    for _ in range(spec.refinement_limit):
        n_r *= 2
        n_t *= 2
        nxt = level(n_r, n_t)
        levels += 1
        moved = abs(nxt - k_hat)
        k_hat = max(k_hat, nxt)
        if moved <= spec.abs_tol:
            break
    return k_hat, f"radii={n_r},angles={n_t},levels={levels}"


def kernel_values(m: PlanarHarmonicMap, z: np.ndarray) -> np.ndarray:
    """g' and h' at z as one power table times the coefficient matrix."""
    coeffs = _derivative_coeffs([m])[0]
    return coeffs @ _power_table(z, coeffs.shape[1])


class TestPowerTableKernel:
    def check(self, m: PlanarHarmonicMap, seed: int) -> None:
        z = random_disk_points(seed)
        vals = kernel_values(m, z)
        assert vals.shape == (2, z.size)
        for got, s in zip(vals, (m.g_prime, m.h_prime)):
            assert np.max(np.abs(got - s(z))) <= 1e-14 * s.coeff_abs_sum()

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5])
    def test_corpus_maps_match_horner(self, k):
        for seed in range(10):
            m = random_qr_map(seed, k, 16)
            assert m.g_prime.degree == 63
            self.check(m, seed)

    def test_h_zero(self):
        corpus = random_qr_map(4, 0.0, 16)  # h is 64 zero coefficients
        short = PlanarHarmonicMap(g=corpus.g, h=ComplexSeries.zero())
        for m in (corpus, short):
            assert m.h_prime.is_zero()
            self.check(m, 4)
            assert np.all(kernel_values(m, random_disk_points(4))[1] == 0)

    @pytest.mark.parametrize("g, h", [((1.0, 2.0 - 1j), (0.0,)),
                                      ((1.0, 2.0), (0.0, 0.5j)),
                                      ((3.0,), (0.0,))])
    def test_degree_zero_derivatives(self, g, h):
        self.check(PlanarHarmonicMap(g=ComplexSeries(g), h=ComplexSeries(h)), 9)

    def test_patch_values_see_critical_point(self):
        # g' = z vanishes at the origin; dilatation_sups rejects it there
        m = PlanarHarmonicMap(g=ComplexSeries((0.0, 0.0, 0.5)), h=ComplexSeries.zero())
        vals = _patch_values(_derivative_coeffs([m]), np.asarray([[0.0, 0.5]]),
                             np.asarray([[0.0, np.pi / 2]]))
        assert vals.tolist() == [[[[0.0, 0.0], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]]]
        with pytest.raises(DegenerateDerivative):
            dilatation_sup(m)

    def test_patch_values_match_horner(self):
        # one batch of maps of different degrees, each on its own patch
        maps = [random_qr_map(s, k, 16) for s, k in ((0, 0.1), (1, 0.0), (2, 0.5))]
        maps += [PlanarHarmonicMap(g=ComplexSeries((1.0, 2.0)), h=ComplexSeries((0.0, 0.5j)))]
        coeffs = _derivative_coeffs(maps)
        assert coeffs.shape == (4, 2, 64)
        assert np.all(coeffs[3, :, 1:] == 0)
        rng = np.random.default_rng(5)
        radii = np.sort(rng.uniform(0.0, 1.0, (4, 9)), axis=1)
        radii[:, 0], radii[:, -1] = 0.0, 1.0
        angles = rng.uniform(-1.0, 7.0, (4, 7))
        vals = _patch_values(coeffs, radii, angles)
        assert vals.shape == (4, 2, 9, 7)
        for m, v, r, t in zip(maps, vals, radii, angles):
            z = np.outer(r, np.exp(1j * t))
            for got, s in zip(v, (m.g_prime, m.h_prime)):
                assert np.max(np.abs(got - np.abs(s(z)))) <= 1e-14 * s.coeff_abs_sum()


@pytest.mark.parametrize("spec", [SUP_GRID_SPEC, CORPUS_DILATATION_GRID],
                         ids=["sup-grid", "corpus-grid"])
@pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.5])
def test_dilatation_sup_matches_horner_search(spec, k):
    for seed in range(20):
        m = random_qr_map(seed, k, 16)
        rep = dilatation_sup(m, spec)
        ref, grid = horner_reference(spec, seed, k)
        assert rep.grid == grid
        assert abs(rep.k_hat - ref) <= 1e-15


@lru_cache(maxsize=None)
def horner_reference(spec, seed: int, k: float) -> tuple[float, str]:
    """horner_dilatation_sup of random_qr_map(seed, k, 16), computed once."""
    return horner_dilatation_sup(random_qr_map(seed, k, 16), spec)


BATCH_CORPUS = [(seed, k) for seed in range(50) for k in (0.0, 0.1, 0.3, 0.5)]


@pytest.mark.parametrize("chunk", [1, 7, 16])
@pytest.mark.parametrize("spec", [SUP_GRID_SPEC, CORPUS_DILATATION_GRID],
                         ids=["sup-grid", "corpus-grid"])
def test_dilatation_sups_match_horner_search(spec, chunk):
    # chunks mix k, so k = 0 maps (no search) sit between searched ones
    for start in range(0, len(BATCH_CORPUS), chunk):
        part = BATCH_CORPUS[start: start + chunk]
        reports = dilatation_sups([random_qr_map(s, k, 16) for s, k in part], spec)
        assert len(reports) == len(part)
        for (seed, k), rep in zip(part, reports):
            ref, grid = horner_reference(spec, seed, k)
            assert rep.grid == grid, (seed, k)
            assert abs(rep.k_hat - ref) <= 1e-15, (seed, k)
            assert rep.K_hat == (1.0 + rep.k_hat) / (1.0 - rep.k_hat)


class TestMakeQrMap:
    def test_analytic_case(self):
        m = make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries.zero())
        assert m.g.trimmed().coeffs.tolist() == [1.0 + 0j, 0.5 + 0j]
        assert m.h.is_zero()

    def test_constant_F(self):
        m = make_qr_map(ComplexSeries((1.0,)), ComplexSeries.constant(0.3))
        assert m.g.trimmed().coeffs.tolist() == [1.0 + 0j]
        assert m.h.is_zero()

    def test_constant_omega_ratio_everywhere(self):
        m = make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries.constant(0.3))
        z = disk_grid(16, 64)[1:]
        ratio = np.abs(m.h_prime(z)) / np.abs(m.g_prime(z))
        assert np.max(np.abs(ratio - 0.3)) < 1e-12
        # Re f = Re F on the closed disk
        u = np.real(m.g(z) + np.conjugate(m.h(z)))
        assert np.max(np.abs(u - (1.0 + 0.5 * z.real))) < 1e-12

    def test_truncation_cap(self):
        with pytest.raises(TruncationOverflow):
            make_qr_map(ComplexSeries((1.0, 0.5)), ComplexSeries.zero(), 65)

    def test_imaginary_F0_rejected(self):
        with pytest.raises(DomainError):
            make_qr_map(ComplexSeries((1j, 0.5)), ComplexSeries.zero())

    @given(seeds, st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    @settings(max_examples=25, deadline=None)
    def test_g_plus_h_recovers_F(self, seed, k):
        m = random_qr_map(seed, k)
        # Im f(0) = 0 and h(0) = 0 by construction
        assert m.h.coeffs[0] == 0j
        assert abs(m.v(0j)) == 0.0
        # g + h re-expands to a degree-16 polynomial: the construction
        # cancels every coefficient beyond the degree of F
        total = (m.g + m.h).coeffs
        assert all(abs(c) < 1e-12 for c in total[17:])
        # |h'| <= k |g'| pointwise up to the truncation tail
        z = disk_grid(16, 64)
        hp = np.abs(m.h_prime(z))
        gp = np.abs(m.g_prime(z))
        assert np.all(hp <= k * gp + 1e-10)

    def test_g_plus_h_equals_F_exactly(self):
        F = ComplexSeries((1.0, 0.5, -0.25))
        omega = ComplexSeries((0.1, 0.2j))
        m = make_qr_map(F, omega, 32)
        total = (m.g + m.h).coeffs
        for got, want in zip(total[:3], F.coeffs):
            assert got == pytest.approx(want, abs=1e-14)
        assert all(abs(c) < 1e-14 for c in total[3:])


class TestRandomQrMap:
    def test_deterministic(self):
        a = random_qr_map(0, 0.3)
        b = random_qr_map(0, 0.3)
        assert a.g.coeffs.tolist() == b.g.coeffs.tolist()
        assert a.h.coeffs.tolist() == b.h.coeffs.tolist()

    def test_k_zero_is_analytic(self):
        m = random_qr_map(0, 0.0)
        assert m.h.is_zero()
        assert m.u(0j) > 0

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
        u_in = m.u(0.999 * np.exp(1j * theta))
        assert np.all(u_in > 0.0)
        assert np.all(u_in < 1.0)
        # boundary circle: pinned to [0, 1], strictly inside for n >= 2
        # (at n = 1 the value 0 is attained at z = -1)
        u_bd = m.u(np.exp(1j * theta))
        assert np.all(u_bd >= 0.0)
        assert np.all(u_bd <= 1.0 + 1e-15)
        if n >= 2:
            assert np.all(u_bd > 0.0)
        assert m.v(0j) == 0.0

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
        assert back.k_declared == m.k_declared

    def test_serialization_is_deterministic(self):
        m = random_qr_map(5, 0.3)
        assert map_to_json(m) == map_to_json(m)


def test_h_with_nonzero_constant_rejected():
    with pytest.raises(DomainError):
        PlanarHarmonicMap(g=ComplexSeries((1.0,)),
                          h=ComplexSeries((0.5,)))
