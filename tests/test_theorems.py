import math
from collections import Counter

import numpy as np
import pytest

from hqz import QuadratureSpec, circle_mean_p, functionals, theorems
from hqz import (AffineBallMap, ComplexSeries, FuzzSummary, HqzError,
                 HypothesisViolation, PlanarHarmonicMap, fuzz_search,
                 map_from_json, map_to_json, phi_of_m, random_qr_map, strip_example,
                 verify_T1, verify_T2, verify_T2_strip, verify_T3_affine)
from hqz.quadrature import refined_circle_mean
from hqz.series import circle_values
from hqz.theorems import CORPUS_DILATATION_GRID

# frozen oracle values (midpoint Riemann sums at 2^22 nodes, closed forms
# where available): the sharp-bound margin of f = 1 + z/2 at r = 1, K = 1
MARGIN_1_PLUS_HALF_Z = 0.0010937220471223


def analytic(*coeffs) -> PlanarHarmonicMap:
    return PlanarHarmonicMap(g=ComplexSeries(tuple(coeffs)),
                             h=ComplexSeries.zero())


class TestVerifyT2:
    def test_degenerate_constant_equality(self, q):
        rep = verify_T2(analytic(1.0), 1.0, q, K=1.0)
        assert rep.lhs == 1.0
        assert rep.rhs == 1.0
        assert rep.margin == 0.0

    def test_one_plus_half_z_margin(self, q):
        rep = verify_T2(analytic(1.0, 0.5), 1.0, q, K=1.0)
        assert rep.margin == pytest.approx(MARGIN_1_PLUS_HALF_Z, abs=1e-9)
        assert rep.margin > 0.0
        # order of magnitude of the leading 3 b^4 / 64 term at b = 1/2
        assert rep.margin < 0.005

    def test_corpus_margins_nonnegative(self, q_fast):
        for seed in range(15):
            for k in (0.0, 0.3):
                m = random_qr_map(seed, k)
                rep = verify_T2(m, 1.0, q_fast)
                assert rep.margin >= -1e-9

    def test_hypothesis_checks(self, q):
        with pytest.raises(HypothesisViolation):
            verify_T2(analytic(1.0 + 0.5j, 0.5), 1.0, q, K=1.0)  # v(0) != 0
        with pytest.raises(HypothesisViolation):
            verify_T2(analytic(0.5, 1.0), 1.0, q, K=1.0)  # u sign-changes

    def test_sign_change_names_the_hypothesis(self, q):
        # u = 1 + 1.25 cos t dips to -0.25 at t = pi, a node of the first level
        with pytest.raises(HypothesisViolation, match=r"^u must be positive on the circle: "
                           r"min u = -2\.500e-01 <= 0 on the circle of radius 1\.0$"):
            verify_T2(analytic(1.0, 1.25), 1.0, q, K=1.0)


class TestVerifyT2Strip:
    def test_n1_value(self, q):
        rep = verify_T2_strip(1, q)
        assert rep.lhs == pytest.approx(2.0 / math.pi, abs=1e-9)
        assert rep.margin > 0.0

    def test_n32_gap(self, q):
        rep = verify_T2_strip(32, q)
        assert 0.0 < rep.margin < 2.0 / 33.0

    def test_strictly_increasing_in_n(self, q):
        values = [verify_T2_strip(n, q).lhs for n in range(1, 17)]
        assert all(b > a for a, b in zip(values[:-1], values[1:]))
        assert all(v < 1.0 for v in values)

    def test_unit_circle_mean_taken_once(self, q, monkeypatch):
        radii, real = [], functionals.circle_mean_p

        def spy(m, r, spec):
            radii.append(r)
            return real(m, r, spec)

        monkeypatch.setattr(functionals, "circle_mean_p", spy)
        monkeypatch.setattr(theorems, "circle_mean_p", spy)
        rep = verify_T2_strip(5, q)
        assert radii.count(1.0) == 1
        [value], [est_error], _ = real([strip_example(5)], 1.0, q)
        assert (rep.lhs, rep.quad_error) == (value, est_error)


class TestVerifyT1:
    def test_constant_map_margin_positive(self, q):
        rep = verify_T1(analytic(0.5), 1.0, 0.01, q)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.params["zygmund_plus"] == 0.0
        assert rep.margin > 0.0

    def test_margin_with_estimated_constant(self, q_fast):
        for seed in range(5):
            m = random_qr_map(seed, 0.3)
            rep = verify_T1(m, 1.0, 1.0, q_fast)
            assert rep.margin >= -rep.quad_error
            assert rep.params["empirical_constant"] > 0.0

    def test_k1_corpus_reports_classical_envelope(self, q_fast):
        # analytic corpus: empirical constant stays far below the classical
        # envelope A ||u log+ u|| + B with A = 1, B = 6 pi e
        for seed in range(5):
            m = random_qr_map(seed, 0.0)
            rep = verify_T1(m, 1.0, 1.0, q_fast)
            envelope = rep.params["zygmund_plus"] + 6.0 * math.pi * math.e
            assert rep.lhs <= envelope

    def test_rejects_nonpositive_constant(self, q):
        with pytest.raises(HypothesisViolation):
            verify_T1(analytic(0.5), 1.0, 0.0, q)


class TestVerifyT3:
    def test_constant_family_zero_margin(self, q):
        rep = verify_T3_affine(AffineBallMap(n=3, c=1.0, a=0.0), q)
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.0, abs=1e-14)

    def test_m2_family(self, q):
        rep = verify_T3_affine(AffineBallMap(n=3, c=4.0, a=2.0), q)
        assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert rep.rhs == pytest.approx(phi_of_m(2.0), abs=1e-8)
        assert rep.margin >= 0.0

    def test_gap_closes_as_m_grows(self, q):
        gaps = [verify_T3_affine(AffineBallMap(n=3, c=m * m, a=m), q).margin
                for m in (2.0, 5.0, 10.0, 20.0)]
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
        assert all(g >= 0.0 for g in gaps)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_small_a_ratio_near_limit(self, n, q):
        rep = verify_T3_affine(AffineBallMap(n=n, c=1.0, a=0.01), q)
        assert rep.margin >= -1e-9
        ratio = rep.lhs / rep.params["Y"]
        assert abs(ratio - (n - 1)) / (n - 1) < 0.05

    def test_hypothesis_guard(self, q):
        with pytest.raises(HypothesisViolation):
            verify_T3_affine(AffineBallMap(n=3, c=1.0, a=1.5), q)


def per_seed_fuzz(seeds: int, k: float, degree: int, q, margin: float = 0.05) -> FuzzSummary:
    """fuzz_search as one verify_T2 per seed, each measuring its own K."""
    worst, best, witness = math.inf, 0.0, ""
    for seed in range(seeds):
        m = random_qr_map(seed, k, degree, margin)
        rep = verify_T2(m, 1.0, q, dilatation_grid=CORPUS_DILATATION_GRID)
        worst = min(worst, rep.margin)
        if rep.lhs / rep.rhs > best:
            best, witness = rep.lhs / rep.rhs, map_to_json(m)
    return FuzzSummary(seeds=seeds, worst_margin=worst, best_ratio=best, witness=witness)


def alone_means(m: PlanarHarmonicMap, r: float, q: QuadratureSpec):
    """(M_1, mean u log u) of one map, each refined by itself: (value,
    est_error, nodes) twice."""
    def ulogu(n, shift, rows):
        u = circle_values(m.g.coeffs, m.h.coeffs, r, n, shift).real
        return u * np.log(u)

    [m1], [m1_err], m1_nodes = circle_mean_p([m], r, q)
    return (m1, m1_err, m1_nodes), refined_circle_mean(ulogu, q)


class TestVerifyT2Stack:
    """fuzz_search verifies a chunk of maps as one stack; each row must be
    the report verify_T2 gives its map alone, bit for bit, with M_1 and the
    entropy each stopping at its own level."""

    def test_rows_settle_at_their_own_levels(self):
        q16 = QuadratureSpec(circle_nodes=16)
        maps = [random_qr_map(seed, 0.5, 16) for seed in range(50)]
        rows = theorems._verify_T2_stack(maps, 1.0, q16, None, CORPUS_DILATATION_GRID)
        levels, samples = Counter(), 0
        for m, row in zip(maps, rows):
            alone = verify_T2(m, 1.0, q16, dilatation_grid=CORPUS_DILATATION_GRID)
            assert row == alone
            (m1, m1_err, m1_nodes), (ent, ent_err, ent_nodes) = alone_means(m, 1.0, q16)
            assert (row.lhs, row.params["entropy"]) == (m1, ent)
            K = row.params["K"]
            assert row.quad_error == (m1_err + K ** 2 * ent_err
                                      + theorems._rounding_error(m, K ** 2))
            levels[m1_nodes, ent_nodes] += 1
            samples += max(m1_nodes, ent_nodes)
        assert levels == {(256, 256): 28, (512, 256): 21, (512, 512): 1}
        # a row is sampled until its last mean settles, and no further
        assert circle_mean_p(maps, 1.0, q16, entropy=True)[2] == samples
        summary = fuzz_search(50, 0.5, 16, q16)
        assert summary == per_seed_fuzz(50, 0.5, 16, q16)

    @pytest.mark.parametrize("degree, r", [(2, 1.0), (40, 1.0), (16, 0.9), (2, 0.9)])
    def test_rows_are_the_maps_alone(self, degree, r, q_fast):
        for q in (q_fast, QuadratureSpec(circle_nodes=16)):
            maps = [random_qr_map(seed, 0.5, degree) for seed in range(20)]
            rows = theorems._verify_T2_stack(maps, r, q, None, CORPUS_DILATATION_GRID)
            for m, row in zip(maps, rows):
                assert row == verify_T2(m, r, q, dilatation_grid=CORPUS_DILATATION_GRID)


    @pytest.mark.parametrize("bad", [
        # h != 0 and no omega: the stack finds this before it samples
        PlanarHarmonicMap(g=ComplexSeries((1.0, 0.1)), h=ComplexSeries((0.0, 0.1))),
        # u = 0.5 + cos t changes sign: the stack finds this at its first level
        PlanarHarmonicMap(g=ComplexSeries((0.5, 1.0)), h=ComplexSeries.zero()),
    ])
    def test_stack_raises_the_first_maps_error(self, bad, monkeypatch):
        # seed 0 fails to converge, which the stack finds only after its
        # last level, so a failure of seed 1 surfaces first in the stack
        q = QuadratureSpec(circle_nodes=16, refinement_limit=4)
        first = random_qr_map(0, 0.5, 16)
        with pytest.raises(HqzError) as want:
            verify_T2(first, 1.0, q, dilatation_grid=CORPUS_DILATATION_GRID)
        with pytest.raises(HypothesisViolation):
            verify_T2(bad, 1.0, q, dilatation_grid=CORPUS_DILATATION_GRID)
        with pytest.raises(HypothesisViolation):
            theorems._verify_T2_stack([first, bad], 1.0, q, None, CORPUS_DILATATION_GRID)
        real, chunks = theorems.random_qr_maps, []

        def corpus(seeds, *args):  # the chunk builder fuzz_search calls, with bad as seed 1
            chunks.append(list(seeds))
            return [bad if seed == 1 else m for seed, m in zip(seeds, real(seeds, *args))]

        monkeypatch.setattr(theorems, "random_qr_maps", corpus)
        with pytest.raises(type(want.value)) as got:
            fuzz_search(2, 0.5, 16, q)
        assert str(got.value) == str(want.value)
        assert chunks == [[0, 1], [0]]  # the stack failed, then seed 0 failed alone


class TestFuzzSearch:
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.5])
    def test_batches_match_per_seed_verification(self, k, q_fast):
        got = fuzz_search(35, k, 16, q_fast)
        want = per_seed_fuzz(35, k, 16, q_fast)
        assert got.seeds == want.seeds
        assert abs(got.worst_margin - want.worst_margin) <= 1e-15
        assert abs(got.best_ratio - want.best_ratio) <= 1e-15
        assert got.witness == want.witness

    def test_failing_batch_raises_the_per_seed_error(self, q_fast):
        # a positivity margin of 0.95 leaves seed 3 (c0 < 0.95) no budget,
        # after seeds 0-2 have been verified
        with pytest.raises(HqzError) as want:
            per_seed_fuzz(5, 0.5, 16, q_fast, 0.95)
        with pytest.raises(type(want.value)) as got:
            fuzz_search(5, 0.5, 16, q_fast, positivity_margin=0.95)
        assert str(got.value) == str(want.value)
        assert fuzz_search(3, 0.5, 16, q_fast, positivity_margin=0.95).seeds == 3

    @pytest.mark.parametrize("k, limit, margin, failing", [
        # seed 0 does not converge in 3 doublings from 16 nodes, seed 1
        # does, and seeds 2 and 3 (c0 < 1.3) cannot be built: the stack of
        # seeds 0-1 raises seed 0's error before seed 2's
        (0.1, 3, 1.3, "V.BB"),
        # seeds 0, 2 and 4 fail to converge, each with its own last change,
        # in one stack: the error is seed 0's
        (0.5, 4, 0.05, "V.V.V."),
        # seed 3 cannot be built, after seeds 0-2 are verified, and seed 4,
        # which would not converge, is never reached
        (0.5, 4, 0.95, "...BV"),
    ])
    def test_stack_raises_the_per_seed_error(self, k, limit, margin, failing):
        q = QuadratureSpec(circle_nodes=16, refinement_limit=limit)
        pattern = ""
        for seed in range(len(failing)):
            try:
                m = random_qr_map(seed, k, 16, margin)
            except HqzError:
                pattern += "B"
                continue
            try:
                verify_T2(m, 1.0, q, dilatation_grid=CORPUS_DILATATION_GRID)
                pattern += "."
            except HqzError:
                pattern += "V"
        assert pattern == failing
        with pytest.raises(HqzError) as want:
            per_seed_fuzz(len(failing), k, 16, q, margin)
        with pytest.raises(type(want.value)) as got:
            fuzz_search(len(failing), k, 16, q, positivity_margin=margin)
        assert str(got.value) == str(want.value)

    def test_empty_corpus_vacuous(self, q_fast):
        s = fuzz_search(0, 0.3, 16, q_fast)
        assert s.seeds == 0
        assert s.worst_margin == math.inf
        assert s.best_ratio == 0.0
        assert s.witness == ""

    def test_singleton_matches_direct_verification(self, q_fast):
        s = fuzz_search(1, 0.0, 16, q_fast)
        m = random_qr_map(0, 0.0)
        rep = verify_T2(m, 1.0, q_fast)
        assert s.worst_margin == pytest.approx(rep.margin, abs=1e-12)
        assert s.best_ratio == pytest.approx(rep.lhs / rep.rhs, abs=1e-12)

    def test_deterministic(self, q_fast):
        a = fuzz_search(5, 0.3, 16, q_fast)
        b = fuzz_search(5, 0.3, 16, q_fast)
        assert a == b

    def test_witness_round_trips(self, q_fast):
        s = fuzz_search(5, 0.3, 16, q_fast)
        m = map_from_json(s.witness)
        assert m.k_declared == 0.3

    def test_margins_nonnegative_small_corpus(self, q_fast):
        s = fuzz_search(25, 0.5, 16, q_fast)
        assert s.worst_margin >= -1e-9
        assert s.best_ratio <= 1.0 + 1e-12

    def test_analytic_corpus_ratio_approaches_one(self, q_fast):
        # near-constant draws with u(0) near the entropy maximizer push the
        # two sides together, so the tightness probe closes in on 1
        s = fuzz_search(50, 0.0, 16, q_fast)
        assert s.best_ratio <= 1.0 + 1e-12
        assert s.best_ratio > 0.99
