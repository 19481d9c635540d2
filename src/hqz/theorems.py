"""Explicit verifiers for the three Zygmund-type inequalities, plus a
randomized tightness search.

Each verifier evaluates both sides of one inequality instance with the
quadrature machinery and returns a TheoremReport whose margin
(rhs - lhs) must stay above -quad_error.  The planar sharp bound reads

    M_1(r, f) <= K^2 ( exp(-1 + 1/K^2) + (1/2pi) int u log u dt )

for K-quasiregular f with u = Re f > 0 and v(0) = 0; its affine-family
analogue on the ball is

    X(f) <= K^2 (n - 1) Y(f)

(K = 1 for the affine family), and the non-sharp planar bound carries
the symbolic square-function constants c1, c2, supplied by the caller
because they are estimated, not computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .ball import AffineBallMap, X_of, Y_of
from .errors import HypothesisViolation
from .functionals import circle_mean_p, zygmund_plus_report
from .planar import PlanarHarmonicMap, dilatation_upper, map_to_json, random_qr_maps
from .quadrature import DEFAULT_SPEC, QuadratureSpec, chunk_stacks

#: tolerance for the v(0) = 0 hypothesis; constructions satisfy it exactly
V0_TOL = 1e-12

#: the grid fuzz_search hands dilatation_upper; only its circle_nodes is read,
#: as a floor on the certificate's nodes, which corpus maps exceed anyway
CORPUS_DILATATION_GRID = QuadratureSpec(circle_nodes=256)

#: the classical-theorem envelope constant 2 (6 pi e + 1) appearing in the
#: non-sharp bound
T1_ENVELOPE = 2.0 * (6.0 * math.pi * math.e + 1.0)


@dataclass(frozen=True)
class TheoremReport:
    params: Mapping[str, float]
    lhs: float
    rhs: float
    margin: float
    quad_error: float


@dataclass(frozen=True)
class FuzzSummary:
    seeds: int
    worst_margin: float
    best_ratio: float
    witness: str


def _resolve_K(maps: Sequence[PlanarHarmonicMap], K: float | None,
               dilatation_grid: QuadratureSpec | None) -> list[float]:
    """K as given for every map, else K(k_upper) of each certified dilatation."""
    if K is not None:
        if K < 1.0:
            raise HypothesisViolation("K must be >= 1")
        return [float(K)] * len(maps)
    return [(1.0 + k) / (1.0 - k) for k in dilatation_upper(maps, dilatation_grid)]


def _rounding_error(m: PlanarHarmonicMap, weight: float) -> float:
    """How far lhs - weight * mean phi(u) of the stored map can sit from that
    of the exact map with dilatation omega, for phi(x) = x log x or
    |x| log+ |x|: f moves by at most d = m.h_rounding on the closed disk, so
    M_1 by d and phi(u) by d (2 + 2 |log d| + log+ B) where |u| <= B."""
    d = m.h_rounding
    if d == 0.0:
        return 0.0
    B = m.g.coeff_abs_sum() + m.h.coeff_abs_sum() + d
    return d * (1.0 + weight * (2.0 + 2.0 * abs(math.log(d)) + max(math.log(B), 0.0)))


def _t2_report(m: PlanarHarmonicMap, K: float, mean_abs_f: float, mean_abs_f_err: float,
               ent: float, ent_err: float) -> TheoremReport:
    """One map's sharp-bound report from its K and its two circle means."""
    rhs = K ** 2 * (math.exp(-1.0 + K ** -2) + ent)
    return TheoremReport(
        params={"K": K, "k": (K - 1.0) / (K + 1.0), "entropy": ent},
        lhs=mean_abs_f,
        rhs=rhs,
        margin=rhs - mean_abs_f,
        quad_error=mean_abs_f_err + K ** 2 * ent_err + _rounding_error(m, K ** 2),
    )


def _verify_T2_stack(maps: Sequence[PlanarHarmonicMap], r: float, q: QuadratureSpec,
                     K: float | None,
                     dilatation_grid: QuadratureSpec | None) -> list[TheoremReport]:
    """``verify_T2`` of every map as one stack: one dilatation FFT per
    omega degree, one circle sampling per level for M_1 and the entropy.
    Each report is the one ``verify_T2`` gives for its map alone."""
    for m in maps:
        v0 = m.f0().imag
        if abs(v0) > V0_TOL:
            raise HypothesisViolation(f"v(0) = {v0:.3e}, expected 0")
    Ks = _resolve_K(maps, K, dilatation_grid)
    values, errors, _ = circle_mean_p(maps, r, q, entropy=True)
    return [_t2_report(m, K_val, lhs, lhs_err, ent, ent_err)
            for m, K_val, (lhs, ent), (lhs_err, ent_err) in zip(maps, Ks, values, errors)]


def verify_T2(m: PlanarHarmonicMap, r: float, q: QuadratureSpec,
              K: float | None = None,
              dilatation_grid: QuadratureSpec | None = None) -> TheoremReport:
    """Sharp planar bound for positive real part and v(0) = 0.

    K is K(k_upper) of the certified dilatation unless supplied.
    quad_error adds the rounding of the stored h' to the quadrature
    estimates.  This is the one-map stack of ``fuzz_search``.
    """
    return _verify_T2_stack([m], r, q, K, dilatation_grid)[0]


def verify_T1(m: PlanarHarmonicMap, r: float, c1c2: float, q: QuadratureSpec) -> TheoremReport:
    """Non-sharp planar bound M_1 <= 2(6 pi e + 1) c1c2 K (1 + zygmund_plus).

    The square-function constants enter as the caller-supplied product
    c1c2; the report also carries the hypothesis-free empirical constant
    lhs / (1 + zygmund_plus) for comparison with corpus estimates.  K is
    K(k_upper) of the certified dilatation, and quad_error is as in
    ``verify_T2``.
    """
    if c1c2 <= 0.0:
        raise HypothesisViolation("c1c2 must be positive")
    [K_val] = _resolve_K([m], None, None)
    zp, zp_err, _ = zygmund_plus_report(m, r, q)
    [lhs], [lhs_err], _ = circle_mean_p([m], r, q)
    rhs = T1_ENVELOPE * c1c2 * K_val * (1.0 + zp)
    quad_error = (lhs_err + T1_ENVELOPE * c1c2 * K_val * zp_err
                  + _rounding_error(m, T1_ENVELOPE * c1c2 * K_val))
    return TheoremReport(
        params={"K": K_val, "c1c2": c1c2, "zygmund_plus": zp,
                "empirical_constant": lhs / (1.0 + zp)},
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        quad_error=quad_error,
    )


def verify_T3_affine(m: AffineBallMap, q: QuadratureSpec) -> TheoremReport:
    """Ball inequality X(f) <= (n-1) Y(f) on the affine family (K = 1).

    The rhs uses the quadrature entropy difference Y directly.
    """
    if m.c <= m.a:
        raise HypothesisViolation(f"need c > a for positive u (c={m.c}, a={m.a})")
    x = X_of(m, q)
    y = Y_of(m, q)
    rhs = (m.n - 1) * y
    return TheoremReport(
        params={"n": float(m.n), "c": m.c, "a": m.a, "Y": y},
        lhs=x,
        rhs=rhs,
        margin=rhs - x,
        quad_error=2.0 * q.abs_tol * max(1, m.n),
    )


def fuzz_search(seeds: int, k: float, degree: int = 16,
                q: QuadratureSpec = DEFAULT_SPEC, r: float = 1.0,
                positivity_margin: float = 0.05) -> FuzzSummary:
    """Run the sharp planar verifier across the deterministic corpus.

    Seeds go in chunks of STACK_CHUNK (``quadrature.chunk_stacks``): a
    chunk builds its maps with one ``random_qr_maps`` call, each map the
    one ``random_qr_map`` gives its seed alone, and verifies them as one
    stack, whose reports are those ``verify_T2`` gives each map alone, with
    its certified K.  The first seed that fails to build or verify raises,
    after the seeds before it are verified, as one ``verify_T2`` per seed
    would.  Returns the worst margin (NaN once any margin is NaN), the best
    lhs/rhs ratio (tightness), and the serialized first map attaining that
    ratio.  seeds = 0 yields the vacuous summary (infinite worst margin,
    zero best ratio, empty witness).
    """
    def verify(chunk: Sequence[int]) -> tuple[list, list[TheoremReport]]:
        maps = random_qr_maps(chunk, k, degree, positivity_margin)
        return maps, _verify_T2_stack(maps, r, q, None, CORPUS_DILATATION_GRID)

    worst, best, witness = math.inf, 0.0, None
    for maps, reports in chunk_stacks(range(seeds), verify):
        for m, rep in zip(maps, reports):
            if math.isnan(rep.margin) or rep.margin < worst:  # a NaN margin sticks
                worst = rep.margin
            if rep.lhs / rep.rhs > best:
                best, witness = rep.lhs / rep.rhs, m
    return FuzzSummary(seeds=seeds, worst_margin=worst, best_ratio=best,
                       witness="" if witness is None else map_to_json(witness))
