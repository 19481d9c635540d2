"""Circle functionals on harmonic maps.

The integral mean M_1(r, f), the h^1 norm estimate for polynomial data,
the two entropy-type functionals

    zygmund_plus_report:    (1/2pi) int |u| log+ |u| dt   (log+ x = max(log x, 0))
    circle_mean_p, entropy: (1/2pi) int  u  log  u  dt    (requires u > 0)

with u = Re f, the Poisson extension on the disk, and the radial square
function

    G[H](z) = ( int_0^1 |H'(rho z)|^2 (1 - rho) d rho )^(1/2)

whose L1 comparison constants against ||H||_1 are estimated empirically
from a corpus; ``calderon_norms`` takes that corpus in stacks of
STACK_CHUNK series, one ``circle_values`` call per level for each norm.
Circle integrals of smooth integrands use the periodic trapezoid rule
with doubling refinement (``quadrature.refined_circle_mean``) on values
from the FFT circle engine (``series.circle_values``); |f| is
merely piecewise smooth where f vanishes, so the refinement-based error
control is not optional.  |u| log+ |u| has a corner wherever |u| crosses
1, which caps the trapezoid rule at second order, so ``zygmund_plus_report``
finds those crossings and integrates each arc between them by
Gauss-Legendre instead.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, HypothesisViolation, NoConvergence
from .planar import PlanarHarmonicMap
from .quadrature import (QuadratureSpec, chunk_stacks, circle_angles, gauss_legendre,
                         refine, refined_circle_mean)
from .series import ComplexSeries, circle_values, horner, stacked

#: evaluation points closer to the boundary than this are rejected by the
#: Poisson quadrature
POISSON_FLOOR = 1e-2

#: dyadic radius grid used as the monotonicity cross-check in the norm estimate
HARDY_RADII = tuple(1.0 - 2.0 ** -j for j in range(1, 7))

#: zygmund_plus stops splitting a grid interval that may hide a crossing
#: pair once its worst-case share of the mean is below this fraction of
#: abs_tol, and adds that share to est_error instead
UNRESOLVED_SHARE = 2.0 ** -20

#: Newton on a crossing stops at a step this small (radians): the
#: integrand vanishes there, so a root error d moves the mean by O(u' d^2)
NEWTON_STEP = 1e-12

_EPS = float(np.finfo(float).eps)


def circle_mean_p(maps: Sequence[PlanarHarmonicMap], r: float, q: QuadratureSpec,
                  entropy: bool = False) -> tuple[list, list, int]:
    """M_1(r, f) = (1/2pi) int |f(r e^it)| dt of each map, and with
    ``entropy`` also (1/2pi) int u log u dt of u = Re f from the same samples.

    The maps are one stack of ``refined_circle_mean``: each level samples
    f on every row still refining by one ``circle_values`` call, and each
    mean stops at its own level.  Returns (values, est_errors, nodes): one
    M_1 per map, or one [M_1, mean u log u] pair per map with ``entropy``,
    and the samples of f over all maps.  With ``entropy`` every sample of u
    must be positive, or HypothesisViolation; the mean may be negative.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    G, H = stacked([m.g for m in maps]), stacked([m.h for m in maps])

    def sample(n: int, shift: bool, rows) -> np.ndarray:
        f = circle_values(G[rows], H[rows], r, n, shift)
        if not entropy:
            return np.abs(f)
        u = f.real
        if (u <= 0.0).any():
            raise HypothesisViolation(f"u must be positive on the circle: "
                                      f"min u = {u.min():.3e} <= 0 on the circle of radius {r}")
        return np.stack((np.abs(f), u * np.log(u)), axis=1)

    return refined_circle_mean(sample, q, context=f"M_1(r={r})"
                               + (" and mean u log u" if entropy else ""))


def hardy_norm_estimate(m: PlanarHarmonicMap,
                        q: QuadratureSpec) -> tuple[float, float, int]:
    """sup over radii of M_1(r, f), reported as M_1(1, f), which it equals
    for polynomial data.

    The dyadic radius grid is evaluated as a cross-check: |f| is
    subharmonic, so the means must be nondecreasing in r up to quadrature
    error, and a decrease beyond tolerance raises NoConvergence.
    """
    radii = HARDY_RADII + (1.0,)
    reports = [(value, err, nodes)
               for [value], [err], nodes in (circle_mean_p([m], r, q) for r in radii)]
    for j, ((lo, lo_err, _), (hi, hi_err, _)) in enumerate(zip(reports, reports[1:])):
        slack = lo_err + hi_err + 1e-12
        if hi < lo - slack:
            raise NoConvergence(
                f"M_1 decreased from {lo!r} (r={radii[j]}) to {hi!r} "
                f"(r={radii[j + 1]}) beyond tolerance {slack:.3e}")
    return reports[-1]


def _log_plus(x: np.ndarray) -> np.ndarray:
    """x * log+(x) for x >= 0, with the x <= 1 branch exactly zero."""
    out = np.zeros_like(x)
    mask = x > 1.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def _guarded_intervals(Fr: np.ndarray, u: np.ndarray, b2: float, abs_tol: float):
    """Split the grid intervals of u until none can hide a crossing pair.

    u holds the values of u(t) = Re sum_j Fr_j e^(ijt) at the n uniform
    angles.  |u''| <= B2 = sum_j j^2 |Fr_j|, so on an interval of width w
    u lies within B2 w^2 / 8 of the chord through its end values; where
    both ends are farther than that from the levels +-1, each level is
    crossed at most once, and exactly where its sign changes.  Intervals
    that fail this test are halved (one Horner call per pass for all of
    them) until their worst case, a set of width w on which |u| is within
    B2 w^2 / 8 of 1, weighs below UNRESOLVED_SHARE * abs_tol.

    Returns (left ends, widths, u at left ends, u at right ends, the
    summed worst cases of the intervals kept unresolved, evaluations).
    """
    n = u.size
    t, w, ua, ub = circle_angles(n), np.full(n, 2.0 * np.pi / n), u, np.roll(u, -1)
    kept, unresolved, evaluations = [], 0.0, 0
    while t.size:
        slack = b2 * w * w / 8.0
        near = np.minimum(np.abs(np.abs(ua) - 1.0), np.abs(np.abs(ub) - 1.0)) <= slack
        x = 1.0 + slack
        worst = w * x * np.log(x) / (2.0 * np.pi)
        accept = near & (worst <= UNRESOLVED_SHARE * abs_tol)
        unresolved += float(worst[accept].sum())
        split = near & ~accept
        kept.append((t[~split], w[~split], ua[~split], ub[~split]))
        t, w, ua, ub = t[split], 0.5 * w[split], ua[split], ub[split]
        if t.size:
            um = horner(Fr, np.exp(1j * (t + w))).real
            evaluations += um.size
            t, w = np.concatenate((t, t + w)), np.concatenate((w, w))
            ua, ub = np.concatenate((ua, um)), np.concatenate((um, ub))
    t, w, ua, ub = (np.concatenate(col) for col in zip(*kept))
    return t, w, ua, ub, unresolved, evaluations


def _crossings(Fr: np.ndarray, t, w, ua, ub,
               rounding: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Every t where u = +-1, sorted, with whether |u| > 1 just after it.

    The brackets are the intervals on which u - 1 or u + 1 changes sign;
    each root starts at the chord's zero and takes safeguarded Newton
    steps, u and u' from one stacked Horner call per step, with a step
    that leaves the shrinking bracket replaced by bisection.  A root
    stops at a step of at most NEWTON_STEP or where |u - c| is within u's
    ``rounding``.  Returns (roots, outside after each root, evaluations).
    """
    brackets = []
    for c in (1.0, -1.0):
        sa, sb = ua > c, ub > c
        br = sa != sb
        brackets.append((np.full(int(br.sum()), c), t[br], t[br] + w[br], ua[br] - c,
                         ub[br] - c, sb[br] if c > 0 else ~sb[br]))
    c, a, b, fa, fb, after = (np.concatenate(col) for col in zip(*brackets))
    start = a.copy()
    root = a + (b - a) * fa / (fa - fb)
    rows = np.stack((Fr, 1j * np.arange(Fr.size) * Fr))
    left_pos = fa > 0.0
    active = np.arange(root.size)
    evaluations = 0
    while active.size:
        u, du = horner(rows, np.exp(1j * root[active])).real
        evaluations += active.size
        phi = u - c[active]
        same = (phi > 0.0) == left_pos[active]
        a[active] = np.where(same, root[active], a[active])
        b[active] = np.where(same, b[active], root[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = phi / du
        new = root[active] - step
        inside = (new >= a[active]) & (new <= b[active])
        settled = np.abs(phi) <= rounding
        root[active] = np.where(settled, root[active],
                                np.where(inside, new, 0.5 * (a[active] + b[active])))
        done = settled | (inside & (np.abs(step) <= NEWTON_STEP)) | (
            b[active] - a[active] <= NEWTON_STEP)
        active = active[~done]
    order = np.lexsort((root, start))  # brackets in circle order: ties keep it
    return root[order], after[order], evaluations


def zygmund_plus_report(m: PlanarHarmonicMap, r: float,
                        q: QuadratureSpec) -> tuple[float, float, int]:
    """((1/2pi) int |u(r e^it)| log+ |u(r e^it)| dt, est_error, nodes) for
    u = Re f = Re (g + h); nodes counts the evaluations of u.

    u is sampled at N = n0 2^j angles, the least with j >= 1 and
    N >= 8 (deg F + 1), F = g + h, n0 = circle_nodes, by interleaving the
    first levels of the trapezoid rule, and ``_guarded_intervals`` makes
    sure that no crossing of |u| = 1 hides between two samples.  Without a
    crossing the mean is 0 if |u| < 1 everywhere, and else the refined
    trapezoid mean of smooth |u| log |u|, which reuses those levels.
    Otherwise ``_crossings`` locates each crossing and every arc where
    |u| > 1 is cut into panels of width at most 2 pi / (deg F + 1) and
    integrated by Gauss-Legendre, refined from 8 nodes per panel by
    ``quadrature.refine``: |u| log |u| is analytic on each arc, so two
    agreeing levels bound the error.  est_error adds the worst case of
    the intervals the guard left unresolved and, to a nonzero mean, the
    rounding of u, at most 2 (deg F + 1 + log2 N) eps B0 with
    B0 = sum_j |F_j| r^j >= |u|, times sup (1 + log |u|).  Refuses a map
    whose bound B2 = sum_j j^2 |F_j| r^j >= |u''| overflows.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    F = (m.g + m.h).coeffs
    Fr = F * r ** np.arange(F.size)
    b2 = float(np.sum(np.arange(F.size) ** 2 * np.abs(Fr)))
    if not math.isfinite(b2):  # no interval could pass the guard
        raise DomainError(f"zygmund_plus needs a finite bound on u'', got {b2}")
    g, h = m.g.coeffs, m.h.coeffs
    # the grid interleaves the trapezoid's levels n0, then n0, 2 n0, ... N/2
    # shifted, so the mean without a crossing starts from its samples
    n0 = q.circle_nodes
    levels = {(n0, False): circle_values(g, h, r, n0).real}
    u = levels[n0, False]
    while u.size < max(2 * n0, 8 * F.size):
        levels[u.size, True] = circle_values(g, h, r, u.size, True).real
        u = np.stack((u, levels[u.size, True]), axis=-1).reshape(-1)
    n = u.size
    b0 = float(np.abs(Fr).sum())
    rounding = 2.0 * (F.size + math.log2(n)) * _EPS * b0
    t, w, ua, ub, unresolved, splits = _guarded_intervals(Fr, u, b2, q.abs_tol)
    roots, outside, polish = _crossings(Fr, t, w, ua, ub, rounding)
    evaluations = n + splits + polish
    if roots.size == 0 and abs(u[0]) <= 1.0:
        return 0.0, unresolved, evaluations
    floor = unresolved + rounding * (1.0 + math.log(max(b0, 1.0)))
    if roots.size == 0:
        def sample(k: int, shift: bool, rows) -> np.ndarray:
            uk = levels.get((k, shift))
            return _log_plus(np.abs(circle_values(g, h, r, k, shift).real if uk is None else uk))

        value, err, nodes = refined_circle_mean(sample, q, context="zygmund_plus")
        return value, err + floor, evaluations + max(nodes - n, 0)
    ends = np.append(roots[1:], roots[0] + 2.0 * np.pi)
    width = 2.0 * np.pi / F.size
    cuts = [np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)
            for lo, hi in zip(roots[outside], ends[outside])]
    lo = np.concatenate([c[:-1] for c in cuts])[:, None]
    hi = np.concatenate([c[1:] for c in cuts])[:, None]

    def level(nodes: int, _) -> float:
        nonlocal evaluations
        s, wts = gauss_legendre(nodes, lo, hi)
        v = np.abs(horner(Fr, np.exp(1j * s)).real)
        evaluations += v.size
        return float(np.sum(wts * v * np.log(v))) / (2.0 * np.pi)

    value, err, _ = refine(level, 8, q, "zygmund_plus")
    return value, err + floor, evaluations


def poisson_kernel(x: complex, theta: np.ndarray) -> np.ndarray:
    """P(x, e^it) = (1 - |x|^2) / |x - e^it|^2, the disk case of the ball kernel."""
    eta = np.exp(1j * theta)
    return (1.0 - abs(x) ** 2) / np.abs(x - eta) ** 2


def poisson_extend_circle(boundary, x: complex, q: QuadratureSpec) -> float:
    """Harmonic extension (1/2pi) int P(x, e^it) phi(t) dt of circle data.

    ``boundary`` is a callable t -> phi(t), sampled uniformly with
    refinement.  Points with 1 - |x| < POISSON_FLOOR raise DomainError.
    """
    x = complex(x)
    if 1.0 - abs(x) < POISSON_FLOOR:
        raise DomainError(f"1 - |x| = {1.0 - abs(x):.3e} below floor {POISSON_FLOOR:.1e}")

    def integrand(n: int, shift: bool, rows) -> np.ndarray:
        theta = circle_angles(n, shift)
        return poisson_kernel(x, theta) * np.asarray(boundary(theta), dtype=float)

    return refined_circle_mean(integrand, q, context="poisson_extend_circle")[0]


def calderon_square(H: ComplexSeries, z: complex) -> float:
    """G[H](z) = sqrt( int_0^1 |H'(rho z)|^2 (1 - rho) d rho )."""
    if abs(z) > 1.0 + 1e-12:
        raise DomainError("|z| must be <= 1")
    Hp = H.derivative()
    # the Gauss-Legendre count that makes the |H'|^2 (1 - rho) integral exact
    rho, w = gauss_legendre(max(16, Hp.trimmed().degree + 1), 0.0, 1.0)
    vals = Hp(rho * complex(z))
    return float(np.sqrt(np.sum(w * (1.0 - rho) * (vals.real ** 2 + vals.imag ** 2))))


def _square_function_series(corpus: Sequence[ComplexSeries]) -> np.ndarray:
    """Coefficients c_m, m >= 0, of G[H]^2 on the unit circle: one zero-padded
    row per series of the corpus.

    With H' = sum_j j a_j z^(j-1) and int_0^1 rho^(j+k-2) (1 - rho) d rho
    = 1/((j+k-1)(j+k)), G[H](e^it)^2 = sum_m c_m e^(imt) with
    c_m = sum_{j-k=m} j k a_j conj(a_k) / ((j+k-1)(j+k)), j, k >= 1.
    This is a Hermitian trigonometric polynomial: c_-m = conj(c_m).
    The series of one length share one (rows x d x d) array of the terms
    and one trace per diagonal: np.trace sums by pairs, so the length of a
    diagonal, padding included, sets the bits of its sum.
    """
    sizes = np.array([H.coeffs.size for H in corpus])
    A = stacked(corpus)
    C = np.zeros((len(corpus), max(A.shape[1] - 1, 1)), dtype=complex)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        j = np.arange(1, size)
        b = j * A[rows, 1:size]
        s = j[:, None] + j[None, :]
        terms = b[:, :, None] * np.conjugate(b)[:, None, :] / ((s - 1) * s)  # row j, column k
        for m in range(size - 1):
            C[rows, m] = np.trace(terms, -m, axis1=1, axis2=2)
    return C


def _calderon_stack(corpus: Sequence[ComplexSeries],
                    q: QuadratureSpec) -> list[tuple[float, float]]:
    """``calderon_norms`` of one stack of series."""
    A = stacked(corpus)
    if not np.isfinite(A).all():  # else each norm refines to its limit on NaN
        raise DomainError("the series need finite coefficients")
    if any(H.coeffs[0] != 0 for H in corpus):
        raise DomainError("the series must satisfy H(0) = 0")
    C = _square_function_series(corpus)
    C_neg = C.copy()
    C_neg[:, 0] = 0.0  # c_0 is in C already

    def square_function(n: int, shift: bool, rows) -> np.ndarray:
        return np.sqrt(np.maximum(circle_values(C[rows], C_neg[rows], 1.0, n, shift).real, 0.0))

    norm_H, _, _ = refined_circle_mean(
        lambda n, shift, rows: np.abs(circle_values(A[rows], None, 1.0, n, shift)), q,
        context="||H||_1")
    norm_GH, _, _ = refined_circle_mean(square_function, q, context="||G[H]||_1")
    if 0.0 in norm_H or 0.0 in norm_GH:
        raise DomainError("the zero series has no norm ratio")
    return list(zip(norm_H, norm_GH))


def calderon_norms(corpus: Sequence[ComplexSeries],
                   q: QuadratureSpec) -> list[tuple[float, float]]:
    """(||H||_1, ||G[H]||_1) on the unit circle of each series H of the corpus.

    Up to STACK_CHUNK series form one stack, whose two norms are two
    stacked ``refined_circle_mean`` calls: each level samples |H| on every
    row still refining by one ``circle_values`` call, and G[H]^2, the
    Hermitian trigonometric polynomial of ``_square_function_series``, by
    another, its c_m, m >= 0, filling the nonnegative frequencies and their
    conjugates the negative ones.  The real part, clipped at 0 against
    rounding, gives G[H]^2.  Each norm stops at its own level, so it is the
    same bits as the norm of its series alone.  Every H must have finite
    coefficients, satisfy H(0) = 0 and be nonzero; a stack that raises is
    rerun one series at a time, so the error is that of the first series
    that fails alone.
    """
    return [norm for norms in chunk_stacks(corpus, lambda chunk: _calderon_stack(chunk, q))
            for norm in norms]


def calderon_ratio_estimate(corpus: Sequence[ComplexSeries],
                            q: QuadratureSpec) -> tuple[float, float]:
    """Empirical lower bounds for the two square-function comparison constants.

    Returns (max ||H||_1 / ||G[H]||_1, max ||G[H]||_1 / ||H||_1) over the
    norms of ``calderon_norms``, each NaN if any ratio is; every H must
    satisfy H(0) = 0.
    """
    if len(corpus) == 0:
        raise DomainError("calderon_ratio_estimate needs a nonempty corpus")
    norms = np.array(calderon_norms(corpus, q))
    return float(np.max(norms[:, 0] / norms[:, 1])), float(np.max(norms[:, 1] / norms[:, 0]))
