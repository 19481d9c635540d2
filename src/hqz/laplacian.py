"""Closed-form Laplacians, the pointwise ratio bound, the disk Green
representation, and the entropy-maximizer analysis.

For f = g + conj(h) with f nonvanishing and u = Re f positive,

    lap |f|      = |g' - (f / conj(f)) h'|^2 / |f|
    lap(u log u) = |g' + h'|^2 / u

and the pointwise ratio of the two is bounded by K^2 for a k-quasiregular
map with K = (1+k)/(1-k).  The factor f/conj(f) equals f^2/|f|^2; the
former costs fewer operations and is what we evaluate.

The disk representation used downstream is

    |f(0)| = (1/2pi) int_{|z|=r} |f| |dz|
             - (1/2pi) iint_{|z|<r} lap|f| log(r/|z|) dx dy,

valid when |f| is smooth on the closed disk of radius r (no zeros).  With
|z| = r s the area term's kernel is r^2 (-s log s), the weight of one Gauss
rule (``quadrature.log_weight_gauss``).

The scalar analysis Phi(xi) = xi - lam * xi * log(xi) peaks at
xi = exp(-1 + 1/lam) with maximum lam * exp(-1 + 1/lam); ``phi_scan_argmax``
finds the peak by a grid scan, independently of that closed form.

The finite-difference audit checks both closed forms against a 5-point
stencil in float64, evaluated in difference form so that no difference of
nearby values cancels: a Taylor shift gives f(z0 + d) - f(z0) directly,
and |f| and u log u are differenced through
|f| - |f0| = Re(df conj(f + f0)) / (|f| + |f0|) and
u log u - u0 log u0 = du log u + u0 log1p(du / u0)
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
section 1.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, HypothesisViolation
from .planar import PlanarHarmonicMap
from .quadrature import QuadratureSpec, log_weight_gauss, refine, refined_circle_mean
from .series import circle_values, horner, stacked

#: modulus floor below which the 1/|f| closed form is refused
TAU_F = 1e-8

#: the disk grid of laplacian_ratio_sup: circles of radius j / RATIO_GRID_RADII,
#: j = 1 .. RATIO_GRID_RADII, at RATIO_GRID_ANGLES uniform angles each
RATIO_GRID_RADII = 32
RATIO_GRID_ANGLES = 256

#: values per ``rows`` call of the area rule (one radius if a circle has
#: more): one call per level through 16 radii x 512 angles, and bounded
#: memory past that (a whole level per call raised green-ball's peak RSS 8 %)
AREA_CALL_POINTS = 1 << 13


def _lap_abs_f(f, af, gp, hp):
    """|g' - (f / conj(f)) h'|^2 / |f|, elementwise on scalars or arrays,
    with af = np.abs(f) computed by the caller."""
    return np.abs(gp - (f / np.conjugate(f)) * hp) ** 2 / af


def _lap_ulogu(f, gp, hp):
    """|g' + h'|^2 / u, elementwise on scalars or arrays."""
    return np.abs(gp + hp) ** 2 / np.real(f)


def _check_domain(af_min: float, u_min: float, where: str) -> None:
    """Refuse min |f| <= TAU_F, then min u <= 0."""
    if af_min <= TAU_F:
        raise HypothesisViolation(f"min |f| = {af_min:.3e} {where}")
    if u_min <= 0.0:
        raise HypothesisViolation(f"min u = {u_min:.3e} {where}")


def laplacian_abs_f(m: PlanarHarmonicMap, z: complex) -> float:
    """lap |f| at z from the closed form; needs |f(z)| above TAU_F."""
    z = complex(z)
    f, gp, hp = m(z), m.g_prime(z), m.h_prime(z)
    af = np.abs(f)
    if af <= TAU_F:
        raise HypothesisViolation(f"|f(z)| = {af:.3e} <= {TAU_F:.1e}")
    return float(_lap_abs_f(f, af, gp, hp))


def laplacian_ulogu(m: PlanarHarmonicMap, z: complex) -> float:
    """lap(u log u) = |g' + h'|^2 / u at z; needs u(z) > 0."""
    z = complex(z)
    f, gp, hp = m(z), m.g_prime(z), m.h_prime(z)
    u = f.real
    if u <= 0.0:
        raise HypothesisViolation(f"u(z) = {u:.3e} <= 0")
    return float(_lap_ulogu(f, gp, hp))


def _value_rows(m: PlanarHarmonicMap) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows g | h, g' | 0 and h' | 0, zero-padded to one length,
    as rows of g and the one row of h: one ``circle_values`` call gives f,
    g' and h' on the same circles."""
    rows = stacked([m.g, m.g_prime, m.h_prime, m.h])
    return rows[:3], rows[3:]


def _ratio_max(num: np.ndarray, den: np.ndarray):
    """max of num / den, where 0/0 reads 0 and num/0 inf; a NaN stays NaN."""
    if (den > 0.0).all():
        return (num / den).max()
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                    np.where(num > 0.0, np.inf, 0.0)).max()


def laplacian_ratio_sup(m: PlanarHarmonicMap) -> float:
    """max over the disk grid of lap|f| / lap(u log u).

    The grid is z = 0 and the RATIO_GRID_RADII circles at RATIO_GRID_ANGLES
    angles; f, g' and h' on the circles come from one ``circle_values``
    call, and at z = 0 from the constant coefficients (h(0) = 0), taken
    apart from the circles so that no grid value is copied.  z = 0 stays
    in the domain check and in the max.  It is evaluated as one-element
    arrays, not numpy scalars: scalar operators and ``abs`` round
    differently from the array loops, and the bits would change.
    Both Laplacians vanish together only where g' = h' = 0; those 0/0
    points (e.g. constant maps) contribute 0 by convention.  Requires
    u > 0 and |f| > TAU_F on the whole grid.
    """
    radii = np.arange(1, RATIO_GRID_RADII + 1) / RATIO_GRID_RADII
    G, H = _value_rows(m)
    f, gp, hp = circle_values(G, H, radii, RATIO_GRID_ANGLES).reshape(3, -1)
    f0, gp0, hp0 = G[:, :1]
    af, af0 = np.abs(f), np.abs(f0)
    _check_domain(np.minimum(af0[0], af.min()), np.minimum(f0.real[0], f.real.min()),
                  "on the grid")
    return float(np.maximum(_ratio_max(_lap_abs_f(f0, af0, gp0, hp0), _lap_ulogu(f0, gp0, hp0)),
                            _ratio_max(_lap_abs_f(f, af, gp, hp), _lap_ulogu(f, gp, hp))))


def disk_area_log_mean(rows: Callable[[np.ndarray, int], np.ndarray], r: float,
                       q: QuadratureSpec) -> tuple[float, float]:
    """(1/2pi) iint_{|z|<r} F(z) log(r/|z|) dx dy with refinement.

    ``rows(rho, n)`` returns F at the n uniform angles 2 pi k / n on the
    circles |z| = rho_i, one row per radius.  Polar form with rho = r s:
    the radial factor -s log s is the weight of the n_rad-node Gauss rule
    ``log_weight_gauss``, the angle goes by the periodic trapezoid rule
    on n_ang0 n_rad / n_rad0 angles, ``AREA_CALL_POINTS`` values per
    ``rows`` call; ``refine`` doubles n_rad, to an abs_tol of at least
    1e-12.  Returns (value, est_error).
    """
    n_rad0, n_ang0 = max(8, q.radial_nodes // 4), max(64, q.circle_nodes // 2)

    def level(n_rad: int, _) -> float:
        s, w = log_weight_gauss(n_rad)
        n_ang = n_ang0 * (n_rad // n_rad0)
        step = max(1, AREA_CALL_POINTS // n_ang)
        means = np.concatenate([rows(r * s[i:i + step], n_ang).mean(axis=1)
                                for i in range(0, n_rad, step)])
        return r * r * float(np.dot(w, means))

    floored = replace(q, abs_tol=max(q.abs_tol, 1e-12))
    return refine(level, n_rad0, floored, "disk area integral")[:2]


def disk_green_identity(m: PlanarHarmonicMap, r: float, q: QuadratureSpec) -> float:
    """Residual |f(0)| - [circle mean of |f| - area term] for nonvanishing f."""
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    G, H = _value_rows(m)
    # probe |f| at 0 and on 48 circles of 256 angles out to radius r
    probe = np.abs(circle_values(m.g.coeffs, m.h.coeffs, r * np.arange(1, 49) / 48, 256))
    af_min = min(float(probe.min()), abs(m.f0()))
    if af_min <= TAU_F:
        raise HypothesisViolation(
            f"min |f| = {af_min:.3e} on the closed disk of radius {r}")

    boundary, _, _ = refined_circle_mean(
        lambda n, shift, rows: np.abs(circle_values(m.g.coeffs, m.h.coeffs, r, n, shift)), q,
        context="circle mean of |f|")

    def lap_abs_f(rho, n):
        f, gp, hp = circle_values(G, H, rho, n)
        return _lap_abs_f(f, np.abs(f), gp, hp)

    area, _ = disk_area_log_mean(lap_abs_f, r, q)
    lhs = abs(m.f0())
    return lhs - (boundary - area)


def phi(xi, lam: float):
    """Phi(xi) = xi - lam * xi * log xi."""
    return xi - lam * xi * np.log(xi)


def phi_scan_argmax(lam: float) -> float:
    """Grid-scan maximizer of Phi over (0, 3] at 4097 points, zoomed three times."""
    lo, hi = 1e-12, 3.0
    best = None
    for _ in range(4):
        xs = np.linspace(lo, hi, 4097)
        vals = phi(xs, lam)
        i = int(np.argmax(vals))
        best = float(xs[i])
        step = xs[1] - xs[0]
        lo = max(1e-12, best - 2 * step)
        hi = min(3.0, best + 2 * step)
    return best


@dataclass(frozen=True)
class LaplacianAuditRow:
    z: complex
    closed_abs_f: float
    fd_abs_f: float
    closed_ulogu: float
    fd_ulogu: float
    rel_abs_f: float
    rel_ulogu: float


@dataclass(frozen=True)
class LaplacianAuditResult:
    rows: tuple[LaplacianAuditRow, ...]
    max_rel_abs_f: float
    max_rel_ulogu: float
    skipped: int


#: nonzero offsets of the 5-point stencil, in steps h along x then y, and
#: their weights; the centre weight -30 makes the weights sum to 0, so the
#: stencil of the differences from the centre value needs no centre term
_STENCIL_OFFSETS = np.array([-2, -1, 1, 2, -2j, -1j, 1j, 2j])
_STENCIL_WEIGHTS = np.array([-1.0, 16.0, 16.0, -1.0] * 2)


@lru_cache(maxsize=16)
def _shift_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Binomials C(j + m, j) and indices j + m for j, m < n, the binomial 0
    where j + m >= n: row j of ``binom * a[..., index]`` holds the
    coefficients of p^(j) / j! for p = sum a_k z^k (Taylor shift).  Built
    on first use and cached per size."""
    binom = np.array([[math.comb(j + m, j) if j + m < n else 0 for m in range(n)]
                      for j in range(n)], dtype=float)
    index = np.minimum(np.add.outer(np.arange(n), np.arange(n)), n - 1)
    binom.setflags(write=False)
    index.setflags(write=False)
    return binom, index


@lru_cache(maxsize=16)
def _stencil_powers(h: float, order: int) -> np.ndarray:
    """d^j for the stencil offsets d = _STENCIL_OFFSETS h and j = 1 .. order,
    one row per offset; built on first use and cached per (h, order)."""
    powers = np.vander(_STENCIL_OFFSETS * h, order + 1, increasing=True)[:, 1:]
    powers.setflags(write=False)
    return powers


def _shift_order(coeffs: np.ndarray, radius: float, step: float) -> int:
    """Order J >= 1 at which the Taylor shift of the rows of ``coeffs`` may
    stop for centres |z0| <= radius and offsets |d| <= step.

    With B_j(rho) = sum_k C(k, j) |a_k| rho^(k-j), the terms past J of
    sum_j b_j d^j add up to at most step^(J+1) B_(J+1)(radius + step), as
    C(k, j) <= C(k, J+1) C(k-J-1, j-J-1).  J is the first order where that
    bound is below eps step B_1, the rounding of the first-order term.
    The B_j are a matrix-vector product of nonnegative terms, which
    evaluates no series of the map, so ``horner`` stays the one evaluator.
    Only the rows up to B_(J+1) decide J, so the product is formed on the
    first 8 rows, and on twice as many until the test passes inside them
    or the rows are all of them (B_n = 0 past the last).  Needs at least
    two coefficients per row.
    """
    n = coeffs.shape[-1]
    binom, index = _shift_weights(n)
    a, powers = np.abs(coeffs).sum(axis=0), (radius + step) ** np.arange(n)
    rows = min(8, n)
    while True:
        bound = (binom[:rows] * a[index[:rows]]) @ powers
        if rows == n:
            bound = np.append(bound, 0.0)
        passed = step ** np.arange(2, bound.size) * bound[2:] <= np.finfo(float).eps * step * bound[1]
        order = int(np.argmax(passed))
        if passed[order] or rows == n:
            return 1 + order
        rows = min(2 * rows, n)


def _relative_deviation(closed: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """|closed - fd| / max(|closed|, |fd|), 0 where both vanish; NaN stays NaN."""
    diff = np.abs(closed - fd)
    scale = np.maximum(np.abs(closed), np.abs(fd))
    return np.divide(diff, scale, out=np.zeros_like(diff), where=scale != 0.0)


def audit_laplacians(m: PlanarHarmonicMap, points: np.ndarray,
                     h: float = 1e-4, floor: float = 0.1) -> LaplacianAuditResult:
    """Compare closed-form Laplacians against stencil finite differences.

    Points where |f| <= floor or u <= floor are skipped (the closed forms
    divide by them).  One ``horner`` call on the binomial-weighted
    coefficients gives b_j = p^(j)(z0) / j! for g and h at every point, to
    the order ``_shift_order`` picks; b_0 and b_1 feed the closed forms and
    df(d) = sum_(j>=1) b_j d^j the stencil, in the difference form of the
    module docstring, all in float64.  Relative differences are taken
    against max(|closed|, |fd|), 0/0 read as 0; any other NaN reaches
    ``max_rel_*``.
    """
    pts = np.asarray(points, dtype=complex)
    rows = stacked([m.g] if m.h.is_zero() else [m.g, m.h])
    # a zero column past the last coefficient: b_1 (g', h') exists for constant maps
    coeffs = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=complex)
    coeffs[:, :-1] = rows
    order = _shift_order(coeffs, float(np.abs(pts).max(initial=0.0)), 2.0 * h)
    binom, index = _shift_weights(coeffs.shape[-1])
    b = horner(binom[:order + 1] * coeffs[:, index[:order + 1]], pts)
    f = b[0, 0] + np.conjugate(b[1:, 0].sum(axis=0))
    keep = (np.abs(f) > floor) & (f.real > floor)
    pts, b, f = pts[keep], b[..., keep], f[keep]
    skipped = int((~keep).sum())
    if pts.size == 0:
        return LaplacianAuditResult(rows=(), max_rel_abs_f=0.0,
                                    max_rel_ulogu=0.0, skipped=skipped)
    af = np.abs(f)
    _check_domain(af.min(), f.real.min(), "at the audit points")
    gp, hp = b[0, 1], b[1:, 1].sum(axis=0)
    closed = np.array([_lap_abs_f(f, af, gp, hp), _lap_ulogu(f, gp, hp)])
    delta = _stencil_powers(h, order) @ b[:, 1:]
    df = delta[0] + np.conjugate(delta[1:].sum(axis=0))  # (offsets, points)
    f1, u = f + df, f.real
    diffs = np.array([(df * np.conjugate(f1 + f)).real / (np.abs(f1) + af),
                      df.real * np.log(f1.real) + u * np.log1p(df.real / u)])
    fd = _STENCIL_WEIGHTS @ diffs / (12.0 * h * h)
    rel = _relative_deviation(closed, fd)
    columns = np.array([closed[0], fd[0], closed[1], fd[1], rel[0], rel[1]]).T
    rows = tuple(LaplacianAuditRow(z, *row) for z, row in zip(pts.tolist(), columns.tolist()))
    return LaplacianAuditResult(rows=rows, max_rel_abs_f=float(rel[0].max()),
                                max_rel_ulogu=float(rel[1].max()), skipped=skipped)
