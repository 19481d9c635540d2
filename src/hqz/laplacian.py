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
stencil: a vectorized 80-bit pass at every point, then stdlib ``decimal``
at the few points where float rounding divided by h^2 hides the answer.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NonpositiveRealPart, VanishingModulus
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

#: significant digits of the decimal fallback stencil; its rounding,
#: about 1e-40 / (12 h^2), stays far below the stencil's truncation error
STENCIL_DIGITS = 40

#: relative deviation up to which the 80-bit stencil certifies a point;
#: points above it are re-differenced in ``decimal``
CERTIFY_REL = 1e-6


def _pieces(m: PlanarHarmonicMap, z):
    f = m.g(z) + np.conjugate(m.h(z))
    return f, m.g_prime(z), m.h_prime(z)


def _lap_abs_f(f, gp, hp):
    """|g' - (f / conj(f)) h'|^2 / |f|, elementwise on scalars or arrays."""
    return np.abs(gp - (f / np.conjugate(f)) * hp) ** 2 / np.abs(f)


def _lap_ulogu(f, gp, hp):
    """|g' + h'|^2 / u, elementwise on scalars or arrays."""
    return np.abs(gp + hp) ** 2 / np.real(f)


def _check_domain(f: np.ndarray, where: str) -> None:
    """Refuse |f| <= TAU_F or u <= 0 anywhere in f."""
    af_min, u_min = float(np.abs(f).min()), float(f.real.min())
    if af_min <= TAU_F:
        raise VanishingModulus(f"min |f| = {af_min:.3e} {where}")
    if u_min <= 0.0:
        raise NonpositiveRealPart(f"min u = {u_min:.3e} {where}")


def laplacian_abs_f(m: PlanarHarmonicMap, z: complex) -> float:
    """lap |f| at z from the closed form; needs |f(z)| above TAU_F."""
    f, gp, hp = _pieces(m, complex(z))
    af = abs(f)
    if af <= TAU_F:
        raise VanishingModulus(f"|f(z)| = {af:.3e} <= {TAU_F:.1e}")
    return float(_lap_abs_f(f, gp, hp))


def laplacian_ulogu(m: PlanarHarmonicMap, z: complex) -> float:
    """lap(u log u) = |g' + h'|^2 / u at z; needs u(z) > 0."""
    f, gp, hp = _pieces(m, complex(z))
    u = f.real
    if u <= 0.0:
        raise NonpositiveRealPart(f"u(z) = {u:.3e} <= 0")
    return float(_lap_ulogu(f, gp, hp))


def laplacian_ratio_sup(m: PlanarHarmonicMap) -> float:
    """max over the disk grid of lap|f| / lap(u log u).

    The grid is z = 0 and the RATIO_GRID_RADII circles at RATIO_GRID_ANGLES
    angles; f, g' and h' come from one ``circle_values`` call each.
    Both Laplacians vanish together only where g' = h' = 0; those 0/0
    points (e.g. constant maps) contribute 0 by convention.  Requires
    u > 0 and |f| > TAU_F on the whole grid.
    """
    radii = np.arange(1, RATIO_GRID_RADII + 1) / RATIO_GRID_RADII

    def on_grid(s, t=None):  # h(0) = 0, so s + conj(t) is s.coeffs[0] at z = 0
        return np.append(s.coeffs[0], circle_values(s, t, radii, RATIO_GRID_ANGLES))

    f = on_grid(m.g, m.h)
    gp, hp = on_grid(m.g_prime), on_grid(m.h_prime)
    _check_domain(f, "on the grid")
    num, den = _lap_abs_f(f, gp, hp), _lap_ulogu(f, gp, hp)
    ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                     np.where(num > 0.0, np.inf, 0.0))
    return float(ratio.max())


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

    def level(n_rad: int) -> float:
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
    # probe |f| at 0 and on 48 circles of 256 angles out to radius r
    probe = np.abs(circle_values(m.g, m.h, r * np.arange(1, 49) / 48, 256))
    af_min = min(float(probe.min()), abs(m.f0()))
    if af_min <= TAU_F:
        raise VanishingModulus(
            f"min |f| = {af_min:.3e} on the closed disk of radius {r}")

    boundary, _, _ = refined_circle_mean(
        lambda n, shift: np.abs(circle_values(m.g, m.h, r, n, shift)), q,
        context="circle mean of |f|")

    def lap(rho: np.ndarray, n: int) -> np.ndarray:
        f = circle_values(m.g, m.h, rho, n)
        gp = circle_values(m.g_prime, None, rho, n)
        hp = circle_values(m.h_prime, None, rho, n)
        return _lap_abs_f(f, gp, hp)

    area, _ = disk_area_log_mean(lap, r, q)
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


_STENCIL_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_STENCIL_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def _stencil_laplacians(m: PlanarHarmonicMap, pts: np.ndarray,
                        h: float) -> tuple[np.ndarray, np.ndarray]:
    """Both Laplacians at every point by the 80-bit stencil (~1e-10 absolute)."""
    steps = _STENCIL_OFFSETS * h
    z = np.concatenate([pts[:, None] + steps, pts[:, None] + 1j * steps], axis=1)
    f = horner(stacked([m.g] if m.h.is_zero() else [m.g, m.h]), z.astype(np.clongdouble))
    f = f[0] + np.conjugate(f[1:].sum(axis=0))
    w = _STENCIL_WEIGHTS.astype(np.longdouble)
    return tuple(((v[:, :5] @ w + v[:, 5:] @ w) / (12.0 * h * h)).astype(float)
                 for v in (np.abs(f), f.real * np.log(f.real)))


def _decimal_stencil(m: PlanarHarmonicMap, pts: np.ndarray, h: float) -> list[list[float]]:
    """[lap|f|, lap(u log u)] at pts by the same stencil in ``decimal``.

    Coefficients and h convert exactly; points and Horner steps on (re, im)
    pairs round to STENCIL_DIGITS digits; sqrt and ln are correctly rounded.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=STENCIL_DIGITS)):
        coeffs = [[D(x) for c in pair for x in (c.real, c.imag)]
                  for pair in stacked([m.g, m.h]).T[::-1].tolist()]
        offsets = [int(k) * D(h) for k in _STENCIL_OFFSETS]
        weights = [int(w) for w in _STENCIL_WEIGHTS] * 2

        def f_at(x, y):  # (Re, Im) of g + conj(h) at x + iy
            gr = gi = hr = hi = D(0)
            for ar, ai, br, bi in coeffs:
                gr, gi = gr * x - gi * y + ar, gr * y + gi * x + ai
                hr, hi = hr * x - hi * y + br, hr * y + hi * x + bi
            return gr + hr, gi - hi

        def lap(values) -> float:
            return float(sum(w * v for w, v in zip(weights, values)) / (12 * D(h) * D(h)))

        out = [[], []]
        for z in pts:
            x0, y0 = +D(z.real), +D(z.imag)
            row_x = [f_at(x0 + d, y0) for d in offsets]
            f = row_x + [f_at(x0, y0 + d) if d else row_x[2] for d in offsets]
            out[0].append(lap([(re * re + im * im).sqrt() for re, im in f]))
            out[1].append(lap([re * re.ln() for re, _ in f]))
    return out


def _relative_deviation(closed: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """|closed - fd| / max(|closed|, |fd|), 0 where both vanish; NaN stays NaN."""
    diff = np.abs(closed - fd)
    scale = np.maximum(np.abs(closed), np.abs(fd))
    return np.divide(diff, scale, out=np.zeros_like(diff), where=scale != 0.0)


def audit_laplacians(m: PlanarHarmonicMap, points: np.ndarray,
                     h: float = 1e-4, floor: float = 0.1) -> LaplacianAuditResult:
    """Compare closed-form Laplacians against stencil finite differences.

    Points where |f| <= floor or u <= floor are skipped (the closed forms
    divide by them).  A vectorized 80-bit stencil runs first; any point it
    cannot certify to ``CERTIFY_REL`` is re-differenced in ``decimal``,
    where the stencil is truncation-limited instead of rounding-limited.
    Relative differences are taken against max(|closed|, |fd|), 0/0 read
    as 0; any other NaN reaches ``max_rel_*``.
    """
    pts = np.asarray(points, dtype=complex)
    g, hz, gp, hp = horner(stacked([m.g, m.h, m.g_prime, m.h_prime]), pts)
    f = g + np.conjugate(hz)
    keep = (np.abs(f) > floor) & (f.real > floor)
    pts, f, gp, hp = pts[keep], f[keep], gp[keep], hp[keep]
    skipped = int((~keep).sum())
    if pts.size == 0:
        return LaplacianAuditResult(rows=(), max_rel_abs_f=0.0,
                                    max_rel_ulogu=0.0, skipped=skipped)
    _check_domain(f, "at the audit points")
    closed = np.array([_lap_abs_f(f, gp, hp), _lap_ulogu(f, gp, hp)])
    fd = np.array(_stencil_laplacians(m, pts, h))
    rel = _relative_deviation(closed, fd)
    redo = np.flatnonzero(~(rel <= CERTIFY_REL).all(axis=0))
    if redo.size:
        fd[:, redo] = _decimal_stencil(m, pts[redo], h)
        rel = _relative_deviation(closed, fd)
    columns = np.array([closed[0], fd[0], closed[1], fd[1], rel[0], rel[1]]).T
    rows = tuple(LaplacianAuditRow(z, *row) for z, row in zip(pts.tolist(), columns.tolist()))
    return LaplacianAuditResult(rows=rows, max_rel_abs_f=float(rel[0].max()),
                                max_rel_ulogu=float(rel[1].max()), skipped=skipped)
