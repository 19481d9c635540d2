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

valid when |f| is smooth on the closed disk of radius r (no zeros).

The scalar analysis Phi(xi) = xi - lam * xi * log(xi) peaks at
xi = exp(-1 + 1/lam) with maximum lam * exp(-1 + 1/lam); a scan oracle
confirms the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, NoConvergence, NonpositiveRealPart,
                     VanishingModulus)
from .planar import PlanarHarmonicMap, disk_grid
from .quadrature import (QuadratureSpec, dyadic_panels, gauss_legendre,
                         refined_circle_mean)
from .series import circle_values

#: modulus floor below which the 1/|f| closed form is refused
TAU_F = 1e-8

#: dyadic panel depth for the log(r/rho) radial weight; the mass of
#: -s log s below 2^-18 is ~1e-10, far below the residual targets
LOG_PANEL_DEPTH = 18

#: radii per ``rows`` call in the area rule: enough to amortize the FFT
#: set-up, few enough that the arrays stay at 8 x angles values
AREA_ROW_BLOCK = 8


@dataclass(frozen=True)
class LaplacianSample:
    z: complex
    lap_abs_f: float
    lap_ulogu: float
    ratio: float

    def as_row(self) -> dict:
        """CSV export columns for plotting grids."""
        return {"x": self.z.real, "y": self.z.imag,
                "lap_abs_f": self.lap_abs_f, "lap_ulogu": self.lap_ulogu,
                "ratio": self.ratio}


@dataclass(frozen=True)
class PhiAnalysis:
    lam: float
    xi_star: float
    phi_max: float


def _pieces(m: PlanarHarmonicMap, z):
    f = m.g(z) + np.conjugate(m.h(z))
    return f, m.g_prime(z), m.h_prime(z)


def laplacian_abs_f(m: PlanarHarmonicMap, z: complex, tau_f: float = TAU_F) -> float:
    """lap |f| at z from the closed form; needs |f(z)| above the floor."""
    f, gp, hp = _pieces(m, complex(z))
    af = abs(f)
    if af <= tau_f:
        raise VanishingModulus(f"|f(z)| = {af:.3e} <= {tau_f:.1e}")
    return abs(gp - (f / f.conjugate()) * hp) ** 2 / af


def laplacian_ulogu(m: PlanarHarmonicMap, z: complex) -> float:
    """lap(u log u) = |g' + h'|^2 / u at z; needs u(z) > 0."""
    f, gp, hp = _pieces(m, complex(z))
    u = f.real
    if u <= 0.0:
        raise NonpositiveRealPart(f"u(z) = {u:.3e} <= 0")
    return abs(gp + hp) ** 2 / u


def laplacian_ratio_sup(m: PlanarHarmonicMap, grid: QuadratureSpec | None = None,
                      tau_f: float = TAU_F) -> float:
    """max over the disk grid of lap|f| / lap(u log u).

    Both Laplacians vanish together only where g' = h' = 0; those 0/0
    points (e.g. constant maps) contribute 0 by convention.  Requires
    u > 0 and |f| > tau_f on the whole grid.
    """
    spec = grid if grid is not None else QuadratureSpec(circle_nodes=256,
                                                        radial_nodes=32)
    z = disk_grid(spec.radial_nodes, spec.circle_nodes)
    f = m.g(z) + np.conjugate(m.h(z))
    gp = m.g_prime(z)
    hp = m.h_prime(z)
    af = np.abs(f)
    u = f.real
    if float(af.min()) <= tau_f:
        raise VanishingModulus(f"min |f| = {af.min():.3e} on the grid")
    if float(u.min()) <= 0.0:
        raise NonpositiveRealPart(f"min u = {u.min():.3e} on the grid")
    num = np.abs(gp - (f / np.conjugate(f)) * hp) ** 2 / af
    den = np.abs(gp + hp) ** 2 / u
    ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                     np.where(num > 0.0, np.inf, 0.0))
    return float(ratio.max())


def laplacian_samples(m: PlanarHarmonicMap, points: np.ndarray,
                      tau_f: float = TAU_F) -> list[LaplacianSample]:
    """Closed-form samples for export (x, y, lap_abs_f, lap_ulogu, ratio)."""
    out = []
    for z in points:
        la = laplacian_abs_f(m, z, tau_f)
        lu = laplacian_ulogu(m, z)
        ratio = la / lu if lu > 0.0 else (0.0 if la == 0.0 else math.inf)
        out.append(LaplacianSample(z=complex(z), lap_abs_f=la, lap_ulogu=lu,
                                   ratio=ratio))
    return out


def disk_area_log_mean(rows: Callable[[np.ndarray, int], np.ndarray], r: float,
                       q: QuadratureSpec) -> tuple[float, float]:
    """(1/2pi) iint_{|z|<r} F(z) log(r/|z|) dx dy with refinement.

    ``rows(rho, n)`` returns F at the n uniform angles 2 pi k / n on the
    circles |z| = rho_i, one row per radius.  Polar form with rho = r s:
    the radial factor -s log s is handled on a dyadic panel mesh
    (Gauss-Legendre per panel, ``AREA_ROW_BLOCK`` radii per ``rows``
    call), the angle by the periodic trapezoid rule.  Returns
    (value, est_error).
    """
    panels = dyadic_panels(LOG_PANEL_DEPTH)

    def level(n_rad: int, n_ang: int) -> float:
        total = 0.0
        for a, b in panels:
            s, w = gauss_legendre(n_rad, a, b)
            weights = -w * s * np.log(s)
            for i in range(0, n_rad, AREA_ROW_BLOCK):
                block = slice(i, i + AREA_ROW_BLOCK)
                total += float(np.dot(weights[block], rows(r * s[block], n_ang).mean(axis=1)))
        return r * r * total

    n_rad, n_ang = max(8, q.radial_nodes // 4), max(64, q.circle_nodes // 2)
    prev = level(n_rad, n_ang)
    for _ in range(q.refinement_limit):
        n_rad *= 2
        n_ang *= 2
        cur = level(n_rad, n_ang)
        err = abs(cur - prev)
        if err <= max(q.abs_tol, 1e-12):
            return cur, err
        prev = cur
    raise NoConvergence(f"disk area integral: last change {err:.3e}")


def disk_green_identity(m: PlanarHarmonicMap, r: float, q: QuadratureSpec,
                        tau_f: float = TAU_F) -> float:
    """Residual |f(0)| - [circle mean of |f| - area term] for nonvanishing f."""
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    # probe |f| at 0 and on 48 circles of 256 angles out to radius r
    probe = np.abs(circle_values(m.g, m.h, r * np.arange(1, 49) / 48, 256))
    af_min = min(float(probe.min()), abs(m.f0()))
    if af_min <= tau_f:
        raise VanishingModulus(
            f"min |f| = {af_min:.3e} on the closed disk of radius {r}")

    boundary, _, _, _ = refined_circle_mean(
        lambda n, shift: np.abs(circle_values(m.g, m.h, r, n, shift)), q,
        context="circle mean of |f|")

    def lap(rho: np.ndarray, n: int) -> np.ndarray:
        f = circle_values(m.g, m.h, rho, n)
        gp = circle_values(m.g_prime, None, rho, n)
        hp = circle_values(m.h_prime, None, rho, n)
        return np.abs(gp - (f / np.conjugate(f)) * hp) ** 2 / np.abs(f)

    area, _ = disk_area_log_mean(lap, r, q)
    lhs = abs(m.f0())
    return lhs - (boundary - area)


def phi(xi, lam: float):
    """Phi(xi) = xi - lam * xi * log xi."""
    return xi - lam * xi * np.log(xi)


def phi_scan_argmax(lam: float, grid_points: int = 4097, zooms: int = 3) -> float:
    """Grid-scan maximizer of Phi over (0, 3], iteratively zoomed."""
    lo, hi = 1e-12, 3.0
    best = None
    for _ in range(zooms + 1):
        xs = np.linspace(lo, hi, grid_points)
        vals = phi(xs, lam)
        i = int(np.argmax(vals))
        best = float(xs[i])
        step = xs[1] - xs[0]
        lo = max(1e-12, best - 2 * step)
        hi = min(3.0, best + 2 * step)
    return best


def phi_analysis(lam: float) -> PhiAnalysis:
    """Closed-form maximizer of Phi(xi) = xi - lam xi log xi, scan-confirmed.

    xi* = exp(-1 + 1/lam) and Phi(xi*) = lam * xi*.
    """
    if lam < 1.0:
        raise DomainError("lambda must be >= 1")
    xi_star = math.exp(-1.0 + 1.0 / lam)
    phi_max = lam * xi_star
    scanned = phi_scan_argmax(lam)
    if abs(scanned - xi_star) > 1e-6:
        raise ArithmeticError(
            f"scan maximizer {scanned!r} disagrees with exp(-1 + 1/lam) = {xi_star!r}")
    return PhiAnalysis(lam=lam, xi_star=xi_star, phi_max=phi_max)


def fd_laplacian(fn: Callable[[float, float], float], x: float, y: float,
                 h: float = 1e-4) -> float:
    """Fourth-order 5-point-per-coordinate Laplacian stencil in float64."""
    def d2(g: Callable[[float], float], t: float) -> float:
        return (-g(t + 2 * h) + 16 * g(t + h) - 30 * g(t)
                + 16 * g(t - h) - g(t - 2 * h)) / (12 * h * h)

    return d2(lambda t: fn(t, y), x) + d2(lambda t: fn(x, t), y)


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


class _MpMapEvaluator:
    """mpmath Horner evaluation of f = g + conj(h), coefficients converted once."""

    def __init__(self, m: PlanarHarmonicMap, dps: int):
        import mpmath as mp

        self.mp = mp
        self.dps = dps
        with mp.workdps(dps):
            self.gc = [mp.mpc(c.real, c.imag) for c in m.g.coeffs]
            self.hc = None if m.h.is_zero() else \
                [mp.mpc(c.real, c.imag) for c in m.h.coeffs]

    def stencil_laplacians(self, z: complex, h: float) -> tuple[float, float]:
        mp = self.mp
        with mp.workdps(self.dps):
            def f_at(x, y):
                w = mp.mpc(x, y)
                a = mp.mpc(0)
                for c in reversed(self.gc):
                    a = a * w + c
                if self.hc is None:
                    return a
                b = mp.mpc(0)
                for c in reversed(self.hc):
                    b = b * w + c
                return a + mp.conj(b)

            hh = mp.mpf(h)
            x0, y0 = mp.mpf(z.real), mp.mpf(z.imag)
            offsets = (-2, -1, 0, 1, 2)
            row_x = [f_at(x0 + k * hh, y0) for k in offsets]
            row_y = [f_at(x0, y0 + k * hh) for k in offsets]
            denom = 12 * hh * hh

            def lap_of(scalar):
                vx = [scalar(v) for v in row_x]
                vy = [scalar(v) for v in row_y]
                sx = -vx[4] + 16 * vx[3] - 30 * vx[2] + 16 * vx[1] - vx[0]
                sy = -vy[4] + 16 * vy[3] - 30 * vy[2] + 16 * vy[1] - vy[0]
                return float((sx + sy) / denom)

            lap_abs = lap_of(lambda v: mp.sqrt(v.real ** 2 + v.imag ** 2))
            lap_ul = lap_of(lambda v: v.real * mp.log(v.real))
        return lap_abs, lap_ul


def _horner_batch(coeffs: tuple[complex, ...], z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _stencil_laplacians(m: PlanarHarmonicMap, pts: np.ndarray, h: float,
                        dtype=np.complex128) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized stencil for both Laplacians at every point.

    With dtype=np.clongdouble the 80-bit stencil is accurate to roughly
    1e-10 absolute, three decades past float64.
    """
    x = pts.real[:, None] + _STENCIL_OFFSETS[None, :] * h
    y = pts.imag[:, None] + _STENCIL_OFFSETS[None, :] * h
    zx = x + 1j * pts.imag[:, None]
    zy = pts.real[:, None] + 1j * y
    z_all = np.concatenate([zx, zy], axis=1).astype(dtype)
    f = _horner_batch(m.g.coeffs, z_all)
    if not m.h.is_zero():
        f = f + np.conjugate(_horner_batch(m.h.coeffs, z_all))
    denom = 12.0 * h * h
    w = _STENCIL_WEIGHTS.astype(z_all.real.dtype)

    def lap(vals: np.ndarray) -> np.ndarray:
        sx = vals[:, :5] @ w
        sy = vals[:, 5:] @ w
        return ((sx + sy) / denom).astype(float)

    return lap(np.abs(f)), lap(f.real * np.log(f.real))


def audit_laplacians(m: PlanarHarmonicMap, points: np.ndarray,
                     h: float = 1e-4, dps: int = 22,
                     floor: float = 0.1,
                     certify_rel: float = 1e-6) -> LaplacianAuditResult:
    """Compare closed-form Laplacians against stencil finite differences.

    Points where |f| <= floor or u <= floor are skipped (the closed forms
    divide by them).  A vectorized 80-bit stencil runs first; any point it
    cannot certify to ``certify_rel`` is re-differenced in mpmath, where
    the stencil is truncation-limited instead of rounding-limited.
    Relative differences are taken against max(|closed|, |fd|).
    """
    pts = np.asarray(points, dtype=complex)
    f = m.g(pts) + np.conjugate(m.h(pts))
    keep = (np.abs(f) > floor) & (f.real > floor)
    skipped = int((~keep).sum())
    pts = pts[keep]
    if pts.size == 0:
        return LaplacianAuditResult(rows=(), max_rel_abs_f=0.0,
                                    max_rel_ulogu=0.0, skipped=skipped)
    fd_a, fd_u = _stencil_laplacians(m, pts, h, dtype=np.clongdouble)
    mp_eval = None
    rows = []
    worst_a = 0.0
    worst_u = 0.0
    for i, z in enumerate(pts):
        z = complex(z)
        closed_a = laplacian_abs_f(m, z)
        closed_u = laplacian_ulogu(m, z)
        a, u = float(fd_a[i]), float(fd_u[i])
        rel_a = abs(closed_a - a) / max(abs(closed_a), abs(a))
        rel_u = abs(closed_u - u) / max(abs(closed_u), abs(u))
        if rel_a > certify_rel or rel_u > certify_rel:
            if mp_eval is None:
                mp_eval = _MpMapEvaluator(m, dps)
            a, u = mp_eval.stencil_laplacians(z, h)
            rel_a = abs(closed_a - a) / max(abs(closed_a), abs(a))
            rel_u = abs(closed_u - u) / max(abs(closed_u), abs(u))
        worst_a = max(worst_a, rel_a)
        worst_u = max(worst_u, rel_u)
        rows.append(LaplacianAuditRow(z=z, closed_abs_f=closed_a, fd_abs_f=a,
                                      closed_ulogu=closed_u, fd_ulogu=u,
                                      rel_abs_f=rel_a, rel_ulogu=rel_u))
    return LaplacianAuditResult(rows=tuple(rows), max_rel_abs_f=worst_a,
                                max_rel_ulogu=worst_u, skipped=skipped)
