"""Reference computations made with numpy and the standard library only.

Nothing here imports hqz.  Every function takes plain coefficient arrays
(index j holds the z^j coefficient) and recomputes a quantity the program
reports, by a method the program does not use: dense midpoint sums from
``numpy.polynomial.polynomial.polyval``, closed forms, root brackets with
piecewise Gauss-Legendre, and exact decimal arithmetic.

The module also holds the input classifiers the workloads use to fix the
make-up of their rounds (``doubling_nodes``, ``stencil_uncertified`` and
``green_doubling_level``).  Each measures how hard an input is for a
standard rule (a doubling trapezoid rule, an 80-bit difference stencil, a
doubling panel rule), computed here, so a round holds the same mix of easy
and hard inputs whatever the seed.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from numpy.polynomial import polynomial as P

#: midpoint count of the dense circle grids; the integrands are analytic
#: on the circle (the maps have Re f > 0), so the midpoint rule is exact to
#: rounding long before this many points
DENSE = 1 << 14

#: the constant 2 (6 pi e + 1) of the non-sharp planar bound
T1_ENVELOPE = 2.0 * (6.0 * math.pi * math.e + 1.0)


def midpoints(n: int = DENSE) -> np.ndarray:
    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def map_values(g: np.ndarray, h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f = g + conj(h) at the points z."""
    return P.polyval(z, g) + np.conj(P.polyval(z, h))


def circle_means(g: np.ndarray, h: np.ndarray, r: float = 1.0,
                 n: int = DENSE) -> tuple[float, float]:
    """(M_1, mean u log u) on the circle of radius r; u = Re f must be > 0."""
    f = map_values(g, h, r * np.exp(1j * midpoints(n)))
    u = f.real
    if u.min() <= 0.0:
        raise ValueError("u must be positive on the circle")
    return float(np.mean(np.abs(f))), float(np.mean(u * np.log(u)))


def _u_on_circle(F: np.ndarray, r: float, t: np.ndarray) -> np.ndarray:
    return P.polyval(r * np.exp(1j * t), F).real


def crosses_one(g: np.ndarray, h: np.ndarray, r: float = 1.0,
                n: int = DENSE) -> bool:
    """Whether |Re f| takes values on both sides of 1 on the circle."""
    a = np.abs(_u_on_circle(_pad_sum(g, h), r, midpoints(n))) - 1.0
    return bool(a.min() < 0.0 < a.max())


def _pad_sum(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    F = np.zeros(max(len(g), len(h)), dtype=complex)
    F[: len(g)] += g
    F[: len(h)] += h
    return F


def zygmund_plus(g: np.ndarray, h: np.ndarray, r: float = 1.0,
                 n: int = DENSE, panel_width: float = 2.0 * math.pi / 256,
                 gl_nodes: int = 24) -> float:
    """(1/2pi) int |u| log+ |u| dt, integrated piecewise between the roots.

    On the circle Re f = Re(g + h).  The integrand has a corner wherever
    |u| crosses 1, which caps the trapezoid rule at second order, so the
    crossings are bracketed on a dense grid, bisected to rounding, and each
    arc where |u| > 1 is integrated by composite Gauss-Legendre on a
    piece where the integrand is analytic.
    """
    F = _pad_sum(g, h)

    def a(t):
        return np.abs(_u_on_circle(F, r, t)) - 1.0

    t = midpoints(n)
    vals = a(t)
    nxt = np.roll(vals, -1)
    idx = np.nonzero((vals > 0.0) != (nxt > 0.0))[0]
    if idx.size == 0:
        if vals[0] <= 0.0:
            return 0.0
        u = np.abs(_u_on_circle(F, r, t))
        return float(np.mean(u * np.log(u)))
    lo = t[idx]
    hi = lo + 2.0 * math.pi / n
    lo_pos = vals[idx] > 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (a(mid) > 0.0) == lo_pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    roots = np.sort(0.5 * (lo + hi))
    x, w = np.polynomial.legendre.leggauss(gl_nodes)
    total = []
    for left, right in zip(roots, np.append(roots[1:], roots[0] + 2.0 * math.pi)):
        if a(np.asarray([0.5 * (left + right)]))[0] <= 0.0:
            continue
        cuts = np.linspace(left, right, max(1, math.ceil((right - left) / panel_width)) + 1)
        half = 0.5 * np.diff(cuts)
        nodes = (cuts[:-1] + half)[:, None] + half[:, None] * x[None, :]
        u = np.abs(_u_on_circle(F, r, nodes.ravel()))
        total.extend(((half[:, None] * w[None, :]).ravel() * u * np.log(u)).tolist())
    return math.fsum(total) / (2.0 * math.pi)


def _uniform_values(c: np.ndarray, r: float, n: int, offset: int = 0,
                    stride: int = 1) -> np.ndarray:
    """Polynomial values at angles 2 pi (k stride + offset) / (n stride), k < n."""
    buf = np.zeros(n, dtype=complex)
    j = np.arange(len(c))
    buf[: len(c)] = c * r ** j * np.exp(2j * math.pi * j * offset / (n * stride))
    return np.fft.ifft(buf) * n


def zygmund_integrand(v: np.ndarray) -> np.ndarray:
    """|Re v| log+ |Re v|."""
    u = np.abs(v.real)
    return np.where(u > 1.0, u * np.log(np.maximum(u, 1.0)), 0.0)


def doubling_nodes(c: np.ndarray, integrand, r: float = 1.0, n0: int = 512,
                   tol: float = 1e-10, max_nodes: int = 1 << 20,
                   chunk: int = 1 << 16) -> int:
    """Nodes at which the doubling trapezoid rule for the circle mean of
    integrand(p(r e^it)), p the polynomial with coefficients c, first
    changes by at most ``tol``: the first n > n0 with |T(n) - T(n/2)| <= tol,
    T(n) the mean over angles 2 pi k/n.  Returns 0 past ``max_nodes``.

    The count measures how smooth the integrand is on the circle: a corner
    (|Re f| crossing 1) or a near-corner (a zero of p close to the circle)
    leaves second-order convergence, and then the phase of the corner
    against the grid sets how many doublings the rule takes.
    """
    def level_mean(n):
        stride = max(1, n // chunk)
        return sum(float(np.sum(integrand(_uniform_values(c, r, n // stride, s, stride))))
                   for s in range(stride)) / n

    n, prev = n0, level_mean(n0)
    while n < max_nodes:
        n *= 2
        cur = level_mean(n)
        if abs(cur - prev) <= tol:
            return n
        prev = cur
    return 0


def zygmund_nodes(g: np.ndarray, h: np.ndarray) -> int:
    """doubling_nodes of (1/2pi) int |u| log+ |u| on the unit circle (Re f = Re(g + h))."""
    return doubling_nodes(_pad_sum(g, h), zygmund_integrand)


def hardy_nodes(a: np.ndarray) -> int:
    """doubling_nodes of ||H||_1 = (1/2pi) int |H| on the unit circle."""
    return doubling_nodes(np.asarray(a), np.abs)


def hardy_l1(a: np.ndarray, n: int = 1 << 20, chunk: int = 1 << 16) -> float:
    """||H||_1 = mean |H| on the unit circle, by the trapezoid rule on n
    points: enough that a zero of H near the circle leaves no trace."""
    a = np.asarray(a)
    stride = n // chunk
    return math.fsum(float(np.sum(np.abs(_uniform_values(a, 1.0, chunk, s, stride))))
                     for s in range(stride)) / n


def square_function_l1(a: np.ndarray, n: int = DENSE) -> float:
    """||G[H]||_1 from the closed form on |z| = 1.

    G[H]^2(z) = sum_{j,k >= 1} j k a_j conj(a_k) z^(j-k) / ((j+k-1)(j+k)),
    the radial integral int_0^1 rho^(j+k-2) (1 - rho) d rho done exactly.
    """
    j = np.arange(1, len(a))
    weights = 1.0 / ((j[:, None] + j[None, :] - 1.0) * (j[:, None] + j[None, :]))
    v = (j * np.asarray(a)[1:])[None, :] * np.exp(1j * np.outer(midpoints(n), j))
    g2 = np.einsum("nj,jk,nk->n", v, weights, np.conj(v)).real
    return float(np.mean(np.sqrt(np.maximum(g2, 0.0))))


def dilatation_grid_max(g: np.ndarray, h: np.ndarray, n: int = DENSE,
                        radii=(0.25, 0.5, 0.75, 1.0)) -> float:
    """max |h'/g'| over circles of the closed disk (a lower bound of the sup)."""
    gp, hp = P.polyder(g), P.polyder(h)
    best = 0.0
    for r in radii:
        z = r * np.exp(1j * midpoints(n))
        best = max(best, float(np.max(np.abs(P.polyval(z, hp)) / np.abs(P.polyval(z, gp)))))
    return best


def laplacians(g: np.ndarray, h: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms lap|f| = |g' - (f/conj f) h'|^2 / |f| and lap(u log u) = |g'+h'|^2 / u."""
    f = map_values(g, h, z)
    gp, hp = P.polyval(z, P.polyder(g)), P.polyval(z, P.polyder(h))
    lap_abs = np.abs(gp - (f / np.conj(f)) * hp) ** 2 / np.abs(f)
    lap_ulogu = np.abs(gp + hp) ** 2 / f.real
    return lap_abs, lap_ulogu


def audit_kept(g: np.ndarray, h: np.ndarray, z: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the points where |f| > floor and u > floor."""
    f = map_values(g, h, z)
    return (np.abs(f) > floor) & (f.real > floor)


def laplacian_ratio_max(g: np.ndarray, h: np.ndarray, z: np.ndarray) -> float:
    """max over z of lap|f| / lap(u log u); 0/0 counts as 0."""
    num, den = laplacians(g, h, z)
    ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                     np.where(num > 0.0, np.inf, 0.0))
    return float(ratio.max())


def polar_grid(n_radii: int, n_angles: int) -> np.ndarray:
    """The origin plus radii j/n_radii times uniform angles 2 pi k/n_angles."""
    radii = np.arange(1, n_radii + 1) / n_radii
    z = np.outer(radii, np.exp(2j * math.pi * np.arange(n_angles) / n_angles)).ravel()
    return np.concatenate(([0j], z))


def stencil_uncertified(g: np.ndarray, h: np.ndarray, z: np.ndarray,
                        step: float, rel: float = 1e-6) -> int:
    """Points where the 5-point stencil in 80-bit arithmetic misses ``rel``.

    This is a property of the map at the point: where both Laplacians are
    small against |f| / step^2 times the 64-bit-mantissa rounding, the
    extended-precision difference quotient cannot resolve them.  Those are
    the points an audit must difference in higher precision.
    """
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    x = z.real[:, None] + off[None, :] * step
    y = z.imag[:, None] + off[None, :] * step
    pts = np.concatenate([x + 1j * z.imag[:, None], z.real[:, None] + 1j * y], axis=1)
    pts = pts.astype(np.clongdouble)
    f = P.polyval(pts, np.asarray(g, dtype=np.clongdouble))
    if np.any(h != 0):
        f = f + np.conj(P.polyval(pts, np.asarray(h, dtype=np.clongdouble)))
    w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0], dtype=np.longdouble)

    def lap(v):
        return ((v[:, :5] @ w + v[:, 5:] @ w) / (12.0 * step * step)).astype(float)

    def missed(closed, fd):
        return np.abs(closed - fd) > rel * np.maximum(np.abs(closed), np.abs(fd))

    closed_abs, closed_ulogu = laplacians(g, h, z)
    bad = missed(closed_abs, lap(np.abs(f))) | missed(closed_ulogu, lap(f.real * np.log(f.real)))
    return int(bad.sum())


def _circle_rows(c: np.ndarray, radii: np.ndarray, n: int) -> np.ndarray:
    """Polynomial values at radii x uniform angles, one inverse FFT per row."""
    buf = np.zeros((len(radii), n), dtype=complex)
    buf[:, : len(c)] = c[None, :] * radii[:, None] ** np.arange(len(c))[None, :]
    return np.fft.ifft(buf, axis=1) * n


def green_area(g: np.ndarray, h: np.ndarray, r: float, n_rad: int, n_ang: int,
               depth: int = 18, chunk: int = 32) -> float:
    """(1/2pi) iint_{|z|<r} lap|f| log(r/|z|) dx dy on a fixed rule.

    Dyadic panels [0, 2^-depth], ..., [1/2, 1] in s = |z|/r with n_rad
    Gauss-Legendre nodes each, n_ang uniform angles.
    """
    cuts = np.concatenate(([0.0], 2.0 ** -np.arange(depth, -1, -1)))
    x, w = np.polynomial.legendre.leggauss(n_rad)
    half = 0.5 * np.diff(cuts)
    s = ((cuts[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel() * (-s * np.log(s))
    gp, hp = P.polyder(g), P.polyder(h)
    total = 0.0
    for i in range(0, len(s), chunk):
        rad = r * s[i: i + chunk]
        f = _circle_rows(g, rad, n_ang) + np.conj(_circle_rows(h, rad, n_ang))
        d = _circle_rows(gp, rad, n_ang) - (f / np.conj(f)) * _circle_rows(hp, rad, n_ang)
        lap = np.abs(d) ** 2 / np.abs(f)
        total += float(ws[i: i + chunk] @ lap.mean(axis=1))
    return r * r * total


def green_doubling_level(g: np.ndarray, h: np.ndarray, r: float,
                         tol: float = 1e-10, max_level: int = 2) -> int:
    """First level j >= 1 at which the area rule with 8 2^j nodes per panel
    and 256 2^j angles agrees with level j - 1 to ``tol``; 0 past max_level.

    Each level costs four times the one before, so the level a map needs
    sets the cost of its Green identity; the green-ball workload fixes how
    many maps of each level a round holds.
    """
    prev = green_area(g, h, r, 8, 256)
    for level in range(1, max_level + 1):
        cur = green_area(g, h, r, 8 << level, 256 << level)
        if abs(cur - prev) <= tol:
            return level
        prev = cur
    return 0


def affine3_sphere_mean(c: float, a: float) -> Decimal:
    """mean over the unit sphere of R^3 of |c e1 + a x| = ((c+a)^3 - |c-a|^3)/(6ac)."""
    with localcontext() as ctx:
        ctx.prec = 50
        C, A = Decimal(c), Decimal(a)
        return ((C + A) ** 3 - abs(C - A) ** 3) / (6 * A * C)


def affine3_X(c: float, a: float) -> float:
    """X = mean |f| - |f(0)| for f = c e1 + a x on the 3-ball."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(affine3_sphere_mean(c, a) - Decimal(c))


def affine3_Y(c: float, a: float) -> float:
    """Y = mean u log u - c log c with u = c + a cos t, n = 3, c > a.

    The axial weight for n = 3 is sin(t)/2, so the mean is
    (1/2a) int_{c-a}^{c+a} u log u du with antiderivative u^2 log(u)/2 - u^2/4.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        C, A = Decimal(c), Decimal(a)

        def anti(u):
            return u * u * u.ln() / 2 - u * u / 4

        return float((anti(C + A) - anti(C - A)) / (2 * A) - C * C.ln())
