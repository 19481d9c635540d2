"""n-dimensional machinery: affine families on the unit ball, axially
symmetric sphere integrals, and the 3-ball Green identity.

Every integrand that appears in the sharpness computations depends on
position only through t, the angle to e1, so sphere means reduce to

    int_S p dsigma = C_n * int_0^pi sin^(n-2)(t) p(t) dt,
    C_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2))   (``gamma.C_n``),

with sigma the normalized sphere measure; ``axial_mean`` integrates it by
Gauss-Legendre.  The affine family f(x) = c e1 + a x (1-quasiregular,
since Df = a Id) gives

    |f| on the sphere       = sqrt(c^2 + a^2 + 2 a c cos t)
    u = f_1 on the sphere   = c + a cos t

and the two sharpness functionals

    X(f) = mean |f| - |f(0)|,
    Y(f) = mean (u log u) - u(0) log u(0).

Both are O(a^2) differences of O(1) quantities, so the profiles are
evaluated in cancellation-free difference form and the quadrature sums
are compensated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, HypothesisViolation
from .gamma import C_n
from .quadrature import QuadratureSpec, gauss_legendre, refine


@dataclass(frozen=True)
class AffineBallMap:
    """f(x) = c e1 + a x on the closed unit ball of R^n."""

    n: int
    c: float
    a: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError("dimension must be >= 2")
        if self.c < 0.0 or self.a < 0.0:
            raise DomainError("need c >= 0 and a >= 0 (a = 0 is the constant map)")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.a * x.copy()
        out[0] += self.c
        return out


def _axial_level(n: int, profile, nodes: int) -> float:
    t, w = gauss_legendre(nodes, 0.0, math.pi)
    vals = np.asarray(profile(t), dtype=float)
    return C_n(n) * math.fsum((w * np.sin(t) ** (n - 2) * vals).tolist())


def axial_mean(n: int, profile, q: QuadratureSpec) -> float:
    """Mean over the unit sphere of a profile of the angle to e1.

    Gauss-Legendre on [0, pi] with compensated summation, doubled by
    ``refine``.
    """
    return refine(lambda nodes, _: _axial_level(n, profile, nodes),
                  max(32, q.radial_nodes), q, "axial mean")[0]


def X_of(m: AffineBallMap, q: QuadratureSpec) -> float:
    """X(f) = mean |f| - |f(0)| for the affine family; equals 1/3 for the
    three-dimensional family c = m^2, a = m, independent of m."""
    c, a = m.c, m.a

    def profile(t: np.ndarray) -> np.ndarray:
        # sqrt(c^2 + a^2 + 2ac cos t) - c without cancellation
        s = a * a + 2.0 * a * c * np.cos(t)
        return s / (np.sqrt(c * c + s) + c)

    return axial_mean(m.n, profile, q)


def Y_of(m: AffineBallMap, q: QuadratureSpec) -> float:
    """Y(f) = mean (u log u) - u(0) log u(0) with u = f_1 = c + a cos t.

    Needs u > 0, i.e. c >= a (the c = a endpoint is integrable and the
    quadrature never samples t = pi exactly).
    """
    c, a = m.c, m.a
    if c < a:
        raise HypothesisViolation(f"c = {c} < a = {a}: u changes sign on the sphere")
    logc = math.log(c)

    def profile(t: np.ndarray) -> np.ndarray:
        # u log u - c log c = c[(1+x) log1p(x) + x log c],  x = (a/c) cos t
        x = (a / c) * np.cos(t)
        return c * ((1.0 + x) * np.log1p(x) + x * logc)

    return axial_mean(m.n, profile, q)


def phi_of_m(m: float) -> float:
    """Closed form whose limit is 1/3: the three-dimensional entropy gap
    2*Y(f) of the family f(x) = m^2 e1 + m x.

    Evaluated as weighted log differences so the O(m) cancellation of the
    raw form never materializes:

        phi(m) = (m/2) [ (1+m)^2 log1p(1/m) - (m-1)^2 log1p(-1/m) - 2m ].
    """
    if m <= 1.0:
        raise DomainError("phi_of_m requires m > 1")
    t1 = (1.0 + m) ** 2 * math.log1p(1.0 / m)
    t2 = (m - 1.0) ** 2 * math.log1p(-1.0 / m)
    return 0.5 * m * math.fsum((t1, -t2, -2.0 * m))


@dataclass(frozen=True)
class RatioRow:
    n: int
    a: float
    X: float
    Y: float
    ratio: float
    target: float
    deviation: float


def ratio_limit_scan(n: int, a_values, q: QuadratureSpec) -> list[RatioRow]:
    """X/Y along the family f(x) = e1 + a x; the ratio tends to n - 1."""
    rows = []
    target = float(n - 1)
    for a in a_values:
        if not 0.0 < a < 1.0:
            raise DomainError("each a must lie in (0, 1)")
        m = AffineBallMap(n=n, c=1.0, a=float(a))
        x = X_of(m, q)
        y = Y_of(m, q)
        ratio = x / y
        rows.append(RatioRow(n=n, a=float(a), X=x, Y=y, ratio=ratio,
                             target=target,
                             deviation=abs(ratio - target) / target))
    return rows


def laplacian_abs_affine(m: AffineBallMap, x: np.ndarray) -> float:
    """lap |f| at an interior point via the radial-field differential.

    With S = f/|f| and Df = a Id, DS = (a/|f|) (Id - S S^T), whose squared
    Hilbert-Schmidt norm is (a/|f|)^2 (n-1); then lap |f| = |f| ||DS||^2.
    """
    fx = m.value(np.asarray(x, dtype=float))
    norm = float(np.linalg.norm(fx))
    if norm <= 1e-12:
        raise HypothesisViolation("f(x) = 0: the radial field is undefined")
    S = fx / norm
    DS = (m.a / norm) * (np.eye(m.n) - np.outer(S, S))
    hs2 = float(np.sum(DS * DS))
    return norm * hs2


def _ball3_volume_weighted(lap: Callable[[np.ndarray, np.ndarray], np.ndarray],
                           q: QuadratureSpec) -> float:
    """c_3 * int_B lap(x) (|x|^{-1} - 1) dV for axially symmetric lap.

    In spherical coordinates the weight times the Jacobian is
    (1/rho - 1) rho^2 = rho - rho^2, so the integrand is smooth and a
    tensor Gauss-Legendre rule converges spectrally under ``refine``.
    c_3 = 1/(4 pi) combines with the 2 pi azimuthal factor to an overall 1/2.
    """
    def level(nodes: int, _) -> float:
        rho, wr = gauss_legendre(nodes, 0.0, 1.0)
        t, wt = gauss_legendre(nodes, 0.0, math.pi)
        rr, tt = np.meshgrid(rho, t, indexing="ij")
        ww = np.outer(wr, wt)
        vals = lap(rr, tt) * (rr - rr ** 2) * np.sin(tt)
        return 0.5 * float(math.fsum((ww * vals).ravel().tolist()))

    return refine(level, max(24, q.radial_nodes), q, "3-ball volume integral")[0]


def ball_green_calibration(q: QuadratureSpec) -> float:
    """Residual of the identity on u(x) = |x|^2 (lap u = 6), which pins the
    normalization c_3 = 1/(4 pi): mean_S u = 1, u(0) = 0 and the volume
    term must integrate to exactly 1."""
    sphere_mean = axial_mean(3, lambda t: np.ones_like(t), q)
    vol = _ball3_volume_weighted(lambda rr, tt: 6.0 * np.ones_like(rr), q)
    return sphere_mean - vol


def ball_green_identity_n3(m: AffineBallMap, q: QuadratureSpec) -> float:
    """Residual of mean_S |f| = |f(0)| + c_3 int_B lap|f| (|x|^{-1} - 1) dV.

    For the affine family lap|f|(x) = 2 a^2 / |f(x)| with
    |f(x)| = sqrt(c^2 + a^2 rho^2 + 2 a c rho cos t).
    """
    if m.n != 3:
        raise DomainError("the volume reduction here is specific to n = 3")
    if m.c <= m.a:
        raise HypothesisViolation("need c > a so that f has no zeros in the ball")
    c, a = m.c, m.a
    lhs = X_of(m, q) + c

    def lap(rr: np.ndarray, tt: np.ndarray) -> np.ndarray:
        mod = np.sqrt(c * c + a * a * rr ** 2 + 2.0 * a * c * rr * np.cos(tt))
        return 2.0 * a * a / mod

    rhs = c + _ball3_volume_weighted(lap, q)
    return lhs - rhs
