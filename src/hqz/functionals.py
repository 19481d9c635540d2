"""Circle functionals on harmonic maps.

Integral means M_p(r, f), the h^1 norm estimate for polynomial data, the
two entropy-type functionals

    zygmund_plus_report: (1/2pi) int |u| log+ |u| dt   (log+ x = max(log x, 0))
    entropy_u_report:    (1/2pi) int  u  log  u  dt    (requires u > 0)

with u = Re f, the Poisson extension on the disk, and the radial square
function

    G[H](z) = ( int_0^1 |H'(rho z)|^2 (1 - rho) d rho )^(1/2)

whose L1 comparison constants against ||H||_1 are estimated empirically
from a corpus.  Circle integrals use the periodic trapezoid rule with
doubling refinement (``quadrature.refined_circle_mean``) on values from
the FFT circle engine (``series.circle_values``); |f| is merely piecewise
smooth where f vanishes, so the refinement-based error control is not
optional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DomainError, EmptyCorpus, KernelBlowup,
                     MonotonicityViolation, NonpositiveRealPart)
from .planar import PlanarHarmonicMap
from .quadrature import (QuadratureSpec, Sampler, circle_angles, gauss_legendre,
                         refined_circle_mean)
from .series import ComplexSeries, circle_values

#: evaluation points closer to the boundary than this are rejected by the
#: Poisson quadrature
POISSON_FLOOR = 1e-2

#: dyadic radius grid used as the monotonicity cross-check in the norm estimate
HARDY_RADII = tuple(1.0 - 2.0 ** -j for j in range(1, 7))


@dataclass(frozen=True)
class MeanReport:
    r: float
    p: float
    value: float
    nodes: int
    est_error: float


def _map_sampler(m: PlanarHarmonicMap, r: float, part) -> Sampler:
    """Sampler of part(f) on the circle of radius r, for refined_circle_mean."""
    return lambda n, shift: part(circle_values(m.g, m.h, r, n, shift))


def circle_mean_p(m: PlanarHarmonicMap, r: float, p: float,
                  q: QuadratureSpec) -> MeanReport:
    """M_p(r, f) = ((1/2pi) int |f(r e^it)|^p dt)^(1/p) with refinement."""
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    if p <= 0.0:
        raise DomainError("exponent p must be positive")
    # refine on the transformed value so est_error lives on the M_p scale
    value, err, nodes, _ = refined_circle_mean(
        _map_sampler(m, r, lambda f: np.abs(f) ** p), q,
        context=f"M_p(r={r}, p={p})", transform=lambda mean: mean ** (1.0 / p))
    return MeanReport(r=r, p=p, value=value, nodes=nodes, est_error=err)


def hardy_norm_estimate(m: PlanarHarmonicMap, p: float, q: QuadratureSpec) -> MeanReport:
    """sup over radii of M_p(r, f), reported as M_p(1, f), which it equals
    for polynomial data.

    The dyadic radius grid is evaluated as a cross-check: |f|^p is
    subharmonic, so the means must be nondecreasing in r up to quadrature
    error, and a decrease beyond tolerance raises MonotonicityViolation.
    """
    if p < 1.0:
        raise DomainError("hardy_norm_estimate requires p >= 1")
    reports = [circle_mean_p(m, r, p, q) for r in HARDY_RADII + (1.0,)]
    for lo, hi in zip(reports[:-1], reports[1:]):
        slack = lo.est_error + hi.est_error + 1e-12
        if hi.value < lo.value - slack:
            raise MonotonicityViolation(
                f"M_p decreased from {lo.value!r} (r={lo.r}) to {hi.value!r} "
                f"(r={hi.r}) beyond tolerance {slack:.3e}")
    return reports[-1]


def _log_plus(x: np.ndarray) -> np.ndarray:
    """x * log+(x) for x >= 0, with the x <= 1 branch exactly zero."""
    out = np.zeros_like(x)
    mask = x > 1.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def zygmund_plus_report(m: PlanarHarmonicMap, r: float,
                        q: QuadratureSpec) -> tuple[float, float, int]:
    """((1/2pi) int |u(r e^it)| log+ |u(r e^it)| dt, est_error, nodes) for
    u = Re f."""
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")
    value, err, nodes, _ = refined_circle_mean(
        _map_sampler(m, r, lambda f: _log_plus(np.abs(f.real))), q,
        context="zygmund_plus")
    return value, err, nodes


def entropy_u_report(m: PlanarHarmonicMap, r: float,
                     q: QuadratureSpec) -> tuple[float, float, int]:
    """((1/2pi) int u log u dt, est_error, nodes); the mean may be negative;
    requires u > 0 on the circle."""
    if not 0.0 < r <= 1.0:
        raise DomainError("radius must lie in (0, 1]")

    def integrand(f: np.ndarray) -> np.ndarray:
        u = f.real
        if u.min() <= 0.0:
            raise NonpositiveRealPart(
                f"min u = {u.min():.3e} <= 0 on the circle of radius {r}")
        return u * np.log(u)

    value, err, nodes, _ = refined_circle_mean(_map_sampler(m, r, integrand), q,
                                               context="entropy_u")
    return value, err, nodes


def poisson_kernel(x: complex, theta: np.ndarray) -> np.ndarray:
    """P(x, e^it) = (1 - |x|^2) / |x - e^it|^2, the disk case of the ball kernel."""
    eta = np.exp(1j * theta)
    return (1.0 - abs(x) ** 2) / np.abs(x - eta) ** 2


def poisson_extend_circle(boundary, x: complex, q: QuadratureSpec) -> float:
    """Harmonic extension (1/2pi) int P(x, e^it) phi(t) dt of circle data.

    ``boundary`` is a callable t -> phi(t), sampled uniformly with
    refinement.  Points with 1 - |x| < POISSON_FLOOR raise KernelBlowup.
    """
    x = complex(x)
    if 1.0 - abs(x) < POISSON_FLOOR:
        raise KernelBlowup(f"1 - |x| = {1.0 - abs(x):.3e} below floor {POISSON_FLOOR:.1e}")

    def integrand(n: int, shift: bool) -> np.ndarray:
        theta = circle_angles(n, shift)
        return poisson_kernel(x, theta) * np.asarray(boundary(theta), dtype=float)

    value, _, _, _ = refined_circle_mean(integrand, q, context="poisson_extend_circle")
    return value


def _calderon_nodes(H: ComplexSeries) -> int:
    """Gauss-Legendre count making the |H'|^2 (1 - rho) integral exact."""
    d = H.derivative().trimmed().degree
    return max(16, d + 1)


def calderon_square(H: ComplexSeries, z: complex) -> float:
    """G[H](z) = sqrt( int_0^1 |H'(rho z)|^2 (1 - rho) d rho )."""
    if abs(z) > 1.0 + 1e-12:
        raise DomainError("|z| must be <= 1")
    rho, w = gauss_legendre(_calderon_nodes(H), 0.0, 1.0)
    vals = H.derivative()(rho * complex(z))
    return float(np.sqrt(np.sum(w * (1.0 - rho) * (vals.real ** 2 + vals.imag ** 2))))


def _square_function_series(H: ComplexSeries) -> ComplexSeries:
    """Coefficients c_m, m >= 0, of G[H]^2 on the unit circle.

    With H' = sum_j j a_j z^(j-1) and int_0^1 rho^(j+k-2) (1 - rho) d rho
    = 1/((j+k-1)(j+k)), G[H](e^it)^2 = sum_m c_m e^(imt) with
    c_m = sum_{j-k=m} j k a_j conj(a_k) / ((j+k-1)(j+k)), j, k >= 1.
    This is a Hermitian trigonometric polynomial: c_-m = conj(c_m).
    """
    j = np.arange(1, len(H.coeffs))
    b = j * H.coeffs[1:]
    s = j[:, None] + j[None, :]
    terms = np.outer(b, np.conjugate(b)) / ((s - 1) * s)  # row j, column k
    return ComplexSeries([np.trace(terms, -m) for m in range(len(j))] or [0j])


def calderon_norms(H: ComplexSeries, q: QuadratureSpec) -> tuple[float, float]:
    """(||H||_1, ||G[H]||_1) on the unit circle, each by refined_circle_mean.

    G[H]^2 on the circle is the Hermitian trigonometric polynomial of
    ``_square_function_series``, so each level takes one ``circle_values``
    call: its c_m, m >= 0, fill the nonnegative frequencies and their
    conjugates the negative ones.  The real part, clipped at 0 against
    rounding, gives G[H]^2.  H must satisfy H(0) = 0 and be nonzero.
    """
    if H.coeffs[0] != 0:
        raise DomainError("the series must satisfy H(0) = 0")
    C = _square_function_series(H)
    C_neg = ComplexSeries(np.concatenate(([0j], C.coeffs[1:])))  # c_0 is in C already

    def square_function(n: int, shift: bool) -> np.ndarray:
        return np.sqrt(np.maximum(circle_values(C, C_neg, 1.0, n, shift).real, 0.0))

    norm_H, _, _, _ = refined_circle_mean(
        lambda n, shift: np.abs(circle_values(H, None, 1.0, n, shift)), q,
        context="||H||_1")
    norm_GH, _, _, _ = refined_circle_mean(square_function, q, context="||G[H]||_1")
    if norm_H == 0.0 or norm_GH == 0.0:
        raise DomainError("the zero series has no norm ratio")
    return norm_H, norm_GH


def calderon_ratio_estimate(corpus: Sequence[ComplexSeries],
                            q: QuadratureSpec) -> tuple[float, float]:
    """Empirical lower bounds for the two square-function comparison constants.

    Returns (max ||H||_1 / ||G[H]||_1, max ||G[H]||_1 / ||H||_1) over the
    corpus; every H must satisfy H(0) = 0.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("calderon_ratio_estimate needs a nonempty corpus")
    c1_lb = 0.0
    c2_lb = 0.0
    for H in corpus:
        nh, ng = calderon_norms(H, q)
        c1_lb = max(c1_lb, nh / ng)
        c2_lb = max(c2_lb, ng / nh)
    return c1_lb, c2_lb
