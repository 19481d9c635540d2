"""Planar harmonic maps f = g + conj(h) with controlled dilatation.

A sense-preserving harmonic map of the unit disk splits as f = g + conj(h)
with g, h holomorphic and h(0) = 0; it is k-quasiregular exactly when
|h'| <= k |g'| with k = (K-1)/(K+1).  Everything here works on truncated
power series, so construction and differentiation are exact and the only
numerics live in ``dilatation_sup``: it locates the largest |h'/g'| on a
tensor grid of FFT circle values and polishes it by a local search that
evaluates g' and h' as one power table times their coefficient matrix.

``make_qr_map`` engineers a map with prescribed g + h = F (hence
Re f = Re F and Im f(0) = Im F(0)) and h' the truncation of omega g',
which is how the fuzz corpus realizes positive real part and a dilatation
near |omega| wherever g' is not small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateDerivative, DomainError, HypothesisViolation,
                     TruncationOverflow)
from .quadrature import QuadratureSpec
from .series import DEGREE_CAP, ComplexSeries, circle_values

#: floor distinguishing genuine critical points of g from rounding
TAU_G = 1e-9

#: node offsets of the 9 x 9 polish patch, in units of its half-widths
_PATCH = np.linspace(-1.0, 1.0, 9)

#: default grid/refinement policy for sup-norm scans over the disk; the
#: polish step carries the accuracy, so levels converge after one doubling
SUP_GRID_SPEC = QuadratureSpec(circle_nodes=512, radial_nodes=64,
                               refinement_limit=4, abs_tol=1e-9)


@dataclass(frozen=True)
class PlanarHarmonicMap:
    """Pair (g, h) encoding f = g + conj(h), plus the claimed dilatation bound."""

    g: ComplexSeries
    h: ComplexSeries
    k_declared: float = 0.0

    def __post_init__(self) -> None:
        if self.h.coeffs[0] != 0:
            raise DomainError("h(0) must vanish in the decomposition f = g + conj(h)")
        if not 0.0 <= self.k_declared < 1.0:
            raise DomainError("k_declared must lie in [0, 1)")

    @cached_property
    def g_prime(self) -> ComplexSeries:
        return self.g.derivative()

    @cached_property
    def h_prime(self) -> ComplexSeries:
        return self.h.derivative()

    def __call__(self, z):
        return self.g(z) + np.conjugate(self.h(z))

    def u(self, z):
        """Real part of f."""
        return np.real(self.g(z) + np.conjugate(self.h(z)))

    def v(self, z):
        """Imaginary part of f."""
        return np.imag(self.g(z) + np.conjugate(self.h(z)))

    def f0(self) -> complex:
        return complex(self.g.coeffs[0])


@dataclass(frozen=True)
class DilatationReport:
    k_hat: float
    K_hat: float
    grid: str


def eval_map(m: PlanarHarmonicMap, z: complex) -> complex:
    """f(z) = g(z) + conj(h(z)) for |z| <= 1."""
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"evaluation point |z| = {abs(z)} outside the closed disk")
    return complex(m.g(complex(z)) + m.h(complex(z)).conjugate())


def disk_grid(n_radii: int, n_angles: int) -> np.ndarray:
    """z = 0, then the tensor grid of radii j/n_radii and uniform angles."""
    radii = np.arange(1, n_radii + 1) / n_radii
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.concatenate(([0j], np.outer(radii, np.exp(1j * angles)).ravel()))


def _derivative_coeffs(m: PlanarHarmonicMap) -> np.ndarray:
    """(2 x n) matrix whose rows hold the coefficients of g' and h'."""
    d = max(m.g_prime.degree, m.h_prime.degree)
    return np.array([m.g_prime.truncated(d).coeffs, m.h_prime.truncated(d).coeffs])


def _power_table(z: np.ndarray, n: int) -> np.ndarray:
    """(n x len(z)) table of z^j, j < n, by doubling.

    Rows [k, 2k) are rows [0, k) times z^k, with z^k from repeated
    squaring, so z^j is the product of the powers z^(2^p) in the binary
    expansion of j, and the table times a coefficient matrix stays within
    Horner's gamma_2n * sum |c_j| |z|^j error bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 5.1).
    """
    table = np.empty((n, z.size), dtype=complex)
    table[0] = 1.0
    zk = z
    k = 1
    while k < n:
        w = min(k, n - k)
        np.multiply(table[:w], zk, out=table[k: k + w])
        zk = zk * zk
        k *= 2
    return table


def _ratio_values(coeffs: np.ndarray, z: np.ndarray, tau_g: float) -> np.ndarray:
    """|h'/g'| at the points z, from the derivative coefficient matrix."""
    gp, hp = np.abs(coeffs @ _power_table(z, coeffs.shape[1]))
    gmin = float(gp.min())
    if gmin <= tau_g:
        raise DegenerateDerivative(
            f"min |g'| = {gmin:.3e} <= {tau_g:.1e} on the sample grid")
    return hp / gp


def _grid_dilatation(m: PlanarHarmonicMap, n_radii: int, n_angles: int) -> tuple[float, float]:
    """(radius, angle) of the largest |h'/g'| on the tensor grid."""
    radii = np.concatenate(([0.0], np.arange(1, n_radii + 1) / n_radii))
    gp = np.abs(circle_values(m.g_prime, None, radii, n_angles))
    hp = np.abs(circle_values(m.h_prime, None, radii, n_angles))
    gmin = float(gp.min())
    if gmin <= TAU_G:
        raise DegenerateDerivative(
            f"min |g'| = {gmin:.3e} <= {TAU_G:.1e} on the sample grid")
    i, j = np.unravel_index(int(np.argmax(hp / gp)), gp.shape)
    return float(radii[i]), float(2.0 * np.pi * j / n_angles)


def _polish_max(coeffs: np.ndarray, r0: float, t0: float, dr: float, dt: float) -> float:
    """Shrinking local grid search around a coarse argmax.

    Each of 12 rounds evaluates the ratio on a 9 x 9 patch of radii in
    [r0 - dr, r0 + dr] (clipped to [0, 1]) and angles in [t0 - dt, t0 + dt]
    by one ``_ratio_values`` call, recentres on the patch maximum if it
    beats the best value so far, and shrinks the half-widths by 4x.  The
    ratio is smooth where g' does not vanish, so the final value is exact
    to well below 1e-12.
    """
    best = float(_ratio_values(coeffs, np.asarray([r0 * np.exp(1j * t0)]), TAU_G)[0])
    for _ in range(12):
        rs = np.clip(r0 + dr * _PATCH, 0.0, 1.0)
        ts = t0 + dt * _PATCH
        ratio = _ratio_values(coeffs, (rs[:, None] * np.exp(1j * ts)).ravel(), TAU_G)
        top = int(np.argmax(ratio))
        if ratio[top] > best:
            best = float(ratio[top])
            r0, t0 = float(rs[top // 9]), float(ts[top % 9])
        dr /= 4.0
        dt /= 4.0
    return best


def dilatation_sup(m: PlanarHarmonicMap, grid: QuadratureSpec | None = None) -> DilatationReport:
    """Grid supremum of |h'/g'|, refined until stable.

    Each level locates the argmax on a tensor grid of radii and uniform
    angles (FFT values from ``circle_values``), then polishes it by a
    shrinking local search (``_polish_max``) that evaluates g' and h' as
    one power table times their coefficient matrix, built once per call.
    Levels double the grid and stop once the polished supremum moves by
    less than ``grid.abs_tol``.  The result is always a lower bound for
    the true dilatation; every evaluated point must have |g'| > TAU_G,
    else DegenerateDerivative.
    """
    spec = grid if grid is not None else SUP_GRID_SPEC
    n_r, n_t = spec.radial_nodes, spec.circle_nodes
    coeffs = _derivative_coeffs(m)

    def level(nr: int, nt: int) -> float:
        r0, t0 = _grid_dilatation(m, nr, nt)
        return _polish_max(coeffs, r0, t0, 1.0 / nr, 2.0 * np.pi / nt)

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
    if k_hat >= 1.0:
        raise HypothesisViolation(
            f"grid dilatation {k_hat:.6f} >= 1: map is not sense-preserving QR")
    K_hat = (1.0 + k_hat) / (1.0 - k_hat)
    return DilatationReport(k_hat=k_hat, K_hat=K_hat,
                            grid=f"radii={n_r},angles={n_t},levels={levels}")


def make_qr_map(F: ComplexSeries, omega: ComplexSeries,
                truncation_degree: int = DEGREE_CAP) -> PlanarHarmonicMap:
    """Map with g + h = F and h'/g' close to omega, as truncated series.

    g' = F'/(1 + omega) and h' = omega g' are expanded by the reciprocal
    recursion, truncated at degree ``truncation_degree - 1`` and integrated
    termwise, so Re f = Re F exactly in coefficient arithmetic.  h' is the
    truncation of omega g', not omega g' itself: |h'/g'| stays near |omega|
    only where |g'| is large against the truncation tail.  At a zero of g'
    inside the disk h' is in general not zero, so |h'/g'| is unbounded
    and the Jacobian negative near it.  Fuzz-corpus maps with k > 0 all
    have zeros of g' in the disk, most with h' != 0 there, and
    ``dilatation_sup`` reports only what its grid and polish see.

    Requires F(0) real and sup |omega| < 1 (certified via the coefficient
    l1 norm when possible).
    """
    if truncation_degree > DEGREE_CAP:
        raise TruncationOverflow(
            f"requested degree {truncation_degree} exceeds cap {DEGREE_CAP}")
    if truncation_degree < 1:
        raise DomainError("truncation_degree must be >= 1")
    if abs(F.coeffs[0].imag) > 0:
        raise DomainError("F(0) must be real so that Im f(0) = 0")
    if omega.coeff_abs_sum() >= 1.0:
        # l1 envelope is the cheap sufficient certificate; a genuine
        # sup |omega| >= 1 would break sense-preservation anyway
        sup_grid = float(np.abs(omega(disk_grid(32, 256))).max())
        if sup_grid >= 1.0:
            raise DomainError(f"sup |omega| >= 1 on the disk (grid value {sup_grid:.4f})")
    Fp = F.derivative()
    one_plus = ComplexSeries.constant(1.0) + omega
    recip = one_plus.reciprocal(truncation_degree - 1)
    gp = (Fp * recip).truncated(truncation_degree - 1)
    hp = (omega * gp).truncated(truncation_degree - 1)
    g = ComplexSeries((F.coeffs[0],)) + gp.antiderivative()
    h = hp.antiderivative()
    k_decl = min(omega.coeff_abs_sum(), 1.0 - 1e-15)
    return PlanarHarmonicMap(g=g, h=h, k_declared=k_decl)


def random_qr_map(seed: int, k: float, degree: int = 16,
                  positivity_margin: float = 0.05) -> PlanarHarmonicMap:
    """Deterministic fuzz-corpus generator.

    Draws F = c0 + sum c_j z^j with c0 real and sum |c_j| <= c0 - margin,
    so Re F >= margin on the closed disk by the triangle inequality, and
    omega with coefficient l1 norm <= k, so sup |omega| <= k.  The same
    seed reproduces the same coefficients byte for byte.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError("k must lie in [0, 1)")
    if positivity_margin <= 0.0:
        raise DomainError("positivity_margin must be positive")
    rng = np.random.default_rng(seed)
    c0 = float(rng.uniform(0.8, 2.0))
    budget = c0 - positivity_margin
    if budget <= 0.0:
        raise DomainError("positivity_margin leaves no coefficient budget")
    raw = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    mass = float(rng.uniform(0.05, 0.9)) * budget
    tail = raw * (mass / np.abs(raw).sum())
    F = ComplexSeries((complex(c0),) + tuple(complex(c) for c in tail))
    if k == 0.0:
        omega = ComplexSeries.zero()
    else:
        raw2 = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        target = float(rng.uniform(0.5, 1.0)) * k
        raw2 = raw2 * (target / np.abs(raw2).sum())
        omega = ComplexSeries(tuple(complex(c) for c in raw2))
    m = make_qr_map(F, omega, DEGREE_CAP)
    return PlanarHarmonicMap(g=m.g, h=m.h, k_declared=k)


def strip_example(n: int) -> PlanarHarmonicMap:
    """The analytic map z -> n/(n+1) + z/(n+1) into the strip (0,1) x R."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    g = ComplexSeries((n / (n + 1.0), 1.0 / (n + 1.0)))
    return PlanarHarmonicMap(g=g, h=ComplexSeries.zero(), k_declared=0.0)


def map_to_json(m: PlanarHarmonicMap) -> str:
    """Serialize as {"g": [[re, im], ...], "h": [[re, im], ...], "k": real}."""
    payload = {
        "g": [[c.real, c.imag] for c in m.g.coeffs],
        "h": [[c.real, c.imag] for c in m.h.coeffs],
        "k": m.k_declared,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def map_from_json(text: str) -> PlanarHarmonicMap:
    payload = json.loads(text)
    g = ComplexSeries(tuple(complex(re, im) for re, im in payload["g"]))
    h = ComplexSeries(tuple(complex(re, im) for re, im in payload["h"]))
    return PlanarHarmonicMap(g=g, h=h, k_declared=float(payload["k"]))


def jacobian(m: PlanarHarmonicMap, z) -> float:
    """|g'|^2 - |h'|^2; positive exactly where f is sense-preserving."""
    gp = m.g_prime(z)
    hp = m.h_prime(z)
    return np.abs(gp) ** 2 - np.abs(hp) ** 2
