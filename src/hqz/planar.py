"""Planar harmonic maps f = g + conj(h) with controlled dilatation.

A sense-preserving harmonic map of the unit disk splits as f = g + conj(h)
with g, h holomorphic and h(0) = 0; it is k-quasiregular exactly when
|h'| <= k |g'| with k = (K-1)/(K+1).  Everything here works on truncated
power series, so construction and differentiation are exact and the only
numerics live in ``dilatation_sups``: for a batch of maps it locates each
largest |h'/g'| on a tensor grid of FFT circle values and polishes all of
them together by a local search on separable r^j e^(ijt) power tables.

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
from .series import DEGREE_CAP, ComplexSeries, circle_values, stacked

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


def disk_grid(n_radii: int, n_angles: int) -> np.ndarray:
    """z = 0, then the tensor grid of radii j/n_radii and uniform angles."""
    radii = np.arange(1, n_radii + 1) / n_radii
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.concatenate(([0j], np.outer(radii, np.exp(1j * angles)).ravel()))


def _derivative_coeffs(maps: list[PlanarHarmonicMap]) -> np.ndarray:
    """(maps x 2 x n) coefficients of each map's g' and h', zero-padded to one n."""
    rows = stacked([s for m in maps for s in (m.g_prime, m.h_prime)])
    return rows.reshape(len(maps), 2, rows.shape[-1])


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


def _patch_values(coeffs: np.ndarray, radii: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|g'| and |h'| of map i on its patch radii[i] x angles[i], shape
    (maps, 2, radii, angles).  z^j = r^j e^(ijt) is separable, so one
    ``_power_table`` of every map's radii and e^(it) serves the batch."""
    (count, n_r), n = radii.shape, coeffs.shape[-1]
    table = _power_table(np.concatenate((radii, np.exp(1j * angles)), axis=1).ravel(), n)
    table = table.reshape(n, count, n_r + angles.shape[1])
    rows = table[:, :, :n_r].transpose(1, 2, 0)
    cols = table[:, :, n_r:].transpose(1, 0, 2)
    return np.abs((coeffs[:, :, None, :] * rows[:, None]) @ cols[:, None])


def _grid_starts(m: PlanarHarmonicMap, n_radii: int, n_angles: int, search: bool,
                 strides: tuple[int, ...]) -> list[tuple[float, float, float]]:
    """(min |g'|, radius, angle of the largest |h'/g'|) on every s-th radius and
    angle (s in ``strides``) of the grid of radii j/n_radii and n_angles angles,
    one FFT per derivative; the argmax is 0 without ``search`` or past TAU_G."""
    radii = np.concatenate(([0.0], np.arange(1, n_radii + 1) / n_radii))
    gp = np.abs(circle_values(m.g_prime, None, radii, n_angles))
    hp = np.abs(circle_values(m.h_prime, None, radii, n_angles)) if search else None
    starts = []
    for s in strides:
        g = gp[::s, ::s]
        gmin, i, j = float(g.min()), 0, 0
        if search and gmin > TAU_G:
            i, j = np.unravel_index(int(np.argmax(hp[::s, ::s] / g)), g.shape)
        starts.append((gmin, float(radii[s * i]), float(2.0 * np.pi * (s * j) / n_angles)))
    return starts


def _polish(coeffs: np.ndarray, r0: np.ndarray, t0: np.ndarray, dr: float,
            dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrinking local grid search around each map's coarse argmax.

    For 12 rounds each map takes |h'/g'| on a 9 x 9 patch of radii in
    [r0 - dr, r0 + dr] (clipped to [0, 1]) and angles in [t0 - dt, t0 + dt]
    around its own centre and moves there if the patch maximum beats its
    best so far (at first the centre's); the shared half-widths shrink 4x.
    A map whose patch has min |g'| <= TAU_G leaves the batch.  Returns each
    map's best ratio and the min |g'| that stopped it (inf if none did).
    """
    best, stop = np.zeros(len(r0)), np.full(len(r0), np.inf)
    on = idx = np.arange(len(r0))
    for rnd in range(12):
        rs = (r0[:, None] + dr * _PATCH).clip(0.0, 1.0)
        ts = t0[:, None] + dt * _PATCH
        gp, hp = _patch_values(coeffs, rs, ts).transpose(1, 0, 2, 3)
        gmin = gp.min(axis=(1, 2))
        if gmin.min(initial=np.inf) <= TAU_G:
            ok = gmin > TAU_G
            stop[on[~ok]] = gmin[~ok]
            on, coeffs, best, r0, t0, rs, ts, gp, hp = (
                a[ok] for a in (on, coeffs, best, r0, t0, rs, ts, gp, hp))
            idx = np.arange(len(on))
        ratio = (hp / gp).reshape(len(on), 81)
        if rnd == 0:
            best = ratio[:, 40]
        top = ratio.argmax(axis=1)
        val = ratio[idx, top]
        up = val > best
        best = np.where(up, val, best)
        r0 = np.where(up, rs[idx, top // 9], r0)
        t0 = np.where(up, ts[idx, top % 9], t0)
        dr, dt = dr / 4.0, dt / 4.0
    return np.bincount(on, best, len(stop)), stop  # best scattered back, 0 if stopped


def dilatation_sups(maps: list[PlanarHarmonicMap],
                    grid: QuadratureSpec | None = None) -> list[DilatationReport]:
    """Grid supremum of |h'/g'| for each map, refined until stable.

    Level l takes each map's argmax on the tensor grid of radial_nodes 2^l
    radii and circle_nodes 2^l angles, and ``_polish`` refines all maps'
    argmaxes together.  Levels 0 and 1 read one grid, level 1's, whose
    every other radius and angle is a node of level 0.  A map stops at the
    first level >= 1 that moves its supremum by at most abs_tol; with h' = 0
    the ratio is 0 everywhere and it stops there unsearched.  Each k_hat is
    a lower bound; every evaluated |g'| must exceed TAU_G, else
    DegenerateDerivative.  If maps fail, the first failing map's error is
    raised, the one it raises alone.
    """
    spec = grid if grid is not None else SUP_GRID_SPEC
    coeffs = _derivative_coeffs(maps)
    search = [not m.h_prime.is_zero() for m in maps]
    k_hat, levels = [0.0] * len(maps), [0] * len(maps)
    degenerate: dict[int, float] = {}  # map index -> the min |g'| that stopped it
    live = list(range(len(maps)))
    for level in range(spec.refinement_limit + 1):
        if not live:
            break
        n_r, n_t = spec.radial_nodes << level, spec.circle_nodes << level
        if level == 0:
            pairs = {i: _grid_starts(maps[i], 2 * n_r, 2 * n_t, search[i], (2, 1)) for i in live}
        starts = {i: pairs[i][level] if level < 2 else
                  _grid_starts(maps[i], n_r, n_t, search[i], (1,))[0] for i in live}
        degenerate.update({i: s[0] for i, s in starts.items() if s[0] <= TAU_G})
        run = [i for i in live if search[i] and i not in degenerate]
        best, stop = _polish(coeffs[run], np.array([starts[i][1] for i in run]),
                             np.array([starts[i][2] for i in run]), 1.0 / n_r, 2.0 * np.pi / n_t)
        degenerate.update({i: g for i, g in zip(run, stop.tolist()) if g <= TAU_G})
        value = dict.fromkeys(live, 0.0) | dict(zip(run, best.tolist()))
        first = min(degenerate, default=len(maps))  # later maps no longer matter
        moved = {i: abs(value[i] - k_hat[i]) for i in live if i < first}
        for i in moved:
            k_hat[i], levels[i] = max(k_hat[i], value[i]), level
        live = [i for i, d in moved.items() if level == 0 or d > spec.abs_tol]
    for i, k in enumerate(k_hat):
        if i in degenerate:
            raise DegenerateDerivative(
                f"min |g'| = {degenerate[i]:.3e} <= {TAU_G:.1e} on the sample grid")
        if k >= 1.0:
            raise HypothesisViolation(
                f"grid dilatation {k:.6f} >= 1: map is not sense-preserving QR")
    return [DilatationReport(k_hat=k, K_hat=(1.0 + k) / (1.0 - k),
                             grid=f"radii={spec.radial_nodes << n},"
                                  f"angles={spec.circle_nodes << n},levels={n}")
            for k, n in zip(k_hat, levels)]


def dilatation_sup(m: PlanarHarmonicMap, grid: QuadratureSpec | None = None) -> DilatationReport:
    """``dilatation_sups`` of the one map ``m``."""
    return dilatation_sups([m], grid)[0]


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
    g = ComplexSeries.constant(F.coeffs[0]) + gp.antiderivative()
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
    F = ComplexSeries(np.concatenate(([c0], tail)))
    if k == 0.0:
        omega = ComplexSeries.zero()
    else:
        raw2 = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        target = float(rng.uniform(0.5, 1.0)) * k
        raw2 = raw2 * (target / np.abs(raw2).sum())
        omega = ComplexSeries(raw2)
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
        "g": m.g.coeffs.view(float).reshape(-1, 2).tolist(),
        "h": m.h.coeffs.view(float).reshape(-1, 2).tolist(),
        "k": m.k_declared,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def map_from_json(text: str) -> PlanarHarmonicMap:
    payload = json.loads(text)
    g, h = (ComplexSeries(np.array(payload[key], dtype=float).view(complex).ravel())
            for key in ("g", "h"))
    return PlanarHarmonicMap(g=g, h=h, k_declared=float(payload["k"]))


def jacobian(m: PlanarHarmonicMap, z) -> float:
    """|g'|^2 - |h'|^2; positive exactly where f is sense-preserving."""
    gp = m.g_prime(z)
    hp = m.h_prime(z)
    return np.abs(gp) ** 2 - np.abs(hp) ** 2
