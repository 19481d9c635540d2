"""Planar harmonic maps f = g + conj(h) with certified dilatation.

A sense-preserving harmonic map of the unit disk splits as f = g + conj(h)
with g, h holomorphic and h(0) = 0; it is k-quasiregular exactly when
|h'| <= k |g'| with k = (K-1)/(K+1).  Its dilatation omega = h'/g' is
holomorphic (Duren, Harmonic Mappings in the Plane, 2004), so a map built
as g' = P, h' = omega P has sup over the disk of |h'/g'| equal to the
maximum of |omega| on the unit circle, zeros of g' included (they are
removable).  Everything here works on truncated power series, so
construction and differentiation are exact up to rounding, and the only
numerics are the dilatation bounds: the sampled maximum of |omega| on the
circle times the Ehlich-Zeller factor gives the upper bound k_upper
(``dilatation_upper``, one FFT for all omegas of one degree), and a Newton
polish of the samples the lower bound k_hat (``dilatation_sup``, one
``horner`` call per step for all candidates).

``make_qr_map`` builds such maps, truncated at degree DEGREE_CAP, with
g + h close to a prescribed F, one per row of coefficient arrays: this is
how the fuzz corpus realizes positive real part and a dilatation of
exactly max |omega|.  ``random_qr_maps`` builds the corpus maps of many
seeds with one ``make_qr_map`` call, each map byte for byte the one its
seed gives alone (``random_qr_map``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, HypothesisViolation
from .quadrature import QuadratureSpec
from .series import DEGREE_CAP, ComplexSeries, circle_values, horner

#: Newton steps that polish each candidate maximum of |omega| on the circle:
#: from within half a node step, two reach rounding level
_NEWTON_STEPS = 2

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PlanarHarmonicMap:
    """Pair (g, h) encoding f = g + conj(h), the claimed dilatation bound and,
    when known, the dilatation omega = h'/g' as a polynomial.  A non-finite
    coefficient is refused here, so every consumer of a map sees finite data."""

    g: ComplexSeries
    h: ComplexSeries
    k_declared: float = 0.0
    omega: ComplexSeries | None = None

    def __post_init__(self) -> None:
        parts = [s.coeffs for s in (self.g, self.h, self.omega) if s is not None]
        if not np.isfinite(np.concatenate(parts)).all():
            raise DomainError("a map needs finite coefficients in g, h and omega")
        if self.h.coeffs[0] != 0:
            raise DomainError("h(0) must vanish in the decomposition f = g + conj(h)")
        if not 0.0 <= self.k_declared < 1.0:
            raise DomainError("k_declared must lie in [0, 1)")
        if self.omega is not None:
            hp, tol = self.h_prime.coeffs, self._h_prime_tolerance
            miss = np.convolve(self.omega.coeffs, self.g_prime.coeffs)  # as long as tol
            miss[: hp.size] -= hp[: miss.size]
            if (np.abs(miss) > tol).any() or hp[miss.size:].any():
                raise DomainError("h' differs from omega g' beyond rounding: omega is not h'/g'")

    @cached_property
    def g_prime(self) -> ComplexSeries:
        return self.g.derivative()

    @cached_property
    def h_prime(self) -> ComplexSeries:
        return self.h.derivative()

    @cached_property
    def _h_prime_tolerance(self) -> np.ndarray:
        """Rounding bound of each coefficient of omega g': a sum of at most n
        complex products, within 2 (n + 4) eps (|omega| * |g'|)_j (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
        section 3.1, with room for the complex products and the termwise
        calculus that stores h' as h)."""
        a, b = np.abs(self.omega.coeffs), np.abs(self.g_prime.coeffs)
        return 2.0 * (min(a.size, b.size) + 4) * _EPS * np.convolve(a, b)

    @cached_property
    def h_rounding(self) -> float:
        """Bound on sup over the closed disk of |h - int omega g'|, so of |f - f*|
        for the exact map f* with dilatation omega; 0 without omega.

        The stored h' is within the tolerance of the float omega g', which is
        within it of the exact product, and integration divides coefficient
        j of h' by j + 1.
        """
        if self.omega is None:
            return 0.0
        tol = self._h_prime_tolerance
        return float((2.0 * tol / np.arange(1, tol.size + 1)).sum())

    def __call__(self, z):
        return self.g(z) + np.conjugate(self.h(z))

    def f0(self) -> complex:
        return complex(self.g.coeffs[0])


@dataclass(frozen=True)
class DilatationReport:
    """k_hat <= sup |h'/g'| <= k_upper over the disk, K_hat = (1 + k_hat) / (1 - k_hat),
    from ``nodes`` circle samples of omega (0 where k = 0 is exact)."""

    k_hat: float
    K_hat: float
    k_upper: float
    nodes: int


def _omega_upper(rows: np.ndarray, floor: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """(k_upper, |omega| samples, N) for stacked omegas of one degree d:
    k_upper >= max over |z| = 1 of |omega| for each row.

    One ``circle_values`` call samples every row at N = 64 * 2^ceil(log2 d)
    uniform angles (at least ``floor``).  e^(-idt/2) omega(e^(it)) has
    frequencies in [-d/2, d/2], so at distance s from the maximum M,
    |omega| >= M cos(d s / 2) (Ehlich & Zeller 1964), and a node lies
    within pi / N of it: k_upper is the smaller of the l1 norm and the
    node maximum times sec(pi d / 2N), each rounded up by its
    evaluation's rounding bound.
    """
    d = rows.shape[-1] - 1
    n = max(64 << max(d - 1, 0).bit_length(), floor)
    vals = np.abs(circle_values(rows, None, 1.0, n))
    l1 = np.abs(rows).sum(axis=-1)
    # FFT rounding (Higham, section 24.1) bounds every sample to this
    fft_error = 3.0 * math.log2(n) * math.sqrt(n) * _EPS * l1
    upper = np.minimum(l1 * (1.0 + (d + 2) * _EPS),
                       (vals.max(axis=-1) + fft_error) / math.cos(math.pi * d / (2 * n)))
    return upper, vals, n


def _certified_omega(m: PlanarHarmonicMap) -> ComplexSeries | None:
    """m's trimmed omega, None when k = 0 is exact (h = 0 or omega = 0), or
    HypothesisViolation when h != 0 and the map carries no omega."""
    if m.omega is None and not m.h.is_zero():
        raise HypothesisViolation("h' != 0 and the map carries no omega = h'/g', so its "
                                  "dilatation cannot be certified (build it with make_qr_map)")
    if m.omega is None or m.omega.is_zero():
        return None
    return m.omega.trimmed()


def _below_one(upper: float) -> float:
    if upper >= 1.0:
        raise HypothesisViolation(
            f"dilatation bound {upper:.6f} >= 1: map is not certified sense-preserving QR")
    return upper


def dilatation_upper(maps: Sequence[PlanarHarmonicMap],
                     grid: QuadratureSpec | None = None) -> list[float]:
    """k_upper >= sup over the disk of |h'/g'| for each map, the upper end
    of ``dilatation_sup``'s bracket without its Newton polish.

    The omegas of one degree share one ``circle_values`` call, at no fewer
    circle nodes than the spec's circle_nodes; a map with k = 0 exact gets
    0.  Raises HypothesisViolation for the first map that cannot be
    certified or whose bound is not below 1.
    """
    floor = 0 if grid is None else grid.circle_nodes
    omegas = [_certified_omega(m) for m in maps]
    upper = [0.0] * len(maps)
    by_size = {}
    for i, w in enumerate(omegas):
        if w is not None:
            by_size.setdefault(w.coeffs.size, []).append(i)
    for idx in by_size.values():
        bounds, _, _ = _omega_upper(np.stack([omegas[i].coeffs for i in idx]), floor)
        for i, bound in zip(idx, bounds.tolist()):
            upper[i] = bound
    return [_below_one(bound) for bound in upper]


def dilatation_sup(m: PlanarHarmonicMap, grid: QuadratureSpec | None = None) -> DilatationReport:
    """Certified bracket [k_hat, k_upper] of sup over the disk of |h'/g'|.

    k_upper is ``dilatation_upper``'s.  Every sample of omega that is a
    local maximum and could lie under the maximum is polished by Newton
    steps on |omega(e^(it))|^2, each one ``horner`` call on omega and its
    two t-derivatives at all of them; k_hat is the largest |omega| reached.
    A map with h = 0 (or omega = 0) has k = 0 exactly and needs no samples.
    Raises HypothesisViolation as ``dilatation_upper`` does.
    """
    w0 = _certified_omega(m)
    if w0 is None:
        return DilatationReport(k_hat=0.0, K_hat=1.0, k_upper=0.0, nodes=0)
    a, d = w0.coeffs, w0.degree
    (upper,), (vals,), n = _omega_upper(a[None], 0 if grid is None else grid.circle_nodes)
    upper = _below_one(float(upper))
    j = np.arange(d + 1)
    rows = np.stack((a, 1j * j * a, -(j * j) * a))  # omega(e^(it)) and its d/dt, d^2/dt^2
    top = float(vals.max())
    peak = ((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
            & (vals >= top * math.cos(math.pi * d / (2 * n))))
    t = 2.0 * math.pi * np.flatnonzero(peak) / n
    for _ in range(_NEWTON_STEPS):
        w, dw, d2w = horner(rows, np.exp(1j * t))
        w = np.conjugate(w)
        slope, curve = (w * dw).real, np.abs(dw) ** 2 + (w * d2w).real
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(slope / curve, -math.pi / n, math.pi / n)
        # Newton on d/dt |omega|^2 = 0, at most half a node step
        t = np.where(curve < 0.0, t - step, t)
    lower = float(np.abs(horner(a, np.exp(1j * t))).max(initial=top))
    return DilatationReport(k_hat=lower, K_hat=(1.0 + lower) / (1.0 - lower),
                            k_upper=upper, nodes=n)


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """1/a truncated at a's degree, by Newton doubling x <- x (2 - a x)
    from x = 1/a_0: each step doubles the number of correct coefficients.
    Requires a_0 != 0."""
    x = np.array([1.0 / complex(a[0])])
    while x.size < a.size:
        m = min(2 * x.size, a.size)
        e = -np.convolve(a[:m], x)[:m]
        e[0] += 2.0
        x = np.convolve(x, e)[:m]
    return x


def _integral(c: np.ndarray) -> np.ndarray:
    """Termwise antiderivative of each row of coefficients c, with zero
    constant term."""
    n = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (n + 1,), dtype=complex)
    # parts divided separately by j = 1, 1, 2, 2, ..., as python's complex / int does
    np.divide(c.view(float), np.arange(2, 2 * n + 2) // 2, out=out.view(float)[..., 2:])
    return out


def make_qr_map(F: np.ndarray, omega: np.ndarray) -> list[PlanarHarmonicMap]:
    """One harmonic map per row of the coefficient arrays F and omega (one
    row per map, powers along the last axis, zero-padded): g' = P,
    h' = omega P and g + h = F(0) + int (1 + omega) P.

    Each omega row is trimmed of its trailing zeros, 1 + omega is
    zero-padded or cut to degree d_P = DEGREE_CAP - 1 - deg omega, and
    P = F'/(1 + omega), expanded by Newton doubling (P = F' when
    omega = 0), is truncated at d_P, so that h' = omega P, an exact
    coefficient product, stays below degree DEGREE_CAP; g = F(0) + int P
    and h = int h'.  Each map carries its omega, its dilatation is max over
    |z| = 1 of |omega|, and g + h is F up to the truncation tail of
    F'/(1 + omega), so Re f is Re F only up to that tail.

    The rows whose omegas have one trimmed length are one stack for the
    trimming, the l1 norms, F', the padding of 1 + omega and the two
    integrals; the reciprocal and the two products run row by row, and
    each map is checked by its own ``PlanarHarmonicMap``, so every map has
    the bits it has when built alone.

    Requires F(0) real, deg omega < DEGREE_CAP so that d_P >= 0, and
    sup |omega| < 1: certified by the l1 norm of omega, or else by the
    k_upper of ``_omega_upper``, which then becomes k_declared.  Then
    |omega(0)| < 1, so 1 + omega has a nonzero constant.  DomainError
    names the first row that breaks one, as building row by row would.
    """
    F, w = np.asarray(F, dtype=complex), np.asarray(omega, dtype=complex)
    nonzero = w != 0
    nonzero[:, 0] = True  # the zero series keeps its constant term
    stacks = {}  # trimmed length of omega -> its rows
    for i, s in enumerate((w.shape[-1] - nonzero[:, ::-1].argmax(axis=-1)).tolist()):
        stacks.setdefault(s, []).append(i)
    refusals = [(i, 0, "F(0) must be real so that Im f(0) = 0")  # (row, check, message)
                for i, im in enumerate(F[:, 0].imag.tolist()) if abs(im) > 0][:1]
    for s, rows in stacks.items():
        sel = slice(None) if len(stacks) == 1 else rows  # one stack: no copies
        ws = w[sel, :s]
        k_decl = np.abs(ws).sum(axis=-1)
        if s > DEGREE_CAP:
            refusals.append((rows[0], 1, f"deg omega = {s - 1} leaves no degree for g' "
                                         f"below {DEGREE_CAP}"))
        over = k_decl >= 1.0
        if over.any():  # then only the certificate can show sup |omega| < 1
            k_decl[over] = _omega_upper(ws[over])[0]
            refusals += [(rows[j], 2, "sup |omega| may reach 1 on the circle "
                                      f"(bound {k_decl[j]:.4f})")
                         for j in np.flatnonzero(k_decl >= 1.0)[:1]]
        stacks[s] = rows, sel, ws, k_decl
    if refusals:
        raise DomainError(min(refusals)[2])
    n = F.shape[-1]
    F_prime = np.arange(1, n) * F[:, 1:] if n > 1 else np.zeros((len(F), 1), dtype=complex)
    maps = [None] * len(F)
    for s, (rows, sel, ws, k_decl) in stacks.items():
        d_p = DEGREE_CAP - s
        one_plus = np.zeros((len(rows), d_p + 1), dtype=complex)
        one_plus[:, 0] = 1.0
        one_plus[:, :s] += ws[:, : d_p + 1]
        P, h_prime = [], []
        for fp, a, wi in zip(F_prime[sel], one_plus, ws):
            if s == 1 and wi[0] == 0:  # P = F'/1 = F', the bits of its Newton expansion
                p = np.zeros(d_p + 1, dtype=complex)
                p[: fp.size] = fp[: d_p + 1]
            else:
                p = np.convolve(fp, _reciprocal(a))[: d_p + 1]
            P.append(p)
            h_prime.append(np.convolve(wi, p))  # degree (s - 1) + d_p = DEGREE_CAP - 1
        P, h_prime = np.array(P), np.array(h_prime)
        g = np.zeros((len(rows), d_p + 2), dtype=complex)
        g[:, 0] = F[sel, 0]
        g += _integral(P)  # a sum, so F(0) + 0 and 0 + each term: a -0.0 part becomes 0.0
        for i, gi, hi, wi, k in zip(rows, g, _integral(h_prime), ws, k_decl.tolist()):
            maps[i] = PlanarHarmonicMap(g=ComplexSeries(gi), h=ComplexSeries(hi),
                                        k_declared=k, omega=ComplexSeries(wi))
    return maps


def random_qr_maps(seeds: Sequence[int], k: float, degree: int,
                   positivity_margin: float) -> list[PlanarHarmonicMap]:
    """The fuzz-corpus maps of ``seeds``, each ``random_qr_map(seed, ...)``.

    Each seed draws, from its own ``default_rng``, F = c0 + sum c_j z^j
    with c0 real and sum |c_j| <= c0 - margin, and omega with coefficient
    l1 norm <= k, so sup |omega| <= k.  One ``make_qr_map`` call builds the
    maps of all seeds, with k as their declared bound.  Their g + h is F
    up to a truncation tail, so Re f >= margin is certified again, for all
    maps at once, from the coefficients of g + h by the triangle
    inequality, or DomainError.  That tail grows with the degree, since P
    is truncated at DEGREE_CAP - 1 - degree: over seeds 0-19 at k = 0.5,
    ||g + h - F||_1 is at most 0.0005 of the l1 norm of F's non-constant
    part at degree 16 and 0.04 at 32, but 0.47 at 40 and 0.998 at 63,
    where the map no longer realizes F.  A seed gives the same map byte
    for byte in any list of seeds, and the error raised is the one of the
    first seed that cannot be built.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError("k must lie in [0, 1)")
    if positivity_margin <= 0.0:
        raise DomainError("positivity_margin must be positive")
    F = np.empty((len(seeds), degree + 1), dtype=complex)
    omega = np.zeros((len(seeds), degree + 1 if k else 1), dtype=complex)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        c0 = float(rng.uniform(0.8, 2.0))
        budget = c0 - positivity_margin
        if budget <= 0.0:
            random_qr_maps(seeds[:i], k, degree, positivity_margin)  # an earlier refusal first
            raise DomainError("positivity_margin leaves no coefficient budget")
        raw = rng.standard_normal((2, degree))  # real parts, then imaginary parts
        raw = raw[0] + 1j * raw[1]
        mass = float(rng.uniform(0.05, 0.9)) * budget
        F[i, 0], F[i, 1:] = c0, raw * (mass / np.abs(raw).sum())
        if k:
            raw2 = rng.standard_normal((2, degree + 1))
            raw2 = raw2[0] + 1j * raw2[1]
            target = float(rng.uniform(0.5, 1.0)) * k
            omega[i] = raw2 * (target / np.abs(raw2).sum())
    maps = make_qr_map(F, omega)
    s = np.array([m.h.coeffs for m in maps]).reshape(len(maps), DEGREE_CAP + 1)  # g + h
    for row, m in zip(s, maps):
        row[: m.g.coeffs.size] += m.g.coeffs
    low = s[:, 0].real - np.abs(s[:, 1:]).sum(axis=-1)
    refused = low < positivity_margin
    if refused.any():
        raise DomainError(f"Re f >= {low[refused.argmax()]:.4f} by the coefficient l1 norm, "
                          f"below the margin {positivity_margin}")
    for m in maps:
        # k >= ||omega||_1 is a valid claim too; set it on the fresh map rather
        # than run the omega check of a new PlanarHarmonicMap a second time
        object.__setattr__(m, "k_declared", k)
    return maps


def random_qr_map(seed: int, k: float, degree: int = 16,
                  positivity_margin: float = 0.05) -> PlanarHarmonicMap:
    """Deterministic fuzz-corpus generator: ``random_qr_maps`` of one seed.
    The same seed reproduces the same coefficients byte for byte."""
    return random_qr_maps([seed], k, degree, positivity_margin)[0]


def strip_example(n: int) -> PlanarHarmonicMap:
    """The analytic map z -> n/(n+1) + z/(n+1) into the strip (0,1) x R."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    g = ComplexSeries((n / (n + 1.0), 1.0 / (n + 1.0)))
    return PlanarHarmonicMap(g=g, h=ComplexSeries.zero(), k_declared=0.0)


def map_to_json(m: PlanarHarmonicMap) -> str:
    """Serialize as {"g": [[re, im], ...], "h": [[re, im], ...], "k": real},
    plus "omega": [[re, im], ...] when the map carries omega."""
    parts = {"g": m.g, "h": m.h} | ({} if m.omega is None else {"omega": m.omega})
    payload = {key: s.coeffs.view(float).reshape(-1, 2).tolist() for key, s in parts.items()}
    payload["k"] = m.k_declared
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def map_from_json(text: str) -> PlanarHarmonicMap:
    payload = json.loads(text)
    g, h, omega = (ComplexSeries(np.array(payload[key], dtype=float).view(complex).ravel())
                   if key in payload else None for key in ("g", "h", "omega"))
    return PlanarHarmonicMap(g=g, h=h, k_declared=float(payload["k"]), omega=omega)


def jacobian(m: PlanarHarmonicMap, z) -> float:
    """|g'|^2 - |h'|^2; positive exactly where f is sense-preserving."""
    gp = m.g_prime(z)
    hp = m.h_prime(z)
    return np.abs(gp) ** 2 - np.abs(hp) ** 2
