"""Truncated complex power series and their values on circles.

A series is one read-only complex128 coefficient array (index j holds the
z^j coefficient), with the few operations the package reads (sum,
derivative, trimming, l1 norm) as numpy expressions over it.  This is the
representation of every holomorphic piece in the package.  The
construction arithmetic (truncated reciprocal, product, antiderivative)
is numpy on coefficient arrays inside ``planar.make_qr_map``, its one
user, so map construction carries no quadrature error at all.

There are two ways to evaluate, both in complex128: ``horner`` takes
rows of coefficients (``stacked`` pads series to one length) to arbitrary
points, one Horner step per power on the whole block of rows and points
in two buffers made once, and ``circle_values`` takes rows of
coefficients, on radii, to g + conj(h) at uniform angles on circles by
one inverse FFT per circle.  ``ComplexSeries.__call__`` is ``horner``, on
one point as on an array, with the bits that point gets inside an array
(``horner`` says why its product is out of place).  Every circle
functional goes through ``circle_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

#: truncation degree of the maps ``make_qr_map`` builds
DEGREE_CAP = 64


@dataclass(frozen=True, eq=False)  # == over an array field would raise
class ComplexSeries:
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("a series needs a 1-D array of at least the constant coefficient")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def constant(cls, c: complex) -> "ComplexSeries":
        return cls([c])

    @classmethod
    def zero(cls) -> "ComplexSeries":
        return cls([0j])

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """``horner`` at z, a Python number or an array of points."""
        return horner(self.coeffs, z)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def derivative(self) -> "ComplexSeries":
        if self.degree == 0:
            return ComplexSeries.zero()
        return ComplexSeries(np.arange(1, self.coeffs.size) * self.coeffs[1:])

    def trimmed(self) -> "ComplexSeries":
        """Drop trailing zero coefficients (the zero series stays degree 0)."""
        nonzero = np.flatnonzero(self.coeffs)
        return ComplexSeries(self.coeffs[: nonzero[-1] + 1 if nonzero.size else 1])

    def __add__(self, other: "ComplexSeries") -> "ComplexSeries":
        a, b = self.coeffs, other.coeffs
        out = np.zeros(max(a.size, b.size), dtype=complex)
        out[: a.size] = a
        out[: b.size] += b
        return ComplexSeries(out)

    def coeff_abs_sum(self) -> float:
        """l1 norm of the coefficients; bounds sup over the closed disk."""
        return float(np.abs(self.coeffs).sum())


def stacked(series: Sequence[ComplexSeries]) -> np.ndarray:
    """(len(series) x n) coefficient rows, each zero-padded to the longest n."""
    rows = np.zeros((len(series), max((s.coeffs.size for s in series), default=1)),
                    dtype=complex)
    for row, s in zip(rows, series):
        row[: s.coeffs.size] = s.coeffs
    return rows


def horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Every polynomial of ``coeffs`` (last axis the power) at every z, in
    complex128; the result has shape coeffs.shape[:-1] + z.shape (a scalar
    for one series at a 0-d z).

    The whole block, shape rows + z.shape, runs through two buffers made
    once: each step writes acc * z into the second and adds the
    coefficient column back into acc, so no step allocates.  numpy
    multiplies complex arrays in a vector loop, but one element in place,
    or one element held in a (1, 1) block, in a scalar loop that rounds
    differently (numpy 2.4).  So the product stays out of place and the
    block keeps the shapes of rows and z: one point then gets the bits it
    gets inside an array.
    """
    z = np.asarray(z, dtype=complex)
    *rows, n = coeffs.shape
    acc = np.zeros((*rows, *z.shape), dtype=complex)
    prod = np.empty_like(acc)
    columns = np.ascontiguousarray(np.moveaxis(coeffs, -1, 0)[::-1])  # top power first
    for c in columns.reshape((n, *rows) + (1,) * z.ndim):
        np.multiply(acc, z, prod)
        np.add(prod, c, acc)
    return acc[()]


def circle_values(g: np.ndarray, h: np.ndarray | None, r, n: int,
                  shift: bool = False) -> np.ndarray:
    """g(z) + conj(h(z)) at z = r e^(i t_k), t_k = 2 pi (k + shift/2) / n.

    ``g`` and ``h`` are coefficient arrays (last axis the power): one
    series, or stacked rows of series (h with g's rows, or with only its
    leading rows when the rest have h = 0), on one circle or on an array
    of radii ``r``.  The result holds one row of n values per
    row and radius, shape g.shape[:-1] + r.shape + (n,): (n,) for one
    series on one circle.

    In coefficients this is sum_j g_j (r e^(i t))^j + sum_j conj(h_j)
    (r e^(-i t))^j: the g part fills the nonnegative frequencies and the
    conj(h) part the nonpositive ones of a single inverse FFT per row and
    radius, in place: the result is the zeroed buffer itself, and the
    powers r^j are one table for g and h.  A coefficient whose index is
    at least n is added in at index j mod n, which is exact on the grid,
    so any n >= 1 works.  With ``shift`` the
    angles move by half a step, through the twist e^(+-i j pi / n) of the
    coefficients.
    """
    r = np.asarray(r, dtype=float)
    buf = np.zeros(g.shape[:-1] + r.shape + (n,), dtype=complex)
    powers = r[..., None] ** np.arange(max(g.shape[-1], 0 if h is None else h.shape[-1]))
    for c, sign in ((g, 1), (h, -1)):
        if c is None:
            continue
        j = np.arange(c.shape[-1])
        c = c.reshape(c.shape[:-1] + (1,) * r.ndim + j.shape)  # one row per radius
        c = (c if sign > 0 else np.conjugate(c)) * powers[..., : j.size]
        if shift:
            c = c * np.exp(sign * 1j * np.pi / n * j)
        if len(j) > n:  # fold index j onto j mod n
            pad = np.zeros(c.shape[:-1] + (-len(j) % n,), dtype=complex)
            c = np.concatenate((c, pad), axis=-1).reshape(c.shape[:-1] + (-1, n)).sum(axis=-2)
        if sign > 0:
            buf[..., : c.shape[-1]] += c
        else:  # index j of the conj(h) part goes to -j mod n, in h's rows
            rows = buf[: len(c)] if c.ndim > r.ndim + 1 else buf
            rows[..., 0] += c[..., 0]
            rows[..., n - c.shape[-1] + 1:] += c[..., :0:-1]
    return np.fft.ifft(buf, axis=-1, norm="forward", out=buf)


def random_series(seed: int, degree: int, zero_constant: bool = True) -> ComplexSeries:
    """Deterministic random polynomial with standard complex normal coefficients.

    With ``zero_constant`` the constant term is pinned to 0, the shape the
    square-function estimator requires.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    if zero_constant:
        coeffs[0] = 0.0
    return ComplexSeries(coeffs)
