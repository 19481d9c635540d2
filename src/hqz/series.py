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
points, one Horner step per power on the whole block of rows and points,
flattened to one axis, in two buffers made once, and ``circle_values``
takes rows of coefficients, on radii, to g + conj(h) at uniform angles on
circles by one inverse FFT per circle.  ``ComplexSeries.__call__`` is
``horner``, on one point as on an array, with the bits that point gets
inside an array.  The block is flat so that a Horner step's two numpy
calls take operands of its shape: a broadcast operand about doubles a
call's cost, most of a step on the program's small blocks.  One row adds
its coefficients as 0-d scalars and needs no columns; more rows add
columns materialized on the block up to ``HORNER_COLUMNS_BUDGET``, past
which their memory and time outweigh the broadcast's cost.  A flat
one-element block also stays out of numpy's scalar loop, which rounds
differently.  Every circle functional goes through ``circle_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

#: truncation degree of the maps ``make_qr_map`` builds
DEGREE_CAP = 64

#: elements (powers x rows x points) up to which ``horner`` materializes its
#: coefficient columns on the flat block, 1 MiB: the audit's (2, J + 1) x 15
#: points, the crossings' (2, 65) x brackets and the dilatation polish fit
#: it; a bigger block adds (rows, 1) columns instead
HORNER_COLUMNS_BUDGET = 1 << 16


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

    The block of rows and points runs flattened to one axis through two
    buffers made once: each step writes acc * z into the second and adds
    the coefficient column back into acc, so no step allocates.  A numpy
    call costs about twice as much when an operand is broadcast, which is
    most of a step on a block of a few hundred values, so each operand has
    the block's shape or is 0-d: z is broadcast to the block once, one row
    adds each coefficient as a 0-d scalar, and more rows add each column
    materialized on the block while all of them fit
    ``HORNER_COLUMNS_BUDGET``.  A larger block adds (rows, 1) columns to a
    (rows, points) block instead: there the broadcast costs little per
    value, and the peak stays two results.  numpy multiplies complex
    arrays in a vector loop, but one element in place, or one element in
    a block of two or more axes against a broadcast operand, in a scalar
    loop that rounds differently (numpy 2.4).  So the product stays out of
    place and a one-element block is (1,): one point gets the bits it gets
    inside an array.
    """
    z = np.asarray(z, dtype=complex)
    *rows, n = coeffs.shape
    n_rows, n_points = math.prod(rows), z.size
    columns = coeffs.reshape(n_rows, n).T[::-1]  # (powers, rows), top power first
    block = (n_rows * n_points,)
    if n_rows == 1:
        columns, zs = columns[:, 0], z.reshape(-1)
    elif n * n_rows * n_points <= HORNER_COLUMNS_BUDGET:
        zs = np.broadcast_to(z.reshape(-1), (n_rows, n_points)).reshape(-1)
        columns = np.broadcast_to(columns[..., None], (n, n_rows, n_points)).reshape(n, -1)
    else:
        block = (n_rows, n_points)
        columns, zs = np.ascontiguousarray(columns)[..., None], z.reshape(-1)
    acc = np.zeros(block, dtype=complex)
    prod = np.empty_like(acc)
    for c in columns:
        np.multiply(acc, zs, prod)
        np.add(prod, c, acc)
    return acc.reshape((*rows, *z.shape))[()]


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
