"""Truncated complex power series and their values on circles.

A series is one read-only complex128 coefficient array (index j holds the
z^j coefficient); all arithmetic (add, multiply, truncated reciprocal,
termwise calculus) is a numpy expression over it, exact in coefficient
arithmetic up to the requested truncation degree.  This is the
representation of every holomorphic piece in the package, so map
construction carries no quadrature error at all.

There are two ways to evaluate: ``horner`` takes rows of coefficients
(``stacked`` pads series to one length) to arbitrary arrays of points,
and ``circle_values`` gives g + conj(h) at uniform angles on circles by
one inverse FFT per circle.  ``ComplexSeries.__call__`` is ``horner`` on
arrays and a Python loop on one point.  Every circle functional goes
through ``circle_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

#: hard cap on truncation degrees accepted by series constructions
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
        """Horner evaluation; z may be a python complex or a numpy array."""
        if isinstance(z, np.ndarray):
            return horner(self.coeffs, z)
        acc = 0j  # one point: python complexes beat numpy scalars
        for c in reversed(self.coeffs.tolist()):
            acc = acc * z + c
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def derivative(self) -> "ComplexSeries":
        if self.degree == 0:
            return ComplexSeries.zero()
        return ComplexSeries(np.arange(1, self.coeffs.size) * self.coeffs[1:])

    def antiderivative(self) -> "ComplexSeries":
        """Termwise antiderivative with zero constant term."""
        j = np.arange(1, self.coeffs.size + 1)
        out = np.zeros(j.size + 1, dtype=complex)
        # parts divided separately, as python's complex / int does
        out.real[1:], out.imag[1:] = self.coeffs.real / j, self.coeffs.imag / j
        return ComplexSeries(out)

    def truncated(self, degree: int) -> "ComplexSeries":
        if degree < 0:
            raise DomainError("truncation degree must be >= 0")
        out = np.zeros(degree + 1, dtype=complex)
        out[: self.coeffs.size] = self.coeffs[: degree + 1]
        return ComplexSeries(out)

    def trimmed(self) -> "ComplexSeries":
        """Drop trailing zero coefficients (the zero series stays degree 0)."""
        nonzero = np.flatnonzero(self.coeffs)
        return ComplexSeries(self.coeffs[: nonzero[-1] + 1 if nonzero.size else 1])

    def __add__(self, other: "ComplexSeries") -> "ComplexSeries":
        return ComplexSeries(stacked([self, other]).sum(axis=0))

    def __mul__(self, other: "ComplexSeries") -> "ComplexSeries":
        return ComplexSeries(np.convolve(self.coeffs, other.coeffs))

    def reciprocal(self, degree: int) -> "ComplexSeries":
        """Coefficient recursion for 1/self, truncated at ``degree``:
        inv_n = -(a_1 inv_(n-1) + ... + a_j inv_(n-j)) / a_0, j = min(n, deg).

        Requires a nonvanishing constant term.
        """
        a0, tail = complex(self.coeffs[0]), self.coeffs[:0:-1]  # tail: a_deg, ..., a_1
        if a0 == 0:
            raise DomainError("reciprocal needs a nonzero constant term")
        inv = np.zeros(degree + 1, dtype=complex)
        inv[0] = 1.0 / a0
        for n in range(1, degree + 1):
            j = min(n, self.degree)
            inv[n] = -complex(tail[tail.size - j:].dot(inv[n - j: n])) / a0
        return ComplexSeries(inv)

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
    """Every polynomial of ``coeffs`` (last axis the power) at every z.

    Runs in z's precision, at least complex128, so np.clongdouble points
    keep their width; the result has shape coeffs.shape[:-1] + z.shape.
    """
    z = np.asarray(z)
    *rows, n = coeffs.shape
    acc = np.zeros((*rows, *z.shape), dtype=np.result_type(z.dtype, complex))
    for c in np.moveaxis(coeffs, -1, 0)[::-1].reshape((n, *rows) + (1,) * z.ndim):
        acc = acc * z + c
    return acc


def circle_values(g: ComplexSeries, h: ComplexSeries | None, r, n: int,
                  shift: bool = False) -> np.ndarray:
    """g(z) + conj(h(z)) at z = r e^(i t_k), t_k = 2 pi (k + shift/2) / n.

    In coefficients this is sum_j g_j (r e^(i t))^j + sum_j conj(h_j)
    (r e^(-i t))^j: the g part fills the nonnegative frequencies and the
    conj(h) part the nonpositive ones of a single inverse FFT.  A
    coefficient whose index is at least n is added in at index j mod n,
    which is exact on the grid, so any n >= 1 works.  With ``shift`` the
    angles move by half a step, through the twist e^(+-i j pi / n) of the
    coefficients.  ``r`` may be a scalar (result shape (n,)) or a 1-D
    array of radii (one row of n values per radius).
    """
    r = np.asarray(r, dtype=float)
    buf = np.zeros(r.shape + (n,), dtype=complex)
    for s, sign in ((g, 1), (h, -1)):
        if s is None:
            continue
        c = s.coeffs if sign > 0 else np.conjugate(s.coeffs)
        j = np.arange(len(c))
        c = c * r[..., None] ** j
        if shift:
            c = c * np.exp(sign * 1j * np.pi / n * j)
        if len(j) > n:  # fold index j onto j mod n
            pad = np.zeros(c.shape[:-1] + (-len(j) % n,), dtype=complex)
            c = np.concatenate((c, pad), axis=-1).reshape(c.shape[:-1] + (-1, n)).sum(axis=-2)
        if sign > 0:
            buf[..., : c.shape[-1]] += c
        else:  # index j of the conj(h) part goes to -j mod n
            buf[..., 0] += c[..., 0]
            buf[..., n - c.shape[-1] + 1:] += c[..., :0:-1]
    return np.fft.ifft(buf, axis=-1, norm="forward")


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
