"""Truncated complex power series and their values on circles.

A series is a finite coefficient tuple (index j holds the z^j
coefficient); all arithmetic (add, multiply, truncated reciprocal,
termwise calculus) is exact in coefficient arithmetic up to the requested
truncation degree.  This is the representation of every holomorphic piece
in the package, so map construction carries no quadrature error at all.

There are two ways to evaluate: ``ComplexSeries.__call__`` is the Horner
sum at arbitrary points, and ``circle_values`` gives g + conj(h) at
uniform angles on circles by one inverse FFT per circle.  Every circle
functional goes through ``circle_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

#: hard cap on truncation degrees accepted by series constructions
DEGREE_CAP = 64


@dataclass(frozen=True)
class ComplexSeries:
    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise DomainError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @classmethod
    def constant(cls, c: complex) -> "ComplexSeries":
        return cls((complex(c),))

    @classmethod
    def zero(cls) -> "ComplexSeries":
        return cls((0j,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def _arr(self) -> np.ndarray:
        a = np.asarray(self.coeffs, dtype=complex)
        a.setflags(write=False)
        return a

    def __call__(self, z):
        """Horner evaluation; z may be a python complex or a numpy array."""
        if isinstance(z, np.ndarray):
            acc = np.zeros_like(z, dtype=complex)
            for c in self._arr[::-1]:
                acc = acc * z + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def derivative(self) -> "ComplexSeries":
        if self.degree == 0:
            return ComplexSeries.zero()
        return ComplexSeries(tuple(j * c for j, c in enumerate(self.coeffs) if j >= 1))

    def antiderivative(self) -> "ComplexSeries":
        """Termwise antiderivative with zero constant term."""
        return ComplexSeries((0j,) + tuple(c / (j + 1) for j, c in enumerate(self.coeffs)))

    def truncated(self, degree: int) -> "ComplexSeries":
        if degree < 0:
            raise DomainError("truncation degree must be >= 0")
        return ComplexSeries(self.coeffs[: degree + 1] +
                             (0j,) * max(0, degree + 1 - len(self.coeffs)))

    def trimmed(self) -> "ComplexSeries":
        """Drop trailing zero coefficients (the zero series stays degree 0)."""
        n = len(self.coeffs)
        while n > 1 and self.coeffs[n - 1] == 0:
            n -= 1
        return ComplexSeries(self.coeffs[:n])

    def scale(self, s: complex) -> "ComplexSeries":
        return ComplexSeries(tuple(s * c for c in self.coeffs))

    def __add__(self, other: "ComplexSeries") -> "ComplexSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0j,) * (n - len(self.coeffs))
        b = other.coeffs + (0j,) * (n - len(other.coeffs))
        return ComplexSeries(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "ComplexSeries") -> "ComplexSeries":
        return self + other.scale(-1.0)

    def __mul__(self, other: "ComplexSeries") -> "ComplexSeries":
        out = [0j] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ComplexSeries(tuple(out))

    def reciprocal(self, degree: int) -> "ComplexSeries":
        """Coefficient recursion for 1/self, truncated at ``degree``.

        Requires a nonvanishing constant term.
        """
        a0 = self.coeffs[0]
        if a0 == 0:
            raise DomainError("reciprocal needs a nonzero constant term")
        inv = [1.0 / a0]
        for n in range(1, degree + 1):
            s = 0j
            for j in range(1, min(n, self.degree) + 1):
                s += self.coeffs[j] * inv[n - j]
            inv.append(-s / a0)
        return ComplexSeries(tuple(inv))

    def coeff_abs_sum(self) -> float:
        """l1 norm of the coefficients; bounds sup over the closed disk."""
        return float(sum(abs(c) for c in self.coeffs))


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
        c = s._arr if sign > 0 else np.conjugate(s._arr)
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
    re = rng.standard_normal(degree + 1)
    im = rng.standard_normal(degree + 1)
    coeffs = [complex(x, y) for x, y in zip(re, im)]
    if zero_constant:
        coeffs[0] = 0j
    return ComplexSeries(tuple(coeffs))
