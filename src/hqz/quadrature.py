"""Quadrature primitives shared by the whole toolkit.

Two kinds of rule cover everything here:

* periodic trapezoid on the circle (spectrally accurate for smooth
  periodic integrands, so refinement converges in a couple of doublings
  unless the integrand has corners);
* Gauss rules on intervals: Gauss-Legendre, and the rule of the weight
  -s log s on [0, 1] (``log_weight_gauss``) for the disk area term's log kernel.

``refine`` is the one doubling driver of every refined integral: it
stops when the change between consecutive levels drops below ``abs_tol``
and returns (value, est_error = the last change, nodes).  Circle means run it
through ``refined_circle_mean``, whose levels evaluate the integrand only
on the new odd half of the nodes.  Integrands are sampled through
``series.circle_values`` (one inverse FFT per circle) wherever they come
from a series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence

#: sample(n, shift) -> integrand values at circle_angles(n, shift)
Sampler = Callable[[int, bool], np.ndarray]


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and refinement policy for every integral in the package.

    circle_nodes:     starting node count for periodic trapezoid rules.
    radial_nodes:     starting node count for Gauss-Legendre rules.
    refinement_limit: maximum number of doublings before NoConvergence.
    abs_tol:          stop refining once |change between levels| <= abs_tol
                      (positive and finite).
    """

    circle_nodes: int = 512
    radial_nodes: int = 32
    refinement_limit: int = 12
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.circle_nodes <= 0 or self.radial_nodes <= 0:
            raise DomainError("node counts must be positive")
        if self.refinement_limit <= 0:
            raise DomainError("refinement_limit must be positive")
        if not 0 < self.abs_tol < np.inf:
            raise DomainError("abs_tol must be positive and finite")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]; exact through degree 2n-1."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def circle_angles(n: int, shift: bool = False) -> np.ndarray:
    """The n uniform angles 2 pi (k + shift/2) / n, k = 0..n-1."""
    return 2.0 * np.pi * (np.arange(n) + 0.5 * shift) / n


def refine(level: Callable[[int], float], n0: int, spec: QuadratureSpec,
           context: str) -> tuple[float, float, int]:
    """Evaluate ``level(n)`` at n = n0, 2 n0, 4 n0, ... until the change
    between consecutive levels is <= ``spec.abs_tol``.

    Returns (value, est_error = that change, nodes); raises NoConvergence
    past ``spec.refinement_limit`` doublings.
    """
    n = n0
    prev = level(n)
    for _ in range(spec.refinement_limit):
        n *= 2
        cur = level(n)
        err = abs(cur - prev)
        if err <= spec.abs_tol:
            return cur, err, n
        prev = cur
    raise NoConvergence(f"{context}: {n} nodes, last change {err:.3e} "
                        f"> abs_tol {spec.abs_tol:.3e}")


def refined_circle_mean(sample: Sampler, spec: QuadratureSpec,
                        context: str = "circle mean") -> tuple[float, float, int]:
    """Refine the periodic trapezoid mean of an integrand until stable.

    ``sample(n, shift)`` returns the integrand at ``circle_angles(n,
    shift)``.  The first level samples ``spec.circle_nodes`` angles; each
    doubling keeps the running mean and samples only the new odd half of
    the nodes, which is the previous grid shifted by half a step.

    Returns (value, est_error, nodes) as ``refine`` does.
    """
    n0 = spec.circle_nodes
    mean = float(np.mean(sample(n0, False)))

    def level(n: int) -> float:
        nonlocal mean
        if n > n0:
            mean = 0.5 * (mean + float(np.mean(sample(n // 2, True))))
        return mean

    return refine(level, n0, spec, context)


@lru_cache(maxsize=16)
def log_weight_gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule of the weight -s log s on [0, 1]: nodes in (0, 1),
    positive weights, exact through degree 2n-1.

    Lanczos on the weight discretized by (n+16)-node Gauss-Legendre on
    ``dyadic_panels(64)`` gives the recurrence, and the eigenpairs of its
    Jacobi matrix give the rule (Gautschi, Orthogonal Polynomials, 2004,
    2.2; Golub & Welsch 1969).  On a panel [a, 2a], -log s is analytic out
    to -3 in the panel's [-1, 1] coordinate, so the 16 spare nodes leave
    ~5.8^-30; the weight's mass below 2^-64 is ~1e-37.
    """
    s, w = np.hstack([gauss_legendre(n + 16, lo, hi) for lo, hi in dyadic_panels(64)])
    w = -w * s * np.log(s)
    alpha, beta = np.empty(n), np.empty(n)
    q, q_prev, b = np.sqrt(w / w.sum()), 0.0, 0.0
    for k in range(n):
        v = s * q - b * q_prev
        alpha[k] = q @ v
        v -= alpha[k] * q
        beta[k] = b = np.sqrt(v @ v)
        q_prev, q = q, v / b
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
    weights = w.sum() * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def dyadic_panels(depth: int) -> list[tuple[float, float]]:
    """Panels [0, 2^-depth], [2^-depth, 2^-depth+1], ..., [1/2, 1]; -s log s
    is analytic on each panel away from 0."""
    cuts = [0.0] + [2.0 ** -j for j in range(depth, 0, -1)] + [1.0]
    return list(zip(cuts[:-1], cuts[1:]))
