"""Quadrature primitives shared by the whole toolkit.

Two kinds of rule cover everything here:

* periodic trapezoid on the circle (spectrally accurate for smooth
  periodic integrands, so refinement converges in a couple of doublings
  unless the integrand has corners);
* Gauss rules on intervals: Gauss-Legendre, and the rule of the weight
  -s log s on [0, 1] (``log_weight_gauss``) for the disk area term's log kernel.

``refine`` is the one doubling driver of every refined integral: it
stops each mean of a stack when its change between consecutive levels
drops below ``abs_tol`` and returns (value, est_error = the last change,
nodes).  Circle means run it through ``refined_circle_mean``, whose
levels evaluate the integrands only on the new odd half of the nodes.
Integrands are sampled through ``series.circle_values`` (one inverse FFT
per circle) wherever they come from a series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, HqzError, NoConvergence

#: level(n, rows) -> the means at n nodes of the stack rows that ``rows``
#: selects (see refine)
Level = Callable[[int, object], object]

#: sample(n, shift, rows) -> integrand values at circle_angles(n, shift) of
#: the stack rows that ``rows`` selects (see refined_circle_mean)
Sampler = Callable[[int, bool, object], np.ndarray]

#: the corpus drivers (``fuzz_search``, ``calderon_norms``) refine at most
#: this many rows per stack, so their memory does not grow with the corpus
STACK_CHUNK = 64

def chunk_stacks(items: Sequence, run: Callable[[Sequence], object]) -> Iterator:
    """``run(chunk)`` for each chunk of up to STACK_CHUNK consecutive items.

    A chunk whose run raises HqzError is rerun one item at a time, so the
    error is that of the first item that fails alone, as one run per item
    would raise it.
    """
    for start in range(0, len(items), STACK_CHUNK):
        chunk = items[start:start + STACK_CHUNK]
        try:
            out = run(chunk)
        except HqzError:
            for item in chunk:  # raise the error of the first item that fails alone
                run([item])
            raise
        yield out


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


def refine(level: Level, n0: int, spec: QuadratureSpec, context: str) -> tuple:
    """Evaluate ``level(n, rows)`` at n = n0, 2 n0, 4 n0, ... until each of
    its means changes by <= ``spec.abs_tol`` between consecutive levels.

    ``level`` returns a float for one mean, or for a stack an array whose
    first axis is its rows, holding the rows that ``rows`` selects: ``...``
    while all of them refine, else an index array.
    Each mean stops at the first level that changes it by <= abs_tol, and
    a row is evaluated until its last mean stops, and no further, so a
    row's means are the same bits whatever rows share its stack.

    Returns (values, est_errors = the last changes, nodes): a float each
    for one mean, nested lists of the stack's shape otherwise, with nodes
    the n of each row's last level, summed over the rows.  Raises
    NoConvergence naming the first mean still moving past
    ``spec.refinement_limit`` doublings.
    """
    n = n0
    first = level(n, ...)
    shape = getattr(first, "shape", ())  # () for one mean
    if 0 in shape:  # a stack of no rows
        return [], [], 0
    prev = np.reshape(first, (shape[0], -1)).tolist() if shape else [[float(first)]]
    errors = [[math.inf] * len(row) for row in prev]
    nodes = [n] * len(prev)
    live = list(range(len(prev)))
    for _ in range(spec.refinement_limit):
        n *= 2
        out = level(n, ... if len(live) == len(prev) else np.array(live, dtype=np.intp))
        cur = np.reshape(out, (len(live), -1)).tolist() if shape else [[float(out)]]
        moving = []
        for i, new in zip(live, cur):
            nodes[i] = n
            value, err, still = prev[i], errors[i], False
            for p, v in enumerate(new):
                if not err[p] <= spec.abs_tol:  # NaN keeps moving
                    err[p], value[p] = abs(v - value[p]), v
                    still = still or not err[p] <= spec.abs_tol
            if still:
                moving.append(i)
        live = moving
        if not live:
            if not shape:
                return prev[0][0], errors[0][0], n
            return (np.array(prev).reshape(shape).tolist(),
                    np.array(errors).reshape(shape).tolist(), sum(nodes))
    err = next(e for e in errors[live[0]] if not e <= spec.abs_tol)
    raise NoConvergence(f"{context}: {n} nodes, last change {err:.3e} "
                        f"> abs_tol {spec.abs_tol:.3e}")


def _mean(values: np.ndarray) -> np.ndarray:
    """np.mean over the last axis, bit for bit, without its dispatch."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def refined_circle_mean(sample: Sampler, spec: QuadratureSpec,
                        context: str = "circle mean") -> tuple:
    """``refine`` the periodic trapezoid means of integrands on the circle.

    ``sample(n, shift, rows)`` returns the integrands at
    ``circle_angles(n, shift)``, the last axis the angle, of the rows that
    ``rows`` selects as ``refine``'s levels do: shape (n,) for one mean,
    or (rows, ..., n) for a stack.  The first level samples
    ``spec.circle_nodes`` angles; each doubling keeps the running means
    and samples only the new odd half of the nodes, which is the previous
    grid shifted by half a step.  Returns what ``refine`` returns, so
    nodes counts the angles sampled over all rows.
    """
    means = None

    def level(n: int, rows) -> np.ndarray:
        nonlocal means
        if means is None:
            means = np.asarray(_mean(sample(n, False, rows)))  # 0-d for one mean
        else:
            means[rows] = 0.5 * (means[rows] + _mean(sample(n // 2, True, rows)))
        return means[rows]

    return refine(level, spec.circle_nodes, spec, context)


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
