"""Semantic exception hierarchy for the toolkit.

Every public operation raises one of these instead of a bare ValueError,
so callers (and the CLI) can tell a violated mathematical hypothesis from
a numerical failure.
"""

from __future__ import annotations


class HqzError(Exception):
    """Base error for this package."""


class DomainError(HqzError, ValueError):
    """Input outside the operation's stated domain (e.g. m <= 1, p < 1)."""


class TruncationOverflow(HqzError):
    """A series construction asked for a truncation degree above the cap."""


class NoConvergence(HqzError):
    """Quadrature refinement hit its limit with the error estimate still
    above the requested tolerance."""


class MonotonicityViolation(HqzError):
    """Circle means decreased along the radius grid beyond tolerance;
    since |f| is subharmonic this signals a quadrature failure."""


class KernelBlowup(HqzError):
    """Evaluation point too close to the boundary for the Poisson kernel
    quadrature to be trusted."""


class NonpositiveRealPart(HqzError):
    """An entropy-type functional was requested where u = Re f (or the
    first coordinate) is not strictly positive."""


class VanishingModulus(HqzError):
    """|f| fell below the floor where a formula with 1/|f| is evaluated."""


class EmptyCorpus(HqzError, ValueError):
    """An estimator over a corpus was called with no elements."""


class HypothesisViolation(HqzError):
    """A theorem verifier was called on data violating the theorem's
    hypotheses (u not positive, v(0) != 0, dilatation >= 1, ...)."""


class ConfigError(HqzError, ValueError):
    """Unknown scenario, unknown configuration key, or unparsable value."""
