"""Semantic exception hierarchy for the toolkit: one type per way a run
can fail.

Every public operation raises one of these instead of a bare ValueError,
so callers (and the CLI) can tell an argument outside an operation's
domain from a violated mathematical hypothesis or a numerical failure.
"""

from __future__ import annotations


class HqzError(Exception):
    """Base error for this package."""


class DomainError(HqzError, ValueError):
    """Input outside the operation's stated domain (e.g. m <= 1, p < 1, an
    empty corpus, a truncation degree above the cap, a point too close to
    the boundary for the Poisson kernel quadrature)."""


class NoConvergence(HqzError):
    """A quadrature result that cannot be trusted: refinement hit its limit
    with the error estimate still above the requested tolerance, or a
    cross-check failed (circle means decreasing along the radius grid)."""


class HypothesisViolation(HqzError):
    """Data violating a hypothesis of a theorem or a functional (u = Re f
    not positive, |f| below its floor, v(0) != 0, dilatation >= 1, ...)."""


class ConfigError(HqzError, ValueError):
    """Unknown scenario, unknown configuration key, or unparsable value."""
