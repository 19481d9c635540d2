"""The sphere-measure constant C_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)).

Gamma(x + 1) = x Gamma(x) gives C_2 = 1/pi, C_3 = 1/2 and
C_(n+2) = C_n n / (n - 1), so C_n is a ratio of two double factorials,
over pi for even n and over 2 for odd n.  Both factorials are exact
integers, so C_n takes at most two roundings and no libm call, and reads
the same on every platform.
"""

from __future__ import annotations

import math

from .errors import DomainError


def C_n(n: int) -> float:
    """Normalization Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) of the axial weight:
    (n-2)!! / (n-3)!! / pi for even n, and / 2 for odd n."""
    if n < 2:
        raise DomainError("dimension must be >= 2")
    ratio = math.prod(range(n - 2, 1, -2)) / math.prod(range(n - 3, 0, -2))
    return ratio / (math.pi if n % 2 == 0 else 2.0)
