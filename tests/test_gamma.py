import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from hqz import C_n, DomainError

#: pi to 50 digits, for the exact reference
PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def test_known_values():
    assert C_n(2) == 1.0 / math.pi
    assert C_n(3) == 0.5
    assert C_n(4) == 2.0 / math.pi
    assert C_n(5) == 0.75


def test_against_libm_on_working_range():
    # libm's lgamma(n/2) is near 78 at n = 64, where one ulp is 1.4e-14, so
    # the reference itself is off by up to 1.5e-14 relative there (n = 62,
    # against the exact value of test_half_integers); the tolerance covers that
    for n in range(2, 65):
        ref = math.exp(math.lgamma(n / 2) - math.lgamma((n - 1) / 2)) / math.sqrt(math.pi)
        assert C_n(n) == pytest.approx(ref, rel=2e-14, abs=0.0)


def gamma_over_sqrt_pi(k2: int) -> Fraction:
    """Gamma(k2 / 2) / sqrt(pi)^(k2 odd) as an exact rational: (j-1)! at
    k2 = 2j, and (2j)! / (4^j j!) at k2 = 2j + 1."""
    j = k2 // 2
    if k2 % 2 == 0:
        return Fraction(math.factorial(j - 1))
    return Fraction(math.factorial(2 * j), 4 ** j * math.factorial(j))


def test_half_integers():
    # Gamma at the integers and half-integers n/2, (n-1)/2 in exact
    # arithmetic; C_n is within two roundings of the exact value
    with localcontext() as ctx:
        ctx.prec = 50
        for n in range(2, 65):
            ratio = gamma_over_sqrt_pi(n) / gamma_over_sqrt_pi(n - 1)
            exact = Decimal(ratio.numerator) / Decimal(ratio.denominator)
            if n % 2 == 0:  # Gamma((n-1)/2) carries the sqrt(pi) of the ratio
                exact /= PI_50
            assert abs(Decimal(C_n(n)) - exact) <= exact * Decimal(2.0 ** -51)


def test_domain():
    for n in (1, 0, -3):
        with pytest.raises(DomainError):
            C_n(n)
