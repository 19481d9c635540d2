import math

import numpy as np
import pytest

from hqz import DomainError, log_gamma


def test_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert math.exp(log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert math.exp(log_gamma(1.5)) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
    assert math.exp(log_gamma(5.0)) == pytest.approx(24.0, rel=1e-14)


def test_against_libm_on_working_range():
    # dense grid over [0.5, 64]: the range the sphere constants draw from
    xs = np.linspace(0.5, 64.0, 20001)
    worst = max(abs(log_gamma(float(x)) - math.lgamma(float(x)))
                / max(1.0, abs(math.lgamma(float(x)))) for x in xs)
    assert worst < 1e-13


def test_half_integers():
    for n in range(1, 65):
        x = 0.5 * n
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_reflection_branch():
    assert log_gamma(0.25) == pytest.approx(math.lgamma(0.25), rel=1e-12)


def test_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)
