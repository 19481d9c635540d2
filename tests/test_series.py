import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqz import ComplexSeries, DomainError, make_qr_map, random_series
from hqz.planar import _integral, _reciprocal
from hqz.series import HORNER_COLUMNS_BUDGET, circle_values, horner, stacked

finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=9)


def test_horner_identity_map():
    s = ComplexSeries((0.0, 1.0))
    assert s(1j) == 1j
    assert s(0.25 + 0.5j) == 0.25 + 0.5j


def test_horner_matches_direct_sum():
    s = ComplexSeries((1.0, -2.0j, 0.5, 3.0))
    z = 0.3 - 0.2j
    direct = sum(c * z ** j for j, c in enumerate(s.coeffs))
    assert abs(s(z) - direct) < 1e-14


def test_derivative_degree_drops():
    s = ComplexSeries((1.0, 2.0, 3.0))
    d = s.derivative()
    assert d.coeffs.tolist() == [2.0, 6.0]
    assert ComplexSeries((5.0,)).derivative().coeffs.tolist() == [0j]


def test_antiderivative_starts_at_zero():
    a = ComplexSeries(_integral(np.array([2.0, 4.0], dtype=complex)))
    assert a.coeffs.tolist() == [0j, 2.0, 2.0]
    assert a(0j) == 0j


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_antiderivative_then_derivative_roundtrip(coeffs):
    s = ComplexSeries(tuple(coeffs))
    back = ComplexSeries(_integral(s.coeffs)).derivative()
    assert len(back.coeffs) == len(s.coeffs)
    for a, b in zip(back.coeffs, s.coeffs):
        assert a == pytest.approx(b, abs=1e-12)


small_complex = st.builds(
    complex,
    st.floats(-0.25, 0.25, allow_nan=False, allow_infinity=False),
    st.floats(-0.25, 0.25, allow_nan=False, allow_infinity=False),
)


@given(st.lists(small_complex, min_size=0, max_size=8))
@settings(max_examples=40, deadline=None)
def test_reciprocal_multiplies_to_one(tail):
    # constant term 3 dominates the tail, so the reciprocal coefficients
    # decay and rounding stays far below the tolerance
    a = np.zeros(13, dtype=complex)  # truncation degree 12
    a[: len(tail) + 1] = (3.0, *tail)
    recip = _reciprocal(a)
    ident = np.convolve(a, recip)[: a.size]
    assert recip.shape == a.shape
    assert abs(ident[0] - 1.0) < 1e-12
    for c in ident[1:]:
        assert abs(c) < 1e-12


def test_reciprocal_needs_nonzero_constant():
    # the reciprocal runs only on 1 + omega in make_qr_map, which first
    # certifies sup |omega| < 1, so 1 + omega(0) = 0 is refused before it
    for omega in [(-1.0,), (-1.0, 0.0, 1e-9), (-1.0 + 0j, 0.5j)]:
        with pytest.raises(DomainError, match="may reach 1"):
            make_qr_map([(1.0, 0.3)], [omega])


def test_trimmed_drops_trailing_zeros():
    s = ComplexSeries((1.0, 0.0, 0.0))
    assert s.trimmed().coeffs.tolist() == [1.0 + 0j]
    assert ComplexSeries.zero().trimmed().coeffs.tolist() == [0j]


def test_random_series_deterministic_and_zero_constant():
    a = random_series(11, 16)
    b = random_series(11, 16)
    assert a.coeffs.tolist() == b.coeffs.tolist()
    assert a.coeffs[0] == 0j
    assert a.degree == 16
    assert random_series(12, 16).coeffs.tolist() != a.coeffs.tolist()


def test_empty_series_rejected():
    with pytest.raises(DomainError):
        ComplexSeries(())


@pytest.mark.parametrize("n", [1, 7, 64, 128, 129, 1024])
@pytest.mark.parametrize("r", [0.3, 1.0])
@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("shift", [False, True])
def test_circle_values_match_horner(n, r, with_h, shift):
    # degree 64: n = 1..128 folds coefficients, n >= 129 = 2 * 64 + 1 does not
    g = random_series(11, 64, zero_constant=False)
    h = random_series(12, 64) if with_h else None
    theta = 2.0 * np.pi * (np.arange(n) + 0.5 * shift) / n
    z = r * np.exp(1j * theta)
    horner = g(z) + (np.conjugate(h(z)) if with_h else 0.0)
    l1 = g.coeff_abs_sum() + (h.coeff_abs_sum() if with_h else 0.0)
    got = circle_values(g.coeffs, None if h is None else h.coeffs, r, n, shift)
    assert got.shape == (n,)
    assert np.abs(got - horner).max() <= 1e-13 * l1


def test_circle_values_rows_per_radius():
    g = random_series(3, 20, zero_constant=False)
    h = random_series(4, 20)
    radii = np.array([0.0, 0.25, 0.9])
    rows = circle_values(g.coeffs, h.coeffs, radii, 16, shift=True)
    assert rows.shape == (3, 16)
    for rho, row in zip(radii, rows):
        np.testing.assert_allclose(row, circle_values(g.coeffs, h.coeffs, rho, 16, shift=True),
                                   rtol=0, atol=1e-14)
    np.testing.assert_allclose(rows[0], g.coeffs[0], atol=1e-15)


@pytest.mark.parametrize("n", [16, 512])
@pytest.mark.parametrize("shift", [False, True])
def test_circle_values_rows_per_series_are_the_series_alone(n, shift):
    # a stack of coefficient rows (zero-padded to one length, folded at
    # n = 16) gives each row the bits of that series on its own
    gs = [random_series(s, d, zero_constant=False) for s, d in ((1, 40), (2, 64), (3, 5))]
    hs = [random_series(s + 10, d) for s, d in ((1, 64), (2, 20), (3, 64))]
    rows = circle_values(stacked(gs), stacked(hs), 0.9, n, shift)
    assert rows.shape == (3, n)
    for g, h, row in zip(gs, hs, rows):
        alone = circle_values(stacked([g]), stacked([h]), 0.9, n, shift)[0]
        assert np.array_equal(row, alone)


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("shift", [False, True])
def test_circle_values_rows_on_radii_are_each_series_alone(n, shift):
    # stacked rows on an array of radii: shape g.shape[:-1] + r.shape + (n,),
    # and each (row, radius) has the bytes of that series alone on that circle
    gs = [random_series(s, d, zero_constant=False) for s, d in ((1, 40), (2, 64), (3, 5))]
    hs = [random_series(s + 10, d) for s, d in ((1, 64), (2, 20), (3, 64))]
    radii = np.array([[0.0, 0.3], [0.9, 1.0]])
    rows = circle_values(stacked(gs), stacked(hs), radii, n, shift)
    assert rows.shape == (3, 2, 2, n)
    for g, h, per_radius in zip(gs, hs, rows.reshape(3, 4, n)):
        for rho, row in zip(radii.ravel(), per_radius):
            assert row.tobytes() == circle_values(g.coeffs, h.coeffs, rho, n, shift).tobytes()


def test_circle_values_peak_memory_is_its_result():
    # the inverse FFT runs in place on the zeroed buffer, so a stacked call
    # holds about its result at its peak (16 B per sample), not the buffer
    # and a transformed copy together (32 B per sample)
    gs = stacked([random_series(s, 64, zero_constant=False) for s in range(17)])
    hs = stacked([random_series(s + 100, 64) for s in range(17)])
    circle_values(gs, hs, 0.9, 8192, shift=True)  # first-call set-up outside the count
    tracemalloc.start()
    try:
        out = circle_values(gs, hs, 0.9, 8192, shift=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (17, 8192)
    assert peak <= 1.1 * out.nbytes


# the tuple-of-complexes arithmetic that the coefficient arrays replaced,
# kept as a reference: python complexes, one coefficient at a time
def tuple_reciprocal(a, degree):
    inv = [1.0 / a[0]]
    for n in range(1, degree + 1):
        s = 0j
        for j in range(1, min(n, len(a) - 1) + 1):
            s += a[j] * inv[n - j]
        inv.append(-s / a[0])
    return inv


def tuple_derivative(a):
    return [j * c for j, c in enumerate(a) if j >= 1] or [0j]


def tuple_antiderivative(a):
    return [0j] + [c / (j + 1) for j, c in enumerate(a)]


def tuple_horner(a, z):
    acc = 0j
    for c in reversed(a):
        acc = acc * z + c
    return acc


def l1(coeffs):
    return sum(abs(c) for c in coeffs)


EPS = np.finfo(float).eps


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_calculus_matches_tuple_arithmetic_exactly(coeffs):
    s = ComplexSeries(coeffs)
    assert s.derivative().coeffs.tolist() == tuple_derivative(coeffs)
    assert _integral(s.coeffs).tolist() == tuple_antiderivative(coeffs)


@given(st.lists(small_complex, min_size=0, max_size=8), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_reciprocal_matches_tuple_arithmetic(tail, degree):
    # constant term 4 dominates the tail (l1 at most 2.9), so the recursion
    # damps rounding differences instead of amplifying them
    a = [4.0 + 0j, *tail]
    padded = np.zeros(degree + 1, dtype=complex)  # as make_qr_map pads or cuts 1 + omega
    padded[: len(a)] = a[: degree + 1]
    got = _reciprocal(padded)
    want = np.array(tuple_reciprocal(a, degree))
    assert got.shape == (degree + 1,)
    assert np.abs(got - want).max() <= 4 * EPS * l1(a)


def test_coefficients_are_a_read_only_copy():
    source = np.array([1.0, 2.0, 3.0], dtype=complex)
    s = ComplexSeries(source)
    assert s.coeffs.dtype == np.complex128 and s.coeffs.ndim == 1
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0
    source[0] = 5.0
    assert s.coeffs.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("coeffs", [np.zeros(0), np.zeros((2, 3)), [[1.0], [2.0]], 1.0])
def test_only_nonempty_1d_coefficients(coeffs):
    with pytest.raises(DomainError):
        ComplexSeries(coeffs)


def test_horner_equals_the_scalar_path():
    rng = np.random.default_rng(5)
    disk = (rng.uniform(0, 1, (3, 7)) * np.exp(2j * np.pi * rng.uniform(0, 1, (3, 7))))
    cases = [([random_series(3, 64, zero_constant=False), random_series(4, 20)], disk),
             ([ComplexSeries((1.0, 2.0j, -0.5))], np.array([0.1, 0.5j, -0.3 + 0.4j]))]
    for series, z in cases:
        rows = horner(stacked(series), z)
        assert rows.shape == (len(series), *z.shape) and rows.dtype == np.complex128
        for s, row in zip(series, rows):
            assert (s(z) == row).all()  # zero padding changes no bit
            coeffs = s.coeffs.tolist()
            scalar = np.array([tuple_horner(coeffs, w) for w in z.ravel().tolist()])
            # both within Horner's gamma_2n sum |c_j| |z|^j of the exact value
            bound = 4 * s.coeffs.size * EPS * np.polyval(np.abs(s.coeffs[::-1]), np.abs(z))
            assert (np.abs(row - scalar.reshape(z.shape)) <= bound).all()


def test_one_point_is_horner_of_a_0d_array():
    # a Python number goes through the same complex128 loop as an array,
    # so it gets the same bits as that point inside any array
    rng = np.random.default_rng(7)
    points = (rng.uniform(0, 1, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))).tolist()
    for s in (random_series(3, 64, zero_constant=False), random_series(4, 20),
              ComplexSeries((1.0, 2.0j, -0.5))):
        for w in points + [0.5, 2, 1j]:
            got = s(w)
            assert isinstance(got, np.complex128)
            assert got == horner(s.coeffs, np.asarray(w))
            assert got == s(np.array([w, 0.25]))[0]


def test_horner_runs_in_complex128():
    z = np.array([2.0 ** -60, -(2.0 ** -61)], dtype=np.clongdouble)
    one_plus_z = ComplexSeries((1.0, 1.0)).coeffs
    got = horner(one_plus_z, z)
    assert got.dtype == np.complex128
    assert (got == 1.0).all()  # 1 + 2^-60 rounds to 1 in a double


@pytest.mark.parametrize("rows", [(), (1,), (3,), (2, 6)])
@pytest.mark.parametrize("points", [(), (1,), (2,), (3,), (15,), (4, 3), (1, 1), (20, 20)])
def test_horner_block_is_each_row_and_point_alone(rows, points):
    # numpy multiplies one complex element in place, or in a block of two
    # or more axes against a broadcast operand, through another loop than
    # an array, so either would move the bits of a one-point call away from
    # the same point inside an array.  (20, 20) points at 3 or 12 rows make
    # a block above the columns budget; its points alone are below it
    rng = np.random.default_rng(len(rows) * 10 + len(points))
    coeffs = rng.standard_normal((*rows, 66, 2)) @ np.array([1.0, 1j])
    z = np.asarray(0.9 * rng.uniform(0, 1, points) * np.exp(2j * np.pi * rng.uniform(0, 1, points)))
    block = horner(coeffs, z)
    assert block.shape == (*rows, *points) and block.dtype == np.complex128
    for r in np.ndindex(rows):
        assert horner(coeffs[r], z).tobytes() == np.asarray(block[r]).tobytes()
        for p in np.ndindex(points):
            assert horner(coeffs[r], z[p]) == block[r + p]
            one = horner(coeffs[r][None], np.reshape(z[p], (1, 1)))  # a (1, 1, 1) block
            assert one.shape == (1, 1, 1) and one[0, 0, 0] == block[r + p]
    for p in np.ndindex(points):
        assert horner(coeffs, z[p]).tobytes() == np.asarray(block[(...,) + p]).tobytes()


def test_horner_peak_memory_is_two_results():
    # two buffers of the result's size made once; a new array per step
    # (acc = acc * z + c) held three at its peak
    coeffs = stacked([random_series(s, 64, zero_constant=False) for s in range(3)])
    z = 0.9 * np.exp(2j * np.pi * np.arange(8193) / 8193)
    horner(coeffs, z)
    tracemalloc.start()
    try:
        out = horner(coeffs, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (3, 8193)
    assert peak <= 2.5 * out.nbytes


def test_horner_small_block_peak_memory_is_its_operands_and_two_results():
    # the audit's block: 66 coefficient columns and z, each materialized on
    # the (2, 6) x 15 block, and the two buffers; one block more covers the
    # array headers.  A copy of the coefficients beside the columns (4.4
    # blocks here) would exceed it
    coeffs = np.random.default_rng(3).standard_normal((2, 6, 66, 2)) @ np.array([1.0, 1j])
    z = 0.8 * np.exp(2j * np.pi * np.arange(15) / 15)
    assert coeffs.size * z.size <= HORNER_COLUMNS_BUDGET
    horner(coeffs, z)
    tracemalloc.start()
    try:
        out = horner(coeffs, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2, 6, 15)
    assert peak <= (66 + 1 + 2 + 1) * out.nbytes


def test_stacked_pads_rows_to_one_length():
    rows = stacked([ComplexSeries((1.0, 2.0)), ComplexSeries.zero(), ComplexSeries((0, 0, 3j))])
    assert rows.tolist() == [[1, 2, 0], [0, 0, 0], [0, 0, 3j]]
