"""Phase polynomials, streaming vs the exact oracle, averages, spectra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab.polyphase import (
    ErgodicAverageSeries,
    PhasePolynomial,
    binomial_coefficient,
    binomial_phase_polynomial,
    compose_time_polynomial,
    fourier_bohr_scan,
    geometric_checkpoints,
    phase_at,
    phase_stream,
    unit_values,
    weighted_exponential_average,
)
from oscillab.sequences import ComplexSequence, polynomial_phase_sequence

SQRT2M1 = math.sqrt(2) - 1


def test_phase_at_linear():
    poly = PhasePolynomial([0, 0.5])
    assert phase_at(poly, 3) == 0.5


def test_phase_at_constant():
    poly = PhasePolynomial([0.25])
    for n in (0, 1, 17):
        assert phase_at(poly, n) == 0.25


def test_phase_at_quadratic():
    poly = PhasePolynomial([0, 0, 0.1])
    assert phase_at(poly, 7) == pytest.approx(0.9, abs=1e-12)


def test_phase_polynomial_reduces_mod_one():
    poly = PhasePolynomial([1.25, -0.25, 3.0])
    assert poly.float_coefficients == (0.25, 0.75, 0.0)


def test_phase_polynomial_degree_cap():
    with pytest.raises(ValueError):
        PhasePolynomial([0.0] * 10)


def test_phase_stream_alternation():
    poly = PhasePolynomial([0, 0.5])
    assert phase_stream(poly, 6).tolist() == [0.0, 0.5, 0.0, 0.5, 0.0, 0.5]


def test_phase_stream_zero_polynomial():
    assert not phase_stream(PhasePolynomial.zero(3), 100).any()


def test_phase_stream_matches_oracle_quadratic():
    poly = PhasePolynomial.monomial(SQRT2M1, 2)
    phases = phase_stream(poly, 10**4)
    worst = max(abs(phases[n] - phase_at(poly, n)) for n in range(0, 10**4, 97))
    assert worst <= 1e-9


def test_phase_stream_matches_oracle_to_degree_four_at_scale():
    rng = np.random.default_rng(5)
    for _ in range(3):
        coeffs = [0.0] + [float(v) for v in rng.random(4)]
        poly = PhasePolynomial(coeffs)
        n = 10**6
        phases = phase_stream(poly, n)
        sample = list(rng.integers(0, n, 60)) + [0, 1, n - 1]
        for i in sample:
            expected = phase_at(poly, int(i))
            delta = abs(phases[int(i)] - expected)
            assert min(delta, 1 - delta) <= 1e-9


def test_phase_stream_lane_boundary_counts():
    """Counts around one block and around the lane-width steps agree with the oracle."""
    polys = (
        PhasePolynomial([0.3, 0.7, SQRT2M1, 0.05]),
        PhasePolynomial([0.3, 0.7, SQRT2M1, 0.05, 0.9, 0.123, 0.77, 0.31, SQRT2M1 / 3]),
    )
    for poly in polys:
        for count in (1, 2, 63, 64, 65, 1001, 4095, 4096, 4097, 4160, 8193):
            phases = phase_stream(poly, count)
            assert phases.shape == (count,)
            for n in {0, 1, count // 2, count - 2, count - 1} & set(range(count)):
                delta = abs(phases[n] - phase_at(poly, n))
                assert min(delta, 1 - delta) <= 1e-12, (poly.degree, count, n)


def test_phase_stream_random_polynomials_small_range():
    rng = np.random.default_rng(17)
    for _ in range(20):
        degree = int(rng.integers(1, 5))
        coeffs = [float(v) for v in rng.random(degree + 1)]
        poly = PhasePolynomial(coeffs)
        count = int(rng.integers(1, 2000))
        phases = phase_stream(poly, count)
        for n in range(0, count, max(1, count // 17)):
            delta = abs(phases[n] - phase_at(poly, n))
            assert min(delta, 1 - delta) <= 1e-12


# Counts where the lane width or the number of blocks changes.
_LANE_BOUNDARY_COUNTS = (
    63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 4159, 4160, 4161,
    262143, 262144, 262145,
)

_seed_coefficients = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.builds(
        Fraction,
        st.integers(0, 10**30),
        st.integers(1, 30).map(lambda k: 3**k),
    ),
    st.builds(
        Fraction,
        st.integers(0, 10**30),
        st.integers(1, 20).map(math.factorial),
    ),
    st.builds(
        Fraction,
        st.integers(0, 2**40),
        st.integers(0, 2**39 - 1).map(lambda m: 2 * m + 1),
    ),
    st.just(Fraction(1, 2**140)),
)


@settings(max_examples=150, deadline=None)
@given(
    coefficients=st.lists(_seed_coefficients, min_size=2, max_size=9),
    count=st.one_of(st.integers(1, 5000), st.sampled_from(_LANE_BOUNDARY_COUNTS)),
    data=st.data(),
)
def test_phase_stream_seed_table_matches_oracle(coefficients, count, data):
    """Degrees 1-8 with float and rational coefficients, some denominators above 2^128."""
    poly = PhasePolynomial(coefficients)
    phases = phase_stream(poly, count)
    assert phases.shape == (count,)
    picks = data.draw(st.lists(st.integers(0, count - 1), max_size=8))
    boundaries = [c for c in _LANE_BOUNDARY_COUNTS if c < count]
    for n in {0, count // 2, count - 1, *boundaries, *picks}:
        delta = abs(phases[n] - phase_at(poly, n))
        assert min(delta, 1 - delta) <= 1e-12, (poly, count, n)


def test_average_constant_weights_zero_phase():
    ones = ComplexSequence(np.ones(1000), "ones")
    series = weighted_exponential_average(ones, PhasePolynomial.zero(), [10, 100, 1000])
    assert np.allclose(series.averages, 1.0, atol=1e-12)


def test_average_exact_cancellation():
    """Rotation weights against the mod-1 mirror of their own frequency."""
    n = 10**5
    alpha = SQRT2M1
    seq = polynomial_phase_sequence(alpha, 1, n)
    mirror = PhasePolynomial([0, Fraction(1) - Fraction(alpha)])
    series = weighted_exponential_average(seq, mirror, [n])
    assert abs(series.averages[0] - 1.0) <= 1e-6


def test_average_quadratic_weyl_scale():
    n = 10**5
    seq = polynomial_phase_sequence(SQRT2M1, 2, n)
    series = weighted_exponential_average(seq, PhasePolynomial.zero(), [n])
    assert abs(series.averages[0]) <= 0.02


def test_average_checkpoint_validation():
    ones = ComplexSequence(np.ones(10), "ones")
    with pytest.raises(ValueError):
        weighted_exponential_average(ones, PhasePolynomial.zero(), [5, 20])
    with pytest.raises(ValueError):
        weighted_exponential_average(ones, PhasePolynomial.zero(), [5, 5])


def test_series_invariants():
    with pytest.raises(ValueError):
        ErgodicAverageSeries((10, 5), np.zeros(2, dtype=np.complex128))
    series = ErgodicAverageSeries((2, 4), np.array([0.5, 0.25 + 0.1j]), "w")
    assert series.moduli[0] == 0.5


def test_modulus_bounded_by_cesaro_norm():
    rng = np.random.default_rng(23)
    for _ in range(25):
        count = int(rng.integers(8, 600))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        seq = ComplexSequence(values, "random")
        coeffs = [float(v) for v in rng.random(int(rng.integers(2, 5)))]
        cps = sorted(set(rng.integers(1, count + 1, 4)))
        series = weighted_exponential_average(seq, PhasePolynomial(coeffs), cps)
        for checkpoint, avg in zip(series.checkpoints, series.averages):
            bound = np.abs(values[:checkpoint]).sum() / checkpoint
            assert abs(avg) <= bound + 1e-12


def test_average_linearity():
    rng = np.random.default_rng(29)
    n = 300
    c1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    c2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    poly = PhasePolynomial([0.1, 0.3, 0.7])
    mixed = weighted_exponential_average(
        ComplexSequence(a * c1 + b * c2, "mix"), poly, [n]
    ).averages[0]
    separate = (
        a * weighted_exponential_average(ComplexSequence(c1, "c1"), poly, [n]).averages[0]
        + b * weighted_exponential_average(ComplexSequence(c2, "c2"), poly, [n]).averages[0]
    )
    assert abs(mixed - separate) <= 1e-12


def test_integer_valued_shift_leaves_averages_unchanged():
    """Adding the expansion of C(z, 2) cannot move any average."""
    shift = binomial_phase_polynomial([1, 0, 0])  # C(z, 2) mod 1
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(16, 800))
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        seq = ComplexSequence(values, "random")
        poly = PhasePolynomial([float(v) for v in rng.random(3)])
        base = weighted_exponential_average(seq, poly, [n]).averages[0]
        shifted = weighted_exponential_average(seq, poly + shift, [n]).averages[0]
        assert abs(base - shifted) <= 1e-9


def test_binomial_coefficient_values():
    assert binomial_coefficient(5, 2) == 10
    assert binomial_coefficient(3, 5) == 0
    for n in (0, 1, 7, 61, 200):
        assert binomial_coefficient(n, 0) == 1
    with pytest.raises(ValueError):
        binomial_coefficient(-1, 2)


def test_binomial_phase_polynomial_example():
    q = binomial_phase_polynomial([0.1, 0.25, 0.5])
    assert phase_at(q, 4) == pytest.approx(0.1, abs=1e-12)
    # direct check against the binomial-basis definition
    for n in range(10):
        direct = (0.1 * math.comb(n, 2) + 0.25 * n + 0.5) % 1.0
        assert phase_at(q, n) == pytest.approx(direct, abs=1e-12)


def test_binomial_phase_polynomial_degenerate():
    const = binomial_phase_polynomial([0.4])
    assert const.degree == 0
    assert phase_at(const, 9) == pytest.approx(0.4)
    zero = binomial_phase_polynomial([0, 0, 0])
    assert zero.float_coefficients == (0.0, 0.0, 0.0)


def test_compose_examples():
    q_lin = PhasePolynomial([0, 0.3])
    squared = compose_time_polynomial(q_lin, [0, 0, 1])  # q(n) = n^2
    assert squared.float_coefficients == (0.0, 0.0, 0.3)

    const = PhasePolynomial([0.45])
    assert compose_time_polynomial(const, [0, 0, 1]).float_coefficients[0] == 0.45

    q_sq = PhasePolynomial([0, 0, 0.5])
    doubled = compose_time_polynomial(q_sq, [0, 2])  # q(n) = 2n
    assert all(c == 0 for c in doubled.float_coefficients)


def test_compose_agrees_pointwise():
    rng = np.random.default_rng(37)
    outer = PhasePolynomial([float(v) for v in rng.random(3)])
    inner = (Fraction(1), Fraction(2), Fraction(3))  # 1 + 2n + 3n^2
    composed = compose_time_polynomial(outer, inner)
    for n in range(30):
        inner_value = 1 + 2 * n + 3 * n * n
        assert phase_at(composed, n) == pytest.approx(
            phase_at(outer, inner_value), abs=1e-12
        )


def test_compose_degree_cap():
    outer = PhasePolynomial([0, 0, 0, 0.1])
    with pytest.raises(ValueError):
        compose_time_polynomial(outer, (0, 0, 0, Fraction(1)))  # 3 * 3 = 9 > 8


def test_fourier_bohr_resonance():
    n = 64
    values = np.exp(2j * np.pi * np.arange(n) / 4)
    scan = fourier_bohr_scan(values, 4, n)
    assert scan[0][0] == 0.75
    assert scan[0][1] == pytest.approx(1.0, abs=1e-12)


def test_fourier_bohr_constant_sequence():
    scan = fourier_bohr_scan(np.ones(128), 8, 128)
    assert scan[0][0] == 0.0
    assert scan[0][1] == pytest.approx(1.0, abs=1e-12)


def test_fourier_bohr_matches_linear_average():
    rng = np.random.default_rng(41)
    n, m = 1000, 16
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    seq = ComplexSequence(values, "random")
    scan = dict((freq, mod) for freq, mod in fourier_bohr_scan(seq, m, n))
    for j in range(m):
        poly = PhasePolynomial([0, Fraction(j, m)])
        avg = abs(weighted_exponential_average(seq, poly, [n]).averages[0])
        assert abs(scan[j / m] - avg) <= 1e-10


def test_fourier_bohr_sorted_descending():
    rng = np.random.default_rng(43)
    values = rng.normal(size=500) + 1j * rng.normal(size=500)
    scan = fourier_bohr_scan(values, 32, 500)
    moduli = [mod for _, mod in scan]
    assert moduli == sorted(moduli, reverse=True)


def test_geometric_checkpoints():
    assert geometric_checkpoints(100, 1000) == (100, 200, 400, 800, 1000)
    assert geometric_checkpoints(5, 5) == (5,)


def test_series_csv_format():
    series = ErgodicAverageSeries((2, 4), np.array([0.5 + 0j, 0.25j]), "w")
    lines = series.to_csv().strip().splitlines()
    assert lines[0] == "n,re,im,modulus"
    assert lines[1].startswith("2,0.5,0,")
