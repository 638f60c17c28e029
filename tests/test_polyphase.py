"""Phase polynomials, streaming vs the exact oracle, averages, spectra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillab.polyphase import (
    _MAX_LANES,
    _STREAM_TERMS,
    _UNIT_TERMS,
    ErgodicAverageSeries,
    PhasePolynomial,
    _difference_steps,
    _fixed_seed_table,
    _lanes,
    _repeated,
    _residue_buckets,
    _seed_pairs,
    binomial_phase_polynomial,
    compose_time_polynomial,
    fourier_bohr_scan,
    geometric_checkpoints,
    phase_at,
    phase_blocks,
    phase_stream,
    unit_values,
    weighted_exponential_average,
)
from oscillab.sequences import ComplexSequence, polynomial_phase_sequence, rademacher_sequence

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


def test_phase_just_below_one_is_zero_on_every_path():
    # 1 - 2^-60 rounds to 1.0 as a float, which must fold back to 0.0.
    c = 1 - Fraction(1, 2**60)
    constant = PhasePolynomial([c])
    stepped = PhasePolynomial([c - Fraction(1, 2), Fraction(1, 2)])  # c at odd n
    assert phase_at(constant, 0) == 0.0
    assert phase_at(stepped, 1) == 0.0
    assert phase_stream(constant, 3).tolist() == [0.0, 0.0, 0.0]
    assert phase_stream(stepped, 4)[1::2].tolist() == [0.0, 0.0]


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
        for count in (1, 2, 63, 64, 65, 511, 512, 513, 1001, 4095, 4096, 4097, 4160, 8193,
                      32767, 32768, 32769):
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


# Counts where the lane width or the number of blocks changes: lanes
# grow past 64 at 512 terms and reach 4096 at 32,768.
_LANE_BOUNDARY_COUNTS = (
    63, 64, 65, 127, 128, 129, 511, 512, 513, 4095, 4096, 4097, 4159, 4160, 4161,
    32767, 32768, 32769, 262143, 262144, 262145,
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


_SEED_ROWS_MAX = 9 * _MAX_LANES


@settings(max_examples=60, deadline=None)
@given(
    numerators=st.lists(st.integers(0, 2**128 - 1), min_size=2, max_size=9),
    count=st.one_of(st.integers(1, 3000), st.integers(1, _SEED_ROWS_MAX)),
    denominator=st.just(2**128),
)
# The uint64-pair path at its largest denominator, every word all ones ...
@example(numerators=[2**128 - 1] * 9, count=_SEED_ROWS_MAX, denominator=2**128)
# ... and the big-int path just past it and at a non-dyadic denominator.
@example(numerators=[2**129 - 1] * 9, count=_SEED_ROWS_MAX, denominator=2**129)
@example(numerators=[1] * 9, count=_SEED_ROWS_MAX, denominator=3)
def test_seed_pairs_match_big_int_table_bit_for_bit(numerators, count, denominator):
    """``_seed_pairs`` against the exact big-int table, all 128 bits of every seed.

    A carry dropped from the low word is worth 2^-64, below what a float
    comparison of phases can see, so the fixed-point words are compared
    exactly; a few seeds are also checked against ``phase_at``.
    """
    poly = PhasePolynomial([Fraction(k, denominator) for k in numerators])
    hi, lo = _seed_pairs(poly.coefficients, count)
    assert hi.dtype == lo.dtype == np.uint64 and hi.shape == lo.shape == (count,)
    seeds = [(h << 64) | w for h, w in zip(hi.tolist(), lo.tolist())]
    assert seeds == _fixed_seed_table(poly.coefficients, count)
    for n in {0, 1, count // 2, count - 1} & set(range(count)):
        delta = abs(seeds[n] * 2.0**-128 - phase_at(poly, n))
        assert min(delta, 1 - delta) <= 1e-15, n


@settings(max_examples=40, deadline=None)
@given(
    modulus=st.one_of(st.integers(2, 10**6), st.just(2**128), st.integers(2**128, 2**140)),
    data=st.data(),
)
def test_difference_steps_match_binomial_closed_form(modulus, data):
    """After n steps r_i = sum_j C(n, i - j) r_j(0) mod the modulus, for every register."""
    start = data.draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=9))
    count = data.draw(st.integers(1, 300))
    steps = _difference_steps(list(start), count, modulus)
    for n, registers in enumerate(steps):
        expected = [
            sum(math.comb(n, i - j) * start[j] for j in range(i + 1)) % modulus
            for i in range(len(start))
        ]
        assert registers == expected, n
    assert n == count - 1


def block_edges(count):
    """Starts after 0 of the blocks ``phase_blocks`` cuts a ``count``-term stream into."""
    lanes = _lanes(count)
    size = -(-_STREAM_TERMS // lanes) * lanes
    return list(range(size, count, size))


# Counts at lane-row and block boundaries +-1 (lanes reach 4096 at 2^15
# terms; from there a block is 16 rows) and counts that are no multiple
# of the lane count.
_STREAM_COUNTS = (
    1, 2, 63, 64, 65, 4095, 4096, 4097, 32767, 32768, 32769, 65535, 65536, 65537, 100_003,
    131071, 131072, 131073, 262143, 262144, 262145, 266239, 266241,
    327679, 327680, 327681,
)


@settings(max_examples=60, deadline=None)
@given(
    count=st.one_of(st.sampled_from(_STREAM_COUNTS), st.integers(1, 400_000)),
    kind=st.sampled_from(["int8", "complex", "list"]),
    degree=st.integers(0, 8),
    constant=st.booleans(),
    data=st.data(),
)
def test_streamed_average_matches_full_array_reference(count, kind, degree, constant, data):
    """Block-by-block sums against one np.add.reduceat over the full terms.

    Checkpoints include the block edges and their neighbours.  The
    tolerance is 1e-12 of the mean |c_n|, the scale that bounds every
    partial average and its summation error.
    """
    rng = np.random.default_rng(count)
    coeffs = rng.random(degree + 1)
    if constant:
        coeffs[1:] = 0.0
    poly = PhasePolynomial([float(c) for c in coeffs])
    if kind == "int8":
        seq = rademacher_sequence(count, count)
        values = seq.values.astype(np.complex128)
    elif kind == "complex":
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        seq = ComplexSequence(values, "normal")
    else:
        seq = rng.integers(-3, 4, size=count).tolist()
        values = np.asarray(seq, dtype=np.complex128)
    near_edges = {e + k for e in block_edges(count)[:3] for k in (-1, 0, 1)}
    drawn = data.draw(st.sets(st.integers(1, count), max_size=3))
    cps = sorted(near_edges | drawn | {count})

    series = weighted_exponential_average(seq, poly, cps)

    terms = values * unit_values(phase_stream(poly, count))
    sums = np.cumsum(np.add.reduceat(terms, [0] + cps[:-1]))
    reference = sums / np.asarray(cps, dtype=np.float64)
    assert np.abs(series.averages - reference).max() <= 1e-12 * np.abs(values).mean()


@pytest.mark.parametrize("count", _STREAM_COUNTS)
def test_constant_and_stepped_streams_share_block_edges(count):
    """Streams over one count zip block by block, the constant one included."""
    stepped = [(s, p.size) for s, p in phase_blocks(PhasePolynomial([0.25, 0.5]), count)]
    constant = [(s, p.size) for s, p in phase_blocks(PhasePolynomial([0.25]), count)]
    assert stepped == constant
    assert [s for s, _ in stepped[1:]] == block_edges(count)
    assert sum(size for _, size in stepped) == count


def _exp_reference(phases):
    return np.exp(2j * np.pi * np.asarray(phases, dtype=np.float64))


def test_unit_values_match_numpy_exp():
    """Random phases, every table point k/4096 and the float just below it, 1 - 2^-53, j/4."""
    rng = np.random.default_rng(12)
    k = np.arange(-4096, 4097) / 4096
    phases = np.concatenate([
        2 * rng.random(3 * _UNIT_TERMS + 17) - 1,
        k,
        k - 2.0**-53,
        [1 - 2.0**-53],
        np.arange(-4, 5) / 4,
    ])
    values = unit_values(phases)
    assert np.abs(values - _exp_reference(phases)).max() <= 2e-15
    assert np.abs(np.abs(values) - 1).max() <= 1e-15


@pytest.mark.parametrize("quarter", [0, 1, 2, 3])
def test_unit_values_within_ulps_next_to_exact_roots(quarter):
    """Past j/4 the table root is exactly i^j, so each part is the series itself.

    There cos and sin of the one residual angle must match ``np.cos`` and
    ``np.sin`` to 2 ulps: the series is exact to 2e-20, against the
    2.2e-19 ulp of sin near 1.5e-3.
    """
    rng = np.random.default_rng(quarter)
    r = rng.integers(0, 2**40, 10_000) / 2.0**40
    theta = r * (2 * np.pi / 4096)
    expected = (np.cos(theta) + 1j * np.sin(theta)) * 1j**quarter
    values = unit_values(quarter / 4 + r / 4096)
    for part in ("real", "imag"):
        got, want = getattr(values, part), getattr(expected, part)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(
    numerators=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
    shift=st.integers(-(2**20), 2**20),
)
@example(numerators=[0, 2**30, 2**31, 3 * 2**30, 2**32 - 1], shift=2**20)
def test_unit_values_integer_shift_is_bit_identical(numerators, shift):
    phases = np.array(numerators) / 2.0**32
    shifted = phases + shift
    assert np.array_equal(shifted - shift, phases)  # both are exact floats
    assert np.array_equal(unit_values(shifted).view(np.uint64), unit_values(phases).view(np.uint64))


def test_unit_values_pieces_do_not_change_values():
    phases = np.random.default_rng(5).random(2 * _UNIT_TERMS + 3)
    split = np.concatenate([unit_values(phases[:7]), unit_values(phases[7:])])
    assert np.array_equal(unit_values(phases).view(np.uint64), split.view(np.uint64))


def test_unit_values_of_one_term_match_longer_arrays():
    """A one-term array, or a one-term last piece, rounds as every other place does.

    numpy multiplies a one-term complex array in place by a path of its
    own, whose product can differ in the last bit.
    """
    phases = np.random.default_rng(6).random(_UNIT_TERMS + 1)
    whole = unit_values(phases).view(np.uint64).reshape(-1, 2)
    singles = np.concatenate([unit_values(phases[i : i + 1]) for i in range(2000)])
    assert np.array_equal(singles.view(np.uint64).reshape(-1, 2), whole[:2000])
    assert np.array_equal(unit_values(phases[-1:]).view(np.uint64).reshape(-1, 2), whole[-1:])
    assert np.array_equal(unit_values(phases[-2:]).view(np.uint64).reshape(-1, 2), whole[-2:])


@pytest.mark.parametrize("phases", [[], np.zeros((0, 3)), 0.375, np.array(0.125), [[0.1, 0.2], [0.3, -0.4]]])
def test_unit_values_keep_shape(phases):
    values = unit_values(phases)
    assert isinstance(values, np.ndarray) and values.dtype == np.complex128
    assert values.shape == np.shape(phases)
    assert np.allclose(values, _exp_reference(phases), rtol=0, atol=2e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**52])
def test_unit_values_refuse_phases_off_the_table_domain(bad):
    with pytest.raises(ValueError, match="phases"):
        unit_values([0.25, bad])


@pytest.mark.parametrize(
    "modulus, length",
    [(2, 1), (7, 65535), (16, 200_003), (1024, 65536 + 1), (4096, 300_000), (65536, 131_073),
     (65537, 200_000), (100_000, 99_999)],
)
def test_residue_fold_in_blocks_equals_one_fold(modulus, length):
    """Blocked folding adds each class in index order, so it is bit-identical."""
    rng = np.random.default_rng(modulus)
    values = rng.normal(size=length + 5) + 1j * rng.normal(size=length + 5)
    padded = np.zeros(-(-length // modulus) * modulus, dtype=np.complex128)
    padded[:length] = values[:length]
    whole = padded.reshape(-1, modulus).sum(axis=0)
    assert np.array_equal(_residue_buckets(values, length, modulus), whole)


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


def test_checkpoints_must_be_integers():
    ones = ComplexSequence(np.ones(1000), "ones")
    zero = PhasePolynomial.zero()
    with pytest.raises(ValueError, match=r"checkpoints: expected an integer, got 2\.7"):
        weighted_exponential_average(ones, zero, [2.7, 9.99])
    for bad in (True, "10", Fraction(5, 2)):
        with pytest.raises(ValueError, match="checkpoints: expected an integer"):
            weighted_exponential_average(ones, zero, [bad])
    integral = weighted_exponential_average(ones, zero, [np.int64(10), 1e2, np.float32(1000.0)])
    assert integral.checkpoints == (10, 100, 1000)
    assert all(type(n) is int for n in integral.checkpoints)


def test_series_invariants():
    with pytest.raises(ValueError):
        ErgodicAverageSeries((10, 5), np.zeros(2, dtype=np.complex128))
    series = ErgodicAverageSeries((2, 4), np.array([0.5, 0.25 + 0.1j]))
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


def test_fourier_bohr_grid_size_must_be_an_integer():
    """A fractional M is refused, not truncated: 64.7 used to scan M = 64."""
    ones = np.ones(128)
    with pytest.raises(ValueError, match=r"grid_frequencies: expected an integer, got 64\.7"):
        fourier_bohr_scan(ones, 64.7, 128)
    assert fourier_bohr_scan(ones, 64.0, 128) == fourier_bohr_scan(ones, 64, 128)


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
    series = ErgodicAverageSeries((2, 4), np.array([0.5 + 0j, 0.25j]))
    lines = series.to_csv().strip().splitlines()
    assert lines[0] == "n,re,im,modulus"
    assert lines[1].startswith("2,0.5,0,")


@settings(max_examples=80, deadline=None)
@given(
    q=st.one_of(st.integers(1, 64), st.integers(1, 70_000)),
    start=st.integers(0, 10**12),
    data=st.data(),
    dtype=st.sampled_from([np.int64, np.complex128]),
)
@example(q=1, start=0, data=None, dtype=np.complex128)
@example(q=70_000, start=69_999, data=None, dtype=np.int64)
def test_repeated_is_the_period_indexed_mod_q(q, start, data, dtype):
    """period[k mod q] for start <= k < stop, bit for bit, below and above one period."""
    if data is None:
        length = 3 * q + 1
    else:
        length = data.draw(st.one_of(st.integers(0, q), st.integers(q, 4 * q + 3)), label="length")
    rng = np.random.default_rng(q)
    if dtype is np.int64:
        period = rng.integers(-(2**62), 2**62, q)
    else:
        period = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    out = _repeated(period, start, start + length)
    expected = period[np.arange(start, start + length) % q]
    assert out.dtype == period.dtype and out.shape == (length,)
    assert out.tobytes() == expected.tobytes()
    assert not np.shares_memory(out, period)
