"""Phase polynomials, streaming vs the exact oracle, averages, spectra."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscillab.polyphase import (
    _MAX_LANES,
    _STREAM_TERMS,
    _UNIT_TERMS,
    ErgodicAverageSeries,
    PhasePolynomial,
    _average_series,
    _class_sums,
    _cumulate_pairs,
    _difference_steps,
    _fixed_seed_table,
    _fixed_to_float,
    _folded,
    _lanes,
    _pair_floats,
    _phase_words,
    _register_phases,
    _register_seeds,
    _register_table,
    _repeated,
    _seed_pairs,
    _spectrum,
    _to_fixed,
    _word_units,
    binomial_phase_polynomial,
    compose_time_polynomial,
    fourier_bohr_scan,
    geometric_checkpoints,
    phase_at,
    phase_stream,
    unit_stream,
    unit_values,
    weighted_exponential_average,
)
from oscillab import polyphase
from oscillab.oscillation import grid_sup_average, refine_local, sup_search
from oscillab.padic import PadicAffineSystem, affine_minimality_check, orbit_residue_census, padic_weighted_average
from oscillab.probabilistic import Distribution, RandomSequenceSpec, lsk_empirical_sup, sample
from oscillab.sequences import ComplexSequence, mobius_sequence, polynomial_phase_sequence, rademacher_sequence
from oscillab.torus import (
    CharacterObservable,
    SkewShiftSystem,
    TimePolynomial,
    build_tower,
    multiple_ergodic_average,
    verify_factorization,
)

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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("inf"), np.float32("nan")])
def test_phase_polynomial_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        PhasePolynomial([0, bad])
    with pytest.raises(ValueError, match="finite"):
        PhasePolynomial.monomial(bad, 2)


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
    # The word route reads the high word, here up to 2^64 - 1, and never folds: e(phase) is within 1e-15 of 1.
    top = PhasePolynomial([1 - Fraction(1, 2**64)])
    assert [words[0].tolist() for _, words in _phase_words(top, 3)] == [[2**64 - 1] * 3]
    assert abs(_word_units(np.array([2**64 - 1], dtype=np.uint64))[0] - 1) <= 1e-15
    for poly, weights in ((constant, [1, 1, 1, 1]), (top, [1, 1, 1, 1]), (stepped, [0, 2, 0, 2])):
        averages = weighted_exponential_average(np.array(weights), poly, [2, 4]).averages
        assert np.abs(averages - 1).max() <= 1e-15, poly


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
    highs=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9),
    count=st.one_of(st.integers(1, 3000), st.integers(1, _SEED_ROWS_MAX)),
)
@example(highs=[2**64 - 1] * 9, count=_SEED_ROWS_MAX)
def test_one_word_seeds_match_big_int_table_bit_for_bit(highs, count):
    """Coefficients in units of 2^-64 seed on high words alone, bit for bit the big-int table's seeds."""
    poly = PhasePolynomial([Fraction(h, 2**64) for h in highs])
    hi, lo = _seed_pairs(poly.coefficients, count)
    assert not lo.any()
    assert [h << 64 for h in hi.tolist()] == _fixed_seed_table(poly.coefficients, count)


def seeded_rows(start, count):
    """Rows r_0, ..., r_k of the last registers of ``_register_seeds`` on each prefix of ``start``, as Python ints."""
    rows = []
    for j in range(len(start)):
        hi, lo = _register_seeds(start[: j + 1], count)
        assert hi.dtype == lo.dtype == np.uint64
        rows.append([(h << 64) | w for h, w in zip(hi.tolist(), lo.tolist())])
    return rows


def scalar_rows(start, count):
    """Rows r_0, ..., r_k of ``_difference_steps`` mod 2^128 over steps 0..count-1."""
    return [list(row) for row in zip(*(list(registers) for registers in _difference_steps(list(start), count, 2**128)))]


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.one_of(st.integers(2, 10**6), st.just(2**128), st.integers(2**128, 2**140)),
    data=st.data(),
)
def test_difference_steps_match_binomial_closed_form(modulus, data):
    """After n steps r_i = sum_j C(n, i - j) r_j(0) mod the modulus, for every register.

    Mod 2^128 the single-block evaluator ``_register_seeds`` must give
    the last register of every prefix of the start registers, that is
    every register; registers near the modulus take every carry.
    """
    register = st.one_of(st.integers(0, modulus - 1), st.integers(max(0, modulus - 2**66), modulus - 1))
    start = data.draw(st.lists(register, min_size=1, max_size=9))
    count = data.draw(st.integers(1, 300))
    steps = [list(registers) for registers in _difference_steps(list(start), count, modulus)]
    for n, registers in enumerate(steps):
        expected = [
            sum(math.comb(n, i - j) * start[j] for j in range(i + 1)) % modulus
            for i in range(len(start))
        ]
        assert registers == expected, n
    assert n == count - 1
    if modulus == 2**128:
        assert seeded_rows(start, count) == [list(row) for row in zip(*steps)]


@pytest.mark.parametrize("count", [1, 4, 5, 6, 17])
def test_one_word_register_seeds_match_the_scalar_steps(monkeypatch, count):
    """Registers that are multiples of 2^64 are summed on their high words alone, every high word wrapping."""
    summed = _cumulate_pairs

    def high_words_only(hi, lo):
        assert lo is None, "the low words were summed"
        summed(hi, lo)

    monkeypatch.setattr("oscillab.polyphase._cumulate_pairs", high_words_only)
    start = [2**128 - 2**64] * 9
    assert seeded_rows(start, count) == scalar_rows(start, count)


@pytest.mark.parametrize("count", [1, 4, 5, 6, 17])
def test_pair_steps_take_every_carry(count):
    """Registers all 2^128 - 1: every prefix sum of ``_register_seeds`` carries in both words.

    A low word in the last register alone takes the pair step too.
    """
    for start in ([2**128 - 1] * 9, [2**128 - 2**64] * 8 + [1]):
        assert seeded_rows(start, count) == scalar_rows(start, count)


def front_phases(fronts, count):
    """frac(r_k(n)) per front r_0, ..., r_k, stepped by ``_difference_steps`` mod 2^128: rows of floats."""
    return [[_fixed_to_float(r[-1]) for r in _difference_steps(list(front), count, 2**128)] for front in fronts]


_FIXED_REGISTER = st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128 - 2**64, 2**128 - 1))


@settings(max_examples=25, deadline=None)
@given(
    fronts=st.lists(st.lists(_FIXED_REGISTER, min_size=1, max_size=6), min_size=1, max_size=3),
    count=st.one_of(
        st.sampled_from([1, _STREAM_TERMS - 1, _STREAM_TERMS + 1, 3 * _STREAM_TERMS - 1]), st.integers(1, 3000)
    ),
)
@example(fronts=[[2**128 - 1] * 5, [_to_fixed(Fraction(1, 3))], [2**128 - 1, 0, 2**64]], count=_STREAM_TERMS + 1)
def test_register_phases_are_the_one_conversion_of_exact_fronts(fronts, count):
    """Each row is ``_fixed_to_float`` of its front's last register r_k(n), stepped by ``_difference_steps``.

    Fronts of different lengths seed tables of different depths, and
    still zip block by block: counts of 1, a block +-1 and three blocks
    are drawn, and the blocks are those of ``_phase_words`` over the same
    count.
    """
    got = list(_register_phases(fronts, count))
    blocks = [(start, (len(fronts), w[0].size)) for start, w in _phase_words(PhasePolynomial([0, 0.5]), count)]
    assert [(start, phases.shape) for start, phases in got] == blocks
    phases = np.concatenate([phases for _, phases in got], axis=1)
    assert phases.tolist() == front_phases(fronts, count)


@pytest.mark.parametrize("pad", [0, 2])
@pytest.mark.parametrize(
    "constant",
    [0.0, 0.1, 2.0**-76, 0.5 - 2.0**-60, 1 - 2.0**-53, Fraction(1, 3), Fraction(2, 3), Fraction(12345, 3**12),
     Fraction(3**11 + 7, 3**12)],
)
def test_constant_streams_are_the_one_conversion(constant, pad):
    """[c] and [c, 0, 0] step a table like any polynomial: every phase is ``_fixed_to_float(_to_fixed(c))``."""
    poly = PhasePolynomial([constant] + [0] * pad)
    value = _fixed_to_float(_to_fixed(constant))
    for count in (1, 65, _STREAM_TERMS + 1):
        blocks = float_blocks(poly, count)
        assert [s for s, _ in blocks[1:]] == block_edges(count)
        assert np.concatenate([phases for _, phases in blocks]).tolist() == [value] * count
        assert phase_stream(poly, count).tolist() == [value] * count


def table_words(poly, rows, lanes):
    """Words per register of the lane table seeded for ``poly``: 1 (high words alone) or 2."""
    hi, lo = (words.reshape(rows, lanes) for words in _seed_pairs(poly.coefficients, rows * lanes))
    return len(_register_table(hi, lo))


def one_conversion(value):
    """hi 2^-64 + lo 2^-128 of a 128-bit fixed-point int, 1.0 folded to 0.0, in plain Python floats."""
    phase = (value >> 64) * 2.0**-64 + (value & (2**64 - 1)) * 2.0**-128
    return 0.0 if phase == 1.0 else phase


@settings(max_examples=60, deadline=None)
@given(values=st.lists(
    st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128 - 2**75, 2**128 - 1)), min_size=1, max_size=20,
))
@example(values=[2**128 - 1, 2**127 + 2**74 + 1, 0, 1])
def test_fixed_to_float_is_the_pair_conversion(values):
    """One int converts as its (hi, lo) words do in the stream, and stays below 1."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
    pairs = _folded(_pair_floats(hi, lo)).tolist()
    assert [_fixed_to_float(v) for v in values] == pairs == [one_conversion(v) for v in values]
    assert all(0.0 <= p < 1.0 for p in pairs)


@pytest.mark.parametrize("degree", range(1, 9))
def test_stream_is_the_one_conversion_of_the_exact_value(degree):
    """Every sampled phase equals the one conversion of sum_j A_j n^j mod 2^128, bit for bit.

    A_j = 2^128 t_j is an integer for float coefficients.  Floats >= 2^-12
    make every A_j a multiple of 2^64, so the stream steps its high words
    alone; t_1 scaled by 2^-20 has a denominator of 2^73 and takes the
    (hi, lo) pair step.  A float resolves 2^-64 only below 2^-11, so a
    third set keeps every phase there: random A_j < 2^(113 - 18 j), whose
    low words make carries on most steps.  The samples sit at the lane
    edges and the block edges of a stream of more than three blocks.
    """
    count = 3 * _STREAM_TERMS + 1001
    assert count < 2**18
    lanes = _lanes(count)
    rng = np.random.default_rng(degree)
    floats = [Fraction(float(c)) * 2**128 for c in rng.random(degree + 1)]
    bits = random.Random(degree).getrandbits
    coefficient_sets = (
        (floats, 1),
        ([a / 2**20 if j == 1 else a for j, a in enumerate(floats)], 2),
        ([Fraction(bits(113 - 18 * j) if 18 * j < 113 else 0) for j in range(degree + 1)], 2),
    )
    samples = {n + k for n in (*range(0, count, lanes), *block_edges(count)) for k in (-1, 0, 1)}
    for big, words in coefficient_sets:
        assert all(a.denominator == 1 for a in big)
        poly = PhasePolynomial([a / 2**128 for a in big])
        assert table_words(poly, degree + 1, lanes) == words
        stream = phase_stream(poly, count)
        blocks = float_blocks(poly, count)
        assert len(blocks) >= 4
        assert np.array_equal(np.concatenate([phases for _, phases in blocks]).view(np.uint64), stream.view(np.uint64))
        for n in sorted(n for n in samples | {count - 1} if 0 <= n < count):
            exact = sum(int(a) * n**j for j, a in enumerate(big)) % 2**128
            assert stream[n] == one_conversion(exact), (big, n)


@settings(max_examples=30, deadline=None)
@given(
    words=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=9),
    data=st.data(),
    numerator=st.integers(0, 2**64 - 1),
    count=st.one_of(st.sampled_from([1, 63, 64, 65, 4095, 4097, 32767, 32769, 65535, 65537]), st.integers(1, 70_000)),
)
def test_one_low_bit_takes_the_pair_step(words, data, numerator, count):
    """One coefficient k/2^65 (k odd) among multiples of 2^-64 puts a low word into the seeds.

    So the stream steps (hi, lo) pairs.  It is matched bit for bit
    against the big-int ``_fixed_seed_table``, stepped by
    ``_difference_steps`` mod 2^65, where every value is exact.
    """
    j = data.draw(st.integers(0, len(words) - 1), label="j")
    coefficients = [Fraction(w, 2**64) for w in words]
    coefficients[j] = Fraction(2 * numerator + 1, 2**65)
    poly = PhasePolynomial(coefficients)
    assume(any(poly.coefficients[1:]))
    lanes = _lanes(count)
    rows = min(poly.degree + 1, -(-count // lanes))
    assert table_words(poly, rows, lanes) == 2
    exact = [one_conversion(v) for v in _fixed_seed_table(poly.coefficients, count)]
    assert phase_stream(poly, count).tolist() == exact
    assert np.concatenate([phases for _, phases in float_blocks(poly, count)]).tolist() == exact


def test_binomial_phases_seed_without_the_big_int_table(monkeypatch):
    """Orders 3-8 with float thetas: k! sits only in the monomial basis, so the seeds stay on uint64 words.

    Their forward differences are 2^128 theta_j, exact in fixed point,
    while a coefficient 1/3 still reaches ``_fixed_seed_table``.
    """
    rng = np.random.default_rng(24)
    count = 4097
    polys = [binomial_phase_polynomial(rng.random(k + 1).tolist()) for k in range(3, 9)]
    # Every monomial expansion keeps a denominator that does not divide 2^128.
    assert all(any(2**128 % c.denominator for c in poly.coefficients) for poly in polys)
    expected = [[one_conversion(v) for v in _fixed_seed_table(poly.coefficients, count)] for poly in polys]

    class BigIntTable(Exception):
        pass

    def refuse(*args):
        raise BigIntTable

    monkeypatch.setattr("oscillab.polyphase._fixed_seed_table", refuse)
    for poly, exact in zip(polys, expected):
        assert phase_stream(poly, count).tolist() == exact
        assert len(list(_phase_words(poly, 10**6))) == 16
    with pytest.raises(BigIntTable):
        phase_stream(PhasePolynomial([Fraction(1, 3), 0.25]), count)


@pytest.mark.parametrize("unit, words", [(2**64, 1), (2**128, 2)], ids=["one-word", "pair"])
def test_register_streams_step_one_word_on_multiples_of_2_64(monkeypatch, unit, words):
    """Registers and constants in units of 2^-64 step high words alone; in units of 2^-128, (hi, lo) pairs.

    Either way every phase is the scalar reference's, at counts around
    the lane widths and the block edges.
    """
    tables = []

    def spy(hi, lo):
        table = _register_table(hi, lo)
        tables.append(len(table))
        return table

    monkeypatch.setattr("oscillab.polyphase._register_table", spy)
    rng = random.Random(unit)
    step = 2**128 // unit  # odd multiples of 1/unit, so a pair stream's low words are not all 0
    fixed = [(rng.getrandbits(128) // step | 1) * step for _ in range(4)]
    constant = rng.getrandbits(64) << 64
    # Each front ends in an odd multiple of 1/unit: its value at n = 0.
    fronts = [fixed[:1], fixed[:2], fixed, [constant, fixed[1], fixed[3]]]
    for count in (1, 63, 64, 65, 4095, 4097, 65535, 65536, 65537):
        tables.clear()
        got = np.concatenate([p for _, p in _register_phases(fronts, count)], axis=1)
        assert tables == [words] * len(fronts), count
        assert got.tolist() == front_phases(fronts, count), count


def float_blocks(poly, count):
    """``(start, phases)`` blocks of ``_phase_words``, each converted by ``_pair_floats`` before the next overwrites it."""
    return [(start, _folded(_pair_floats(*words))) for start, words in _phase_words(poly, count)]


def block_edges(count):
    """Starts after 0 of the blocks ``_phase_words`` cuts a ``count``-term stream into."""
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
    stepped = [(s, w[0].size) for s, w in _phase_words(PhasePolynomial([0.25, 0.5]), count)]
    constant = [(s, w[0].size) for s, w in _phase_words(PhasePolynomial([0.25]), count)]
    assert stepped == constant
    assert [s for s, _ in stepped[1:]] == block_edges(count)
    assert sum(size for _, size in stepped) == count


def block_reference(values, poly, cps):
    """The float route: ``values * unit_values(phase_stream(...))``, summed by ``_average_series`` in the stream's blocks."""
    count = cps[-1]
    terms = values[:count] * unit_values(phase_stream(poly, count))
    starts = [0] + block_edges(count)
    stops = starts[1:] + [count]
    return _average_series(((a, terms[a:b]) for a, b in zip(starts, stops)), tuple(cps)).averages


@pytest.mark.parametrize("degree", range(9))
def test_word_units_average_is_the_float_route_bit_for_bit(degree):
    """Float coefficients in [0, 1) are multiples of 2^-53, so hi * 2^-64 is an exact float.

    There the words' root index and angle are those of the float phase,
    and the averages of int8 and of real weights match the float route
    bit for bit, at block edges and one-term last blocks included.
    """
    rng = np.random.default_rng(100 + degree)
    poly = PhasePolynomial([float(c) for c in rng.random(degree + 1)])
    for count in (1, 65, 4097, 65537, 3 * _STREAM_TERMS + 1001):
        cps = sorted({1, count // 3 + 1, *block_edges(count)[:2], count})
        for values in (rademacher_sequence(degree + 7, count).values, rng.normal(size=count)):
            got = weighted_exponential_average(values, poly, cps).averages
            assert np.array_equal(got.view(np.uint64), block_reference(values, poly, cps).view(np.uint64)), count


@pytest.mark.parametrize(
    "coefficients", [[0.3, 2.0**-70, 0.1], [Fraction(1, 3), 0.25, Fraction(2, 7)], [Fraction(1, 3)]],
)
def test_word_units_match_numpy_exp_on_pair_streams(coefficients):
    """Streams stepped on (hi, lo) pairs: the units read off hi alone are within 1e-15 of np.exp."""
    poly = PhasePolynomial(coefficients)
    count = _STREAM_TERMS + 4097
    phases = np.concatenate([p for _, p in float_blocks(poly, count)])
    units = np.concatenate([_word_units(hi) for _, (hi, _) in _phase_words(poly, count)])  # two words a block
    assert np.abs(units - _exp_reference(phases)).max() <= 1e-15
    series = weighted_exponential_average(np.ones(count), poly, [100, count])
    assert np.abs(series.averages - [units[:100].mean(), units.mean()]).max() <= 1e-15


def test_constant_streams_are_never_stepped(monkeypatch):
    """A one-row table fills each block's words from its head row: no addition runs, whatever the count."""

    def refuse(*args):
        raise AssertionError("a constant stream was stepped")

    monkeypatch.setattr("oscillab.polyphase._add_words", refuse)
    for constant in (0.25, Fraction(1, 3)):
        poly = PhasePolynomial([constant])
        for count in (1, 65537, 3 * _STREAM_TERMS + 5):
            assert phase_stream(poly, count).tolist() == [_fixed_to_float(_to_fixed(constant))] * count
    series = weighted_exponential_average(np.ones(70_000), PhasePolynomial.zero(), [70_000])
    assert series.averages.tolist() == [1.0]


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


def _assert_class_sums(values, lo, hi, start, stop, width):
    """``_class_sums`` against one zero-padded reshape summed over axis 0, dtype and bytes."""
    padded = np.zeros(-(-hi // width) * width, dtype=np.result_type(values, np.int64))
    padded[lo:hi] = values[lo:hi]
    reference = padded.reshape(-1, width).sum(axis=0)[start:stop]
    sums = _class_sums(values, lo, hi, start, stop, width)
    assert sums.dtype == reference.dtype and sums.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "modulus, length",
    [(2, 1), (7, 65535), (16, 200_003), (1024, 65536 + 1), (4096, 300_000), (65536, 131_073),
     (65537, 200_000), (100_000, 99_999), (70_000, 1000)],
)
def test_residue_fold_in_blocks_equals_one_fold(modulus, length):
    """``_class_sums`` is bit-identical to the reshape-sum, for int8, float64 and complex weights.

    From n = 0 every class adds its entries in index order, as the reshape-sum does, so even
    random floats agree bit for bit; int8 weights are summed exactly in int64.  Intervals
    [lo, hi) and column windows start..stop - 1 as the p-adic average passes them add a
    partial first row last, so there the floats are integers, whose sums are exact in any order.
    """
    rng = np.random.default_rng(modulus)
    normal = rng.normal(size=(2, length + 5))
    integers = rng.integers(-3, 4, size=(2, length + 5))
    for values in (integers[0].astype(np.int8), normal[0], normal[0] + 1j * normal[1]):
        _assert_class_sums(values, 0, length, 0, modulus, modulus)
    windows = {(0, modulus), (modulus // 3, max(modulus // 3 + 1, modulus // 2)), (modulus - 1, modulus)}
    intervals = {(length // 3, length), (length // 5, length // 2 + 1), (length - 1, length)}
    for values in (integers[0].astype(np.int8), 1.0 * integers[0], integers[0] + 1j * integers[1]):
        for lo, hi in intervals:
            for start, stop in windows:
                _assert_class_sums(values, lo, hi, start, stop, modulus)


@pytest.mark.parametrize("modulus, length", [(4096, 300_000), (65537, 200_000), (100_000, 99_999)])
def test_spectrum_scan_of_int8_weights_equals_complex_scan(modulus, length):
    """Int8 weights fold exactly in int64, so their scan is the complex128 scan bit for bit."""
    weights = mobius_sequence(length).values
    assert fourier_bohr_scan(weights, modulus, length) == fourier_bohr_scan(weights.astype(np.complex128), modulus, length)


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


@pytest.mark.parametrize(
    "field, call",
    [
        ("level", lambda: orbit_residue_census(PadicAffineSystem.from_ints(3, 4, 1), 0, 2.5, 100)),
        ("level", lambda: orbit_residue_census(PadicAffineSystem.from_ints(3, 4, 1), 0, True, 100)),
        ("steps", lambda: orbit_residue_census(PadicAffineSystem.from_ints(3, 4, 1), 0, 2, 9.5)),
        ("n_list", lambda: lsk_empirical_sup(rademacher_sequence(1, 2000), 1, [1000.7, 2000], 16)),
        ("n_list", lambda: lsk_empirical_sup(rademacher_sequence(1, 2000), 1, [True, 2000], 16)),
        ("start", lambda: geometric_checkpoints(1.5, 10)),
        ("start", lambda: geometric_checkpoints(True, 10)),
        ("stop", lambda: geometric_checkpoints(1, 10.5)),
        ("length", lambda: fourier_bohr_scan(np.ones(128), 8, 100.5)),
        ("length", lambda: fourier_bohr_scan(np.ones(128), 8, True)),
        ("n_terms", lambda: grid_sup_average(rademacher_sequence(1, 1000), 1, 16, 100.5)),
        ("n_terms", lambda: grid_sup_average(rademacher_sequence(1, 1000), 1, 16, True)),
        ("n_terms", lambda: sup_search(rademacher_sequence(1, 1000), 1, 100.5, 16)),
        (
            "level",
            lambda: padic_weighted_average(
                PadicAffineSystem.from_ints(3, 4, 1), 2.5, 0, [TimePolynomial.from_power(1)], np.ones(9), [9]
            ),
        ),
        (
            "level",
            lambda: padic_weighted_average(
                PadicAffineSystem.from_ints(3, 4, 1), True, 0, [TimePolynomial.from_power(1)], np.ones(9), [9]
            ),
        ),
    ],
    ids=["census-level", "census-level-bool", "census-steps", "lsk-n", "lsk-n-bool", "checkpoints-start",
         "checkpoints-start-bool", "checkpoints-stop", "scan-length", "scan-length-bool", "grid-n", "grid-n-bool",
         "search-n", "padic-level", "padic-level-bool"],
)
def test_lengths_and_levels_refuse_fractions_and_bools(field, call):
    """A fractional or bool length, level or count raises naming the field instead of being truncated.

    The census at level 2.5 used to count 83 classes mod 3^2.5, ``lsk_empirical_sup`` to measure
    N = 1000 for 1000.7 and ``geometric_checkpoints(1.5, 10)`` to return (1.5, 3.0, 6.0, 10);
    ``grid_sup_average`` searched one term for N = True and raised a TypeError for 100.5.
    """
    with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
        call()


_TOWER = build_tower(SkewShiftSystem(2, 0.3), CharacterObservable((1, 1)))


@pytest.mark.parametrize(
    "field, call",
    [
        ("seed", lambda: rademacher_sequence(1.5, 10)),
        ("seed", lambda: rademacher_sequence(True, 10)),
        ("seed", lambda: sample(RandomSequenceSpec(Distribution("rademacher"), 1.5, 10))),
        ("seed", lambda: sample(RandomSequenceSpec(Distribution("standard-gaussian"), 1.5, 10))),
        ("b", lambda: affine_minimality_check(4, 1.5, 3)),
        ("a", lambda: affine_minimality_check(4.5, 1, 3)),
        ("a", lambda: affine_minimality_check(True, 1, 3)),
        ("n_max", lambda: verify_factorization(_TOWER, (0.1, 0.2), True)),
        ("n_max", lambda: verify_factorization(_TOWER, (0.1, 0.2), 10.5)),
        ("dimension", lambda: SkewShiftSystem(2.5, 0.1)),
        ("dimension", lambda: SkewShiftSystem(True, 0.1)),
    ],
    ids=["rademacher-seed", "rademacher-seed-bool", "sample-seed", "gaussian-seed", "minimality-b", "minimality-a",
         "minimality-a-bool", "tower-n-max-bool", "tower-n-max", "skew-dimension", "skew-dimension-bool"],
)
def test_seeds_coefficients_and_sizes_refuse_fractions_and_bools(field, call):
    """Seeds, affine coefficients, tower lengths and torus dimensions raise naming the field.

    ``rademacher_sequence(1.5, n)`` and ``(True, n)`` drew seed 1's sequence,
    ``affine_minimality_check(4, 1.5, 3)`` and ``(True, 1, 3)`` returned True,
    ``verify_factorization`` ran n_max = True as 1 and raised a TypeError
    about '64.0' for 10.5, and ``SkewShiftSystem(2.5, 0.1)`` was built.
    """
    with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
        call()


def test_every_computation_reads_units_off_words(monkeypatch):
    """Only ``unit_values`` takes float phases: no search, average, tower check or sequence reaches its front end."""

    def refuse(*args):
        raise AssertionError("a float phase reached e(.)")

    monkeypatch.setattr(polyphase, "_float_front", refuse)
    weights = rademacher_sequence(4, 3000)
    system = SkewShiftSystem(3, 0.618)
    sup_search(weights, 2, 3000, 16)
    refine_local(weights, 1, (0.0, 0.25), 3000, initial_step=1 / 16)
    qs = [TimePolynomial.from_power(2), TimePolynomial.from_power(1)]
    for p, a, level in ((3, 4, 5), (2, 5, 6), (3, 6, 3), (3, 4, 0)):
        padic_weighted_average(PadicAffineSystem.from_ints(p, a, 1), level, 7, qs, weights, [100, 3000])
    assert verify_factorization(build_tower(system, CharacterObservable((1, -2, 3))), (0.1, 0.2, 0.3), 3000) == 0.0
    weighted_exponential_average(weights, PhasePolynomial([0.1, Fraction(1, 3), 0.7]), [100, 3000])
    chars = [CharacterObservable((0, 1, 1)), CharacterObservable((1, 0, 0))]
    multiple_ergodic_average(system, chars, qs, (0.1, 0.2, 0.3), weights, [3000])
    polynomial_phase_sequence(0.3, 3, 3000)
    polynomial_phase_sequence(Fraction(1, 3), 2, 3000)
    with pytest.raises(AssertionError, match="float phase"):
        unit_values([0.25])


def test_lengths_and_levels_accept_integral_floats():
    system, qs, weights = PadicAffineSystem.from_ints(3, 4, 1), [TimePolynomial.from_power(1)], np.ones(9)
    assert orbit_residue_census(system, 0, 2.0, 100.0) == orbit_residue_census(system, 0, 2, 100)
    assert geometric_checkpoints(2.0, np.int64(10)) == (2, 4, 8, 10)
    assert fourier_bohr_scan(np.ones(128), 8, 100.0) == fourier_bohr_scan(np.ones(128), 8, 100)
    signs = rademacher_sequence(1, 1000)
    assert grid_sup_average(signs, 1, 16, 500.0) == grid_sup_average(signs, 1, 16, 500)
    assert sup_search(signs, 1, 500.0, 16) == sup_search(signs, 1, 500, 16)
    averages = [padic_weighted_average(system, level, 0, qs, weights, [9]).averages for level in (2.0, 2)]
    assert np.array_equal(*averages)
    assert np.array_equal(rademacher_sequence(2.0, 50).values, rademacher_sequence(2, 50).values)
    assert affine_minimality_check(4.0, 1.0, 3) is affine_minimality_check(4, 1, 3) is True
    assert verify_factorization(_TOWER, (0.1, 0.2), 100.0) == verify_factorization(_TOWER, (0.1, 0.2), 100)
    assert SkewShiftSystem(2.0, 0.1) == SkewShiftSystem(2, 0.1)


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


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def horner_composition(outer, inner):
    """Monomial coefficients of Q(q(z)) by Horner's rule in Q's coefficients, exact, unreduced."""
    result = [outer[-1]]
    for c in reversed(outer[:-1]):
        result = _poly_mul(result, inner)
        result[0] += c
    return result


_OUTER_COEFFICIENT = st.one_of(
    st.floats(0, 1, exclude_max=True), st.fractions(0, 1, max_denominator=10**6), st.just(Fraction(1, 3))
)


@settings(max_examples=150, deadline=None)
@given(outer=st.lists(_OUTER_COEFFICIENT, min_size=1, max_size=5), data=st.data(), bare=st.booleans())
def test_compose_matches_horner(outer, data, bare):
    """Composition by forward differences equals Horner's rule, as Fractions, trailing zeros included."""
    q_outer = PhasePolynomial(outer)
    inner_degree = data.draw(st.integers(0, 8 // max(q_outer.degree, 1)), label="inner_degree")
    coefficients = data.draw(st.lists(st.integers(-50, 50), min_size=inner_degree + 1, max_size=inner_degree + 1))
    if bare:
        zeros = data.draw(st.integers(0, 8 // max(q_outer.degree, 1) - inner_degree), label="zeros")
        q_inner, inner = coefficients + [0] * zeros, [Fraction(c) for c in coefficients + [0] * zeros]
    else:
        q_inner = TimePolynomial(tuple(coefficients))
        inner = list(q_inner.monomial_coefficients())
    composed = compose_time_polynomial(q_outer, q_inner)
    assert composed == PhasePolynomial(horner_composition(q_outer.coefficients, inner))
    assert composed.degree == q_outer.degree * (len(inner) - 1)


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


@pytest.mark.parametrize(
    "weights, m, n",
    [
        (np.ones(128), 8, 128),
        (mobius_sequence(1000), 1000, 777),
        (np.exp(2j * np.pi * np.arange(500) / 3), 30, 500),
        (rademacher_sequence(5, 100), 256, 100),
    ],
    ids=["exact-ties", "m-not-a-power-of-two", "complex-m-not-a-power-of-two", "m-above-n"],
)
def test_fourier_bohr_scan_is_the_lexsort_of_the_spectrum(weights, m, n):
    """The scan is ``_spectrum`` sorted by descending modulus, ties toward the smaller index, bit for bit."""
    moduli = _spectrum(weights, m, n)
    order = np.lexsort((np.arange(m), -moduli))
    assert fourier_bohr_scan(weights, m, n) == [(int(j) / m, float(moduli[j])) for j in order]


def test_fourier_bohr_sorted_descending():
    rng = np.random.default_rng(43)
    values = rng.normal(size=500) + 1j * rng.normal(size=500)
    scan = fourier_bohr_scan(values, 32, 500)
    moduli = [mod for _, mod in scan]
    assert moduli == sorted(moduli, reverse=True)


def test_geometric_checkpoints():
    assert geometric_checkpoints(100, 1000) == (100, 200, 400, 800, 1000)
    assert geometric_checkpoints(5, 5) == (5,)


def test_series_csv_format(tmp_path):
    from oscillab.cli import emit_report

    series = ErgodicAverageSeries((2, 4), np.array([0.5 + 0j, 0.25j]))
    lines = emit_report(series, "csv", tmp_path / "series.csv").read_text().splitlines()
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


_SENTINEL = np.uint64(0xA5A5_A5A5_A5A5_A5A5)


def _sentinel_blocks(stepped_blocks):
    """``_stepped_blocks`` yielding copies of each block's words, overwritten with a sentinel at the next request."""

    def blocks(*args):
        for start, words in stepped_blocks(*args):
            copies = tuple(w.copy() for w in words)
            yield start, copies
            for w in copies:
                w.fill(_SENTINEL)

    return blocks


@pytest.mark.parametrize(
    "coefficient, words",
    [(0.3, 1), (1e-5, 2), (Fraction(1, 3), 2)],
    ids=["one-word", "two-word", "big-int"],
)
def test_every_consumer_reads_a_block_before_the_next(monkeypatch, coefficient, words):
    """Blocks are views the next block overwrites; no consumer may keep one, so overwriting changes nothing."""
    from oscillab import polyphase
    from oscillab.torus import CharacterObservable, SkewShiftSystem, build_tower, verify_factorization

    count = 2 * _STREAM_TERMS + 777
    poly = PhasePolynomial([0.125, coefficient, 0.7])
    _, first = next(_phase_words(poly, count))
    assert len(first) == words
    seq = rademacher_sequence(5, count)
    tower = build_tower(SkewShiftSystem(3, float(coefficient)), CharacterObservable((1, 0, 2)))

    def results():
        blocks = float_blocks(poly, count)
        return (
            [start for start, _ in blocks],
            np.concatenate([phases for _, phases in blocks]),
            phase_stream(poly, count),
            unit_stream(poly, count),
            weighted_exponential_average(seq, poly, [1000, _STREAM_TERMS + 1, count]).averages,
            polynomial_phase_sequence(coefficient, 2, count).values,
            verify_factorization(tower, (0.1, 0.2, 0.3), count),
        )

    expected = results()
    assert len(expected[0]) > 1
    monkeypatch.setattr(polyphase, "_stepped_blocks", _sentinel_blocks(polyphase._stepped_blocks))
    for got, want in zip(results(), expected):
        assert np.array_equal(got, want)
