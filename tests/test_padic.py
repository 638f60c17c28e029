"""Affine maps of Z_p on ints mod p^K: minimality, censuses, cylinder averages."""

import cmath
import collections
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscillab import padic
from oscillab.padic import (
    PadicAffineSystem,
    _cycle_from,
    _cycle_positions,
    affine_minimality_check,
    orbit_residue_census,
    padic_weighted_average,
)
from oscillab.polyphase import _STREAM_TERMS
from oscillab.sequences import rademacher_sequence
from oscillab.torus import TimePolynomial


def test_eval_map_example():
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=4)
    assert system.step_int(5, 4) == 21


def test_eval_map_identity():
    system = PadicAffineSystem.from_ints(5, 1, 0, precision=6)
    for value in (0, 3, 5**6 - 1):
        assert system.step_int(value, 6) == value


def test_truncation_compatibility_single_digit():
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=1)
    assert system.step_int(5, 1) == system.step_int(2, 1)


def test_padic_system_validation():
    with pytest.raises(ValueError, match="prime: 4 is not prime"):
        PadicAffineSystem.from_ints(4, 1, 1)
    with pytest.raises(ValueError, match="precision: must be >= 1"):
        PadicAffineSystem.from_ints(3, 1, 1, precision=0)
    system = PadicAffineSystem.from_ints(3, -1, 3**4 + 2, precision=4)
    assert (system.prime, system.a, system.b, system.precision) == (3, 80, 2, 4)
    assert system == PadicAffineSystem(3, 80, 2, 4)


@pytest.mark.parametrize(
    "field, call",
    [
        ("a", lambda: PadicAffineSystem.from_ints(3, 4.9, 1)),
        ("b", lambda: PadicAffineSystem.from_ints(3, 4, 1.5)),
        ("prime", lambda: PadicAffineSystem.from_ints(3.5, 4, 1)),
        ("prime", lambda: affine_minimality_check(4, 1, 2.5)),
        ("x0", lambda: orbit_residue_census(PadicAffineSystem.from_ints(3, 4, 1), 2.7, 1, 9)),
        (
            "x0",
            lambda: padic_weighted_average(
                PadicAffineSystem.from_ints(3, 4, 1), 1, 2.7, [TimePolynomial.from_power(1)], np.ones(9), [9]
            ),
        ),
    ],
    ids=["a", "b", "prime", "prime-minimality", "x0-census", "x0-average"],
)
def test_non_integral_input_is_refused_naming_the_field(field, call):
    """A fractional a, b, prime or x0 raises instead of being truncated."""
    with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
        call()


def test_integral_floats_and_numpy_ints_are_accepted():
    system = PadicAffineSystem.from_ints(np.int64(3), 4.0, np.int32(1))
    assert (system.prime, system.a, system.b) == (3, 4, 1)
    assert all(type(v) is int for v in (system.prime, system.a, system.b, system.precision))
    assert orbit_residue_census(system, 2.0, 1, 9) == orbit_residue_census(system, np.int64(2), 1, 9)


def test_minimality_criterion():
    assert affine_minimality_check(4, 1, 3) is True
    assert affine_minimality_check(3, 1, 3) is False
    assert affine_minimality_check(4, 3, 3) is False
    with pytest.raises(ValueError):
        affine_minimality_check(1, 1, 2)


def test_census_single_cycle_level_one():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    assert orbit_residue_census(system, 0, 1, 3) == {0: 1, 1: 1, 2: 1}


def test_census_level_two_visits_all_nine():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    census = orbit_residue_census(system, 0, 2, 9)
    assert census == {r: 1 for r in range(9)}
    # independent oracle: literal hand iteration of 4x + 1 mod 9
    x, seen = 0, []
    for _ in range(9):
        seen.append(x)
        x = (4 * x + 1) % 9
    assert sorted(seen) == list(range(9))


def test_census_non_minimal_stays_in_class():
    system = PadicAffineSystem.from_ints(3, 1, 3)
    assert orbit_residue_census(system, 0, 1, 9) == {0: 9}


def _census_walk(system, x0, level, steps):
    """Reference census: one ``step_int`` per visit."""
    counts, x = {}, x0 % system.prime**level
    for _ in range(steps):
        counts[x] = counts.get(x, 0) + 1
        x = system.step_int(x, level)
    return counts


@pytest.mark.parametrize("steps", [1, _STREAM_TERMS - 1, _STREAM_TERMS, _STREAM_TERMS + 1, 3 * _STREAM_TERMS + 7])
@pytest.mark.parametrize(
    "p, a, b, precision, level, x0",
    [
        (3, 4, 1, 24, 12, 5),  # p does not divide a: a cycle of 3^12 through x0
        (5, 7, 2, 24, 3, 11),  # a shorter cycle, revisited within each block
        (3, 6, 1, 24, 9, 12345),  # p | a: a pre-periodic tail onto a fixed point
        (3, 4, 1, 40, 40, 2),  # 3^40 > 2^63: the visits are Python ints
        (3, 1, 3**6, 24, 17, 5),  # 3^17 > 2^26, so streamed: a 3^11 cycle, which the last block closes
    ],
)
def test_census_blocks_match_the_step_loop(p, a, b, precision, level, x0, steps):
    system = PadicAffineSystem.from_ints(p, a, b, precision=precision)
    census = orbit_residue_census(system, x0, level, steps)
    assert census == _census_walk(system, x0, level, steps)
    assert list(census) == sorted(census)
    assert all(type(k) is int and type(v) is int for k, v in census.items())


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    a=st.integers(0, 60),
    b=st.integers(0, 60),
    level=st.integers(0, 3),
    x0=st.integers(0, 10**4),
    rounds=st.integers(0, 3),
    shift=st.integers(-1, 1),
)
@example(p=3, a=4, b=1, level=2, x0=0, rounds=1, shift=0)  # steps = L on a full cycle
@example(p=3, a=4, b=1, level=3, x0=5, rounds=0, shift=-1)  # steps = L - 1: streamed
@example(p=3, a=6, b=1, level=3, x0=12345, rounds=2, shift=1)  # p | a: a tail onto a fixed point
@example(p=2, a=3, b=0, level=0, x0=7, rounds=3, shift=1)  # level 0: one class
def test_census_matches_a_counter_around_the_cycle_length(p, a, b, level, x0, rounds, shift):
    """Steps k L + r around multiples of the cycle length L through x0 (p^level for a tail, p | a)."""
    system = PadicAffineSystem.from_ints(p, a, b, precision=4)
    mod = p**level
    length = padic._cycle_length(system, x0 % mod, level) if a % p else mod
    steps = max(1, rounds * length + shift * random.Random(x0).randrange(length))
    walk, x = collections.Counter(), x0 % mod
    for _ in range(steps):
        walk[x] += 1
        x = system.step_int(x, level)
    census = orbit_residue_census(system, x0, level, steps)
    assert census == dict(sorted(walk.items()))
    assert list(census) == sorted(census)
    assert all(type(k) is int and type(v) is int for k, v in census.items())


def test_census_fills_the_cycle_once():
    """(3, 4, 1) at level 12 over 10^7 steps: the census of one 3^12 cycle, 18 or 19 visits a class."""
    system = PadicAffineSystem.from_ints(3, 4, 1)
    census = orbit_residue_census(system, 12345, 12, 10**7)
    assert list(census) == list(range(3**12))
    assert collections.Counter(census.values()) == {19: 10**7 % 3**12, 18: 3**12 - 10**7 % 3**12}
    cycle = _cycle_from(system, 12345, 12)
    assert all(census[k] == 19 for k in cycle[: 10**7 % 3**12].tolist())


def test_census_allocates_nothing_per_class(traced_peak):
    # 2^26 classes as an int64 table would be 512 MiB; ten visits trace about 4 KB.
    system = PadicAffineSystem.from_ints(2, 5, 1, precision=26)
    assert orbit_residue_census(system, 0, 26, 10) == {(5**k - 1) // 4: 1 for k in range(10)}
    assert traced_peak(orbit_residue_census, system, 0, 26, 10) < 64 * 1024


def test_minimal_orbits_have_exact_period():
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            system = PadicAffineSystem.from_ints(p, 1 + p, 1, precision=6)
            assert affine_minimality_check(1 + p, 1, p)
            cycle = _cycle_from(system, 0, k)
            assert len(cycle) == p**k
            assert sorted(cycle) == list(range(p**k))


def _dict_walk(system, x0, level):
    """Reference (tail, cycle) of the orbit mod p^level: walk until a point repeats."""
    first_seen, orbit, x = {}, [], x0 % system.prime**level
    while x not in first_seen:
        first_seen[x] = len(orbit)
        orbit.append(x)
        x = system.step_int(x, level)
    return orbit[: first_seen[x]], orbit[first_seen[x] :]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    a=st.integers(0, 60),
    b=st.integers(0, 60),
    level=st.integers(1, 8),
    x0=st.integers(0, 10**4),
)
@example(p=3, a=3, b=1, level=6, x0=12345)
@example(p=2, a=4, b=1, level=8, x0=255)
@example(p=5, a=6, b=0, level=5, x0=7)
def test_orbit_cycle_matches_dict_walk(p, a, b, level, x0):
    """p not dividing a: the cycle from x0 and no tail; p | a: T^level x0 is the one-point cycle."""
    assume(p**level <= 5000)
    system = PadicAffineSystem.from_ints(p, a, b)
    ref_tail, ref_cycle = _dict_walk(system, x0, level)
    y = x0 % p**level
    if a % p:
        assert ref_tail == []
    else:
        assert len(ref_tail) <= level
        for _ in range(level):
            y = system.step_int(y, level)
    cycle = _cycle_from(system, y, level)
    assert cycle.dtype == np.int32
    assert cycle.tolist() == ref_cycle


def test_non_minimal_census_misses_residues():
    # family a = 0 mod p
    for a, b in ((3, 1), (6, 2), (1, 3), (1, 6)):
        system = PadicAffineSystem.from_ints(3, a, b, precision=8)
        assert not affine_minimality_check(a, b, 3)
        missed = False
        for k in (1, 2):
            census = orbit_residue_census(system, 0, k, 3 ** (k + 1))
            if len(census) < 3**k:
                missed = True
        assert missed, (a, b)


def test_truncation_commutes_with_map():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = int(rng.choice([3, 5, 7]))
        K = 6
        a, b, xv = (int(v) for v in rng.integers(0, p**K, 3))
        system = PadicAffineSystem.from_ints(p, a, b, precision=K)
        stepped = system.step_int(xv, K)
        for j in range(1, K + 1):
            assert stepped % p**j == system.step_int(xv % p**j, j)


def test_full_cycle_character_sums_vanish():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    q = TimePolynomial.from_power(1)
    for level, cycles in ((1, 4), (2, 3)):
        n = 3**level * cycles
        ones = np.ones(n, dtype=np.complex128)
        series = padic_weighted_average(system, level, 0, [q], ones, [n])
        assert abs(series.averages[0]) <= 1e-12
        census = orbit_residue_census(system, 0, level, n)
        assert census == {r: cycles for r in range(3**level)}


def test_weighted_average_constant_observable():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    ones = np.ones(50, dtype=np.complex128)
    series = padic_weighted_average(
        system, 0, 0, [TimePolynomial.from_power(1)], ones, [50]
    )
    assert series.averages[0] == pytest.approx(1.0, abs=1e-14)


def test_weighted_average_rademacher_square_times():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    seq = rademacher_sequence(1, 10**5)
    series = padic_weighted_average(
        system, 2, 0, [TimePolynomial.from_power(2)], seq, [10**5]
    )
    assert abs(series.averages[0]) <= 0.05


def test_weighted_average_matches_literal_iteration():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    q = TimePolynomial.from_power(2)
    n = 60
    seq = rademacher_sequence(3, n)
    series = padic_weighted_average(system, 2, 0, [q], seq, [n])
    total = 0.0
    for i in range(n):
        x = 0
        for _ in range(q(i)):
            x = system.step_int(x, 2)
        total += seq.values[i] * np.exp(2j * np.pi * x / 9)
    assert abs(total / n - series.averages[0]) <= 1e-12


def test_weighted_average_preperiodic_orbit():
    # a = 0 mod 3 contracts onto a fixed point; the closed form must still be exact
    system = PadicAffineSystem.from_ints(3, 3, 1, precision=8)
    q = TimePolynomial.from_power(1)
    n = 40
    seq = rademacher_sequence(5, n)
    series = padic_weighted_average(system, 2, 2, [q], seq, [n])
    total = 0.0
    for i in range(n):
        x = 2
        for _ in range(q(i)):
            x = system.step_int(x, 2)
        total += seq.values[i] * np.exp(2j * np.pi * x / 9)
    assert abs(total / n - series.averages[0]) <= 1e-12


def test_weighted_average_multi_factor():
    system = PadicAffineSystem.from_ints(5, 6, 1)
    qs = [TimePolynomial.from_power(1), TimePolynomial.from_power(2)]
    n = 55
    seq = rademacher_sequence(8, n)
    series = padic_weighted_average(system, 1, 0, qs, seq, [n])
    total = 0.0
    for i in range(n):
        phase = 0.0
        for q in qs:
            x = 0
            for _ in range(q(i)):
                x = system.step_int(x, 1)
            phase += x / 5
        total += seq.values[i] * np.exp(2j * np.pi * phase)
    assert abs(total / n - series.averages[0]) <= 1e-12


def test_weighted_average_level_validation():
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=4)
    seq = rademacher_sequence(1, 10)
    with pytest.raises(ValueError):
        padic_weighted_average(system, 5, 0, [TimePolynomial.from_power(1)], seq, [10])


def test_weighted_average_rejects_degree_above_cap():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    seq = rademacher_sequence(1, 10)
    qs = [TimePolynomial.from_power(1), TimePolynomial.from_power(9)]
    with pytest.raises(ValueError, match=r"time_polynomials\[1\]: degree 9"):
        padic_weighted_average(system, 2, 0, qs, seq, [10])


def test_weighted_average_rejects_negative_time_polynomial():
    system = PadicAffineSystem.from_ints(3, 4, 1)
    seq = rademacher_sequence(1, 10)
    with pytest.raises(ValueError) as excinfo:
        padic_weighted_average(system, 2, 0, [TimePolynomial((-3, 1))], seq, [10])
    assert str(excinfo.value) == "time_polynomials[0]: q(n) = -3 < 0 at n = 0"


def test_weighted_average_rejects_classes_above_envelope():
    # 3^17 = 129,140,163 > 2^26 observable classes; 3^16 is the largest allowed.
    system = PadicAffineSystem.from_ints(3, 4, 1)
    seq = rademacher_sequence(1, 10)
    with pytest.raises(ValueError, match="level: p\\^level observable classes exceed"):
        padic_weighted_average(system, 17, 0, [TimePolynomial.from_power(1)], seq, [10])


_DEGREE_8 = (7, 3, 11, 2, 5, 1, 4, 9, 6)


@pytest.mark.parametrize(
    ("binomials", "count", "cycle_length"),
    [
        (_DEGREE_8, 10**7, 3**16),
        # Every register L - 1 at the largest L allowed: the unreduced rows come nearest 2^58,
        # and the last two terms fall in a second block.  A power of two divides 2^64, so int64
        # wraparound would go unseen there; 3^16, the largest odd L allowed, shows it.
        ((-1,) * 9, _STREAM_TERMS + 2, 2**26),
        ((-1,) * 9, _STREAM_TERMS + 2, 3**16),
    ],
    ids=["degree-8-ten-million-terms", "worst-case-registers", "worst-case-registers-odd"],
)
def test_cycle_positions_match_python_ints(binomials, count, cycle_length):
    """Every position read equals q(n) mod L computed with Python ints."""
    q = TimePolynomial(binomials)
    assert q.degree == 8
    positions = np.concatenate([block for _, block in _cycle_positions(q, count, cycle_length)])
    assert positions.size == count
    indices = list(range(4096)) + list(range(count - 4096, count))
    indices += random.Random(16).sample(range(count), 200)
    for n in indices:
        assert positions[n] == q(n) % cycle_length, n


def test_cycle_positions_exact_at_times_near_10_to_12():
    """Positions q(n + s) mod L for s = 10^12 at degree 8: integer steps have no rounding limit in N.

    The shifted polynomial q(n + s) has the integer binomial coefficients
    b_j = sum_i a_i C(s, i - j) (Vandermonde), so its first terms are
    positions at times around 10^12 without stepping there.
    """
    a, s, cycle_length = _DEGREE_8, 10**12, 3**16
    q = TimePolynomial(a)
    shifted = TimePolynomial(tuple(sum(a[i] * math.comb(s, i - j) for i in range(j, 9)) for j in range(9)))
    [(start, positions)] = _cycle_positions(shifted, 1001, cycle_length)
    assert start == 0
    assert positions.tolist() == [q(n + s) % cycle_length for n in range(1001)]


def test_weighted_average_streams_across_blocks():
    """Checkpoints at block edges, against positions q(n) mod L computed exactly."""
    system = PadicAffineSystem.from_ints(3, 4, 1)
    level, x0 = 5, 17
    mod = 3**level
    qs = [TimePolynomial.from_power(3), TimePolynomial.from_power(1)]
    n = 3 * _STREAM_TERMS + 5
    cps = [1, _STREAM_TERMS - 1, _STREAM_TERMS, _STREAM_TERMS + 1, 2 * _STREAM_TERMS, n]
    seq = rademacher_sequence(4, n)
    series = padic_weighted_average(system, level, x0, qs, seq, cps)

    cycle = [x0]
    while len(cycle) < mod:
        cycle.append(system.step_int(cycle[-1], level))
    cycle = np.asarray(cycle)
    ns = np.arange(n, dtype=np.int64)
    residues = cycle[(ns**3) % mod] + cycle[ns % mod]
    terms = seq.values * np.exp(2j * np.pi * (residues % mod) / mod)
    reference = np.cumsum(np.add.reduceat(terms, [0] + cps[:-1])) / np.asarray(cps)
    assert np.abs(series.averages - reference).max() <= 1e-12


def test_weighted_average_zips_constant_and_stepped_streams():
    """Constant scaled phases next to stepped ones, cut into the same blocks.

    At 100,000 terms a lane row is 4,096 terms (lanes reach 4096 at
    32,768), so every block but the last holds 16 rows, 65,536 terms;
    q = 5 and q = 3^5 n + 2 scale to constant phases mod 1 and must be
    cut into the same blocks as q = n.
    """
    system = PadicAffineSystem.from_ints(3, 4, 1)
    level, x0 = 5, 17
    mod = 3**level
    qs = [TimePolynomial((5,)), TimePolynomial.from_power(1), TimePolynomial((2, mod))]
    n = 100_000
    cps = [1, 4_096, _STREAM_TERMS - 1, _STREAM_TERMS, _STREAM_TERMS + 1, n]
    seq = rademacher_sequence(4, n)
    series = padic_weighted_average(system, level, x0, qs, seq, cps)

    cycle = [x0]
    while len(cycle) < mod:
        cycle.append(system.step_int(cycle[-1], level))
    cycle = np.asarray(cycle)
    residues = sum(cycle[np.asarray([q(k) for k in range(n)]) % mod] for q in qs)
    terms = seq.values * np.exp(2j * np.pi * (residues % mod) / mod)
    reference = np.cumsum(np.add.reduceat(terms, [0] + cps[:-1])) / np.asarray(cps)
    assert np.abs(series.averages - reference).max() <= 1e-12


_AROUND_THE_PERIOD = [
    # (p, a, b, level, x0, qs, P): P the lcm of the periods of q_j / L, L the cycle length.
    (3, 4, 1, 5, 17, [TimePolynomial((0, 1, 2)), TimePolynomial.from_power(1)], 243),
    (2, 5, 1, 6, 3, [TimePolynomial((0, 0, 1))], 128),  # C(n, 2) / 64 has denominator 128
    (5, 6, 2, 3, 1, [TimePolynomial((1, 2, 0, 1)), TimePolynomial((4,))], 750),  # C(n, 3) / 125: 750
    (7, 8, 1, 2, 5, [TimePolynomial.from_power(8), TimePolynomial((0, 0, 1))], 98),
    (3, 4, 1, 10, 12345, [TimePolynomial.from_power(3)], 3**10),  # 2^16 +- 1 cross a block edge
    (3, 3, 1, 4, 7, [TimePolynomial((0, 1, 2)), TimePolynomial.from_power(1)], None),  # p | a: a tail
    (3, 6, 2, 6, 5, [TimePolynomial((2,)), TimePolynomial((0,)), TimePolynomial.from_power(2)], None),  # constants
    (5, 10, 3, 3, 9, [TimePolynomial((9, -5, 2)), TimePolynomial((0, 0, 1))], None),  # (n - 3)^2: a run inside
]


@pytest.mark.parametrize(("p", "a", "b", "level", "x0", "qs", "period"), _AROUND_THE_PERIOD)
def test_average_around_the_period_matches_term_by_term(p, a, b, level, x0, qs, period):
    """N at P - 1, P, P + 1, 2P + 1 and 2^16 +- 1, against orbit positions q(n) mod L computed exactly.

    The weights are folded onto W, the least multiple of P that is at
    least 2^16, so swapping two integer weights W apart inside one
    checkpoint interval leaves every class sum, and the output bytes,
    unchanged.
    """
    system = PadicAffineSystem.from_ints(p, a, b)
    mod = p**level
    ns = [2**16 - 1, 2**16 + 1] + ([period - 1, period, period + 1, 2 * period + 1] if period else [])
    count = max(ns)
    rng = np.random.default_rng(level)
    weights = rng.standard_normal(count) + 1j * rng.standard_normal(count)

    orbit, seen = [x0 % mod], {x0 % mod: 0}
    while (following := system.step_int(orbit[-1], level)) not in seen:
        seen[following] = len(orbit)
        orbit.append(following)
    tail = seen[following]
    cycle_length = len(orbit) - tail
    if period:
        assert tail == 0 and cycle_length == p**level
        scaled = ([c / cycle_length for c in q.monomial_coefficients()] for q in qs)
        assert padic._period(*scaled) == period
    residues = np.zeros(count, dtype=np.int64)
    for q in qs:
        times = (q(k) for k in range(count))
        residues += [orbit[t if t < tail else tail + (t - tail) % cycle_length] for t in times]
    terms = weights * np.exp(2j * np.pi * (residues % mod) / mod)

    for n in ns:
        cps = sorted({1, n // 2, n})
        series = padic_weighted_average(system, level, x0, qs, weights[:n], cps)
        reference = np.cumsum(np.add.reduceat(terms[:n], [0] + cps[:-1])) / np.asarray(cps)
        assert np.abs(series.averages - reference).max() <= 1e-12, n

    if period:
        width = -(-(2**16) // period) * period
        n = 2 * width + 3
        integers = rng.integers(-50, 50, n).astype(np.int8)
        integers[[5, 5 + width]] = (7, -3)
        cps = [1, n - 1, n]
        series = padic_weighted_average(system, level, x0, qs, integers, cps)
        integers[[5, 5 + width]] = integers[[5 + width, 5]]
        swapped = padic_weighted_average(system, level, x0, qs, integers, cps)
        assert series.averages.tobytes() == swapped.averages.tobytes()


@pytest.mark.parametrize("a", [4, 3])
def test_level_zero_averages_the_weights_themselves(a):
    """Level 0 is a one-point cycle with unit 1: the averages are those of the weights.

    Integer weights give their exact sums / N bit for bit, and float
    weights their sums to within 1e-15 of ``math.fsum``.
    """
    system = PadicAffineSystem.from_ints(3, a, 1)
    n = 2 * _STREAM_TERMS + 7
    rng = np.random.default_rng(a)
    cps = (1, 5_000, _STREAM_TERMS, n)
    qs = [TimePolynomial.from_power(2), TimePolynomial((4,))]
    integers = rng.integers(-(10**6), 10**6, n)
    series = padic_weighted_average(system, 0, 11, qs, integers, cps)
    exact = np.asarray([int(integers[:c].sum()) / c for c in cps], dtype=np.complex128)
    assert series.averages.tobytes() == exact.tobytes()
    floats = rng.standard_normal(n)
    series = padic_weighted_average(system, 0, 11, qs, floats, cps)
    assert not series.averages.imag.any()
    assert max(abs(v - math.fsum(floats[:c]) / c) for v, c in zip(series.averages.real, cps)) <= 1e-15


def test_cycle_and_average_at_the_largest_prime_square_under_2_26():
    """p^2 = 8191^2 = 67,092,481 < 2^26 and a = p^2 - 1, so T^2 = id and a product a x reaches 2^52.

    The cycle is held as int32, but T steps in int64: a * x on an int32
    block would wrap.  Forty class indices near 2^26 sum past 2^31, so
    their sum is taken in int64 too.
    """
    p, b, x0 = 8191, 12345, 10**7
    system = PadicAffineSystem.from_ints(p, p**2 - 1, b)
    cycle = _cycle_from(system, x0, 2)
    assert cycle.size == 2
    assert cycle.tolist() == [x0, system.step_int(x0, 2)]
    assert system.step_int(int(cycle[-1]), 2) == cycle[0]

    qs = [TimePolynomial.from_power(j % 4) for j in range(40)]
    n = 200
    seq = rademacher_sequence(6, n)
    series = padic_weighted_average(system, 2, x0, qs, seq, [1, 77, n])
    mod, total, expected = p**2, 0j, []
    for i in range(n):
        residue = sum(big_a * x0 + big_b for big_a, big_b in (_affine_power(p**2 - 1, b, q(i), mod) for q in qs))
        total += int(seq.values[i]) * cmath.exp(2j * math.pi * ((residue % mod) / mod))
        if i + 1 in (1, 77, n):
            expected.append(total / (i + 1))
    assert np.abs(series.averages - np.asarray(expected)).max() <= 1e-12


@pytest.mark.parametrize("level", [3, 10, 16])
@pytest.mark.parametrize("checkpoints", [(2**17,), (1, 2**17)])
def test_thue_morse_on_the_2_adic_odometer_averages_to_exactly_zero(level, checkpoints):
    """x -> x + 1 on Z_2 at q(n) = n, N = 2^17: t_{n + 2^16} = -t_n, so every class sum mod 2^16 is 0.

    The weights fold onto W = 2^16 (the least multiple of 2^level that
    is at least 2^16), so the average at N is exactly 0.0, not rounding
    noise.  A checkpoint at 1 splits the sum into u_0 t_0 and the rest,
    whose class sums are -t_0 at class 0 and 0 elsewhere: the two parts
    still cancel exactly, where a term-by-term running sum leaves up to 1.4e-19.
    """
    thue_morse = np.ones(1, dtype=np.int8)
    while thue_morse.size < 2**17:
        thue_morse = np.concatenate((thue_morse, -thue_morse))
    system = PadicAffineSystem.from_ints(2, 1, 1)
    series = padic_weighted_average(system, level, 5, [TimePolynomial.from_power(1)], thue_morse, checkpoints)
    assert series.averages[-1] == 0.0


def _affine_power(a, b, t, mod):
    """(A, B) with T^t x = A x + B mod ``mod`` for T x = a x + b."""
    big_a, big_b = 1, 0
    pa, pb = a % mod, b % mod
    while t:
        if t & 1:
            big_a, big_b = (pa * big_a) % mod, (pa * big_b + pb) % mod
        pa, pb = (pa * pa) % mod, (pa * pb + pb) % mod
        t >>= 1
    return big_a, big_b


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    level=st.integers(1, 3),
    a=st.integers(0, 10**4),
    b=st.integers(0, 10**4),
    x0=st.integers(0, 10**4),
    binomials=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=2
    ),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**31),
)
def test_weighted_average_matches_term_by_term(p, level, a, b, x0, binomials, n, seed):
    """Small levels, any a (pre-periodic orbits included) against orbit powers."""
    system = PadicAffineSystem.from_ints(p, a, b)
    qs = [TimePolynomial(tuple(c)) for c in binomials]
    seq = rademacher_sequence(seed, n)
    series = padic_weighted_average(system, level, x0, qs, seq, [n])
    mod = p**level
    total = 0j
    for i in range(n):
        residue = 0
        for q in qs:
            big_a, big_b = _affine_power(a, b, q(i), mod)
            residue += big_a * x0 + big_b
        total += int(seq.values[i]) * cmath.exp(2j * math.pi * ((residue % mod) / mod))
    assert abs(total / n - series.averages[0]) <= 1e-12


@pytest.mark.parametrize(
    "p, a, b, level, x0",
    [(3, 4, 1, 2, 5), (3, 4, 1, 5, 12345), (5, 6, 2, 4, 77), (7, 8, 3, 3, 10), (3, 6, 1, 3, 4), (2, 5, 1, 6, 3)],
    ids=["3^2", "3^5", "5^4", "7^3", "3^3-tail", "2^6"],
)
def test_average_is_the_sum_of_exact_class_word_units(p, a, b, level, x0):
    """Each unit is e(floor(k 2^64 / m) 2^-64) of its class k < m = p^level, the exact word a stream would hold.

    Term by term, with each word's phase correctly rounded, e(.) from ``cmath`` and the terms summed
    exactly by ``math.fsum``, the average agrees within 1e-16 at both checkpoints.
    """
    n = 2000
    system = PadicAffineSystem.from_ints(p, a, b)
    qs = [TimePolynomial.from_power(2), TimePolynomial.from_power(1)]
    seq = rademacher_sequence(level + 1, n)
    cps = [n // 3, n]
    series = padic_weighted_average(system, level, x0, qs, seq, cps)
    mod = p**level
    terms = []
    for i in range(n):
        k = sum(big_a * x0 + big_b for big_a, big_b in (_affine_power(a, b, q(i), mod) for q in qs)) % mod
        terms.append(int(seq.values[i]) * cmath.exp(2j * math.pi * ((k * 2**64 // mod) / 2**64)))
    expected = [complex(math.fsum(t.real for t in terms[:c]), math.fsum(t.imag for t in terms[:c])) / c for c in cps]
    assert np.abs(series.averages - expected).max() <= 1e-16


def _squared_distance(lead, center, shift):
    """q(n) = lead * (n - center)^2 + shift in the binomial basis: q(0), dq(0), d^2 q(0)."""
    values = [lead * (n - center) ** 2 + shift for n in range(3)]
    return TimePolynomial((values[0], values[1] - values[0], values[2] - 2 * values[1] + values[0]))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5]),
    level=st.integers(1, 4),
    k=st.integers(1, 50),
    b=st.integers(0, 10**4),
    x0=st.integers(0, 10**4),
    q=st.one_of(
        st.lists(st.integers(0, 4), min_size=1, max_size=4).map(lambda c: TimePolynomial(tuple(c))),
        st.builds(_squared_distance, st.integers(1, 2), st.integers(0, 150), st.integers(0, 3)),
    ),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**31),
)
@example(p=3, level=4, k=1, b=1, x0=5, q=TimePolynomial((2,)), n=40, seed=1)  # a constant below level
@example(p=3, level=4, k=2, b=2, x0=7, q=TimePolynomial((0, 0, 0)), n=40, seed=2)  # q = 0
@example(p=5, level=0, k=1, b=1, x0=3, q=TimePolynomial((0, 0, 1)), n=40, seed=3)  # level 0
@example(p=3, level=4, k=1, b=1, x0=11, q=TimePolynomial((0, 1)), n=40, seed=4)  # q = n: the same runs
@example(p=5, level=4, k=3, b=7, x0=2, q=_squared_distance(1, 2, 0), n=40, seed=5)  # runs 1..3 and 0..3
def test_preperiodic_average_matches_term_by_term(p, level, k, b, x0, q, n, seed):
    """a = k * p: tails up to ``level`` long, met wherever q(n) dips below the tail length."""
    a = k * p
    system = PadicAffineSystem.from_ints(p, a, b)
    seq = rademacher_sequence(seed, n)
    cps = sorted({1, (n + 1) // 2, n})
    series = padic_weighted_average(system, level, x0, [q, TimePolynomial.from_power(1)], seq, cps)
    mod = p**level
    total, expected = 0j, []
    for i in range(n):
        residue = 0
        for t in (q(i), i):
            big_a, big_b = _affine_power(a, b, t, mod)
            residue += big_a * x0 + big_b
        total += int(seq.values[i]) * cmath.exp(2j * math.pi * ((residue % mod) / mod))
        if i + 1 in cps:
            expected.append(total / (i + 1))
    assert np.abs(series.averages - np.asarray(expected)).max() <= 1e-12
