"""Digit-exact p-adic arithmetic, minimality, censuses, cylinder averages."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscillab import padic
from oscillab.padic import (
    PadicAffineSystem,
    PadicNumber,
    _cycle_positions,
    _orbit_cycle,
    affine_minimality_check,
    orbit_residue_census,
    padic_eval_map,
    padic_weighted_average,
)
from oscillab.polyphase import _STREAM_TERMS, PhasePolynomial, _average_series, _drift_bound, phase_blocks
from oscillab.sequences import rademacher_sequence
from oscillab.torus import TimePolynomial


def test_eval_map_example():
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=4)
    x = PadicNumber(3, 4, 5)
    assert padic_eval_map(system, x).value == 21


def test_eval_map_identity():
    system = PadicAffineSystem.from_ints(5, 1, 0, precision=6)
    for value in (0, 3, 5**6 - 1):
        x = PadicNumber(5, 6, value)
        assert padic_eval_map(system, x).value == value


def test_truncation_compatibility_single_digit():
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=1)
    a = padic_eval_map(system, PadicNumber(3, 1, 5))
    b = padic_eval_map(system, PadicNumber(3, 1, 2))
    assert a.value == b.value


def test_eval_map_mismatch_rejected():
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=4)
    with pytest.raises(ValueError):
        padic_eval_map(system, PadicNumber(3, 5, 1))
    with pytest.raises(ValueError):
        padic_eval_map(system, PadicNumber(5, 4, 1))


def test_padic_number_validation():
    with pytest.raises(ValueError):
        PadicNumber(4, 3, 1)  # 4 is not prime
    with pytest.raises(ValueError):
        PadicNumber(3, 0, 1)
    x = PadicNumber(3, 4, 21)
    assert x.digits == (0, 1, 2, 0)
    assert x.truncate(2) == 3


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


def test_minimal_orbits_have_exact_period():
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            system = PadicAffineSystem.from_ints(p, 1 + p, 1, precision=6)
            assert affine_minimality_check(1 + p, 1, p)
            tail, cycle = _orbit_cycle(system, 0, k)
            assert tail == []
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
    """p | a: a tail onto a fixed point; otherwise a cycle from x0 and no tail."""
    assume(p**level <= 5000)
    system = PadicAffineSystem.from_ints(p, a, b)
    tail, cycle = _orbit_cycle(system, x0, level)
    ref_tail, ref_cycle = _dict_walk(system, x0, level)
    assert tail == ref_tail
    assert cycle.dtype == np.int64
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
        stepped = system.step(PadicNumber(p, K, xv))
        for j in range(1, K + 1):
            assert stepped.truncate(j) == system.step_int(xv % p**j, j)


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
    # a = 0 mod 3 contracts onto a short cycle; table path must still be exact
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


def test_cycle_positions_exact_at_envelope_edge():
    """Degree 8, L = 3^16, N = 10^7: every position equals q(n) mod L exactly."""
    q = TimePolynomial((7, 3, 11, 2, 5, 1, 4, 9, 6))
    assert q.degree == 8
    count, cycle_length = 10**7, 3**16
    positions = np.concatenate([block for _, block in _cycle_positions(q, count, cycle_length)])
    indices = list(range(4096)) + list(range(count - 4096, count))
    indices += random.Random(16).sample(range(count), 200)
    for n in indices:
        assert positions[n] == q(n) % cycle_length, n


def test_cycle_positions_refuse_past_rounding_envelope():
    """Degree 8, L = 3^16: the guard admits counts up to its boundary, refuses one more.

    The boundary is found through the guard itself, which raises before
    any term is streamed, so no 10^8-term stream runs.
    """
    q = TimePolynomial((7, 3, 11, 2, 5, 1, 4, 9, 6))
    cycle_length = 3**16

    def admitted(count):
        try:
            _cycle_positions(q, count, cycle_length)
        except ValueError as exc:
            assert "exact rounding envelope" in str(exc)
            return False
        return True

    lo, hi = 10**7, 10**9
    assert admitted(lo) and not admitted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    # 12,572 full rows of 4096 lanes; one more term starts a row past the margin.
    assert lo == 12_572 * 4096
    # A degree-3 stream, as the p-adic benchmark runs, is far inside it.
    assert _cycle_positions(TimePolynomial.from_power(3), 10**9, cycle_length) is not None


def test_drift_bound_covers_observed_error():
    """The phase error of q / L stays below the bound the guard relies on."""
    q = TimePolynomial((7, 3, 11, 2, 5, 1, 4, 9, 6))
    count, cycle_length = 10**6, 3**16
    scaled = PhasePolynomial([c / cycle_length for c in q.monomial_coefficients()])
    limit = cycle_length * (_drift_bound(q.degree, count) * 2.0**-128 + 2.0**-51)
    picks = random.Random(8).sample(range(count), 300) + [count - 1]
    worst = 0.0
    for start, phases in phase_blocks(scaled, count):
        for n in picks:
            if start <= n < start + phases.size:
                k = q(n) % cycle_length
                err = abs(phases[n - start] * cycle_length - k)
                worst = max(worst, min(err, cycle_length - err))
    assert worst <= limit < 0.5


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
]


@pytest.mark.parametrize(("p", "a", "b", "level", "x0", "qs", "period"), _AROUND_THE_PERIOD)
def test_average_around_the_period_matches_term_by_term(p, a, b, level, x0, qs, period, monkeypatch):
    """N at P - 1, P, P + 1, 2P + 1 and 2^16 +- 1, against orbit positions q(n) mod L computed exactly.

    The same averages with the repeat switched off, every unit streamed,
    agree bit for bit, complex weights included.
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
        with monkeypatch.context() as patched:
            patched.setattr(padic, "_period", lambda *coefficients: 2**62)
            streamed = padic_weighted_average(system, level, x0, qs, weights[:n], cps)
        assert series.averages.tobytes() == streamed.averages.tobytes(), n


@pytest.mark.parametrize("a", [4, 3])
def test_level_zero_averages_the_weights_themselves(a):
    """Level 0 is a one-point cycle with unit 1: the averages of the weights made complex, bit for bit."""
    system = PadicAffineSystem.from_ints(3, a, 1)
    n = 2 * _STREAM_TERMS + 7
    weights = np.random.default_rng(a).standard_normal(n)
    cps = (1, 5_000, _STREAM_TERMS, n)
    qs = [TimePolynomial.from_power(2), TimePolynomial((4,))]
    series = padic_weighted_average(system, 0, 11, qs, weights, cps)
    blocks = ((s, weights[s : s + _STREAM_TERMS].astype(complex)) for s in range(0, n, _STREAM_TERMS))
    assert series.averages.tobytes() == _average_series(blocks, cps).averages.tobytes()


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
