"""Skew-shift orbits, tower identities, factorization routes, multiple averages."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillab.polyphase import PhasePolynomial, phase_at, phase_stream
from oscillab.sequences import ComplexSequence, rademacher_sequence
from oscillab.torus import (
    CharacterObservable,
    QuasiEigenTower,
    SkewShiftSystem,
    TimePolynomial,
    TowerLevel,
    build_tower,
    multiple_ergodic_average,
    tower_phase_polynomial,
    tower_thetas,
    verify_factorization,
)

from oracles import evaluate, is_valid, orbit_point, skew_step, unit_values

GOLDEN = (math.sqrt(5) - 1) / 2


def circular_distance(a: float, b: float) -> float:
    delta = abs(a - b) % 1.0
    return min(delta, 1.0 - delta)


def random_tower(rng, max_dim=4):
    m = int(rng.integers(1, max_dim + 1))
    system = SkewShiftSystem(m, GOLDEN)
    freqs = [int(v) for v in rng.integers(-3, 4, m)]
    if not any(freqs):
        freqs[-1] = 1
    return system, build_tower(system, CharacterObservable(tuple(freqs)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_skew_shift_refuses_non_finite_alpha_and_points(bad):
    with pytest.raises(ValueError, match="alpha"):
        SkewShiftSystem(2, bad)
    with pytest.raises(ValueError, match="point"):
        SkewShiftSystem(2, 0.25).validate_point((0.1, bad))


def test_orbit_identity_at_zero():
    system = SkewShiftSystem(3, 0.37)
    x = (0.1, 0.2, 0.3)
    assert orbit_point(system, x, 0) == x


def test_orbit_circle_rotation():
    system = SkewShiftSystem(1, 0.125)
    for n in range(20):
        assert orbit_point(system, (0.5,), n)[0] == pytest.approx(
            (0.5 + n * 0.125) % 1.0, abs=1e-12
        )


def test_orbit_point_folds_a_coordinate_that_rounds_to_one():
    """x_2 + x_1 = 1 - 2^-54 + 2^-60 rounds to 1.0 as a float; it reads as 0.0."""
    x = (1 - 2**-53, 2**-54 + 2**-60)
    assert orbit_point(SkewShiftSystem(2, 0.25), x, 1) == (0.2499999999999999, 0.0)
    assert evaluate(CharacterObservable((1, 1)), x) == 1.0


def test_orbit_hand_iterated_example():
    system = SkewShiftSystem(2, 0.1)
    x = (0.25, 0.5)
    expected = x
    for _ in range(4):
        expected = skew_step(system, expected)
    got = orbit_point(system, x, 4)
    assert got[0] == pytest.approx(0.65, abs=1e-12)
    assert got[1] == pytest.approx(0.10, abs=1e-12)
    assert got[0] == pytest.approx(expected[0], abs=1e-9)
    assert got[1] == pytest.approx(expected[1], abs=1e-9)


def exact_step(alpha, point):
    """One-step map in rational arithmetic (drift-free iteration oracle)."""
    new = [(point[0] + alpha) % 1]
    for j in range(1, len(point)):
        new.append((point[j] + point[j - 1]) % 1)
    return tuple(new)


def test_orbit_closed_form_matches_iteration():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        alpha = float(rng.random())
        system = SkewShiftSystem(m, alpha)
        x = tuple(float(v) for v in rng.random(m))
        point = tuple(Fraction(c) for c in x)
        alpha_f = Fraction(alpha)
        for n in range(1, 1001):
            point = exact_step(alpha_f, point)
            if n % 125 == 0:
                closed = orbit_point(system, x, n)
                for a, b in zip(closed, point):
                    delta = abs(a - float(b)) % 1.0
                    assert min(delta, 1 - delta) <= 1e-9


def test_build_tower_second_coordinate_character():
    system = SkewShiftSystem(2, 0.1)
    tower = build_tower(system, CharacterObservable((0, 1)))
    assert tower.order == 2
    assert tower.levels[2].frequencies == (0, 1)
    assert tower.levels[1].frequencies == (1, 0)
    assert tower.levels[1].constant_phase == 0
    assert tower.levels[0].frequencies == (0, 0)
    assert tower.levels[0].constant_phase == Fraction(0.1)
    assert is_valid(tower)


def test_build_tower_eigenfunction_case():
    system = SkewShiftSystem(2, 0.3)
    tower = build_tower(system, CharacterObservable((1, 0)))
    assert tower.order == 1
    # eigenvalue level: constant phase alpha
    assert tower.levels[0].constant_phase == Fraction(0.3)


def test_build_tower_order_three():
    system = SkewShiftSystem(3, 0.2)
    tower = build_tower(system, CharacterObservable((0, 0, 1)))
    assert tower.order == 3


def test_build_tower_rejects_zero_vector():
    system = SkewShiftSystem(2, 0.1)
    with pytest.raises(ValueError):
        build_tower(system, CharacterObservable((0, 0)))
    const = QuasiEigenTower(system, (TowerLevel(Fraction(0.25) % 1, (0, 0)),))
    assert const.order == 0


def test_tower_identities_hold_for_random_towers():
    rng = np.random.default_rng(5)
    for _ in range(50):
        _, tower = random_tower(rng)
        assert is_valid(tower)


def test_tower_phase_polynomial_example():
    system = SkewShiftSystem(2, 0.1)
    tower = build_tower(system, CharacterObservable((0, 1)))
    x = (0.25, 0.5)
    thetas = tower_thetas(tower, x)
    assert [float(t) for t in thetas] == [0.1, 0.25, 0.5]
    q = tower_phase_polynomial(tower, x)
    assert phase_at(q, 4) == pytest.approx(0.1, abs=1e-12)
    for n in range(12):
        direct = (0.1 * math.comb(n, 2) + 0.25 * n + 0.5) % 1.0
        assert circular_distance(phase_at(q, n), direct) <= 1e-12


def test_tower_phase_polynomial_at_origin():
    system = SkewShiftSystem(3, 0.2)
    tower = build_tower(system, CharacterObservable((0, 0, 1)))
    q = tower_phase_polynomial(tower, (0.0, 0.0, 0.0))
    for n in range(20):
        assert circular_distance(phase_at(q, n), (0.2 * math.comb(n, 3)) % 1.0) <= 1e-12


def test_tower_phase_polynomial_rotation():
    system = SkewShiftSystem(1, 0.3)
    tower = build_tower(system, CharacterObservable((1,)))
    q = tower_phase_polynomial(tower, (0.6,))
    assert q.degree <= 1
    for n in range(10):
        assert circular_distance(phase_at(q, n), (0.3 * n + 0.6) % 1.0) <= 1e-12


def test_verify_factorization_sharp():
    system = SkewShiftSystem(2, 0.1)
    tower = build_tower(system, CharacterObservable((0, 1)))
    assert verify_factorization(tower, (0.25, 0.5), 1000) <= 1e-9


def test_verify_factorization_random_towers():
    rng = np.random.default_rng(7)
    for _ in range(20):
        system, tower = random_tower(rng)
        x = tuple(float(v) for v in rng.random(system.dimension))
        assert verify_factorization(tower, x, 300) <= 1e-9


def broken_level(tower, j, change):
    """``tower`` with level j's constant moved by 1/10 or its frequencies replaced."""
    levels = list(tower.levels)
    level = levels[j]
    if isinstance(change, Fraction):
        levels[j] = TowerLevel((level.constant_phase + change) % 1, level.frequencies)
    else:
        levels[j] = TowerLevel(level.constant_phase, change)
    return QuasiEigenTower(tower.system, tuple(levels))


@pytest.mark.parametrize(
    "j, change",
    [(0, Fraction(1, 10)), (1, Fraction(1, 10)), (2, Fraction(1, 10)), (1, (2, 0, 0)), (2, (0, 1, 1))],
)
def test_verify_factorization_rejects_a_broken_lower_level(j, change):
    """One lower level broken: the identity check fails and the routes split by >= 1.

    Route 1 reads the top character on the orbit, routes 2 and 3 the
    level phases, which now drift from it by a multiple of C(n, k - j).
    """
    system = SkewShiftSystem(3, GOLDEN)
    x = (0.1, 0.2, 0.3)
    tower = build_tower(system, CharacterObservable((0, 0, 1)))
    assert is_valid(tower)
    assert verify_factorization(tower, x, 1000) <= 1e-9
    broken = broken_level(tower, j, change)
    assert not is_valid(broken)
    assert verify_factorization(broken, x, 1000) >= 1


def test_verify_factorization_top_constant_is_a_global_phase():
    """The top level's constant multiplies every route alike, so neither check catches a change."""
    system = SkewShiftSystem(3, GOLDEN)
    x = (0.1, 0.2, 0.3)
    tower = broken_level(build_tower(system, CharacterObservable((0, 0, 1))), 3, Fraction(1, 10))
    assert is_valid(tower)
    assert verify_factorization(tower, x, 1000) <= 1e-9


@pytest.mark.parametrize(
    "x, freqs",
    [
        ((0.1, 0.2, 0.3), (0, 0, 1)),
        ((0.1, 0.2, 0.3, 0.4), (0, 0, 0, 1)),
        ((0.1, 0.2, 0.3, 0.4, 0.5), (0, 0, 0, 0, 1)),
        ((0.1, 0.2, 0.3, 0.4), (1, -2, 3, 1)),
    ],
    ids=["readme", "top-4", "top-5", "mixed-4"],
)
def test_verify_factorization_is_exactly_zero_on_exact_inputs(x, freqs):
    """Float inputs >= 2^-76 are exact in 128-bit fixed point, and so are the thetas and route 1's front.

    So the three routes step one exact value each and convert it alike:
    the deviation is 0.0, not merely small, at n_max = 10^5.
    """
    tower = build_tower(SkewShiftSystem(len(x), 0.618033988749895), CharacterObservable(freqs))
    assert verify_factorization(tower, x, 10**5) == 0.0


def test_verify_factorization_is_exactly_zero_on_inputs_below_2_to_the_minus_128():
    """alpha = 1e-25 and x with bits below 2^-128 are truncated once, so every route sees one dyadic input.

    Before, each route truncated a different quantity (x, the thetas, the
    tower polynomial's seeds), and the difference grew like C(n, 6) to
    2.2e-5 at n = 10^6.
    """
    x = (3 * 2.0**-90, 0.7, 1e-20, 0.3, 2.0**-100, 0.9)
    tower = build_tower(SkewShiftSystem(6, 1e-25), CharacterObservable((0, 0, 0, 0, 0, 1)))
    assert verify_factorization(tower, x, 10**6) == 0.0


def frequency_pair(rng, m):
    """Two nonzero frequency vectors in [-3, 3]^m whose sum is nonzero too."""
    while True:
        k1, k2 = (tuple(int(v) for v in rng.integers(-3, 4, m)) for _ in range(2))
        if any(k1) and any(k2) and any(a + b for a, b in zip(k1, k2)):
            return k1, k2


def test_summed_frequency_tower_closure():
    """The tower of e(<k1 + k2, x>) is valid and no longer than the longer of the two."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        system = SkewShiftSystem(m, GOLDEN)
        k1, k2 = frequency_pair(rng, m)
        total = tuple(a + b for a, b in zip(k1, k2))
        t1, t2, summed = (build_tower(system, CharacterObservable(k)) for k in (k1, k2, total))
        assert is_valid(summed)
        assert summed.order <= max(t1.order, t2.order)
        assert summed.top.frequencies == total


def exact_value(poly: PhasePolynomial, n: int) -> Fraction:
    return sum(c * n**j for j, c in enumerate(poly.coefficients))


def test_summed_frequency_tower_phase_is_the_sum():
    """Q for k1 + k2 equals Q for k1 plus Q for k2 mod 1 at every integer, exactly.

    The thetas are reduced mod 1 level by level, so the monomial coefficients
    may differ by those of an integer-valued polynomial; the values at
    n = 0..degree are exact rationals, and their differences being integers
    makes the difference integer-valued everywhere.
    """
    rng = np.random.default_rng(12)
    cases = [(3, (1, 2, 0), (0, -1, 1), (0.12, 0.34, 0.56))]
    for _ in range(200):
        m = int(rng.integers(1, 5))
        cases.append((m, *frequency_pair(rng, m), tuple(float(v) for v in rng.random(m))))
    for m, k1, k2, x in cases:
        system = SkewShiftSystem(m, GOLDEN)
        total = tuple(a + b for a, b in zip(k1, k2))
        p1, p2, summed = (
            tower_phase_polynomial(build_tower(system, CharacterObservable(k)), x) for k in (k1, k2, total)
        )
        degree = max(p1.degree, p2.degree)
        assert summed.degree <= degree
        for n in range(degree + 1):
            assert (exact_value(summed, n) - exact_value(p1, n) - exact_value(p2, n)).denominator == 1


def test_time_polynomial_basics():
    q = TimePolynomial((0, 1, 2))  # n^2
    assert q.degree == 2
    assert [q(n) for n in range(6)] == [0, 1, 4, 9, 16, 25]
    cubed = TimePolynomial.from_power(3)
    assert [cubed(n) for n in range(5)] == [0, 1, 8, 27, 64]
    assert TimePolynomial.from_power(0)(17) == 1


def test_integer_fields_refuse_fractional_values():
    with pytest.raises(ValueError, match=r"binomial_coefficients: expected an integer, got 1\.5"):
        TimePolynomial((1.5, 2.7))
    with pytest.raises(ValueError, match=r"frequencies: expected an integer, got 1\.5"):
        CharacterObservable((0, 1.5))
    assert TimePolynomial((np.int64(-3), 2.0)).binomial_coefficients == (-3, 2)
    assert CharacterObservable((0, np.int32(1), 1e6)).frequencies == (0, 1, 1000000)


def test_time_polynomial_negativity_detection():
    # q(n) = C(n,1) - 3 = n - 3 dips below zero for n < 3
    q = TimePolynomial((-3, 1))
    assert q.first_negative_on_range(10) == 0
    assert TimePolynomial((0, 1)).first_negative_on_range(100) is None
    # (n - 5)^2 - 1 is negative exactly at n in {4, 5, 6} ... check root localization
    shifted = TimePolynomial((24, -9, 2))  # expands to n^2 - 10n + 24 = (n-4)(n-6)
    assert [shifted(n) for n in range(8)] == [24, 15, 8, 3, 0, -1, 0, 3]
    assert shifted.first_negative_on_range(100) == 5


def first_negative_by_scan(q, count):
    return next((n for n in range(count) if q(n) < 0), None)


def negative_runs_by_scan(q, count):
    runs = []
    for n in range(count):
        if q(n) < 0:
            if runs and runs[-1][1] == n:
                runs[-1] = (runs[-1][0], n + 1)
            else:
                runs.append((n, n + 1))
    return runs


def binomial_coefficients_of(values):
    """a_j = (forward difference)^j q(0) from q(0), ..., q(d)."""
    coeffs = []
    row = list(values)
    while row:
        coeffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(coeffs)


# q(198) = 0, q(199) = -1024, q(200) = 0: three roots within one unit,
# where a floating-point root finder reports no real root near 199.
NEAR_MISS = (
    255644319744000000, -7605530195891200, 189498201516032,
    -3796164550656, 57323347968, -579993600, 2949120,
)


def test_first_negative_near_miss_example():
    q = TimePolynomial(NEAR_MISS)
    assert [q(n) for n in (198, 199, 200)] == [0, -1024, 0]
    assert q.first_negative_on_range(400) == 199
    assert q.first_negative_on_range(199) is None
    assert q.first_negative_on_range(200) == 199


@settings(max_examples=300, deadline=None)
@given(
    center=st.integers(0, 300),
    den=st.integers(1, 4),
    offsets=st.lists(st.integers(-4, 4), min_size=2, max_size=6),
    lead=st.sampled_from([-2, -1, 1, 2, 3]),
    shift=st.integers(-3, 3),
    count=st.integers(1, 400),
)
def test_first_negative_clustered_roots_match_scan(center, den, offsets, lead, shift, count):
    """q(n) = lead * prod(den n - den center - s) + shift, roots clustered near center."""

    def direct(n):
        return lead * math.prod(den * n - den * center - s for s in offsets) + shift

    q = TimePolynomial(binomial_coefficients_of([direct(n) for n in range(len(offsets) + 1)]))
    assert all(q(n) == direct(n) for n in range(0, 400, 37))
    assert q.first_negative_on_range(count) == first_negative_by_scan(direct, count)
    assert q.negative_runs(count) == negative_runs_by_scan(direct, count)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7),
    count=st.integers(1, 300),
)
@example(coeffs=list(NEAR_MISS), count=400)
def test_first_negative_random_coefficients_match_scan(coeffs, count):
    q = TimePolynomial(tuple(coeffs))
    assert q.first_negative_on_range(count) == first_negative_by_scan(q, count)
    assert q.negative_runs(count) == negative_runs_by_scan(q, count)


def product_polynomial(factors, lead=1, shift=0):
    """q(n) = lead * prod(den * n - num) + shift as a TimePolynomial, and the same q as a function."""

    def direct(n):
        return lead * math.prod(den * n - num for den, num in factors) + shift

    q = TimePolynomial(binomial_coefficients_of([direct(n) for n in range(len(factors) + 1)]))
    assert all(q(n) == direct(n) for n in range(0, 500, 41))
    return q, direct


@settings(max_examples=150, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(1, 3), st.integers(-20, 250)), min_size=9, max_size=12
    ),
    lead=st.sampled_from([-3, -1, 1, 2]),
    shift=st.integers(-3, 3),
    count=st.integers(1, 150),
)
def test_negative_runs_degrees_nine_to_twelve_match_scan(factors, lead, shift, count):
    q, direct = product_polynomial(factors, lead, shift)
    assert q.degree == len(factors)
    assert q.negative_runs(count) == negative_runs_by_scan(direct, count)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(
        st.tuples(st.integers(0, 120), st.integers(1, 4)), min_size=1, max_size=3
    ),
    lead=st.sampled_from([-2, -1, 1, 3]),
    shift=st.integers(-2, 2),
    count=st.integers(1, 150),
)
def test_negative_runs_repeated_roots_match_scan(roots, lead, shift, count):
    """Each root r is repeated up to four times."""
    factors = [(1, r) for r, times in roots for _ in range(times)]
    q, direct = product_polynomial(factors, lead, shift)
    assert q.negative_runs(count) == negative_runs_by_scan(direct, count)


def test_negative_runs_touch_both_ends():
    # (2n - 5)(2n - 15)(2n - 25) < 0 exactly for n <= 2 and 8 <= n <= 12.
    q, direct = product_polynomial([(2, 5), (2, 15), (2, 25)])
    assert q.negative_runs(13) == [(0, 3), (8, 13)]
    assert q.negative_runs(11) == [(0, 3), (8, 11)]
    # -(n - 3)^2 (n - 9) is negative exactly for 10 <= n: the run ends at count.
    falling, _ = product_polynomial([(1, 3), (1, 3), (1, 9)], lead=-1)
    assert falling.negative_runs(30) == [(10, 30)]
    for count in range(1, 40):
        assert q.negative_runs(count) == negative_runs_by_scan(direct, count)
        assert falling.negative_runs(count) == negative_runs_by_scan(falling, count)


def test_negative_runs_counts_one_and_two_and_constants():
    assert TimePolynomial((-1,)).negative_runs(5) == [(0, 5)]
    assert TimePolynomial((-7, 0, 0)).negative_runs(1) == [(0, 1)]
    assert TimePolynomial((-7, 0, 0)).first_negative_on_range(9) == 0
    assert TimePolynomial((0,)).negative_runs(5) == []
    assert TimePolynomial((1, -2)).negative_runs(1) == []  # 1 - 2n
    assert TimePolynomial((1, -2)).negative_runs(2) == [(1, 2)]
    assert TimePolynomial((-1, 2)).negative_runs(2) == [(0, 1)]  # -1 + 2n
    assert TimePolynomial((-1, -1)).negative_runs(2) == [(0, 2)]  # -1 - n
    assert TimePolynomial((-1, 1)).negative_runs(2) == [(0, 1)]  # n - 1
    assert TimePolynomial((3, -4, 2)).negative_runs(2) == [(1, 2)]  # n^2 - 5n + 3
    for coeffs in [(-1, -1, 1), (2, -5, 4), (0, -1, 3, -1)]:
        q = TimePolynomial(coeffs)
        for count in (1, 2):
            assert q.negative_runs(count) == negative_runs_by_scan(q, count)


def test_from_power_is_the_power():
    for power in range(13):
        q = TimePolynomial.from_power(power)
        assert q.degree == power
        assert [q(n) for n in range(50)] == [n**power for n in range(50)]


def test_multiple_average_trivial_tensor():
    system = SkewShiftSystem(2, GOLDEN)
    ones = ComplexSequence(np.ones(500), "ones")
    zero_char = CharacterObservable((0, 0))
    series = multiple_ergodic_average(
        system, [zero_char], [TimePolynomial.from_power(1)], (0.1, 0.2), ones, [500]
    )
    assert series.averages[0] == pytest.approx(1.0, abs=1e-12)


def test_multiple_average_reverse_cancellation():
    """Weights chosen as the conjugate composite phase collapse to 1."""
    system = SkewShiftSystem(2, GOLDEN)
    x = (0.25, 0.5)
    chars = [CharacterObservable((0, 1)), CharacterObservable((0, 1))]
    qs = [TimePolynomial.from_power(1), TimePolynomial.from_power(2)]
    from oscillab.polyphase import compose_time_polynomial
    from oscillab.torus import build_tower as bt

    total = PhasePolynomial.zero()
    for char, q in zip(chars, qs):
        tower = bt(system, char)
        total = total + compose_time_polynomial(
            tower_phase_polynomial(tower, x), q
        )
    n = 5000
    conj_weights = np.conj(unit_values(phase_stream(total, n)))
    seq = ComplexSequence(conj_weights, "conjugate-phase")
    series = multiple_ergodic_average(system, chars, qs, x, seq, [n])
    assert abs(series.averages[0] - 1.0) <= 1e-6


def test_multiple_average_random_weights_scale():
    system = SkewShiftSystem(2, GOLDEN)
    chars = [CharacterObservable((0, 1)), CharacterObservable((0, 1))]
    qs = [TimePolynomial.from_power(1), TimePolynomial.from_power(2)]
    seq = rademacher_sequence(1, 10**5)
    series = multiple_ergodic_average(
        system, chars, qs, (0.25, 0.5), seq, [10**5]
    )
    assert abs(series.averages[0]) <= 0.05


def test_multiple_average_matches_literal_iteration():
    system = SkewShiftSystem(2, GOLDEN)
    chars = [CharacterObservable((1, 1)), CharacterObservable((0, 2))]
    qs = [TimePolynomial.from_power(1), TimePolynomial.from_power(2)]
    x = (0.3, 0.7)
    n = 150
    seq = rademacher_sequence(9, n)
    series = multiple_ergodic_average(system, chars, qs, x, seq, [n])
    total = 0.0
    for i in range(n):
        pa, pb = x, x
        for _ in range(qs[0](i)):
            pa = skew_step(system, pa)
        for _ in range(qs[1](i)):
            pb = skew_step(system, pb)
        total += seq.values[i] * evaluate(chars[0], pa) * evaluate(chars[1], pb)
    assert abs(total / n - series.averages[0]) <= 1e-6


def test_multiple_average_rejects_negative_times():
    system = SkewShiftSystem(2, GOLDEN)
    chars = [CharacterObservable((0, 1))]
    qs = [TimePolynomial((-3, 1))]
    seq = rademacher_sequence(2, 100)
    with pytest.raises(ValueError) as err:
        multiple_ergodic_average(system, chars, qs, (0.1, 0.2), seq, [100])
    assert "n = 0" in str(err.value)


def test_composed_degree_law():
    system = SkewShiftSystem(3, GOLDEN)
    from oscillab.polyphase import compose_time_polynomial

    tower = build_tower(system, CharacterObservable((0, 0, 1)))
    q_phase = tower_phase_polynomial(tower, (0.1, 0.2, 0.3))
    for power in (1, 2):
        q = TimePolynomial.from_power(power)
        composed = compose_time_polynomial(q_phase, q)
        assert composed.degree == tower.order * q.degree


def test_boundedness_by_cesaro_with_unit_observables():
    system = SkewShiftSystem(2, GOLDEN)
    chars = [CharacterObservable((1, 1))]
    qs = [TimePolynomial.from_power(2)]
    rng = np.random.default_rng(17)
    values = rng.normal(size=2000)
    seq = ComplexSequence(values, "gaussian")
    series = multiple_ergodic_average(system, chars, qs, (0.4, 0.9), seq, [500, 2000])
    for checkpoint, avg in zip(series.checkpoints, series.averages):
        bound = np.abs(values[:checkpoint]).sum() / checkpoint
        assert abs(avg) <= bound + 1e-12
