"""Full-scale verification runs: one test per exit criterion.

Each test prints a single PASS line with its measured quantities (run
pytest with -s to see them).  Scales and tolerances are pinned here and
nowhere else; the runtime limits are generous on purpose and the
numerical margins below them are typically orders of magnitude wide.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oscillab.oscillation import refine_local, sup_search
from oscillab.padic import PadicAffineSystem, orbit_residue_census, padic_weighted_average
from oscillab.polyphase import (
    PhasePolynomial,
    binomial_phase_polynomial,
    fourier_bohr_scan,
    phase_stream,
    unit_values,
    weighted_exponential_average,
)
from oscillab.probabilistic import (
    Distribution,
    RandomSequenceSpec,
    growth_exponent,
    lsk_empirical_sup,
    sample,
)
from oscillab.sequences import (
    ComplexSequence,
    cesaro_l1_norm,
    mobius_sequence,
    polynomial_phase_sequence,
    rademacher_sequence,
)
from oscillab.torus import (
    CharacterObservable,
    SkewShiftSystem,
    TimePolynomial,
    build_tower,
    multiple_ergodic_average,
    verify_factorization,
)

GOLDEN = (math.sqrt(5) - 1) / 2
SQRT2M1 = math.sqrt(2) - 1


def report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def test_criterion_1_tower_factorization_three_routes():
    """100 random towers, three evaluation routes within 1e-9 up to n = 1000."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        system = SkewShiftSystem(m, GOLDEN)
        freqs = [int(v) for v in rng.integers(-3, 4, m)]
        if not any(freqs):
            freqs[-1] = 1
        tower = build_tower(system, CharacterObservable(tuple(freqs)))
        x = tuple(float(v) for v in rng.random(m))
        worst = max(worst, verify_factorization(tower, x, 1000))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(
        "criterion 1 (tower factorization)",
        f"max pairwise deviation {worst:.3e} over 100 towers in {elapsed:.1f}s",
    )


@pytest.mark.parametrize("d", [1, 2])
def test_criterion_2_exact_order_example(d):
    """e(n^{d+1} (sqrt2 - 1)): degree-d sup decays; resonant phase restores 1."""
    started = time.perf_counter()
    n_small, n_large = 50_000, 200_000
    seq = polynomial_phase_sequence(SQRT2M1, d + 1, n_large)

    sups = {}
    for n in (n_small, n_large):
        sups[n] = sup_search(seq, d, n, 16).sup
    assert sups[n_large] <= 0.1
    assert sups[n_large] < sups[n_small]

    resonant = PhasePolynomial.monomial(Fraction(1) - Fraction(SQRT2M1), d + 1)
    series = weighted_exponential_average(seq, resonant, [n_large])
    deviation = abs(series.averages[0] - 1.0)
    assert deviation <= 1e-6

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        f"criterion 2 (exact-order example, d={d})",
        f"sup {sups[n_small]:.4f} -> {sups[n_large]:.4f}, resonant deviation "
        f"{deviation:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_multiple_averages_at_scale():
    """Skew-shift double average at N = 10^6 for arithmetic and random weights."""
    system = SkewShiftSystem(2, GOLDEN)
    chars = [CharacterObservable((0, 1)), CharacterObservable((0, 1))]
    qs = [TimePolynomial.from_power(1), TimePolynomial.from_power(2)]
    x = (0.25, 0.5)
    n = 10**6

    results = []
    started = time.perf_counter()
    mob = mobius_sequence(n)
    series = multiple_ergodic_average(system, chars, qs, x, mob, [n])
    mob_elapsed = time.perf_counter() - started
    modulus = abs(series.averages[0])
    assert modulus <= 0.05
    assert mob_elapsed < 60.0
    results.append(f"mobius {modulus:.4f} ({mob_elapsed:.1f}s)")

    for seed in (1, 2, 3):
        started = time.perf_counter()
        seq = rademacher_sequence(seed, n)
        series = multiple_ergodic_average(system, chars, qs, x, seq, [n])
        elapsed = time.perf_counter() - started
        modulus = abs(series.averages[0])
        assert modulus <= 0.05
        assert elapsed < 60.0
        results.append(f"seed {seed}: {modulus:.4f} ({elapsed:.1f}s)")
    report("criterion 3 (weighted multiple averages)", "; ".join(results))


def test_criterion_4_mobius_spectrum_and_density():
    """Fourier grid scan of the Moebius weights plus the l1 Cesaro norm."""
    n = 10**6
    seq = mobius_sequence(n)
    scan = fourier_bohr_scan(seq, 1024, n)
    top_freq, top_mod = scan[0]
    refined, coeffs = refine_local(
        seq, 1, (0.0, top_freq), n, initial_step=1.0 / 1024
    )
    assert refined <= 0.05

    norm = cesaro_l1_norm(seq, [n])[0]
    assert abs(norm - 0.6079) <= 0.001
    report(
        "criterion 4 (spectrum scan and density)",
        f"refined peak {refined:.4f} at frequency {coeffs[1]:.6f}, "
        f"l1 Cesaro norm {norm:.6f}",
    )


def test_criterion_5_adding_machine_structure():
    """(4, 1, 3): exact 9-cycle, vanishing full-cycle sums, random-weight decay."""
    system = PadicAffineSystem.from_ints(3, 4, 1)
    census = orbit_residue_census(system, 0, 2, 9)
    assert census == {r: 1 for r in range(9)}

    q1 = TimePolynomial.from_power(1)
    for cycles in (1, 7):
        n = 9 * cycles
        ones = np.ones(n, dtype=np.complex128)
        series = padic_weighted_average(system, 2, 0, [q1], ones, [n])
        assert abs(series.averages[0]) <= 1e-12
        multi = orbit_residue_census(system, 0, 2, n)
        assert multi == {r: cycles for r in range(9)}

    seq = rademacher_sequence(1, 10**5)
    series = padic_weighted_average(
        system, 2, 0, [TimePolynomial.from_power(2)], seq, [10**5]
    )
    modulus = abs(series.averages[0])
    assert modulus <= 0.05
    report(
        "criterion 5 (adding-machine structure)",
        f"9-cycle exact, full-cycle sums < 1e-12, random-weight average {modulus:.4f}",
    )


def test_criterion_6_growth_law():
    """Slope of log sup vs log N in [0.4, 0.6]; every sup below 5 sqrt(N log N)."""
    started = time.perf_counter()
    ns = [2**k for k in range(10, 17)]
    lines = []
    for degree in (1, 2):
        slopes = []
        for seed in (1, 2, 3, 4, 5):
            spec = RandomSequenceSpec(Distribution("rademacher"), seed, ns[-1])
            sups = lsk_empirical_sup(spec, degree, ns, 16)
            for n, sup in sups:
                assert sup <= 5.0 * math.sqrt(n * math.log(n)), (degree, seed, n)
            slope = growth_exponent(sups)
            assert 0.4 <= slope <= 0.6, (degree, seed, slope)
            slopes.append(slope)
        lines.append(
            f"d={degree} slopes {min(slopes):.3f}..{max(slopes):.3f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        "criterion 6 (sup growth law)", "; ".join(lines) + f", {elapsed:.0f}s"
    )


def test_criterion_7_cross_module_consistency():
    """Normalized phase-sum sup equals the oscillation sup on identical grids."""
    worst = 0.0
    for seed, degree, n in ((1, 1, 4096), (2, 2, 2048), (3, 2, 8192)):
        spec = RandomSequenceSpec(Distribution("rademacher"), seed, n)
        seq = sample(spec)
        (_, sup), = lsk_empirical_sup(spec, degree, [n], 8)
        worst = max(worst, abs(sup / n - sup_search(seq, degree, n, 8).sup))
    assert worst <= 1e-10
    report("criterion 7 (cross-module oracle)", f"max discrepancy {worst:.2e}")


def test_criterion_8_exact_invariants_batch():
    """Randomized invariant families, >= 1000 cases each."""
    rng = np.random.default_rng(8)

    # integer-valued shift invariance: adding C(z, 2) changes nothing
    shift = binomial_phase_polynomial([1, 0, 0])
    worst_shift = 0.0
    for _ in range(1000):
        count = int(rng.integers(8, 256))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        poly = PhasePolynomial([float(v) for v in rng.random(3)])
        base = (values * unit_values(phase_stream(poly, count))).sum()
        moved = (values * unit_values(phase_stream(poly + shift, count))).sum()
        worst_shift = max(worst_shift, abs(base - moved) / count)
    assert worst_shift <= 1e-9

    # modulus bound by the l1 Cesaro norm
    for _ in range(1000):
        count = int(rng.integers(4, 200))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        poly = PhasePolynomial([float(v) for v in rng.random(2)])
        avg = (values * unit_values(phase_stream(poly, count))).sum() / count
        assert abs(avg) <= np.abs(values).sum() / count + 1e-12

    # tower group closure: the tower of e(<k1 + k2, x>)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        system = SkewShiftSystem(m, GOLDEN)
        while True:
            k1, k2 = (tuple(int(v) for v in rng.integers(-3, 4, m)) for _ in range(2))
            total = tuple(a + b for a, b in zip(k1, k2))
            if any(k1) and any(k2) and any(total):
                break
        t1, t2, summed = (build_tower(system, CharacterObservable(k)) for k in (k1, k2, total))
        assert summed.is_valid()
        assert summed.order <= max(t1.order, t2.order)

    # p-adic truncation commutation
    for _ in range(1000):
        p = int(rng.choice([3, 5, 7]))
        K = 5
        a, b, xv = (int(v) for v in rng.integers(0, p**K, 3))
        system = PadicAffineSystem.from_ints(p, a, b, precision=K)
        stepped = system.step_int(xv, K)
        for j in range(1, K + 1):
            assert stepped % p**j == system.step_int(xv % p**j, j)

    report(
        "criterion 8 (exact invariants)",
        f"4 families x 1000 cases, worst shift deviation {worst_shift:.2e}",
    )
