"""Long averages, norms and writes stream in blocks: transient memory does not grow with N."""

import numpy as np

from oscillab.oscillation import sup_search
from oscillab.padic import PadicAffineSystem, padic_weighted_average
from oscillab.polyphase import PhasePolynomial, fourier_bohr_scan, unit_values, weighted_exponential_average
from oscillab.probabilistic import Distribution, RandomSequenceSpec, sample
from oscillab.sequences import cesaro_l1_norm, mobius_sequence, rademacher_sequence, write_sequence
from oscillab.torus import TimePolynomial

N = 4_000_000
MB = 1 << 20


def test_weighted_average_transient_peak(traced_peak):
    weights = rademacher_sequence(3, N)
    poly = PhasePolynomial([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert traced_peak(weighted_exponential_average, weights, poly, [10**5, 10**6, N]) < 16 * MB


def test_unit_values_peak(traced_peak):
    # The complex result itself is 16 MB of this; whole-array scratch would add 56 MB.
    phases = np.random.default_rng(3).random(10**6)
    assert traced_peak(unit_values, phases) < 17 * MB


def test_sup_search_peak(traced_peak):
    # The complex weight prefix is 3.2 MB of this; the refinement holds it,
    # its terms and one factor, and streams one period of each factor.
    weights = rademacher_sequence(7, 200_000)
    assert traced_peak(sup_search, weights, 1, 200_000, 16) < 10.5 * MB


def test_spectrum_scan_transient_peak(traced_peak):
    weights = mobius_sequence(N)
    assert traced_peak(fourier_bohr_scan, weights, 4096, N) < 16 * MB


def test_cesaro_norm_transient_peak(traced_peak):
    weights = mobius_sequence(N)
    assert traced_peak(cesaro_l1_norm, weights, [10**5, N]) < 16 * MB


def test_write_sequence_transient_peak(traced_peak, tmp_path):
    # Half a million lines keep the traced formatting quick; a complex copy alone is 8 MB.
    weights = mobius_sequence(N // 8)
    assert traced_peak(write_sequence, tmp_path / "mobius.txt", weights) < 4 * MB


def test_rademacher_generation_peak(traced_peak):
    # The int8 result itself is 4 MB of this.
    assert traced_peak(rademacher_sequence, 3, N) < 16 * MB


def test_gaussian_sample_peak(traced_peak):
    # The float64 result itself is 8 MB of this.
    spec = RandomSequenceSpec(Distribution("standard-gaussian"), 3, 10**6)
    assert traced_peak(sample, spec) < 16 * MB


def test_padic_average_transient_peak(traced_peak):
    weights = rademacher_sequence(3, N)
    system = PadicAffineSystem.from_ints(3, 4, 1)
    qs = [TimePolynomial.from_power(3), TimePolynomial.from_power(1)]
    # One period of units (3^12 = 531,441, 8.5 MB) and the cycle (4.3 MB) are most of this;
    # streaming every term through a 3^12-root table traced 20.3 MiB, and this keeps within 1 MiB of it.
    peak = traced_peak(padic_weighted_average, system, 12, 12345, qs, weights, [10**5, N])
    assert peak < 21.3 * MB


def test_padic_average_builds_no_root_table_past_the_terms(traced_peak):
    # p^level = 3^13 classes exceed N = 2 * 10^5: a table of their roots alone would be 25.5 MB
    # (60.8 MiB traced with its scratch), so each unit is computed from its class instead.
    weights = rademacher_sequence(3, 200_000)
    system = PadicAffineSystem.from_ints(3, 4, 1)
    qs = [TimePolynomial.from_power(3), TimePolynomial.from_power(1)]
    assert traced_peak(padic_weighted_average, system, 13, 12345, qs, weights, [10**4, 200_000]) < 32 * MB


def test_padic_level_zero_transient_peak(traced_peak):
    # Level 0 averages the weights themselves; a complex copy of all of them would be 64 MB.
    weights = rademacher_sequence(3, N)
    system = PadicAffineSystem.from_ints(3, 4, 1)
    qs = [TimePolynomial.from_power(1)]
    assert traced_peak(padic_weighted_average, system, 0, 0, qs, weights, [10**5, N]) < 16 * MB
