"""Long averages, norms and writes stream in blocks: transient memory does not grow with N."""

import numpy as np

from oscillab.oscillation import grid_sup_average, sup_search
from oscillab.padic import PadicAffineSystem, _orbit_cycle, padic_weighted_average
from oscillab.polyphase import (
    PhasePolynomial,
    _phase_words,
    _spectrum,
    fourier_bohr_scan,
    unit_values,
    weighted_exponential_average,
)
from oscillab.probabilistic import Distribution, RandomSequenceSpec, sample
from oscillab.sequences import (
    cesaro_l1_norm,
    liouville_sequence,
    mobius_sequence,
    rademacher_sequence,
    write_sequence,
)
from oscillab.torus import CharacterObservable, SkewShiftSystem, TimePolynomial, build_tower, verify_factorization

N = 4_000_000
MB = 1 << 20


def test_weighted_average_transient_peak(traced_peak):
    weights = rademacher_sequence(3, N)
    poly = PhasePolynomial([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert traced_peak(weighted_exponential_average, weights, poly, [10**5, 10**6, N]) < 16 * MB


def test_phase_words_transient_peak(traced_peak):
    # 1.08 MiB traced: evaluating the seeds of 9 x 4096 lanes sets the peak, above the high words' two
    # register tables and one 512 KB block of words.  Converting each block to floats, as a caller
    # keeping the blocks did, traced 1.63 MiB (2.26 with two-word steps); the whole stream would be 8 MB.
    poly = PhasePolynomial(np.random.default_rng(8).random(9).tolist())

    def drain():
        for _ in _phase_words(poly, 10**6):
            pass

    assert traced_peak(drain) < 2.5 * MB


def test_unit_values_peak(traced_peak):
    # The complex result itself is 16 MB of this; whole-array scratch would add 56 MB.
    phases = np.random.default_rng(3).random(10**6)
    assert traced_peak(unit_values, phases) < 17 * MB


def test_sup_search_peak(traced_peak):
    # The complex weight prefix is 3.2 MB of this; the refinement holds it,
    # its terms and one factor, and streams one period of each factor.
    weights = rademacher_sequence(7, 200_000)
    assert traced_peak(sup_search, weights, 1, 200_000, 16) < 10.5 * MB


def test_grid_stage_folds_the_weights_as_they_are(traced_peak):
    # 0.1 MiB traced: the int8 weights are summed onto the G classes in int64 through a strided view.
    # A complex copy of the weight prefix first traced 61.1 MiB.
    assert traced_peak(grid_sup_average, mobius_sequence(N), 2, 16, N) < 1 * MB


def test_spectrum_scan_transient_peak(traced_peak):
    # 0.67 MiB traced on a process's first scan (0.46 after), most of it the 4096 returned tuples:
    # the int8 weights are summed onto their classes through a strided view, in int64.  Folding
    # complex copies of 2^16-weight blocks instead traced 2.30 MiB.
    weights = mobius_sequence(N)
    assert traced_peak(fourier_bohr_scan, weights, 4096, N) < 1 * MB


def test_zero_padded_spectrum_peak(traced_peak):
    # 160 MiB traced at M = 2^22 >= 4n: the int64 class sums (32 MiB), the FFT's complex input and
    # output (64 MiB each) and the moduli.  fourier_bohr_scan's list of M (frequency, modulus) tuples
    # traces 577 MiB.
    assert traced_peak(_spectrum, mobius_sequence(10**6), 1 << 22, 10**6) < 200 * MB


def test_cesaro_norm_transient_peak(traced_peak):
    weights = mobius_sequence(N)
    assert traced_peak(cesaro_l1_norm, weights, [10**5, N]) < 16 * MB


def test_write_sequence_transient_peak(traced_peak, tmp_path):
    # Half a million lines keep the traced formatting quick; a complex copy alone is 8 MB.
    weights = mobius_sequence(N // 8)
    assert traced_peak(write_sequence, tmp_path / "mobius.txt", weights) < 4 * MB


def test_verify_factorization_transient_peak(traced_peak):
    # Three routes of 10^6 + 1 phases as whole arrays traced 91.6 MiB; a block of each is a few MiB.
    system = SkewShiftSystem(4, 0.6180339887498949)
    tower = build_tower(system, CharacterObservable((2, -1, 3, 1)))
    assert traced_peak(verify_factorization, tower, (0.1, 0.2, 0.3, 0.4), 10**6) < 16 * MB


def test_mobius_sieve_peak(traced_peak):
    # The int8 result itself is 4 MB of this; a full-length helper array would add 16 MB more.
    assert traced_peak(mobius_sequence, N) < 8 * MB


def test_liouville_sieve_peak(traced_peak):
    assert traced_peak(liouville_sequence, N) < 8 * MB


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
    # The int32 cycle (3^12 points, 2.0 MiB) and one 2^16-term block of positions, units and class sums
    # of the weights traced 8.6 MiB; one period of complex units (8.5 MB) repeated against the weights
    # traced 19.7 MiB.
    peak = traced_peak(padic_weighted_average, system, 12, 12345, qs, weights, [10**5, N])
    assert peak < 9.6 * MB


def test_padic_average_at_the_envelope_holds_the_cycle_and_one_block(traced_peak):
    # Level 14 (3^14 = 4,782,969 classes) with N = 6 * 10^6 past the period: the int32 cycle is 18.2 MiB
    # and the rest is one block's scratch.  A complex period of units and an int64 cycle traced 117 MiB.
    weights = rademacher_sequence(3, 6 * 10**6)
    system = PadicAffineSystem.from_ints(3, 4, 1)
    qs = [TimePolynomial.from_power(3), TimePolynomial.from_power(1)]
    peak = traced_peak(padic_weighted_average, system, 14, 12345, qs, weights, [10**5, 6 * 10**6])
    assert peak <= 3**14 * 4 + 8 * MB


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


def test_padic_orbit_cycle_peak(traced_peak):
    # The level-14 cycle of a minimal system is 3^14 int32 points (18.2 MiB); it is filled in place,
    # not gathered as blocks and then concatenated, which held it twice.
    system = PadicAffineSystem.from_ints(3, 4, 1)
    assert traced_peak(_orbit_cycle, system, 12345, 14) <= 3**14 * 4 + 4 * MB
