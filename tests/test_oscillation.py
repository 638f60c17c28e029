"""Grid sup search, local refinement, decay profiles and order reading."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import oscillation
from oscillab.oscillation import (
    DEFAULT_GRID,
    CheckpointEstimate,
    DegreeProfile,
    GridBudgetError,
    OscillationReport,
    classify_exact_order,
    estimate_oscillation_profile,
    grid_sup_average,
    refine_local,
    report_to_json,
    sup_search,
)
from oscillab.polyphase import PhasePolynomial, _phase_words, _word_units, phase_stream, unit_stream
from oscillab.sequences import ComplexSequence, polynomial_phase_sequence

from oracles import unit_values

SQRT2M1 = math.sqrt(2) - 1


def direct_average_modulus(values, coeffs):
    poly = PhasePolynomial(coeffs)
    phases = phase_stream(poly, len(values))
    return abs((values * unit_values(phases)).sum()) / len(values)


def test_grid_zeros_tie_breaks_lexicographically():
    zeros = ComplexSequence(np.zeros(64), "zeros")
    sup, coeffs = grid_sup_average(zeros, 2, 8, 64)
    assert sup == 0.0
    assert coeffs == (0.0, 0.0, 0.0)  # every point ties; first grid index wins


def test_grid_all_ones_peaks_at_zero_polynomial():
    ones = ComplexSequence(np.ones(512), "ones")
    sup, coeffs = grid_sup_average(ones, 1, 16, 512)
    assert sup == pytest.approx(1.0, abs=1e-12)
    assert coeffs == (0.0, 0.0)


def test_grid_quadratic_weyl_below_linear_grid():
    seq = polynomial_phase_sequence(SQRT2M1, 2, 10**5)
    sup, _ = grid_sup_average(seq, 1, 32, 10**5)
    assert sup <= 0.05


def test_grid_budget_error_names_cost():
    ones = ComplexSequence(np.ones(16), "ones")
    with pytest.raises(GridBudgetError) as err:
        grid_sup_average(ones, 3, 128, 16)
    assert "268435456" in str(err.value)


def test_grid_matches_direct_evaluation():
    """Residue bucketing against term-by-term streaming at every grid point."""
    rng = np.random.default_rng(1)
    values = rng.normal(size=512) + 1j * rng.normal(size=512)
    seq = ComplexSequence(values, "random")
    g = 8
    best = -1.0
    best_coeffs = None
    for g1 in range(g):
        for g2 in range(g):
            mod = direct_average_modulus(values, [0.0, g1 / g, g2 / g])
            if mod > best:
                best, best_coeffs = mod, (0.0, g1 / g, g2 / g)
    sup, coeffs = grid_sup_average(seq, 2, g, 512)
    assert abs(sup - best) <= 1e-10
    assert coeffs == best_coeffs


def test_grid_chunked_evaluation_matches(monkeypatch):
    import oscillab.oscillation as osc

    rng = np.random.default_rng(6)
    values = rng.normal(size=400) + 1j * rng.normal(size=400)
    seq = ComplexSequence(values, "random")
    whole = grid_sup_average(seq, 2, 16, 400)
    monkeypatch.setattr(osc, "_GRID_CHUNK_ELEMENTS", 64)
    chunked = grid_sup_average(seq, 2, 16, 400)
    assert chunked == whole


def test_refine_zeros():
    zeros = ComplexSequence(np.zeros(32), "zeros")
    value, _ = refine_local(zeros, 1, (0.0, 0.25), 32)
    assert value == 0.0


def test_refine_holds_exact_resonance():
    n = 10**4
    seq = polynomial_phase_sequence(SQRT2M1, 1, n)
    # The nearest point of the finest lattice the refinement steps on.
    start = (0.0, round((1 - SQRT2M1) * 2**16) / 2**16)
    value, coeffs = refine_local(seq, 1, start, n, initial_step=2.0**-16)
    assert value >= 0.9
    delta = abs(coeffs[1] - (1 - SQRT2M1)) % 1.0
    assert min(delta, 1 - delta) <= 2e-5


def test_refine_never_decreases():
    rng = np.random.default_rng(9)
    for _ in range(10):
        count = int(rng.integers(16, 400))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        seq = ComplexSequence(values, "random")
        start = (0.0,) + tuple(rng.integers(16, size=2) / 16)
        start_value = direct_average_modulus(values, start)
        refined, _ = refine_local(seq, 2, start, count)
        assert refined >= start_value - 1e-15


def reference_refine(values, degree, start, initial_step, min_step=1e-5, max_evals=10_000):
    """Coordinate descent that evaluates every candidate directly."""
    coeffs = [float(c) % 1.0 for c in start]
    best = direct_average_modulus(values, coeffs)
    evals = 1
    step = float(initial_step)
    while step >= min_step and evals < max_evals:
        improved = False
        for i in range(1, degree + 1):
            for delta in (step, -step):
                if evals >= max_evals:
                    break
                candidate = list(coeffs)
                candidate[i] = (candidate[i] + delta) % 1.0
                value = direct_average_modulus(values, candidate)
                evals += 1
                if value > best:
                    best = value
                    coeffs = candidate
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return best, tuple(coeffs)


def test_refine_respects_eval_budget(monkeypatch):
    rng = np.random.default_rng(13)
    values = rng.normal(size=256) + 1j * rng.normal(size=256)
    seq = ComplexSequence(values, "random")
    start = (0.0, 0.5, 0.5)
    for max_evals in (1, 2, 3, 25):
        monkeypatch.setattr(oscillation, "MAX_EVALS", max_evals)
        value, coeffs = refine_local(seq, 2, start, 256)
        ref_value, ref_coeffs = reference_refine(values, 2, start, 1.0 / 16, max_evals=max_evals)
        assert coeffs == ref_coeffs
        assert abs(value - ref_value) <= 1e-12


@pytest.mark.parametrize(
    "grid, count, degree",
    [(g, c, d) for g in (16, 32) for c in (64, 1000, 4096) for d in (1, 2, 3)]
    + [(16, 70_001, 1), (16, 70_001, 2)],
)
def test_refine_matches_direct_evaluation(degree, count, grid, monkeypatch):
    """Scoring from cached terms takes the same path as direct evaluation.

    At 70,001 terms every G = 16 point and shift has a period of at most
    2^16 terms, so the refinement repeats each of its streams, while the
    reference streams every candidate in full.
    """
    rng = np.random.default_rng(1000 * degree + count + grid)
    weights = {
        "random": rng.normal(size=count) + 1j * rng.normal(size=count),
        "zeros": np.zeros(count, dtype=np.complex128),
        "polyphase": polynomial_phase_sequence(SQRT2M1, degree, count).values,
    }
    for name, values in weights.items():
        seq = ComplexSequence(values, name)
        _, start = grid_sup_average(seq, degree, grid, count)
        for max_evals in (1, 2, 25, 10_000):
            monkeypatch.setattr(oscillation, "MAX_EVALS", max_evals)
            value, coeffs = refine_local(seq, degree, start, count, initial_step=1.0 / grid)
            ref_value, ref_coeffs = reference_refine(
                values, degree, start, 1.0 / grid, max_evals=max_evals
            )
            assert coeffs == ref_coeffs, (name, max_evals)
            assert abs(value - ref_value) <= 1e-12, (name, max_evals)
            assert value == direct_average_modulus(values, coeffs)


@pytest.mark.parametrize(
    "start, step",
    [
        ((0.0, 0.0, 0.0, 0.0), 0.1),  # a step off the powers of two
        ((0.0, 0.0, 0.0, 0.0), 1.0),  # 2^0: k >= 1 is required
        ((0.0, 0.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.7, 0.0), 1.0 / 16),  # a start off the 1/16 lattice
        ((0.0, 0.0, 0.0, 1.0 / 32), 1.0 / 16),
    ],
    ids=["step-0.1", "step-1", "step-0", "start-0.7", "start-1/32"],
)
def test_refine_refuses_steps_off_the_dyadic_lattice(start, step, monkeypatch):
    """Only on a 2^-k lattice is t_i - step an exact float, the exact negative move of t_i + step.

    Off it, from t_3 = 0 with step 1/10, (0 + 0.1) % 1 and (0 - 0.1) % 1
    round to moves that miss exact negatives by 2^-55, about 0.75 turn of
    n^3 at N = 3 * 10^5.  Such a start or step is refused before any
    candidate is scored.
    """
    monkeypatch.setattr(oscillation, "unit_stream", _no_search)
    seq = ComplexSequence(np.ones(64), "ones")
    with pytest.raises(ValueError, match="initial_step|start"):
        refine_local(seq, 3, start, 64, initial_step=step)


def _period(poly):
    return math.lcm(*(c.denominator for c in poly.coefficients[1:]))


def _lengths_around(q):
    return sorted({n for n in (q - 1, q, q + 1, 2 * q + 1) if n >= 1})


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(0, 20),
    numerators=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=3),
    constant=st.floats(0.0, 1.0, exclude_max=True),
)
def test_unit_stream_repeats_dyadic_periods_bit_for_bit(bits, numerators, constant):
    """On a 2^-k lattice, with any t_0, the repeated period is the full stream's word units, bit for bit."""
    poly = PhasePolynomial([constant] + [Fraction(m % 2**bits, 2**bits) for m in numerators])
    for n in _lengths_around(_period(poly)):
        expected = np.concatenate([_word_units(hi) for _, (hi, *_) in _phase_words(poly, n)])
        assert np.array_equal(unit_stream(poly, n).view(np.uint64), expected.view(np.uint64)), n


@settings(max_examples=30, deadline=None)
@given(
    numerators=st.lists(st.integers(0, 29), min_size=1, max_size=3),
    denominators=st.lists(st.sampled_from([3, 10]), min_size=3, max_size=3),
)
def test_unit_stream_repeats_other_periods_within_rounding(numerators, denominators):
    """Thirds and tenths have inexact seeds, so a period repeats within 1e-15."""
    poly = PhasePolynomial([0] + [Fraction(m, d) for m, d in zip(numerators, denominators)])
    for n in _lengths_around(_period(poly)) + [5_000]:
        expected = unit_values(phase_stream(poly, n))
        assert np.abs(unit_stream(poly, n) - expected).max() <= 1e-15, n


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("grid", [16, 32])
def test_sup_search_is_grid_then_refine(degree, grid):
    """The one search equals the grid stage plus refinement from its argmax, to the bit."""
    rng = np.random.default_rng(10 * degree + grid)
    count = 700
    weights = {
        "int8": rng.integers(-1, 2, size=count).astype(np.int8),
        "complex": rng.normal(size=count) + 1j * rng.normal(size=count),
    }
    for name, values in weights.items():
        seq = ComplexSequence(values, name)
        for n in (count // 3, count):
            grid_value, start = grid_sup_average(seq, degree, grid, n)
            sup, coeffs = refine_local(seq, degree, start, n, initial_step=1.0 / grid)
            assert sup_search(seq, degree, n, grid) == CheckpointEstimate(n, sup, coeffs, grid_value)


def _no_search(*args, **kwargs):
    raise AssertionError("a search ran before the inputs were checked")


def test_profile_refuses_over_budget_pitch_before_any_search(monkeypatch):
    """The pitch asked for is the pitch used: G^(d+1) over budget is an error, not a halving."""
    monkeypatch.setattr(oscillation, "grid_sup_average", _no_search)
    ones = ComplexSequence(np.ones(1000), "ones")
    with pytest.raises(GridBudgetError, match="budget"):
        estimate_oscillation_profile(ones, 2, [250, 500, 1000], grid_per_dim=256)


@pytest.mark.parametrize(
    "grid, message",
    [(1, "power of two"), (5, "power of two"), (10, "power of two"), (12, "power of two"),
     (16.5, "integer")],
)
def test_search_refuses_pitch_off_powers_of_two_before_any_search(grid, message, monkeypatch):
    """A pitch 1/G puts the grid on floats only when G = 2^k.

    At G = 10 the grid scored the exact 7/10 while the refinement started
    from float(0.7), 1.2 turns away at n^3 by N = 3 * 10^5: weights
    conj e(7/10 n^3) got a sup of 0.483 beside a grid_sup of 1.000.
    """
    monkeypatch.setattr(oscillation, "_class_sums", _no_search)
    monkeypatch.setattr(oscillation, "unit_stream", _no_search)
    ones = ComplexSequence(np.ones(1000), "ones")
    with pytest.raises(ValueError, match=f"grid_per_dim: .*{message}"):
        estimate_oscillation_profile(ones, 3, [250, 500, 1000], grid_per_dim=grid)
    with pytest.raises(ValueError, match=f"grid_per_dim: .*{message}"):
        sup_search(ones, 1, 1000, grid)
    with pytest.raises(ValueError, match=f"grid_per_dim: .*{message}"):
        grid_sup_average(ones, 2, grid, 1000)


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from([2, 4, 8, 16, 32]),
    degree=st.integers(1, 3),
    digits=st.lists(st.integers(0, 31), min_size=3, max_size=3),
    noise=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sup_search_never_reports_below_its_grid(grid, degree, digits, noise, seed):
    """sup >= grid_sup: a resonance at a grid point plus random weights.

    The weights are conj e(P(n)) at a grid point P, the resonance the grid
    finds exactly, plus ``noise`` times random complex weights.  The
    refinement starts at the grid argmax, which it can only improve; the
    grid folds residues and the refinement streams terms, so the two
    values of one point may differ in their last bits.
    """
    if grid ** (degree + 1) > oscillation.GRID_BUDGET:
        return
    count = 3_000
    coeffs = [0.0] + [(d % grid) / grid for d in digits[:degree]]
    rng = np.random.default_rng(seed)
    resonance = np.conj(unit_values(phase_stream(PhasePolynomial(coeffs), count)))
    values = resonance + noise * (rng.normal(size=count) + 1j * rng.normal(size=count))
    estimate = sup_search(ComplexSequence(values, "resonance"), degree, count, grid)
    assert estimate.sup >= estimate.grid_sup - 1e-12


def test_profile_refuses_checkpoints_past_sequence_before_any_search(monkeypatch):
    monkeypatch.setattr(oscillation, "grid_sup_average", _no_search)
    ones = ComplexSequence(np.ones(1000), "ones")
    with pytest.raises(ValueError, match="checkpoints: 2000 exceeds available length 1000"):
        estimate_oscillation_profile(ones, 1, [250, 500, 2000])


def test_profile_uses_the_pitch_asked_for():
    seq = polynomial_phase_sequence(SQRT2M1, 2, 400)
    default = estimate_oscillation_profile(seq, 3, [100, 200, 400])
    assert [p.grid_per_dim for p in default.degrees] == [DEFAULT_GRID[d] for d in (1, 2, 3)]
    chosen = estimate_oscillation_profile(seq, 3, [100, 200, 400], grid_per_dim=32)
    assert [p.grid_per_dim for p in chosen.degrees] == [32, 32, 32]


def test_grid_monotone_in_degree_on_nested_grids():
    rng = np.random.default_rng(19)
    for _ in range(5):
        count = int(rng.integers(64, 700))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        seq = ComplexSequence(values, "random")
        sup1, _ = grid_sup_average(seq, 1, 8, count)
        sup2, _ = grid_sup_average(seq, 2, 8, count)
        sup3, _ = grid_sup_average(seq, 3, 8, count)
        assert sup1 <= sup2 + 1e-14
        assert sup2 <= sup3 + 1e-14


def test_grid_sup_bounded_by_cesaro():
    rng = np.random.default_rng(21)
    values = rng.normal(size=300) + 1j * rng.normal(size=300)
    seq = ComplexSequence(values, "random")
    bound = np.abs(values).sum() / 300
    sup, _ = grid_sup_average(seq, 2, 8, 300)
    assert sup <= bound + 1e-12


def test_profile_all_ones_non_decaying():
    ones = ComplexSequence(np.ones(4000), "ones")
    report = estimate_oscillation_profile(ones, 1, [1000, 2000, 4000])
    assert {p.degree: p for p in report.degrees}[1].verdict == "non-decaying"
    assert classify_exact_order(report) == "not oscillating of order 1"


def test_profile_cubic_phase_decays_below_its_degree():
    seq = polynomial_phase_sequence(SQRT2M1, 3, 10**5)
    report = estimate_oscillation_profile(
        seq, 2, [12500, 25000, 50000, 100000]
    )
    profiles = {p.degree: p for p in report.degrees}
    assert profiles[1].verdict == "decaying"
    assert profiles[2].verdict == "decaying"
    assert classify_exact_order(report) == ">= 3"


def test_profile_requires_three_checkpoints():
    ones = ComplexSequence(np.ones(100), "ones")
    with pytest.raises(ValueError):
        estimate_oscillation_profile(ones, 1, [50, 100])


def test_profile_deterministic():
    rng = np.random.default_rng(2)
    values = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    seq = ComplexSequence(values, "random")
    a = estimate_oscillation_profile(seq, 2, [500, 1000, 2000])
    b = estimate_oscillation_profile(seq, 2, [500, 1000, 2000])
    for pa, pb in zip(a.degrees, b.degrees):
        assert pa == pb


def synthetic_report(verdicts):
    profiles = []
    for degree, verdict in enumerate(verdicts, start=1):
        est = tuple(
            CheckpointEstimate(n, 0.01, (0.0,) * (degree + 1), 0.01)
            for n in (100, 200, 400)
        )
        profiles.append(DegreeProfile(degree, est, -0.5, verdict, 16))
    return OscillationReport(tuple(profiles))


def test_classify_exact_order_paths():
    assert classify_exact_order(
        synthetic_report(["decaying", "decaying", "non-decaying"])
    ) == 2
    assert classify_exact_order(
        synthetic_report(["decaying", "decaying", "decaying"])
    ) == ">= 4"
    assert classify_exact_order(
        synthetic_report(["non-decaying", "decaying"])
    ) == "not oscillating of order 1"
    assert classify_exact_order(
        synthetic_report(["decaying", "inconclusive", "non-decaying"])
    ) == "inconclusive"


def test_report_json_schema():
    import json

    report = synthetic_report(["decaying"])
    payload = json.loads(report_to_json(report))
    assert isinstance(payload, list)
    entry = payload[0]
    assert set(entry) == {"degree", "grid_per_dim", "checkpoints", "slope", "verdict"}
    assert set(entry["checkpoints"][0]) == {"n", "sup", "coeffs", "grid_sup"}
