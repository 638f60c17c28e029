"""Grid sup search, local refinement, decay profiles and order reading."""

import math

import numpy as np
import pytest

from oscillab.oscillation import (
    CheckpointEstimate,
    DegreeProfile,
    GridBudgetError,
    OscillationReport,
    classify_exact_order,
    estimate_oscillation_profile,
    grid_sup_average,
    refine_local,
    report_to_json,
)
from oscillab.polyphase import PhasePolynomial, phase_stream, unit_values
from oscillab.sequences import ComplexSequence, polynomial_phase_sequence

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
        grid_sup_average(ones, 3, 100, 16)
    assert "100000000" in str(err.value)


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


def test_grid_matches_direct_for_odd_grid_size():
    rng = np.random.default_rng(4)
    values = rng.normal(size=300) + 1j * rng.normal(size=300)
    seq = ComplexSequence(values, "random")
    g = 5
    best = max(
        direct_average_modulus(values, [0.0, g1 / g]) for g1 in range(g)
    )
    sup, _ = grid_sup_average(seq, 1, g, 300)
    assert abs(sup - best) <= 1e-10


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
    start = (0.0, (1 - SQRT2M1) % 1.0)
    value, coeffs = refine_local(seq, 1, start, n)
    assert value >= 0.9
    delta = abs(coeffs[1] - (1 - SQRT2M1)) % 1.0
    assert min(delta, 1 - delta) <= 2e-5


def test_refine_never_decreases():
    rng = np.random.default_rng(9)
    for _ in range(10):
        count = int(rng.integers(16, 400))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        seq = ComplexSequence(values, "random")
        start = (0.0,) + tuple(float(v) for v in rng.random(2))
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


def test_refine_respects_eval_budget():
    rng = np.random.default_rng(13)
    values = rng.normal(size=256) + 1j * rng.normal(size=256)
    seq = ComplexSequence(values, "random")
    start = (0.0, 0.5, 0.5)
    for max_evals in (1, 2, 3, 25):
        value, coeffs = refine_local(seq, 2, start, 256, max_evals=max_evals)
        ref_value, ref_coeffs = reference_refine(values, 2, start, 1.0 / 16, max_evals=max_evals)
        assert coeffs == ref_coeffs
        assert abs(value - ref_value) <= 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("count", [64, 1000, 4096])
@pytest.mark.parametrize("grid", [16, 10])
def test_refine_matches_direct_evaluation(degree, count, grid):
    """Scoring from cached terms takes the same path as direct evaluation.

    G = 16 starts give dyadic shifts; G = 10 starts give inexact float
    shifts, whose +step and -step moves are not exact negatives.
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
            value, coeffs = refine_local(
                seq, degree, start, count, initial_step=1.0 / grid, max_evals=max_evals
            )
            ref_value, ref_coeffs = reference_refine(
                values, degree, start, 1.0 / grid, max_evals=max_evals
            )
            assert coeffs == ref_coeffs, (name, max_evals)
            assert abs(value - ref_value) <= 1e-12, (name, max_evals)
            assert value == direct_average_modulus(values, coeffs)


def test_refine_scores_minus_step_at_its_own_candidate():
    """-step is scored at the float c - step, not at c - (exact +step shift).

    From t_3 = 0 with step 1/10, (0 + 0.1) % 1 and (0 - 0.1) % 1 round to
    shifts that are not exact negatives: they miss by 2^-55.  At
    N = 3 * 10^5 that moves the phase of n^3 by about 0.75 turn.  The
    weights put modulus 0.5 at the start and 0.6 at the -step candidate,
    so a -step score taken from the +step factor (about 0.3) would skip
    the move that direct evaluation takes.
    """
    count = 300_000
    start = (0.0, 0.0, 0.0, 0.0)
    target = (0.0, 0.0, 0.0, (0.0 - 0.1) % 1.0)
    target_terms = unit_values(phase_stream(PhasePolynomial(target), count))
    values = 0.5 + 0.6 * np.conj(target_terms)
    seq = ComplexSequence(values, "two resonances")
    for max_evals in (7, 25):
        value, coeffs = refine_local(seq, 3, start, count, initial_step=0.1, max_evals=max_evals)
        ref_value, ref_coeffs = reference_refine(values, 3, start, 0.1, max_evals=max_evals)
        assert coeffs == ref_coeffs
        assert abs(value - ref_value) <= 1e-12
    assert coeffs[3] == target[3]


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
    assert report.profile(1).verdict == "non-decaying"
    assert classify_exact_order(report) == "not oscillating of order 1"


def test_profile_cubic_phase_decays_below_its_degree():
    seq = polynomial_phase_sequence(SQRT2M1, 3, 10**5)
    report = estimate_oscillation_profile(
        seq, 2, [12500, 25000, 50000, 100000]
    )
    assert report.profile(1).verdict == "decaying"
    assert report.profile(2).verdict == "decaying"
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
    return OscillationReport(tuple(profiles), "synthetic")


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
    assert set(entry) == {"degree", "checkpoints", "slope", "verdict"}
    assert set(entry["checkpoints"][0]) == {"n", "sup", "coeffs"}
