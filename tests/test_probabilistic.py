"""Subnormality margins, empirical sup growth, cross-module consistency."""

import math

import numpy as np
import pytest

from oscillab import oscillation
from oscillab.oscillation import grid_sup_average, refine_local
from oscillab.probabilistic import (
    Distribution,
    RandomSequenceSpec,
    growth_exponent,
    lsk_empirical_sup,
    sample,
    subnormality_margin,
)
from oscillab.sequences import ComplexSequence, _splitmix64


def test_rademacher_margin_nonnegative():
    margins = subnormality_margin(
        Distribution("rademacher"), [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    )
    for lam, margin in margins:
        assert margin >= 0.0
        assert margin == pytest.approx(
            lam * lam / 2 - math.log(math.cosh(lam)), abs=1e-9
        )


def test_gaussian_margin_identically_zero():
    margins = subnormality_margin(Distribution("standard-gaussian"), [0.5, 1, 3])
    assert all(margin == 0.0 for _, margin in margins)


def test_scaled_rademacher_margin_can_fail():
    (_, margin), = subnormality_margin(Distribution("scaled-rademacher", 2.0), [2.0])
    assert margin == pytest.approx(2 - math.log(math.cosh(4.0)), abs=1e-12)
    assert margin < 0


def test_unsupported_distribution_rejected():
    with pytest.raises(ValueError):
        Distribution("cauchy")


def test_spec_scale_restricted_for_sampling():
    with pytest.raises(ValueError):
        RandomSequenceSpec(Distribution("scaled-rademacher", 1.5), 1, 10)
    spec = RandomSequenceSpec(Distribution("scaled-rademacher", 0.5), 1, 10)
    seq = sample(spec)
    assert set(np.abs(seq.values).tolist()) == {0.5}


def test_gaussian_sampling_deterministic():
    spec = RandomSequenceSpec(Distribution("standard-gaussian"), 42, 4096)
    a, b = sample(spec), sample(spec)
    assert np.array_equal(a.values, b.values)
    # Entry n reads only counters 2n and 2n + 1, so a prefix is the shorter sample.
    short = sample(RandomSequenceSpec(Distribution("standard-gaussian"), 42, 1000))
    assert np.array_equal(short.values, a.values[:1000])
    assert abs(a.values.mean()) < 0.1
    assert abs(a.values.std() - 1.0) < 0.1


@pytest.mark.parametrize("length", [1, 65_537, 200_000])
def test_gaussian_draws_match_the_unblocked_formula(length):
    """Blocked Box-Muller gives, bit for bit, the draws of hashing all 2N counters at once."""
    u = ((_splitmix64(42, np.arange(2 * length, dtype=np.uint64)) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    expected = np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
    drawn = sample(RandomSequenceSpec(Distribution("standard-gaussian"), 42, length)).values
    assert drawn.dtype == np.float64
    assert drawn.tobytes() == expected.tobytes()


def test_lsk_zero_sequence():
    zeros = ComplexSequence(np.zeros(256), "zeros")
    sups = lsk_empirical_sup(zeros, 1, [64, 256], 8)
    assert [s for _, s in sups] == [0.0, 0.0]


def test_lsk_constant_one_degenerate():
    ones = ComplexSequence(np.ones(512), "ones")
    sups = lsk_empirical_sup(ones, 1, [128, 512], 8)
    for n, sup in sups:
        assert sup == pytest.approx(n, rel=1e-12)


def test_lsk_refuses_lengths_past_a_direct_sequence(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before n_list was checked")

    monkeypatch.setattr(oscillation, "grid_sup_average", no_search)
    ones = ComplexSequence(np.ones(500), "ones")
    with pytest.raises(ValueError, match="n_list: 1000 exceeds sequence length 500"):
        lsk_empirical_sup(ones, 1, [250, 1000], 8)


def test_lsk_growth_bound_single_seed():
    spec = RandomSequenceSpec(Distribution("rademacher"), 1, 2**14)
    ns = [2**k for k in range(10, 15)]
    sups = lsk_empirical_sup(spec, 1, ns, 16)
    for n, sup in sups:
        assert sup <= 5.0 * math.sqrt(n * math.log(n))


def test_growth_exponent_exact_laws():
    ns = [2**k for k in range(8, 14)]
    assert growth_exponent([(n, math.sqrt(n)) for n in ns]) == pytest.approx(
        0.5, abs=1e-12
    )
    assert growth_exponent([(n, float(n)) for n in ns]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_growth_exponent_validation():
    with pytest.raises(ValueError):
        growth_exponent([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError):
        growth_exponent([(10, 1.0), (20, 0.0), (40, 2.0)])


def test_normalized_sup_matches_oscillation_kernel():
    """Cross-module oracle: sup/N must equal the grid+refine estimate."""
    spec = RandomSequenceSpec(Distribution("rademacher"), 3, 4096)
    seq = sample(spec)
    for degree in (1, 2):
        sups = lsk_empirical_sup(spec, degree, [1024, 4096], 8)
        for n, sup in sups:
            grid_value, grid_coeffs = grid_sup_average(seq, degree, 8, n)
            refined, _ = refine_local(
                seq, degree, grid_coeffs, n, initial_step=1.0 / 8
            )
            assert abs(sup / n - refined) <= 1e-10


def test_sup_monotone_in_degree():
    spec = RandomSequenceSpec(Distribution("rademacher"), 5, 2048)
    sup1 = lsk_empirical_sup(spec, 1, [2048], 8)[0][1]
    sup2 = lsk_empirical_sup(spec, 2, [2048], 8)[0][1]
    assert sup2 >= sup1 - 1e-9


def test_desk_scale_full_oscillation_for_random_weights():
    spec = RandomSequenceSpec(Distribution("rademacher"), 11, 2**16)
    for degree in (1, 2):
        (n, sup), = lsk_empirical_sup(spec, degree, [2**16], 16)
        assert sup / n <= 0.1
